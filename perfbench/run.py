"""fidest benchmark: one workload per call, run in a child process and checked
against the independent reference model.

    python3 perfbench/run.py --workload ideal-practical --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it needs ``src/fidest``).  The child
runs with ``src`` on its path, at most two BLAS threads and a 3 GiB
address-space limit, so running out of memory raises MemoryError inside an
estimate (a failed operation) instead of killing the run.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics from a
traced run.  The last line of standard output is one JSON object; the full
record of the run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
ADDRESS_SPACE_LIMIT = 3 << 30  # about four times the largest workload's address space
SETUP_PROBES = 3  # set-up-only children before and again after the measured child
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "estimates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "abs_error_mean": "1",
    "oracle_queries": "queries",
}

ROOT_SPAN = "pipeline.estimate_fidelity"
# Per-layer metric -> (span name, statistic).  Every value is per estimate
# except peak_mb (largest tracemalloc peak inside one span) and max_dim.
SPAN_METRICS = {
    "pipeline.estimate_fidelity.s": (ROOT_SPAN, "total_s"),
    "pipeline.estimate_fidelity.self_s": (ROOT_SPAN, "self_s"),
    "pipeline.build_w_sigma.self_s": ("pipeline.build_w_sigma", "self_s"),
    "pipeline.build_eta.self_s": ("pipeline.build_eta", "self_s"),
    "pipeline.build_eta.peak_mb": ("pipeline.build_eta", "peak_mb"),
    "sqrt_extractor.build_sqrt_unitary.self_s": ("sqrt_extractor.build_sqrt_unitary", "self_s"),
    "sqrt_extractor.build_sqrt_unitary.calls": ("sqrt_extractor.build_sqrt_unitary", "calls"),
    "sqrt_extractor.build_sqrt_unitary.peak_mb": ("sqrt_extractor.build_sqrt_unitary", "peak_mb"),
    "sqrt_extractor.ideal_sqrt_state.self_s": ("sqrt_extractor.ideal_sqrt_state", "self_s"),
    "block_encoding.purification_to_unitary_be.self_s":
        ("block_encoding.purification_to_unitary_be", "self_s"),
    "block_encoding.be_error.self_s": ("block_encoding.be_error", "self_s"),
    "block_encoding.be_error.calls": ("block_encoding.be_error", "calls"),
    "registers.embed_operator.self_s": ("registers.embed_operator", "self_s"),
    "registers.embed_operator.calls": ("registers.embed_operator", "calls"),
    "registers.partial_trace.self_s": ("registers.partial_trace", "self_s"),
    "registers.project_zero.self_s": ("registers.project_zero", "self_s"),
    "linalg.operator_norm.self_s": ("linalg.operator_norm", "self_s"),
    "linalg.operator_norm.calls": ("linalg.operator_norm", "calls"),
    "linalg.unitarity_defect.self_s": ("linalg.unitarity_defect", "self_s"),
    "linalg.unitarity_defect.calls": ("linalg.unitarity_defect", "calls"),
    "linalg.eig_hermitian.self_s": ("linalg.eig_hermitian", "self_s"),
    "linalg.eig_hermitian.calls": ("linalg.eig_hermitian", "calls"),
    "linalg.complete_unitary.self_s": ("linalg.complete_unitary", "self_s"),
    "states.DensityOperator.self_s": ("states.DensityOperator", "self_s"),
    "states.DensityOperator.calls": ("states.DensityOperator", "calls"),
    "states.Purification.self_s": ("states.Purification", "self_s"),
    "states.Purification.calls": ("states.Purification", "calls"),
    "states.fidelity_exact.self_s": ("states.fidelity_exact", "self_s"),
    "states.purify.self_s": ("states.purify", "self_s"),
    "amplitude.qae_outcome_distribution.self_s": ("amplitude.qae_outcome_distribution", "self_s"),
    "amplitude.qae_estimate.self_s": ("amplitude.qae_estimate", "self_s"),
    "amplitude.exact_amplitude.self_s": ("amplitude.exact_amplitude", "self_s"),
}
# Counts computed from operand shapes and arguments, not timed.
COUNT_METRICS = {
    "linalg.dense_work": "dense_work",  # sum of m n min(m, n) over SVD, eigh and QR operands
    "linalg.max_dim": "max_dim",  # largest operand dimension of those calls
    "amplitude.grid_points": "grid_points",  # sum of M over sampled QAE outcome laws
}
UNITS = {"self_s": "s/estimate", "total_s": "s/estimate", "calls": "calls/estimate",
         "peak_mb": "MB"}
PER_LAYER = {
    **{name: UNITS[stat] for name, (_, stat) in SPAN_METRICS.items()},
    "linalg.dense_work": "d3/estimate",
    "linalg.max_dim": "dim",
    "amplitude.grid_points": "points/estimate",
    "trace.unlisted_self_s": "s/estimate",  # estimate time in spans with no self_s metric above
    "trace.overhead_pct": "%",  # traced over untraced estimate time, minus 100 %
}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run_child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=ROOT, env=child_env(), preexec_fn=_limit_address_space,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_report(pair: workloads.Pair, rep: dict) -> tuple[list[str], float]:
    """Problems found in one report, and |estimate - F_ref|."""
    problems = []
    f_ref = reference.uhlmann_fidelity(pair.a, pair.b)
    if abs(rep["exact_fidelity"] - f_ref) > 1e-7:
        problems.append(f"exact_fidelity {rep['exact_fidelity']!r} vs Uhlmann {f_ref!r}")
    a, b = (pair.b, pair.a) if rep["swapped"] else (pair.a, pair.b)
    pred = reference.predict(
        a, b, rep["kappa_sigma"], rep["t_sigma"], rep["kappa"], rep["t"],
        sigma_circuit=rep["sim_level_sigma"] != "ideal-spectral",
        eta_circuit=rep["sim_level_eta"] != "ideal-spectral",
    )
    if abs(rep["x"] - pred.x) > 1e-9 * pred.x + 1e-18:
        problems.append(f"x {rep['x']!r} vs model {pred.x!r}")
    if abs(rep["w_sigma_error"] - pred.w_sigma_error) > 1e-7:
        problems.append(f"w_sigma_error {rep['w_sigma_error']!r} vs model {pred.w_sigma_error!r}")
    m, x_tilde = rep["qae_m"], rep["x_tilde"]
    outcomes = reference.grid_outcomes(x_tilde, m)
    if not outcomes:
        problems.append(f"x_tilde {x_tilde!r} is not a point of the M={m} grid")
    elif rep["qae_mode"] == "exact":
        if abs(x_tilde - pred.x) > reference.qae_error_bound(pred.x, m) + 1e-9 * pred.x:
            problems.append(f"exact QAE |x~ - x| = {abs(x_tilde - pred.x)!r} over its bound")
    elif not reference.likely_outcomes(pred.x, m)[list(outcomes)].any():
        problems.append(f"sampled outcome {outcomes} outside the 1 - 1e-6 outcome set")
    scale = 16.0 * math.sqrt(rep["kappa"] * rep["kappa_sigma"])
    if abs(rep["estimate"] - scale * x_tilde) > 1e-12 * max(1.0, abs(rep["estimate"])):
        problems.append(f"estimate {rep['estimate']!r} is not 16 sqrt(k k_s) x~")
    queries = reference.oracle_queries(rep["t_sigma"], rep["t"], m)
    if queries != (rep["queries_o_rho"], rep["queries_o_sigma"]):
        problems.append(f"queries {rep['queries_o_rho']}, {rep['queries_o_sigma']} vs {queries}")
    return problems, abs(rep["estimate"] - f_ref)


def check_records(pairs: list[workloads.Pair], records: list[dict]) -> dict:
    """Check every report; count attempts and failures."""
    problems, errors, queries, failed = [], [], [], 0
    for rec in records:
        pair, rep = pairs[rec["op"]], rec["report"]
        if rep is None:
            failed += 1
            continue
        found, err = check_report(pair, rep)
        problems += [f"op {rec['op']} round {rec['round']}: {p}" for p in found]
        errors.append(err)
        queries.append(rep["queries_o_rho"] + rep["queries_o_sigma"])
        if pair.case.check_eps and err > pair.case.eps:
            failed += 1
    return {"problems": problems, "attempted": len(records), "failed": failed,
            "errors": errors, "queries": queries}


def end_to_end(child: dict, setups: list[float], checked: dict) -> dict:
    # Each call's median duration over the run's rounds, so a burst of load
    # from other tenants of the host costs one round, not the run.
    durations: dict[int, list[float]] = {}
    for rec in child["records"]:
        if rec["report"] is not None:
            durations.setdefault(rec["op"], []).append(rec["seconds"])
    round_s = sum(statistics.median(d) for d in durations.values())
    return {
        "setup_s": statistics.median(setups),
        "estimates_per_s": len(durations) / round_s,
        "peak_rss_mb": child["peak_rss_mb"],
        "abs_error_mean": statistics.fmean(checked["errors"]),
        "oracle_queries": math.exp(statistics.fmean(math.log(q) for q in checked["queries"])),
    }


def per_layer(child: dict, round_size: int) -> tuple[dict, list[str]]:
    """Per-estimate layer figures from the timed rounds (peaks from the
    tracemalloc round), and a check that self times account for the traced
    estimate time."""
    timing, names = child["trace"]["timing"], child["trace"]["timing"]["names"]
    peaks = child["trace"]["memory"]["names"]
    estimates = sum(1 for r in child["records"]
                    if 1 <= r["round"] <= child["timing_rounds"] and r["report"] is not None)
    values = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        if stat == "peak_mb":
            values[metric] = peaks.get(span, {}).get("peak_bytes", 0) / 2**20
        else:
            values[metric] = names.get(span, {}).get(stat, 0) / estimates
    for metric, count in COUNT_METRICS.items():
        total = timing["counts"].get(count, 0)
        values[metric] = total if count == "max_dim" else total / estimates
    listed = {span for span, stat in SPAN_METRICS.values() if stat == "self_s"}
    in_root = sum(st["root_self_s"] for st in names.values())
    unlisted = sum(st["root_self_s"] for n, st in names.items() if n not in listed)
    values["trace.unlisted_self_s"] = unlisted / estimates
    untraced_per_estimate = child["untraced_estimate_s"] / round_size
    values["trace.overhead_pct"] = 100.0 * (timing["root_s"] / estimates / untraced_per_estimate - 1)
    problems = []
    if abs(in_root - timing["root_s"]) > 1e-6 * timing["root_s"]:
        problems.append(f"self times {in_root!r} s do not add up to the traced estimate "
                        f"time {timing['root_s']!r} s")
    return values, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fidest", "pipeline.py")):
        print(f"perfbench: no fidest sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
    if args.trace:
        child_args += ["--trace-file", os.path.join(OUT_DIR, f"spans-{tag}.json")]
    # Set-up is timed seven times, spread over the run's whole span, because
    # host load drifts over tens of seconds; setup_s is their median.
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = [run_child(child_args[:4] + ["--setup-only"])["setup_s"] for _ in range(probes)]
        child = run_child(child_args)
        setups.append(child["setup_s"])
        setups += [run_child(child_args[:4] + ["--setup-only"])["setup_s"] for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    pairs = workloads.make_pairs(args.workload, args.seed)
    checked = check_records(pairs, child["records"])
    problems = checked["problems"]
    if args.trace:
        metrics, trace_problems = per_layer(child, len(pairs))
        problems += trace_problems
        units = PER_LAYER
    else:
        metrics, units = end_to_end(child, setups, checked), END_TO_END
    result = {
        "correct": not problems,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "problems": problems, "setups_s": setups,
                   "abs_errors": checked["errors"], "child": child}, fh)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    for k, v in metrics.items():
        print(f"{args.workload:16s} {k:50s} {v:16.6g} {units[k]}")
    print(f"{args.workload:16s} attempted {checked['attempted']} failed {checked['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
