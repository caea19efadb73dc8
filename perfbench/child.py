"""One workload in its own process: set-up, then a closed loop of
estimate_fidelity calls, one at a time, in whole rounds.

Set-up time runs from the start of this script, so it covers importing
numpy and fidest, drawing the instances, building the DensityOperators and
purifying them.  With ``--trace`` a first round runs untraced for the
overhead comparison, then the tracer is installed and each further round
repeats the set-up and the estimates under it.  Prints one JSON object;
the parent process checks every report in it.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from fidest import pipeline, states  # noqa: E402
from fidest.amplitude import QaeParams  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def params_for(case: workloads.Case):
    if case.eps is not None:
        return pipeline.select_params(
            r=min(case.rank_rho, case.rank_sigma), eps=case.eps, mode="practical",
            sim_level=case.sim_level, qae_mode=case.qae_mode,
        )
    kappa_sigma, t_sigma, kappa, t, qae_m = case.explicit
    return pipeline.PipelineParams(
        kappa_sigma=kappa_sigma, t_sigma=t_sigma, kappa=kappa, t=t,
        qae=QaeParams(M=qae_m, mode=case.qae_mode), sim_level=case.sim_level,
    )


def set_up(workload: str, seed: int) -> list[tuple]:
    ops = []
    for pair in workloads.make_pairs(workload, seed):
        rho = states.DensityOperator(pair.a @ pair.a.conj().T)
        sigma = states.DensityOperator(pair.b @ pair.b.conj().T)
        rho_anc, sigma_anc = workloads.ancillas(pair.case)
        ops.append((states.purify(rho, rho_anc), states.purify(sigma, sigma_anc),
                    params_for(pair.case), pair.estimate_seed))
    return ops


def run_round(ops: list[tuple], round_no: int, records: list[dict]):
    for i, (rho_prep, sigma_prep, params, seed) in enumerate(ops):
        t0 = time.perf_counter()
        try:
            report, error = pipeline.estimate_fidelity(rho_prep, sigma_prep, params, seed=seed), None
        except MemoryError as exc:  # address-space limit hit: a failed operation
            report, error = None, f"MemoryError: {exc}"
        records.append({"op": i, "round": round_no, "seconds": time.perf_counter() - t0,
                        "report": report.to_dict() if report else None, "error": error})


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    ops = set_up(args.workload, args.seed)
    out = {"setup_s": time.perf_counter() - T_START}
    if args.setup_only:
        print(json.dumps(out))
        return
    records: list[dict] = []
    start = time.perf_counter()
    run_round(ops, 0, records)
    rounds = 1
    if args.trace_file:
        # Round 0 untraced, then timed spans (set-up repeated under the
        # tracer each round), then one round for tracemalloc peaks.
        out["untraced_estimate_s"] = sum(r["seconds"] for r in records)
        tracers = {"timing": Tracer(), "memory": Tracer(memory=True)}
        tracers["timing"].install("fidest")
    min_rounds = 2 if args.trace_file else 1
    while rounds < min_rounds or time.perf_counter() - start < args.seconds:
        run_round(set_up(args.workload, args.seed) if args.trace_file else ops, rounds, records)
        rounds += 1
    out["wall_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace_file:
        tracers["timing"].uninstall()
        out["timing_rounds"] = rounds - 1
        tracers["memory"].install("fidest")
        run_round(set_up(args.workload, args.seed), rounds, records)
        tracers["memory"].uninstall()
        out["trace"] = {k: t.aggregate("pipeline.estimate_fidelity") for k, t in tracers.items()}
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump({k: t.rows() for k, t in tracers.items()}, fh)
    out["records"] = records
    print(json.dumps(out))


if __name__ == "__main__":
    main()
