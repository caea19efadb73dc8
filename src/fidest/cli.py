"""Command-line front end: single estimations, parameter sweeps, bound
verification suites, and phase-estimation coefficient tables.

Exit codes: 0 ok, 1 runtime error, 2 infeasible parameters, 3 config error.
Identical invocations (flags + seeds) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .amplitude import QaeParams
from .errors import FidestError, InfeasibleParamsError
from .pipeline import EstimationReport, PipelineParams, estimate_fidelity, select_params
from .registers import DEFAULT_QUBIT_BUDGET
from .sqrt_extractor import (
    SqrtParams,
    pe_coefficient,
    pe_coefficient_direct,
    pe_phase_offset,
    pe_tail_bound,
)
from .states import DensityOperator, purify, random_density
from .verify import SUITES, run_suite

SIGMA_SEED_OFFSET = 1_000_003

EXIT_OK, EXIT_RUNTIME, EXIT_INFEASIBLE, EXIT_CONFIG = 0, 1, 2, 3

REPORT_FIELDS = [f for f in EstimationReport.__dataclass_fields__]


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def load_config(path: str) -> dict[str, str]:
    """Flat key = value file; '#' starts a comment; keys match flag names."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def apply_config(args: argparse.Namespace, allowed: set[str]):
    """Fill unset (None) args from the config file; flags win over the file."""
    if not getattr(args, "config", None):
        return
    cfg = load_config(args.config)
    for key, value in cfg.items():
        if key not in allowed:
            raise ConfigError(f"unknown config key: {key.replace('_', '-')}")
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _convert(value, kind):
    if value is None or not isinstance(value, str):
        return value
    return kind(value)


def _need(args: argparse.Namespace, *names: str):
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"missing required option: --{name.replace('_', '-')}")


def _instance(args) -> tuple:
    if args.load_rho or args.load_sigma:
        _need(args, "load_rho", "load_sigma")
        rho = DensityOperator.load(args.load_rho)
        sigma = DensityOperator.load(args.load_sigma)
    else:
        _need(args, "n", "rank_rho", "rank_sigma", "seed")
        n = _convert(args.n, int)
        rho = random_density(n, _convert(args.rank_rho, int), seed=_convert(args.seed, int))
        sigma = random_density(
            n, _convert(args.rank_sigma, int), seed=_convert(args.seed, int) + SIGMA_SEED_OFFSET
        )
    if args.dump_rho:
        rho.save(args.dump_rho)
    if args.dump_sigma:
        sigma.save(args.dump_sigma)
    return rho, sigma


def _ancillas(rank: int) -> int:
    return max(1, math.ceil(math.log2(max(rank, 2))))


def _sim_level(args) -> tuple[str, float]:
    """(sim_level, perturbation) for PipelineParams: the circuit-pe-perturbed
    level is circuit-pe with --perturbation > 0, and needs it."""
    sim_level = args.sim_level or "ideal-spectral"
    perturbation = _convert(args.perturbation, float) or 0.0
    if (sim_level == "circuit-pe-perturbed") != (perturbation > 0):
        raise ConfigError("--perturbation > 0 goes with --sim-level circuit-pe-perturbed "
                          f"and only with it; got {sim_level}, {perturbation:g}")
    return ("circuit-pe" if perturbation > 0 else sim_level), perturbation


def _params_from_args(args, rank_r: int) -> PipelineParams:
    explicit = [args.kappa_sigma, args.t_sigma, args.kappa, args.t, args.qae_m]
    sim_level, perturbation = _sim_level(args)
    budget = _convert(args.qubit_budget, int) or DEFAULT_QUBIT_BUDGET
    if all(v is not None for v in explicit):
        return PipelineParams(
            kappa_sigma=_convert(args.kappa_sigma, float),
            t_sigma=_convert(args.t_sigma, int),
            kappa=_convert(args.kappa, float),
            t=_convert(args.t, int),
            qae=QaeParams(M=_convert(args.qae_m, int), mode=args.qae_mode or "exact"),
            sim_level=sim_level,
            bound_constant=_convert(args.bound_constant, float) or 1.0,
            qubit_budget=budget,
            perturbation=perturbation,
        )
    if args.eps is None:
        raise ConfigError(
            "missing required option: --eps (or the explicit set "
            "--kappa-sigma --t-sigma --kappa --t --qae-m)"
        )
    params = select_params(
        r=rank_r,
        eps=_convert(args.eps, float),
        mode=args.mode or "practical",
        sim_level=sim_level,
        bound_constant=_convert(args.bound_constant, float) or 1.0,
        qae_mode=args.qae_mode or "exact",
        qubit_budget=budget,
    )
    return dataclasses.replace(params, perturbation=perturbation)


def cmd_estimate(args) -> int:
    rho, sigma = _instance(args)
    params = _params_from_args(args, min(rho.rank, sigma.rank))
    seed = _convert(args.seed, int) or 0
    report = estimate_fidelity(
        purify(rho, _ancillas(rho.rank)), purify(sigma, _ancillas(sigma.rank)), params, seed=seed
    )
    text = report.to_json()
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def _sweep_task(item: tuple) -> dict:
    (n, rank_rho, rank_sigma, ks, ts, k, t, m, qae_mode, sim_level,
     bound_constant, qubit_budget, perturbation, seed) = item
    rho = random_density(n, rank_rho, seed=seed)
    sigma = random_density(n, rank_sigma, seed=seed + SIGMA_SEED_OFFSET)
    params = PipelineParams(
        kappa_sigma=ks, t_sigma=ts, kappa=k, t=t,
        qae=QaeParams(M=m, mode=qae_mode),
        sim_level=sim_level, bound_constant=bound_constant, qubit_budget=qubit_budget,
        perturbation=perturbation,
    )
    report = estimate_fidelity(
        purify(rho, _ancillas(rho.rank)), purify(sigma, _ancillas(sigma.rank)), params, seed=seed
    )
    return report.to_dict()


def _int_list(text: str) -> list[int]:
    return [int(v) for v in str(text).split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in str(text).split(",") if v.strip()]


def cmd_sweep(args) -> int:
    _need(args, "n", "rank_rho", "rank_sigma", "seed", "output",
          "kappa_sigma_list", "t_sigma_list", "kappa_list", "t_list", "qae_m_list")
    trials = _convert(args.trials, int) or 1
    if trials < 1:
        raise ConfigError("option --trials must be >= 1")
    grid = list(
        itertools.product(
            _float_list(args.kappa_sigma_list),
            _int_list(args.t_sigma_list),
            _float_list(args.kappa_list),
            _int_list(args.t_list),
            _int_list(args.qae_m_list),
        )
    )
    if not grid:
        raise ConfigError("empty parameter grid")
    n = _convert(args.n, int)
    base_seed = _convert(args.seed, int)
    sim_level, perturbation = _sim_level(args)
    common = (
        args.qae_mode or "exact",
        sim_level,
        _convert(args.bound_constant, float) or 1.0,
        _convert(args.qubit_budget, int) or DEFAULT_QUBIT_BUDGET,
        perturbation,
    )
    items = [
        (n, _convert(args.rank_rho, int), _convert(args.rank_sigma, int),
         ks, ts, k, t, m, *common, base_seed + trial)
        for (ks, ts, k, t, m) in grid
        for trial in range(trials)
    ]
    jobs = _convert(args.jobs, int) or 1
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(REPORT_FIELDS) + "\n")
        fh.flush()
        if jobs > 1:
            executor = ProcessPoolExecutor(max_workers=jobs)
            results = executor.map(_sweep_task, items, chunksize=1)
        else:
            executor = None
            results = map(_sweep_task, items)
        try:
            for i, row in enumerate(results):
                cells = [row[f] for f in REPORT_FIELDS]
                for f, c in zip(REPORT_FIELDS, cells):
                    if isinstance(c, float) and not math.isfinite(c):
                        raise FidestError(
                            f"non-finite value {c!r} in column {f} (row {i}); aborting"
                        )
                fh.write(",".join(_fmt(c) for c in cells) + "\n")
                if (i + 1) % trials == 0:  # cell boundary
                    fh.flush()
        finally:
            if executor is not None:
                executor.shutdown()
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=_convert(args.seed, int) or 0)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_RUNTIME


def cmd_coeffs(args) -> int:
    _need(args, "lam", "t")
    t = _convert(args.t, int)
    params = SqrtParams(kappa=1.0, t=t)
    big_t = _convert(args.T, int) if args.T is not None else params.T
    if big_t != params.T:
        raise ConfigError(
            f"--T {big_t} inconsistent with --t {t}: T must be 2^ceil(log2 t) = {params.T}"
        )
    lam = _convert(args.lam, float)
    print("k,delta,closed_re,closed_im,direct_re,direct_im,abs_diff,tail_bound")
    total = 0.0
    for k in range(params.T):
        a = pe_coefficient(lam, k, params)
        d = pe_coefficient_direct(lam, k, params)
        delta = pe_phase_offset(lam, k, params)
        tail = (
            f"{pe_tail_bound(delta, params.T):.17g}"
            if abs(delta) > 2 * np.pi / params.T
            else "-"
        )
        total += abs(a) ** 2
        print(
            f"{k},{delta:.17g},{a.real:.17g},{a.imag:.17g},"
            f"{d.real:.17g},{d.imag:.17g},{abs(a - d):.17g},{tail}"
        )
    print(f"# sum |alpha|^2 = {total:.17g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidest",
        description="Desk-scale simulator for low-rank fidelity estimation "
        "via block-encoded operator square roots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", default=None)
        p.add_argument("--sim-level", dest="sim_level", default=None,
                       choices=["ideal-spectral", "circuit-pe", "circuit-pe-perturbed"])
        p.add_argument("--qubit-budget", dest="qubit_budget", default=None)
        p.add_argument("--perturbation", default=None)
        p.add_argument("--output", default=None)
        p.add_argument("--config", default=None)
        p.add_argument("--jobs", default=None)

    est = sub.add_parser("estimate", help="run one estimation and print the report")
    add_common(est)
    est.add_argument("--n", default=None)
    est.add_argument("--rank-rho", dest="rank_rho", default=None)
    est.add_argument("--rank-sigma", dest="rank_sigma", default=None)
    est.add_argument("--eps", default=None)
    est.add_argument("--mode", default=None, choices=["paper", "practical"])
    est.add_argument("--kappa-sigma", dest="kappa_sigma", default=None)
    est.add_argument("--t-sigma", dest="t_sigma", default=None)
    est.add_argument("--kappa", default=None)
    est.add_argument("--t", default=None)
    est.add_argument("--qae-m", dest="qae_m", default=None)
    est.add_argument("--qae-mode", dest="qae_mode", default=None, choices=["exact", "sample"])
    est.add_argument("--bound-constant", dest="bound_constant", default=None)
    est.add_argument("--load-rho", dest="load_rho", default=None)
    est.add_argument("--load-sigma", dest="load_sigma", default=None)
    est.add_argument("--dump-rho", dest="dump_rho", default=None)
    est.add_argument("--dump-sigma", dest="dump_sigma", default=None)
    est.set_defaults(fn=cmd_estimate)

    sw = sub.add_parser("sweep", help="parameter sweep to a CSV table")
    add_common(sw)
    sw.add_argument("--n", default=None)
    sw.add_argument("--rank-rho", dest="rank_rho", default=None)
    sw.add_argument("--rank-sigma", dest="rank_sigma", default=None)
    sw.add_argument("--trials", default=None)
    sw.add_argument("--kappa-sigma-list", dest="kappa_sigma_list", default=None)
    sw.add_argument("--t-sigma-list", dest="t_sigma_list", default=None)
    sw.add_argument("--kappa-list", dest="kappa_list", default=None)
    sw.add_argument("--t-list", dest="t_list", default=None)
    sw.add_argument("--qae-m-list", dest="qae_m_list", default=None)
    sw.add_argument("--qae-mode", dest="qae_mode", default=None, choices=["exact", "sample"])
    sw.add_argument("--bound-constant", dest="bound_constant", default=None)
    sw.set_defaults(fn=cmd_sweep)

    ver = sub.add_parser("verify", help="run a bound-verification suite")
    add_common(ver)
    ver.add_argument("suite", help=f"one of: {', '.join(list(SUITES) + ['all'])}")
    ver.set_defaults(fn=cmd_verify)

    co = sub.add_parser("coeffs", help="phase-estimation coefficient table")
    add_common(co)
    co.add_argument("--lam", default=None, help="eigenvalue lambda")
    co.add_argument("--T", dest="T", default=None, help="grid size (must be 2^ceil(log2 t))")
    co.add_argument("--t", default=None)
    co.set_defaults(fn=cmd_coeffs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    allowed = {k for k in vars(args) if k not in ("fn", "command")}
    try:
        apply_config(args, allowed)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, TypeError) as exc:
        if "invalid literal" in str(exc) or "could not convert" in str(exc):
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except InfeasibleParamsError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except FidestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
