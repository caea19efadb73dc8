"""Command-line front end: single estimations, parameter sweeps, bound
verification suites, and phase-estimation coefficient tables.

argparse owns every value (type, choices, default), each asked for once:
``--sim-level`` takes the library's levels, ``--perturbation`` above 0 alone
perturbs a circuit-pe run (reported as circuit-pe-perturbed), and ``coeffs``
reads T off ``--t``.  A ``--config`` file's ``key = value`` lines are parsed
as ``--key=value`` flags ahead of the command line's, which win.  Exit codes:
0 ok, 1 runtime error, 2 infeasible parameters, 3 usage or config error
(argparse's own errors included).  Identical invocations (flags + seeds)
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .amplitude import QAE_MODES, QaeParams
from .errors import FidestError, InfeasibleParamsError, Range
from .pipeline import (
    CIRCUIT_T_CEILING,
    SCHEDULE_MODES,
    SCHEDULE_RANGES,
    SIM_LEVELS,
    EstimationReport,
    PipelineParams,
    estimate_fidelity,
    select_params,
    stage_levels,
)
from .registers import DEFAULT_QUBIT_BUDGET
from .sqrt_extractor import (
    SqrtParams,
    pe_coefficient,
    pe_coefficient_direct,
    pe_phase_offset,
    pe_tail_bound,
)
from .states import DensityOperator, ancilla_qubits_for, purify, random_density
from .verify import CLOSED_VS_DIRECT_TOL, SUITES, run_suite

SIGMA_SEED_OFFSET = 1_000_003

EXIT_OK, EXIT_RUNTIME, EXIT_INFEASIBLE, EXIT_CONFIG = 0, 1, 2, 3

REPORT_FIELDS = [f for f in EstimationReport.__dataclass_fields__]


class ConfigError(Exception):
    """A usage or configuration error: exit code 3."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def config_args(path: str, command: argparse.ArgumentParser) -> list[str]:
    """A flat key = value file ('#' starts a comment) as ``--key=value``
    tokens; each key names a flag of the ``command`` subparser other than
    --config and --help, with '-' or '_'."""
    known = {f for a in command._actions if a.dest not in ("config", "help")
             for f in a.option_strings}
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            flag = key.replace("_", "-")
            if f"--{flag}" not in known:
                raise ConfigError(f"unknown config key: {flag}")
            tokens.append(f"--{flag}={value}")
    return tokens


def _need(args: argparse.Namespace, *names: str):
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"missing required option: --{name.replace('_', '-')}")


def _need_instance(args: argparse.Namespace):
    """The flags of a generated instance: each given, and each rank in [1, 2^n]."""
    _need(args, "n", "rank_rho", "rank_sigma", "seed")
    for name in ("rank_rho", "rank_sigma"):
        if getattr(args, name) > 1 << args.n:
            raise ConfigError(f"option --{name.replace('_', '-')} must be in [1, {1 << args.n}] "
                              f"for --n {args.n}, got {getattr(args, name)}")


def _random_pair(n: int, rank_rho: int, rank_sigma: int, seed: int) -> tuple:
    return (random_density(n, rank_rho, seed=seed),
            random_density(n, rank_sigma, seed=seed + SIGMA_SEED_OFFSET))


def _runnable(args, params: PipelineParams) -> PipelineParams:
    """``params``, once ``stage_levels`` has refused a generated pair that no
    level can run, before it is drawn: the lower rank takes rho's role."""
    low, high = sorted((args.rank_rho, args.rank_sigma))
    stage_levels(args.n, ancilla_qubits_for(low), ancilla_qubits_for(high), params)
    return params


def _load(path: str) -> DensityOperator:
    """The state a --load-* file holds; a file holding none is a config error naming it."""
    try:
        return DensityOperator.load(path)
    except (ValueError, TypeError, FidestError) as exc:  # json's errors are ValueErrors
        raise ConfigError(f"{path}: {exc}") from None


def _estimate(rho: DensityOperator, sigma: DensityOperator, params: PipelineParams,
              seed: int) -> EstimationReport:
    return estimate_fidelity(
        purify(rho, ancilla_qubits_for(rho.rank)), purify(sigma, ancilla_qubits_for(sigma.rank)),
        params, seed=seed,
    )


def _knob_params(args, kappa_sigma: float, t_sigma: int, kappa: float, t: int,
                 qae_m: int) -> PipelineParams:
    """PipelineParams from a knob set and the run options."""
    if args.perturbation > 0 and args.sim_level == "ideal-spectral":
        raise ConfigError(f"option --perturbation {args.perturbation:g} does nothing at "
                          "--sim-level ideal-spectral: it perturbs the circuit-pe circuits")
    if args.qae_mode == "sample" and not QaeParams.SAMPLED_M.ok(qae_m):
        flag = "--qae-m-list" if args.command == "sweep" else "--qae-m"
        raise ConfigError(f"option {flag} must be a power of two with --qae-mode sample, "
                          f"got {qae_m}")
    try:
        return PipelineParams(kappa_sigma=kappa_sigma, t_sigma=t_sigma, kappa=kappa, t=t,
                              qae=QaeParams(M=qae_m, mode=args.qae_mode),
                              sim_level=args.sim_level, bound_constant=args.bound_constant,
                              qubit_budget=args.qubit_budget, perturbation=args.perturbation)
    except ValueError as exc:  # each knob is in range, but the set overflows a float
        raise ConfigError(str(exc)) from None


def _params_from_args(args, rank_r: int) -> PipelineParams:
    knobs = ("kappa_sigma", "t_sigma", "kappa", "t", "qae_m")
    missing = [k for k in knobs if getattr(args, k) is None]
    if not missing:
        return _knob_params(args, *(getattr(args, k) for k in knobs))
    if len(missing) < len(knobs):
        raise ConfigError("the explicit knobs go all five together; missing: "
                          + " ".join(f"--{k.replace('_', '-')}" for k in missing))
    if args.eps is None:
        raise ConfigError(
            "missing required option: --eps (or the explicit set "
            "--kappa-sigma --t-sigma --kappa --t --qae-m)"
        )
    params = select_params(r=rank_r, eps=args.eps, mode=args.mode, sim_level=args.sim_level,
                           qae_mode=args.qae_mode)
    return _knob_params(args, params.kappa_sigma, params.t_sigma, params.kappa, params.t,
                        params.qae.M)


def cmd_estimate(args) -> int:
    if args.load_rho or args.load_sigma:
        _need(args, "load_rho", "load_sigma")
        rho, sigma = _load(args.load_rho), _load(args.load_sigma)
        params = _params_from_args(args, min(rho.rank, sigma.rank))
    else:
        _need_instance(args)
        params = _runnable(args, _params_from_args(args, min(args.rank_rho, args.rank_sigma)))
        rho, sigma = _random_pair(args.n, args.rank_rho, args.rank_sigma, args.seed)
    if args.dump_rho:
        rho.save(args.dump_rho)
    if args.dump_sigma:
        sigma.save(args.dump_sigma)
    # a loaded instance needs no seed; the estimate's own draws then use 0
    report = _estimate(rho, sigma, params, 0 if args.seed is None else args.seed)
    text = report.to_json()
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def _sweep_task(item: tuple) -> dict:
    n, rank_rho, rank_sigma, params, seed = item
    rho, sigma = _random_pair(n, rank_rho, rank_sigma, seed)
    return _estimate(rho, sigma, params, seed).to_dict()


def _flag(field_range: Range):
    """An argparse type: a value of the range's kind that passes its test."""
    def read(text: str):
        value = field_range.kind(text)
        if not field_range.ok(value):
            raise argparse.ArgumentTypeError(f"must be {field_range.expected}, got {text}")
        return value
    read.__name__ = field_range.kind.__name__  # named in argparse's 'invalid int value' message
    return read


def _list_of(convert):
    """An argparse type: comma-separated values, each read by ``convert``."""
    def read(text: str) -> list:
        return [convert(v) for v in text.split(",") if v.strip()]
    read.__name__ = f"{convert.__name__} list"
    return read


# the flags that set no knob; each knob flag reads its record's range
_NON_NEGATIVE = _flag(Range(int, lambda v: v >= 0, ">= 0"))
_POSITIVE = _flag(Range(int, lambda v: v >= 1, ">= 1"))
_FINITE = _flag(Range(float, math.isfinite, "finite"))
_KNOBS = {knob: _flag(field_range) for knob, field_range in
          {**PipelineParams.RANGES, **QaeParams.RANGES, "eps": SCHEDULE_RANGES["eps"]}.items()}


def cmd_sweep(args) -> int:
    _need_instance(args)
    _need(args, "output", "kappa_sigma_list", "t_sigma_list", "kappa_list", "t_list", "qae_m_list")
    # a fork-started process pool launches all its workers at once: one per usable CPU
    affinity = getattr(os, "sched_getaffinity", None)
    max_jobs = len(affinity(0)) if affinity else os.cpu_count() or 1
    if not 1 <= args.jobs <= max_jobs:
        raise ConfigError(f"option --jobs must be in [1, {max_jobs}], got {args.jobs}")
    grid = list(itertools.product(
        args.kappa_sigma_list, args.t_sigma_list, args.kappa_list, args.t_list, args.qae_m_list
    ))
    if not grid:
        raise ConfigError("empty parameter grid")
    cells = [_runnable(args, _knob_params(args, *knobs)) for knobs in grid]
    items = [
        (args.n, args.rank_rho, args.rank_sigma, params, args.seed + trial)
        for params in cells
        for trial in range(args.trials)
    ]
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(REPORT_FIELDS) + "\n")
        fh.flush()
        if args.jobs > 1:
            executor = ProcessPoolExecutor(max_workers=args.jobs)
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
                if (i + 1) % args.trials == 0:  # cell boundary
                    fh.flush()
        finally:
            if executor is not None:
                executor.shutdown()
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_RUNTIME


COEFFS_BLOCK_ROWS = 1 << 14  # rows formatted at a time, so no column becomes a Python list


def cmd_coeffs(args) -> int:
    _need(args, "lam", "t")
    params = SqrtParams(kappa=1.0, t=args.t)
    if args.t > CIRCUIT_T_CEILING:
        raise ConfigError(
            f"--t {args.t} exceeds {CIRCUIT_T_CEILING}, the deepest circuit simulated"
        )
    k = np.arange(params.T)
    with np.errstate(all="ignore"):  # a non-finite table is refused below
        a = pe_coefficient(args.lam, k, params)
        d = pe_coefficient_direct(args.lam, k, params)
        delta = pe_phase_offset(args.lam, k, params)
        tail = pe_tail_bound(delta, params.T)
    if not all(np.isfinite(v).all() for v in (a, d, delta)):
        raise ConfigError(f"argument --lam: {args.lam} gives a non-finite coefficient table")
    gap = np.abs(a - d)
    if gap.max() > CLOSED_VS_DIRECT_TOL:
        raise ConfigError(f"argument --lam: {args.lam} puts the closed and direct columns "
                          f"{gap.max():.3g} apart, above {CLOSED_VS_DIRECT_TOL:g}")
    print("k,delta,closed_re,closed_im,direct_re,direct_im,abs_diff,tail_bound")
    columns = (k, delta, a.real, a.imag, d.real, d.imag, gap, tail)
    for start in range(0, params.T, COEFFS_BLOCK_ROWS):
        rows = slice(start, start + COEFFS_BLOCK_ROWS)
        for grid_point, *row, bound in zip(*(c[rows].tolist() for c in columns)):
            cells = [f"{v:.17g}" for v in row] + [f"{bound:.17g}" if bound < math.inf else "-"]
            print(f"{grid_point}," + ",".join(cells))
    print(f"# sum |alpha|^2 = {float(np.sum(np.abs(a) ** 2)):.17g}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on a usage error, so that every one exits 3."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fidest",
        description="Desk-scale simulator for low-rank fidelity estimation "
        "via block-encoded operator square roots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name: its parser

    def add_run_options(p):
        """The options of the subcommands that run estimations."""
        p.add_argument("--seed", type=_NON_NEGATIVE)
        p.add_argument("--sim-level", default="ideal-spectral", choices=SIM_LEVELS)
        p.add_argument("--qubit-budget", type=_KNOBS["qubit_budget"], default=DEFAULT_QUBIT_BUDGET)
        p.add_argument("--perturbation", type=_KNOBS["perturbation"], default=0.0)
        p.add_argument("--output")
        p.add_argument("--config")
        p.add_argument("--n", type=_POSITIVE)
        p.add_argument("--rank-rho", type=_POSITIVE)
        p.add_argument("--rank-sigma", type=_POSITIVE)
        p.add_argument("--qae-mode", default="exact", choices=QAE_MODES)
        p.add_argument("--bound-constant", type=_KNOBS["bound_constant"], default=1.0)

    est = sub.add_parser("estimate", help="run one estimation and print the report")
    add_run_options(est)
    est.add_argument("--eps", type=_KNOBS["eps"])
    est.add_argument("--mode", default="practical", choices=SCHEDULE_MODES)
    for knob in ("kappa_sigma", "t_sigma", "kappa", "t"):
        est.add_argument(f"--{knob.replace('_', '-')}", type=_KNOBS[knob])
    est.add_argument("--qae-m", type=_KNOBS["M"])
    est.add_argument("--load-rho")
    est.add_argument("--load-sigma")
    est.add_argument("--dump-rho")
    est.add_argument("--dump-sigma")
    est.set_defaults(fn=cmd_estimate)

    sw = sub.add_parser("sweep", help="parameter sweep to a CSV table")
    add_run_options(sw)
    sw.add_argument("--jobs", type=int, default=1,
                    help="worker processes, 1 to the usable CPU count")
    sw.add_argument("--trials", type=_POSITIVE, default=1)
    for knob in ("kappa_sigma", "t_sigma", "kappa", "t"):
        sw.add_argument(f"--{knob.replace('_', '-')}-list", type=_list_of(_KNOBS[knob]))
    sw.add_argument("--qae-m-list", type=_list_of(_KNOBS["M"]))
    sw.set_defaults(fn=cmd_sweep)

    ver = sub.add_parser("verify", help="run a bound-verification suite")
    ver.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    ver.add_argument("--config")
    ver.add_argument("suite", type=str.lower, choices=[*SUITES, "all"])
    ver.set_defaults(fn=cmd_verify)

    co = sub.add_parser("coeffs", help="phase-estimation coefficient table")
    co.add_argument("--config")
    co.add_argument("--lam", type=_FINITE, help="eigenvalue lambda")
    co.add_argument("--t", type=_KNOBS["t"])
    co.set_defaults(fn=cmd_coeffs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's values go before the command line's, which win
            config = config_args(args.config, parser.commands[args.command])
            args = parser.parse_args(argv[:1] + config + argv[1:])
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        if exc.filename is None:  # not a --config, --load-*, --dump-* or --output path
            raise
        print(f"config error: cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleParamsError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FidestError, ValueError, TypeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
