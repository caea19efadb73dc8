"""Each knob's range is written once, in the record that holds the knob, and
the CLI's flags read it.

The parity table feeds the same bad values to each record and to its flag:
the record raises ValueError naming its field at construction, and the CLI
exits 3 with the message it has always printed.  The guard walks the parser
and fails when a knob flag's type is anything but its owner's range, so a
range copied into ``cli.py`` fails here.
"""

import dataclasses
import math

import pytest

from fidest import PipelineParams, QaeParams, SqrtParams, select_params
from fidest.amplitude import QAE_MODES
from fidest.cli import build_parser, main
from fidest.pipeline import SCHEDULE_MODES, SCHEDULE_RANGES, SIM_LEVELS

BAD = [0.5, 5, 1, -1, math.inf, -math.inf, math.nan, 16.5]

# each knob by its record field: its flag, the flag's type name and the
# range's wording in the CLI's messages, as the CLI printed them before the
# records owned the ranges
KNOBS = {
    "kappa_sigma": ("--kappa-sigma", "float", "finite and >= 1"),
    "t_sigma": ("--t-sigma", "int", "an integer >= 6"),
    "kappa": ("--kappa", "float", "finite and >= 1"),
    "t": ("--t", "int", "an integer >= 6"),
    "M": ("--qae-m", "int", "an integer >= 2"),
    "eps": ("--eps", "float", "in (0, 1)"),
    "bound_constant": ("--bound-constant", "float", "finite and >= 0"),
    "perturbation": ("--perturbation", "float", "finite and >= 0"),
    "qubit_budget": ("--qubit-budget", "int", ">= 1"),
}
IN_RANGE = {
    "kappa_sigma": lambda v: 1 <= v < math.inf,
    "t_sigma": lambda v: isinstance(v, int) and v >= 6,
    "M": lambda v: isinstance(v, int) and v >= 2,
    "eps": lambda v: 0 < v < 1,
    "bound_constant": lambda v: 0 <= v < math.inf,
    "qubit_budget": lambda v: isinstance(v, int) and v >= 1,
}
IN_RANGE.update(kappa=IN_RANGE["kappa_sigma"], t=IN_RANGE["t_sigma"],
                perturbation=IN_RANGE["bound_constant"])
# the knobs a sweep takes as lists, each with an element in range
LIST_KNOBS = {"kappa_sigma": "4", "t_sigma": "8", "kappa": "4", "t": "8", "M": "16"}

ROWS = [(knob, v) for knob in KNOBS for v in BAD if not IN_RANGE[knob](v)]


def _pipeline(**knob):
    base = dict(kappa_sigma=4.0, t_sigma=8, kappa=4.0, t=8, qae=QaeParams(M=16),
                sim_level="ideal-spectral")
    return PipelineParams(**{**base, **knob})


def _records(knob, value):
    """Every construction that takes the knob, each with ``value`` in it."""
    if knob == "M":
        return [lambda: QaeParams(M=value)]
    if knob == "eps":
        return [lambda: select_params(r=1, eps=value)]
    built = [lambda: _pipeline(**{knob: value})]
    if knob in ("kappa", "t", "perturbation"):
        sqrt = dict(kappa=4.0, t=8)
        built.append(lambda: SqrtParams(**{**sqrt, knob: value}))
    return built


@pytest.mark.parametrize("knob, value", ROWS)
def test_record_raises_naming_its_field(knob, value):
    _, kind, wording = KNOBS[knob]
    if kind == "int" and isinstance(value, float):
        message = f"{knob} must be of type int, got {value!r}"
    else:
        message = f"{knob} must be {wording}, got {value}"
    for build in _records(knob, value):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


@pytest.mark.parametrize("value, message", [
    (24, "M must be a power of two in sample mode, got 24"),
    (16.0, "M must be of type int, got 16.0"),
])
def test_sampled_grid_raises_naming_m(value, message):
    with pytest.raises(ValueError) as exc:
        QaeParams(M=value, mode="sample")
    assert str(exc.value) == message


ESTIMATE = ["estimate", "--n", "1", "--rank-rho", "1", "--rank-sigma", "1", "--seed", "0"]
EXPLICIT = ["--kappa-sigma=4", "--t-sigma=8", "--kappa=4", "--t=8", "--qae-m=16"]
SWEEP = ["sweep", "--n", "1", "--rank-rho", "1", "--rank-sigma", "1", "--seed", "0",
         "--kappa-sigma-list=4", "--t-sigma-list=8", "--kappa-list=4", "--t-list=8",
         "--qae-m-list=16"]


def _cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


def _expected(flag, kind, wording, text) -> str:
    """The CLI's message for a bad value: a range failure, or argparse's own
    for a text that is no number of the flag's type."""
    try:
        (int if kind == "int" else float)(text)
    except ValueError:
        return f"argument {flag}: invalid {kind} value: '{text}'"
    return f"argument {flag}: must be {wording}, got {text}"


@pytest.mark.parametrize("knob, value", ROWS)
def test_flag_exits_3_with_its_message(tmp_path, capsys, knob, value):
    flag, kind, wording = KNOBS[knob]
    text = repr(value)  # as a flag's text: 0.5, -1, inf, nan
    argv = ESTIMATE + (["--eps=0.5"] if knob in ("eps", "bound_constant", "perturbation",
                                                 "qubit_budget") else EXPLICIT)
    code, out = _cli(capsys, argv + [f"{flag}={text}"])
    assert (code, out.out) == (3, "")
    assert out.err == f"config error: {_expected(flag, kind, wording, text)}\n"
    if knob in LIST_KNOBS:
        csv = tmp_path / "s.csv"
        items = f"{LIST_KNOBS[knob]},{text}"
        code, out = _cli(capsys, SWEEP + ["--output", str(csv), f"{flag}-list={items}"])
        assert code == 3 and not csv.exists()
        message = _expected(f"{flag}-list", kind, wording, text)
        if "invalid" in message:  # argparse names the list's type and quotes the whole list
            message = f"argument {flag}-list: invalid {kind} list value: '{items}'"
        assert out.err == f"config error: {message}\n"


@pytest.mark.parametrize("text", ["24", "16.0"])
def test_sampled_grid_flag_exits_3_with_its_message(tmp_path, capsys, text):
    code, out = _cli(capsys, ESTIMATE + EXPLICIT + ["--qae-mode", "sample", f"--qae-m={text}"])
    assert code == 3
    if text == "24":
        assert out.err == ("config error: option --qae-m must be a power of two with "
                           "--qae-mode sample, got 24\n")
    else:
        assert out.err == "config error: argument --qae-m: invalid int value: '16.0'\n"
    csv = tmp_path / "s.csv"
    code, out = _cli(capsys, SWEEP + ["--output", str(csv), "--qae-mode", "sample",
                                      f"--qae-m-list=16,{text}"])
    assert code == 3 and not csv.exists()


OWNERS = {
    "--kappa-sigma": PipelineParams.RANGES["kappa_sigma"],
    "--t-sigma": PipelineParams.RANGES["t_sigma"],
    "--kappa": SqrtParams.RANGES["kappa"],
    "--t": SqrtParams.RANGES["t"],
    "--qae-m": QaeParams.RANGES["M"],
    "--eps": SCHEDULE_RANGES["eps"],
    "--bound-constant": PipelineParams.RANGES["bound_constant"],
    "--perturbation": PipelineParams.RANGES["perturbation"],
    "--qubit-budget": PipelineParams.RANGES["qubit_budget"],
}


def _closed_over(read):
    """The one value a CLI argparse type reads with: a list's item type, or
    a flag's range."""
    (cell,) = read.__closure__
    return cell.cell_contents


def test_every_knob_flag_reads_its_records_range():
    seen = set()
    for command in build_parser().commands.values():
        for action in command._actions:
            for flag in action.option_strings:
                owner = OWNERS.get(flag.removesuffix("-list"))
                if owner is None:
                    continue
                read = _closed_over(action.type) if flag.endswith("-list") else action.type
                assert _closed_over(read) is owner, f"{command.prog} {flag} reads another range"
                seen.add(flag)
    assert seen == {*OWNERS, *(f"{KNOBS[k][0]}-list" for k in LIST_KNOBS)}


def test_mode_flags_read_the_records_tuples():
    choices = {a.option_strings[0]: a.choices for c in build_parser().commands.values()
               for a in c._actions if a.choices and a.option_strings}
    assert choices["--qae-mode"] is QAE_MODES and choices["--mode"] is SCHEDULE_MODES
    assert choices["--sim-level"] is SIM_LEVELS


def test_records_in_range_still_construct():
    p = _pipeline(kappa_sigma=1, t_sigma=6, bound_constant=0.0, qubit_budget=1,
                  perturbation=0.5)
    assert dataclasses.replace(p, kappa=16.5).kappa == 16.5
    assert QaeParams(M=16, mode="sample").M == 16 and QaeParams(M=24).M == 24
    assert select_params(r=1, eps=0.5).qae.M >= 2
