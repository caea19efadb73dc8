import dataclasses
import itertools
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fidest
from fidest import cli, random_density
from fidest.cli import main
from fidest.errors import UnknownSuiteError
from fidest.verify import run_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ESTIMATE_FLAGS = [
    "estimate", "--n", "1", "--rank-rho", "1", "--rank-sigma", "2", "--seed", "3",
    "--kappa-sigma", "16", "--t-sigma", "256", "--kappa", "16", "--t", "256",
    "--qae-m", "1024", "--sim-level", "ideal-spectral",
]


def test_estimate_explicit_params(capsys):
    code, out, _ = run(capsys, *ESTIMATE_FLAGS)
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 1 and report["qae_m"] == 1024
    assert report["abs_error"] <= report["analytic_bound"]


def test_zero_flag_values_are_not_replaced_by_defaults(capsys):
    code, out, _ = run(capsys, *ESTIMATE_FLAGS, "--bound-constant", "0")
    assert code == 0
    report = json.loads(out)
    assert report["bound_constant"] == 0.0 and report["analytic_bound"] == 0.0
    code, _, err = run(capsys, *ESTIMATE_FLAGS, "--qubit-budget", "0")  # the default would run
    assert code == 3 and "argument --qubit-budget: must be >= 1, got 0" in err


def test_estimate_eps_mode(capsys):
    code, out, _ = run(
        capsys, "estimate", "--n", "1", "--rank-rho", "1", "--rank-sigma", "2",
        "--eps", "0.5", "--mode", "practical", "--seed", "7",
    )
    assert code == 0
    report = json.loads(out)
    assert report["abs_error"] <= report["analytic_bound"]
    assert report["abs_error"] <= 0.5  # practical schedule hits its target here


def test_estimate_missing_flag_exits_3(capsys):
    code, _, err = run(capsys, "estimate", "--n", "1", "--rank-rho", "1", "--seed", "1")
    assert code == 3
    assert "--rank-sigma" in err


def test_estimate_missing_params_exits_3(capsys):
    code, _, err = run(
        capsys, "estimate", "--n", "1", "--rank-rho", "1", "--rank-sigma", "1", "--seed", "1"
    )
    assert code == 3
    assert "--eps" in err


KNOBS = {"--kappa-sigma": "16", "--t-sigma": "256", "--kappa": "16", "--t": "256",
         "--qae-m": "1024"}


@pytest.mark.parametrize("with_eps", [False, True])
def test_partial_knob_set_exits_3_naming_the_missing_knobs(capsys, with_eps):
    # one to four knobs never fall back to the schedule, with or without --eps
    base = ["estimate", "--n", "1", "--rank-rho", "1", "--rank-sigma", "2", "--seed", "1"]
    base += ["--eps", "0.5"] if with_eps else []
    for size in range(1, len(KNOBS)):
        for given in itertools.combinations(KNOBS, size):
            code, out, err = run(capsys, *base, *(s for f in given for s in (f, KNOBS[f])))
            assert code == 3 and out == ""
            named = set(re.findall(r"--[a-z-]+", err.split("missing:")[1]))
            assert named == set(KNOBS) - set(given)


def test_estimate_infeasible_exits_2(capsys):
    code, _, err = run(
        capsys, "estimate", "--n", "1", "--rank-rho", "1", "--rank-sigma", "1",
        "--seed", "1", "--eps", "0.1", "--mode", "paper",
    )
    assert code == 2
    assert "infeasible" in err.lower()


def test_circuit_w_leaves_room_for_eta(capsys):
    # a 14-qubit circuit W would leave eta's register (W's plus rho's garbage
    # qubit) at 15, over the default budget: W runs ideal, as at budget 13
    flags = ["estimate", "--n", "2", "--rank-rho", "1", "--rank-sigma", "3", "--seed", "0",
             "--kappa-sigma", "4", "--t-sigma", "8", "--kappa", "4", "--t", "8",
             "--qae-m", "16", "--sim-level", "circuit-pe"]
    code, out, err = run(capsys, *flags)
    assert code == 0, err
    assert json.loads(out)["sim_level_sigma"] == "ideal-spectral"
    assert run(capsys, *flags, "--qubit-budget", "13") == (0, out, "")


def _limited_cli(*argv):
    """``fidest`` in a child process whose address space, and only its own,
    is capped at 3 GiB: an oversized array fails the command, not the run."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(fidest.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "fidest.cli", *argv], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=300)


def test_five_qubit_ideal_estimate_fits_in_3_gib():
    # a 13-qubit W and a 14-qubit eta, at the edge of the default budget
    flags = ["estimate", "--rank-rho", "1", "--rank-sigma", "1", "--eps", "0.3", "--seed", "1"]
    proc = _limited_cli(*flags, "--n", "5")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert abs(report["estimate"] - report["exact_fidelity"]) <= 0.3
    proc = _limited_cli(*flags, "--n", "6")
    assert proc.returncode == 1
    assert "construction needs 15 qubits, budget is 14" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["estimate", "--eps", "0.5"],
    ["sweep", "--kappa-sigma-list", "4", "--t-sigma-list", "8", "--kappa-list", "4",
     "--t-list", "8", "--qae-m-list", "16"],
])
def test_unrunnable_instance_is_refused_before_it_is_drawn(tmp_path, capsys, monkeypatch, argv):
    """n = 12 needs a 27-qubit W at any level: the refusal comes before the
    pair is drawn (drawing and running it took minutes and gigabytes), and
    before a sweep writes its table."""
    def undrawn(*args, **kwargs):
        raise AssertionError("the instance was drawn")

    monkeypatch.setattr(cli, "random_density", undrawn)
    out = tmp_path / "s.csv"
    code, stdout, err = run(capsys, *argv, "--n", "12", "--rank-rho", "1", "--rank-sigma", "1",
                            "--seed", "1", "--output", str(out))
    assert (code, stdout) == (1, "")
    assert err == "error: construction needs 27 qubits, budget is 14\n"
    assert not out.exists()


def test_refusal_orders_the_roles_by_rank(capsys, monkeypatch):
    """The lower rank takes rho's role whichever flag gives it: at n = 3,
    rank 5 is purified with 3 garbage qubits and rank 1 with one, so sigma's
    W needs 2 (3 + 1) + 3 = 11 qubits, over a budget of 10, in both flag
    orders (the other order's W, 9 qubits, fits)."""
    monkeypatch.setattr(cli, "random_density", None)  # drawing would fail the run
    for ranks in (["1", "5"], ["5", "1"]):
        code, _, err = run(capsys, "estimate", "--n", "3", "--rank-rho", ranks[0],
                           "--rank-sigma", ranks[1], "--seed", "1", "--eps", "0.5",
                           "--qubit-budget", "10")
        assert code == 1 and err == "error: construction needs 11 qubits, budget is 10\n"


def test_estimate_load_dump_round_trip(tmp_path, capsys):
    f1 = tmp_path / "rho.json"
    random_density(1, 1, seed=5).save(str(f1))
    code, out, _ = run(
        capsys, "estimate", "--load-rho", str(f1), "--load-sigma", str(f1),
        "--eps", "0.5", "--mode", "practical", "--seed", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["exact_fidelity"] - 1.0) <= 1e-9
    assert abs(report["estimate"] - 1.0) <= 0.5


def test_load_files_of_different_sizes_exit_3_naming_both(tmp_path, capsys, monkeypatch):
    """Refused on loading, before any stage runs."""
    def unrun(*args, **kwargs):
        raise AssertionError("an estimate ran")

    monkeypatch.setattr(cli, "estimate_fidelity", unrun)
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    random_density(1, 1, seed=5).save(str(one))
    random_density(2, 2, seed=6).save(str(two))
    for (rho, qr), (sigma, qs) in [((one, 1), (two, 2)), ((two, 2), (one, 1))]:
        code, out, err = run(capsys, "estimate", "--load-rho", str(rho), "--load-sigma",
                             str(sigma), "--eps", "0.5")
        assert (code, out) == (3, "")
        assert err == f"config error: {rho} holds {qr} qubits, {sigma} holds {qs}\n"


def test_estimate_dump_writes_instances(tmp_path, capsys):
    rho_path, out_path = tmp_path / "r.json", tmp_path / "rep.json"
    code, out, _ = run(
        capsys, *ESTIMATE_FLAGS, "--dump-rho", str(rho_path), "--output", str(out_path)
    )
    assert code == 0
    assert json.loads(rho_path.read_text())["kind"] == "density"
    assert json.loads(out_path.read_text()) == json.loads(out)


SWEEP_FLAGS = [
    "sweep", "--n", "1", "--rank-rho", "1", "--rank-sigma", "2", "--seed", "3",
    "--trials", "2", "--kappa-sigma-list", "4,16", "--t-sigma-list", "4096",
    "--kappa-list", "64", "--t-list", "65536", "--qae-m-list", "1024",
    "--sim-level", "ideal-spectral",
]


def test_sweep_deterministic_and_parallel_identical(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert run(capsys, *SWEEP_FLAGS, "--output", str(a))[0] == 0
    assert run(capsys, *SWEEP_FLAGS, "--output", str(b))[0] == 0
    assert run(capsys, *SWEEP_FLAGS, "--output", str(c), "--jobs", "2")[0] == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + cells * trials
    header = lines[0].split(",")
    assert header[0] == "n" and "abs_error" in header and "queries_o_sigma" in header


def test_sweep_cells_are_finite(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run(capsys, *SWEEP_FLAGS, "--output", str(out))[0] == 0
    rows = out.read_text().splitlines()[1:]
    header = out.read_text().splitlines()[0].split(",")
    for row in rows:
        for name, cell in zip(header, row.split(",")):
            if name in ("qae_mode", "sim_level_sigma", "sim_level_eta"):
                continue
            assert np.isfinite(float(cell)), (name, cell)


def test_single_cell_sweep_matches_estimate(tmp_path, capsys):
    out = tmp_path / "one.csv"
    code, _, _ = run(
        capsys, "sweep", "--n", "1", "--rank-rho", "1", "--rank-sigma", "2",
        "--seed", "3", "--trials", "1", "--kappa-sigma-list", "16",
        "--t-sigma-list", "256", "--kappa-list", "16", "--t-list", "256",
        "--qae-m-list", "1024", "--sim-level", "ideal-spectral",
        "--output", str(out),
    )
    assert code == 0
    header, row = (line.split(",") for line in out.read_text().splitlines())
    cells = dict(zip(header, row))
    code, est_out, _ = run(capsys, *ESTIMATE_FLAGS)
    report = json.loads(est_out)
    assert float(cells["estimate"]) == report["estimate"]
    assert float(cells["x"]) == report["x"]
    assert int(cells["queries_o_sigma"]) == report["queries_o_sigma"]


def test_outputs_unchanged_by_lean_report_dicts(tmp_path, capsys, monkeypatch):
    """The estimate JSON and the sweep CSV are byte for byte what asdict's
    report dicts gave."""
    def outputs(tag):
        code, est, _ = run(capsys, *ESTIMATE_FLAGS, "--output", str(tmp_path / f"{tag}.json"))
        assert code == 0
        assert run(capsys, *SWEEP_FLAGS, "--output", str(tmp_path / f"{tag}.csv"))[0] == 0
        return est, *((tmp_path / f"{tag}{ext}").read_bytes() for ext in (".json", ".csv"))

    lean = outputs("lean")
    monkeypatch.setattr("fidest.pipeline.EstimationReport.to_dict", dataclasses.asdict)
    assert outputs("asdict") == lean


def _with_level(flags, level):
    i = flags.index("--sim-level")
    return flags[: i + 1] + [level] + flags[i + 2:]


def test_perturbation_at_the_ideal_level_exits_3(tmp_path, capsys):
    """--perturbation perturbs the circuit-pe circuits; at ideal-spectral it
    would silently do nothing."""
    for flags in (ESTIMATE_FLAGS, SWEEP_FLAGS + ["--output", str(tmp_path / "s.csv")]):
        code, out, err = run(capsys, *flags, "--perturbation", "0.05")
        assert code == 3 and out == "" and "--perturbation" in err
    assert not (tmp_path / "s.csv").exists()


def test_perturbed_level_is_no_choice(tmp_path, capsys):
    """circuit-pe-perturbed is a report label, not a --sim-level value."""
    cfg = tmp_path / "level.cfg"
    cfg.write_text("sim-level = circuit-pe-perturbed\n")
    for extra in (["--sim-level", "circuit-pe-perturbed"], ["--config", str(cfg)]):
        code, _, err = run(capsys, *_with_level(ESTIMATE_FLAGS, "circuit-pe"),
                           "--perturbation", "0.05", *extra)
        assert code == 3
        assert "argument --sim-level: invalid choice: 'circuit-pe-perturbed'" in err


def test_perturbation_at_the_circuit_level_reports_the_perturbed_label(tmp_path, capsys):
    flags = [*_with_level(ESTIMATE_FLAGS, "circuit-pe"), "--t-sigma", "8", "--t", "8",
             "--perturbation", "0.05"]
    code, out, _ = run(capsys, *flags)
    report = json.loads(out)
    assert code == 0 and report["sim_level_sigma"] == "circuit-pe-perturbed"
    assert run(capsys, *flags[:-1], "0")[1] != out  # the same run unperturbed


def test_verify_suite_pass_and_unknown(capsys):
    code, out, _ = run(capsys, "verify", "pe-coefficients")
    assert code == 0
    assert "pass" in out and "checks passed" in out
    code, _, err = run(capsys, "verify", "not-a-suite")
    assert code == 3
    assert "argument suite: invalid choice" in err and "sine-state" in err  # lists the suites


@pytest.mark.parametrize("suite", ["bogus", "al", ""])
def test_verify_unknown_suite_is_a_usage_error(capsys, suite):
    code, out, err = run(capsys, "verify", suite)
    assert code == 3 and out == ""
    assert f"config error: argument suite: invalid choice: '{suite}'" in err


def test_run_suite_rejects_an_unknown_name():
    with pytest.raises(UnknownSuiteError, match="unknown suite 'bogus'; available: sine-state"):
        run_suite("bogus")


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    assert "FAIL" not in out
    assert "[pass] purification-distance/uhlmann-vs-density" in out
    assert out.splitlines()[-1] == "19/19 checks passed"


def test_coeffs_table(capsys):
    code, out, _ = run(capsys, "coeffs", "--lam", "0.3", "--t", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,delta,closed_re,closed_im,direct_re,direct_im,abs_diff,tail_bound"
    assert len(lines) == 1 + 8 + 1  # header, T rows, mass footer
    total = float(lines[-1].split("=")[1])
    assert abs(total - 1.0) <= 1e-10
    for line in lines[1:-1]:
        assert float(line.split(",")[6]) <= 1e-10  # closed form vs direct sum


def test_coeffs_computes_each_column_in_one_call(monkeypatch, capsys):
    calls = {"pe_coefficient": 0, "pe_coefficient_direct": 0}
    for name in calls:
        def counted(*args, _fn=getattr(cli, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    code, out, _ = run(capsys, "coeffs", "--lam", "0.3", "--t", "64")
    assert code == 0 and len(out.splitlines()) == 1 + 64 + 1
    assert calls == {"pe_coefficient": 1, "pe_coefficient_direct": 1}


@pytest.mark.parametrize("lam", ["1e308", "-1e308", "1.7e308"])
def test_coeffs_non_finite_table_exits_3_before_output(capsys, lam):
    code, out, err = run(capsys, "coeffs", f"--lam={lam}", "--t", "8")
    assert code == 3 and out == ""
    assert err.startswith("config error: argument --lam:") and "non-finite" in err


def test_coeffs_whose_columns_disagree_exits_3_before_output(capsys):
    """At t = 8 the closed form has lost enough digits by lambda = 1e6 to sit
    1.24e-10 from the FFT column, above verify's closed-vs-direct threshold."""
    code, out, err = run(capsys, "coeffs", "--lam", "1e6", "--t", "8")
    assert code == 3 and out == ""
    assert err.startswith("config error: argument --lam: 1000000.0 puts the closed and direct "
                          "columns 1.24e-10 apart, above 1e-10")
    assert run(capsys, "coeffs", "--lam", "1e3", "--t", "8")[0] == 0


def test_coeffs_prints_the_same_table_in_blocks(monkeypatch, capsys):
    code, whole, _ = run(capsys, "coeffs", "--lam", "0.3", "--t", "64")
    monkeypatch.setattr(cli, "COEFFS_BLOCK_ROWS", 5)  # 64 rows: 12 whole blocks and 4 rows
    assert code == 0 and run(capsys, "coeffs", "--lam", "0.3", "--t", "64") == (0, whole, "")


@pytest.mark.parametrize("t", ["1048577", "1073741824"])
def test_coeffs_deeper_than_the_circuit_ceiling_exits_3(capsys, t):
    code, out, err = run(capsys, "coeffs", "--lam", "0.3", "--t", t)
    assert code == 3 and out == ""
    assert f"--t {t} exceeds 1048576" in err


def test_coeffs_grid_is_read_off_t(capsys):
    code, out, err = run(capsys, "coeffs", "--lam", "0.3", "--t", "8", "--T", "16")
    assert code == 3 and out == "" and "unrecognized arguments: --T 16" in err
    code, _, err = run(capsys, "coeffs", "--lam", "0.3", "--t", "3")
    assert code == 3 and "argument --t: must be an integer >= 6, got 3" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n = 1\nrank-rho = 1\nrank-sigma = 2\nseed = 3\nkappa-sigma = 16\n"
        "t-sigma = 256\nkappa = 16\nt = 256\nqae-m = 1024\n"
        "sim-level = ideal-spectral\n# comment line\n"
    )
    code, out, _ = run(capsys, "estimate", "--config", str(cfg))
    assert code == 0
    base = json.loads(out)
    code, out, _ = run(capsys, "estimate", "--config", str(cfg), "--seed", "4")
    assert code == 0
    assert json.loads(out)["seed"] == 4 and base["seed"] == 3


def test_config_unknown_key_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not-a-key = 1\n")
    code, _, err = run(capsys, "estimate", "--config", str(cfg))
    assert code == 3 and "not-a-key" in err


def test_config_line_without_equals_exits_3_naming_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n# comment line\nn 1\n")
    code, _, err = run(capsys, "estimate", "--config", str(cfg))
    assert code == 3 and f"config error: {cfg}:3: expected 'key = value', got 'n 1'" in err


@pytest.mark.parametrize("key", ["config", "command", "fn"])
def test_config_key_that_is_no_flag_of_the_subcommand_exits_3(tmp_path, capsys, key):
    # the value names a file that does not exist: the key must not be read as a path
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {tmp_path / 'missing.cfg'}\n")
    code, _, err = run(capsys, *ESTIMATE_FLAGS, "--config", str(cfg))
    assert code == 3 and f"config error: unknown config key: {key}" in err


@pytest.mark.parametrize("text, message", [
    pytest.param("not json", "Expecting value: line 1 column 1 (char 0)", id="not-json"),
    pytest.param(json.dumps({"kind": "purification", "qubits": 1,
                             "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}),
                 "not a density-operator record: kind='purification'", id="wrong-kind"),
    pytest.param(json.dumps({"kind": "density", "qubits": 1, "entries": [[1, 0], [0, 0], [0, 0]]}),
                 "3 entries for 1 qubits, not 4^qubits", id="entry-count"),
    pytest.param(json.dumps({"kind": "density", "qubits": -1, "entries": [[1, 0]]}),
                 "1 entries for -1 qubits, not 4^qubits", id="negative-qubits"),
    pytest.param(json.dumps({"kind": "density", "qubits": 10**8, "entries": [[1, 0]]}),
                 "1 entries for 100000000 qubits, not 4^qubits", id="huge-qubits"),
    pytest.param(json.dumps({"kind": "density"}),
                 "density-operator record has no 'qubits'", id="no-qubits"),
    *(pytest.param(json.dumps({"kind": "density", "qubits": value,
                               "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}),
                   f"density-operator record's 'qubits' must be int, not {kind}", id=name)
      for value, kind, name in [(1.7, "float", "float-qubits"), ("1", "str", "string-qubits"),
                                (True, "bool", "boolean-qubits"),
                                (None, "NoneType", "null-qubits")]),
    pytest.param(json.dumps({"kind": "density", "qubits": 1, "entries": 5}),
                 "density-operator record's 'entries' must be list, not int", id="number-entries"),
    pytest.param(json.dumps({"kind": "density", "qubits": 1}),
                 "density-operator record has no 'entries'", id="no-entries"),
    pytest.param(json.dumps({"kind": "density", "qubits": 1,
                             "entries": [[1, 0], [0, 0], [0], [0, 0]]}),
                 "entry 2 is not a [re, im] pair of numbers: [0]", id="one-element-entry"),
    pytest.param(json.dumps({"kind": "density", "qubits": 1,
                             "entries": [[1, 0], [0, 0, 0], [0, 0], [0, 0]]}),
                 "entry 1 is not a [re, im] pair of numbers: [0, 0, 0]", id="three-element-entry"),
    pytest.param(json.dumps({"kind": "density", "qubits": 1,
                             "entries": [[1, 0], [0, 0], [0, 0], ["0", 0]]}),
                 "entry 3 is not a [re, im] pair of numbers: ['0', 0]", id="string-entry"),
    pytest.param(json.dumps({"kind": "density", "qubits": 1, "entries": [1, 0, 0, 0]}),
                 "entry 0 is not a [re, im] pair of numbers: 1", id="bare-number-entry"),
])
def test_malformed_load_file_exits_3_naming_it(tmp_path, capsys, text, message):
    """Refused before anything the size of the record's claims is built:
    4^qubits for qubits = 10^8 alone is a 25 MB integer."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    random_density(1, 1, seed=5).save(str(good))
    bad.write_text(text)
    for rho, sigma in [(bad, good), (good, bad)]:
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "estimate", "--load-rho", str(rho), "--load-sigma",
                                 str(sigma), "--eps", "0.5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err == f"config error: {bad}: {message}\n"
        assert peak < 1 << 20


def test_sweep_with_an_empty_knob_list_exits_3(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, err = run(capsys, *SWEEP_FLAGS, "--output", str(out), "--kappa-sigma-list", ",")
    assert code == 3 and "config error: empty parameter grid" in err
    assert not out.exists()


def test_sweep_jobs_outside_cpu_count_exits_3(tmp_path, capsys, monkeypatch):
    def no_executor(*args, **kwargs):
        raise AssertionError("a process pool was constructed")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_executor)
    out = tmp_path / "s.csv"
    for flag, value in (("--jobs", 0), ("--jobs", os.cpu_count() + 1), ("--trials", 0)):
        code, _, err = run(capsys, *SWEEP_FLAGS, "--output", str(out), flag, str(value))
        assert code == 3 and flag in err
    # the bound is the CPUs this process may run on, not the host's count
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    code, _, err = run(capsys, *SWEEP_FLAGS, "--output", str(out), "--jobs", "2")
    assert code == 3 and "[1, 1]" in err
    assert not out.exists()


def test_verify_rejects_a_config_key_it_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("seed = 1\nsim-level = ideal-spectral\n")
    code, _, err = run(capsys, "verify", "sine-state", "--config", str(cfg))
    assert code == 3 and "unknown config key: sim-level" in err


EPS_FLAGS = {"--n": "1", "--rank-rho": "1", "--rank-sigma": "2", "--eps": "0.5", "--seed": "7"}


@pytest.mark.parametrize("source", ["command line", "config file"])
@pytest.mark.parametrize("flag, value", [
    ("--bogus", "1"), ("--mode", "bogus"), ("--sim-level", "bogus"), ("--n", "x"),
    ("--seed", "-1"), ("--n", "0"), ("--rank-rho", "0"), ("--rank-sigma", "3"),
    ("--eps", "0"), ("--eps", "1"), ("--kappa-sigma", "0.5"), ("--kappa", "0.5"),
    ("--t-sigma", "3"), ("--t", "5"), ("--qae-m", "1"), ("--bound-constant", "-1"),
    ("--perturbation", "-0.1"), ("--qubit-budget", "-3"), ("--qubit-budget", "0"),
])
def test_usage_errors_exit_3(tmp_path, capsys, source, flag, value):
    # the flag under test is left out of the base flags, so that a config
    # file's value is the one the run would use
    flags = ["estimate"] + [s for f, v in EPS_FLAGS.items() if f != flag for s in (f, v)]
    if source == "command line":
        flags += [flag, value]
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        flags += ["--config", str(cfg)]
    code, _, err = run(capsys, *flags)
    assert code == 3 and re.search(rf"\b{flag[2:]}\b", err) and "config error" in err


@pytest.mark.parametrize("flag, value", [
    ("--kappa-sigma-list", "4,0.5"), ("--kappa-list", "0.5"), ("--t-sigma-list", "4096,5"),
    ("--t-list", "5,65536"), ("--qae-m-list", "1024,1"), ("--bound-constant", "-1"),
    ("--perturbation", "-0.1"),
])
def test_sweep_knob_out_of_range_exits_3_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "s.csv"
    code, _, err = run(capsys, *SWEEP_FLAGS, "--output", str(out), flag, value)
    assert code == 3 and f"config error: argument {flag}: must be" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, value", [
    (ESTIMATE_FLAGS, "--qae-m", "24"), (SWEEP_FLAGS, "--qae-m-list", "16,24"),
])
def test_sampled_qae_m_not_a_power_of_two_exits_3(tmp_path, capsys, argv, flag, value):
    """M is the size of the phase register: with --qae-mode sample a grid
    size that is no power of two is a usage error naming the flag, and a
    sweep stops before it writes its header."""
    out = tmp_path / "s.csv"
    code, _, err = run(capsys, *argv, "--output", str(out), flag, value, "--qae-mode", "sample")
    assert code == 3 and f"config error: option {flag} must be a power of two" in err
    assert "got 24" in err and not out.exists()


@pytest.mark.parametrize("knobs", [
    {"--kappa-sigma": "1e250", "--kappa": "1"},  # kappa_sigma^1.5 overflowed: a traceback
    {"--kappa-sigma": "1e200", "--kappa": "1e200"},  # the scale overflowed: NaN in the report
    {"--kappa-sigma": "1e10", "--bound-constant": "1e308"},  # the bound overflows
])
@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_knob_set_that_overflows_a_float_exits_3(tmp_path, capsys, command, knobs):
    """Each knob is in range, but the set's scale 16 sqrt(kappa kappa_sigma)
    or analytic bound is not a float: a usage error, and a sweep stops
    before it writes its header."""
    out = tmp_path / "s.csv"
    if command == "estimate":
        argv = [*ESTIMATE_FLAGS, *itertools.chain(*knobs.items())]
    else:
        argv = [*SWEEP_FLAGS, "--output", str(out)]
        argv += itertools.chain(*((k if k == "--bound-constant" else f"{k}-list", v)
                                  for k, v in knobs.items()))
    code, stdout, err = run(capsys, *argv)
    assert code == 3 and stdout == "" and "overflow the scale or bound" in err
    assert "nan" not in err.lower() and not out.exists()


def test_refused_allocation_exits_1_with_one_error_line(capsys, monkeypatch):
    """numpy's MemoryError (an estimate whose arrays the address space cannot
    hold) is reported like any other runtime error, without a traceback."""
    message = "Unable to allocate 8.00 GiB for an array with shape (2, 536870912)"

    def refused(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "estimate_fidelity", refused)
    code, stdout, err = run(capsys, *ESTIMATE_FLAGS)
    assert (code, stdout, err) == (1, "", f"error: {message}\n")


def test_bound_that_overflows_at_the_instance_rank_exits_1_without_infinity(capsys):
    code, stdout, err = run(capsys, "estimate", "--n", "2", "--rank-rho", "3", "--rank-sigma", "3",
                            "--seed", "1", "--kappa-sigma", "1", "--t-sigma", "1048576",
                            "--kappa", "1", "--t", "1048576", "--qae-m", "1024",
                            "--bound-constant", "7e307")
    assert (code, stdout) == (1, "")
    assert err == "error: the analytic bound overflows a float at rank 3\n"


@pytest.mark.parametrize("eps, mode, code", [
    ("1e-30", "paper", 2), ("1e-80", "paper", 2), ("5e-324", "paper", 2),
    ("1e-80", "practical", 0), ("5e-324", "practical", 0),
])
def test_tiny_eps_is_infeasible_or_capped_without_a_traceback(capsys, eps, mode, code):
    got, stdout, err = run(capsys, "estimate", "--n", "1", "--rank-rho", "1", "--rank-sigma",
                           "1", "--seed", "0", "--eps", eps, "--mode", mode)
    assert got == code
    if code == 2:
        assert err.startswith("infeasible parameters: paper-mode t=")
    else:
        report = json.loads(stdout)  # the capped schedule
        assert (report["kappa_sigma"], report["t"], report["qae_m"]) == (2.0**30, 1 << 30, 1 << 26)
        assert "NaN" not in stdout and "Infinity" not in stdout


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("argv, flag", [
    (ESTIMATE_FLAGS, "--kappa-sigma"), (ESTIMATE_FLAGS, "--kappa"),
    (ESTIMATE_FLAGS, "--bound-constant"), (ESTIMATE_FLAGS, "--perturbation"),
    (SWEEP_FLAGS, "--kappa-sigma-list"), (SWEEP_FLAGS, "--kappa-list"),
    (["coeffs", "--t", "8"], "--lam"),
])
def test_non_finite_float_flags_exit_3(tmp_path, capsys, argv, flag, value):
    out = tmp_path / "s.csv"
    if flag.endswith("-list"):
        value = f"4,{value}"
    extra = ["--output", str(out)] if argv is SWEEP_FLAGS else []
    code, stdout, err = run(capsys, *argv, *extra, f"{flag}={value}")
    assert code == 3 and stdout == ""
    assert f"config error: argument {flag}: must be finite" in err
    assert not out.exists()


def test_negative_seed_exits_3_on_sweep_and_verify(tmp_path, capsys):
    out = tmp_path / "s.csv"
    for argv in (["sweep", *SWEEP_FLAGS[1:], "--output", str(out), "--seed", "-1"],
                 ["verify", "--seed", "-1", "sine-state"]):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "argument --seed: must be >= 0, got -1" in err
    assert not out.exists()


def test_unopenable_paths_exit_3(tmp_path, capsys):
    missing = tmp_path / "missing"
    for argv, path in [
        ([*ESTIMATE_FLAGS, "--config", str(missing / "a.cfg")], missing / "a.cfg"),
        (["estimate", "--load-rho", str(missing / "r.json"), "--load-sigma",
          str(missing / "r.json"), "--eps", "0.5"], missing / "r.json"),
        ([*SWEEP_FLAGS, "--output", str(missing / "x.csv")], missing / "x.csv"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == f"config error: cannot open {path}: No such file or directory\n"


def test_config_file_gives_the_command_line_report(tmp_path, capsys):
    """Every value-taking flag of estimate read from a config file gives the
    report that the same flags give on the command line."""
    rho, sigma = tmp_path / "rho.json", tmp_path / "sigma.json"
    random_density(1, 1, seed=5).save(str(rho))
    random_density(1, 2, seed=6).save(str(sigma))
    values = {
        "seed": "4", "sim-level": "circuit-pe", "qubit-budget": "13",
        "perturbation": "0.05", "output": str(tmp_path / "report.json"),
        "n": "1", "rank-rho": "1", "rank-sigma": "2", "qae-mode": "sample",
        "bound-constant": "2.5", "eps": "0.5", "mode": "paper",
        "kappa-sigma": "4", "t-sigma": "8", "kappa": "16", "t": "12", "qae-m": "256",
        "load-rho": str(rho), "load-sigma": str(sigma),
        "dump-rho": str(tmp_path / "rho-out.json"), "dump-sigma": str(tmp_path / "sigma-out.json"),
    }
    def written():
        return [(tmp_path / name).read_bytes()
                for name in ("report.json", "rho-out.json", "sigma-out.json")]

    flags = [token for key, value in values.items() for token in (f"--{key}", value)]
    code, flag_out, _ = run(capsys, "estimate", *flags)
    assert code == 0
    flag_files = written()
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    code, cfg_out, _ = run(capsys, "estimate", "--config", str(cfg))
    assert code == 0
    assert cfg_out == flag_out
    assert written() == flag_files
    assert json.loads(cfg_out)["sim_level_sigma"] == "circuit-pe-perturbed"


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_examples_parse():
    """Every ``fidest`` command in the README's code blocks names only flags
    and choices the parser has."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```[a-z]*\n(.*?)```", fh.read(), flags=re.S)
    lines = [line.strip() for block in blocks
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("fidest ")]
    assert len(commands) >= 6
    parser = cli.build_parser()
    for tokens in commands:
        parser.parse_args(tokens[1:])
