import json

import numpy as np

from fidest import random_density
from fidest.cli import main


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


def test_estimate_infeasible_exits_2(capsys):
    code, _, err = run(
        capsys, "estimate", "--n", "1", "--rank-rho", "1", "--rank-sigma", "1",
        "--seed", "1", "--eps", "0.1", "--mode", "paper",
    )
    assert code == 2
    assert "infeasible" in err.lower()


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


def _with_level(flags, level):
    i = flags.index("--sim-level")
    return flags[: i + 1] + [level] + flags[i + 2:]


def test_perturbation_without_perturbed_level_exits_3(tmp_path, capsys):
    for flags in (ESTIMATE_FLAGS, SWEEP_FLAGS + ["--output", str(tmp_path / "s.csv")]):
        for level in ("ideal-spectral", "circuit-pe"):
            code, _, err = run(capsys, *_with_level(flags, level), "--perturbation", "0.05")
            assert code == 3 and "--perturbation" in err


def test_perturbed_level_without_perturbation_exits_3(tmp_path, capsys):
    for flags in (ESTIMATE_FLAGS, SWEEP_FLAGS + ["--output", str(tmp_path / "s.csv")]):
        perturbed = _with_level(flags, "circuit-pe-perturbed")
        for extra in ([], ["--perturbation", "0"]):
            code, _, err = run(capsys, *perturbed, *extra)
            assert code == 3 and "circuit-pe-perturbed" in err


def test_verify_suite_pass_and_unknown(capsys):
    code, out, _ = run(capsys, "verify", "pe-coefficients")
    assert code == 0
    assert "pass" in out and "checks passed" in out
    code, _, err = run(capsys, "verify", "not-a-suite")
    assert code == 1
    assert "sine-state" in err  # lists the available suites


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    assert "FAIL" not in out


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


def test_coeffs_inconsistent_grid_exits_3(capsys):
    code, _, err = run(capsys, "coeffs", "--lam", "0.3", "--t", "8", "--T", "16")
    assert code == 3 and "--t" in err


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
