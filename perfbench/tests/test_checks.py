"""Report checks against live fidest reports on the cheapest workload pairs,
and the metric list in BENCHMARK.json."""

import json
import math
import os

import pytest

import child
import run
import workloads
from fidest import pipeline

SEED = 3


@pytest.fixture(scope="module")
def reports():
    pairs = workloads.make_pairs("ideal-practical", SEED)
    ops = child.set_up("ideal-practical", SEED)
    picked = [0, 8, 10]  # n = 1 at eps 0.5, the eps = 0.1 schedule miss, sampled QAE
    out = []
    for i in picked:
        rho_prep, sigma_prep, params, seed = ops[i]
        rep = pipeline.estimate_fidelity(rho_prep, sigma_prep, params, seed=seed).to_dict()
        out.append((pairs[i], rep))
    return out


def test_live_reports_pass(reports):
    for pair, rep in reports:
        problems, _ = run.check_report(pair, rep)
        assert problems == []


@pytest.mark.parametrize("field, change", [
    ("x", lambda v: v * (1 + 1e-6)),
    ("exact_fidelity", lambda v: v + 1e-6),
    ("x_tilde", lambda v: v * 1.001),
    ("estimate", lambda v: v + 1e-6),
    ("queries_o_sigma", lambda v: v + 1),
    ("w_sigma_error", lambda v: v + 1e-6),
])
def test_tampered_report_is_caught(reports, field, change):
    pair, rep = reports[0]
    bad = dict(rep, **{field: change(rep[field])})
    problems, _ = run.check_report(pair, bad)
    assert problems


def test_schedule_miss_counts_as_failed(reports):
    records = [{"op": pair.index, "round": 0, "report": rep} for pair, rep in reports]
    pairs = {pair.index: pair for pair, _ in reports}
    checked = run.check_records(pairs, records)
    assert checked["problems"] == []
    assert (checked["attempted"], checked["failed"]) == (3, 1)
    assert reports[1][1]["estimate"] == 0.0


def test_sampled_outcome_outside_the_likely_set_is_caught(reports):
    # The Fejer kernel's 1/k^2 tails put all but the least likely outcomes in
    # the 1 - 1e-6 set; the least likely one (and its mirror M - y) is outside.
    pair, rep = reports[2]
    assert rep["qae_mode"] == "sample"
    m = rep["qae_m"]
    unlikely = int(run.reference.qae_law(rep["x"], m).argmin())
    problems, _ = run.check_report(pair, dict(rep, x_tilde=math.sin(math.pi * unlikely / m) ** 2))
    assert any("outcome set" in p for p in problems), problems


def test_benchmark_json_lists_the_metrics_run_prints():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
