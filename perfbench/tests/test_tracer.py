"""Span bookkeeping of the tracer, on hand-made nests and on fidest itself."""

import time

import numpy as np
import pytest

from tracer import END, NAME, PARENT, START, Tracer


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_is_duration_minus_children():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: _busy(0.01))

    def outer_body():
        _busy(0.005)
        inner()
        inner()

    outer = tr.wrap("outer", outer_body)
    outer()
    spans, selfs = tr.spans, tr.self_times()
    assert [s[NAME] for s in spans] == ["outer", "inner", "inner"]
    assert [s[PARENT] for s in spans] == [-1, 0, 0]
    dur = [s[END] - s[START] for s in spans]
    assert selfs[0] == pytest.approx(dur[0] - dur[1] - dur[2], abs=1e-12)
    assert selfs[1] == pytest.approx(dur[1], abs=1e-12)
    assert sum(selfs) == pytest.approx(dur[0], abs=1e-12)
    agg = tr.aggregate("outer")
    assert agg["names"]["inner"]["calls"] == 2
    assert agg["root_s"] == pytest.approx(dur[0])


def test_memory_peak_propagates_to_the_parent():
    tr = Tracer(memory=True)
    inner = tr.wrap("inner", lambda: np.ones(1 << 20).sum())  # 8 MiB, freed on return
    outer = tr.wrap("outer", inner)
    import tracemalloc

    tracemalloc.start()
    try:
        outer()
    finally:
        tracemalloc.stop()
    peaks = {n: st["peak_bytes"] for n, st in tr.aggregate("outer")["names"].items()}
    assert peaks["inner"] >= 8 << 20
    assert peaks["outer"] >= peaks["inner"]


def test_install_nests_unitarity_defect_over_operator_norm():
    from fidest import block_encoding, linalg, states

    original = linalg.operator_norm
    tr = Tracer()
    tr.install("fidest")
    try:
        assert states.operator_norm is not original  # the second binding is wrapped too
        linalg.unitarity_defect(np.eye(8))
    finally:
        tr.uninstall()
    assert linalg.operator_norm is original and block_encoding.operator_norm is original
    names = [s[NAME] for s in tr.spans]
    top = names.index("linalg.unitarity_defect")
    norm = names.index("linalg.operator_norm")
    assert tr.spans[top][PARENT] == -1 and tr.spans[norm][PARENT] == top
    agg = tr.aggregate("linalg.unitarity_defect")
    assert sum(st["root_self_s"] for st in agg["names"].values()) == pytest.approx(agg["root_s"])
    assert tr.counts["dense_work"] == 8**3 and tr.counts["max_dim"] == 8


def test_install_traces_constructor_validation():
    from fidest import states

    tr = Tracer()
    tr.install("fidest")
    try:
        states.DensityOperator(np.eye(2) / 2)
    finally:
        tr.uninstall()
    assert tr.spans[0][NAME] == "states.DensityOperator"
    assert "linalg.eig_hermitian" in [s[NAME] for s in tr.spans]
