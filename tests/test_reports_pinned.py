"""Reports of fourteen small estimates, pinned to ``reports_pinned.json``.

The calls cover both levels, perturbed circuits, equal-rank pairs and
sampled amplitude estimation.  Strings, integers and booleans must match the
file exactly; floats within 1e-12 relative or 1e-14 absolute.  When a change
of reported numbers is intended, rewrite the fields that moved with
``PYTHONPATH=src python tests/test_reports_pinned.py FIELD [FIELD ...]``: it
reruns every case but keeps the pinned value of every other field, and of a
named field wherever it matches the pin, since floats in the last digits
drift between hosts.  With no field names it only adds the cases the file
lacks.
"""

import json
import math
import os
import sys

import pytest

from fidest import (
    PipelineParams,
    QaeParams,
    estimate_fidelity,
    purify,
    random_density,
    select_params,
)

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reports_pinned.json")

IDEAL, CIRCUIT = "ideal-spectral", "circuit-pe"

# name: (n, rank_rho, rank_sigma, instance seed,
#        (kappa_sigma, t_sigma, kappa, t, M, level, qae mode, perturbation))
CASES = {
    "ideal-n1-ranks-1-2": (1, 1, 2, 11, (4.0, 1 << 12, 256.0, 1 << 20, 4096, IDEAL, "exact", 0.0)),
    "ideal-n2-ranks-2-3": (
        2, 2, 3, 21, (4.0, 1 << 20, 512.0, 1 << 22, 1 << 15, IDEAL, "exact", 0.0)
    ),
    "ideal-n3-ranks-3-3": (
        3, 3, 3, 31, (4.0, 1 << 20, 512.0, 1 << 22, 1 << 15, IDEAL, "exact", 0.0)
    ),
    "ideal-n2-ranks-2-2-sampled": (
        2, 2, 2, 41, (4.0, 4096, 512.0, 1 << 22, 256, IDEAL, "sample", 0.0)
    ),
    "practical-n2-ranks-1-2": (2, 1, 2, 51, None),
    "circuit-w-n1-ranks-1-2": (1, 1, 2, 61, (4.0, 8, 512.0, 1 << 22, 1024, CIRCUIT, "exact", 0.0)),
    "circuit-w-perturbed": (1, 1, 2, 71, (4.0, 8, 512.0, 1 << 22, 1024, CIRCUIT, "exact", 0.05)),
    "circuit-eta-n1-ranks-1-2": (
        1, 1, 2, 81, (2.0, 1 << 18, 64.0, 12, 256, CIRCUIT, "exact", 0.0)
    ),
    "circuit-eta-perturbed": (1, 1, 2, 91, (2.0, 1 << 18, 64.0, 12, 256, CIRCUIT, "exact", 0.05)),
    "circuit-eta-ranks-2-2": (1, 2, 2, 101, (2.0, 1 << 18, 64.0, 12, 256, CIRCUIT, "exact", 0.0)),
    "circuit-eta-n2-ranks-2-3": (  # a 14-qubit eta circuit
        2, 2, 3, 111, (2.0, 1 << 18, 64.0, 12, 256, CIRCUIT, "exact", 0.0)
    ),
    "ideal-n3-ranks-2-2-swapped": (
        3, 2, 2, 122, (4.0, 1 << 20, 512.0, 1 << 22, 1 << 15, IDEAL, "exact", 0.0)
    ),
    "ideal-n1-ranks-1-2-sampled-m22": (  # a sampled draw on a 2^22-point grid
        1, 1, 2, 131, (4.0, 1 << 12, 256.0, 1 << 20, 1 << 22, IDEAL, "sample", 0.0)
    ),
    "ideal-n1-ranks-1-2-sampled-gap-m20": (  # a sampled draw that falls in a (mirror) gap
        1, 1, 2, 1074, (4.0, 1 << 12, 256.0, 1 << 20, 1 << 20, IDEAL, "sample", 0.0)
    ),
}


def _prep(rho):
    return purify(rho, max(1, math.ceil(math.log2(max(rho.rank, 2)))))


def run_case(name: str) -> dict:
    n, rank_rho, rank_sigma, seed, knobs = CASES[name]
    rho = random_density(n, rank_rho, seed=seed)
    sigma = random_density(n, rank_sigma, seed=seed + 1)
    if knobs is None:
        params = select_params(min(rank_rho, rank_sigma), 0.5, mode="practical")
    else:
        ks, ts, k, t, m, level, mode, perturbation = knobs
        params = PipelineParams(
            kappa_sigma=ks, t_sigma=ts, kappa=k, t=t, qae=QaeParams(M=m, mode=mode),
            sim_level=level, perturbation=perturbation,
        )
    rep = estimate_fidelity(_prep(rho), _prep(sigma), params, seed=seed)
    return json.loads(rep.to_json())


def _matches(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14)
    return type(got) is type(want) and got == want


def regenerate(pinned: dict, run, fields: list[str]) -> dict:
    """Every case of CASES: a pinned one with the named fields taken from
    ``run(name)`` where they moved, a missing one whole from ``run(name)``."""
    out = {}
    for name in sorted(CASES):
        want = pinned.get(name)
        if want is None:
            out[name] = run(name)
            continue
        unknown = [f for f in fields if f not in want]
        if unknown:
            raise ValueError(f"{name} has no field {', '.join(unknown)}")
        got = run(name) if fields else {}
        out[name] = {k: got[k] if k in fields and not _matches(got[k], v) else v
                     for k, v in want.items()}
    return out


def test_regenerate_rewrites_only_named_fields():
    pinned = {name: {"x": 1.0, "delta": 2.0, "level": "a"} for name in sorted(CASES)[1:]}
    fresh = {"x": 1.5, "delta": 2.5, "level": "b"}
    runs = []

    def run(name):
        runs.append(name)
        return dict(fresh)

    first = sorted(CASES)[0]
    assert regenerate(pinned, run, []) == {first: fresh, **pinned}
    assert runs == [first]
    rewritten = regenerate(pinned, run, ["delta"])
    assert rewritten[first] == fresh
    assert all(rewritten[name] == {"x": 1.0, "delta": 2.5, "level": "a"} for name in pinned)
    with pytest.raises(ValueError, match="no field bogus"):
        regenerate(pinned, run, ["bogus"])
    fresh["delta"] = 2.0 * (1 + 1e-14)  # host drift within the pin's tolerance
    assert regenerate(pinned, run, ["delta"])[sorted(CASES)[1]]["delta"] == 2.0


@pytest.fixture(scope="module")
def pinned():
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_pinned(pinned, name):
    got, want = run_case(name), pinned[name]
    assert list(got) == list(want)
    moved = {k: (got[k], want[k]) for k in want if not _matches(got[k], want[k])}
    assert moved == {}


if __name__ == "__main__":
    pinned = {}
    if os.path.exists(PINNED):
        with open(PINNED, encoding="utf-8") as fh:
            pinned = json.load(fh)
    merged = regenerate(pinned, run_case, sys.argv[1:])
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1)
        fh.write("\n")
