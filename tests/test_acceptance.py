"""Acceptance suite: one test per criterion, at the stated tolerance.

Expected values are frozen transcriptions of the classical tables plus
hand-checked arithmetic; nothing here is read back from the code under
test.  The conftest plugin prints one PASS/FAIL line per criterion at
the end of the run.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from delpezzo.lattice import PicardClass, canonical_class, degree, intersect
from delpezzo.enumeration import (
    enumerate_null_classes,
    exceptional_type_census,
)
from delpezzo.positivity import (
    EXCEPTION_MINUS_K1K_S8,
    EXCEPTION_MINUS_KK_S8,
    EXCEPTION_MINUS_K_S7_K1,
    EXCEPTION_NONE,
    f1_class,
    f1_coords,
    f1_is_k_very_ample,
    is_effective,
    is_k_very_ample,
    minimum_pairing,
)
from delpezzo.reider import consistency_sweep
from bulk_reference import minimum_family_value_bulk, pairing_matrix
from test_cli import GOLDEN, MANIFEST, run_cli

CENSUS = {
    "(0;-1)": (1, 2, 3, 4, 5, 6, 7, 8),
    "(1;1^2)": (0, 1, 3, 6, 10, 15, 21, 28),
    "(2;1^5)": (0, 0, 0, 0, 1, 6, 21, 56),
    "(3;2,1^6)": (0, 0, 0, 0, 0, 0, 7, 56),
    "(4;2^3,1^5)": (0, 0, 0, 0, 0, 0, 0, 56),
    "(5;2^6,1^2)": (0, 0, 0, 0, 0, 0, 0, 28),
    "(6;3,2^7)": (0, 0, 0, 0, 0, 0, 0, 8),
}
TOTALS = (1, 3, 6, 10, 16, 27, 56, 240)

NULL_ROWS = [
    (1, (0, 0, 0, 0, 0, 0, 0, 1)),
    (2, (0, 0, 0, 0, 1, 1, 1, 1)),
    (3, (0, 0, 1, 1, 1, 1, 1, 2)),
    (4, (0, 1, 1, 1, 1, 2, 2, 2)),
    (4, (1, 1, 1, 1, 1, 1, 1, 3)),
    (5, (0, 1, 2, 2, 2, 2, 2, 2)),
    (5, (1, 1, 1, 1, 2, 2, 2, 3)),
    (6, (1, 1, 2, 2, 2, 2, 3, 3)),
    (7, (1, 2, 2, 2, 3, 3, 3, 3)),
    (7, (2, 2, 2, 2, 2, 2, 3, 4)),
    (8, (1, 3, 3, 3, 3, 3, 3, 3)),
    (8, (2, 2, 2, 3, 3, 3, 3, 4)),
    (9, (2, 3, 3, 3, 3, 3, 4, 4)),
    (10, (3, 3, 3, 3, 4, 4, 4, 4)),
    (11, (3, 4, 4, 4, 4, 4, 4, 4)),
]

SPLIT_SHAPES = {
    2: ["(1;1^2)+(1;1^2)"],
    3: ["(2;1^5)+(1;1^2)"],
    4: ["(3;2,1^6)+(1;1^2)"],
    5: ["(3;2,1^6)+(2;1^5)"],
    6: ["(4;2^3,1^5)+(2;1^5)"],
    7: ["(5;2^6,1^2)+(2;1^5)", "(6;3,2^7)+(1;1^2)"],
    8: ["(5;2^6,1^2)+(3;2,1^6)", "(6;3,2^7)+(2;1^5)"],
    9: ["(6;3,2^7)+(3;2,1^6)"],
    10: ["(6;3,2^7)+(4;2^3,1^5)"],
    11: ["(6;3,2^7)+(5;2^6,1^2)"],
}

_BOX_CACHE = {}


def criterion_box(r):
    """The exhaustive criterion-3 box: 0 <= a <= 15, -2 <= b_i <= 15."""
    if r not in _BOX_CACHE:
        grids = np.meshgrid(np.arange(0, 16), *[np.arange(-2, 16)] * r, indexing="ij")
        _BOX_CACHE[r] = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    return _BOX_CACHE[r]


def sampled_box(r, count=10**5, seed=None):
    rng = np.random.default_rng(1000 + r if seed is None else seed)
    a = rng.integers(0, 16, count)
    b = rng.integers(-2, 16, (count, r))
    return np.column_stack([a, b]).astype(np.int64)


def test_criterion_1_exceptional_census():
    start = time.monotonic()
    tables = {r: exceptional_type_census(r) for r in range(1, 9)}
    elapsed = time.monotonic() - start
    comparisons = 0
    for pattern_text, row in CENSUS.items():
        for r in range(1, 9):
            got = next((n for pat, n in tables[r].counts if pat.render() == pattern_text), 0)
            assert got == row[r - 1], f"{pattern_text} at rank {r}: {got} != {row[r - 1]}"
            comparisons += 1
    for r in range(1, 9):
        assert tables[r].total == TOTALS[r - 1]
        comparisons += 1
    assert comparisons == 64
    assert tables[6].total == 27
    assert [n for _, n in tables[8].counts] == [8, 28, 56, 56, 56, 28, 8]
    assert elapsed < 1.0, f"census took {elapsed:.2f}s"


def test_criterion_2_null_classes_and_splittings():
    start = time.monotonic()
    records = enumerate_null_classes(8)
    elapsed = time.monotonic() - start
    assert [(rec.representative.a, rec.representative.b) for rec in records] == NULL_ROWS
    assert max(rec.representative.a for rec in records) == 11
    by_a = {}
    per_rep = {}
    for rec in records:
        shapes = {f"{s1.render()}+{s2.render()}" for s1, s2 in rec.decomposition_shapes()}
        by_a.setdefault(rec.representative.a, set()).update(shapes)
        per_rep.setdefault(rec.representative.a, []).append(shapes)
    for a, expected in SPLIT_SHAPES.items():
        for shape in expected:
            assert shape in by_a[a], f"a={a}: published splitting {shape} not found"
    # both options at a = 7 and a = 8, one from each representative
    for a in (7, 8):
        first, second = SPLIT_SHAPES[a]
        assert first in per_rep[a][0] and second in per_rep[a][1]
    assert elapsed < 1.0, f"null-class enumeration took {elapsed:.2f}s"


def test_criterion_3_criterion_equivalence():
    start = time.monotonic()
    disagreements = 0
    for r in range(1, 9):
        coeffs = criterion_box(r) if r <= 4 else sampled_box(r)
        direct = pairing_matrix(coeffs, r).min(axis=1)
        folded = minimum_family_value_bulk(coeffs)
        for k in range(0, 4):
            disagreements += int(np.count_nonzero((direct >= k) != (folded >= k)))
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 300, f"equivalence sweep took {elapsed:.1f}s"


def test_criterion_4_exception_classes():
    K8, K7 = canonical_class(8), canonical_class(7)
    for k in range(1, 6):
        for mult, flag in ((k, EXCEPTION_MINUS_KK_S8), (k + 1, EXCEPTION_MINUS_K1K_S8)):
            L = -mult * K8
            assert minimum_pairing(L) >= k, "inequalities are supposed to hold"
            report = is_k_very_ample(L, k)
            assert report.k_very_ample is False
            assert report.exception_flag == flag
    rep = is_k_very_ample(-K7, 1)
    assert rep.k_very_ample is False and rep.exception_flag == EXCEPTION_MINUS_K_S7_K1
    rep = is_k_very_ample(-K7, 0)
    assert rep.k_very_ample is True and rep.exception_flag == EXCEPTION_NONE
    for k in (2, 3):  # rejected exactly at k = 1
        assert is_k_very_ample(-K7, k).exception_flag == EXCEPTION_NONE


def test_criterion_5_reider_consistency_sweeps():
    start = time.monotonic()
    plans = [
        (2, 1, 10, None),
        (3, 1, 10, None),
        (7, 1, 12, 1000),
        (8, 1, 12, 1000),
        (2, 2, 10, None),
        (5, 2, 12, 1000),
    ]
    for r, k, a_max, sample in plans:
        summary = consistency_sweep(r, k, a_max, sample=sample, seed=7 if sample else 0)
        assert summary.ok, summary.render()
        assert summary.applicable > 0
        assert summary.failing > 0  # the sweep actually exercised witnesses
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"sweeps took {elapsed:.1f}s"


def test_criterion_6_degree_bound():
    for r in range(1, 5):
        coeffs = criterion_box(r)
        mins = pairing_matrix(coeffs, r).min(axis=1)
        degrees = coeffs[:, 0] ** 2 - (coeffs[:, 1:] ** 2).sum(axis=1)
        # no exception classes below rank 7, so the pairing test is the verdict
        for k, bound in ((2, 12), (3, 20)):
            ample = mins >= k
            exclude = np.all(coeffs == np.array([3 * k] + [k] * r), axis=1)
            violating = ample & ~exclude & (degrees < bound)
            assert not violating.any(), coeffs[violating][:5]
            # and the excluded class itself still meets the bound at these ranks
            if exclude.any():
                assert (degrees[exclude] >= bound).all()


def test_criterion_7_effectivity_oracle():
    ok, cert = is_effective(-canonical_class(8))
    assert ok and cert.replay() == -canonical_class(8)
    for r in (1, 2, 3):
        K = canonical_class(r)
        for a in range(-2, 13):
            for b in itertools.product(range(-12, 13), repeat=r):
                L = PicardClass(a, b)
                effective, certificate = is_effective(L)
                if degree(L) >= intersect(K, L):  # a >= -2 holds on the whole box
                    assert effective, f"sufficiency bound violated at {L}"
                if effective:
                    assert certificate.replay() == L


def test_criterion_8_ruled_surface_coordinates():
    for a0 in range(-20, 21):
        for b in range(-20, 21):
            assert f1_coords(f1_class(a0, b)) == (a0, b)
            L = PicardClass(b, (b - a0,))
            assert f1_class(a0, b) == L
            for k in range(0, 4):
                assert f1_is_k_very_ample(a0, b, k) == is_k_very_ample(L, k).k_very_ample


# what four goldens say, beyond their bytes, keyed by the golden's stem:
# a reading of the report and the paper's answer
VERDICTS = {
    "check_r8_k1_anticanonical": (lambda p: (p["verdicts"]["k_very_ample"], p["exception_flag"]),
                                  (False, "minus_kK_S8")),
    "check_r1_k2": (lambda p: p["verdicts"]["k_very_ample"], True),
    "check_r2_k1_violating": (lambda p: (p["verdicts"]["nef"], "a >= b_i + b_j" in {v["family"] for v in p["violations"]}),
                              (False, True)),
    "adjoint_r1_k1": (lambda p: (p["adjoint"], p["adjoint_k_very_ample"]), ("0;1", False)),
}


@pytest.mark.parametrize("golden,argv", MANIFEST, ids=[Path(golden).stem for golden, _ in MANIFEST])
def test_criterion_9_cli_golden_bytes(capsys, golden, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()
    if golden.endswith(".json"):
        json.loads(out)  # stays valid JSON


def test_criterion_9_cli_golden_files():
    # the goldens the byte diffs pin say the paper's answers
    stems = {Path(golden).stem: golden for golden, _ in MANIFEST}
    assert VERDICTS.keys() <= stems.keys()  # a renamed golden keeps its verdict
    for stem, (read, expected) in VERDICTS.items():
        assert read(json.loads((GOLDEN / stems[stem]).read_text())) == expected, stem
