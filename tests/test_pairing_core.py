"""The cached pairing core against pure-Python reference algorithms.

``ref_minimum_pairing``, ``ref_is_effective`` and ``ref_report`` copy the
package's original pure-Python algorithms as an oracle: one ``intersect``
per test curve, a greedy reduction that rescans the exceptional set and
subtracts one exceptional class per step, and each inequality family's
value taken as the smallest pairing over its orbit.  The package decides
effectivity in closed form (the Zariski decomposition) and must agree with
the greedy exactly, certificates included, also on coefficients far beyond
``SAFE_COEFF_BOUND`` where int64 would wrap.  Multiplicities too large for
the greedy to replay are checked against the decomposition itself
(``assert_zariski_certificate``).
"""

import copy
import dataclasses
import itertools
import json
import operator
import os
import pickle
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delpezzo import bulk, positivity
from delpezzo.bulk import FLOAT_EXACT_BOUND, SAFE_COEFF_BOUND, _box_leaves, exact_product, exact_rows, float_operand
from delpezzo.lattice import (
    LatticeMismatchError,
    PicardClass,
    RankError,
    canonical_class,
    degree,
    fiber_class,
    intersect,
    point_class,
    sectional_genus,
    type_pattern,
)
from delpezzo.enumeration import (
    SurfaceContext,
    decompose_null_class,
    enumerate_exceptional,
    exceptional_type_census,
    surface_context,
)
from delpezzo.positivity import (
    EXCEPTION_NONE,
    EffectivityCertificate,
    PositivityReport,
    Violation,
    _effectivity,
    _family_values,
    adjoint_kva_check,
    adjoint_report,
    degree_bound_check,
    exception_flag,
    f1_is_k_very_ample,
    generate_inequality_families,
    is_big,
    is_effective,
    is_k_very_ample,
    is_nef,
    is_spanned,
    minimum_pairing,
)
from delpezzo.reider import consistency_sweep, search_obstructions, window_applicable
from bulk_reference import minimum_family_value_bulk, pairing_matrix

# ---------------------------------------------------------------------------
# Reference algorithms.


def ref_test_curves(r):
    return enumerate_exceptional(r) + ((fiber_class(),) if r == 1 else ())


def ref_curve_orbits(r):
    """The test curves grouped by type pattern (one permutation orbit each),
    sorted by pattern: (pattern, indices into ``surface_context(r).test_curves``)."""
    groups = {}
    for i, x in enumerate(surface_context(r).test_curves):
        groups.setdefault(type_pattern(x), []).append(i)
    return sorted(groups.items(), key=lambda kv: kv[0].sort_key())


def ref_minimum_pairing(L):
    return min(intersect(L, c) for c in ref_test_curves(L.r))


def ref_is_effective(L):
    if L.r == 1:
        a, b1 = L.a, L.b[0]
        if a < 0 or a < b1:
            return False, None
        if b1 < 0:
            return True, EffectivityCertificate(((point_class(1, 1), -b1),), PicardClass(a, (0,)))
        return True, EffectivityCertificate((), L)
    a, b = L.a, list(L.b)
    chain = []
    while True:
        if a == 0 and not any(b):
            break
        if 3 * a - sum(b) <= 0:
            return False, None
        worst_val, worst = 0, None
        for xi in enumerate_exceptional(L.r):
            v = xi.a * a - sum(map(operator.mul, xi.b, b))
            if v < worst_val:
                worst_val, worst = v, xi
        if worst is None:
            break
        a -= worst.a
        b = [x - y for x, y in zip(b, worst.b)]
        if chain and chain[-1][0] == worst:
            chain[-1][1] += 1
        else:
            chain.append([worst, 1])
    return True, EffectivityCertificate(tuple((c, m) for c, m in chain), PicardClass(a, tuple(b)))


def ref_exception_flag(L, k):
    K = canonical_class(L.r)
    if L.r == 8:
        if L == -k * K:
            return "minus_kK_S8"
        if L == -(k + 1) * K:
            return "minus_k1K_S8"
    if L.r == 7 and k == 1 and L == -K:
        return "minus_K_S7_k1"
    return EXCEPTION_NONE


def ref_report(L, k):
    """``is_k_very_ample(L, k).as_dict()``, computed the reference way."""
    mp = ref_minimum_pairing(L)
    flag = ref_exception_flag(L, k)
    effective, cert = ref_is_effective(L)
    violations = []
    P = [intersect(L, x) for x in surface_context(L.r).test_curves]
    for fam, (pat, idx) in zip(generate_inequality_families(L.r), ref_curve_orbits(L.r), strict=True):
        assert fam.source_type == pat
        val = min(P[i] for i in idx)
        if val < 0:
            violations.append({"check": "nef", "family": fam.label(with_k=False), "value": val, "bound": 0})
        if val < k:
            violations.append({"check": "k_very_ample", "family": fam.label(with_k=True), "value": val, "bound": k})
    nef = mp >= 0
    return {
        "subject": L.render(),
        "r": L.r,
        "k": k,
        "degree": degree(L),
        "genus": sectional_genus(L),
        "verdicts": {
            "effective": effective,
            "nef": nef,
            "big": nef and degree(L) > 0,
            "spanned": nef,
            "k_very_ample": mp >= k and flag == EXCEPTION_NONE,
        },
        "violations": violations,
        "exception_flag": flag,
        "certificate": None if cert is None else {
            "subtracted": [[c.render(), m] for c, m in cert.subtracted],
            "terminal": cert.terminal.render(),
        },
    }


# ---------------------------------------------------------------------------
# Strategies.  Huge classes are m*(-K) + c*xi + D with m beyond the int64
# bound: -K pairs 1 with every exceptional class, so with c = m + t the
# greedy reference has a handful of steps instead of ~m of them.  The
# package's closed form takes the same time either way; huge
# multiplicities themselves are in TestHugeMultiplicity.

small = st.integers(-12, 12)


def small_classes(r):
    return st.builds(PicardClass, small, st.tuples(*[small] * r))


@st.composite
def huge_classes(draw, r):
    m = draw(st.integers(SAFE_COEFF_BOUND + 1, 10**30) | st.sampled_from([10**7, 2**62, 10**19, 10**30]))
    sign = draw(st.sampled_from([1, -1]))
    xi = draw(st.sampled_from(surface_context(r).exceptional_set))
    c = draw(st.sampled_from([0, m + draw(st.integers(-3, 8))]))
    D = draw(small_classes(r))
    return (sign * m) * (-canonical_class(r)) + c * xi + D


def ranked(strategy):
    return st.integers(1, 8).flatmap(strategy)


any_class = ranked(small_classes) | ranked(huge_classes)


def exceptional_multiples(r):
    """Small classes pushed by an exceptional class: long reductions.  From
    rank 2 on, also nef classes plus 2-4 multiples of exceptional classes
    less one exceptional class (:func:`nef_plus_multiples_less_one`)."""
    ctx = surface_context(r)
    pushed = st.builds(lambda D, xi, n: D + n * xi, small_classes(r),
                       st.sampled_from(ctx.exceptional_set), st.integers(1, 12))
    return pushed if r == 1 else pushed | nef_plus_multiples_less_one(r)


@st.composite
def nef_plus_multiples_less_one(draw, r):
    """A permuted nef box leaf plus 2-4 multiples of exceptional classes,
    which may meet, less one exceptional class: the negative curves may
    meet, the fold search's minimizer may lie outside them, and they may
    number several non-point curves."""
    exc = surface_context(r).exceptional_set
    a, *b = draw(st.sampled_from(nef_leaves(r)))
    L = PicardClass(a, tuple(draw(st.permutations(b))))
    for _ in range(draw(st.integers(2, 4))):
        L = L + draw(st.integers(1, 6)) * draw(st.sampled_from(exc))
    return L - draw(st.sampled_from(exc))


class TestAgainstReference:
    @given(any_class | ranked(exceptional_multiples))
    @settings(max_examples=400, deadline=None)
    def test_minimum_pairing_and_effectivity(self, L):
        assert minimum_pairing(L) == ref_minimum_pairing(L)
        got, expected = is_effective(L), ref_is_effective(L)
        assert got == expected
        if got[0]:
            assert type(got[1].terminal.a) is int  # plain ints, never numpy scalars

    @given(any_class | ranked(exceptional_multiples), st.integers(0, 3))
    @settings(max_examples=400, deadline=None)
    def test_report(self, L, k):
        got = json.dumps(is_k_very_ample(L, k).as_dict())
        assert got == json.dumps(ref_report(L, k))

    def test_exception_classes_and_neighbours(self):
        for r in (6, 7, 8):
            K = canonical_class(r)
            for m in range(-2, 6):
                for k in range(-1, 5):
                    for L in (-m * K, -m * K + point_class(r, 1)):
                        if k < 0:  # no level below 0 has exceptions to name
                            with pytest.raises(ValueError):
                                exception_flag(L, k)
                        else:
                            assert exception_flag(L, k) == ref_exception_flag(L, k)


@st.composite
def near_the_nef_bound(draw, r):
    """Small classes with a < max(b) or a < 0, or a just at or above
    max(b): both sides of the early reject."""
    b = draw(st.tuples(*[small] * r))
    a = draw(st.integers(-15, max(b) + 2) | st.integers(-15, -1))
    return PicardClass(a, b)


class TestEarlyReject:
    @given(ranked(near_the_nef_bound))
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_the_greedy_reduction(self, L):
        assert is_effective(L) == ref_is_effective(L)


@lru_cache(maxsize=None)
def nef_leaves(r):
    """The nef leaves of the box-6 sweep at rank r, as (a, *b) tuples."""
    leaves = _box_leaves(r, 6)
    return tuple(map(tuple, leaves[pairing_matrix(leaves, r).min(axis=1) >= 0].tolist()))


@st.composite
def nef_classes(draw, r):
    """Sums of nef classes are nef: up to three permuted nef box leaves plus
    a multiple of -K, sometimes past SAFE_COEFF_BOUND.  The zero class is
    drawn too (no leaves, no -K), the one nef class with L.(-K) = 0."""
    L = draw(st.sampled_from([0, 1, 3, 10**7, 10**19])) * (-canonical_class(r))
    for a, *b in draw(st.lists(st.sampled_from(nef_leaves(r)), max_size=3)):
        L = L + PicardClass(a, tuple(draw(st.permutations(b))))
    return L


class TestNefShortCircuit:
    @given(ranked(nef_classes), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_report_certificate_is_the_reduction_certificate(self, L, k):
        report = is_k_very_ample(L, k)
        assert report.nef
        assert report.certificate == is_effective(L)[1] == EffectivityCertificate((), L)
        assert _effectivity(L, _family_values(L)) == _effectivity(L) == (True, report.certificate)


def refuse(*args):
    raise AssertionError("refused call")


def slot_values(record):
    """Every slot of a slotted record by name; it must keep no instance dict."""
    assert not hasattr(record, "__dict__")
    return {name: getattr(record, name) for name in type(record).__slots__}


def public_report(report):
    """``report`` rebuilt, down to its classes and certificate, through the
    public dataclass constructors."""
    def public_class(L):
        return PicardClass(L.a, L.b)

    cert = report.certificate
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(PositivityReport)}
    fields["subject"] = public_class(report.subject)
    fields["violations"] = tuple(Violation(**v.as_dict()) for v in report.violations)
    if cert is not None:
        fields["certificate"] = EffectivityCertificate(
            tuple((public_class(c), m) for c, m in cert.subtracted), public_class(cert.terminal)
        )
    return PositivityReport(**fields)


class TestPackageBuiltRecords:
    """The package builds reports and violations through the same checked
    __init__ as any caller.  They, and the certificates they carry, must be
    the records the public constructors build, just as frozen and slotted,
    render the same, and survive pickling, copying and
    ``dataclasses.replace`` with their checks."""

    @given(any_class | ranked(nef_classes) | ranked(exceptional_multiples), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_report_is_the_publicly_constructed_one(self, L, k):
        report = is_k_very_ample(L, k)
        public = public_report(report)
        assert report == public and hash(report) == hash(public)

        def records(rep):
            cert = rep.certificate
            return [rep, *rep.violations, *([cert, cert.terminal] if cert else [])]

        for record, twin in zip(records(report), records(public), strict=True):
            assert slot_values(record) == slot_values(twin)  # every field, and nothing else
            name = dataclasses.fields(record)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, getattr(record, name))
        expected = {
            "subject": report.subject.render(),
            "r": report.r,
            "k": report.k,
            "degree": report.degree,
            "genus": report.genus,
            "verdicts": {
                "effective": report.effective,
                "nef": report.nef,
                "big": report.big,
                "spanned": report.spanned,
                "k_very_ample": report.k_very_ample,
            },
            "violations": [v.as_dict() for v in report.violations],
            "exception_flag": report.exception_flag,
            "certificate": None if report.certificate is None else report.certificate.as_dict(),
        }
        assert json.dumps(report.as_dict()) == json.dumps(expected)  # key order too

    @pytest.mark.parametrize("L", [
        PicardClass(3, (2, 2, 0, 0, 0, 0, 0, -3)),  # not nef, effective
        PicardClass(5, (2,) * 8),  # not effective
        PicardClass(6, (2,) * 7),  # -2K at r = 7: nef, but not 3-very ample
    ])
    def test_records_survive_pickle_and_deepcopy(self, L):
        # each record, built by the package and by its public constructor,
        # keeps exactly its dataclass fields in slots, a certificate's total
        # included, and no instance dict
        report = is_k_very_ample(L, 3)
        assert report.violations
        records = [L]
        for rep in (report, public_report(report)):
            cert = rep.certificate
            records += [rep, rep.subject, *rep.violations, *([cert, cert.terminal, cert.total] if cert else [])]
        for record in records:
            assert type(record).__slots__ == tuple(f.name for f in dataclasses.fields(record))
            twins = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
            for twin in twins + [copy.deepcopy(record)]:
                assert type(twin) is type(record) and slot_values(twin) == slot_values(record)
                assert twin == record and hash(twin) == hash(record)
        assert json.dumps(pickle.loads(pickle.dumps(report)).as_dict()) == json.dumps(report.as_dict())

    def test_certificate_sum_is_kept_out_of_its_identity(self):
        # the sum a certificate takes when it is built is no part of ==,
        # hash, repr or as_dict, and survives pickling and copying
        L = PicardClass(7, (-12, -12))
        _, cert = is_effective(L)
        assert len(cert.subtracted) == 24 and cert.total == L
        assert [f.name for f in dataclasses.fields(cert) if f.compare] == ["subtracted", "terminal"]
        twin = copy.copy(cert)
        object.__setattr__(twin, "total", PicardClass(0, (0, 0)))
        assert twin == cert and hash(twin) == hash(cert) and repr(twin) == repr(cert)
        assert "total" not in repr(cert) and json.dumps(twin.as_dict()) == json.dumps(cert.as_dict())
        twins = [pickle.loads(pickle.dumps(cert, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins + [copy.deepcopy(cert)]:
            assert slot_values(twin) == slot_values(cert) and twin.replay() == L

    def test_records_hold_tuples(self):
        E, T = enumerate_exceptional(2)[0], PicardClass(1, (0, 0))
        cert = EffectivityCertificate(((E, 2),), T)
        for runs in ([(E, 2)], (run for run in [(E, 2)]), [[E, 2]], [(E, np.int64(2))], ((E, 2),)):
            built = EffectivityCertificate(runs, T)
            assert type(built.subtracted) is tuple and built == cert and hash(built) == hash(cert)
            assert [(type(run), type(run[1])) for run in built.subtracted] == [(tuple, int)]
        # each multiplicity passes operator.index: True is 1, a float is refused
        flag = EffectivityCertificate([(E, True)], T)
        assert type(flag.subtracted[0][1]) is int and flag == EffectivityCertificate(((E, 1),), T)
        with pytest.raises(TypeError):
            EffectivityCertificate([(E, 2.5)], T)
        report = is_k_very_ample(PicardClass(1, (2, 0)), 1)
        assert report.violations
        for violations in (list(report.violations), iter(report.violations)):
            built = dataclasses.replace(report, violations=violations)
            assert type(built.violations) is tuple and built == report and hash(built) == hash(report)
        assert dataclasses.replace(report, k=report.k).violations is report.violations

    def test_replace_sums_the_certificate_again(self):
        _, cert = is_effective(PicardClass(7, (-12, -12)))
        moved = dataclasses.replace(cert, terminal=PicardClass(8, (0, 0)))
        assert moved.subtracted == cert.subtracted and moved.replay() == PicardClass(8, (-12, -12))
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(cert, total=PicardClass(0, (0, 0)))
        with pytest.raises(LatticeMismatchError):
            dataclasses.replace(cert, terminal=PicardClass(0, (0, 0, 0)))

    def test_replace_runs_the_checks(self):
        L = PicardClass(3, (1, 1))
        M = dataclasses.replace(L, a=np.int64(5))
        assert type(M.a) is int and M == PicardClass(5, (1, 1))
        with pytest.raises(TypeError):
            dataclasses.replace(L, b=(1.5, 1))
        report = is_k_very_ample(-2 * canonical_class(6), 1)
        assert report.k_very_ample and report.big and report.minimum == 2
        assert dataclasses.replace(report, minimum=2) == report
        # a class with minimum >= 1 is ample, so its degree is positive
        with pytest.raises(ValueError, match="very ample needs degree > 0, got degree=0"):
            dataclasses.replace(report, degree=0)
        with pytest.raises(ValueError, match="minimum=1 makes it ample"):
            dataclasses.replace(report, minimum=1, degree=-3)
        # a verdict is no field: it cannot be replaced, only read off
        for verdict in ("effective", "nef", "big", "spanned", "k_very_ample"):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                dataclasses.replace(report, **{verdict: False})
        flat = is_k_very_ample(PicardClass(3, (2, 2, 0, 0, 0, 0, 0, -3)), 1)
        assert not flat.nef and flat.effective and flat.degree <= 0
        # at minimum 0 a non-positive degree is no contradiction: nef, not big
        zero = dataclasses.replace(flat, minimum=0)
        assert zero.nef and not zero.big and not zero.k_very_ample
        blocked = is_k_very_ample(PicardClass(5, (2,) * 8), 1)
        assert not blocked.effective and blocked.certificate is None
        assert dataclasses.replace(blocked, certificate=flat.certificate).effective

    @pytest.mark.parametrize("L,k", [
        (-2 * canonical_class(6), 1),  # nef, big, k-very ample
        (-2 * canonical_class(8), 1),  # flagged minus_k1K_S8
        (PicardClass(3, (2, 2, 0, 0, 0, 0, 0, -3)), 2),  # not nef, effective
        (PicardClass(5, (2,) * 8), 0),  # not effective
        (PicardClass(7, (2,)), 3),  # rank 1
    ])
    def test_verdicts_move_with_the_minimum(self, L, k):
        # each verdict is its rule read off the stored numbers
        report = is_k_very_ample(L, k)
        assert report.minimum == minimum_pairing(L)
        for m in sorted({-1, 0, k - 1, k}):
            if m >= 1 and report.degree <= 0:
                # an ample class has a positive degree
                with pytest.raises(ValueError, match="very ample needs degree > 0"):
                    dataclasses.replace(report, minimum=m)
                continue
            moved = dataclasses.replace(report, minimum=m)
            assert moved.minimum == m and moved.k == k
            assert moved.nef == moved.spanned == (m >= 0)
            assert moved.big == (m >= 0 and report.degree > 0)
            assert moved.k_very_ample == (m >= k and report.exception_flag == EXCEPTION_NONE)
            assert moved.effective == (report.certificate is not None)

    def test_report_keeps_its_numbers_and_no_verdict(self):
        assert [f.name for f in dataclasses.fields(PositivityReport)] == [
            "subject", "k", "minimum", "degree", "genus", "violations", "exception_flag", "certificate",
        ]
        report = is_k_very_ample(PicardClass(3, (2, 2, 0, 0, 0, 0, 0, -3)), 1)
        for verdict in ("effective", "nef", "big", "spanned", "k_very_ample"):
            assert isinstance(getattr(PositivityReport, verdict), property)
            # a verdict has no slot to write
            before = getattr(report, verdict)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, verdict, not before)
            assert getattr(report, verdict) is before
        assert "minimum" not in report.as_dict()
        # every slotted record refuses to set or delete any name, a field or not
        cert = report.certificate
        for record in (report, report.subject, report.violations[0], cert, cert.terminal):
            for name in (dataclasses.fields(record)[0].name, "total", "foo"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(record, name)
            assert not hasattr(record, "foo") and not hasattr(record, "__dict__")

    def test_report_checks_hold_under_optimize(self):
        # python -O strips assert statements, not the records' checks
        code = (
            "import dataclasses\n"
            "from delpezzo.enumeration import NullClassRecord, surface_context\n"
            "from delpezzo.lattice import PicardClass, canonical_class\n"
            "from delpezzo.positivity import EffectivityCertificate, is_effective, is_k_very_ample\n"
            "from delpezzo.reider import ObstructionWitness, search_obstructions\n"
            "report = is_k_very_ample(-2 * canonical_class(6), 1)\n"
            "D = PicardClass(2, (0, 0, 0))\n"
            "outcome = search_obstructions(-canonical_class(8), 1)\n"
            "witnesses = search_obstructions(PicardClass(3, (2, 2)), 1).witnesses\n"
            "for build in [\n"
            "    lambda: dataclasses.replace(report, degree=0),\n"
            "    lambda: ObstructionWitness(D, D, 0, is_effective(D)[1]),\n"
            "    lambda: dataclasses.replace(outcome, witnesses=witnesses),\n"
            "    lambda: NullClassRecord(PicardClass(1, (0, 0, 0)), ()),\n"
            "    lambda: EffectivityCertificate(((PicardClass(0, (-1, 0, 0)), 1),), PicardClass(0, (0, 0))),\n"
            "    lambda: EffectivityCertificate((), PicardClass(0, (1, 0))),\n"
            "    lambda: dataclasses.replace(outcome, reason=None),\n"
            "]:\n"
            "    try:\n"
            "        build()\n"
            "    except ValueError as exc:\n"
            "        print('refused:', exc)\n"
        )
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "refused: report on 6;2,2,2,2,2,2: minimum=2 makes it ample, and ample or very ample needs "
            "degree > 0, got degree=0",
            "refused: witness 2;0,0,0: M.D = 4, D.D = 4 lies outside the window at k = 0",
            "refused: search on 3;1,1,1,1,1,1,1,1: an inapplicable outcome has no witnesses and no candidates",
            "refused: 1;0,0,0 is not a null class: D.D = 0 and K.D = -2 needed",
            "refused: rank mismatch: 3 vs 2",
            "refused: certificate ends at 0;1,0, which is not nef",
            "refused: search on 3;1,1,1,1,1,1,1,1: reason None, but the premise gives 'M.M = 4 < 9'",
        ]


class TestVerdictsBuildNoPairingVector:
    """The verdicts, effectivity included, are read off the folded
    inequalities, and every report, certificate and minimum pairing matches
    the reference.  That they build no pairing array is a rule of the
    source: positivity imports neither numpy nor bulk
    (test_numpy_stays_behind_bulk in test_source_rules)."""

    @given(ranked(nef_classes), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_nef_report(self, L, k):
        assert is_k_very_ample(L, k).as_dict() == ref_report(L, k)

    @given(any_class | ranked(exceptional_multiples), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_effectivity_and_report(self, L, k):
        # mostly classes that are not nef, effective or not
        assert is_effective(L) == ref_is_effective(L)
        assert is_k_very_ample(L, k).as_dict() == ref_report(L, k)

    @given(any_class)
    @settings(max_examples=200, deadline=None)
    def test_minimum_pairing(self, L):
        assert minimum_pairing(L) == ref_minimum_pairing(L)


class TestPairingCore:
    def test_matrices_match_intersect(self, ctx):
        curves = ctx.test_curves
        assert curves == ref_test_curves(ctx.r)
        L = PicardClass(7, tuple(range(ctx.r)))
        assert (np.array([L.a, *L.b]) @ bulk.curve_operand(ctx.r)).tolist() == [intersect(L, x) for x in curves]
        # the sweep's premise: M = L + (-K) is nef whenever L is
        anticanonical = -canonical_class(ctx.r)
        assert min(intersect(anticanonical, x) for x in curves) >= 1

    def test_cached_arrays_are_read_only(self, ctx):
        with pytest.raises(ValueError):
            bulk.curve_operand(ctx.r)[0] = 0

    def test_orbits_follow_the_families(self, ctx):
        fams = generate_inequality_families(ctx.r)
        assert [fam.source_type for fam in fams] == [pat for pat, _ in ref_curve_orbits(ctx.r)]
        # independently of the orbits: the exceptional types, and the fiber at rank 1
        expected = [pat for pat, _ in exceptional_type_census(ctx.r).counts]
        if ctx.r == 1:
            expected.append(type_pattern(fiber_class()))
        assert [fam.source_type for fam in fams] == sorted(expected, key=lambda pat: pat.sort_key())

    @given(any_class)
    @settings(max_examples=200, deadline=None)
    def test_orbit_minimum_is_the_family_value(self, L):
        P = [intersect(L, x) for x in surface_context(L.r).test_curves]
        fams = generate_inequality_families(L.r)
        values = _family_values(L)
        orbits = ref_curve_orbits(L.r)
        assert len(values) == len(fams) == len(orbits)
        for fam, (pat, idx), value in zip(fams, orbits, values):
            assert fam.source_type == pat
            assert min(P[i] for i in idx) == fam.evaluate(L) == value
            assert type(value) is int

    def test_families_cached_on_rank_alone(self, ctx):
        # a context of the rank is taken without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert generate_inequality_families(ctx.r, ctx) is generate_inequality_families(ctx.r)

    def test_context_of_another_rank_is_refused(self):
        with pytest.raises(LatticeMismatchError, match="rank 2 does not match r=3"):
            generate_inequality_families(3, surface_context(2))


# a coefficient: small, or past 2**63 either way
kernel_coeff = small | st.integers(2**63, 2**80) | st.integers(-(2**80), -(2**63))


class TestFoldKernel:
    """The compiled kernel behind ``_fold_values``, the rearrangement sum
    read off the representatives it was compiled from, and each orbit's
    smallest pairing by ``intersect`` agree exactly at every rank."""

    @pytest.mark.parametrize("r", range(1, 9))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_kernel_folds_and_closed_forms_agree(self, r, data):
        a = data.draw(kernel_coeff)
        desc = sorted(data.draw(st.lists(kernel_coeff, min_size=r, max_size=r)), reverse=True)
        rearranged = [e0 * a - sum(map(operator.mul, c, desc)) for e0, *c in positivity._family_table(r).reps]
        L = PicardClass(a, tuple(data.draw(st.permutations(desc))))
        curves = surface_context(r).test_curves
        orbit_minima = [min(intersect(L, curves[i]) for i in idx) for _, idx in ref_curve_orbits(r)]
        values = positivity._fold_values(a, desc)
        assert values == rearranged == orbit_minima
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_every_representative_needs_at_most_two_prefix_sums(self, r):
        # Abel summation: with c padded by a trailing 0, S_j weighs c_j - c_{j+1}
        weights = []
        for _, *c in positivity._family_table(r).reps:
            c.append(0)
            weights.append(sum(c[j - 1] != c[j] for j in range(1, r + 1)))
        assert max(weights) <= 2
        if r == 8:  # 6a - S_1 - 2 S_8 for (6; 3, 2^7)
            assert positivity._family_table(8).reps[-1] == (6, 3, *[2] * 7) and weights[-1] == 2

    def test_table_builds_no_array(self):
        # positivity imports neither numpy nor bulk (test_numpy_stays_behind_bulk),
        # so a freshly built table can hold Python integers only
        positivity._family_table.cache_clear()
        tables = [positivity._family_table(r) for r in range(1, 9)]
        for r, table in enumerate(tables, 1):
            assert table._fields == ("families", "reps", "labels", "kernel")
            assert all(type(x) is int for rep in table.reps for x in rep) and len(table.reps[0]) == r + 1

    @pytest.mark.parametrize("width", [0, 9])
    def test_no_kernel_outside_ranks_1_to_8(self, width):
        with pytest.raises(RankError):
            positivity._fold_values(1, [0] * width)


@pytest.mark.parametrize(
    "check",
    [
        is_effective,
        lambda L, ctx: is_k_very_ample(L, 1, ctx),
        lambda L, ctx: search_obstructions(L, 1, ctx),
        # a truncating zip read (3; 1, 1) against every family of rank 3
        lambda L, ctx: [fam.evaluate(L) for fam in generate_inequality_families(ctx.r)],
        lambda L, ctx: pairing_matrix([[L.a, *L.b]], ctx.r),
    ],
    ids=["is_effective", "is_k_very_ample", "search_obstructions", "InequalityFamily.evaluate", "pairing_matrix"],
)
def test_foreign_rank_class_is_a_lattice_mismatch(check):
    with pytest.raises(LatticeMismatchError):
        check(PicardClass(3, (1, 1)), surface_context(3))


# the public functions that take no context, each with a call its class
# decides alone; passing them one, even None, is a TypeError
CONTEXT_FREE_CALLS = {
    "minimum_pairing": (minimum_pairing, (PicardClass(3, (1, 1)),)),
    "is_nef": (is_nef, (PicardClass(3, (1, 1)),)),
    "is_spanned": (is_spanned, (PicardClass(3, (1, 1)),)),
    "is_big": (is_big, (PicardClass(3, (1, 1)),)),
    "exception_flag": (exception_flag, (-canonical_class(7), 1)),
    "adjoint_report": (adjoint_report, (PicardClass(7, (2, 2)), 2)),
    "adjoint_kva_check": (adjoint_kva_check, (PicardClass(6, (2, 2)), 1)),
    "degree_bound_check": (degree_bound_check, (PicardClass(7, (2, 2)), 2)),
    "window_applicable": (window_applicable, (PicardClass(3, (1, 1)), 1)),
    "decompose_null_class": (decompose_null_class, (PicardClass(1, (1, 0)),)),
}


@pytest.mark.parametrize("name", CONTEXT_FREE_CALLS)
def test_context_free_function_refuses_a_context(name):
    fn, args = CONTEXT_FREE_CALLS[name]
    assert getattr(sys.modules[fn.__module__], name) is fn
    fn(*args)  # its class alone decides it
    for ctx in (surface_context(args[0].r), None):
        with pytest.raises(TypeError):
            fn(*args, ctx)
        with pytest.raises(TypeError):
            fn(*args, ctx=ctx)


def read_off(ctx):
    """The answers of the public functions that take no context, read off
    the classes a context holds (its test curves, canonical class and
    exceptional set) instead of the package's own tables."""
    def least(M):
        return min(intersect(M, x) for x in ctx.test_curves)

    def window(M, k):
        N = M - ctx.canonical
        return least(N) >= 0 and degree(N) >= 4 * k + 5, N, degree(N)

    def flag(M, k):
        K = ctx.canonical
        if ctx.r == 8 and M == -k * K:
            return "minus_kK_S8"
        if ctx.r == 8 and M == -(k + 1) * K:
            return "minus_k1K_S8"
        return "minus_K_S7_k1" if ctx.r == 7 and k == 1 and M == -K else EXCEPTION_NONE

    def null_pairs(D):
        exc = set(ctx.exceptional_set)
        pairs = {tuple(sorted((xi, D - xi), key=PicardClass.sort_key)) for xi in exc if D - xi in exc}
        return tuple(sorted(pairs, key=lambda p: (p[0].sort_key(), p[1].sort_key())))

    return {
        "minimum_pairing": least,
        "is_nef": lambda M: least(M) >= 0,
        "is_spanned": lambda M: least(M) >= 0,
        "is_big": lambda M: least(M) >= 0 and degree(M) > 0,
        "exception_flag": flag,
        "window_applicable": window,
        "adjoint_report": lambda M, k: is_k_very_ample(M + ctx.canonical, k - 1),
        "adjoint_kva_check": lambda M, k: is_k_very_ample(M + ctx.canonical, k - 1).k_very_ample,
        "degree_bound_check": lambda M, k: degree(M) >= k * k + 3 * k + 2,
        "decompose_null_class": null_pairs,
    }


def context_calls():
    """(id, r, call) for every public function at the classes of ranks 1,
    2, 7 and 8 below, at levels where each function has something to decide.
    A function that takes a context gets the call's context.  One that takes
    none runs on its class alone when the call has no context, and with a
    context the call returns that answer read off the context (``read_off``).
    The id is the function's name, the rank and the arguments besides the
    context, so that no id depends on another entry."""
    classes = {
        # a class with something to refuse or flag, then a 1- and a 2-very ample one
        1: [PicardClass(2, (-3,)), PicardClass(5, (2,)), PicardClass(7, (2,))],  # b_1 < 0
        2: [PicardClass(3, (2, 2)), PicardClass(6, (2, 2)), PicardClass(7, (2, 2))],
        7: [-canonical_class(7), -2 * canonical_class(7), -3 * canonical_class(7)],  # flagged at k = 1
        8: [PicardClass(3, (2, 2, 0, 0, 0, 0, 0, -3)), -3 * canonical_class(8), -4 * canonical_class(8)],
    }
    null = {1: PicardClass(1, (1,)), 2: PicardClass(1, (1, 0)), 7: PicardClass(2, (1, 1, 1, 1, 0, 0, 0)),
            8: PicardClass(2, (1, 1, 1, 1, 0, 0, 0, 0))}

    def ident(fn, r, args):
        words = [x.render() if isinstance(x, PicardClass) else str(x) for x in args]
        return "-".join([fn.__name__, f"r{r}", *words])

    def case(fn, r, *args):
        """A function that takes a context: ``fn(*args, ctx)``."""
        return ident(fn, r, args), r, lambda ctx: fn(*args, ctx)

    def free(r, fn, *args):
        return ident(fn, r, args), r, lambda ctx: fn(*args) if ctx is None else read_off(ctx)[fn.__name__](*args)

    calls = []
    for r, (L, kva1, kva2) in classes.items():
        for fn in (minimum_pairing, is_nef, is_spanned, is_big):
            calls += [free(r, fn, M) for M in (L, kva1)]
        calls += [case(is_effective, r, M) for M in (L, kva1)]
        for k in (1, 2):
            calls += [free(r, exception_flag, M, k) for M in (L, kva1, kva2)]
            calls += [case(is_k_very_ample, r, M, k) for M in (L, kva1, kva2)]
            calls += [free(r, window_applicable, M, k) for M in (L, kva1, kva2)]
        calls += [
            free(r, adjoint_report, kva2, 2),
            free(r, adjoint_kva_check, kva1, 1),
            free(r, degree_bound_check, kva2, 2),
            case(search_obstructions, r, L, 1),
            free(r, decompose_null_class, null[r]),
            case(consistency_sweep, r, r, 1, 4),
            case(generate_inequality_families, r, r),
        ]
    calls += [
        case(search_obstructions, 8, -2 * canonical_class(8), 1),
        case(consistency_sweep, 3, 3, 1, 6),
    ]
    return calls


def payload(out):
    """JSON of a result: ``as_dict()`` where there is one, a class rendered."""
    def plain(x):
        if hasattr(x, "as_dict"):
            return x.as_dict()
        if isinstance(x, PicardClass):
            return x.render()
        if isinstance(x, (tuple, list)):
            return [plain(y) for y in x]
        return repr(x) if isinstance(x, positivity.InequalityFamily) else x

    return json.dumps(plain(out))


CONTEXT_CALLS = context_calls()


@pytest.mark.parametrize("r,call", [(r, call) for _, r, call in CONTEXT_CALLS],
                         ids=[ident for ident, _, _ in CONTEXT_CALLS])
def test_every_context_of_the_rank_gives_the_same_result(r, call):
    # no context, the cached one and a freshly built one are the same surface:
    # a function that takes no context answers as each context's classes do
    contexts = (None, surface_context(r), SurfaceContext(r))
    results = [payload(call(ctx)) for ctx in contexts]
    assert results[0] == results[1] == results[2]


MINUS_3K_R3 = PicardClass(9, (3, 3, 3))  # pairs 3 with every test curve


@pytest.mark.parametrize(
    "call,least",
    [
        (lambda k: is_k_very_ample(MINUS_3K_R3, k), 0),
        (lambda k: search_obstructions(MINUS_3K_R3, k), 0),
        (lambda k: window_applicable(MINUS_3K_R3, k)[::2], 0),
        (lambda k: consistency_sweep(3, k, 6), 0),
        (lambda k: f1_is_k_very_ample(3, 6, k), 0),
        (lambda k: adjoint_kva_check(MINUS_3K_R3, k), 1),
        (lambda k: degree_bound_check(MINUS_3K_R3, k), 2),
    ],
    ids=["is_k_very_ample", "search_obstructions", "window_applicable", "consistency_sweep",
         "f1_is_k_very_ample", "adjoint_kva_check", "degree_bound_check"],
)
def test_level_k_is_a_checked_plain_int(call, least):
    # a numpy integer k is the int itself, down to the JSON; a float is no level
    def payload(out):
        return json.dumps(out.as_dict() if hasattr(out, "as_dict") else out)

    assert payload(call(np.int64(2))) == payload(call(2))
    with pytest.raises(TypeError):
        call(2.0)
    with pytest.raises(ValueError, match=f"k must be >= {least}, got {least - 1}$"):
        call(np.int64(least - 1))


@pytest.mark.parametrize("a0,b", [(2.5, 5), (2, 5.0)])
def test_f1_coordinates_are_plain_ints(a0, b):
    # numpy integers are the ints themselves; a float is no coordinate
    assert f1_is_k_very_ample(np.int64(2), np.int64(5), 2) is f1_is_k_very_ample(2, 5, 2) is True
    with pytest.raises(TypeError):
        f1_is_k_very_ample(a0, b, 2)


@pytest.mark.parametrize(
    "call",
    [lambda r: consistency_sweep(r, 1, 6), surface_context, canonical_class],
    ids=["consistency_sweep", "surface_context", "canonical_class"],
)
def test_rank_is_a_checked_plain_int(call):
    # a numpy integer rank is the int itself; a float is no rank
    got = call(np.int64(3))
    assert got == call(3)
    assert type(got.r) is int
    with pytest.raises(RankError):
        call(3.0)


@st.composite
def int64_blocks(draw):
    """(r, rows): up to six class rows with every entry within
    SAFE_COEFF_BOUND, the bounds themselves drawn often."""
    r = draw(st.integers(1, 8))
    corner = st.sampled_from([-SAFE_COEFF_BOUND, SAFE_COEFF_BOUND, 1 - SAFE_COEFF_BOUND, SAFE_COEFF_BOUND - 1])
    entry = corner | st.integers(-SAFE_COEFF_BOUND, SAFE_COEFF_BOUND) | st.integers(-3, 3)
    return r, draw(st.lists(st.lists(entry, min_size=r + 1, max_size=r + 1), min_size=1, max_size=6))


class TestFloatRoute:
    """int64 rows are paired through float64 BLAS and the product stays
    float64; every entry must be an integer equal to the product on Python
    integers."""

    @given(int64_blocks())
    @settings(max_examples=300, deadline=None)
    def test_pairing_matrix_equals_the_exact_product(self, block):
        r, rows = block
        got = pairing_matrix(np.array(rows, dtype=np.int64), r)
        operand = bulk.curve_operand(r)
        assert operand.dtype == np.float64  # the float route runs
        assert got.dtype == np.float64 and (got == np.rint(got)).all()
        assert got.tolist() == (np.array(rows, dtype=object) @ operand.astype(np.int64).astype(object)).tolist()

    @pytest.mark.parametrize("r", range(1, 9))
    def test_pairing_matrix_at_every_corner(self, r):
        # all 2**(r+1) sign patterns of (a; b) at +-SAFE_COEFF_BOUND
        rows = [list(signs) for signs in itertools.product((-SAFE_COEFF_BOUND, SAFE_COEFF_BOUND), repeat=r + 1)]
        got = pairing_matrix(rows, r)
        assert got.dtype == np.float64 and (got == np.rint(got)).all()
        assert got.tolist() == [[intersect(PicardClass(a, tuple(b)), x) for x in surface_context(r).test_curves]
                                for a, *b in rows]

    @pytest.mark.parametrize("rows,cols", [(1000, 240), (5, 20_000), (0, 7), (60, 240)])
    def test_products_in_row_chunks_cover_every_entry(self, rows, cols):
        # tall products and products wider than one chunk are split by rows;
        # a product that fits one chunk is a single one
        rng = np.random.default_rng(rows + cols)
        A = rng.integers(-SAFE_COEFF_BOUND, SAFE_COEFF_BOUND + 1, size=(rows, 9))
        B = rng.integers(-6, 7, size=(9, cols))
        got = exact_product(A, float_operand(B))
        assert got.dtype == np.float64 and (got == np.rint(got)).all()
        assert got.tolist() == (A.astype(object) @ B).tolist()

    def test_operand_past_the_bound_takes_the_exact_path(self):
        # 2**53 + 1 is no float64: a float product would return 2**53
        B = np.array([[2**53 + 1], [1]], dtype=np.int64)
        assert float_operand(B) is B
        A = np.array([[1, 0], [SAFE_COEFF_BOUND, -3]], dtype=np.int64)
        got = exact_product(A, float_operand(B))
        assert got.dtype == object
        assert got.tolist() == [[2**53 + 1], [SAFE_COEFF_BOUND * (2**53 + 1) - 3]]

    def test_bound_is_checked_on_the_largest_partial_sum(self):
        # n rows of B against entries below 2 * SAFE_COEFF_BOUND
        for n in (1, 9):
            largest = (FLOAT_EXACT_BOUND - 1) // (n * 2 * SAFE_COEFF_BOUND)
            B = np.full((n, 3), -largest, dtype=np.int64)
            assert float_operand(B).dtype == np.float64
            B[-1, 0] = -(largest + 1)
            assert float_operand(B).dtype == np.int64

    def test_object_rows_against_a_float_operand(self):
        row = np.array([[2**70 + 3] + [2**70] * 8], dtype=object)
        got = exact_product(row, bulk.curve_operand(8))
        assert got.dtype == object
        L = PicardClass(2**70 + 3, (2**70,) * 8)
        assert got.tolist() == [[intersect(L, x) for x in surface_context(8).test_curves]]


class TestMalformedBulkRows:
    """The bulk entry points take a 2-D block of rows of width r + 1 and
    refuse anything else instead of misreading it."""

    @pytest.mark.parametrize("coeffs", [[1, 0], np.array([1, 0]), [[[1, 0]]], 5],
                             ids=["list", "vector", "3-D", "scalar"])
    def test_only_a_2d_block_is_rows(self, coeffs):
        # pairing_matrix([1, 0], 1) read the one class (1; 0) as two rows
        for call in (exact_rows, minimum_family_value_bulk, lambda x: pairing_matrix(x, 1)):
            with pytest.raises(ValueError, match="2-D block"):
                call(coeffs)

    @pytest.mark.parametrize("coeffs", [
        np.array([[3, 1.5, 1]], dtype=object), [[3, Fraction(3, 2), 1]], [[2**63, -1.0]],
    ], ids=["object-float", "fraction", "float-past-int64"])
    def test_non_integer_entries_are_refused(self, coeffs):
        # the first two were truncated to the row (3; 1, 1)
        for call in (exact_rows, minimum_family_value_bulk, lambda x: pairing_matrix(x, 2)):
            with pytest.raises(TypeError, match="must be integers"):
                call(coeffs)

    @pytest.mark.parametrize("coeffs", [
        [[2**63, -1]], [[10**20, -1]], [[np.int64(2**62), np.uint8(7), 2**70]],
        np.array([[5, -3, 2]], dtype=np.int64), np.array([[2**63, 3, 1]], dtype=np.uint64),
        np.array([[5, 3, 1]], dtype=np.uint64),
    ], ids=["past-int64", "1e20", "numpy-ints-past-int64", "int64", "uint64-past-int64", "uint64"])
    def test_integer_blocks_stay_exact(self, coeffs):
        # numpy integers in a list past int64 become Python ints, not int64 that overflow
        a, *b = (int(x) for x in np.array(coeffs, dtype=object).flat)
        L = PicardClass(a, tuple(b))
        rows = exact_rows(coeffs)
        int64_safe = all(abs(x) <= SAFE_COEFF_BOUND for x in (a, *b))
        assert rows.tolist() == [[a, *b]] and (rows.dtype == np.int64) == int64_safe
        if rows.dtype == object:
            assert all(type(x) is int for x in rows.flat)
        assert pairing_matrix(coeffs, L.r).tolist() == [[intersect(L, x) for x in surface_context(L.r).test_curves]]
        assert minimum_family_value_bulk(coeffs).tolist() == [minimum_pairing(L)]

    @pytest.mark.parametrize("width", [1, 10])
    def test_the_fold_reads_the_rank_off_the_width(self, width):
        with pytest.raises(RankError):
            minimum_family_value_bulk(np.zeros((2, width), dtype=np.int64))


class TestExactBeyondInt64Bound:
    def test_bulk_minimum_does_not_wrap(self):
        row = np.array([[2 * 10**18, 10**18] + [0] * 7], dtype=np.int64)
        assert pairing_matrix(row, 8).min(axis=1).tolist() == [0]
        assert minimum_family_value_bulk(row).tolist() == [0]

    @pytest.mark.parametrize("scale", [10**6, 10**6 + 1, 2**40, 10**18, 10**30])
    def test_bulk_rows_match_plain_integers(self, scale):
        rng = np.random.default_rng(scale % 1000)
        for r in (1, 3, 8):
            rows = [[int(x) * scale + int(y) for x, y in zip(rng.integers(-3, 4, r + 1), rng.integers(-9, 10, r + 1))]
                    for _ in range(20)]
            classes = [PicardClass(row[0], tuple(row[1:])) for row in rows]
            coeffs = np.array(rows, dtype=object)
            expected = [[intersect(L, x) for x in surface_context(r).test_curves] for L in classes]
            assert pairing_matrix(coeffs, r).tolist() == expected
            assert minimum_family_value_bulk(coeffs).tolist() == [min(p) for p in expected]

    def test_scalar_paths_at_scale_1e30(self):
        for r in (1, 2, 7, 8):
            L = PicardClass(3 * 10**30 + 5, (10**30 + 1,) + (10**30 - 2,) * (r - 1))
            assert minimum_pairing(L) == ref_minimum_pairing(L)
            assert is_k_very_ample(L, 1).as_dict() == ref_report(L, 1)

    def test_bulk_refuses_non_integer_rows(self):
        with pytest.raises(TypeError):
            pairing_matrix(np.array([[1.5, 0.0]]), 1)
        with pytest.raises(TypeError, match="must be integers"):
            pairing_matrix([[1.5, 0]], 1)
        with pytest.raises(TypeError, match="must be integers"):
            pairing_matrix([[2**63, -1.0]], 1)

    def test_bulk_list_past_int64_stays_exact(self):
        # a plain np.array widens [2**63, -1] to float64
        assert pairing_matrix([[2**63, -1]], 1).tolist() == [[-1, 2**63 + 1]]

    def test_window_mask_does_not_wrap(self):
        # M = L - K = (2^62 + 3; 1^8): an (4; 2^3, 1^5) candidate D has
        # M.D = 2^64 + 1, which int64 wraps to 1 and would put D in the window.
        # At M = (2^63; 1^8) the row (2^63, -1, ...) fits neither int64 nor
        # uint64, and a plain np.array would widen it to float.
        for a in (2**62, 2**63 - 3):
            outcome = search_obstructions(PicardClass(a, (0,) * 8), 1)
            assert outcome.applicable
            assert {w.D for w in outcome.witnesses} == {point_class(8, i) for i in range(1, 9)}
            assert all(w.MD == 1 for w in outcome.witnesses)


# ---------------------------------------------------------------------------
# The closed form: exhaustively and on Zariski-shaped sums against the
# greedy, and against the decomposition itself where the greedy cannot go.


def assert_zariski_certificate(L, result):
    """The certificate of an effective L checked from the mathematics, not
    from the greedy: it replays to L, every subtracted class is exceptional
    (E.E = K.E = -1), the subtracted classes are pairwise disjoint, each
    E with L.E < 0 is subtracted exactly -L.E times in total and no other
    class is, and the terminal is nef."""
    effective, cert = result
    assert effective
    replayed = cert.terminal
    for E, mult in cert.subtracted:
        replayed = replayed + mult * E
    assert cert.replay() == replayed == L
    K = canonical_class(L.r)
    totals = {}
    for E, mult in cert.subtracted:
        assert intersect(E, E) == -1 and intersect(K, E) == -1
        assert mult >= 1
        totals[E] = totals.get(E, 0) + mult
    for E, F in itertools.combinations(totals, 2):
        assert intersect(E, F) == 0
    negative = {E: -intersect(L, E) for E in enumerate_exceptional(L.r) if intersect(L, E) < 0}
    assert totals == negative
    assert ref_minimum_pairing(cert.terminal) >= 0


@st.composite
def zariski_sums(draw, r, meeting=False, huge=False):
    """T + sum of n_E * E: T a permuted nef box leaf, the E a pairwise
    disjoint set of exceptional classes, n_E in 1..12 and often equal, so
    that the greedy's tie-break by first index is exercised.  With
    ``meeting``, one more exceptional class that meets one of the E is
    subtracted, which usually leaves no effective class.  With ``huge``,
    the first E gets up to 10**30 more."""
    ctx = surface_context(r)
    a, *b = draw(st.sampled_from(nef_leaves(r)))
    L = PicardClass(a, tuple(draw(st.permutations(b))))
    disjoint = []
    for E in draw(st.lists(st.sampled_from(ctx.exceptional_set), min_size=1, max_size=r)):
        if all(intersect(E, F) == 0 for F in disjoint):  # E.E = -1 keeps out repeats
            disjoint.append(E)
    shared = draw(st.integers(1, 12))
    for E in disjoint:
        L = L + draw(st.just(shared) | st.integers(1, 12)) * E
    if huge:
        L = L + draw(st.integers(1, 10**30) | st.sampled_from([10**7, 2**63, 10**30])) * disjoint[0]
    if meeting:
        F = draw(st.sampled_from([F for F in ctx.exceptional_set if any(intersect(E, F) > 0 for E in disjoint)]))
        L = L - draw(st.integers(1, 12)) * F
    return L


class TestClosedForm:
    # the r = 4 box holds every way a class past the early reject fails:
    # more than r negative curves, negative curves that meet, and disjoint
    # negative curves with a positive part that is not nef
    @pytest.mark.parametrize(
        "r,a_range,b_range",
        [(2, range(0, 9), range(-8, 9)), (3, range(0, 9), range(-8, 9)), (4, range(0, 7), range(-3, 6))],
        ids=["2", "3", "4"],
    )
    def test_equals_the_greedy_on_a_whole_box(self, r, a_range, b_range):
        for a in a_range:
            for b in itertools.product(b_range, repeat=r):
                L = PicardClass(a, b)
                assert is_effective(L) == ref_is_effective(L), L

    @given(st.integers(2, 8).flatmap(zariski_sums))
    @settings(max_examples=100, deadline=None)
    def test_zariski_sums_equal_the_greedy(self, L):
        got = is_effective(L)
        assert got == ref_is_effective(L)
        assert_zariski_certificate(L, got)

    @given(st.integers(2, 8).flatmap(lambda r: zariski_sums(r, meeting=True)))
    @settings(max_examples=100, deadline=None)
    def test_sums_less_a_meeting_class_equal_the_greedy(self, L):
        got = is_effective(L)
        assert got == ref_is_effective(L)
        if got[0]:
            assert_zariski_certificate(L, got)


# Eight pairwise disjoint exceptional curves at rank 8, none of them a point.
DISJOINT_NON_POINT_R8 = (
    PicardClass(1, (0, 0, 0, 0, 0, 0, 1, 1)), PicardClass(1, (0, 0, 0, 0, 0, 1, 0, 1)),
    PicardClass(1, (0, 0, 0, 0, 0, 1, 1, 0)), PicardClass(2, (0, 0, 0, 1, 1, 1, 1, 1)),
    PicardClass(2, (0, 0, 1, 0, 1, 1, 1, 1)), PicardClass(2, (0, 1, 0, 0, 1, 1, 1, 1)),
    PicardClass(2, (1, 0, 0, 0, 1, 1, 1, 1)), PicardClass(4, (1, 1, 1, 1, 1, 2, 2, 2)),
)


def fold_passes(L):
    """``is_effective(L)`` and the number of fold passes it took."""
    calls = []
    fold = positivity._fold_values
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(positivity, "_fold_values", lambda a, desc: calls.append(a) or fold(a, desc))
        result = is_effective(L)
    return result, len(calls)


class TestFoldSearch:
    """Each exit of the fold search for the negative part, on named classes,
    against the greedy reduction."""

    def test_many_negative_curves_are_refused_without_their_sum(self):
        # (5; 2^8) pairs negatively with 148 exceptional curves; the search
        # refuses it at a curve that meets the first one it subtracts,
        # without summing the curves it has not reached
        L = PicardClass(5, (2,) * 8)
        assert sum(intersect(L, E) < 0 for E in surface_context(8).exceptional_set) == 148
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(positivity, "_certificate_sum", refuse)
            result, passes = fold_passes(L)
        assert result == (False, None)
        assert passes <= 9

    @pytest.mark.parametrize("L,passes", [
        # l - e1 - e2 and l - e3 - e4 pair -1 with L and meet: after the
        # first is subtracted the second pairs -2 with T
        (PicardClass(1, (1, 1, 1, 1)), 2),
        # the three lines l - e_i - e_j are disjoint and subtracted, which
        # leaves T = (-1; -1, 0, 0); its minimizer e_1 pairs 1 with L
        (PicardClass(1, (1, 1, 1)), 3),
        # l - e1 - e2 and 2l - e1 - ... - e5 both attain the first minimum,
        # -1; they are disjoint and L is their sum
        (PicardClass(3, (2, 2, 1, 1, 1)), 3),
        # -K plus 2..9 times eight disjoint non-point curves: r + 1 passes
        (sum((m * E for m, E in enumerate(DISJOINT_NON_POINT_R8, 2)), -canonical_class(8)), 9),
    ], ids=["minimizer-meets-an-earlier-curve", "minimizer-not-negative-on-L", "tied-in-two-families",
            "eight-disjoint-non-point-curves"])
    def test_named_exits(self, L, passes):
        result = fold_passes(L)
        assert result == (ref_is_effective(L), passes)
        if result[0][0]:
            assert_zariski_certificate(L, result[0])


class TestHugeMultiplicity:
    """The closed form's work does not grow with the multiplicities; the
    greedy reference takes one step per unit, so it is not run here."""

    @staticmethod
    def timed_is_effective(L):
        surface_context(L.r)  # the rank's surface is built outside the timed call
        start = time.perf_counter()
        result = is_effective(L)
        assert time.perf_counter() - start < 0.25
        return result

    def test_point_of_multiplicity_1e20(self):
        got = self.timed_is_effective(PicardClass(0, (-10**20, 0)))
        assert got == (True, EffectivityCertificate(((point_class(2, 1), 10**20),), PicardClass(0, (0, 0))))

    def test_line_plus_1e7_points_at_rank_8(self):
        got = self.timed_is_effective(PicardClass(1, (-10**7,) + (0,) * 7))
        assert got == (True, EffectivityCertificate(((point_class(8, 1), 10**7),), PicardClass(1, (0,) * 8)))

    @given(st.integers(2, 8).flatmap(lambda r: zariski_sums(r, huge=True)))
    @settings(max_examples=60, deadline=None)
    def test_zariski_oracle(self, L):
        assert_zariski_certificate(L, self.timed_is_effective(L))
