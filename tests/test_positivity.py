import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from delpezzo.lattice import (
    CurveTypePattern,
    LatticeMismatchError,
    PicardClass,
    RankError,
    adjoint,
    canonical_class,
    degree,
    fiber_class,
    intersect,
    line,
    point_class,
    type_pattern,
    zero_class,
)
from delpezzo import positivity
from delpezzo.enumeration import surface_context
from delpezzo.positivity import (
    EXCEPTION_MINUS_K1K_S8,
    EXCEPTION_MINUS_KK_S8,
    EXCEPTION_MINUS_K_S7_K1,
    EXCEPTION_NONE,
    EffectivityCertificate,
    InequalityFamily,
    adjoint_kva_check,
    adjoint_report,
    degree_bound_check,
    exception_flag,
    f1_class,
    f1_coords,
    f1_is_k_very_ample,
    generate_inequality_families,
    is_big,
    is_effective,
    is_k_very_ample,
    is_nef,
    is_spanned,
    minimum_pairing,
)
from delpezzo.reider import ObstructionWitness, search_obstructions, window_applicable
from bulk_reference import minimum_family_value_bulk, pairing_matrix
from test_enumeration import quadratic_transformation

coeff = st.integers(-12, 12)


def classes(r):
    return st.builds(PicardClass, coeff, st.tuples(*[coeff] * r))


ranked_classes = st.integers(1, 8).flatmap(classes)


class TestNef:
    def test_anticanonical_is_nef_everywhere(self, ctx):
        assert is_nef(-ctx.canonical)

    def test_failing_pair_inequality(self):
        assert not is_nef(PicardClass(3, (2, 2)))

    def test_pencil_class_is_nef(self):
        for r in range(1, 9):
            assert is_nef(PicardClass(1, (1,) + (0,) * (r - 1)))

    def test_rank_one_needs_the_fiber_inequality(self):
        # (2;5) pairs fine with e_1 but not with l - e_1
        assert intersect(PicardClass(2, (5,)), point_class(1, 1)) >= 0
        assert not is_nef(PicardClass(2, (5,)))

    @given(ranked_classes)
    def test_spanned_coincides_with_nef(self, L):
        assert is_spanned(L) == is_nef(L)

    def test_big_examples(self, ctx):
        assert is_big(-ctx.canonical)
        fib = PicardClass(1, (1,) + (0,) * (ctx.r - 1))
        assert not is_big(fib)  # nef of square zero
        if ctx.r == 2:
            assert not is_big(PicardClass(3, (2, 2)))  # not even nef


class TestEffectivity:
    def test_point_classes_are_effective(self, ctx):
        for i in range(1, ctx.r + 1):
            ok, cert = is_effective(point_class(ctx.r, i))
            assert ok and cert.replay() == point_class(ctx.r, i)

    def test_anticanonical_of_degree_one_surface(self):
        ok, cert = is_effective(-canonical_class(8))
        assert ok and cert.terminal == -canonical_class(8)

    def test_negative_line_multiple_is_not_effective(self):
        assert is_effective(PicardClass(-1, (0,) * 8)) == (False, None)

    def test_general_position_constraints(self):
        # three points not on a line, six not on a conic
        assert not is_effective(PicardClass(1, (1, 1, 1)))[0]
        assert not is_effective(PicardClass(2, (1,) * 6))[0]
        assert not is_effective(PicardClass(0, (-1, 1)))[0]

    def test_rank_one_monoid_rule(self):
        for a in range(-5, 9):
            for b in range(-8, 9):
                ok, cert = is_effective(PicardClass(a, (b,)))
                assert ok == (a >= 0 and a >= b)
                if ok:
                    assert cert.replay() == PicardClass(a, (b,))
                    assert is_nef(cert.terminal)

    def test_sufficiency_bound(self):
        # a >= -2 and degree >= K.L forces effectivity
        for r in (1, 2):
            K = canonical_class(r)
            for a in range(-2, 9):
                for b in itertools.product(range(-6, 7), repeat=r):
                    L = PicardClass(a, b)
                    if degree(L) >= intersect(K, L):
                        assert is_effective(L)[0], L

    @given(st.integers(2, 8).flatmap(classes))
    @settings(max_examples=200)
    def test_certificate_replays_and_terminal_is_nef(self, L):
        ctx = surface_context(L.r)
        ok, cert = is_effective(L)
        if ok:
            assert cert.replay() == L
            assert cert.terminal.is_zero() or is_nef(cert.terminal)
            for cls, mult in cert.subtracted:
                assert cls.sort_key() in ctx.exceptional_index and mult >= 1

    def test_zero_class_is_effective(self, ctx):
        ok, cert = is_effective(zero_class(ctx.r))
        assert ok and cert.subtracted == () and cert.terminal.is_zero()

    def test_nef_implies_effective(self, ctx):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = int(rng.integers(0, 10))
            b = tuple(int(x) for x in rng.integers(0, a + 1, ctx.r))
            L = PicardClass(a, b)
            if is_nef(L):
                assert is_effective(L)[0]

    @pytest.mark.parametrize("r", [2, 3])
    def test_negative_verdicts_have_separating_nef_class(self, r):
        # a nef class pairs >= 0 with every effective class, so finding a
        # nef N with L.N < 0 certifies non-effectivity independently of
        # the closed form; every negative verdict in the box must admit one
        nef_box = []
        for a in range(0, 13):
            for b in itertools.product(range(0, a + 1), repeat=r):
                N = PicardClass(a, b)
                if is_nef(N):
                    nef_box.append(N)
        for a in range(-3, 7):
            for b in itertools.product(range(-4, 5), repeat=r):
                L = PicardClass(a, b)
                if not is_effective(L)[0]:
                    assert any(intersect(L, N) < 0 for N in nef_box), (
                        f"no separating nef class found for {L}"
                    )

    @pytest.mark.parametrize("L", [
        PicardClass(0, (-10**20, -10**20)),
        PicardClass(10**19, (10**19, -3 * 10**19, -3 * 10**19)),
    ], ids=["r2", "r3"])
    def test_tied_certificate_past_the_index_range_is_refused(self, L):
        # effective, but its two tied curves would take more runs than a
        # list can hold
        with pytest.raises(ValueError, match=r"cannot certify .* runs, past sys.maxsize"):
            is_effective(L)
        with pytest.raises(ValueError, match="cannot certify"):
            is_k_very_ample(L, 1)

    def test_certificate_refuses_a_foreign_rank_class(self):
        # the certificate is summed when it is built, so its constructor
        # refuses a subtracted class of another rank than the terminal
        with pytest.raises(LatticeMismatchError):
            EffectivityCertificate(((point_class(3, 1), 1),), zero_class(2))

    def test_certificate_refuses_a_terminal_that_is_not_nef(self):
        # a certificate proves effectivity only through a nef terminal: the
        # trivial certificate of D = -e_1 would replay to a class that is
        # not effective, and a witness would take it as proof
        D = PicardClass(0, (1, 0))
        assert is_effective(D) == (False, None)
        with pytest.raises(ValueError, match="certificate ends at 0;1,0, which is not nef"):
            EffectivityCertificate((), D)
        with pytest.raises(ValueError, match="not nef"):
            EffectivityCertificate(((point_class(2, 1), 1),), PicardClass(1, (2, 0)))
        # the package's certificate of l + 3e_1 ends at l and passes the check
        E = point_class(2, 1)
        _, cert = is_effective(PicardClass(1, (-3, 0)))
        assert cert == EffectivityCertificate(((E, 3),), PicardClass(1, (0, 0)))


class TestCertificateSum:
    """A certificate is summed once, when it is built: the self-check of
    is_effective, every replay() and an ObstructionWitness read that sum."""

    @staticmethod
    def patched_sum(mp, change=lambda S: S):
        """Route positivity._certificate_sum through ``change`` and return
        the list of classes it is called on."""
        calls = []
        real = positivity._certificate_sum

        def counted(L, runs):
            calls.append(L)
            return change(real(L, runs))

        mp.setattr(positivity, "_certificate_sum", counted)
        return calls

    @pytest.mark.parametrize("L,M", [
        (PicardClass(5, (-3,)), PicardClass(6, (1,))),
        (PicardClass(7, (-12, -12)), PicardClass(-34, (0, 0))),
        (PicardClass(3, (2, 2, 0, 0, 0, 0, 0, -3)), PicardClass(-1, (2, 0, 0, 0, 0, 0, 0, 0))),
    ], ids=["rank-1-branch", "24-tied-runs", "r8"])
    def test_an_effective_class_is_summed_once(self, L, M):
        with pytest.MonkeyPatch.context() as mp:
            calls = self.patched_sum(mp)
            ok, cert = is_effective(L)
            assert ok and cert.subtracted
            assert cert.replay() == cert.replay() == L
            # a witness replays its certificate without summing it again;
            # at level k = max(0, D.D), M.D = D.D + k + 1 is inside the window
            k = max(0, degree(L))
            assert intersect(M, L) == degree(L) + k + 1
            ObstructionWitness(L, M, k, cert)
        assert len(calls) == 1

    @pytest.mark.parametrize("L,effective", [
        (-canonical_class(8), True),  # nef: its own certificate, nothing subtracted
        (PicardClass(5, (2,) * 8), False),  # refused by the fold search
        (PicardClass(-1, (0, 0)), False),  # refused by the early reject
    ], ids=["nef", "refused", "early-reject"])
    def test_nef_and_refused_classes_are_not_summed(self, L, effective):
        with pytest.MonkeyPatch.context() as mp:
            calls = self.patched_sum(mp)
            ok, cert = is_effective(L)
            assert ok == effective
            if ok:
                assert cert.subtracted == () and cert.replay() is L
        assert calls == []

    @pytest.mark.parametrize("L", [PicardClass(5, (-3,)), PicardClass(5, (-3, 2))],
                             ids=["rank-1-branch", "fold-search"])
    def test_a_certificate_summing_to_another_class_is_refused(self, L):
        with pytest.MonkeyPatch.context() as mp:
            calls = self.patched_sum(mp, lambda S: PicardClass(S.a + 1, S.b))
            with pytest.raises(RuntimeError, match=re.escape(f"the certificate of {L} replays to another class")):
                is_effective(L)
        assert len(calls) == 1


class TestKVeryAmple:
    def test_rank_one_boundary_family(self):
        for k in range(0, 5):
            assert is_k_very_ample(PicardClass(2 * k, (k,)), k).k_very_ample

    def test_exception_classes(self):
        K8, K7 = canonical_class(8), canonical_class(7)
        for k in range(1, 6):
            rep = is_k_very_ample(-k * K8, k)
            assert not rep.k_very_ample
            assert rep.exception_flag == EXCEPTION_MINUS_KK_S8
            assert minimum_pairing(-k * K8) >= k  # inequalities do hold
            rep = is_k_very_ample(-(k + 1) * K8, k)
            assert not rep.k_very_ample
            assert rep.exception_flag == EXCEPTION_MINUS_K1K_S8
        rep = is_k_very_ample(-K7, 1)
        assert not rep.k_very_ample and rep.exception_flag == EXCEPTION_MINUS_K_S7_K1
        rep = is_k_very_ample(-K7, 0)
        assert rep.k_very_ample and rep.exception_flag == EXCEPTION_NONE

    def test_zero_level_flags_at_rank_8(self):
        assert is_k_very_ample(zero_class(8), 0).exception_flag == EXCEPTION_MINUS_KK_S8
        assert is_k_very_ample(-canonical_class(8), 0).exception_flag == EXCEPTION_MINUS_K1K_S8

    def test_anticanonical_on_cubic_surface_is_very_ample(self):
        assert is_k_very_ample(-canonical_class(6), 1).k_very_ample

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            is_k_very_ample(line(2), -1)

    def test_exception_flag_checks_k(self):
        K8 = canonical_class(8)
        with pytest.raises(ValueError):
            exception_flag(K8, -1)  # K = -(-1)K: no level -1 to name
        with pytest.raises(TypeError):
            exception_flag(-K8, 1.0)
        assert exception_flag(-K8, np.int64(1)) == EXCEPTION_MINUS_KK_S8

    def test_exception_flag_is_exported_from_the_package_root(self):
        # the README documents the verdict, so the root offers its function
        import delpezzo

        assert delpezzo.exception_flag is positivity.exception_flag
        assert "exception_flag" in delpezzo.__all__
        assert delpezzo.exception_flag(-2 * canonical_class(8), 1) == EXCEPTION_MINUS_K1K_S8

    def test_report_invariants_run_on_every_report(self, monkeypatch):
        # -2K at r = 6 is 2-very ample; a forced degree of 0 keeps the genus
        # parity (0 - 18 + 12 is even) but makes the report claim k-very
        # ample without big, which the report's __init__ refuses
        L = -2 * canonical_class(6)
        assert is_k_very_ample(L, 1).k_very_ample
        monkeypatch.setattr(positivity, "degree", lambda L: 0)
        for k in (1, 2):
            with pytest.raises(ValueError, match="very ample needs") as excinfo:
                is_k_very_ample(L, k)
            frame = excinfo.traceback[-1]
            assert frame.name == "__init__" and type(frame.frame.f_locals["self"]) is positivity.PositivityReport

    @given(st.integers(1, 8).flatmap(classes), st.integers(1, 3))
    @settings(max_examples=300)
    def test_monotone_in_k(self, L, k):
        if is_k_very_ample(L, k).k_very_ample:
            assert is_k_very_ample(L, k - 1).k_very_ample

    @given(st.integers(1, 8).flatmap(classes), st.integers(1, 3))
    @settings(max_examples=300)
    def test_kva_implies_nef_and_big(self, L, k):
        rep = is_k_very_ample(L, k)
        if rep.k_very_ample:
            assert rep.nef and rep.big and rep.spanned and rep.effective

    def test_report_fields_and_stable_schema(self):
        rep = is_k_very_ample(PicardClass(3, (2, 2)), 1)
        payload = rep.as_dict()
        assert list(payload) == [
            "subject", "r", "k", "degree", "genus", "verdicts",
            "violations", "exception_flag", "certificate",
        ]
        assert list(payload["verdicts"]) == ["effective", "nef", "big", "spanned", "k_very_ample"]
        assert payload["violations"][0]["family"] == "a >= b_i + b_j"
        json.dumps(payload)  # must be serializable as-is

    def test_intersection_with_low_degree_effectives(self):
        # a k-very-ample class meets every effective class at least k times;
        # checked against all effectives of anticanonical degree <= 6 (rank 2)
        effectives = []
        for d in range(1, 7):
            for alpha in range(0, 6 * d + 1):
                for b1 in range(-d, alpha + 1):
                    b2 = 3 * alpha - d - b1
                    if -d <= b2 <= alpha:
                        D = PicardClass(alpha, (b1, b2))
                        if is_effective(D)[0]:
                            effectives.append(D)
        for L in (PicardClass(3, (1, 1)), PicardClass(5, (2, 1)), PicardClass(6, (2, 2))):
            for k in range(0, 3):
                if is_k_very_ample(L, k).k_very_ample:
                    assert all(intersect(L, C) >= k for C in effectives)


class TestInequalityFamilies:
    def test_family_counts_per_rank(self):
        assert len(generate_inequality_families(1)) == 2
        assert len(generate_inequality_families(2)) == 2
        assert len(generate_inequality_families(4)) == 2
        assert len(generate_inequality_families(5)) == 3
        assert len(generate_inequality_families(6)) == 3
        assert len(generate_inequality_families(7)) == 4
        assert len(generate_inequality_families(8)) == 7

    def test_labels(self):
        assert [f.label() for f in generate_inequality_families(1)] == [
            "b_1 >= k",
            "a >= b_1 + k",
        ]
        assert [f.label() for f in generate_inequality_families(8)] == [
            "b_i >= k",
            "a >= b_i + b_j + k",
            "2a >= sum_5 b + k",
            "3a >= 2b_i + sum_6 b + k",
            "4a >= 2 sum_3 b + sum_5 b + k",
            "5a >= 2 sum_6 b + b_i + b_j + k",
            "6a >= 3b_i + 2 sum_7 b + k",
        ]
        assert generate_inequality_families(2)[1].label(with_k=False) == "a >= b_i + b_j"

    @given(st.integers(1, 8).flatmap(classes))
    @settings(max_examples=200)
    def test_family_value_is_orbit_minimum(self, L):
        ctx = surface_context(L.r)
        orbit_min = {}
        for xi in ctx.exceptional_set:
            pat = type_pattern(xi)
            v = intersect(L, xi)
            orbit_min[pat] = min(v, orbit_min.get(pat, v))
        if L.r == 1:
            orbit_min[type_pattern(fiber_class())] = intersect(L, fiber_class())
        for fam in generate_inequality_families(L.r):
            assert fam.evaluate(L) == orbit_min[fam.source_type]

    @pytest.mark.parametrize("r,a0,entries", [(3, 2, ((1, 3),)), (4, 2, ((1, 5),)), (8, 1, ((1, 3),))])
    def test_pattern_that_is_no_test_curve_type_refusal(self, r, a0, entries):
        # a family built by hand from a pattern with no family at its rank:
        # (2; 1^3) has square 1, (2; 1^5) needs five points, (1; 1^3) has
        # (-K).D = 0
        family = InequalityFamily(r, CurveTypePattern(a0, entries))
        pattern = re.escape(str(family.source_type))
        with pytest.raises(ValueError, match=f"^pattern {pattern} is not a test-curve type at rank {r}$"):
            family.evaluate(PicardClass(3, (1,) * r))

    @pytest.mark.parametrize("r", ["3", 3.0, 9, 0])
    def test_family_of_no_rank_refusal(self, r):
        # the rank is checked when the family is built, as PicardClass
        # checks its length, not when it first evaluates a class
        with pytest.raises(RankError, match=re.escape(f"rank must be an integer in 1..8, got {r!r}")):
            InequalityFamily(r, CurveTypePattern(0, ((-1, 1),)))

    def test_family_rank_is_a_plain_int(self):
        family = InequalityFamily(np.int64(3), CurveTypePattern(0, ((-1, 1),)))
        assert type(family.r) is int and family in generate_inequality_families(3)
        assert family.evaluate(PicardClass(3, (1, 1, 1))) == 1

    @given(st.integers(1, 8).flatmap(classes), st.integers(0, 3))
    @settings(max_examples=200)
    def test_families_reproduce_the_direct_test(self, L, k):
        fams = generate_inequality_families(L.r)
        assert all(f.satisfied(L, k) for f in fams) == (minimum_pairing(L) >= k)

    def test_bulk_evaluators_match_scalar(self):
        rng = np.random.default_rng(11)
        for r in (1, 3, 8):
            rows = np.column_stack(
                [rng.integers(-5, 16, 400), rng.integers(-4, 16, (400, r))]
            ).astype(np.int64)
            direct = pairing_matrix(rows, r).min(axis=1)
            folded = minimum_family_value_bulk(rows)
            for i in range(len(rows)):
                L = PicardClass(int(rows[i, 0]), tuple(int(x) for x in rows[i, 1:]))
                assert direct[i] == minimum_pairing(L)
            np.testing.assert_array_equal(direct, folded)

    @pytest.mark.parametrize("r", range(1, 9))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_bulk_minimum_is_the_smallest_closed_form(self, r, data):
        # the smallest family value and the smallest pairing by intersect,
        # on Python integers; rows past 2**63 take the exact bulk path
        wide = st.integers(2**63, 2**66) | st.integers(-(2**66), -(2**63))
        entry = data.draw(st.sampled_from([coeff, coeff | wide]))
        rows = data.draw(st.lists(st.lists(entry, min_size=r + 1, max_size=r + 1), min_size=1, max_size=6))
        families = generate_inequality_families(r)
        classes = [PicardClass(a, tuple(b)) for a, *b in rows]
        expected = [min(f.evaluate(L) for f in families) for L in classes]
        curves = surface_context(r).test_curves
        assert expected == [min(intersect(L, x) for x in curves) for L in classes]
        assert minimum_family_value_bulk(rows).tolist() == expected


class TestAdjoint:
    def test_examples(self):
        for k in (1, 2, 3):
            L = PicardClass(3 * k, (k, k))
            assert adjoint_kva_check(L, k)
        assert not adjoint_kva_check(PicardClass(3, (2,)), 1)  # a = b1 + k
        assert adjoint_kva_check(PicardClass(4, (2,)), 1)  # a = b1 + k + 1

    def test_rank_one_rule(self):
        for b1 in range(0, 6):
            for k in range(1, 4):
                for a in range(b1 + k, b1 + k + 4):
                    L = PicardClass(a, (b1,))
                    if b1 < k:
                        continue  # not k-very ample, precondition fails
                    assert adjoint_kva_check(L, k) == (a >= b1 + k + 1)

    def test_always_true_at_rank_two_plus_except_one_class(self):
        # the adjoint of a k-very-ample class stays (k-1)-very ample for
        # r >= 2, except that -2K on the degree-2 surface adjoins to -K,
        # which is exactly the flagged very-ampleness exception
        rng = np.random.default_rng(5)
        for r in range(2, 9):
            checked = 0
            for _ in range(400):
                k = int(rng.integers(1, 4))
                a = int(rng.integers(0, 16))
                b = tuple(int(x) for x in rng.integers(0, 8, r))
                L = PicardClass(a, b)
                if not is_k_very_ample(L, k).k_very_ample:
                    continue
                checked += 1
                expected = not (r == 7 and k == 2 and L == -2 * canonical_class(7))
                assert adjoint_kva_check(L, k) == expected
            assert checked > 0
        assert is_k_very_ample(-2 * canonical_class(7), 2).k_very_ample
        assert not adjoint_kva_check(-2 * canonical_class(7), 2)
        rep = is_k_very_ample(adjoint(-2 * canonical_class(7)), 1)
        assert rep.exception_flag == EXCEPTION_MINUS_K_S7_K1

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            adjoint_kva_check(PicardClass(3, (2, 2)), 1)  # not 1-very ample
        with pytest.raises(ValueError):
            adjoint_kva_check(PicardClass(6, (2, 2)), 0)  # k must be >= 1

    def test_report_is_the_adjoint_one_level_down(self):
        L = -2 * canonical_class(7)
        report = adjoint_report(L, 2)
        assert report.subject == adjoint(L) and report.k == 1
        assert report.as_dict() == is_k_very_ample(adjoint(L), 1).as_dict()
        assert report.exception_flag == EXCEPTION_MINUS_K_S7_K1
        with pytest.raises(ValueError, match=r"^3;2,2 is not 1-very ample"):
            adjoint_report(PicardClass(3, (2, 2)), 1)


class TestDegreeBound:
    def test_bound_values(self):
        assert 2 * 2 + 3 * 2 + 2 == 12
        assert 3 * 3 + 3 * 3 + 2 == 20

    def test_holds_on_examples(self):
        for k in (2, 3):
            L = PicardClass(3 * k + 1, (k, k))
            assert degree_bound_check(L, k)

    def test_exhaustive_minimum_small_ranks(self):
        # minimum degree of a 2-very-ample class, excluding -2K, over a <= 12
        for r in (1, 2, 3):
            K = canonical_class(r)
            best = None
            for a in range(0, 13):
                for b in itertools.product(range(0, a + 1), repeat=r):
                    L = PicardClass(a, b)
                    if L == -2 * K or not is_k_very_ample(L, 2).k_very_ample:
                        continue
                    d = degree(L)
                    best = d if best is None else min(best, d)
            assert best is not None and best >= 12

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            degree_bound_check(PicardClass(6, (2, 2)), 1)  # k too small
        with pytest.raises(ValueError):
            degree_bound_check(-2 * canonical_class(2), 2)  # excluded class
        with pytest.raises(ValueError):
            degree_bound_check(PicardClass(3, (2, 2)), 2)  # not 2-very ample


class TestF1Coordinates:
    def test_round_trip(self):
        for a0 in range(-20, 21):
            for b in range(-20, 21):
                assert f1_coords(f1_class(a0, b)) == (a0, b)
        for a in range(-20, 21):
            for b1 in range(-20, 21):
                L = PicardClass(a, (b1,))
                assert f1_class(*f1_coords(L)) == L

    def test_examples(self):
        for k in range(0, 4):
            assert f1_class(k, 2 * k) == PicardClass(2 * k, (k,))
        assert f1_class(1, 0) == point_class(1, 1)
        assert f1_class(0, 1) == fiber_class()
        assert f1_coords(point_class(1, 1)) == (1, 0)
        assert f1_coords(fiber_class()) == (0, 1)

    def test_criterion_agrees_with_lattice_test(self):
        for a0 in range(-8, 9):
            for b in range(-8, 9):
                for k in range(0, 4):
                    direct = is_k_very_ample(f1_class(a0, b), k).k_very_ample
                    assert f1_is_k_very_ample(a0, b, k) == direct

    def test_rank_errors(self):
        with pytest.raises(RankError):
            f1_coords(line(2))


def _permuted(L, sigma):
    return PicardClass(L.a, tuple(L.b[i] for i in sigma))


def _verdicts(report):
    return (report.degree, report.genus, report.effective, report.nef, report.big, report.spanned,
            report.k_very_ample, report.violations, report.exception_flag)


def _with_permutation(classes_at_rank):
    return st.integers(2, 8).flatmap(
        lambda r: st.tuples(classes_at_rank(r), st.permutations(range(r)))
    )


class TestPermutationInvariance:
    """Every verdict is invariant under permuting b: the candidate table
    tests one representative per orbit, and the exhaustive sweep counts
    whole orbits as covered."""

    @given(_with_permutation(classes), st.sampled_from([1, 10**19]), st.integers(0, 3))
    @settings(max_examples=300)
    def test_verdicts(self, L_sigma, scale, k):
        L, sigma = L_sigma
        L = scale * L  # 10**19 is past 2**63
        sL = _permuted(L, sigma)
        assert minimum_pairing(sL) == minimum_pairing(L)
        try:
            effective, _ = is_effective(L)
        except ValueError:  # a tied certificate past the index range
            for f in (is_effective, lambda M: is_k_very_ample(M, k)):
                with pytest.raises(ValueError, match="cannot certify"):
                    f(sL)
            return
        s_effective, s_cert = is_effective(sL)
        assert s_effective == effective
        if effective:
            assert s_cert.replay() == sL
        assert _verdicts(is_k_very_ample(sL, k)) == _verdicts(is_k_very_ample(L, k))

    @given(
        _with_permutation(lambda r: st.builds(PicardClass, st.integers(0, 12),
                                              st.tuples(*[st.integers(-1, 4)] * r))),
        st.integers(1, 2),
    )
    @settings(max_examples=150)
    def test_window_search_lists_the_permuted_witnesses(self, L_sigma, k):
        L, sigma = L_sigma
        assume(window_applicable(L, k)[0])

        def found(M, act):
            witnesses = search_obstructions(M, k).witnesses
            return sorted((act(w.D).sort_key(), w.MD, w.D_squared) for w in witnesses)

        assert found(_permuted(L, sigma), lambda D: D) == found(L, lambda D: _permuted(D, sigma))


def _weyl_image(L, word):
    """L under the word: each round permutes b, then applies the quadratic
    transformation."""
    for sigma in word:
        a, b = quadratic_transformation(L.a, tuple(L.b[i] for i in sigma))
        L = PicardClass(a, b)
    return L


def _with_weyl_word(classes_at_rank):
    return st.integers(3, 8).flatmap(lambda r: st.tuples(
        classes_at_rank(r), st.lists(st.permutations(range(r)), min_size=1, max_size=4)))


def _near_anticanonical(r):
    # a = 3m + delta and b_i = m + eps_i: close to the ray of -K
    return st.builds(lambda m, delta, eps: PicardClass(3 * m + delta, tuple(m + e for e in eps)),
                     st.integers(0, 12), st.integers(-3, 3), st.tuples(*[st.integers(-2, 2)] * r))


def _wide(r):
    wide = st.integers(-30, 30)
    return st.builds(PicardClass, wide, st.tuples(*[wide] * r))


class TestWeylInvariance:
    """W(E_r) acts on the lattice fixing K and permuting the (-1)-curves,
    so each verdict is a function of the W-orbit.  The test maps a class
    through random words in W's generators, the permutations of b and the
    quadratic transformation, at r >= 3 where the latter is defined.
    Violations are not compared: their families are S_r orbits, not
    W-orbits."""

    @given(_with_weyl_word(lambda r: _near_anticanonical(r) | _wide(r)),
           st.sampled_from([1, 10**19]), st.integers(0, 3))
    @settings(max_examples=400)
    def test_verdicts(self, L_word, scale, k):
        L, word = L_word
        L = scale * L  # 10**19 is past 2**63
        wL = _weyl_image(L, word)
        try:
            report, w_report = [is_k_very_ample(M, k) for M in (L, wL)]
        except ValueError as exc:
            # a tied certificate past the index range; run counts are not W-invariant
            assert "cannot certify" in str(exc)
            return

        def invariants(report):
            return (report.degree, report.genus, report.effective, report.nef, report.big,
                    report.k_very_ample, report.exception_flag)

        assert invariants(w_report) == invariants(report)
        assert minimum_pairing(wL) == minimum_pairing(L)
        if w_report.effective:
            assert w_report.certificate.replay() == wL

    @given(_with_weyl_word(lambda r: st.builds(PicardClass, st.integers(0, 12),
                                               st.tuples(*[st.integers(0, 4)] * r))),
           st.integers(1, 2))
    @settings(max_examples=150)
    def test_window_search_maps_across(self, L_word, k):
        L, word = L_word
        assume(is_nef(L))

        def found(M):
            outcome = search_obstructions(M, k)
            return outcome.applicable, sorted((w.MD, w.D_squared) for w in outcome.witnesses)

        assert found(_weyl_image(L, word)) == found(L)


def _genus_one_classes(r):
    """The classes D of arithmetic genus 1 (D.D = -K.D) that can carry an
    exception (ROADMAP item 10): -K at r = 7 and 8, and -K + E for each
    exceptional class E at r = 8."""
    ctx = surface_context(r)
    return [ctx.anticanonical] + [ctx.anticanonical + E for E in ctx.exceptional_set if r == 8]


def _fails_on_an_elliptic_curve(L, k):
    """Whether L restricts to some genus-1 class D as a bundle that is not
    k-very ample.  On an elliptic curve a bundle of degree d >= 1 is
    k-very ample iff d >= k + 2; for L nef, d = 0 means L = 0, whose
    trivial bundle is 0-very ample and no more."""
    return any(d <= k + 1 and (d, k) != (0, 0) for d in (intersect(L, D) for D in _genus_one_classes(L.r)))


class TestExceptionsFromEllipticCurves:
    """The exception classes derived instead of listed: a class that passes
    the pairing test at k is an exception iff its restriction to an elliptic
    curve in |-K| (r = 7, 8) or |-K + E| (r = 8) is not k-very ample."""

    @pytest.mark.parametrize("r", [7, 8])
    def test_multiples_of_minus_K(self, r):
        ctx = surface_context(r)
        flagged = []
        for m, k in itertools.product(range(13), range(1, 6)):
            L = m * ctx.anticanonical
            derived = minimum_pairing(L) >= k and _fails_on_an_elliptic_curve(L, k)
            assert derived == (exception_flag(L, k) != EXCEPTION_NONE), (m, k)
            flagged += [(m, k)] * derived
        # -kK and -(k+1)K at r = 8, -K at r = 7 and k = 1
        expected = [(m, k) for m, k in itertools.product(range(13), range(1, 6)) if m - k in (0, 1)]
        assert flagged == (expected if r == 8 else [(1, 1)])

    @pytest.mark.parametrize("r", [7, 8])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_near_anticanonical_classes(self, r, data):
        L = data.draw(_near_anticanonical(r))
        for k in range(1, 6):
            derived = minimum_pairing(L) >= k and _fails_on_an_elliptic_curve(L, k)
            assert derived == (exception_flag(L, k) != EXCEPTION_NONE), k

    @pytest.mark.parametrize("m", [
        pytest.param(0, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 10: the zero class is flagged at r = 8, k = 0, "
                                "but O_S is 0-very ample")),
        1, 2,
    ])
    def test_zero_level_at_rank_8(self, m):
        # at k = 0 the elliptic curves flag -K alone
        ctx = surface_context(8)
        L = m * ctx.anticanonical
        assert _fails_on_an_elliptic_curve(L, 0) == (exception_flag(L, 0) != EXCEPTION_NONE)
