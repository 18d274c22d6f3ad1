import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from delpezzo.lattice import (
    CurveTypePattern,
    LatticeMismatchError,
    PicardClass,
    RankError,
    adjoint,
    canonical_class,
    degree,
    intersect,
    line,
    point_class,
    sectional_genus,
    type_pattern,
    zero_class,
)

coeff = st.integers(-20, 20)


def classes(r):
    return st.builds(PicardClass, coeff, st.tuples(*[coeff] * r))


ranked_classes = st.integers(1, 8).flatmap(classes)

#: Coefficients on both sides of the int64 range and far past it.
wide_coeff = coeff | st.integers(-(10**30), 10**30) | st.sampled_from([2**63, -(2**63) - 1, 10**19])


def wide_classes(r):
    return st.builds(PicardClass, wide_coeff, st.tuples(*[wide_coeff] * r))


class TestIntersection:
    def test_line_squares_to_one(self):
        assert intersect(line(3), line(3)) == 1

    def test_conic_residual_class(self):
        L = PicardClass(1, (1, 1))  # l - e_1 - e_2
        assert intersect(L, L) == -1

    def test_anticanonical_square_is_surface_degree(self):
        for r in range(1, 9):
            K = canonical_class(r)
            assert intersect(-K, -K) == 9 - r
        assert intersect(-canonical_class(6), -canonical_class(6)) == 3

    def test_rank_mismatch_raises(self):
        with pytest.raises(LatticeMismatchError):
            intersect(line(2), line(3))
        with pytest.raises(LatticeMismatchError):
            line(2) + line(3)

    @given(st.integers(1, 8).flatmap(lambda r: st.tuples(classes(r), classes(r), classes(r))))
    def test_bilinear_and_symmetric(self, triple):
        L1, L2, L3 = triple
        assert intersect(L1 + L2, L3) == intersect(L1, L3) + intersect(L2, L3)
        assert intersect(L1, L2) == intersect(L2, L1)

    def test_gram_matrix_signature(self):
        for r in range(1, 9):
            basis = [line(r)] + [point_class(r, i) for i in range(1, r + 1)]
            for i, x in enumerate(basis):
                for j, y in enumerate(basis):
                    expected = 0 if i != j else (1 if i == 0 else -1)
                    assert intersect(x, y) == expected


class TestDegreeAndGenus:
    def test_degree_examples(self):
        assert degree(line(4)) == 1
        assert degree(point_class(4, 1)) == -1
        for r in range(1, 9):
            assert degree(-canonical_class(r)) == 9 - r

    def test_genus_examples(self):
        assert sectional_genus(line(2)) == 0
        for r in range(1, 9):
            assert sectional_genus(-canonical_class(r)) == 1

    @given(st.integers(1, 8).flatmap(wide_classes))
    def test_degree_is_the_self_intersection(self, L):
        # degree has its own sum of squares; intersect pairs two classes
        square = degree(L)
        assert type(square) is int and square == intersect(L, L)

    def test_genus_of_exceptional_classes_is_zero(self):
        from delpezzo.enumeration import enumerate_exceptional

        for r in range(1, 9):
            assert all(sectional_genus(xi) == 0 for xi in enumerate_exceptional(r))

    def test_genus_parity_exhaustive_box(self):
        # adjunction parity must hold at every lattice point, not just on curves
        for r in (1, 2, 3):
            for a in range(-3, 4):
                for b in itertools.product(range(-3, 4), repeat=r):
                    L = PicardClass(a, b)
                    s = degree(L) + intersect(canonical_class(r), L)
                    assert s % 2 == 0
                    assert sectional_genus(L) == s // 2 + 1


class TestCanonicalAndAdjoint:
    def test_canonical_examples(self):
        assert canonical_class(1) == PicardClass(-3, (-1,))
        assert canonical_class(8) == PicardClass(-3, (-1,) * 8)

    def test_canonical_rank_errors(self):
        for bad in (0, 9, -1):
            with pytest.raises(RankError):
                canonical_class(bad)

    def test_adjoint_examples(self):
        assert adjoint(PicardClass(3, (1, 1))) == zero_class(2)
        assert adjoint(PicardClass(6, (2, 2))) == PicardClass(3, (1, 1))

    @given(ranked_classes)
    def test_adjoint_twice_adds_two_canonicals(self, L):
        assert adjoint(adjoint(L)) == L + 2 * canonical_class(L.r)


class TestTypePattern:
    def test_examples(self):
        assert type_pattern(PicardClass(1, (1, 1, 0))) == CurveTypePattern(1, ((1, 2),))
        assert type_pattern(PicardClass(1, (1, 1, 0))).render() == "(1;1^2)"
        big = type_pattern(PicardClass(6, (3, 2, 2, 2, 2, 2, 2, 2)))
        assert big.entries == ((3, 1), (2, 7))
        assert big.render() == "(6;3,2^7)"

    def test_negative_entries_are_flagged(self):
        pat = type_pattern(point_class(1, 1))
        assert pat.entries == ((-1, 1),)
        assert pat.has_negative
        assert pat.render() == "(0;-1)"
        assert not type_pattern(line(3)).has_negative

    @given(st.integers(2, 8).flatmap(lambda r: st.tuples(classes(r), st.permutations(range(r)))))
    def test_invariant_under_coordinate_permutations(self, arg):
        L, perm = arg
        shuffled = PicardClass(L.a, tuple(L.b[i] for i in perm))
        assert type_pattern(shuffled) == type_pattern(L)

    @pytest.mark.parametrize("entries", [
        ((2, 1), (3, 1)),  # ascending
        ((2, 1), (2, 3)),  # repeated
        ((0, 2),),  # zero multiplicity
        ((1, 0),),  # empty count
        ((1, -1),),  # negative count
    ])
    def test_malformed_entries_are_refused(self, entries):
        with pytest.raises(ValueError, match="entries must|non-positive counts"):
            CurveTypePattern(6, entries)

    @pytest.mark.parametrize("a0,entries", [(1, ((2, 1.5),)), (1, ((2.0, 1),)), (1.5, ())])
    def test_non_integers_are_refused(self, a0, entries):
        # (1;2^1.5) and (1.5;) used to render, and only to_class failed
        with pytest.raises(TypeError):
            CurveTypePattern(a0, entries)

    def test_numpy_integers_become_python_ints(self):
        pat = CurveTypePattern(np.int64(6), [(np.int32(3), np.uint8(1)), (2, 7)])
        assert pat == CurveTypePattern(6, ((3, 1), (2, 7)))
        assert type(pat.a0) is int and all(type(x) is int for entry in pat.entries for x in entry)

    def test_round_trip_through_canonical_representative(self):
        pat = CurveTypePattern(5, ((2, 6), (1, 2)))
        assert type_pattern(pat.to_class(8)) == pat
        with pytest.raises(RankError):
            pat.to_class(3)


class TestPicardClassBasics:
    def test_rank_validation(self):
        with pytest.raises(RankError):
            PicardClass(1, ())
        with pytest.raises(RankError):
            PicardClass(1, (0,) * 9)

    def test_non_integral_coefficients_are_refused(self):
        with pytest.raises(TypeError):
            PicardClass(1.5, (2.7,))
        with pytest.raises(TypeError):
            PicardClass(1, (2.0, 0))

    def test_refusals_check_a_then_b_then_the_rank(self):
        with pytest.raises(TypeError, match="'str'"):
            PicardClass("1", (2.0,) * 9)
        with pytest.raises(TypeError, match="'float'"):
            PicardClass(1, (2.0,) * 9)
        with pytest.raises(RankError):
            PicardClass(1, (2,) * 9)

    def test_scaling_takes_integers_only(self):
        L = PicardClass(1, (2, 3))
        for product in (lambda: L * 1.5, lambda: 1.5 * L, lambda: L * L):
            with pytest.raises(TypeError):  # L.L is intersect(L, L)
                product()

    def test_numpy_integers_become_python_ints(self):
        L = PicardClass(np.int64(3), (np.int32(1), np.uint8(2)))
        assert L == PicardClass(3, (1, 2))
        assert type(L.a) is int and all(type(x) is int for x in L.b)

    def test_point_class_index_is_checked(self):
        assert point_class(3, 3) == PicardClass(0, (0, 0, -1))
        for i in (0, 4):
            with pytest.raises(RankError, match=f"index {i} outside 1..3"):
                point_class(3, i)

    @pytest.mark.parametrize("i", [1.5, 2.0])
    def test_point_class_index_is_an_integer(self, i):
        # 1.5 matched no coordinate and gave the zero class, 2.0 gave e_2
        with pytest.raises(TypeError):
            point_class(3, i)

    def test_render_form(self):
        assert PicardClass(3, (1, 1, 1)).render() == "3;1,1,1"
        assert str(point_class(1, 1)) == "0;-1"

    @given(ranked_classes)
    def test_negation_and_scalar_multiples(self, L):
        assert -(-L) == L
        assert 2 * L == L + L
        assert 0 * L == zero_class(L.r)
