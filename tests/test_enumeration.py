"""Enumeration tests.

The expected values here were frozen from two independent sources: the
classical census/solution tables (typed in once, in the acceptance
module, whose criteria 1 and 2 check every cell) and a from-scratch
multiset oracle implemented below, which enumerates solutions of the two
integer systems by brute force over sorted value combinations and
expands permutation orbits.  The production search must agree with both.
"""

import copy
import dataclasses
import itertools
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delpezzo.bulk import SAFE_COEFF_BOUND, exact_rows, expand_orbit, float_operand, orbit_floor, orbit_sizes
from delpezzo.lattice import (
    EXCEPTIONAL_CLASS_COUNTS,
    PicardClass,
    RankError,
    canonical_class,
    degree,
    intersect,
    point_class,
    type_pattern,
)
from delpezzo.enumeration import (
    NullClassRecord,
    SurfaceContext,
    decompose_null_class,
    descending_vectors,
    enumerate_exceptional,
    enumerate_null_classes,
    exceptional_type_census,
    orderings,
    surface_context,
)
from test_acceptance import CENSUS, NULL_ROWS, SPLIT_SHAPES, TOTALS


def multiset_oracle(r, sum_target, sq_target, lo, hi):
    """Independent solver: brute force over sorted value combinations,
    then expand each to its full permutation orbit."""
    found = set()
    for combo in itertools.combinations_with_replacement(range(lo, hi + 1), r):
        if sum(combo) == sum_target and sum(x * x for x in combo) == sq_target:
            found.update(itertools.permutations(combo))
    return found


def oracle_exceptional(r):
    out = set()
    for a in range(-1, 8):
        for b in multiset_oracle(r, 3 * a - 1, a * a + 1, -1, 7):
            out.add(PicardClass(a, b))
    return out


def quadratic_transformation(a, b):
    """The Cremona map on the first three points, the reflection in the
    root l - e_1 - e_2 - e_3."""
    b1, b2, b3, *rest = b
    return 2 * a - b1 - b2 - b3, (a - b2 - b3, a - b1 - b3, a - b1 - b2, *rest)


def weyl_orbit(a, b):
    """The W(E_r)-orbit of (a; b), r >= 3, by breadth-first search under its
    generators: the adjacent transpositions of the b_i (the reflections in
    e_i - e_{i+1}) and the quadratic transformation."""
    seen = {(a, b)}
    frontier = [(a, b)]
    while frontier:
        step = []
        for a, b in frontier:
            moves = [(a, b[:i] + (b[i + 1], b[i]) + b[i + 2:]) for i in range(len(b) - 1)]
            moves.append(quadratic_transformation(a, b))
            for move in moves:
                if move not in seen:
                    seen.add(move)
                    step.append(move)
        frontier = step
    return {PicardClass(a, b) for a, b in seen}


class TestExceptionalEnumeration:
    @pytest.mark.parametrize("r", range(3, 9))
    def test_is_the_weyl_orbit_of_a_point_class(self, r):
        # the (-1)-curves are one W(E_r)-orbit; at r = 2 the transpositions
        # alone miss l - e_1 - e_2, so the oracle starts at r = 3
        orbit = weyl_orbit(0, (0,) * (r - 1) + (-1,))
        assert len(orbit) == TOTALS[r - 1]
        assert orbit == set(enumerate_exceptional(r))

    def test_known_cardinalities(self, every_rank):
        assert len(enumerate_exceptional(every_rank)) == TOTALS[every_rank - 1]

    def test_rank_one_is_single_point_class(self):
        assert enumerate_exceptional(1) == (point_class(1, 1),)

    def test_defining_equations_hold(self, ctx):
        K = ctx.canonical
        for xi in ctx.exceptional_set:
            assert degree(xi) == -1
            assert intersect(xi, K) == -1

    def test_matches_multiset_oracle(self, every_rank):
        assert set(enumerate_exceptional(every_rank)) == oracle_exceptional(every_rank)

    def test_box_scan_finds_nothing_else(self):
        # plain scan over the full box, no pruning at all
        for r in (1, 2, 3, 4):
            K = canonical_class(r)
            brute = {
                PicardClass(a, b)
                for a in range(-1, 8)
                for b in itertools.product(range(-1, 8), repeat=r)
                if a * a - sum(x * x for x in b) == -1
                and -3 * a + sum(b) == -1
            }
            assert brute == set(enumerate_exceptional(r))

    def test_permutation_closure(self, every_rank):
        members = set(enumerate_exceptional(every_rank))
        for xi in members:
            for perm in itertools.islice(itertools.permutations(range(every_rank)), 24):
                assert PicardClass(xi.a, tuple(xi.b[i] for i in perm)) in members

    def test_canonical_order(self, every_rank):
        out = enumerate_exceptional(every_rank)
        assert list(out) == sorted(out, key=PicardClass.sort_key)

    def test_rank_out_of_range(self):
        with pytest.raises(RankError):
            enumerate_exceptional(9)


class TestCensus:
    def test_all_table_cells(self):
        tables = {r: exceptional_type_census(r) for r in range(1, 9)}
        for pattern_text, row in CENSUS.items():
            for r in range(1, 9):
                table = tables[r]
                got = next((n for pat, n in table.counts if pat.render() == pattern_text), 0)
                assert got == row[r - 1], f"{pattern_text} at rank {r}"
        for r in range(1, 9):
            assert tables[r].total == TOTALS[r - 1]

    def test_spot_examples(self):
        assert exceptional_type_census(7).counts[3][0].render() == "(3;2,1^6)"
        lookup = {pat.render(): n for pat, n in exceptional_type_census(7).counts}
        assert lookup["(3;2,1^6)"] == 7
        lookup = {pat.render(): n for pat, n in exceptional_type_census(5).counts}
        assert lookup["(2;1^5)"] == 1
        lookup = {pat.render(): n for pat, n in exceptional_type_census(4).counts}
        assert lookup["(1;1^2)"] == 6


class TestNullClasses:
    def test_rank8_rows(self):
        recs = enumerate_null_classes(8)
        got = [(rec.representative.a, rec.representative.b) for rec in recs]
        assert got == NULL_ROWS
        assert max(a for a, _ in got) == 11

    def test_defining_equations_and_orientation(self, every_rank):
        for rec in enumerate_null_classes(every_rank):
            rep = rec.representative
            assert degree(rep) == 0
            assert intersect(canonical_class(every_rank), rep) == -2
            assert list(rep.b) == sorted(rep.b)
            assert all(x >= 0 for x in rep.b)

    def test_record_refuses_a_non_null_class_or_a_wrong_splitting(self):
        # ValueError, not assert: these checks hold under python -O too
        with pytest.raises(ValueError, match="1;0,0,0 is not a null class"):
            NullClassRecord(PicardClass(1, (0, 0, 0)), ())
        with pytest.raises(ValueError, match="is not a null class"):
            NullClassRecord(PicardClass(3, (3,)), ())  # D.D = 0, but K.D = -6
        rec = enumerate_null_classes(8)[0]
        x, y = rec.decompositions[0]
        assert NullClassRecord(rec.representative, ((x, y),)).decompositions == ((x, y),)
        with pytest.raises(ValueError, match="does not sum to"):
            NullClassRecord(rec.representative, ((x, x),))

    def test_small_ranks_restrict_to_few_nonzeros(self):
        assert [r.representative.render() for r in enumerate_null_classes(1)] == ["1;1"]
        assert [r.representative.render() for r in enumerate_null_classes(2)] == ["1;0,1"]
        assert [r.representative.render() for r in enumerate_null_classes(3)] == ["1;0,0,1"]
        # rank r rows are exactly the rank-8 rows with at most r nonzero entries
        for r in range(1, 9):
            expected = [
                (a, b[8 - r:]) for a, b in NULL_ROWS if sum(x != 0 for x in b) <= r
            ]
            got = [(rec.representative.a, rec.representative.b) for rec in enumerate_null_classes(r)]
            assert got == expected

    def test_matches_multiset_oracle(self, every_rank):
        got = {(rec.representative.a, rec.representative.b) for rec in enumerate_null_classes(every_rank)}
        expected = set()
        for a in range(1, 13):
            for b in multiset_oracle(every_rank, 3 * a - 2, a * a, 0, a):
                if tuple(sorted(b)) == b:
                    expected.add((a, b))
        assert got == expected


class TestDecompositions:
    def test_pairs_sum_to_representative(self, ctx):
        for rec in enumerate_null_classes(ctx.r):
            for xi1, xi2 in rec.decompositions:
                assert xi1 + xi2 == rec.representative
                assert xi1.sort_key() in ctx.exceptional_index and xi2.sort_key() in ctx.exceptional_index

    def test_pairs_are_unordered_and_deduplicated(self, ctx):
        for rec in enumerate_null_classes(ctx.r):
            seen = set()
            for xi1, xi2 in rec.decompositions:
                key = frozenset({xi1, xi2})
                assert key not in seen
                seen.add(key)
                assert (xi1.a, xi1.b) <= (xi2.a, xi2.b)

    def test_every_representative_with_a_at_least_two_splits(self, every_rank):
        for rec in enumerate_null_classes(every_rank):
            if rec.representative.a >= 2:
                assert rec.decompositions, rec.representative

    def test_published_shapes_all_occur(self):
        by_a = {}
        for rec in enumerate_null_classes(8):
            shapes = by_a.setdefault(rec.representative.a, set())
            shapes.update(
                f"{s1.render()}+{s2.render()}" for s1, s2 in rec.decomposition_shapes()
            )
        for a, expected in SPLIT_SHAPES.items():
            for shape in expected:
                assert shape in by_a[a], f"a={a}: {shape} missing from {sorted(by_a[a])}"

    def test_both_options_at_a7_and_a8_come_from_distinct_representatives(self):
        recs = [rec for rec in enumerate_null_classes(8) if rec.representative.a == 7]
        shapes = [
            {f"{s1.render()}+{s2.render()}" for s1, s2 in rec.decomposition_shapes()}
            for rec in recs
        ]
        assert "(5;2^6,1^2)+(2;1^5)" in shapes[0]
        assert "(6;3,2^7)+(1;1^2)" in shapes[1]

    def test_pencil_class_has_no_split_at_rank_one(self):
        rec, = enumerate_null_classes(1)
        assert rec.decompositions == ()
        assert decompose_null_class(rec.representative) == ()

    def test_pencil_class_splits_off_point_classes_at_higher_rank(self):
        # l - e_i = (l - e_i - e_j) + e_j is a genuine class splitting,
        # even though the generic member of the pencil is irreducible
        rec = enumerate_null_classes(8)[0]
        assert rec.representative.a == 1
        assert len(rec.decompositions) == 7
        shapes = {f"{s1.render()}+{s2.render()}" for s1, s2 in rec.decomposition_shapes()}
        assert shapes == {"(1;1^2)+(0;-1)"}

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            decompose_null_class(PicardClass(1, (0, 0)))

    def test_spot_example_a2(self):
        D = PicardClass(2, (0, 0, 0, 0, 1, 1, 1, 1))
        pairs = decompose_null_class(D)
        shapes = {(type_pattern(x).render(), type_pattern(y).render()) for x, y in pairs}
        assert ("(1;1^2)", "(1;1^2)") in shapes
        # the a=7 representatives admit both published splittings
        D1 = PicardClass(7, (1, 2, 2, 2, 3, 3, 3, 3))
        shapes1 = {
            frozenset((type_pattern(x).render(), type_pattern(y).render()))
            for x, y in decompose_null_class(D1)
        }
        assert frozenset(("(5;2^6,1^2)", "(2;1^5)")) in shapes1
        D2 = PicardClass(7, (2, 2, 2, 2, 2, 2, 3, 4))
        shapes2 = {
            frozenset((type_pattern(x).render(), type_pattern(y).render()))
            for x, y in decompose_null_class(D2)
        }
        assert frozenset(("(6;3,2^7)", "(1;1^2)")) in shapes2


class TestSurfaceContext:
    def test_context_is_consistent(self, every_rank):
        ctx = surface_context(every_rank)
        assert ctx.r == every_rank
        assert ctx.canonical == canonical_class(every_rank)
        assert ctx.exceptional_set == enumerate_exceptional(every_rank)
        assert point_class(every_rank, 1).sort_key() in ctx.exceptional_index

    def test_a_context_is_its_rank(self, every_rank):
        assert [f.name for f in dataclasses.fields(SurfaceContext)] == ["r"]
        built, cached = SurfaceContext(every_rank), surface_context(every_rank)
        assert built == cached and hash(built) == hash(cached)
        assert built.exceptional_set == cached.exceptional_set

    @pytest.mark.parametrize("r", [0, 9, 8.0, "8"])
    def test_rank_is_checked(self, r):
        with pytest.raises(RankError):
            SurfaceContext(r)

    def test_classes_are_not_taken_from_the_caller(self):
        with pytest.raises(TypeError):
            SurfaceContext(2, enumerate_exceptional(2))

    def test_pickle_and_deepcopy_keep_the_context(self, every_rank):
        ctx = surface_context(every_rank)
        copies = [pickle.loads(pickle.dumps(ctx, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in [*copies, copy.deepcopy(ctx)]:
            assert other == ctx and hash(other) == hash(ctx)
            assert other.exceptional_set == ctx.exceptional_set

    def test_search_is_checked_against_the_classical_count(self, monkeypatch):
        monkeypatch.setitem(EXCEPTIONAL_CLASS_COUNTS, 3, 7)
        with pytest.raises(RuntimeError, match="rank 3 has 7 exceptional classes, found 6"):
            enumerate_exceptional.__wrapped__(3)


class TestSharedSearch:
    def test_matches_brute_force(self):
        # combinations_with_replacement over a descending range yields the
        # non-increasing tuples in descending lexicographic order
        windows = [(-4, -4), (-3, 0), (0, 2), (3, 3), (2, 7), (6, 12)]
        squares = [(0, 0), (1, 4), (2, 9), (5, 20), (0, 60)]
        checked = 0
        for n, lo, hi in itertools.product(range(5), (-3, -1, 0, 1), (1, 3)):
            if hi < lo:
                continue
            pool = list(itertools.combinations_with_replacement(range(hi, lo - 1, -1), n))
            for (s_lo, s_hi), (q_lo, q_hi) in itertools.product(windows, squares):
                brute = [c for c in pool
                         if s_lo <= sum(c) <= s_hi and q_lo <= sum(x * x for x in c) <= q_hi]
                assert descending_vectors(n, lo, hi, s_lo, s_hi, q_lo, q_hi) == brute, \
                    (n, lo, hi, s_lo, s_hi, q_lo, q_hi)
                checked += bool(brute)
        assert checked > 100

    @given(st.lists(st.integers(-3, 3), max_size=8).map(tuple))
    def test_orbit_expander_matches_permutations(self, t):
        rep = np.array((5, *sorted(t, reverse=True)), dtype=np.int64)
        rows = expand_orbit(rep)
        assert rows.dtype == np.int64
        assert set(rows[:, 0].tolist()) == {5}
        orbit = [tuple(row[1:]) for row in rows.tolist()]
        assert len(orbit) == len(set(orbit))
        assert set(orbit) == set(itertools.permutations(t))
        assert orbit == sorted(orbit)  # ascending (a, b) order
        multinomial = math.factorial(len(t))
        for count in Counter(t).values():
            multinomial //= math.factorial(count)
        assert len(orbit) == multinomial
        assert orbit_sizes(rep[None, 1:]).tolist() == [len(orbit)]
        # the orderings behind the expander do not depend on the order of their input
        assert list(orderings(rep[1:].tolist())) == list(orderings(t)) == orbit
        # the expander keeps the dtype of the representative
        as_float = expand_orbit(rep.astype(np.float64))
        assert as_float.dtype == np.float64
        np.testing.assert_array_equal(as_float, rows)


class TestOrbitSizes:
    """orbit_sizes against the multinomial of each row's multiplicities."""

    @pytest.mark.parametrize("r", range(1, 9))
    def test_every_mask_of_equal_neighbours(self, r):
        # one non-increasing row per mask: entry j + 1 equals entry j
        # exactly when bit j is set
        rows = []
        for mask in range(1 << (r - 1)):
            row = [0]
            for j in range(r - 1):
                row.append(row[-1] if mask >> j & 1 else row[-1] - 1)
            rows.append(row)
        expected = [math.factorial(r) // math.prod(math.factorial(m) for m in Counter(row).values())
                    for row in rows]
        small = np.array(rows, dtype=np.int64)
        assert orbit_sizes(small).tolist() == expected
        # past SAFE_COEFF_BOUND the rows are Python integers, of both signs
        for shift in (SAFE_COEFF_BOUND + 1, 10**20, -(2**70)):
            big = exact_rows([[shift + 3 * x for x in row] for row in rows])
            assert big.dtype == object
            sizes = orbit_sizes(big)
            assert sizes.dtype == np.int64 and sizes.tolist() == expected
        for dtype in (np.int64, object):
            empty = orbit_sizes(np.zeros((0, r), dtype=dtype))
            assert empty.shape == (0,) and empty.dtype == np.int64


#: Row entries of both signs: small, at SAFE_COEFF_BOUND, and past 2**63.
FLOOR_ENTRY = (
    st.integers(-9, 9)
    | st.sampled_from([-SAFE_COEFF_BOUND, SAFE_COEFF_BOUND])
    | st.integers(2**63, 2**66)
    | st.integers(-(2**66), -(2**63))
)


class TestOrbitFloor:
    """orbit_floor against the smallest pairing over the expanded orbit."""

    @pytest.mark.parametrize("r", range(1, 9))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_expanded_orbit(self, r, data):
        width = r + 1
        # one representative and one row with distinct entries, so that the
        # order of the pairing matters in every example
        reps = data.draw(st.lists(st.lists(st.integers(-1, 2), min_size=width, max_size=width), max_size=2))
        reps = [[1, *sorted([2, 1, -1, *[0] * r][:r], reverse=True)]] + [
            [x0, *sorted(x, reverse=True)] for x0, *x in reps
        ]
        reps = np.array(reps, dtype=np.int64)
        entry = data.draw(st.sampled_from([st.integers(-9, 9), FLOOR_ENTRY]))
        rows = [[5, *range(r)]] + data.draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=3))
        # y0*x0 - <y, x'> for every ordering x' of x, on Python integers
        signed = np.array([[y0, *(-v for v in y)] for y0, *y in rows], dtype=object)
        expected = np.column_stack([(signed @ expand_orbit(rep).T).min(axis=1) for rep in reps]).tolist()
        # the float64 operand and the int64 one (the exact path) agree
        for operand in (float_operand(reps.T), reps.T):
            assert orbit_floor(exact_rows(rows), operand).tolist() == expected
