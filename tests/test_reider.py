import copy
import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delpezzo.bulk import (
    _BLOCK_ROWS,
    SAFE_COEFF_BOUND,
    _box_blocks,
    _box_leaves,
    _candidate_table,
    _decide_block,
    _exceptional_below,
    _sample_blocks,
    _window_hits,
    curve_operand,
    exact_product,
    exact_rows,
    family_operand,
    float_operand,
    orbit_sizes,
    sweep_blocks,
    window_rows,
)
from delpezzo.lattice import (
    LatticeMismatchError,
    PicardClass,
    canonical_class,
    degree,
    intersect,
    line,
    point_class,
)
from delpezzo.enumeration import SurfaceContext, enumerate_exceptional, surface_context
from delpezzo.positivity import (
    EXCEPTION_NONE,
    _family_table,
    exception_flag,
    is_effective,
    is_k_very_ample,
    is_nef,
    minimum_pairing,
)
from delpezzo.reider import (
    MAX_EXHAUSTIVE_LEAVES,
    ObstructionWitness,
    SearchOutcome,
    SweepSummary,
    SweepViolation,
    _box_leaf_count,
    _bounds_record,
    _row_violations,
    consistency_sweep,
    search_obstructions,
    window_applicable,
)
from bulk_reference import pairing_matrix
from test_cli import GOLDEN


@lru_cache(maxsize=None)
def _orderings(pattern):
    """Each distinct ordering of the tuple `pattern` once, in ascending
    order, by brute force over itertools.permutations."""
    return sorted(set(itertools.permutations(pattern)))


def _pattern(beta):
    """beta's values in ascending order, and beta with each entry replaced
    by its rank among them.  The orderings of beta depend only on which of
    its entries are equal, so those of the pattern serve every beta of the
    same pattern, and mapping them back keeps their order."""
    values = sorted(set(beta))
    return values, tuple(values.index(x) for x in beta)


def permutations_of(beta):
    """Each distinct ordering of beta once, in ascending order."""
    values, pattern = _pattern(beta)
    return [tuple(values[i] for i in p) for p in _orderings(pattern)]


def permutation_count(beta):
    """How many distinct orderings beta has, counted by brute force."""
    return len(_orderings(_pattern(beta)[1]))


@lru_cache(maxsize=None)
def _full_table(r, k):
    """Every class of the (r, k) candidate table in (a, b) order, rebuilt
    from the orbit representatives: int64 coefficient rows and D.D."""
    rows = sorted((alpha, *perm) for alpha, *beta in _candidate_table(r, k).reps.tolist()
                  for perm in permutations_of(beta))
    coeffs = np.array(rows, dtype=np.int64).reshape(len(rows), r + 1)
    return coeffs, coeffs[:, 0] ** 2 - (coeffs[:, 1:] ** 2).sum(axis=1)


class TestWindowApplicability:
    def test_degree_two_anticanonical_misses_the_threshold(self):
        ok, M, m2 = window_applicable(-canonical_class(7), 1)
        assert not ok and M == -2 * canonical_class(7) and m2 == 8

    def test_degree_one_anticanonical_misses_it_too(self):
        ok, M, m2 = window_applicable(-canonical_class(8), 1)
        assert not ok and m2 == 4

    def test_big_class_applies(self):
        ok, M, m2 = window_applicable(PicardClass(6, (3, 3)), 1)
        assert ok and M == PicardClass(9, (4, 4)) and m2 == 49

    def test_threshold_values(self):
        # -(k+1)K at rank 8 is applicable for every k >= 1, -kK only from k = 4
        K = canonical_class(8)
        for k in range(1, 6):
            assert window_applicable(-(k + 1) * K, k)[0] == (k >= 1)
            assert window_applicable(-k * K, k)[0] == (k >= 4)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            window_applicable(line(2), -1)


class TestBoxPremises:
    def test_hold_at_every_rank(self, every_rank):
        # building a table checks the premises, whatever the cache holds
        assert _candidate_table.__wrapped__(every_rank, 1).size > 0

    def test_guard_class_is_nef(self, ctx):
        guard = 6 * ctx.anticanonical - line(ctx.r)
        assert is_nef(guard)

    @pytest.mark.parametrize("broken,message", [
        (lambda L: L.a != 17, "17;6,6,6 is not nef"),  # the guard 6(-K) - l
        (lambda L: L.b != (1, 0, 0), "l - e_1 is not nef"),
    ], ids=["guard", "pencil"])
    def test_a_broken_premise_is_refused(self, monkeypatch, broken, message):
        import delpezzo.bulk as bulk

        # built past the cache, whose table would skip the check
        monkeypatch.setattr(bulk, "is_nef", broken)
        with pytest.raises(RuntimeError, match=f"box premise broken at rank 3: {message}"):
            _candidate_table.__wrapped__(3, 1)
        monkeypatch.undo()
        assert _candidate_table.__wrapped__(3, 1).size > 0

    def test_table_refuses_a_non_effective_witness(self, monkeypatch):
        import delpezzo.reider as reider

        # each reported witness is certified; the check raises under
        # ``python -O`` too instead of reporting (D, None)
        monkeypatch.setattr(reider, "_effectivity", lambda D: None)
        with pytest.raises(RuntimeError, match="let a non-effective class through: 1;0,1,1"):
            search_obstructions(PicardClass(3, (2, 2, 1)), 1)

    def test_table_refuses_a_wrong_M_D(self, monkeypatch):
        import delpezzo.bulk as bulk

        # a witness reads M.D off M and D; the window engine's own M.D for
        # each hit must agree with it, or the search raises
        rows = bulk.window_rows

        def shifted(M, k):
            found, candidates = rows(M, k)
            return [(D, md + 1) for D, md in found], candidates

        monkeypatch.setattr(bulk, "window_rows", shifted)
        with pytest.raises(RuntimeError, match="window engine gave M.D = 1 for 1;1,1, not 0"):
            search_obstructions(PicardClass(3, (2, 2)), 1)

    def test_one_M_D_per_witness(self, monkeypatch):
        # the engine's M.D of a hit is checked against the witness's own,
        # measured once when the witness is built: one intersect per witness
        import delpezzo.reider as reider

        calls = []
        intersect_ = reider.intersect
        monkeypatch.setattr(reider, "intersect", lambda *args: calls.append(args) or intersect_(*args))
        outcome = search_obstructions(PicardClass(7, (3, 3, 2, 2, 2, 1, 1)), 2)
        assert len(outcome.witnesses) == 3 and len(calls) == 3

    def test_both_entry_points_check_the_premises(self, monkeypatch):
        import delpezzo.bulk as bulk

        # both build their table through the uncached constructor, which
        # finds the guard 6(-K) - l not nef
        monkeypatch.setattr(bulk, "_candidate_table", _candidate_table.__wrapped__)
        monkeypatch.setattr(bulk, "is_nef", lambda L: False)
        with pytest.raises(RuntimeError, match="at rank 3"):
            search_obstructions(PicardClass(3, (2, 2, 1)), 1)
        with pytest.raises(RuntimeError, match="at rank 3"):
            consistency_sweep(3, 1, 4)
        # an inapplicable search scans no box, so it needs no premise
        assert not search_obstructions(-canonical_class(8), 1).applicable


class TestSearch:
    def test_not_applicable_outcome_records_reason(self):
        out = search_obstructions(-canonical_class(8), 1)
        assert not out.applicable and out.witnesses == ()
        assert "M.M = 4" in out.reason

    def test_not_nef_outcome_records_reason_after_one_nef_test(self, monkeypatch):
        import delpezzo.reider as reider

        calls = []

        def counting_values(M):
            calls.append(M)
            return family_values(M)

        family_values = reider._family_values
        monkeypatch.setattr(reider, "_family_values", counting_values)
        # M = L - K = (2; 3, 3) pairs to -4 with l - e_1 - e_2
        out = search_obstructions(PicardClass(-1, (2, 2)), 1)
        assert not out.applicable and out.witnesses == ()
        assert out.reason == "M = 2;3,3 is not nef"
        assert calls == [out.M]

    def test_known_witness(self):
        # L = (3;2,2) at k = 1: M = (6;3,3) and D = l - e_1 - e_2 sits in
        # the window with M.D = 0, D.D = -1
        out = search_obstructions(PicardClass(3, (2, 2)), 1)
        assert out.applicable
        hits = {w.D: w for w in out.witnesses}
        D = PicardClass(1, (1, 1))
        assert D in hits
        w = hits[D]
        assert w.MD == 0 and w.D_squared == -1
        assert w.window == ((-2, "<=", -1), (-2, "<", 0), (0, "<", 4))
        assert w.effectivity_certificate.replay() == D

    def test_records_refuse_what_fails(self):
        # ValueError, not assert: these checks hold under python -O too.
        # D = 2l has D.D = 4 and M.D = 2 * M.a for M = (M.a; 0, 0, 0)
        D = PicardClass(2, (0, 0, 0))
        _, cert = is_effective(D)
        # (k, M.a) breaking M.D - k - 1 <= D.D, then 2*D.D < M.D, then the
        # first and M.D < 2k + 2, then the second and M.D < 2k + 2 (which
        # the other two imply, so it never fails alone)
        for k, a in [(6, 6), (1, 1), (1, 5), (0, 2)]:
            with pytest.raises(ValueError, match=f"M.D = {2 * a}, D.D = 4 lies outside the window at k = {k}"):
                ObstructionWitness(D, PicardClass(a, (0, 0, 0)), k, cert)
        M = PicardClass(5, (0, 0, 0))
        witness = ObstructionWitness(D, M, 5, cert)
        assert witness.window == ((4, "<=", 4), (8, "<", 10), (10, "<", 12))
        # M.D and D.D are measured off M and D, never handed in
        with pytest.raises(TypeError):
            ObstructionWitness(D, M, 5, cert, 10, 4)
        for name in ("MD", "D_squared"):
            with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
                dataclasses.replace(witness, **{name: 4})
        _, other = is_effective(PicardClass(1, (0, 0, 0)))
        with pytest.raises(ValueError, match="replays to another class"):
            ObstructionWitness(D, M, 5, other)
        with pytest.raises(LatticeMismatchError):
            ObstructionWitness(D, PicardClass(5, (0, 0)), 5, cert)

    def test_the_reason_is_read_off_the_subject(self):
        # -K at rank 8 has M.M = 4 < 9, -K at rank 6 has M.M = 16: an
        # outcome moved to the other subject reads its reason afresh
        out = search_obstructions(-canonical_class(8), 1)
        assert out.reason == "M.M = 4 < 9"
        moved = dataclasses.replace(out, subject=-canonical_class(6))
        assert moved.applicable and moved.reason is None
        assert moved == search_obstructions(-canonical_class(6), 1) and moved.candidates > 0
        back = dataclasses.replace(moved, subject=-canonical_class(8))
        assert back == out and back.reason == out.reason
        # a reason is no argument: the constructor takes the subject and k
        with pytest.raises(TypeError):
            SearchOutcome(out.subject, 1, out.reason)
        with pytest.raises(TypeError):
            SearchOutcome(out.subject, 1, reason=None)
        # and a read-only property, as the record is frozen
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.reason = None
        assert out.reason == "M.M = 4 < 9"
        # each outcome the search builds is the one the constructor builds
        found = search_obstructions(PicardClass(3, (2, 2)), 1)
        assert found.witnesses and dataclasses.replace(found) == found == SearchOutcome(PicardClass(3, (2, 2)), 1)

    def test_a_witness_outside_the_window_is_refused(self):
        # handed M.D = 3 and D.D = 1, (1; 1, 1) would sit in the window at
        # k = 1; its real D.D = -1 does not
        D = PicardClass(1, (1, 1))
        ok, cert = is_effective(D)
        assert ok and degree(D) == -1
        with pytest.raises(ValueError, match="witness 1;1,1: M.D = 3, D.D = -1 lies outside the window at k = 1"):
            ObstructionWitness(D, PicardClass(3, (0, 0)), 1, cert)

    def test_an_inapplicable_outcome_has_no_witnesses(self):
        witness = search_obstructions(PicardClass(3, (2, 2)), 1).witnesses[0]
        out = search_obstructions(-canonical_class(7), 1)
        assert out.reason == "M.M = 8 < 9" and out.witnesses == () and out.candidates == 0
        # the premise, witnesses and candidates are measured, never handed in
        with pytest.raises(TypeError):
            SearchOutcome(out.subject, 1, (witness,), 0)
        measured = [("reason", None), ("M", witness.M), ("M_squared", 36), ("witnesses", (witness,)), ("candidates", 1)]
        for name, value in measured:
            with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
                dataclasses.replace(out, **{name: value})

    def test_every_witness_is_of_its_outcomes_M_and_k(self):
        # an outcome moved to another k or subject searches again
        L = PicardClass(3, (2, 2))
        out = search_obstructions(L, 1)
        assert out.witnesses
        for subject, k in [(L, 2), (PicardClass(4, (2, 2)), 1)]:
            again = dataclasses.replace(out, subject=subject, k=k)
            assert again == search_obstructions(subject, k) and again.witnesses
            assert all(w.M == again.M and w.k == k for w in again.witnesses)
        assert dataclasses.replace(out, subject=PicardClass(3, (2, 2))) == out

    def test_an_outcome_checks_its_k(self):
        L = PicardClass(3, (2, 2))
        with pytest.raises(TypeError):
            SearchOutcome(L, 1.5)
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            SearchOutcome(L, -1)
        out = SearchOutcome(L, np.int64(1))
        assert type(out.k) is int and out == search_obstructions(L, 1)

    def test_an_applicable_search_reads_the_premise_once(self, monkeypatch):
        import delpezzo.reider as reider

        calls = []

        def counting_values(M):
            calls.append(M)
            return family_values(M)

        family_values = reider._family_values
        monkeypatch.setattr(reider, "_family_values", counting_values)
        out = search_obstructions(PicardClass(3, (2, 2)), 1)
        assert out.applicable and out.witnesses
        assert calls == [out.M]

    def test_the_output_is_no_alias_of_the_record(self):
        out = search_obstructions(PicardClass(3, (2, 2)), 1)
        count = out.nodes_visited
        assert count == out.candidates == out.search_bounds["effective_candidates"] > 0
        for bounds in (out.as_dict()["search_bounds"], out.search_bounds):
            bounds["effective_candidates"] = -1
            bounds["derivation"].clear()
        assert out.nodes_visited == count and out.search_bounds == _bounds_record(1, count)
        assert out.as_dict()["nodes_visited"] == count

    def test_an_outcome_hashes_like_its_pickled_twin(self):
        for L in (PicardClass(3, (2, 2)), -canonical_class(8)):
            out = SearchOutcome(L, 1)
            twins = [pickle.loads(pickle.dumps(out, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
            for twin in twins + [copy.deepcopy(out)]:
                assert twin == out and hash(twin) == hash(out)
                assert json.dumps(twin.as_dict()) == json.dumps(out.as_dict())

    def test_very_ample_anticanonical_has_empty_window(self):
        out = search_obstructions(-canonical_class(6), 1)
        assert out.applicable and out.witnesses == ()

    def test_violating_exceptional_class_is_always_a_witness(self):
        # nef, applicable, fails the pairing test at xi = l - e_1 - e_2
        L = PicardClass(2, (1, 1))
        assert is_nef(L) and minimum_pairing(L) == 0
        out = search_obstructions(L, 1)
        assert out.applicable
        assert PicardClass(1, (1, 1)) in {w.D for w in out.witnesses}

    def test_exception_class_obstruction_is_visible_at_rank_8(self):
        # -(k+1)K satisfies all pairing inequalities yet the window finds
        # the anticanonical class as its one obstruction: -K has
        # M.D = k + 2, D.D = 1 inside the window
        K = canonical_class(8)
        for k in (1, 2):
            L = -(k + 1) * K
            out = search_obstructions(L, k)
            assert minimum_pairing(L) >= k
            assert not is_k_very_ample(L, k).k_very_ample
            assert [w.D for w in out.witnesses] == [-K]
            assert out.witnesses[0].MD == k + 2 and out.witnesses[0].D_squared == 1

    def test_determinism(self):
        L = PicardClass(4, (2, 2, 1))
        first = search_obstructions(L, 1)
        second = search_obstructions(L, 1)
        assert first.as_dict() == second.as_dict()
        ordered = [w.D.sort_key() for w in first.witnesses]
        assert ordered == sorted(ordered)

    def test_witness_records_match_golden(self):
        # Full witness records, certificates included.  nodes_visited is
        # left out: it counts candidates, not the DFS nodes its name says.
        subjects = [
            (-2 * canonical_class(8), 1),
            (PicardClass(3, (2, 2)), 1),
            (PicardClass(7, (3, 3, 2, 2, 2, 1, 1)), 2),
        ]
        records = []
        for L, k in subjects:
            outcome = search_obstructions(L, k)
            records.append({
                "subject": L.render(), "r": L.r, "k": k,
                "witnesses": [w.as_dict() for w in outcome.witnesses],
                "search_bounds": outcome.search_bounds,
            })
        assert json.dumps(records, indent=2) + "\n" == (GOLDEN / "witness_records.json").read_text()

    @pytest.mark.parametrize("L,k", [
        (-2 * canonical_class(8), 1),
        (PicardClass(3, (2, 2)), 1),
        (PicardClass(7, (3, 3, 2, 2, 2, 1, 1)), 2),
        (-3 * canonical_class(8), 2),
        (PicardClass(2, (1, 1)), 1),
    ])
    def test_window_is_read_off_the_witness(self, L, k):
        # the triples the search stored in each witness before it kept k,
        # rebuilt from M, D and k alone
        out = search_obstructions(L, k)
        assert out.witnesses
        for w in out.witnesses:
            md, d2 = intersect(out.M, w.D), degree(w.D)
            assert (w.M, w.k, w.MD, w.D_squared) == (out.M, k, md, d2)
            assert w.window == ((md - k - 1, "<=", d2), (2 * d2, "<", md), (md, "<", 2 * k + 2))
            assert w.as_dict()["window"] == [list(t) for t in w.window]
        assert out.nodes_visited == out.search_bounds["effective_candidates"]
        names = {record: [f.name for f in dataclasses.fields(record)] for record in (ObstructionWitness, SearchOutcome)}
        assert names[ObstructionWitness] == ["D", "M", "k", "effectivity_certificate", "MD", "D_squared"]
        assert names[SearchOutcome] == ["subject", "k", "reason", "M", "M_squared", "witnesses", "candidates"]

    def test_desk_scale_warning(self):
        # the search, the public constructor and a replaced k warn alike;
        # k <= 2 warns on none of the three routes
        L = PicardClass(12, (4,))
        message = r"k = 3 is beyond the desk-scale envelope \(k <= 2\); the scan box has alpha <= 42"
        with pytest.warns(RuntimeWarning, match=message) as record:
            search_obstructions(L, 3)
        assert len(record) == 1
        with pytest.warns(RuntimeWarning, match=message):
            SearchOutcome(L, 3)
        outcome = search_obstructions(L, 2)
        with pytest.warns(RuntimeWarning, match=message):
            moved = dataclasses.replace(outcome, k=3)
        assert moved.k == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (0, 1, 2):
                assert SearchOutcome(L, k) == search_obstructions(L, k) == dataclasses.replace(outcome, k=k)

    def test_witness_window_inequalities_hold(self):
        for L in (PicardClass(3, (2, 2, 0)), PicardClass(4, (2, 2, 2)), PicardClass(5, (2, 2, 1))):
            out = search_obstructions(L, 1)
            if not out.applicable:
                continue
            for w in out.witnesses:
                assert w.MD == intersect(out.M, w.D)
                assert w.D_squared == degree(w.D)
                assert w.MD - 1 - 1 <= w.D_squared
                assert 2 * w.D_squared < w.MD < 2 * 1 + 2
                assert is_effective(w.D)[0]


class TestBoxSoundness:
    """An unbounded reference scan may not find witnesses outside the
    derived box (checked on small ranks where the scan is exhaustive)."""

    @staticmethod
    def _reference_witnesses(L, k, alpha_cap=40, beta_cap=40):
        M = L - canonical_class(L.r)
        r = L.r
        grids = np.meshgrid(
            np.arange(0, alpha_cap + 1),
            *[np.arange(-beta_cap, beta_cap + 1)] * r,
            indexing="ij",
        )
        rows = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
        md = rows[:, 0] * M.a - rows[:, 1:] @ np.array(M.b, dtype=np.int64)
        d2 = rows[:, 0] ** 2 - (rows[:, 1:] ** 2).sum(axis=1)
        mask = (md - k - 1 <= d2) & (2 * d2 < md) & (md < 2 * k + 2)
        out = []
        for row in rows[mask]:
            D = PicardClass(int(row[0]), tuple(int(x) for x in row[1:]))
            if is_effective(D)[0]:
                out.append(D)
        return sorted(out, key=PicardClass.sort_key)

    @pytest.mark.parametrize("r", [1, 2])
    def test_reference_scan_matches_derived_box(self, r):
        nef_classes = []
        for a in range(0, 7):
            for b in itertools.product(range(0, a + 1), repeat=r):
                L = PicardClass(a, b)
                if is_nef(L):
                    nef_classes.append(L)
        checked = 0
        for L in nef_classes:
            if not window_applicable(L, 1)[0]:
                continue
            checked += 1
            reference = self._reference_witnesses(L, 1)
            searched = sorted((w.D for w in search_obstructions(L, 1).witnesses),
                              key=PicardClass.sort_key)
            assert reference == searched, L
        assert checked >= 10

    def test_candidates_respect_the_stated_bounds(self):
        for r, k in ((2, 1), (8, 1), (5, 2)):
            coeffs, squares = _full_table(r, k)
            assert (coeffs[:, 0] >= 0).all()
            assert (coeffs[:, 0] <= 6 * (2 * k + 1)).all()
            assert (coeffs[:, 1:] >= -(2 * k + 1)).all()
            assert (coeffs[:, 1:] <= coeffs[:, :1]).all()
            assert (np.abs(squares) <= k).all()
            anti_deg = 3 * coeffs[:, 0] - coeffs[:, 1:].sum(axis=1)
            assert ((1 <= anti_deg) & (anti_deg <= 2 * k + 1)).all()


# SHA-256 of the int64 coeffs and squares arrays of the whole table, frozen
# from the search that expanded each representative with
# set(itertools.permutations(b)); the test rebuilds them with _full_table.
CANDIDATE_TABLE_DIGESTS = {
    (2, 1): ((10, 3), "f4d6b180f1bcdca4955182ec4de7676eb3d84ce84eefbc5039ba8231042ad3f9",
             "466f9035deb21a9eeafe555e1d1c00e399dc1cf3eec9befc98ba3a76aac891a1"),
    (5, 2): ((972, 6), "d6839ac66f6bd4ac8cf092a8ef2174f864c1421e4e5c0829f52f31b42b8e891d",
             "bdf537888c9579048b1386d5d9aca73a6ae930e307df33a808a73c2e0146450b"),
    (7, 1): ((2270, 8), "8871f11a16d5f01cc69dfa7299e00514ce078d5d4ad2a88902b10ad81114dccd",
             "f3ab6f2c4d906018c3588b5800a968d50464fc5bc68f567a0867bad01347c728"),
    (7, 2): ((42577, 8), "fd45218c29139210a72c5c21613bc9c953ee0303576f30215311f76a1c44a059",
             "677fe0f16b48e6f5c882f8a6f39b33c7edfed2061ab5ce89189b83842677dfbd"),
    (8, 1): ((50161, 9), "95e34633d62b5b208037cf9a53c6f833e65cf217386d3ca8cd4762ac19d4e947",
             "8693836c0c3fd83aaaddfa44852aeba76376a4610034ce3b343e17ca60f0979a"),
}


# Orbit count, class count and SHA-256 of the int64 representatives, frozen
# from the table that expanded every orbit.  (8, 2) is pinned by these
# alone: expanding its 1,479,841 classes in the test would take seconds.
REPRESENTATIVE_DIGESTS = {
    (2, 1): (6, 10, "ec0dd0e9298c4877fe85898904171100df212cc6d6dd74d26769ac910c7ed270"),
    (5, 2): (50, 972, "e1255923d08b0506f13f05da28b65f4b02360213581185dc28808de23f2891ca"),
    (7, 1): (33, 2270, "14fe86de4bdc57a03750fbbf4e379a0f0fcb487f37bb6cb1822d3242f356057c"),
    (7, 2): (194, 42577, "b8a3d211f75bb4caa1bb16337ecb22e837ccaaba8f752fdefb225acddba2febd"),
    (8, 1): (118, 50161, "1701ede66ba957aed0179915b6e9b7db94c7fceb934bd1ee3a4f464afe41cea0"),
    (8, 2): (974, 1479841, "4ee830e7d64a10a1ce8c33ea0fc2c1c063f01ea6a12098436f659d1f738164b0"),
}


@pytest.mark.parametrize("r,k", sorted(REPRESENTATIVE_DIGESTS))
def test_candidate_table_is_pinned(r, k):
    n_orbits, n_classes, reps_digest = REPRESENTATIVE_DIGESTS[r, k]
    table = _candidate_table(r, k)
    assert table.reps.shape == (n_orbits, r + 1)
    assert table.size == int(orbit_sizes(table.reps[:, 1:]).sum()) == n_classes
    assert hashlib.sha256(table.reps.astype("<i8").tobytes()).hexdigest() == reps_digest
    if (r, k) in CANDIDATE_TABLE_DIGESTS:
        shape, coeffs_digest, squares_digest = CANDIDATE_TABLE_DIGESTS[r, k]
        coeffs, squares = _full_table(r, k)
        assert coeffs.shape == shape
        assert hashlib.sha256(coeffs.astype("<i8").tobytes()).hexdigest() == coeffs_digest
        assert hashlib.sha256(squares.astype("<i8").tobytes()).hexdigest() == squares_digest


@pytest.mark.parametrize("r", range(1, 9))
def test_only_the_rank8_anticanonical_class_can_witness_a_passing_row(r):
    """The passing side of criterion 5, for every class and not only the
    swept boxes, read off each candidate table at k <= 4.

    Three facts: -K is ample, so (-K).D >= 1 for every effective D != 0;
    adjunction makes D.D + K.D even; the Hodge index gives
    (K.D)^2 >= (9 - r)*D.D.  At r >= 2 the pairing test at k says that
    L + kK is nef, so L.D >= k*(-K).D and M.D >= (k+1)*(-K).D for every
    effective D.  The window holds 2*D.D < M.D <= top, with
    top = min(D.D + k + 1, 2k + 1), so a witness of a passing row needs
    max(2*D.D + 1, (k+1)*(-K).D) <= top.  That caps (-K).D at 1, parity
    makes D.D odd and D.D >= M.D - k - 1 >= 0 makes it at least 1; the
    Hodge index then forces r = 8 and D = -K, whose rows L are -kK and
    -(k+1)K, the two rank-8 exceptions.  At r = 1 the effective cone is
    spanned by e_1 and f = l - e_1, with (-K).f = 2, and the bound for
    D = x*e_1 + y*f is M.D >= k(x + y) + x + 2y, which no row meets."""
    for k in range(5):
        table = _candidate_table(r, k)
        alpha, beta = table.reps[:, 0], table.reps[:, 1:]
        squares = alpha ** 2 - (beta ** 2).sum(axis=1)
        anticanonical = 3 * alpha - beta.sum(axis=1)  # (-K).D
        assert (squares == table.squares).all()
        assert ((squares - anticanonical) % 2 == 0).all()  # adjunction: D.D + K.D is even
        top = np.minimum(squares + k + 1, 2 * k + 1)
        if r == 1:
            x, y = alpha - beta[:, 0], alpha  # D = x*e_1 + y*f
            assert (x >= 0).all() and (y >= 0).all()
            floor = k * (x + y) + x + 2 * y
        else:
            floor = (k + 1) * anticanonical
        feasible = table.reps[np.maximum(2 * squares + 1, floor) <= top].tolist()
        assert feasible == ([[3] + [1] * 8] if r == 8 and k >= 1 else []), (r, k)


def _full_table_window(r, k, M):
    """The window test on every class of the table, as (class row, M.D)
    pairs: the unfolded reference."""
    coeffs, d2 = _full_table(r, k)
    md = coeffs @ exact_rows([[M.a, *(-x for x in M.b)]])[0]
    hit = (md - k - 1 <= d2) & (2 * d2 < md) & (md < 2 * k + 2)
    return list(zip(coeffs[hit].tolist(), md[hit].tolist()))


def _hits(table, M):
    """``_window_hits(table, M)`` as one (o, C, ci, ri, md) per orbit with
    a hit: C holds the orbit's class rows, and hit j is class ``C[ci[j]]``
    against row ``M[ri[j]]``, with M.D = ``md[j]``."""
    found = []
    for o, rows, window, md in _window_hits(table, M):
        pi, ci = window.nonzero()
        if len(ci):
            found.append((o, table.orbit(o)[0], ci, rows[pi], md[window]))
    return found


# (r, k) tables the folded window is checked on; k = 0 has an empty table
WINDOW_TABLES = [(2, 1), (5, 2), (7, 1), (8, 1), (3, 0), (8, 0)]


def _draw_M(draw, r):
    small = st.integers(-8, 40)
    huge = st.integers(-(2**70), 2**70)
    if draw(st.booleans()):
        # nef: a non-negative combination of -K, l and the pencils l - e_i
        weight = st.integers(0, 6) | st.integers(0, 2**66)
        M = draw(weight) * -canonical_class(r) + draw(weight) * line(r)
        for i in range(1, r + 1):
            M = M + draw(weight) * (line(r) - point_class(r, i))
    else:
        coefficient = small | huge
        M = PicardClass(draw(coefficient), tuple(draw(coefficient) for _ in range(r)))
    return M


@st.composite
def window_subjects(draw):
    r, k = draw(st.sampled_from(WINDOW_TABLES))
    return r, k, _draw_M(draw, r)


@st.composite
def window_blocks(draw):
    r, k = draw(st.sampled_from(WINDOW_TABLES))
    return r, k, [_draw_M(draw, r) for _ in range(draw(st.integers(1, 6)))]


EDGE = SAFE_COEFF_BOUND + 3  # largest |entry| of an int64 M = L - K


@st.composite
def edge_blocks(draw):
    """(r, k, rows): up to six M rows with entries within EDGE, the edge
    itself drawn often, some of them pencils (a + 3; a + 1, 1, ...)."""
    r, k = draw(st.sampled_from([(2, 1), (5, 2), (7, 1), (8, 1)]))
    entry = st.sampled_from([-EDGE, EDGE, 1 - EDGE, EDGE - 1]) | st.integers(-EDGE, EDGE)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            a = draw(st.integers(EDGE - 13, EDGE - 3))
            rows.append([a + 3, a + 1] + [1] * (r - 1))
        else:
            rows.append([draw(entry) for _ in range(r + 1)])
    return r, k, rows


class TestFoldedWindow:
    """The orbit-folded window test against the full-table expression."""

    @given(window_subjects())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_table(self, subject):
        r, k, M = subject
        found = window_rows(M, k)[0]
        assert found == _full_table_window(r, k, M)
        # the one M.D that leaves bulk is a Python int on either route
        assert all(type(md) is int for _, md in found)

    @given(window_blocks())
    @settings(max_examples=50, deadline=None)
    def test_many_rows_at_once_match_the_full_table(self, block):
        # int64 and exact rows share one block once any row needs exactness;
        # each M is sorted, as window_rows sorts its M before the window
        r, k, Ms = block
        Ms = [PicardClass(M.a, tuple(sorted(M.b, reverse=True))) for M in Ms]
        table = _candidate_table(r, k)
        found = [[] for _ in Ms]
        for _, C, ci, ri, md in _hits(table, exact_rows([[M.a, *M.b] for M in Ms])):
            for c, j, x in zip(ci.tolist(), ri.tolist(), md.tolist()):
                found[j].append((C[c].astype(np.int64).tolist(), x))
        assert [sorted(f) for f in found] == [_full_table_window(r, k, M) for M in Ms]

    @given(edge_blocks())
    @example((8, 1, [[EDGE, EDGE - 2] + [1] * 7, [EDGE - 1, 1 - EDGE] + [-EDGE] * 7]))
    @settings(max_examples=100, deadline=None)
    def test_int64_rows_at_the_edge_match_exact_rows(self, block):
        # M = L - K for L within SAFE_COEFF_BOUND reaches SAFE_COEFF_BOUND + 3;
        # the float route must give the hits of the same rows on Python
        # integers, each row sorted as the window reads it
        r, k, rows = block
        rows = [[a, *sorted(b, reverse=True)] for a, *b in rows]
        table = _candidate_table(r, k)

        def hits(M):
            return sorted((o, c, j, x) for o, _, ci, ri, md in _hits(table, M)
                          for c, j, x in zip(ci.tolist(), ri.tolist(), md.tolist()))

        found = hits(np.array(rows, dtype=np.int64))
        assert table.operand.dtype == np.float64  # the float route runs
        assert found == hits(np.array(rows, dtype=object))
        if (r, k) == (8, 1) and rows[0] == [EDGE, EDGE - 2] + [1] * 7:
            # the pencil (a; a, 0^7) - K: the seven e_j and l - e_1 - e_j
            # (M.D = 1, D.D = -1) and l - e_1 (M.D = 2, D.D = 0)
            assert sum(j == 0 for _, _, j, _ in found) == 15

    @pytest.mark.parametrize("r,k,a_max", [(2, 1, 8), (5, 2, 6), (7, 1, 5), (8, 1, 4)])
    def test_matches_the_full_table_on_a_nef_box(self, r, k, a_max):
        hits = 0
        for row in ref_box_rows(r, a_max)[0].tolist():
            M = PicardClass(row[0], tuple(row[1:])) - canonical_class(r)
            found = window_rows(M, k)[0]
            assert found == _full_table_window(r, k, M), M
            assert all(type(md) is int for _, md in found)
            hits += len(found)
        assert hits > 0

    def test_a_block_that_reaches_no_orbit_has_no_hits(self):
        # M = L - K with L a nef multiple of -K plus l has M.D >= 4 > 2k + 1
        # on every candidate class D ((-K).D >= 1 and l.D >= 0), so no orbit
        # is reached: no hits and no witnesses, though every row applies
        r, k = 8, 1
        K = canonical_class(r)
        Ls = [-3 * K, -4 * K, -3 * K + line(r)]
        Ms = [L - K for L in Ls]
        assert all(list(M.b) == sorted(M.b, reverse=True) for M in Ms)  # rows as the window reads them
        assert list(_window_hits(_candidate_table(r, k), exact_rows([[M.a, *M.b] for M in Ms]))) == []
        assert all(_full_table_window(r, k, M) == [] for M in Ms)
        counts, violations = decide_per_row([[L.a, *L.b] for L in Ls], k, r)
        assert counts == (3, 3, 0, 0, 0) and violations == []

    def test_hits_of_non_adjacent_rows_map_back_to_their_rows(self):
        # rows 0 and 2 reach the orbit of the e_i and meet different classes
        # of it (M.e_1 = 2 for row 0, M.e_1 = M.e_2 = 2 for row 2); row 1
        # reaches none.  Each row is descending, as the window reads it.
        r, k = 8, 1
        K = canonical_class(r)
        Ms = [line(r) - point_class(r, 1) - K, -4 * K, line(r) - point_class(r, 1) - point_class(r, 2) - K]
        assert all(list(M.b) == sorted(M.b, reverse=True) for M in Ms)
        table = _candidate_table(r, k)
        found = [[] for _ in Ms]
        shared = []
        for o, C, ci, ri, md in _hits(table, exact_rows([[M.a, *M.b] for M in Ms])):
            if set(ri.tolist()) == {0, 2}:
                shared.append(o)
            for c, j, x in zip(ci.tolist(), ri.tolist(), md.tolist()):
                found[j].append((C[c].tolist(), x))
        assert shared  # some orbit is reached by rows 0 and 2 and not by row 1
        assert [sorted(f) for f in found] == [_full_table_window(r, k, M) for M in Ms]
        assert found[1] == [] and sorted(found[0]) != sorted(found[2])

    @pytest.mark.parametrize("r,k", WINDOW_TABLES)
    def test_orbits_partition_the_table(self, r, k):
        # each representative expands to exactly its distinct permutations,
        # the orbits are disjoint, and their sizes sum to the table size
        table = _candidate_table(r, k)
        sizes = orbit_sizes(table.reps[:, 1:])
        assert len(sizes) == len(table.reps) == len(table.squares)
        seen = set()
        columns = zip(table.reps.tolist(), sizes.tolist(), table.squares.tolist())
        for o, (rep, size, d2) in enumerate(columns):
            alpha, *beta = rep
            assert beta == sorted(beta, reverse=True)
            got = [tuple(row) for row in table.orbit(o)[0].tolist()]
            assert got == [(alpha, *perm) for perm in permutations_of(beta)]
            assert len(got) == size
            assert d2 == alpha * alpha - sum(x * x for x in beta)
            seen.update(got)
        assert len(seen) == table.size == len(_full_table(r, k)[0])
        if k == 0:
            assert len(table.reps) == 0

    def test_reported_witnesses_carry_their_own_certificates(self):
        # the table tests one representative per orbit; each witness a
        # search reports, in any ordering of its orbit, is certified afresh.
        # Past the nef cone, (1; -1^7) at k = 2 meets witnesses whose
        # certificates subtract two curves, in an order of their own.
        for r, k, a_max in ((8, 1, 6), (7, 2, 5)):
            subjects = [PicardClass(row[0], tuple(row[1:])) for row in ref_box_rows(r, a_max)[0].tolist()]
            if k == 2:
                subjects.append(PicardClass(1, (-1,) * 7))
            witnesses = [w for L in subjects for w in search_obstructions(L, k).witnesses]
            assert any(list(w.D.b) != sorted(w.D.b, reverse=True) for w in witnesses)
            assert any(len(w.effectivity_certificate.subtracted) == 2 for w in witnesses) == (k == 2)
            for w in witnesses:
                assert is_effective(w.D) == (True, w.effectivity_certificate)


# ---------------------------------------------------------------------------
# The per-row sweep, kept as an oracle for the batched one: the nef rows
# come from a depth-first scan (or the same seeded sampler), and each row
# runs one search_obstructions call and one pairing vector.


def ref_box_rows(r, a_max):
    """Sorted nef representatives with 0 <= a <= a_max and their orbit
    sizes, by a depth-first scan of the descending tuples with b_1 + b_i <= a."""
    leaves = []
    for a in range(0, a_max + 1):
        vec = []

        def rec(slots, hi):
            if slots == 0:
                leaves.append((a, *vec))
                return
            for v in range(hi, -1, -1):
                vec.append(v)
                rec(slots - 1, min(v, a - vec[0]))
                vec.pop()

        rec(r, a)
    coeffs = np.array(leaves, dtype=np.int64).reshape(len(leaves), r + 1)
    coeffs = coeffs[pairing_matrix(coeffs, r).min(axis=1) >= 0]
    return coeffs, np.array([permutation_count(row[1:]) for row in coeffs.tolist()], dtype=np.int64)


def ref_box_leaves(r, a_max):
    """The box leaves built one coordinate at a time: each row is repeated
    once per admissible value of its next coordinate, from
    min(b_j, a - b_1) down to 0."""
    rows = np.arange(a_max + 1, dtype=np.int64)[:, None]
    top = rows[:, 0]
    for _ in range(r):
        count = top + 1
        offset = np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)
        value = np.repeat(top, count) - offset
        rows = np.column_stack([np.repeat(rows, count, axis=0), value])
        top = np.minimum(value, rows[:, 0] - rows[:, 1])
    return rows


def ref_sample_rows(r, a_max, count, seed):
    rng = np.random.default_rng(seed)
    kept = []
    total = 0
    while total < count:
        a = rng.integers(0, a_max + 1, size=4096)
        b = rng.integers(0, a_max + 1, size=(4096, r))
        coeffs = np.column_stack([a, b]).astype(np.int64)
        coeffs = coeffs[(b <= a[:, None]).all(axis=1)]
        coeffs = coeffs[pairing_matrix(coeffs, r).min(axis=1) >= 0]
        kept.append(coeffs)
        total += len(coeffs)
    return np.concatenate(kept, axis=0)[:count]


def box_leaves(r, a_max):
    """The streamed leaves of a box (``_box_leaves``), concatenated."""
    return np.concatenate(list(_box_leaves(r, a_max)))


@pytest.fixture
def fresh_box_blocks():
    """A test that patches what the kept nef blocks of a box are built from
    (the leaves, the family operand) or counts their build
    starts and ends with no box kept: a kept box would hide its patch, and
    a box built under it would outlive it."""
    _box_blocks.cache_clear()
    yield
    _box_blocks.cache_clear()


def decide_per_row(rows, k, r):
    """``_decide_block`` on the rank-r nef rows `rows` (lists, each b
    non-increasing) from smallest pairings and M.M built per row with
    ``intersect``, independent of the sweep's family floor: its counts, and
    its flagged rows worded by ``_row_violations``."""
    classes = [PicardClass(row[0], tuple(row[1:])) for row in rows]
    curves = surface_context(r).test_curves
    K = canonical_class(r)
    lowest = np.array([min(intersect(L, x) for x in curves) for L in classes], dtype=object)
    squares = np.array([intersect(L - K, L - K) for L in classes], dtype=object)
    counts, flagged = _decide_block(exact_rows(rows), lowest, squares, k, _candidate_table(r, k))
    violations = [v for i, passing in flagged for v in _row_violations(classes[i], passing, k)]
    return counts, violations


def ref_decide(coeffs, k, curves):
    """(applicable, passing, failing, exceptions, witnesses) and the
    violations of the nef rows `coeffs`, one window search per row, each
    paired with the test curves `curves`."""
    exceptional = enumerate_exceptional(curves[0].r)
    violations = []
    applicable_n = passing = failing = exceptions = witness_total = 0
    for row in coeffs.tolist():
        L = PicardClass(row[0], tuple(row[1:]))
        outcome = search_obstructions(L, k)
        if not outcome.applicable:
            continue
        applicable_n += 1
        witness_total += len(outcome.witnesses)
        P = np.array([intersect(L, x) for x in curves], dtype=object)
        if P.min() >= k:
            if exception_flag(L, k) != EXCEPTION_NONE:
                exceptions += 1
                continue
            passing += 1
            if outcome.witnesses:
                violations.append(
                    SweepViolation(L, "unexpected_witness",
                                   f"k-very ample but has {len(outcome.witnesses)} witnesses")
                )
            for w in outcome.witnesses:
                if w.D_squared <= 0:
                    violations.append(
                        SweepViolation(L, "nonpositive_square_witness",
                                       f"witness {w.D} with D.D = {w.D_squared}")
                    )
        else:
            failing += 1
            if not outcome.witnesses:
                violations.append(
                    SweepViolation(L, "missing_witness", "fails the pairing test but has no witnesses")
                )
            else:
                found = {w.D for w in outcome.witnesses}
                for i in np.flatnonzero(P[:len(exceptional)] < k):
                    xi = exceptional[i]
                    if xi not in found:
                        violations.append(
                            SweepViolation(L, "missing_exceptional_witness",
                                           f"violating class {xi} absent from the witness list")
                        )
    return (applicable_n, passing, failing, exceptions, witness_total), violations


def ref_sweep(r, k, a_max, *, sample=None, seed=0, curves=None):
    curves = surface_context(r).test_curves if curves is None else curves
    if sample is None:
        coeffs, weights = ref_box_rows(r, a_max)
    else:
        coeffs = ref_sample_rows(r, a_max, sample, seed)
        weights = np.ones(len(coeffs), dtype=np.int64)
    (applicable_n, passing, failing, exceptions, witness_total), violations = ref_decide(coeffs, k, curves)
    return SweepSummary(
        r=r, k=k, a_max=a_max, sample=sample, seed=seed if sample else None,
        scanned=len(coeffs), covered=int(weights.sum()), applicable=applicable_n,
        passing=passing, failing=failing, exceptions=exceptions,
        witness_total=witness_total, violations=tuple(violations),
    )


ORACLE_PLANS = [
    # the criterion-5 plans
    (2, 1, 10, None, 7), (3, 1, 10, None, 7), (7, 1, 12, 1000, 7),
    (8, 1, 12, 1000, 7), (2, 2, 10, None, 7), (5, 2, 12, 1000, 7),
    # exhaustive boxes
    (7, 2, 12, None, 0), (8, 1, 4, None, 0), (8, 2, 6, None, 0), (8, 2, 12, None, 0), (2, 1, 6, None, 0),
    (3, 1, 8, None, 0), (5, 2, 6, None, 0), (1, 1, 12, None, 0), (1, 2, 12, None, 0),
    # the sampled CLI runs
    (8, 1, 12, 60, 42), (8, 1, 12, 20, 3),
    # k = 0: the candidate table is empty
    (8, 0, 4, None, 0), (3, 0, 8, None, 0), (1, 0, 10, None, 0), (8, 0, 12, 50, 1),
    # exactness: the int64 sampler's largest box, and rows near SAFE_COEFF_BOUND
    (8, 1, 2**63 - 1, 3, 0), (2, 1, 2**63 - 1, 3, 0), (8, 1, 10**6 + 5, 20, 0),
]


class TestBatchedSweepAgainstPerRow:
    @pytest.mark.parametrize("r,k,a_max,sample,seed", ORACLE_PLANS)
    def test_summaries_are_equal(self, r, k, a_max, sample, seed):
        if sample is None and seed:
            # the criterion-5 plans carry seed 7, which only a sampled sweep takes
            with pytest.raises(ValueError, match="needs sample="):
                consistency_sweep(r, k, a_max, seed=seed)
            seed = 0
        got = consistency_sweep(r, k, a_max, sample=sample, seed=seed)
        assert got.as_dict() == ref_sweep(r, k, a_max, sample=sample, seed=seed).as_dict()
        assert got.ok

    @pytest.mark.parametrize("r,a_max", [(1, 30), (2, 12), (5, 6), (8, 4), (8, 12)])
    def test_box_rows_match_the_depth_first_scan(self, r, a_max):
        leaves = box_leaves(r, a_max)
        nef = leaves[pairing_matrix(leaves, r).min(axis=1) >= 0]
        coeffs, weights = ref_box_rows(r, a_max)
        np.testing.assert_array_equal(nef, coeffs)
        np.testing.assert_array_equal(orbit_sizes(nef[:, 1:]), weights)
        # the kept nef blocks hold the same rows, and cover the same classes
        blocks = _box_blocks(r, a_max)
        np.testing.assert_array_equal(np.concatenate([rows for rows, *_ in blocks]), coeffs)
        assert sum(covered for *_, covered in blocks) == weights.sum()

    @pytest.mark.parametrize("r", range(1, 9))
    def test_box_leaves_match_the_column_by_column_build(self, r):
        for a_max in (0, 1, 2, 3, 4, 5, 7, 12, 16):
            blocks = list(_box_leaves(r, a_max))
            # full blocks, but perhaps the last, and no empty one
            assert all(len(block) == _BLOCK_ROWS for block in blocks[:-1]) and 0 < len(blocks[-1]) <= _BLOCK_ROWS
            leaves = np.concatenate(blocks)
            expected = ref_box_leaves(r, a_max)
            assert leaves.dtype == expected.dtype == np.int64
            np.testing.assert_array_equal(leaves, expected)
            assert _box_leaf_count(r, a_max) == len(leaves)

    def test_a_box_of_whole_blocks_streams_no_empty_block(self, fresh_box_blocks):
        # the 158,720 leaves of box 59 at rank 3 fill exactly 155 blocks;
        # each kept nef block is read-only, and they cover the nef classes
        blocks = list(_box_leaves(3, 59))
        assert len(blocks) == 155 and {len(block) for block in blocks} == {_BLOCK_ROWS}
        leaves = np.concatenate(blocks)
        assert len(leaves) == _box_leaf_count(3, 59) == 158_720
        np.testing.assert_array_equal(leaves, ref_box_leaves(3, 59))
        kept = _box_blocks(3, 59)
        assert len(kept) == 155
        for rows, lowest, m2, _ in kept:
            assert rows.dtype == np.float64 and not any(array.flags.writeable for array in (rows, lowest, m2))
        nef = leaves[pairing_matrix(leaves, 3).min(axis=1) >= 0]
        np.testing.assert_array_equal(np.concatenate([rows for rows, *_ in kept]), nef)
        assert sum(covered for *_, covered in kept) == orbit_sizes(nef[:, 1:]).sum()

    def test_blocks_straddling_the_int64_bounds(self):
        # nef rows whose M = L - K crosses SAFE_COEFF_BOUND, or leaves int64
        # altogether: (2^63 - 1; 2^63 - 1, 0^7) - K has a = 2^63 + 2.  The
        # pencil rows (a; a, 0, ...) have witnesses of type l - e_1 - e_j.
        m = 333_333
        rows = [[3 * m + t] + [m] * 8 for t in range(6)]
        for a in (10**6 - 3, 10**6 - 1, 10**6, 10**6 + 2, 2**62, 2**63 - 4, 2**63 - 1):
            rows += [[a, a] + [0] * 7, [a, a - 1, 1] + [0] * 6]
        witnesses = 0
        for lo, hi in ((0, 6), (6, 12), (12, 20), (0, len(rows))):
            block = np.array(rows[lo:hi], dtype=np.int64)
            assert (pairing_matrix(block, 8).min(axis=1) >= 0).all()
            for k in (1, 2):
                counts, violations = decide_per_row(rows[lo:hi], k, 8)
                assert (counts, violations) == ref_decide(block, k, surface_context(8).test_curves)
                witnesses += counts[-1]
        assert witnesses > 0

    def test_float_and_object_routes_sweep_a_block_alike(self, monkeypatch, fresh_box_blocks):
        # The float route compares and reduces float64 products where they
        # land; the same block on Python integers must sweep the same.  The
        # corners at +-SAFE_COEFF_BOUND give the largest partial sums (none
        # is nef), the multiples of -K and the pencils near the bound are
        # nef, and the pencils have witnesses.  Every row is descending, as
        # a box leaf is.
        import delpezzo.bulk as bulk

        r, k, B = 8, 1, SAFE_COEFF_BOUND
        rows = next(_sample_blocks(r, B, 0)).tolist()  # each draw descending
        rows += [[a, *sorted(b, reverse=True)] for a, *b in itertools.product((-B, B), repeat=r + 1)]
        rows += [[3 * (B // 3) + t] + [B // 3] * r for t in range(2)]
        for a in (B - 1, B):
            rows += [[a, a] + [0] * (r - 1), [a, a - 1, 1] + [0] * (r - 2)]
        block = np.array(rows, dtype=np.int64)
        assert len(block) <= bulk._BLOCK_ROWS  # swept as one block
        product = bulk.exact_product
        dtypes = set()

        def recorded(A, operand):
            out = product(A, operand)
            dtypes.add(out.dtype)
            return out

        monkeypatch.setattr(bulk, "_box_leaves", lambda r, a_max: iter([block]))
        monkeypatch.setattr(bulk, "exact_product", recorded)
        floats = sweep_blocks(r, k, B, None, 0)
        assert dtypes == {np.dtype(np.float64)}
        dtypes.clear()
        _box_blocks.cache_clear()  # the object route builds the box again
        monkeypatch.setattr(bulk, "_box_leaves", lambda r, a_max: iter([block.astype(object)]))
        objects = sweep_blocks(r, k, B, None, 0)
        assert dtypes == {np.dtype(object)}
        assert objects == floats
        scanned, covered, (applicable, *_, witnesses), flagged = floats
        assert scanned > 5 and applicable > 0 and witnesses > 0 and flagged == []

    @pytest.mark.parametrize("r,a_max", [(1, 12), (7, 5)])
    def test_rank_one_fiber_fails_the_pairing_test(self, r, a_max):
        # At r = 1 the fiber l - e_1 is a test curve but not an exceptional
        # class: (1; 1) pairs 1 with e_1 and 0 with the fiber, so at k = 1
        # it fails the pairing test with no exceptional class below k.  At
        # r = 7 the test curves are the exceptional classes.
        curves = surface_context(r).test_curves
        rows = ref_box_rows(r, a_max)[0]
        fiber_only = 0
        for k in (1, 2):
            counts, violations = decide_per_row(rows.tolist(), k, r)
            assert (counts, violations) == ref_decide(rows, k, curves)
            for row in rows.tolist():
                L = PicardClass(row[0], tuple(row[1:]))
                pairings = [intersect(L, x) for x in curves]
                fiber_only += (window_applicable(L, k)[0] and min(pairings) < k
                               and min(pairings[:len(enumerate_exceptional(r))]) >= k)
        assert (fiber_only > 0) == (r == 1)


class TestSweepViolations:
    """Injected faults make both sweeps report violations; the batched
    report must equal the per-row one, text and order included."""

    @staticmethod
    def _compare(r, k, a_max, curves=None):
        got = consistency_sweep(r, k, a_max)
        expected = ref_sweep(r, k, a_max, curves=curves)
        assert got.as_dict() == expected.as_dict()
        return [v.kind for v in got.violations]

    def test_dropped_orbit(self, monkeypatch):
        import delpezzo.bulk as bulk

        # without the orbit of the e_i, rows with some b_i = 0 (L.e_i < 1)
        # lose those witnesses, and some rows lose every witness
        table = _candidate_table(8, 1)
        keep = np.array([rep != [0] * 8 + [-1] for rep in table.reps.tolist()])
        assert not keep.all()
        faulty = bulk._table(table.reps[keep], 1)
        monkeypatch.setattr(bulk, "_candidate_table", lambda r, k: faulty)
        kinds = self._compare(8, 1, 4)
        assert {"missing_witness", "missing_exceptional_witness"} <= set(kinds)

    def test_dropped_orbit_beside_other_witnesses(self, monkeypatch, fresh_box_blocks):
        import delpezzo.bulk as bulk

        # without the orbit of the e_i, (8; 4,4,4,2,2,2,2,0) keeps 14
        # witnesses but loses e_8 (L.e_8 = 0 < 1): only the hits in
        # exceptional orbits count against its violating exceptional classes
        table = _candidate_table(8, 1)
        keep = np.array([rep != [0] * 8 + [-1] for rep in table.reps.tolist()])
        faulty = bulk._table(table.reps[keep], 1)
        monkeypatch.setattr(bulk, "_candidate_table", lambda r, k: faulty)
        monkeypatch.setattr(bulk, "_box_leaves", lambda r, a_max: iter([np.array([[8, 4, 4, 4, 2, 2, 2, 2, 0]])]))
        got = consistency_sweep(8, 1, 8)
        assert got.witness_total == 14
        assert [(v.kind, v.detail) for v in got.violations] == [
            ("missing_exceptional_witness", "violating class 0;0,0,0,0,0,0,0,-1 absent from the witness list")]

    def test_exception_flag_forced_to_none(self, monkeypatch):
        import sys

        import delpezzo.bulk as bulk

        # -2K at rank 8 then counts as 1-very ample, with the witness -K
        def none(L, k):
            return EXCEPTION_NONE

        monkeypatch.setattr(bulk, "_exception_flag", none)
        monkeypatch.setattr(sys.modules[__name__], "exception_flag", none)
        kinds = self._compare(8, 1, 6)
        assert kinds == ["unexpected_witness"]

    def test_pairing_blind_to_an_orbit(self, monkeypatch, fresh_box_blocks):
        import delpezzo.bulk as bulk

        # test curves whose e_i are replaced by -K, in the reference and in
        # the sweep's pairing rows: rows failing only against some e_i pass,
        # with that e_i (D.D = -1) among their witnesses
        blind = tuple(-canonical_class(8) if x.a == 0 else x for x in surface_context(8).test_curves)
        operand = float_operand(np.array([[x.a, *(-y for y in x.b)] for x in blind]).T)
        assert operand[:, 0].tolist() == [3] + [-1] * 8
        # the nef filter and the pairing verdict read the family floor, so
        # the family of the e_i, (0; 0^7, -1), becomes the family of -K there
        reps = [[3] + [1] * 8 if rep[0] == 0 else list(rep) for rep in _family_table(8).reps]
        families = float_operand(np.array([[a, *(-y for y in b)] for a, *b in reps]).T)
        assert families[:, 0].tolist() == [3] + [-1] * 8
        monkeypatch.setattr(bulk, "curve_operand", lambda r: operand)
        monkeypatch.setattr(bulk, "family_operand", lambda r: families)
        kinds = self._compare(8, 1, 4, blind)
        assert {"unexpected_witness", "nonpositive_square_witness"} <= set(kinds)


# (a_max, sample, seed, message) of consistency_sweep(3, 1, ...) refusals
BAD_SWEEP_ARGUMENTS = [
    (-3, None, 0, "a_max must be >= 0, got -3"),
    (-3, 5, 0, "a_max must be >= 0, got -3"),
    (8, 0, 0, "sample must be >= 1, got 0"),
    (8, -4, 0, "sample must be >= 1, got -4"),
    (8, 5, -1, "seed must be >= 0, got -1"),
    (6, None, -1, "seed must be >= 0, got -1"),
    (6, None, 5, "seed = 5 needs sample=: the exhaustive sweep draws no sample"),
    (10**19, 3, 0, "a_max = 10000000000000000000 is past the int64 sampler"),
]


class TestFamilyFloorFilter:
    """The sweep's nef filter and pairing verdict are the smallest family
    value, and only its failing rows are paired with the test curves: both
    against ``intersect`` with every test curve, on int64 rows (and their
    float64 cast), unsorted draws and object rows past SAFE_COEFF_BOUND.
    Each row is sorted descending first, as the sampler sorts its draws;
    ``intersect`` pairs the row as drawn."""

    @staticmethod
    def _check(rows, r):
        curves = surface_context(r).test_curves
        exceptional = len(enumerate_exceptional(r))
        pairings = [[intersect(PicardClass(a, tuple(b)), x) for x in curves] for a, *b in rows.tolist()]
        exact = exact_rows([[a, *sorted(b, reverse=True)] for a, *b in rows.tolist()])
        forms = [exact, exact.astype(np.float64)] if exact.dtype == np.int64 else [exact]
        for form in forms:
            assert exact_product(form, family_operand(r)).min(axis=1).tolist() == [min(p) for p in pairings]
            for k in (1, 2):
                failing = [i for i, p in enumerate(pairings) if min(p) < k]
                below = _exceptional_below(form.take(failing, axis=0), k)
                assert below.tolist() == [sum(v < k for v in pairings[i][:exceptional]) for i in failing]
        return len(forms)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_every_box_leaf(self, r):
        assert self._check(box_leaves(r, 6), r) == 2

    @pytest.mark.parametrize("r", range(1, 9))
    def test_seeded_unsorted_draws(self, r):
        rows = np.random.default_rng(r).integers(-4, 13, size=(120, r + 1))
        assert self._check(rows, r) == 2

    @pytest.mark.parametrize("r", range(1, 9))
    def test_object_rows_past_the_int64_bound(self, r):
        rng = np.random.default_rng(100 + r)
        rows = [[int(x) * 10**14 + int(y) for x, y in zip(rng.integers(-9, 30, r + 1), rng.integers(-5, 5, r + 1))]
                for _ in range(40)]
        rows = np.array(rows + [[3 * SAFE_COEFF_BOUND] + [SAFE_COEFF_BOUND + 1] * r], dtype=object)
        assert exact_rows(rows).dtype == object
        assert self._check(rows, r) == 1


class TestRowsArriveDescending:
    """Every row that meets a representative operand, the families' or a
    candidate table's, has b non-increasing, as the orbit floor reads it:
    the order is made where the rows are made (the box leaves, the sampled
    draws, the M of a search), and no kernel checks it."""

    @staticmethod
    def _watch(monkeypatch, r, k):
        """The (dtype, descending) of the left operand of every product
        with ``family_operand(r)`` or the (r, k) candidate table's operand."""
        import delpezzo.bulk as bulk

        watched = (bulk.family_operand(r), _candidate_table(r, k).operand)
        product = bulk.exact_product
        seen = []

        def recorded(A, B):
            if any(B is operand for operand in watched):
                b = A[:, 1:]
                seen.append((A.dtype, bool((b[:, 1:] <= b[:, :-1]).all())))
            return product(A, B)

        monkeypatch.setattr(bulk, "exact_product", recorded)
        return seen

    def test_an_exhaustive_box(self, monkeypatch, fresh_box_blocks):
        seen = self._watch(monkeypatch, 8, 1)
        assert consistency_sweep(8, 1, 8).ok
        assert len(seen) > 1 and seen == [(np.dtype(np.float64), True)] * len(seen)

    @pytest.mark.parametrize("a_max,dtype", [(12, np.float64), (10**7, object)])
    def test_a_sampled_box(self, monkeypatch, a_max, dtype):
        # past SAFE_COEFF_BOUND the draws are object rows
        seen = self._watch(monkeypatch, 8, 1)
        assert consistency_sweep(8, 1, a_max, sample=20, seed=1).ok
        assert len(seen) > 1 and seen == [(np.dtype(dtype), True)] * len(seen)

    def test_a_search_of_unsorted_tied_M(self, monkeypatch):
        L = PicardClass(8, (2, 4, 0, 4, 2, 4, 2, 2))  # (8; 4,4,4,2,2,2,2,0) reordered
        seen = self._watch(monkeypatch, 8, 1)
        outcome = search_obstructions(L, 1)
        assert outcome.applicable and outcome.witnesses
        assert seen == [(np.dtype(np.int64), True)]

    def test_a_flagged_draw_names_its_descending_representative(self, monkeypatch):
        # the sweep's pairing blinded to the orbit of the e_i, as in
        # TestSweepViolations.test_pairing_blind_to_an_orbit: drawn rows
        # failing only against some e_i pass with e_i among their witnesses.
        # Each flagged row is the descending representative of a draw, the
        # S_r orbit an exhaustive sweep reports through its leaf.
        import delpezzo.bulk as bulk

        r, a_max, sample, seed = 8, 4, 40, 0
        blind = tuple(-canonical_class(r) if x.a == 0 else x for x in surface_context(r).test_curves)
        reps = [[3] + [1] * r if rep[0] == 0 else list(rep) for rep in _family_table(r).reps]
        monkeypatch.setattr(bulk, "curve_operand", lambda r: float_operand(
            np.array([[x.a, *(-y for y in x.b)] for x in blind]).T))
        monkeypatch.setattr(bulk, "family_operand", lambda r: float_operand(
            np.array([[a, *(-y for y in b)] for a, *b in reps]).T))
        summary = consistency_sweep(r, 1, a_max, sample=sample, seed=seed)
        assert summary.scanned == sample and summary.violations
        # the draws of the sampler's first blocks, as drawn
        rng = np.random.default_rng(seed)
        drawn = set()
        for _ in range(8):
            a = rng.integers(0, a_max + 1, size=4096)
            b = rng.integers(0, a_max + 1, size=(4096, r))
            drawn |= {(x, *y) for x, *y in np.column_stack([a, b]).tolist()}
        orbits = {(x, *sorted(y, reverse=True)) for x, *y in drawn}
        subjects = {(v.subject.a, *v.subject.b) for v in summary.violations}
        assert all(list(b) == sorted(b, reverse=True) and (a, *b) in orbits for a, *b in subjects)
        assert subjects - drawn  # some flagged row was not drawn descending


class TestConsistencySweep:
    def test_small_exhaustive_boxes(self):
        for r, k in ((2, 1), (2, 2), (3, 1)):
            summary = consistency_sweep(r, k, 8)
            assert summary.ok, summary.render()
            assert summary.applicable > 0 and summary.failing > 0

    def test_rank7_k2_exhaustive_box(self):
        summary = consistency_sweep(7, 2, 12)
        assert summary.ok, summary.render()
        assert summary.covered == 2620893
        assert summary.failing > 0

    def test_sampled_sweep_is_deterministic(self):
        first = consistency_sweep(8, 1, 12, sample=60, seed=42)
        second = consistency_sweep(8, 1, 12, sample=60, seed=42)
        assert first.as_dict() == second.as_dict()
        assert first.ok

    def test_default_seed_is_zero(self):
        default = consistency_sweep(8, 1, 12, sample=20)
        assert default.seed == 0
        assert default.as_dict() == consistency_sweep(8, 1, 12, sample=20, seed=0).as_dict()

    @pytest.mark.parametrize("r,k", [(8, 1), (7, 2)])
    def test_no_row_is_rederived(self, monkeypatch, r, k):
        # the array verdicts flag no row of a consistent box, so no witness
        # list is built: a filter that flagged too many rows would cost
        # only time, and the summary would still be ok
        import delpezzo.reider as reider

        calls = []
        row_violations = reider._row_violations
        monkeypatch.setattr(reider, "_row_violations", lambda *args: calls.append(args) or row_violations(*args))
        assert consistency_sweep(r, k, 12).ok
        assert len(calls) == 0

    def test_box_4_sweep_makes_one_product_per_reached_orbit(self, monkeypatch, fresh_box_blocks):
        # the sweep's work, not its time: from a freshly built table and no
        # kept box, the family floor of the 85 leaves, the curve pairing of
        # the 48 rows that fail at k, the orbit floor of the 50 applicable
        # rows and one M.D product per reached orbit, 76 reaching rows in
        # all; a repeat keeps the box and makes no family-floor product
        import delpezzo.bulk as bulk

        fresh = bulk._candidate_table.__wrapped__(8, 1)
        rows, operands = [], []
        exact_product = bulk.exact_product
        monkeypatch.setattr(bulk, "_candidate_table", lambda r, k: fresh)
        monkeypatch.setattr(bulk, "exact_product",
                            lambda A, B: rows.append(len(A)) or operands.append(B) or exact_product(A, B))
        assert consistency_sweep(8, 1, 4).ok
        assert len(fresh.expanded) == 5
        assert len(rows) == 8
        assert rows[:3] == [85, 48, 50] and sum(rows[3:]) == 76
        assert operands[:3] == [bulk.family_operand(8), curve_operand(8), fresh.operand]
        first = rows[1:]
        rows.clear()
        operands.clear()
        assert consistency_sweep(8, 1, 4).ok
        assert rows == first and all(B is not bulk.family_operand(8) for B in operands)

    def test_box_12_sweep_pairs_only_failing_rows_with_the_curves(self, monkeypatch, fresh_box_blocks):
        # of the 11,011 leaves of box 12, only the applicable rows that fail
        # at k = 1 meet the 240 curves, on every sweep; every leaf meets the
        # 7 families once, when the box is built, and no leaf on a repeat
        import delpezzo.bulk as bulk

        seen = {"curves": 0, "families": 0}
        exact_product = bulk.exact_product

        def counted(A, B):
            for name, operand in (("curves", curve_operand(8)), ("families", bulk.family_operand(8))):
                seen[name] += len(A) if B is operand else 0
            return exact_product(A, B)

        monkeypatch.setattr(bulk, "exact_product", counted)
        assert consistency_sweep(8, 1, 12).ok
        assert seen == {"curves": 6_820, "families": 11_011}
        assert consistency_sweep(8, 1, 12).ok
        assert seen == {"curves": 2 * 6_820, "families": 11_011}

    def test_sweep_certifies_no_witness(self, monkeypatch):
        # a freshly built table, and an effectivity test that refuses to run:
        # a sweep counts the witnesses of a consistent box and certifies none
        import delpezzo.bulk as bulk
        import delpezzo.reider as reider

        fresh = bulk._candidate_table.__wrapped__(8, 1)

        def refuse(D, values=None):
            raise AssertionError(f"{D} certified by a sweep")

        monkeypatch.setattr(bulk, "_candidate_table", lambda r, k: fresh)
        monkeypatch.setattr(bulk, "_effectivity", refuse)
        monkeypatch.setattr(reider, "_effectivity", refuse)
        got = consistency_sweep(8, 1, 4).as_dict()
        monkeypatch.undo()
        assert got == ref_sweep(8, 1, 4).as_dict()
        assert got["witness_total"] > 0

    def test_desk_scale_refusal(self):
        with pytest.raises(ValueError):
            consistency_sweep(2, 3, 8)

    def test_context_of_another_rank_refusal(self):
        # the same error as every other entry point given a foreign rank
        with pytest.raises(LatticeMismatchError, match="context rank 2 does not match r=3"):
            consistency_sweep(3, 1, 4, surface_context(2))

    def test_any_context_of_the_rank_gives_the_same_sweep(self):
        # a rank-8 context is its rank: its exceptional classes, in (a, b)
        # order, are the columns of the sweep's pairing rows
        ctx8 = SurfaceContext(8)
        assert ctx8 is not surface_context(8)
        got, expected = consistency_sweep(8, 1, 4, ctx8), consistency_sweep(8, 1, 4)
        assert json.dumps(got.as_dict()) == json.dumps(expected.as_dict())
        assert got.render() == expected.render()

    def test_oversized_exhaustive_box_refusal(self):
        with pytest.raises(ValueError, match="sample"):
            consistency_sweep(8, 1, 200)

    def test_rank8_box16_is_exhaustive(self):
        summary = consistency_sweep(8, 1, 16)
        assert summary.scanned == 47_132
        assert summary.ok, summary.render()

    def test_box_leaves_are_built_once(self, monkeypatch, fresh_box_blocks):
        # the nef blocks of a box are kept, read-only, so a repeated sweep
        # neither streams its leaves again nor sees them changed
        import delpezzo.bulk as bulk

        blocks = _box_blocks(8, 4)
        assert _box_blocks(8, 4) is blocks
        for block in blocks:
            for array in block[:3]:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1
        first = {a_max: json.dumps(consistency_sweep(8, 1, a_max).as_dict()) for a_max in (4, 12)}

        def unbuilt(r, a_max):
            raise AssertionError(f"streamed the leaves of box {a_max} again")

        monkeypatch.setattr(bulk, "_box_leaves", unbuilt)
        for a_max in (4, 12):
            assert json.dumps(consistency_sweep(8, 1, a_max).as_dict()) == first[a_max]

    def test_a_k_2_sweep_after_k_1_streams_no_leaf(self, monkeypatch, fresh_box_blocks):
        # the kept blocks hold no k: a box swept at k = 1 is swept at k = 2
        # from them, as a box built afresh at k = 2 is
        import delpezzo.bulk as bulk

        assert consistency_sweep(8, 1, 12).ok
        streamed = []
        leaves = bulk._box_leaves
        monkeypatch.setattr(bulk, "_box_leaves", lambda r, a_max: streamed.append(a_max) or leaves(r, a_max))
        kept = consistency_sweep(8, 2, 12).as_dict()
        assert streamed == []
        _box_blocks.cache_clear()
        assert consistency_sweep(8, 2, 12).as_dict() == kept and streamed == [12]

    @pytest.mark.parametrize("r", range(1, 9))
    def test_product_operands_are_c_ordered_and_read_only(self, r):
        # every right operand of the sweep's float64 products: the test
        # curves, the families, each table's representatives and each
        # expanded orbit; and every other array a table holds, each orbit's
        # int64 rows too
        operands, arrays, orbit_rows = [curve_operand(r), family_operand(r)], [], []
        signed = [(family_operand(r), np.array(_family_table(r).reps))]
        for k in range(3):
            if k:
                consistency_sweep(r, k, 6)  # expands the orbits a box-6 row reaches
            table = _candidate_table(r, k)
            operands += [table.operand, *(columns for _, columns in table.expanded.values())]
            arrays += [table.reps, table.squares, table.top, table.exceptional]
            orbit_rows += [rows for rows, _ in table.expanded.values()]
            signed += [(table.operand, table.reps), *((columns, rows) for rows, columns in table.expanded.values())]
        assert len(operands) > 6 and orbit_rows
        for operand in operands:
            assert operand.dtype == np.float64  # the float route applies
            assert operand.flags.c_contiguous and not operand.flags.writeable
        for array in arrays + orbit_rows:
            assert not array.flags.writeable
        assert all(rows.dtype == np.int64 for rows in orbit_rows)
        # each operand is signed as the pairing is: class (x0; x) is the
        # column (x0; -x), so a row M enters its products as it is
        for operand, classes in signed:
            assert operand.T.tolist() == [[x0, *(-v for v in x)] for x0, *x in classes.tolist()]

    def test_exceptional_count_of_the_zero_row(self):
        # the zero class pairs 0 < 1 with each of the 240 exceptional
        # classes of rank 8: the narrow count holds the whole set.  A sweep
        # counts only its failing applicable rows, and the zero row does not
        # apply (M = -K, M.M = 1), so the count is asked for directly
        seen = [_exceptional_below(np.zeros((1, 9), dtype=dtype), 1) for dtype in (np.int64, np.float64, object)]
        assert len(seen) == 3
        for count in seen:
            assert count.dtype == np.int16 and count.tolist() == [240]

    def test_exhaustive_cap_threshold(self, monkeypatch, fresh_box_blocks):
        import delpezzo.bulk as bulk

        assert _box_leaf_count(8, 20) == 238_238 <= MAX_EXHAUSTIVE_LEAVES
        assert _box_leaf_count(8, 21) == 325_754 > MAX_EXHAUSTIVE_LEAVES

        # box 20 passes the cap: with no leaves built, its sweep scans nothing
        monkeypatch.setattr(bulk, "_box_leaves", lambda r, a_max: iter(()))
        assert consistency_sweep(8, 1, 20).scanned == 0

        # bigger boxes are refused before any leaf is built, however large
        def unbuilt(r, a_max):
            raise AssertionError(f"built the leaves of box {a_max}")

        monkeypatch.setattr(bulk, "_box_leaves", unbuilt)
        for a_max in (21, 200, 10**18):
            with pytest.raises(ValueError, match=f"a <= {a_max} at rank 8 has more than 250000 .*sample"):
                consistency_sweep(8, 1, a_max)

    @pytest.mark.parametrize("a_max,sample,seed,message", BAD_SWEEP_ARGUMENTS)
    def test_bad_box_and_sampling_arguments_refused(self, a_max, sample, seed, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            consistency_sweep(3, 1, a_max, sample=sample, seed=seed)

    def test_refusals_import_no_numpy(self):
        # in a fresh process, every refusal above and the oversized box
        # raise ValueError before the sweep imports numpy
        calls = [(3, a_max, sample, seed) for a_max, sample, seed, _ in BAD_SWEEP_ARGUMENTS] + [(8, 200, None, 0)]
        code = (
            "import json, sys\n"
            "from delpezzo.reider import consistency_sweep\n"
            "for r, a_max, sample, seed in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        consistency_sweep(r, 1, a_max, sample=sample, seed=seed)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    sys.exit(f'not refused: {r, a_max, sample, seed}')\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        child = subprocess.run([sys.executable, "-c", code, json.dumps(calls)], env={**os.environ, "PYTHONPATH": src},
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0 and child.stderr == "", child.stderr

    def test_box_and_sampling_arguments_are_plain_ints(self):
        want = consistency_sweep(3, 1, 6, sample=5, seed=2).as_dict()
        got = consistency_sweep(3, np.int64(1), np.int64(6), sample=np.int64(5), seed=np.int64(2)).as_dict()
        assert json.dumps(got) == json.dumps(want)
        assert json.dumps(consistency_sweep(3, 1, np.int64(6)).as_dict()) == json.dumps(consistency_sweep(3, 1, 6).as_dict())
        for bad in ({"a_max": 6.0}, {"a_max": 6.0, "sample": 5}, {"sample": 5.0}, {"sample": 5, "seed": 2.0}):
            with pytest.raises(TypeError):
                consistency_sweep(3, 1, **{"a_max": 6, **bad})

    def test_largest_sampled_box_is_accepted(self):
        summary = consistency_sweep(2, 1, 2**63 - 1, sample=3, seed=0)
        assert summary.scanned == 3 and summary.ok, summary.render()

    def test_exhaustive_sweep_covers_orbit_closure(self):
        summary = consistency_sweep(2, 1, 6)
        # covered counts every nef class in the box, scanned only the
        # descending representatives
        assert summary.covered > summary.scanned
        brute = 0
        for a in range(0, 7):
            for b1 in range(0, a + 1):
                for b2 in range(0, a + 1):
                    if is_nef(PicardClass(a, (b1, b2))):
                        brute += 1
        assert summary.covered == brute

    def test_summary_serializes(self):
        import json

        summary = consistency_sweep(2, 1, 6)
        payload = summary.as_dict()
        assert payload["violations"] == []
        json.dumps(payload)
