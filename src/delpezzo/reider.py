"""Brute-force verifier for the adjoint-style numeric obstruction window.

Given L and k, put M = L - K.  When M is nef with M.M >= 4k + 5, failure
of k-very ampleness forces an effective divisor D inside the window

    M.D - k - 1 <= D.D  <  M.D / 2  <  k + 1

(the halving is compared in integers: ``2*D.D < M.D`` and
``M.D < 2k + 2``).  This module enumerates every effective class in the
window over a finite box and cross-checks the result against the
inequality-based k-very-ampleness verdicts.

Box derivation, recorded in each outcome (valid for nef L):

  (i)   M.D = L.D + (-K).D >= (-K).D for effective D, and the window
        caps M.D at 2k + 1, so 1 <= (-K).D <= 2k + 1;
  (ii)  6*(-K) - l is nef (checked when a rank's table is built), hence
        alpha := D.l <= 6 * (-K).D <= 6 * (2k + 1);
  (iii) l - e_i is nef, hence beta_i <= alpha;
  (iv)  beta_i < 0 forces e_i as a component with multiplicity -beta_i,
        so (-K).D >= -beta_i and beta_i >= -(2k + 1);
  (v)   the window itself pins 2*D.D < M.D < 2k + 2 and
        D.D >= M.D - k - 1 >= -k, i.e. -k <= D.D <= k.

The box search is :func:`~delpezzo.enumeration.window_candidates`; every
array decision, the premises of (ii) and (iii) included, lives in
:mod:`delpezzo.bulk`, the package's one numpy module, imported only where
this module scans, so that the package root imports no numpy.  A
``SearchOutcome`` reads the premise of its one M once, when it is built,
and certifies the window classes ``bulk.window_rows`` gives for that M,
in (a, b) order; ``consistency_sweep`` has ``bulk.sweep_blocks`` count
the witnesses of every row of its box, and words each row the sweep
flags from that row's own witness list.
For non-nef L the bounds in (i) and (v) that use L.D >= 0 are not
theorems, so the scan is best-effort outside the nef cone (the outcome
says which box was used).
"""

from __future__ import annotations

import math as _math
import operator
import warnings
from dataclasses import dataclass, field, fields

from .lattice import PicardClass, _check_context, _check_rank, degree, intersect
from .enumeration import SurfaceContext, _surface_context, window_box
from .positivity import EffectivityCertificate, _effectivity, _family_values, ampleness_level

#: The scan box grows like (6*(2k+1)) * (2k+2+6*(2k+1))**r before pruning;
#: sweeps refuse above this k and single searches emit a warning.
DESK_SCALE_K = 2

#: Largest exhaustive sweep, measured in box leaves (the descending rows of
#: the box, before the nef filter); bigger requests must sample instead.
MAX_EXHAUSTIVE_LEAVES = 250_000


def _window_premise(L: PicardClass, k: int) -> tuple[PicardClass, int, str | None]:
    """M = L - K, M.M, and why the window argument does not apply: it
    applies iff M is nef and M.M >= 4k+5 (reason None), for a checked k."""
    M = L - _surface_context(L.r).canonical
    m2 = degree(M)
    if min(_family_values(M)) < 0:
        return M, m2, f"M = {M} is not nef"
    if m2 < 4 * k + 5:
        return M, m2, f"M.M = {m2} < {4 * k + 5}"
    return M, m2, None


def window_applicable(L: PicardClass, k: int) -> tuple[bool, PicardClass, int]:
    """M = L - K; the window argument applies iff M is nef and M.M >= 4k+5."""
    M, m2, reason = _window_premise(L, ampleness_level(k))
    return reason is None, M, m2


@dataclass(frozen=True)
class ObstructionWitness:
    """An effective class D inside the numeric window of M = L - K at level
    k, with its certificate.  ``MD`` = M.D and ``D_squared`` = D.D are
    measured when the record is built, and the three ``window``
    inequalities are read off them.  A witness outside the window, or whose
    certificate replays to another class, is refused with ValueError; an M
    of another rank than D raises LatticeMismatchError."""

    D: PicardClass
    M: PicardClass
    k: int
    effectivity_certificate: EffectivityCertificate
    MD: int = field(init=False)
    D_squared: int = field(init=False)

    def __post_init__(self):
        md, d2, k = intersect(self.M, self.D), degree(self.D), self.k
        object.__setattr__(self, "MD", md)
        object.__setattr__(self, "D_squared", d2)
        # checks that raise, so that they hold under ``python -O`` too
        if not (md - k - 1 <= d2 and 2 * d2 < md < 2 * k + 2):
            raise ValueError(f"witness {self.D}: M.D = {md}, D.D = {d2} lies outside the window at k = {k}")
        if self.effectivity_certificate.replay() != self.D:
            raise ValueError(f"witness {self.D}: its certificate replays to another class")

    @property
    def window(self) -> tuple[tuple[int, str, int], ...]:
        """``M.D - k - 1 <= D.D``, ``2*D.D < M.D`` and ``M.D < 2k + 2``."""
        md, d2, k = self.MD, self.D_squared, self.k
        return ((md - k - 1, "<=", d2), (2 * d2, "<", md), (md, "<", 2 * k + 2))

    def as_dict(self) -> dict:
        return {
            "D": self.D.render(),
            "MD": self.MD,
            "D_squared": self.D_squared,
            "window": [[lhs, op, rhs] for lhs, op, rhs in self.window],
            "certificate": self.effectivity_certificate.as_dict(),
        }


@dataclass(frozen=True)
class SearchOutcome:
    """The window search for (L, k), run by ``SearchOutcome(subject, k)``.
    It measures ``M`` = L - K, ``M_squared`` = M.M and ``reason`` (why the
    window does not apply, None when it does) when it is built and, when
    the window applies, the witnesses, every class of the box inside the
    window of M in (a, b) order, each certified, and the count of candidate
    classes in the box.  A k that is not an integer raises TypeError, a
    negative one ValueError, one past DESK_SCALE_K warns."""

    subject: PicardClass
    k: int
    reason: str | None = field(init=False)
    M: PicardClass = field(init=False)
    M_squared: int = field(init=False)
    witnesses: tuple[ObstructionWitness, ...] = field(init=False)
    candidates: int = field(init=False)

    def __post_init__(self):
        k = ampleness_level(self.k)
        object.__setattr__(self, "k", k)
        if k > DESK_SCALE_K:
            warnings.warn(
                f"k = {k} is beyond the desk-scale envelope (k <= {DESK_SCALE_K}); "
                f"the scan box has alpha <= {window_box(k)[0]} and may be slow",
                RuntimeWarning,
                stacklevel=3,
            )
        M, m2, reason = _window_premise(self.subject, k)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "M_squared", m2)
        witnesses, candidates = [], 0
        if reason is None:
            from . import bulk

            rows, candidates = bulk.window_rows(M, k)
            for (a, *b), md in rows:
                D = PicardClass(a, tuple(b))
                cert = _effectivity(D)
                if cert is None:
                    raise RuntimeError(f"candidate table let a non-effective class through: {D}")
                witnesses.append(ObstructionWitness(D, M, k, cert))
                if md != witnesses[-1].MD:
                    raise RuntimeError(f"window engine gave M.D = {md} for {D}, not {witnesses[-1].MD}")
        object.__setattr__(self, "witnesses", tuple(witnesses))
        object.__setattr__(self, "candidates", candidates)

    @property
    def applicable(self) -> bool:
        return self.reason is None

    @property
    def search_bounds(self) -> dict:
        """The box the search scanned and its derivation, built afresh on
        each read; empty when the window does not apply."""
        return _bounds_record(self.k, self.candidates) if self.applicable else {}

    @property
    def nodes_visited(self) -> int:
        """``candidates``, the candidate table's class count (0 when the
        window does not apply); kept because the benchmark's tracer reads it."""
        return self.candidates

    def as_dict(self) -> dict:
        return {
            "subject": self.subject.render(),
            "r": self.subject.r,
            "k": self.k,
            "applicable": self.applicable,
            "reason": self.reason,
            "M": self.M.render(),
            "M_squared": self.M_squared,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "search_bounds": self.search_bounds,
            "nodes_visited": self.nodes_visited,
        }


def _bounds_record(k: int, candidates: int) -> dict:
    alpha_max, beta_min = window_box(k)
    return {
        "alpha_max": alpha_max,
        "beta_min": beta_min,
        "beta_max": "alpha",
        "anticanonical_degree_range": [1, 2 * k + 1],
        "d_squared_range": [-k, k],
        "effective_candidates": candidates,
        "derivation": [
            "(i) nef L: M.D = L.D + (-K).D >= (-K).D >= 1 and M.D <= 2k+1",
            "(ii) 6*(-K) - l nef: alpha = D.l <= 6*(-K).D <= 6*(2k+1)",
            "(iii) l - e_i nef: beta_i <= alpha",
            "(iv) beta_i < 0 forces e_i^(-beta_i) as component: beta_i >= -(2k+1)",
            "(v) window: 2*D.D < M.D < 2k+2 and D.D >= M.D - k - 1 >= -k",
            "bounds (i) and (v) use L.D >= 0; outside the nef cone the scan is best-effort",
        ],
    }


def search_obstructions(L: PicardClass, k: int, ctx: SurfaceContext | None = None) -> SearchOutcome:
    """Enumerate every effective class in the window for (L, k).

    Not applicable (M not nef, or M.M < 4k+5) returns an empty outcome,
    whose ``reason`` says why.  Identical inputs always produce identical
    witness lists in identical (a, b) order.
    """
    _check_context(L.r, ctx)
    return SearchOutcome(L, k)


@dataclass(frozen=True)
class SweepViolation:
    subject: PicardClass
    kind: str
    detail: str

    def as_dict(self) -> dict:
        return {"subject": self.subject.render(), "kind": self.kind, "detail": self.detail}


@dataclass(frozen=True)
class SweepSummary:
    r: int
    k: int
    a_max: int
    sample: int | None
    seed: int | None
    scanned: int  # nef classes the loop actually ran on
    covered: int  # nef classes decided (orbit closure in exhaustive mode)
    applicable: int
    passing: int
    failing: int
    exceptions: int
    witness_total: int
    violations: tuple[SweepViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        """Every field, in field order, each violation as its own dict."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["violations"] = [v.as_dict() for v in self.violations]
        return out

    def render(self) -> str:
        mode = f"sample {self.sample} (seed {self.seed})" if self.sample else "exhaustive"
        lines = [
            f"sweep r={self.r} k={self.k} a<={self.a_max} [{mode}]",
            f"nef classes scanned: {self.scanned}",
            f"nef classes covered (orbit closure): {self.covered}",
            f"window applicable: {self.applicable}",
            f"k-very ample / failing the pairing test: {self.passing} / {self.failing}",
            f"exception classes (no assertion): {self.exceptions}",
            f"witnesses found: {self.witness_total}",
            f"violations: {len(self.violations)}",
        ]
        lines.extend(f"  VIOLATION {v.kind} at {v.subject}: {v.detail}" for v in self.violations)
        return "\n".join(lines)


def _row_violations(L: PicardClass, passing: bool, k: int) -> list[SweepViolation]:
    """The violations of one row that the sweep flagged, worded from its
    own witness list; ``passing`` is its pairing verdict.  A failing row
    with witnesses names each exceptional class it pairs below k and its
    witnesses miss."""
    witnesses = SearchOutcome(L, k).witnesses
    if passing:
        unexpected = SweepViolation(L, "unexpected_witness", f"k-very ample but has {len(witnesses)} witnesses")
        return [unexpected] + [
            SweepViolation(L, "nonpositive_square_witness", f"witness {w.D} with D.D = {w.D_squared}")
            for w in witnesses if w.D_squared <= 0
        ]
    if not witnesses:
        return [SweepViolation(L, "missing_witness", "fails the pairing test but has no witnesses")]
    found = {w.D for w in witnesses}
    return [
        SweepViolation(L, "missing_exceptional_witness", f"violating class {x} absent from the witness list")
        for x in _surface_context(L.r).exceptional_set if intersect(L, x) < k and x not in found
    ]


def _box_leaf_count(r: int, a_max: int, cap: float = _math.inf) -> int:
    """How many box leaves (the rows of an exhaustive sweep) the box
    a <= a_max has at rank r, without building them, or the first partial
    sum over a that exceeds ``cap``.

    For one a, the c = min(b_1, a - b_1) below a/2 each come from two b_1
    and add comb(c + r - 1, r - 1) leaves each, c = a/2 comes from one;
    by the hockey-stick identity that is
    2*comb(ceil(a/2) + r - 1, r) + [a even]*comb(a/2 + r - 1, r - 1)."""
    total = 0
    for a in range(a_max + 1):
        half = (a + 1) // 2
        total += 2 * _math.comb(half + r - 1, r) + (a % 2 == 0) * _math.comb(a // 2 + r - 1, r - 1)
        if total > cap:
            break
    return total


def consistency_sweep(
    r: int,
    k: int,
    a_max: int,
    ctx: SurfaceContext | None = None,
    *,
    sample: int | None = None,
    seed: int = 0,
) -> SweepSummary:
    """Cross-check the window search against the pairing criterion.

    For every nef L in the box (exhaustive, or a seeded sample) with the
    window applicable: a k-very-ample class must have zero witnesses; a
    class failing the pairing test must have at least one, and each
    exceptional class it fails against must be among them.  Any breach is
    returned as a violation (and means a genuine bug).

    ``bulk.sweep_blocks`` builds the box rows and decides them in blocks of
    array operations.  Witnesses are counted, not listed or certified; a
    flagged row's violations are worded from its own window search.  The
    exhaustive mode runs on one representative per coordinate-permutation
    orbit, the nef rows among the box leaves (b non-increasing and
    non-negative, b_1 + b_2 <= a): all checks are permutation-equivariant,
    so the representative decides its whole orbit (counted in ``covered``).
    A sampled violation names the descending representative of its draw.
    Desk-scale only: k <= 2.  An exhaustive box of more than
    ``MAX_EXHAUSTIVE_LEAVES`` leaves (counted in closed form, before any
    leaf is built), a negative ``a_max``, a ``sample`` below 1, a negative
    ``seed``, a nonzero ``seed`` without ``sample`` and a sampled box past
    the int64 sampler (``a_max`` above 2**63 - 1) raise ValueError, each
    before numpy is imported; a k, ``a_max``, ``sample`` or ``seed`` that is
    not an integer raises TypeError, a rank that is not an integer in 1..8
    raises RankError.  ``ctx`` is optional and is checked for its
    rank only (another rank raises LatticeMismatchError), as a
    ``SurfaceContext`` is its rank, whose classes are the columns of
    ``bulk.curve_operand(r)``; it stays, as the ``ctx`` of ``is_effective``,
    ``is_k_very_ample``, ``generate_inequality_families`` and
    ``search_obstructions`` does, because the benchmark's workloads pass one.
    """
    r = _check_rank(r)
    _check_context(r, ctx)
    k, a_max, seed = ampleness_level(k), operator.index(a_max), operator.index(seed)
    if k > DESK_SCALE_K:
        raise ValueError(
            f"consistency_sweep is desk-scale only (k <= {DESK_SCALE_K}, got k = {k}); "
            f"the scan box grows like (6*(2k+1))*(2k+2+6*(2k+1))**r"
        )
    if a_max < 0:
        raise ValueError(f"box bound a_max must be >= 0, got {a_max}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if seed and sample is None:
        raise ValueError(f"seed = {seed} needs sample=: the exhaustive sweep draws no sample")
    if sample is None:
        if _box_leaf_count(r, a_max, MAX_EXHAUSTIVE_LEAVES) > MAX_EXHAUSTIVE_LEAVES:
            raise ValueError(
                f"exhaustive box a <= {a_max} at rank {r} has more than "
                f"{MAX_EXHAUSTIVE_LEAVES} descending leaves; pass sample= instead"
            )
    else:
        sample = operator.index(sample)
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        if a_max > 2**63 - 1:
            raise ValueError(f"sampled box a_max = {a_max} is past the int64 sampler's 2**63 - 1")
    from . import bulk

    scanned, covered, totals, flagged = bulk.sweep_blocks(r, k, a_max, sample, seed)
    applicable, passing, failing, exceptions, witness_total = totals
    violations = [v for row in flagged for v in _row_violations(*row, k)]
    return SweepSummary(
        r=r, k=k, a_max=a_max, sample=sample, seed=seed if sample else None,
        scanned=scanned, covered=covered, applicable=applicable,
        passing=passing, failing=failing, exceptions=exceptions,
        witness_total=witness_total, violations=tuple(violations),
    )
