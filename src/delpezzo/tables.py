"""Plain-text table renderings for visual diffing.

Three tables: the per-type census of exceptional classes across all
ranks, the solutions of D.D = 0 / K.D = -2 at one rank, and their
splittings into pairs of exceptional classes.  Layout follows the
classical presentation: census rows are types with one column per rank;
null-class rows are sorted ascending with one zero-padded column per
coordinate.  Splitting cells list every type-pattern shape that occurs
(the classical table shows one witness per row; those all appear here).
"""

from __future__ import annotations

from .enumeration import (
    ExceptionalTable,
    NullClassRecord,
    enumerate_null_classes,
    exceptional_type_census,
)
from .lattice import MAX_RANK, MIN_RANK, type_pattern


def _format_row(cells, widths) -> str:
    return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths)).rstrip()


def _format_table(rows, header) -> str:
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    lines = [_format_row(header, widths)]
    lines.extend(_format_row(r, widths) for r in rows)
    return "\n".join(lines) + "\n"


def render_exceptional_census() -> str:
    """Census of exceptional classes by type, one column per rank 1..8."""
    tables = [exceptional_type_census(r) for r in range(MIN_RANK, MAX_RANK + 1)]
    patterns = sorted(
        {pat for t in tables for pat, _ in t.counts}, key=lambda p: p.sort_key()
    )
    header = ["type \\ r"] + [str(t.r) for t in tables]
    rows = [[pat.render()] + [t.count(pat) for t in tables] for pat in patterns]
    rows.append(["total"] + [t.total for t in tables])
    title = "exceptional classes by type (count per rank)"
    return f"{title}\n{_format_table(rows, header)}"


def render_rank_census(table: ExceptionalTable) -> str:
    """Single-rank census, one line per type."""
    header = ["type", "count"]
    rows = [[pat.render(), n] for pat, n in table.counts]
    rows.append(["total", table.total])
    title = f"exceptional classes on the rank-{table.r} surface"
    return f"{title}\n{_format_table(rows, header)}"


def render_null_class_table(records: tuple[NullClassRecord, ...]) -> str:
    """Solutions of D.D = 0, K.D = -2 with b ascending, plus their types;
    ``records`` is one rank's :func:`enumerate_null_classes`, never empty."""
    r = records[0].representative.r
    header = ["a"] + [f"b{i}" for i in range(1, r + 1)] + ["type"]
    rows = [
        [rec.representative.a, *rec.representative.b, type_pattern(rec.representative).render()]
        for rec in records
    ]
    title = f"classes with square zero and anticanonical degree two (rank {r})"
    return f"{title}\n{_format_table(rows, header)}"


def render_decomposition_table(records: tuple[NullClassRecord, ...]) -> str:
    """Splittings into two exceptional classes, every shape per value of a;
    ``records`` as for :func:`render_null_class_table`."""
    r = records[0].representative.r
    by_a: dict[int, set] = {}
    for rec in records:
        by_a.setdefault(rec.representative.a, set()).update(rec.decomposition_shapes())
    header = ["a", "decompositions"]
    rows = []
    for a in sorted(by_a):
        shapes = sorted(by_a[a], key=lambda p: (p[0].sort_key(), p[1].sort_key()))
        cell = " or ".join(f"{s1.render()}+{s2.render()}" for s1, s2 in shapes) or "(irreducible)"
        rows.append([a, cell])
    width = max(len(str(row[0])) for row in [header, *rows])
    lines = [f"{str(header[0]).rjust(width)}  {header[1]}"]
    lines.extend(f"{str(a).rjust(width)}  {cell}" for a, cell in rows)
    title = f"splittings into two exceptional classes (rank {r})"
    return f"{title}\n" + "\n".join(lines) + "\n"


def render_all_tables() -> str:
    """Everything the `tables` subcommand emits, in fixed order."""
    records = enumerate_null_classes(MAX_RANK)
    parts = [
        render_exceptional_census(),
        render_null_class_table(records),
        render_decomposition_table(records),
    ]
    return "\n".join(parts)
