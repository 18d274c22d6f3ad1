"""Command-line front end.

Subcommands: ``exceptional``, ``null-classes``, ``check``, ``verify``,
``adjoint``, ``tables``.  Human-readable tables go to stdout; ``--json``
switches ``check``/``adjoint``/``verify`` to the machine-readable report
(stable field names and order, all numbers decimal integers).

Class literals pair with an explicit ``--r``.  Two grammars:

* coefficient list ``a;b1,b2,...`` e.g. ``3;1,1,1`` (with ``--no-strict``,
  a short b is zero-padded instead of rejected);
* type pattern ``(a0;m1^n1,m2^n2,...)`` e.g. ``(6;3,2^7)``, or ``(a0;)``
  for a multiple of l, expanded at rank r to its multiplicities in
  descending order, then zeros (``(0;-1)`` is ``0;-1,0`` at rank 2).
  Each entry is checked by the pattern's own rules as it is read.

Integer options (``--r``, ``--k``, ``--box``, ``--sample``, ``--seed``)
take the grammar of a literal's entries: an optional sign, then ASCII
digits.  The library applies its own rules (a k below its bound, a box
too large to sweep, an ``adjoint`` input that is not k-very ample) and
raises ValueError; such a refusal prints one ``refusing: <reason>`` line
on stderr.

Exit status: 0 only when there was no parse or usage error or refusal
and, for ``verify``, no consistency violation; a parse or usage error
or a refusal exits 2 with nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .lattice import MAX_RANK, MIN_RANK, CurveTypePattern, PicardClass
from .enumeration import enumerate_exceptional, enumerate_null_classes, exceptional_type_census
from .positivity import EXCEPTION_NONE, adjoint_report, ampleness_level, is_k_very_ample
from .reider import consistency_sweep
from . import tables as table_views

USAGE_ERROR = 2


class ClassLiteralError(ValueError):
    """Malformed class literal; carries the 1-based column of the problem."""

    def __init__(self, message: str, column: int):
        super().__init__(message)
        self.column = column


def integer(text: str, start: int = 0) -> int:
    """A literal entry after column ``start``, or an integer option: an optional sign and
    ASCII digits, blanks around them allowed (int() would also take "1_0" and non-ASCII
    digits).  An error names its first non-blank column.  argparse names the type by this name."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        column = start + len(text) - len(text.lstrip()) + 1
        raise ClassLiteralError(f"expected an integer, got {text.strip()!r}", column)
    return int(text)


def _parse_coefficient_literal(text: str, r: int, strict: bool) -> PicardClass:
    if ";" not in text:
        raise ClassLiteralError("missing ';' between a and b coefficients", len(text))
    head, _, tail = text.partition(";")
    a = integer(head)
    b = []
    pos = len(head) + 1
    for piece in tail.split(","):
        if piece.strip() == "":
            raise ClassLiteralError("empty b coefficient", pos + 1)
        b.append(integer(piece, pos))
        pos += len(piece) + 1
    if len(b) > r:
        raise ClassLiteralError(f"{len(b)} b-coefficients for rank {r}", len(text) - len(tail.lstrip()) + 1)
    if len(b) < r:
        if strict:
            raise ClassLiteralError(
                f"{len(b)} b-coefficients for rank {r} (use --no-strict to zero-pad)",
                len(text),
            )
        b.extend([0] * (r - len(b)))
    return PicardClass(a, tuple(b))


def _parse_pattern_literal(text: str, r: int) -> PicardClass:
    text = text.rstrip()
    if not text.endswith(")"):
        raise ClassLiteralError("pattern literal must end with ')'", len(text))
    start = text.index("(") + 1
    inner = text[start:-1]
    if ";" not in inner:
        raise ClassLiteralError("missing ';' after a0 in pattern literal", len(text))
    head, _, tail = inner.partition(";")
    pattern = CurveTypePattern(integer(head, start), ())
    pos = start + len(head) + 1
    pieces = tail.split(",") if tail.strip() else []  # "(a0;)" has no entries
    for piece in pieces:
        if piece.strip() == "":
            raise ClassLiteralError("empty pattern entry", pos + 1)
        if "^" in piece:
            m_txt, _, n_txt = piece.partition("^")
            mult = integer(m_txt, pos)
            count = integer(n_txt, pos + len(m_txt) + 1)
        else:
            mult, count = integer(piece, pos), 1
        try:  # the pattern's own rules, reported at this entry
            pattern = CurveTypePattern(pattern.a0, (*pattern.entries, (mult, count)))
        except ValueError as exc:
            raise ClassLiteralError(str(exc), pos + 1) from None
        pos += len(piece) + 1
    try:
        return pattern.to_class(r)
    except ValueError as exc:
        raise ClassLiteralError(str(exc), start) from None


def parse_class_literal(text: str, r: int, strict: bool = True) -> PicardClass:
    """Parse either literal grammar against an explicit rank; columns count in ``text`` as given."""
    if not text.strip():
        raise ClassLiteralError("empty class literal", 1)
    if text.lstrip().startswith("("):
        return _parse_pattern_literal(text, r)
    return _parse_coefficient_literal(text, r, strict)


def _add_rank_option(parser):
    parser.add_argument("--r", type=integer, required=True, metavar="R",
                        choices=range(MIN_RANK, MAX_RANK + 1),
                        help=f"number of blown-up points ({MIN_RANK}..{MAX_RANK})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description="Exact positivity tests for divisor classes on del Pezzo surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exceptional", help="enumerate the exceptional classes at rank r")
    _add_rank_option(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--types", action="store_true", help="per-type census (default)")
    group.add_argument("--list", action="store_true", help="full class list, canonically sorted")

    p = sub.add_parser("null-classes", help="square-zero classes of anticanonical degree two")
    _add_rank_option(p)

    p = sub.add_parser("check", help="positivity report for one class")
    _add_rank_option(p)
    p.add_argument("--k", type=integer, default=0, metavar="K", help="ampleness level (default 0)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                   help="reject b-length mismatches (default); --no-strict zero-pads")
    p.add_argument("literal", help="class literal, e.g. \"3;1,1,1\" or \"(6;3,2^7)\"")

    p = sub.add_parser("verify", help="window-search consistency sweep")
    _add_rank_option(p)
    p.add_argument("--k", type=integer, default=1, metavar="K")
    p.add_argument("--box", type=integer, default=10, metavar="A", help="scan nef classes with a <= A")
    p.add_argument("--sample", type=integer, default=None, metavar="N",
                   help="seeded random sample instead of the exhaustive box")
    p.add_argument("--seed", type=integer, default=None, metavar="S",
                   help="sample seed, with --sample only (default 0, printed)")
    p.add_argument("--json", action="store_true", help="machine-readable summary")

    p = sub.add_parser("adjoint", help="adjoint class and its (k-1)-very-ampleness")
    _add_rank_option(p)
    p.add_argument("--k", type=integer, required=True, metavar="K")
    p.add_argument("--json", action="store_true")
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("literal")

    sub.add_parser("tables", help="emit all reference tables")
    return parser


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_exceptional(parser, args) -> int:
    if args.list:
        for cls in enumerate_exceptional(args.r):
            print(cls.render())
    else:
        print(table_views.render_rank_census(exceptional_type_census(args.r)), end="")
    return 0


def _cmd_null_classes(parser, args) -> int:
    records = enumerate_null_classes(args.r)
    print(table_views.render_null_class_table(records), end="")
    print()
    print(table_views.render_decomposition_table(records), end="")
    return 0


def _cmd_check(parser, args) -> int:
    L = parse_class_literal(args.literal, args.r, strict=args.strict)
    report = is_k_very_ample(L, args.k)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    print(f"class: {L.render()}  (r={args.r}, k={args.k})")
    print(f"degree: {report.degree}")
    print(f"genus: {report.genus}")
    print(f"effective: {_yes(report.effective)}")
    print(f"nef: {_yes(report.nef)}")
    print(f"spanned: {_yes(report.spanned)}")
    print(f"big: {_yes(report.big)}")
    print(f"{args.k}-very ample: {_yes(report.k_very_ample)}")
    print(f"exception_flag: {report.exception_flag}")
    if report.certificate is not None:
        parts = [f"{m}x({c.render()})" for c, m in report.certificate.subtracted]
        parts.append(f"nef remainder {report.certificate.terminal.render()}")
        print(f"effectivity certificate: {' + '.join(parts)}")
    violations = report.violations  # built off the report's values on each read
    if violations:
        print("violations:")
        for v in violations:
            print(f"  [{v.check}] {v.family}: value {v.value} < {v.bound}")
    return 0


def _cmd_verify(parser, args) -> int:
    if args.seed is not None and args.sample is None:
        parser.error("--seed needs --sample: the exhaustive sweep draws no sample")
    seed = 0 if args.seed is None else args.seed
    summary = consistency_sweep(args.r, args.k, args.box, sample=args.sample, seed=seed)
    if args.json:
        print(json.dumps(summary.as_dict(), indent=2))
    else:
        if args.sample is not None and args.seed is None:
            print("seed: 0 (default)")
        print(summary.render())
    return 0 if summary.ok else 1


def _cmd_adjoint(parser, args) -> int:
    ampleness_level(args.k, 1)  # refuse a bad k before reading the literal
    L = parse_class_literal(args.literal, args.r, strict=args.strict)
    adj_report = adjoint_report(L, args.k)
    adj, verdict = adj_report.subject, adj_report.k_very_ample
    if args.json:
        payload = {
            "subject": L.render(),
            "r": args.r,
            "k": args.k,
            "adjoint": adj.render(),
            "adjoint_k": args.k - 1,
            "adjoint_k_very_ample": verdict,
            "adjoint_report": adj_report.as_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"class: {L.render()}  (r={args.r}, k={args.k})")
    print(f"adjoint: {adj.render()}")
    print(f"{args.k - 1}-very ample: {_yes(verdict)}")
    if adj_report.exception_flag != EXCEPTION_NONE:
        print(f"exception_flag: {adj_report.exception_flag}")
    return 0


def _cmd_tables(parser, args) -> int:
    print(table_views.render_all_tables(), end="")
    return 0


_HANDLERS = {
    "exceptional": _cmd_exceptional,
    "null-classes": _cmd_null_classes,
    "check": _cmd_check,
    "verify": _cmd_verify,
    "adjoint": _cmd_adjoint,
    "tables": _cmd_tables,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](parser, args)
    except ClassLiteralError as exc:
        print(f"error: cannot parse class literal {args.literal!r}: {exc} (column {exc.column})",
              file=sys.stderr)
    except ValueError as exc:  # every library refusal
        print(f"refusing: {exc}", file=sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
