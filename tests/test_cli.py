import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from delpezzo.cli import ClassLiteralError, main, parse_class_literal
from delpezzo.lattice import PicardClass, type_pattern

GOLDEN = Path(__file__).parent / "golden"
# one "golden argv..." line per CLI golden: criterion 9 diffs each line in
# process, and CI runs each line cold and diffs it
MANIFEST = [(golden, argv) for golden, *argv in map(str.split, (GOLDEN / "MANIFEST").read_text().splitlines())]

# A child that makes numpy unimportable before anything loads, then runs
# each argv of the JSON list in sys.argv[2] through main against the
# package in sys.argv[1], and prints each exit code and stdout.
NUMPY_FREE_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
sys.path.insert(0, sys.argv[1])
import delpezzo
from delpezzo import consistency_sweep
from delpezzo.cli import main
runs = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"runs": runs, "bulk_loaded": "delpezzo.bulk" in sys.modules}))
"""

# small entries (zeros often, so b = 0 too) and entries past 2**63 of either sign
coeff = st.integers(-3, 3) | st.integers(-99, 99) | st.integers(2**63, 2**66) | st.integers(-2**66, -2**63)
literal_classes = st.integers(1, 8).flatmap(
    lambda r: st.builds(PicardClass, coeff, st.tuples(*[coeff] * r))
)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLiteralParsing:
    @given(literal_classes)
    def test_parse_inverts_render(self, L):
        assert parse_class_literal(L.render(), L.r) == L
        pattern = type_pattern(L)  # "(a;)" when b = 0
        assert parse_class_literal(pattern.render(), L.r) == pattern.to_class(L.r)

    def test_coefficient_form(self):
        assert parse_class_literal("3;1,1,1", 3) == PicardClass(3, (1, 1, 1))
        assert parse_class_literal("0;-1", 1) == PicardClass(0, (-1,))

    def test_pattern_form_expands_against_rank(self):
        assert parse_class_literal("(6;3,2^7)", 8) == PicardClass(6, (3, 2, 2, 2, 2, 2, 2, 2))
        assert parse_class_literal("(1;1^2)", 4) == PicardClass(1, (1, 1, 0, 0))
        assert parse_class_literal("(0;-1)", 2) == PicardClass(0, (-1, 0))
        assert parse_class_literal("(1;)", 2) == PicardClass(1, (0, 0))  # no entries: a multiple of l
        assert parse_class_literal("( 4 ; )", 3) == PicardClass(4, (0, 0, 0))

    def test_pattern_needs_enough_coordinates(self):
        with pytest.raises(ClassLiteralError):
            parse_class_literal("(2;1^5)", 3)

    def test_length_mismatch_strict_vs_padded(self):
        with pytest.raises(ClassLiteralError):
            parse_class_literal("3;1,1", 3)
        assert parse_class_literal("3;1,1", 3, strict=False) == PicardClass(3, (1, 1, 0))
        with pytest.raises(ClassLiteralError):
            parse_class_literal("3;1,1,1,1", 3, strict=False)  # too many is never ok

    def test_pattern_render_parses_back(self):
        from delpezzo.enumeration import exceptional_type_census

        for r in (1, 4, 8):
            for pat, _ in exceptional_type_census(r).counts:
                assert parse_class_literal(pat.render(), r) == pat.to_class(r)

    @pytest.mark.parametrize("text,column", [
        ("3;1_0,1", 3),  # int() reads 1_0 as 10
        ("3;\u0661,1", 3),  # ARABIC-INDIC DIGIT ONE
        ("\uff13;1,1", 1),  # FULLWIDTH DIGIT THREE
        ("(2;1^\u0665)", 6),
    ])
    def test_integers_are_ascii_decimal(self, text, column):
        with pytest.raises(ClassLiteralError) as info:
            parse_class_literal(text, 2 if text[0] != "(" else 5)
        assert info.value.column == column

    def test_signs_and_padding_still_parse(self):
        assert parse_class_literal(" +3 ; -1 , 007 ", 2) == PicardClass(3, (-1, 7))

    def test_error_carries_column(self):
        with pytest.raises(ClassLiteralError) as info:
            parse_class_literal("3;1,x,1", 3)
        assert info.value.column == 5
        with pytest.raises(ClassLiteralError) as info:
            parse_class_literal("abc", 2)
        assert info.value.column > 0


class TestSubcommands:
    def test_exceptional_types_totals_27_lines(self, capsys):
        code, out, _ = run_cli(capsys, "exceptional", "--r", "6", "--types")
        assert code == 0
        assert "total" in out and "27" in out
        assert "(2;1^5)" in out

    def test_exceptional_list_rank_one(self, capsys):
        code, out, _ = run_cli(capsys, "exceptional", "--r", "1", "--list")
        assert code == 0
        assert out.strip() == "0;-1"

    @pytest.mark.parametrize("argv", [
        ("exceptional",), ("null-classes",), ("check", "3;1,1,1"), ("verify",),
        ("adjoint", "--k", "1", "3;1,1,1"),
    ], ids=lambda argv: argv[0])
    def test_bad_rank_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--r", "9")
        assert code == 2
        assert "--r" in err

    def test_null_classes_rank8(self, capsys):
        code, out, _ = run_cli(capsys, "null-classes", "--r", "8")
        assert code == 0
        rows = [line for line in out.splitlines() if line.strip() and line.strip()[0].isdigit()]
        assert sum(1 for line in rows if "(" in line and "+" not in line) == 15
        assert "11" in out
        assert "(1;1^2)+(1;1^2)" in out

    def test_null_classes_rank3_restricts(self, capsys):
        code, out, _ = run_cli(capsys, "null-classes", "--r", "3")
        assert code == 0
        rows = [line.split() for line in out.splitlines() if line and line[0].isdigit()]
        assert ["1", "0", "0", "1", "(1;1)"] in rows

    def test_check_reads_a_multiple_of_l(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--r", "2", "(1;)")
        assert code == 0
        assert out.startswith("class: 1;0,0  (r=2, k=0)\n")

    def test_check_exception_class(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--r", "8", "--k", "1", "3;1,1,1,1,1,1,1,1")
        assert code == 0
        assert "1-very ample: no" in out
        assert "exception_flag: minus_kK_S8" in out

    def test_check_rank_one_positive(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--r", "1", "--k", "2", "4;2")
        assert code == 0
        assert "2-very ample: yes" in out

    def test_check_violating_class(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--r", "2", "--k", "1", "3;2,2")
        assert code == 0
        assert "nef: no" in out
        assert "a >= b_i + b_j" in out

    def test_check_huge_multiplicity_certificate(self, capsys):
        # one exceptional class of multiplicity 10**8: a single run, read off
        # in closed form rather than one step per unit
        code, out, _ = run_cli(capsys, "check", "--r", "2", "0;-100000000,0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdicts"]["effective"] is True
        assert payload["certificate"] == {"subtracted": [["0;-1,0", 100000000]], "terminal": "0;0,0"}

    def test_check_parse_error_diagnostic(self, capsys):
        code, _, err = run_cli(capsys, "check", "--r", "2", "--k", "1", "3;2,x")
        assert code == 2
        assert "column" in err

    def test_check_refuses_underscored_integer(self, capsys):
        code, out, err = run_cli(capsys, "check", "--r", "2", "3;1_0,1")
        assert code == 2 and out == ""
        assert "'1_0'" in err and "(column 3)" in err

    def test_check_no_strict_pads(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--r", "4", "--k", "0", "--no-strict", "1;1")
        assert code == 0
        assert "class: 1;1,0,0,0" in out

    def test_verify_small_box(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--r", "2", "--k", "1", "--box", "10")
        assert code == 0
        assert "violations: 0" in out

    def test_verify_sample_prints_default_seed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--r", "5", "--k", "1", "--box", "8",
                               "--sample", "40")
        assert code == 0
        assert "seed: 0 (default)" in out

    def test_verify_refuses_past_envelope(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--r", "8", "--k", "5")
        assert code == 2
        assert err.startswith("refusing: ") and "desk-scale" in err

    def test_verify_refuses_oversized_exhaustive_box(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--r", "8", "--k", "1", "--box", "200")
        assert code == 2
        assert "sample" in err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (("--box", "-3"), "a_max must be >= 0, got -3"),
            (("--box", "-3", "--sample", "5"), "a_max must be >= 0, got -3"),
            (("--sample", "0"), "sample must be >= 1, got 0"),
            (("--sample", "5", "--seed", "-1"), "seed must be >= 0, got -1"),
            (("--box", "10000000000000000000", "--sample", "3"), "past the int64 sampler"),
        ],
    )
    def test_verify_refuses_bad_box_and_sampling(self, capsys, extra, message):
        code, out, err = run_cli(capsys, "verify", "--r", "3", "--k", "1", *extra)
        assert code == 2 and out == ""
        assert err.startswith("refusing: ") and message in err

    def test_verify_seed_without_sample_is_usage_error(self, capsys):
        # the exhaustive sweep draws no sample, so a seed would be dropped
        code, out, err = run_cli(capsys, "verify", "--r", "3", "--k", "1", "--box", "4", "--seed", "3")
        assert code == 2 and out == ""
        assert "--seed needs --sample" in err

    def test_verify_rank8_seeded_sample(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--r", "8", "--k", "1",
                               "--sample", "1000", "--seed", "7", "--box", "12")
        assert code == 0
        assert "violations: 0" in out
        code, again, _ = run_cli(capsys, "verify", "--r", "8", "--k", "1",
                                 "--sample", "1000", "--seed", "7", "--box", "12")
        assert again == out  # deterministic under a fixed seed

    def test_adjoint_examples(self, capsys):
        code, out, _ = run_cli(capsys, "adjoint", "--r", "2", "--k", "2", "6;2,2")
        assert code == 0
        assert "adjoint: 3;1,1" in out and "1-very ample: yes" in out
        code, out, _ = run_cli(capsys, "adjoint", "--r", "1", "--k", "1", "3;2")
        assert code == 0
        assert "adjoint: 0;1" in out and "0-very ample: no" in out
        code, out, _ = run_cli(capsys, "adjoint", "--r", "1", "--k", "1", "4;2")
        assert code == 0
        assert "0-very ample: yes" in out

    @pytest.mark.parametrize("r,k,literal", [(1, 1, "3;2"), (1, 1, "4;2"), (2, 2, "6;2,2"),
                                             (7, 2, "6;2,2,2,2,2,2,2")])
    def test_adjoint_builds_each_report_once(self, capsys, monkeypatch, r, k, literal):
        import delpezzo.cli as cli
        import delpezzo.positivity as positivity
        from delpezzo.lattice import adjoint
        from delpezzo.positivity import adjoint_kva_check, is_k_very_ample

        calls = []

        def counting_report(L, k):
            calls.append((L, k))
            return is_k_very_ample(L, k)

        # count reports built by the CLI and by any library helper it calls
        monkeypatch.setattr(cli, "is_k_very_ample", counting_report)
        monkeypatch.setattr(positivity, "is_k_very_ample", counting_report)
        code, out, _ = run_cli(capsys, "adjoint", "--r", str(r), "--k", str(k), literal, "--json")
        monkeypatch.undo()
        assert code == 0
        L = parse_class_literal(literal, r)
        assert calls == [(L, k), (adjoint(L), k - 1)]
        # the verdict read off the reports is the library's
        assert json.loads(out)["adjoint_k_very_ample"] == adjoint_kva_check(L, k)

    def test_adjoint_rejects_non_ample_input(self, capsys):
        code, out, err = run_cli(capsys, "adjoint", "--r", "2", "--k", "1", "3;2,2")
        assert code == 2 and out == ""
        assert err == "refusing: 3;2,2 is not 1-very ample; adjoint check needs that\n"


class TestRefusals:
    """Every refusal exits 2 with nothing on stdout and one line on stderr."""

    @pytest.mark.parametrize("argv,option,value", [
        (("check", "--r", "2", "--k", "1_0", "9;1,1"), "--k", "1_0"),
        (("verify", "--r", "2", "--box", "\u0661\u0660"), "--box", "\u0661\u0660"),
        (("verify", "--r", "2", "--sample", "3", "--seed", "\uff15"), "--seed", "\uff15"),
        (("check", "--r", "\uff18", "3;1,1,1,1,1,1,1,1"), "--r", "\uff18"),
    ], ids=["underscore", "arabic-indic", "fullwidth-seed", "fullwidth-rank"])
    def test_integer_options_take_the_literal_grammar(self, capsys, argv, option, value):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"argument {option}: invalid integer value: {value!r}" in err

    @pytest.mark.parametrize("argv,least", [
        (("check", "--r", "2", "--k", "-1", "3;1,1"), 0),
        (("verify", "--r", "2", "--k", "-1"), 0),
        (("adjoint", "--r", "2", "--k", "0", "3;1,1"), 1),
    ], ids=["check", "verify", "adjoint"])
    def test_k_below_its_bound_is_the_library_refusal(self, capsys, argv, least):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"refusing: k must be >= {least}, got {least - 1}\n"

    @pytest.mark.parametrize("literal,column", [
        ("3;1,,1", 5),  # an empty b coefficient
        ("(3;1", 4),  # no closing parenthesis
        ("(3)", 3),  # no ';' after a0
        ("(3;1,)", 6),  # an empty pattern entry
        ("(3;1^0)", 4),  # a count below 1: the pattern's own refusal, at its entry
        ("(3;0)", 4),  # a zero multiplicity
        ("(6;2,3)", 6),  # the entry that breaks the descending order
        ("(2;1^4)", 1),  # more multiplicities than coordinates: the rank's refusal
        ("   ", 1),  # a blank literal
        ("  3;x,1", 5),  # columns count the blanks of the literal as given
        ("3; x,1", 4),
        ("(6; z,2^7)", 5),
        (" (6;3,2^x)", 9),
        ("3; 1,1,1,1", 4),  # too many b: the first b entry
    ])
    def test_literal_errors_report_their_column(self, capsys, literal, column):
        code, out, err = run_cli(capsys, "check", "--r", "3", literal)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot parse class literal {literal!r}: ")
        assert err.endswith(f" (column {column})\n")

    def test_tied_certificate_past_the_index_range(self, capsys):
        code, out, err = run_cli(capsys, "check", "--r", "2",
                                 "0;-100000000000000000000,-100000000000000000000")
        assert code == 2 and out == ""
        assert err.startswith("refusing: cannot certify ") and err.count("\n") == 1
        assert "200000000000000000000 runs" in err

    def test_adjoint_text_mode_prints_the_exception_flag(self, capsys):
        code, out, _ = run_cli(capsys, "adjoint", "--r", "7", "--k", "2", "6;2,2,2,2,2,2,2")
        assert code == 0
        assert "adjoint: 3;1,1,1,1,1,1,1" in out and "1-very ample: no" in out
        assert "exception_flag: minus_K_S7_k1" in out


class TestGoldenManifest:
    def test_every_golden_is_read_once(self):
        # a golden is a MANIFEST line or is read by a named test:
        # test_demos (demo_*.txt) or test_witness_records_match_golden
        read = [golden for golden, _ in MANIFEST] + ["witness_records.json"]
        read += [p.name for p in GOLDEN.glob("demo_*.txt")]
        assert sorted(read) == sorted(p.name for p in GOLDEN.iterdir() if p.name != "MANIFEST")

    def test_argv_splits_as_is(self):
        # CI's `read -r golden argv` expands $argv unquoted, so a line holds
        # printable ASCII split at spaces, no token globs, and the last line
        # ends in a newline, which read needs
        text = (GOLDEN / "MANIFEST").read_text()
        assert text.endswith("\n") and text.isascii() and text.replace("\n", "").isprintable()
        for golden, argv in MANIFEST:
            assert argv and not set("".join(argv)) & set("*?["), golden

    def test_every_command_but_verify_runs_without_numpy(self):
        # only verify needs arrays: the package root, its exports and the
        # other commands load neither numpy nor delpezzo.bulk
        goldens = [(golden, argv) for golden, argv in MANIFEST if argv[0] != "verify"]
        listings = [["exceptional", "--r", "8", "--list"], ["exceptional", "--r", "8", "--types"],
                    ["null-classes", "--r", "8"]]
        argvs = [argv for _, argv in goldens] + listings
        src = str(Path(__file__).resolve().parents[1] / "src")
        child = subprocess.run([sys.executable, "-c", NUMPY_FREE_CHILD, src, json.dumps(argvs)],
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0 and child.stderr == "", child.stderr
        report = json.loads(child.stdout)
        for (golden, _), (_, out) in zip(goldens, report["runs"]):
            assert out.encode() == (GOLDEN / golden).read_bytes(), golden
        assert [code for code, _ in report["runs"][len(goldens):]] == [0] * len(listings)
        assert len(report["runs"]) == len(argvs) and not report["bulk_loaded"]
