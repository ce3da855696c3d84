import argparse
import json
from pathlib import Path

import pytest

from lietrace import cli, johnson
from lietrace.cli import main

# exact stdout of a few fast commands in every format; a refactor must leave
# every byte alone, so change this file only with an intended output change
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # -h prints its help and exits
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witt_csv_example(capsys):
    code, out, _ = run_cli(["witt", "--n", "2", "--k", "1..4", "--format", "csv"], capsys)
    assert code == 0
    assert out.strip() == "2,1,2,3"


def test_h1_json_shape(capsys):
    code, out, _ = run_cli(
        ["h1", "--group", "bp", "--n", "4", "--rep", "standard", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"free_rank": 2, "torsion": [4]}


def test_h1_file_presentation(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("a b\na b a^-1 b^-1\nb^2\n")
    code, out, _ = run_cli(
        ["h1", "--group", "file", "--file", str(path), "--rep", "trivial",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"free_rank": 1, "torsion": []}


def test_table8_rows(capsys):
    code, out, _ = run_cli(["table8", "--kmax", "7", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"title", "columns", "rows", "provenance"}
    assert doc["rows"] == [
        [5, [3, 2], 2, 0],
        [6, [4, 2], 2, 0],
        [6, [3, 3], 3, 0],
        [6, [2, 2, 2], 15, 1],
        [7, [5, 2], 3, 0],
        [7, [4, 3], 5, 0],
        [7, [3, 2, 2], 30, 0],
    ]


def test_json_documents_schema_stable(capsys):
    for args in (
        ["ranks", "--n", "3", "--k", "1..3"],
        ["table7", "--n", "3"],
        ["n3gap", "--kmax", "3"],
        ["trace", "--n", "3", "--k", "3", "--mode", "tilde"],
        ["image", "--n", "3", "--k", "3"],
        ["egens", "--n", "3"],
        ["h2", "--n", "3"],
    ):
        code, out, _ = run_cli(args + ["--format", "json"], capsys)
        assert code == 0, args
        doc = json.loads(out)
        assert set(doc) == {"title", "columns", "rows", "provenance"}


def test_formats_carry_identical_numbers(capsys):
    outputs = {}
    for fmt in ("text", "csv", "json"):
        code, out, _ = run_cli(["table7", "--n", "3", "--format", fmt], capsys)
        assert code == 0
        outputs[fmt] = out
    doc = json.loads(outputs["json"])
    for row in doc["rows"]:
        for value in row[:-1]:
            assert str(value) in outputs["text"]
            assert str(value) in outputs["csv"]


def test_rerun_byte_identical(capsys):
    first = run_cli(["calpha", "--k", "6", "--format", "json"], capsys)
    second = run_cli(["calpha", "--k", "6", "--format", "json"], capsys)
    assert first == second


def test_threads_do_not_change_output(capsys):
    # clear the block-rank cache so that the threaded run computes its blocks
    # (the rank-deficient (2,2,2,2) block included) on the pool
    johnson._block_trace_rank.cache_clear()
    base = run_cli(["table8", "--kmax", "8", "--format", "csv"], capsys)
    johnson._block_trace_rank.cache_clear()
    threaded = run_cli(
        ["table8", "--kmax", "8", "--format", "csv", "--threads", "4"], capsys
    )
    assert base[1] == threaded[1]


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "doc.json"
    code, out, _ = run_cli(
        ["witt", "--n", "2", "--k", "2", "--format", "json", "--out", str(path)],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["rows"] == [[2, 2, 1]]


@pytest.mark.parametrize("where", ["missing directory", "existing directory"])
def test_unwritable_out_is_refused_before_the_command_runs(tmp_path, monkeypatch, capsys, where):
    def never(args):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(cli, "_cmd_n3gap", never)
    path = tmp_path / "missing" / "x" if where == "missing directory" else tmp_path
    code, out, err = run_cli(["n3gap", "--kmax", "6", "--out", str(path)], capsys)
    assert code == 1 and out == "" and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []  # no file or directory left behind


def test_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1
    code, _, err = run_cli(["witt", "--n", "2"], capsys)
    assert code == 1
    code, _, err = run_cli([], capsys)
    assert code == 1
    # options exist only on the commands that read them
    for args in (
        ["witt", "--n", "3", "--k", "4", "--cache", "somewhere"],
        ["witt", "--n", "3", "--k", "4", "--threads", "2"],
        ["n3gap", "--kmax", "2", "--threads", "2"],
    ):
        code, out, _ = run_cli(args, capsys)
        assert code == 1 and out == "", args
    # out-of-range input is refused with a message, never answered as an empty table
    for args in (
        ["trace", "--n", "0", "--k", "2"],
        ["witt", "--n", "5..3", "--k", "2"],
        ["ranks", "--n", "3", "--k", "3..1"],
        ["image", "--n", "3", "--k", "0"],
        ["n3gap", "--kmax", "0"],
        ["calpha", "--k", "0"],
        ["calpha", "--k", "-3"],
        ["calpha", "--k", "1"],  # without --alpha the table starts at degree 4
        ["calpha", "--k", "2"],
        ["calpha", "--k", "3"],
        ["table8", "--kmax", "0"],
        ["table8", "--kmax", "-2"],
        ["table8", "--kmax", "4"],  # the table starts at degree 5
        ["calpha", "--k", "6", "--threads", "-3"],
        ["calpha", "--k", "6", "--threads", "0"],
        ["table8", "--kmax", "6", "--threads", "0"],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == "" and err.startswith(("usage error:", "error:")), args
    # calpha names the empty range and the way to ask for one small content
    code, out, err = run_cli(["calpha", "--k", "3"], capsys)
    assert code == 1 and "k < 4" in err and "--alpha" in err
    # a negative n is refused by name, not as a failed factorial
    code, out, err = run_cli(["trace", "--n", "-1", "--k", "2"], capsys)
    assert (code, out, err) == (1, "", "error: need n >= 1 and k >= 1\n")
    # a presentation file that repeats a generator name is refused, not
    # answered for a group with one more generator
    path = tmp_path / "dup.txt"
    path.write_text("a a\na a\n")
    for args in (
        ["abelianize", "--group", "file", "--file", str(path)],
        ["h1", "--group", "file", "--file", str(path), "--rep", "trivial"],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == "" and "repeated generator" in err, args
    # a malformed exponent is refused by its token and file line
    path.write_text("a b\n# a comment\na b^x\n")
    refusal = "error: line 3: exponent of 'b^x' is not an integer\n"
    for args in (
        ["abelianize", "--group", "file", "--file", str(path)],
        ["h1", "--group", "file", "--file", str(path), "--rep", "trivial"],
    ):
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (1, "", refusal), args
    # --file is read only with --group file, and --n only with a builtin group:
    # neither is ignored and answered for another presentation
    path.write_text("a b\na b a^-1 b^-1\n")
    for args, option in (
        (["h1", "--group", "bp", "--n", "3", "--file", str(path)], "--file"),
        (["abelianize", "--group", "braid", "--file", str(path)], "--file"),
        (["h1", "--group", "file", "--file", str(path), "--rep", "trivial", "--n", "3"], "--n"),
        (["abelianize", "--group", "file", "--file", str(path), "--n", "7"], "--n"),
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == "" and err.startswith(f"usage error: {option} "), args


def test_range_and_alpha_refusals_name_the_option(capsys):
    # a value that is not an integer is refused by option and accepted form,
    # not with Python's message for int()
    for args, option, form in (
        (["witt", "--n", "a", "--k", "1"], "--n", "LO..HI"),
        (["witt", "--n", "2", "--k", "1.."], "--k", "LO..HI"),
        (["ranks", "--n", "2..x", "--k", "1"], "--n", "LO..HI"),
        (["calpha", "--k", "5", "--alpha", "3,x"], "--alpha", "comma list of positive integers"),
    ):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "") and err.startswith(f"usage error: {option} ") and form in err, args
        assert "invalid literal" not in err


def test_t0530_names_the_bound_it_refuses(capsys):
    # a degree below 1 is refused by the bound on k alone: n = 3 is allowed
    code, out, err = run_cli(["t0530", "--n", "3", "--k", "0"], capsys)
    assert (code, out, err) == (1, "", "error: need k >= 1\n")
    code, out, err = run_cli(["t0530", "--n", "2", "--k", "4"], capsys)
    assert (code, out, err) == (1, "", "error: need n >= 3\n")


def test_table7_names_the_bound_it_refuses(capsys):
    # table7 takes no k, so its refusal names n alone
    for n in ("1", "0"):
        code, out, err = run_cli(["table7", "--n", n], capsys)
        assert (code, out, err) == (1, "", "error: need n >= 2\n"), n


def test_inconsistency_exits_2(monkeypatch, capsys):
    # a failed consistency check is a verification mismatch, not a crash
    from lietrace import grouppres
    from lietrace._words import InconsistencyError

    def fail(*args):
        raise InconsistencyError("injected")

    monkeypatch.setattr(johnson, "coker_structure", fail)
    monkeypatch.setattr(grouppres, "h1_twisted", fail)
    for args in (["coker", "--n", "3", "--k", "4"], ["h1", "--group", "bp", "--n", "4"]):
        for fmt in ("text", "csv", "json"):
            code, out, err = run_cli(args + ["--format", fmt], capsys)
            assert (code, out, err) == (2, "", "inconsistency: injected\n"), args


def test_failed_check_writes_its_table_and_exits_2(monkeypatch, capsys, tmp_path):
    # a t0530 violation or a failed egens count still writes the whole table
    # to stdout or --out; only the exit code (and t0530's stderr line) differ
    bad_t0530 = johnson.T0530Report(3, 3, (((1, 1, 1), 1),), (), ((1, 1, 1),))
    bad_egens = johnson.EGeneratorReport(3, (1, 2, 3, 4), 10, 11, 10, 10)
    monkeypatch.setattr(johnson, "check_T0530", lambda n, k: bad_t0530)
    monkeypatch.setattr(johnson, "verify_E_generators", lambda n: bad_egens)
    cases = (
        (["t0530", "--n", "3", "--k", "3"], "violations: ((1, 1, 1),)\n"),
        (["egens", "--n", "3"], ""),
    )
    for args, err_want in cases:
        for fmt in ("text", "csv", "json"):
            argv = args + ["--format", fmt]
            code, out, err = run_cli(argv, capsys)
            assert (code, err) == (2, err_want), argv
            path = tmp_path / f"{args[0]}.{fmt}"
            assert run_cli(argv + ["--out", str(path)], capsys) == (2, "", err_want)
            written = path.read_text()
            if fmt == "json":
                doc, written_doc = json.loads(out), json.loads(written)
                assert doc["provenance"] == " ".join(argv)
                assert written_doc["provenance"] == " ".join(argv + ["--out", str(path)])
                assert doc["rows"] == written_doc["rows"] and doc["rows"]
            else:
                assert written == out and out.count("\n") >= 1
    code, out, _ = run_cli(["t0530", "--n", "3", "--k", "3", "--format", "csv"], capsys)
    assert out == "(1 1 1),1,True\n"
    code, out, _ = run_cli(["egens", "--n", "3", "--format", "csv"], capsys)
    assert out == "(1 2 3 4),10,11,10,10,False\n"


def test_commands_return_their_documents(capsys):
    # a command only builds its result; main renders and writes it
    parser = cli.build_parser()
    args = parser.parse_args(["h2", "--n", "3"])
    doc = args.fn(args)
    assert isinstance(doc, cli.TableDocument)
    assert (doc.columns, doc.rows, doc.provenance) == (["n", "rank"], [[3, 9]], "")
    args = parser.parse_args(["egens", "--n", "3"])
    doc, ok = args.fn(args)
    assert ok is True and doc.rows[0][-1] is True
    args = parser.parse_args(["coker", "--n", "3", "--k", "4", "--format", "json"])
    assert args.fn(args) == '{"free_rank": 3, "torsion": []}\n'
    assert capsys.readouterr().out == ""


COMMANDS = ["witt", "ranks", "trace", "image", "calpha", "table7", "table8", "n3gap",
            "coker", "t0530", "egens", "h1", "h2", "abelianize"]


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_one_subparser_equals_the_full_parser():
    # main builds only the invoked command; its subparser must be the one the
    # full parser holds, help text and all
    full = _subparsers(cli.build_parser())
    assert list(full) == COMMANDS
    for name in COMMANDS:
        one = _subparsers(cli.build_parser(name))
        assert list(one) == [name]
        assert one[name].format_help() == full[name].format_help(), name
    assert list(_subparsers(cli.build_parser("frobnicate"))) == COMMANDS


def test_main_answers_as_with_the_full_parser(monkeypatch, capsys):
    cases = [["-h"], [], ["frobnicate"], ["witt", "--n", "2"], ["h1", "--n", "3"]]
    cases += [[name, "-h"] for name in COMMANDS]
    got = [run_cli(args, capsys) for args in cases]
    build_all = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_all())
    assert got == [run_cli(args, capsys) for args in cases]
    code, out, _ = got[0]
    assert code == 0 and all(name in out for name in COMMANDS)
    assert "{" + ",".join(COMMANDS) + "}" in out


def test_missing_file_reported_before_rep(capsys):
    code, out, err = run_cli(["h1", "--group", "file", "--rep", "standard"], capsys)
    assert (code, out) == (1, "") and "needs --file" in err
    code, out, err = run_cli(["abelianize", "--group", "file"], capsys)
    assert (code, out) == (1, "") and "needs --file" in err


def test_calpha_alpha_must_sum_to_k(capsys):
    code, out, err = run_cli(["calpha", "--k", "5", "--alpha", "3,3"], capsys)
    assert code == 1 and out == ""
    assert "sums to 6" in err
    code, out, _ = run_cli(["calpha", "--k", "6", "--alpha", "3,3", "--format", "csv"], capsys)
    assert code == 0
    assert out == "6,(3 3),3,0\n"
    # an empty --alpha names no content; it is refused, not read as no --alpha
    code, out, err = run_cli(["calpha", "--k", "6", "--alpha", ""], capsys)
    assert (code, out) == (1, "") and err.startswith("usage error:") and "--alpha" in err


def test_coker_and_abelianize(capsys):
    code, out, _ = run_cli(["coker", "--n", "3", "--k", "4", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"free_rank": 3, "torsion": []}
    code, out, _ = run_cli(
        ["abelianize", "--group", "bp", "--n", "5", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out) == {"free_rank": 1, "torsion": [2]}


def test_coker_degree_one(capsys):
    # the degree-1 bar target is 0, as the first row of table7 shows
    code, out, err = run_cli(["coker", "--n", "3", "--k", "1", "--format", "json"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out) == {"free_rank": 0, "torsion": []}
    code, out, _ = run_cli(["coker", "--n", "3", "--k", "1", "--format", "csv"], capsys)
    assert code == 0 and out == "0,()\n"


def test_t0530_command(capsys):
    code, out, _ = run_cli(["t0530", "--n", "3", "--k", "3"], capsys)
    assert code == 0
    assert "skipped" not in out or "True" in out


def test_big_integers_serialized_as_strings():
    doc = cli.TableDocument("t", ["v"], [[2**60]], "p")
    assert doc.to_json_obj()["rows"][0][0] == str(2**60)
    doc = cli.TableDocument("t", ["v"], [[2**40]], "p")
    assert doc.to_json_obj()["rows"][0][0] == 2**40


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_output_pinned_byte_for_byte(argv, capsys):
    assert run_cli(argv.split(), capsys) == (0, GOLDEN[argv], "")
