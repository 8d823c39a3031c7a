import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lt import cli, ptplus
from lt.cli import main
from lt.errors import LTError, ParseError

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


@pytest.fixture(autouse=True)
def emitted(monkeypatch):
    """The value of every verdict a test here prints, each checked to be
    written exactly as json.dumps(value, indent=2) writes it."""
    values, write = [], cli.dumps

    def spy(obj):
        text = write(obj)
        assert text == json.dumps(obj, indent=2)
        values.append(obj)
        return text

    monkeypatch.setattr(cli, "dumps", spy)
    return values


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseExpand:
    def test_parse_dump(self, capsys):
        code, out, _ = run(capsys, "parse", "P0 -> P1")
        assert code == 0
        assert "IMPLIES" in out

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "P0 & | P1")
        assert code == 2
        assert "offset 5" in err

    def test_deep_strict_negation_expand(self, capsys):
        # the printer does not recurse: 600 ~ expand to some 3,000 levels
        code, out, _ = run(capsys, "expand", "~ " * 600 + "P0")
        expected = "P0"
        for _ in range(600):
            expected = f"!((({expected} i& !bot) & !ibot) i| !bot)"
        assert code == 0 and out == expected + "\n"

    def test_deep_strict_negation_parse(self, capsys):
        code, out, _ = run(capsys, "parse", "~ " * 600 + "P0")
        assert code == 0
        tag = "Derived(tag=<DerivedTag.STRICT_NOT: '~'>, args=("
        assert out == tag * 600 + "Var(index=0)" + ",))" * 600 + "\n"

    def test_expand_dia(self, capsys):
        code, out, _ = run(capsys, "expand", "dia P0")
        assert code == 0
        assert out == "(P0 i& !bot) i| !bot\n"


class TestEval:
    def test_strict_double_negation(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "1", "--assign", "P0=[]", "~ ~ P0")
        assert code == 0
        assert json.loads(out) == {"algebra_n": 1, "denotation": ["0"]}

    def test_trivial_algebra(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "0", "--assign", "", "ibot")
        assert code == 0
        assert json.loads(out) == {"algebra_n": 0, "denotation": [""]}

    def test_down_closure_of_top(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "2", "--assign", "P0=[11]", "down P0")
        assert code == 0
        assert json.loads(out)["denotation"] == ["00", "01", "10", "11"]

    def test_native_is_an_unknown_option(self, capsys):
        # derived connectives have one evaluator; --native is a usage error
        code, out, err = run(capsys, "eval", "--n", "2", "--assign", "P0=[01,10]", "--native", "~P0")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --native" in err and "Traceback" not in err

    def test_unbound_variable_is_error(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "1", "P0")
        assert code == 2
        assert "P0" in err

    @pytest.mark.parametrize(
        "name, message",
        [
            ("P²", "bad variable name 'P²' in --assign; use P<digits>"),
            ("P1x", "bad variable name 'P1x' in --assign; use P<digits>"),
            ("P" + "1" * 5000, "index of P<5000 digits> in --assign is too large"),
        ],
    )
    def test_assign_target_is_read_as_the_lexer_reads_it(self, capsys, name, message):
        # ASCII digits only, and no more than int() reads: never Python's own message
        code, out, err = run(capsys, "eval", "--n", "1", "--assign", f"{name}=[]", "P0")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("second", ["P1=[]", "P01=[00]", " P1 = [11]"])
    def test_repeated_assign_target_is_error(self, capsys, second):
        # the second assignment to a variable does not silently win
        first = ["eval", "--n", "2", "--assign", "P1=[00]", "--assign"]
        code, out, err = run(capsys, *first, second, "P1")
        assert (code, out, err) == (2, "", "error: P1 is assigned more than once\n")
        code, out, _ = run(capsys, *first, "P0=[]", "P1")
        assert code == 0 and json.loads(out)["denotation"] == ["00"]

    def test_oversized_variable_index_is_a_syntax_error(self, capsys):
        code, out, err = run(capsys, "entail", "|- P" + "7" * 5000)
        assert (code, out) == (2, "")
        assert err == "syntax error at offset 3: index of P<5000 digits> is too large\n"
        code, out, err = run(capsys, "lentail", "p" + "7" * 5000 + " : P0 |- p0 : P0")
        assert (code, out) == (2, "") and err.startswith("syntax error at offset 0: index of p<")


class TestEntail:
    def test_countermodel_verdict_bytes(self, capsys):
        code, out, _ = run(capsys, "entail", "ibot |- i! ibot")
        assert code == 1
        assert out == (
            '{\n'
            '  "status": "countermodel",\n'
            '  "n": 1,\n'
            '  "max_n": 3,\n'
            '  "class": "all",\n'
            '  "cap": 4194304,\n'
            '  "jobs": 1,\n'
            '  "countermodel": {\n'
            '    "n": 1,\n'
            '    "assignment": {},\n'
            '    "witness": "0"\n'
            '  },\n'
            '  "witness": "0"\n'
            '}\n'
        )

    def test_deep_strict_negation(self, capsys):
        # expand and the tree walker that replays the countermodel do not recurse
        code, out, _ = run(capsys, "entail", "--max-n", "1", "|- " + "~ " * 600 + "P0")
        assert code == 1
        assert json.loads(out)["countermodel"] == {"n": 1, "assignment": {"P0": []}, "witness": "1"}

    def test_entailed_exit_0(self, capsys):
        code, out, _ = run(capsys, "entail", "--max-n", "2", "|- P0 -> ~ ~ P0")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["status"] == "entailed_up_to_n"
        assert verdict["n"] == 2
        assert "note" in verdict

    def test_budget_exit_3(self, capsys):
        code, out, _ = run(capsys, "entail", "--cap", "4", "|- P0 -> ~ ~ P0")
        assert code == 3
        verdict = json.loads(out)
        assert verdict["status"] == "budget_exceeded"
        assert verdict["n"] == 1  # largest size fully scanned under the cap

    def test_class_flag(self, capsys):
        code, out, _ = run(capsys, "entail", "--class", "principal_variables", "|- P0 i| ~P0")
        assert code == 0
        assert json.loads(out)["class"] == "principal_variables"

    def test_premises_file(self, capsys, tmp_path):
        pfile = tmp_path / "premises.txt"
        pfile.write_text("P0\nP1\n")
        code, out, _ = run(capsys, "entail", "--premises-file", str(pfile), "P0 & P1")
        assert code == 0

    def test_line_files_report_offsets_within_the_line(self, capsys, tmp_path):
        # --premises-file and --assumptions go through one line reader:
        # blank lines are skipped, and a syntax error's offset counts from
        # the start of the stripped line
        pfile = tmp_path / "premises.txt"
        pfile.write_text("P0\n\n   P0 &\n")
        afile = tmp_path / "gamma.txt"
        afile.write_text("p0 : P0\n\n   p0 : P0 &\n")
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps({"assume": "p0 : P0", "id": "a"}))
        code, out, err = run(capsys, "entail", "--premises-file", str(pfile), "P0")
        assert code == 2 and out == "" and "syntax error at offset 4:" in err
        code, out, err = run(capsys, "check-proof", str(proof), "--assumptions", str(afile))
        assert code == 2 and out == "" and "syntax error at offset 9:" in err
        pfile.write_text("\n  P0  \n\nP1\n")
        assert run(capsys, "entail", "--premises-file", str(pfile), "P0 & P1")[0] == 0

    def test_timing_flag_only_with_timing(self, capsys):
        _, out_plain, _ = run(capsys, "entail", "ibot |- i! ibot")
        assert "elapsed_ms" not in out_plain
        _, out_timed, _ = run(capsys, "entail", "--timing", "ibot |- i! ibot")
        assert "elapsed_ms" in out_timed

    def test_jobs_identical_output(self, capsys):
        args = ("entail", "--max-n", "2", "P0 & P1, P2 |- P3")
        sequential = run(capsys, *args)
        parallel = run(capsys, *args, "--jobs", "4")
        parallel_again = run(capsys, *args, "--jobs", "4")
        assert sequential[0] == parallel[0] == 1
        # repeated identical runs are byte-identical
        assert parallel[1] == parallel_again[1]
        # and the logical payload does not depend on --jobs
        strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "jobs"}
        assert strip(sequential[1]) == strip(parallel[1])


class TestLentail:
    def test_countermodel(self, capsys):
        code, out, _ = run(capsys, "lentail", "--max-n", "2", "p0 : P0 i& P1 |- p0 : P0 & P1")
        assert code == 1
        verdict = json.loads(out)
        assert verdict["status"] == "countermodel"
        assert "label_assignment" in verdict["countermodel"]

    def test_entailed(self, capsys):
        code, out, _ = run(capsys, "lentail", "--max-n", "2", "p0 : P0 |- p0 : P0 | P1")
        assert code == 0
        assert json.loads(out)["status"] == "entailed_up_to_n"

    def test_deep_label(self, capsys):
        # the label evaluator behind replay does not recurse
        shallow = run(capsys, "lentail", "--max-n", "2", "|- !p0 : P0")
        deep = run(capsys, "lentail", "--max-n", "2", "|- " + "!" * 4001 + "p0 : P0")
        assert shallow[0] == 1 and deep == shallow


class TestCheckProof:
    def test_fig1_ok(self, capsys):
        code, out, _ = run(
            capsys,
            "check-proof",
            str(CORPUS / "fig1.json"),
            "--assumptions",
            str(CORPUS / "fig1.assumptions"),
        )
        assert code == 0
        assert json.loads(out) == {"status": "ok"}

    def test_freshness_violation(self, capsys):
        code, out, _ = run(
            capsys,
            "check-proof",
            str(CORPUS / "freshness_violation.json"),
            "--assumptions",
            str(CORPUS / "freshness_violation.assumptions"),
        )
        assert code == 1
        verdict = json.loads(out)
        assert verdict["status"] == "violation"
        assert verdict["reason"] == "freshness"

    def test_missing_assumptions_rejected(self, capsys):
        code, out, _ = run(capsys, "check-proof", str(CORPUS / "fig1.json"))
        assert code == 1
        assert json.loads(out)["reason"] == "open-assumption"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"rule": "AndE_L", "premises": [' * 2000 + "{}" + "]}" * 2000,
             "nested too deeply to load"),
            (json.dumps({"rule": "AndE_L", "premises": [{"assume": "p1 : P0", "id": "u1"}]}),
             "$: a rule needs a 'conclusion'"),
            (json.dumps({"rule": "AndI", "conclusion": "p1 : P0", "premises": 3}),
             "$.premises: must be an array, got a number"),
            (json.dumps({"rule": "IAndE", "conclusion": "p1 : P0", "premises": [], "fresh": [1, 2]}),
             "$.fresh[0]: must be a string, got a number"),
            (json.dumps({"assume": 5, "id": "u1"}), "$.assume: must be a string, got a number"),
        ],
        ids=["nested-2000-deep", "no-conclusion", "premises-3", "fresh-numbers", "assume-5"],
    )
    def test_malformed_proof_file_is_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "proof.json"
        path.write_text(text)
        code, out, err = run(capsys, "check-proof", str(path))
        assert code == 2 and out == ""
        assert message in err

    def test_missing_file_is_error(self, capsys):
        code, _, err = run(capsys, "check-proof", "no-such-file.json")
        assert code == 2

    @pytest.mark.parametrize("given, code, status", [(False, 1, "violation"), (True, 0, "ok")])
    def test_deep_assumption_is_looked_up(self, capsys, tmp_path, given, code, status):
        # `check` looks the 600-deep open assumption up among the given
        # ones: its hash is stored, and equality walks without recursion
        lf = "p0 : " + "!" * 600 + "P0"
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps({"assume": lf, "id": "a"}))
        argv = ["check-proof", str(proof)]
        if given:
            (tmp_path / "gamma.txt").write_text(lf + "\n")
            argv += ["--assumptions", str(tmp_path / "gamma.txt")]
        got, out, err = run(capsys, *argv)
        assert (got, json.loads(out)["status"], err) == (code, status, "")


class TestPt:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "pt", "eval", "--k", "1", "P0")
        assert code == 0
        assert json.loads(out) == {"k": 1, "denotation": [[], ["1"]]}

    def test_entail_positive(self, capsys):
        code, out, _ = run(capsys, "pt", "entail", "--k", "1", "|- P0 i| ~P0")
        assert code == 0
        assert json.loads(out) == {"status": "entailed", "k": 1}

    def test_entail_negative(self, capsys):
        code, out, _ = run(capsys, "pt", "entail", "--k", "1", "P0 |- P0 & nb")
        assert code == 1
        verdict = json.loads(out)
        assert verdict["status"] == "countermodel"
        assert verdict["counter_team"] == []

    def test_fragment_violation(self, capsys):
        code, _, err = run(capsys, "pt", "eval", "--k", "1", "box P0")
        assert code == 2

    @pytest.mark.parametrize("k", ["-1", "4", "5", "9"])
    def test_entail_k_outside_0_to_3_is_error(self, capsys, k):
        # refused before any team bitset is built: k = 5 would need 2^32 bits
        code, out, err = run(capsys, "pt", "entail", "--k", k, "|- P0")
        assert (code, out, err) == (2, "", f"error: k must be in 0..3, got {k}\n")


class TestBridge:
    def test_verify_f_ok(self, capsys, tmp_path):
        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps({"n": 2, "assignment": {"P0": ["00", "01"]}}))
        code, out, _ = run(capsys, "bridge", "verify-f", str(hfile), "--k", "1", "--depth", "2")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["status"] == "ok"
        assert verdict["atom_valuations"] == {"01": "1", "10": "0"}

    def test_verify_f_builds_the_representation_map_once(self, capsys, tmp_path, monkeypatch):
        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps({"n": 2, "assignment": {"P0": ["00", "01"], "P1": ["00"]}}))
        calls, f_map = [], ptplus.f_map

        def spy(*args):
            calls.append(args)
            return f_map(*args)

        monkeypatch.setattr(cli, "f_map", spy)
        monkeypatch.setattr(ptplus, "f_map", spy)
        code, out, _ = run(capsys, "bridge", "verify-f", str(hfile), "--k", "2", "--depth", "2")
        assert (code, json.loads(out)["status"], len(calls)) == (0, "ok", 1)

    def test_verify_f_needs_principal(self, capsys, tmp_path):
        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps({"n": 2, "assignment": {"P0": ["01", "10"]}}))
        code, _, err = run(capsys, "bridge", "verify-f", str(hfile), "--k", "1")
        assert code == 2
        assert "principal" in err

    @pytest.mark.parametrize(
        "content",
        [
            [2, ["00", "01"]],  # not an object
            {"assignment": {"P0": ["00", "01"]}},  # no n
            {"n": "2", "assignment": {}},  # n not an integer
            {"n": 2, "assignment": ["00"]},  # assignment not an object
            {"n": 2, "assignment": {"P0": "00"}},  # denotation not a list
            {"n": 2, "assignment": {"P0": [0, 1]}},  # elements not strings
        ],
    )
    def test_malformed_hom_file_is_error(self, capsys, tmp_path, content):
        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps(content))
        code, out, err = run(capsys, "bridge", "verify-f", str(hfile), "--k", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "name, message",
        [
            ("P²", "bad variable name 'P²' in homomorphism file {}; use P<digits>"),
            ("P", "bad variable name 'P' in homomorphism file {}; use P<digits>"),
            ("P" + "1" * 5000, "index of P<5000 digits> in homomorphism file {} is too large"),
        ],
    )
    def test_hom_file_variable_is_read_as_the_lexer_reads_it(self, capsys, tmp_path, name, message):
        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps({"n": 1, "assignment": {name: []}}))
        code, out, err = run(capsys, "bridge", "verify-f", str(hfile), "--k", "1")
        assert (code, out, err) == (2, "", f"error: {message.format(hfile)}\n")

    @pytest.mark.parametrize(
        "text",
        [
            # two spellings of one variable: the second does not silently win
            '{"n": 2, "assignment": {"P0": ["00"], "P00": ["00", "01", "10", "11"]}}',
            # one key twice in the object, which a plain JSON load would drop
            '{"n": 2, "assignment": {"P0": ["00"], "P0": ["01"]}}',
        ],
    )
    def test_repeated_hom_file_target_is_error(self, capsys, tmp_path, text):
        hfile = tmp_path / "h.json"
        hfile.write_text(text)
        code, out, err = run(capsys, "bridge", "verify-f", str(hfile), "--k", "1")
        assert (code, out, err) == (2, "", "error: P0 is assigned more than once\n")

    def test_deep_hom_file_is_error(self, capsys, tmp_path):
        hfile = tmp_path / "h.json"
        hfile.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "bridge", "verify-f", str(hfile), "--k", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested too deeply to load" in err

    def test_unassigned_variable_below_k_is_error(self, capsys, tmp_path):
        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps({"n": 2, "assignment": {"P0": ["00", "01"]}}))
        code, out, err = run(capsys, "bridge", "verify-f", str(hfile), "--k", "2")
        assert (code, out, err) == (2, "", "error: unbound variable P1\n")

    @pytest.mark.parametrize("depth", ["0", "-3", "4"])
    def test_depth_outside_1_to_3_is_error(self, capsys, tmp_path, monkeypatch, depth):
        # refused before any formula is built: depth 4 would build
        # 1,044,302 of them even at k = 0
        monkeypatch.setattr(ptplus, "IntBot", None)
        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps({"n": 2, "assignment": {"P0": ["00", "01"]}}))
        code, out, err = run(capsys, "bridge", "verify-f", str(hfile), "--k", "1", "--depth", depth)
        assert code == 2 and out == ""
        assert err == f"error: depth must be in 1..3, got {depth}\n"


class TestClasses:
    def test_principal(self, capsys):
        code, out, _ = run(capsys, "classes", "principal-check", "--n", "2", '["00","01"]')
        assert code == 0
        verdict = json.loads(out)
        assert verdict["is_principal_ideal"] is True
        assert verdict["max_element"] == "01"

    def test_not_principal(self, capsys):
        code, out, _ = run(capsys, "classes", "principal-check", "--n", "2", '["01","10"]')
        assert code == 1
        assert json.loads(out)["is_principal_ideal"] is False

    @pytest.mark.parametrize(
        "denotation, message",
        [
            ("[" * 100_000 + "]" * 100_000, "nested too deeply to load"),
            ("5", "must be a JSON array of element strings"),
            ('{"01": 1}', "must be a JSON array of element strings"),
        ],
        ids=["array-100000-deep", "number", "object"],
    )
    def test_malformed_denotation_is_error(self, capsys, denotation, message):
        code, out, err = run(capsys, "classes", "principal-check", "--n", "2", denotation)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


BAD_ELEMENTS = ["101", "1", "1x", "\uff10\uff11", ""]  # at n = 2


@pytest.mark.parametrize("text", BAD_ELEMENTS, ids=["long", "short", "letter", "fullwidth", "empty"])
def test_bad_element_exits_2_with_its_message(capsys, tmp_path, text):
    err = f"error: element of a 2-atom algebra needs 2 bits, got {text!r}\n"
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({"n": 2, "assignment": {"P0": ["00", text]}}))
    for argv in (
        ["eval", "--n", "2", "--assign", f'P0=[01,"{text}"]', "P0"],
        ["classes", "principal-check", "--n", "2", json.dumps(["00", text])],
        ["bridge", "verify-f", str(hom), "--k", "1"],
    ):
        assert run(capsys, *argv) == (2, "", err), argv


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_args(self, capsys):
        assert main(["eval"]) == 2


class TestSharedParser:
    """`main` builds each command's own parser once and reuses it, and
    builds the whole tree only to print the top-level usage, help or
    error."""

    def test_a_command_builds_only_its_own_parser_once(self, monkeypatch, capsys):
        calls, build, with_command = [], cli.build_parser, cli._with_command
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append("tree") or build())
        monkeypatch.setattr(cli, "_with_command",
                            lambda parser, path: calls.append(path) or with_command(parser, path))
        cli._command_parser.cache_clear()
        try:
            for argv in (["parse", "P0"], ["eval", "--n", "1", "P0"], ["parse", "P1"],
                         ["pt", "eval", "--k", "1", "P0"], ["entail", "--class", "bogus", "|- P0"],
                         ["pt", "eval", "-h"], ["eval", "--n", "1", "P1"], ["expand", "P0"]):
                main(argv)
        finally:
            cli._command_parser.cache_clear()
        assert calls == [("parse",), ("eval",), ("pt", "eval"), ("entail",), ("expand",)]

    @pytest.mark.parametrize("argv", [["frobnicate"], [], ["-h"], ["pt"], ["parse", "P0", "P1"]])
    def test_the_whole_tree_is_built_once_to_report_on_argv(self, monkeypatch, capsys, argv):
        calls, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        assert main(argv) == (0 if argv == ["-h"] else 2)
        assert len(calls) == 1 and capsys.readouterr().out.startswith("usage: lt") == (argv == ["-h"])

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("path", list(cli._COMMANDS), ids=" ".join)
    def test_a_command_parser_prints_as_in_the_whole_tree(self, path):
        tree = cli.build_parser()
        for name in path:
            (subparsers,) = [a for a in tree._actions if isinstance(a, argparse._SubParsersAction)]
            tree = subparsers.choices[name]
        own = cli._command_parser(path)
        assert own.prog == tree.prog == "lt " + " ".join(path)
        assert (own.format_usage(), own.format_help()) == (tree.format_usage(), tree.format_help())

    def test_assign_does_not_leak(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "1", "--assign", "P0=[1]", "P0")
        assert code == 0 and json.loads(out)["denotation"] == ["1"]
        code, out, err = run(capsys, "eval", "--n", "1", "P0")
        assert code == 2 and out == "" and "unbound variable" in err

    def test_usage_error_does_not_leak(self, capsys):
        expected = run(capsys, "entail", "ibot |- i! ibot")
        assert run(capsys, "entail", "--class", "bogus", "ibot |- i! ibot")[0] == 2
        assert run(capsys, "entail", "ibot |- i! ibot") == expected

    @pytest.mark.parametrize("argv", [
        ("entail", "--cap", "0", "|- P0"),
        ("lentail", "--cap", "-5", "p0 : P0 |- p0 : P0"),
        ("lentail", "--jobs", "0", "p0 : P0 |- p0 : P0"),
    ])
    def test_count_flag_below_1_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"lt {argv[0]}: error: argument {argv[1]}: must be at least 1, got {argv[2]}"
        ]

    @pytest.mark.parametrize("argv", [
        ("entail", "--cap", "x", "|- P0"),
        ("entail", "--jobs", "x", "|- P0"),
        ("lentail", "--jobs", "1.5", "p0 : P0 |- p0 : P0"),
    ])
    def test_count_flag_not_an_integer_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "_positive_int" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"lt {argv[0]}: error: argument {argv[1]}: must be an integer, got {argv[2]!r}"
        ]

    def test_jobs_does_not_leak(self, capsys):
        assert run(capsys, "entail", "--jobs", "0", "|- P0")[0] == 2
        code, out, _ = run(capsys, "entail", "ibot |- i! ibot")
        assert code == 1 and '"jobs": 1' in out


def _argv_battery(tmp_path):
    """Every command and nested command, with `-h` at each level; unknown
    and missing commands; abbreviated, ambiguous and unknown options;
    extra positionals; `--`; bad `type=` values; options before the
    command; parse errors with offsets."""
    fig1, gamma = str(CORPUS / "fig1.json"), str(CORPUS / "fig1.assumptions")
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({"n": 1, "assignment": {"P0": ["1"]}}))
    hom = str(hom)
    return [
        [], ["-h"], ["--help"], ["--he"], ["-x"], ["frobnicate"], ["frobnicate", "P0"],
        ["-x", "entail", "|- P0"], ["--n", "1", "eval", "P0"], ["--", "parse", "P0"],
        ["parse", "P0 -> P1"], ["parse"], ["parse", "-h"], ["parse", "P0", "P1"],
        ["parse", "--", "P0 & P1"], ["parse", "P0 & | P1"], ["parse", "P0 # P1"], ["parse", "-P0"],
        ["expand", "dia P0"], ["expand", "--h"], ["expand", "--", "-P0"],
        ["eval", "--n", "2", "--assign", "P0=[01]", "P0 i| ~P0"], ["eval", "--n", "x", "P0"],
        ["eval", "--n", "1"], ["eval", "--n", "1", "--native", "top"], ["eval", "--n", "1", "P0"],
        ["eval", "--as", "P0=[1]", "--n", "1", "P0"], ["eval", "--n", "1", "--bogus", "P0"],
        ["eval", "--n", "1", "--assign", "P0=[1]", "P0", "extra"], ["eval", "--n=1", "--assign=", "ibot"],
        ["entail", "--max", "1", "|- P0 -> ~ ~ P0"], ["entail", "--max-n", "1", "ibot |- i! ibot"],
        ["entail", "--class", "bogus", "|- P0"], ["entail", "--cap", "x", "|- P0"],
        ["entail", "--jobs", "0", "|- P0"], ["entail", "--c", "4", "|- P0"], ["entail", "-h"],
        ["entail", "--h"], ["entail", "|- P0", "-h"], ["entail", "--", "|- P0"], ["entail"],
        ["entail", "--max-n", "0", "|- P0", "|- P1"], ["entail", "--max-n", "0", "P0 |- P1 ->"],
        ["lentail", "--max-n", "1", "p0 : P0 |- p0 : P0 | P1"], ["lentail", "p0 : P0 |-"],
        ["lentail", "-h"], ["lentail", "--time", "--max-n", "0", "|- p0 : P0", "--zz"],
        ["check-proof", fig1, "--assumptions", gamma], ["check-proof", fig1],
        ["check-proof", "no-such-file.json"], ["check-proof"], ["check-proof", "-h"],
        ["check-proof", fig1, "--assumptions"],
        ["pt"], ["pt", "-h"], ["pt", "bogus"], ["pt", "eval", "--k", "1", "P0"], ["pt", "eval", "-h"],
        ["pt", "eval", "--k", "1", "P0", "P1"], ["pt", "eval", "--k", "one", "P0"],
        ["pt", "entail", "--k", "1", "|- P0 i| ~P0"], ["pt", "entail", "-h"], ["pt", "--k", "1", "eval", "P0"],
        ["pt", "eval", "--k=1", "P0"], ["pt", "entail", "|- P0"], ["pt", "--", "eval", "--k", "1", "P0"],
        ["bridge"], ["bridge", "-h"], ["bridge", "verify-f", hom, "--k", "1"], ["bridge", "verify-f", "-h"],
        ["bridge", "verify-f", hom, "--k", "1", "--depth", "x"], ["bridge", "verify-f", hom],
        ["bridge", "verify-f", hom, "--k", "1", "--dep", "3"], ["bridge", "verify-f", hom, "--k", "1", "x"],
        ["classes"], ["classes", "-h"], ["classes", "principal-check", "-h"],
        ["classes", "principal-check", "--n", "2", '["00","01"]'],
        ["classes", "principal-check", "--n", "2", '["00"]', "--zz"],
        ["classes", "principal-check", "--n", "2", "[]", "--zz"],
        ["classes", "principal-check", "--n", "2", '["00","11"]'],
    ]


def _full_parser_main(argv) -> int:
    """`main` with the whole argv read by the top-level parser, then the
    handler, with `main`'s error boundary for what the battery raises."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
    except (LTError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


def test_argv_battery_is_read_as_the_full_parser_reads_it(capsys, tmp_path, emitted):
    statuses = set()
    for argv in _argv_battery(tmp_path):
        got = run(capsys, *argv)
        want = _full_parser_main(list(argv))
        assert got == (want, *capsys.readouterr()), argv
        statuses.add(want)
    assert statuses == {0, 1, 2}
    assert len(emitted) > 20  # each verdict written as json.dumps writes it


@pytest.mark.parametrize("argv", [
    ["entail", "|- P0 -> P0"], ["entail", "--class", "bogus", "|- P0"], ["pt", "eval", "-h"],
    ["frobnicate"], [],
], ids=repr)
def test_a_fresh_process_prints_what_main_prints(capsys, monkeypatch, argv):
    """`python -m lt` in a new process, where no parser is built yet, gives
    the exit status, stdout and stderr of `main` in this one."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "lt", *argv], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)


# -- the verdict writer: json.dumps(value, indent=2) without json's
# pure-Python encoder

_TEXTS = ["", "P0", 'say "hi"', "back\\slash", "tab\t", "line\nbreak", "\x00\x1f\x7f", "caf\u00e9",
          "\u65e5\u672c", "\U0001f600", "\u2028", "</a>", "\ud800"]
_NUMBERS = [0, 1, -1, 2**70, -(2**63), True, False, None, 0.1, -0.0, 1e300,
            float("inf"), float("-inf"), float("nan")]


def _random_value(rng: random.Random, depth: int):
    """A value of the kinds a verdict holds, and floats: containers, some
    of them empty, to depth 5."""
    kind = rng.randrange(6 if depth < 5 else 2)
    if kind == 0:
        return rng.choice(_TEXTS) + rng.choice(_TEXTS)
    if kind == 1:
        return rng.choice(_NUMBERS)
    items = [_random_value(rng, depth + 1) for _ in range(rng.choice((0, 0, 1, 2, 4)))]
    if kind == 2:
        return tuple(items)
    if kind == 3:
        return items
    return {rng.choice(_TEXTS) + str(i): item for i, item in enumerate(items)}


def test_writer_is_json_dumps_on_a_seeded_battery(emitted):
    rng = random.Random(19)
    values = [_random_value(rng, 0) for _ in range(5000)] + [{}, [], (), "", 0]
    for value in values:
        cli.dumps(value)  # the spy compares it with json.dumps
    assert len(emitted) == len(values)
    assert any(v == {} for v in values) and any(v == [] for v in values)


def test_timing_verdict_is_json_dumps(capsys, emitted):
    code, out, _ = run(capsys, "entail", "--timing", "--max-n", "1", "P0 |- P1")
    assert code == 1 and type(emitted[-1]["elapsed_ms"]) is float
    assert out == json.dumps(emitted[-1], indent=2) + "\n"


class TestInternalError:
    def test_unexpected_exception_exits_4(self, monkeypatch, capsys):
        def boom(formula):
            raise RuntimeError("kernel fault\nsecond line")

        monkeypatch.setattr(cli, "formula_repr", boom)
        code, out, err = run(capsys, "parse", "P0")
        assert code == cli.EXIT_INTERNAL == 4 and out == ""
        assert err == "internal error: RuntimeError: kernel fault second line\n"


def _crash_argv(which, tmp_path):
    """The argv of the benchmark's crash input `which` (bench/gen.py
    `k_crash`), with fixed sizes; each once raised out of `main`."""
    if which == 0:  # 3,000-conjunct chain with an unbound variable
        return ["eval", "--n", "1", " & ".join(["P4"] * 3100)]
    if which == 1:  # 5,000 nested !
        return ["eval", "--n", "1", "!" * 5100 + "P4"]
    if which == 2:  # 600 nested ~ under entail, with an absurd --jobs
        return ["entail", "--jobs", "0", "|- " + "~ " * 620 + "P4"]
    if which == 3:  # 3,000 nested parentheses
        return ["eval", "--n", "1", "(" * 3100 + "P4" + ")" * 3100]
    path = tmp_path / f"crash{which}.json"
    concl = "p7 : P0 & P1"
    if which == 4:
        text = '{"rule": "AndE_L", "premises": [' * 2100 + "{}" + "]}" * 2100
    elif which == 5:
        text = json.dumps({"rule": "OrI_L", "premises": [{"assume": concl, "id": "u4"}]})
    elif which == 6:
        text = json.dumps({"rule": "AndI", "conclusion": concl, "premises": 42})
    elif which == 7:
        text = json.dumps({"rule": "IAndE", "conclusion": concl, "premises": [], "fresh": [3, 17]})
    elif which == 8:
        text = json.dumps({"assume": 512, "id": "u4"})
    elif which == 9:
        text = json.dumps({"assignment": {"P4": ["00", "11"]}})
    else:
        text = json.dumps([2, ["00", "11"]])
    path.write_text(text)
    if which <= 8:
        return ["check-proof", str(path)]
    return ["bridge", "verify-f", str(path), "--k", "1"]


@pytest.mark.parametrize("which", range(11))
def test_crash_input_exits_2(capsys, tmp_path, which):
    code, out, err = run(capsys, *_crash_argv(which, tmp_path))
    assert code == 2 and out == ""
    assert err and "internal error" not in err


@pytest.mark.parametrize("which", (0, 1, 3))
def test_deep_crash_input_bytes(capsys, which):
    # the chain, the prefix run and the parentheses parse, and evaluation
    # then stops at the unbound variable
    assert run(capsys, *_crash_argv(which, None)) == (2, "", "error: unbound variable P4\n")


def _taut_proof(path, label: str) -> str:
    path.write_text(json.dumps({"rule": "Taut", "conclusion": f"{label} : i!ibot", "premises": []}))
    return str(path)


def _verdict(result):
    code, out, err = result
    obj = json.loads(out)
    return code, obj["status"], obj.get("reason"), err


_WIDE_LABEL = " | ".join(f"p{i}" for i in range(1200))


@pytest.mark.parametrize(
    "deep, shallow",
    [
        (("check-proof", "!" * 3000 + "(p1 | !p1)"), ("check-proof", "p1 | !p1")),
        (("check-proof", "!" * 3001 + "(p1 | !p1)"), ("check-proof", "!(p1 | !p1)")),
        (("check-proof", " | ".join(["p1"] * 3000) + " | !p1"), ("check-proof", "p1 | !p1")),
        (("check-proof", " | ".join(["p1"] * 3000)), ("check-proof", "p1")),
        (("pt", "eval", "--k", "1", " & ".join(["P0"] * 3000)), ("pt", "eval", "--k", "1", "P0")),
        (("pt", "entail", "--k", "1", "|- " + " | ".join(["P0"] * 3000)),
         ("pt", "entail", "--k", "1", "|- P0")),
        (("pt", "entail", "--k", "2", " & ".join(["P1"] * 3000) + " |- P1 i| nb"),
         ("pt", "entail", "--k", "2", "P1 |- P1 i| nb")),
        (("lentail", "--max-n", "0", f"|- {_WIDE_LABEL} : P0"),
         ("lentail", "--max-n", "0", "|- p0 | p1 : P0")),
        (("lentail", "--max-n", "0", f"|- {_WIDE_LABEL} : P0 | !P0"),
         ("lentail", "--max-n", "0", "|- p0 | p1 : P0 | !P0")),
    ],
    ids=["taut-3000-not", "taut-3001-not", "taut-3000-or-valid", "taut-3000-or-invalid",
         "pt-eval-3000-and", "pt-entail-3000-or", "pt-entail-3000-and-premise",
         "lentail-1200-atoms-refuted", "lentail-1200-atoms-valid"],
)
def test_deep_input_gives_the_verdict_of_its_shallow_form(capsys, tmp_path, deep, shallow):
    # thousands of nodes deep, or 1,200 label atoms to turn as digits:
    # no walk recurses, so each exits 0 or 1 as its shallow form does
    results = []
    for name, argv in (("deep", deep), ("shallow", shallow)):
        if argv[0] == "check-proof":
            argv = ("check-proof", _taut_proof(tmp_path / f"{name}.json", argv[1]))
        results.append(run(capsys, *argv))
    assert results[0][0] in (0, 1)
    if deep[0] == "pt":
        assert results[0] == results[1]
    else:
        assert _verdict(results[0]) == _verdict(results[1])


# The whole stdout of one command per path that prints algebra elements: a
# team, a valuation, a countermodel's assignment and a principal ideal, each
# byte for byte, so that a reordered or misnamed element shows.
_PINNED = [
    (
        ["eval", "--n", "2", "--assign", "P0=[01,10]", "i! P0"],
        0,
        """\
{
  "algebra_n": 2,
  "denotation": [
    "01",
    "10"
  ]
}
""",
    ),
    (
        ["classes", "principal-check", "--n", "2", '["00","01"]'],
        0,
        """\
{
  "n": 2,
  "denotation": [
    "00",
    "01"
  ],
  "is_principal_ideal": true,
  "max_element": "01"
}
""",
    ),
    (
        ["classes", "principal-check", "--n", "2", '["01","10"]'],
        1,
        """\
{
  "n": 2,
  "denotation": [
    "01",
    "10"
  ],
  "is_principal_ideal": false
}
""",
    ),
    (
        ["pt", "eval", "--k", "2", "P0 o* P1"],
        0,
        """\
{
  "k": 2,
  "denotation": [
    [
      "01",
      "10"
    ],
    [
      "11"
    ],
    [
      "01",
      "11"
    ],
    [
      "10",
      "11"
    ],
    [
      "01",
      "10",
      "11"
    ]
  ]
}
""",
    ),
    (
        ["pt", "entail", "--k", "2", "P0 |- P0 & P1"],
        1,
        """\
{
  "status": "countermodel",
  "k": 2,
  "counter_team": [
    "01"
  ]
}
""",
    ),
    (
        ["bridge", "verify-f", "--k", "2", "--depth", "2", "{hfile}"],
        0,
        """\
{
  "status": "ok",
  "n": 3,
  "k": 2,
  "depth": 2,
  "atom_valuations": {
    "001": "01",
    "010": "00",
    "100": "00"
  }
}
""",
    ),
    (
        ["entail", "--max-n", "2", "|- ~ ~ P0 -> P0"],
        1,
        """\
{
  "status": "countermodel",
  "n": 0,
  "max_n": 2,
  "class": "all",
  "cap": 4194304,
  "jobs": 1,
  "countermodel": {
    "n": 0,
    "assignment": {
      "P0": []
    },
    "witness": ""
  },
  "witness": ""
}
""",
    ),
    (
        ["entail", "--max-n", "2", "down P0 |- P0"],
        1,
        """\
{
  "status": "countermodel",
  "n": 1,
  "max_n": 2,
  "class": "all",
  "cap": 4194304,
  "jobs": 1,
  "countermodel": {
    "n": 1,
    "assignment": {
      "P0": [
        "1"
      ]
    },
    "witness": "0"
  },
  "witness": "0"
}
""",
    ),
    (
        ["lentail", "--max-n", "1", "p0 = p1 |- p0 : P0"],
        1,
        """\
{
  "status": "countermodel",
  "n": 0,
  "max_n": 1,
  "cap": 4194304,
  "jobs": 1,
  "countermodel": {
    "n": 0,
    "assignment": {
      "P0": []
    },
    "witness": "",
    "label_assignment": {
      "p0": "",
      "p1": ""
    }
  },
  "witness": ""
}
""",
    ),
]


@pytest.mark.parametrize("argv, code, text", _PINNED, ids=[" ".join(p[0]) for p in _PINNED])
def test_verdict_text_is_pinned(capsys, tmp_path, argv, code, text):
    hfile = tmp_path / "h.json"
    hfile.write_text(json.dumps({"n": 3, "assignment": {"P0": ["000", "001"], "P1": ["000"]}}))
    argv = [str(hfile) if a == "{hfile}" else a for a in argv]
    assert run(capsys, *argv) == (code, text, "")
