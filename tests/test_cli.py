import contextlib
import io
import json
import re
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unifrag import dl, dlr, parse_formula, print_formula
from unifrag.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _schema(name):
    text = resources.files("unifrag").joinpath(f"schemas/{name}").read_text()
    schema = json.loads(text)
    return _inline_refs(schema)


def _inline_refs(node):
    if isinstance(node, dict):
        if set(node) == {"$ref"}:
            return _schema(node["$ref"])
        return {k: _inline_refs(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_inline_refs(v) for v in node]
    return node


def check_schema(doc, name):
    jsonschema.validate(doc, _schema(name))


def test_check_exit_codes_and_schema(capsys):
    code, out, _ = invoke(capsys, "check", "--fragment", "u1",
                          "-e", "E y. R(x,y,z)", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    check_schema(doc, "check.schema.json")
    assert doc["verdict"] is False
    assert doc["violations"][0]["kind"] == "ONE_DIMENSIONALITY"

    code, out, _ = invoke(capsys, "check", "--fragment", "u1woeq",
                          "-e", "E y z. ((~R(x,y,z) | T(z,y,x,x)) & P(z))",
                          "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_parse_schema_and_inference(capsys):
    code, out, _ = invoke(capsys, "parse", "-e", "E x. R(x,x)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "parse.schema.json")
    assert doc["vocabulary"] == {"R": 2}


def test_parse_error_exit_two(capsys):
    code, out, err = invoke(capsys, "parse", "-e", "E y z R(x)", "--format", "json")
    assert code == 2
    assert err.startswith("error:")
    check_schema(json.loads(out), "error.schema.json")


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("argv", [
    ["sat", "--max-size", "x", "-e", "E x. P(x)"],
    ["check", "-e", "P(x)"],
    ["translate", "--from", "fu1", "--to", "fu2", "-e", "P(x)"],
    ["frobnicate", "-e", "P(x)"],
], ids=["non-integer", "missing-option", "bad-choice", "unknown-subcommand"])
def test_argparse_refusals_follow_the_contract(capsys, argv, fmt):
    code, out, err = invoke(capsys, *argv, "--format", fmt)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    if fmt == "human":
        assert out == ""
    else:
        doc = json.loads(out)
        check_schema(doc, "error.schema.json")
        assert doc["error"] == {"kind": "usage", "message": err[len("error: "):-1]}


def test_refusal_reads_format_as_argparse_does(capsys):
    for spelling in (["--format=json"], ["--form", "json"], ["--fo=json"]):
        code, out, _ = invoke(capsys, "sat", "--max-size", "x", *spelling, "-e", "P(x)")
        assert code == 2 and json.loads(out)["error"]["kind"] == "usage"
    for spelling in (["--format", "human"], ["--f", "json"], ["-e", "json"]):
        code, out, _ = invoke(capsys, "sat", "--max-size", "x", *spelling)
        assert code == 2 and out == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        run(["sat", "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: unifrag sat")


def test_eval_command(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "domain": ["a", "b"], "arities": {"R": 2},
        "relations": {"R": [["a", "a"], ["b", "b"]]}}))
    code, out, _ = invoke(capsys, "eval", "--model", str(model),
                          "-e", "E x y. ~R(x,y)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "eval.schema.json")
    assert doc["value"] is True

    code, _, _ = invoke(capsys, "eval", "--model", str(model),
                        "-e", "E x. ~R(x,x)")
    assert code == 1


def test_eval_with_assignment(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "domain": ["a", "c"], "arities": {"S": 2},
        "relations": {"S": [["a", "c"]]}}))
    code, out, _ = invoke(capsys, "eval", "--model", str(model),
                          "-e", "E y. S(y,x)", "--assign", "x=c",
                          "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] is True


@pytest.mark.parametrize("assign, message", [
    ("x=a,x=c", "variable 'x' is assigned twice"),
    ("x=a, x =c", "variable 'x' is assigned twice"),
    ("x=a,=c", "assignment entry '=c' names no variable"),
    (" =c", "assignment entry ' =c' names no variable"),
])
def test_eval_refuses_an_unnamed_or_repeated_variable(tmp_path, capsys, assign, message):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"domain": ["a", "c"], "arities": {"S": 2},
                                 "relations": {"S": [["a", "c"]]}}))
    code, out, _ = invoke(capsys, "eval", "--model", str(model), "-e", "E y. S(y,x)",
                          "--assign", assign, "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "LogicError", "message": message}


@pytest.mark.parametrize("argv", [
    # before the malformed assignment
    ["eval", "--model", "MODEL", "--assign", "x", "-e", "E y. (P(y) & W(x))"],
    # before model search's need for a sentence
    ["sat", "--max-size", "2", "--vocab", "VOCAB", "-e", "E y. (P(y) & W(x))"],
], ids=["eval", "sat"])
def test_an_unknown_relation_is_reported_first(tmp_path, capsys, argv):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"domain": ["a"], "arities": {"P": 1},
                                 "relations": {"P": [["a"]]}}))
    vocab = tmp_path / "v.json"
    vocab.write_text(json.dumps({"P": 1}))
    files = {"MODEL": str(model), "VOCAB": str(vocab)}
    code, out, err = invoke(capsys, *(files.get(a, a) for a in argv), "--format", "json")
    assert (code, err) == (2, "error: unknown relation symbol 'W'\n")
    assert out == ('{"error":{"kind":"VocabularyError",'
                   '"message":"unknown relation symbol \'W\'"}}\n')


def test_translate_round_and_gate(tmp_path, capsys):
    vocab = tmp_path / "v.json"
    vocab.write_text(json.dumps({"R": 2, "A": 1}))
    code, out, _ = invoke(capsys, "translate", "--from", "fu1", "--to", "dl",
                          "-e", "E y. (R(x,y) & P(y))", "--format", "json")
    assert code == 0
    check_schema(json.loads(out), "translate.schema.json")

    code, out, _ = invoke(capsys, "translate", "--from", "dl", "--to", "fu1",
                          "--vocab", str(vocab), "-e", "~exists ~R.(A)",
                          "--format", "json")
    assert code == 0
    assert json.loads(out)["output"].startswith("~E")

    code, out, err = invoke(capsys, "translate", "--from", "dlr0", "--to", "fu1",
                            "--vocab", str(vocab), "-e", "exists eps* . A",
                            "--format", "json")
    assert code == 3
    check_schema(json.loads(out), "error.schema.json")

    code, _, _ = invoke(capsys, "translate", "--from", "fu1", "--to", "fu1",
                        "-e", "P(x)")
    assert code == 2  # unsupported direction is an input error


def test_translate_dl_requires_vocab(capsys):
    code, _, err = invoke(capsys, "translate", "--from", "dl", "--to", "fu1",
                          "-e", "~exists ~R.(A)")
    assert code == 2
    assert "vocab" in err


def test_translate_gate_fires_before_vocab_requirement(capsys):
    # the closure gate is a fragment refusal (3), not an input error (2),
    # even when no vocabulary was supplied
    code, _, err = invoke(capsys, "translate", "--from", "dlr0", "--to", "fu1",
                          "-e", "exists eps* . A")
    assert code == 3


def test_sat_schema_and_exit(capsys):
    code, out, _ = invoke(capsys, "sat", "--max-size", "3",
                          "-e", "E x y z. (~(x = y) & ~(x = z) & ~(y = z))",
                          "--format", "json")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "sat.schema.json")
    assert doc["found"] is True and len(doc["model"]["domain"]) == 3

    code, out, _ = invoke(capsys, "sat", "--max-size", "2",
                          "-e", "E x y z. (~(x = y) & ~(x = z) & ~(y = z))",
                          "--format", "json")
    assert code == 1
    assert json.loads(out)["model"] is None


def test_sat_cell_limit_refusal(capsys):
    code, _, err = invoke(capsys, "sat", "--max-size", "6", "-e", "E x y. T(x,x,y)")
    assert code == 2
    assert "cell" in err or "limit" in err


def test_sat_circuit_limit_refusal(capsys):
    # a path of 8 variables: 196,602 ground nodes at size 4, refused before
    # any gate is built
    path = " & ".join(f"R(x{i},x{i + 1})" for i in range(1, 8))
    code, out, _ = invoke(capsys, "sat", "--max-size", "4", "-e",
                          f"E x1 x2 x3 x4 x5 x6 x7 x8. ({path})", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "CircuitLimitError"


def test_sat_vacuous_block_variables_stay_out_of_the_circuit(capsys):
    # x2..x40 occur in no part of the body, so no loop is grounded for them
    text = "E " + " ".join(f"x{i}" for i in range(1, 41)) + ". (P(x1) & ~P(x1))"
    started = time.perf_counter()
    code, out, _ = invoke(capsys, "sat", "--max-size", "2", "-e", text, "--format", "json")
    assert code == 1 and json.loads(out)["found"] is False
    assert time.perf_counter() - started < 5.0


@pytest.mark.parametrize("text", ["E y. (R(x,y) & top(y))", "eps(x)",
                                  "E y. (exists(x,y) & P(y))"])
def test_fu1_to_dl_refuses_dl_keywords_as_names(capsys, text):
    # printed, such a name would read back as another concept, or as none
    code, out, _ = invoke(capsys, "translate", "--from", "fu1", "--to", "dl",
                          "-e", text, "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "VocabularyError" and "DL keyword" in error["message"]


def _clauses(k):
    return " & ".join(f"(P{i}(y) | R(x,y))" for i in range(k))


def _irreducible(k, p="P", q="Q", r="R"):
    """k clauses over distinct leaves and one guard: 2^k disjuncts that
    absorption cannot remove."""
    return " & ".join(f"({p}{i}(y) | {q}{i}(y))" for i in range(k)) + f" & {r}(x,y)"


DL_FU1 = ["translate", "--from", "dl", "--to", "fu1", "--vocab", "VOCAB", "-e"]
DLR0_FU1 = ["translate", "--from", "dlr0", "--to", "fu1", "--vocab", "VOCAB", "-e"]
DIGITS = "9" * 5000  # past Python's 4,300-digit limit of int()


@pytest.mark.parametrize("argv, expected", [
    (["translate", "--from", "dlr0", "--to", "fu1", "-e", "exists[$0] R"], 2),
    (["translate", "--from", "dlr0", "--to", "fu1", "-e", "exists R|$0,$1 . A"], 2),
    (["sat", "--max-size", "0", "-e", "E x. P(x)"], 2),
    # 2^10 DNF disjuncts: the printed concept must stay shallow enough to
    # print and to parse back
    (["translate", "--from", "fu1", "--to", "dl", "-e", f"E y. ({_clauses(10)})"], 0),
    # 2^13 irreducible DNF disjuncts: refused by the disjunct budget
    # instead of printed
    (["translate", "--from", "fu1", "--to", "dl", "-e", f"E y. ({_irreducible(13)})"], 2),
    # 2 x 2^11 irreducible disjuncts, each product within the budget but not
    # their union
    (["translate", "--from", "fu1", "--to", "dl", "-e",
      f"E y. (({_irreducible(11)}) | ({_irreducible(11, 'S', 'T', 'U')}))"], 2),
    # nesting past the parsers' depth limit is a parse error, not a crash
    (["parse", "-e", "~" * 3000 + "P(x)"], 2),
    (["parse", "-e", "(" * 600 + "P(x)" + ")" * 600], 2),
    (DL_FU1 + ["~" * 3000 + "A"], 2),
    (DL_FU1 + ["(" * 600 + "A" + ")" * 600], 2),
    (DLR0_FU1 + ["~" * 3000 + "A"], 2),
    (DLR0_FU1 + ["(" * 600 + "A" + ")" * 600], 2),
    # a tuple component that is not a string
    (["eval", "--model", "MODEL", "-e", "E x. true"], 2),
    # integers from the text that would size an allocation
    (DL_FU1 + ["exists perm[1,3000000000]R.(A)"], 2),
    (DLR0_FU1 + ["exists[$1] top1000000"], 2),
    (DLR0_FU1 + ["exists[$1] ($1/1000000:A)"], 2),
    # nesting in role position
    (DL_FU1 + ["exists " + "(" * 600 + "R" + ")" * 600 + ".(A)"], 2),
    (DLR0_FU1 + ["exists[$1] " + "(" * 600 + "R" + ")" * 600], 2),
    # integer literals too long for int(): positioned parse errors
    (["parse", "-e", f"E[>={DIGITS}] x. P(x)"], 2),
    (DL_FU1 + [f"exists perm[1,{DIGITS}]R.(A)"], 2),
    (DLR0_FU1 + [f"exists[${DIGITS}] R"], 2),
    (DLR0_FU1 + [f"exists[$1] top{DIGITS}"], 2),
    # a vocabulary arity that would size the translation's variable list
    (["translate", "--from", "dlr0", "--to", "fu1", "--vocab", "BIG", "-e",
      "exists[$1] R"], 2),
    # 1,200 interpretation cells: model search must not recurse per cell
    (["sat", "--max-size", "1", "--cell-limit", "5000", "--vocab", "MANY",
      "-e", "A x. P999(x)"], 0),
    # a JSON true where an arity belongs
    (["parse", "--vocab", "BOOL", "-e", "P(x)"], 2),
    # 2^13 and 2 x 2^11 disjuncts before absorption, 2 after it: answered
    (["translate", "--from", "fu1", "--to", "dl", "-e", f"E y. ({_clauses(13)})"], 0),
    (["translate", "--from", "fu1", "--to", "dl", "-e",
      f"E y. (({_clauses(11)}) | ({_clauses(11)}))"], 0),
    # 40 nested role groups in relation position: once parsed by trying a
    # composition, then a projection, at each level (2^40 attempts)
    (DLR0_FU1 + ["exists (($1/2: " * 40 + "A" + ") & R)|$1,$2 . A" * 40], 0),
    # 2^16 composition chains, and 2^16 copies of a body shared by 16
    # nested unions: refused before they are built
    (DLR0_FU1 + ["exists " + "((eps u R|$1,$2) o " * 15 + "(eps u R|$1,$2)"
                 + ")" * 15 + " . A"], 2),
    (DLR0_FU1 + ["exists (eps u R|$1,$2) . " * 16 + "A"], 2),
    # a sentence without relations: no cells and a one-node circuit, but one
    # circuit per size, past the circuit budget
    (["sat", "--max-size", "1000000000000", "-e", "false"], 2),
    # an explicit-mode top atom outside the vocabulary
    (DLR0_FU1 + ["exists[$1] ~R", "--topn-mode", "explicit"], 2),
])
def test_exit_code_contract_on_former_crashes(capsys, tmp_path, argv, expected):
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps({"R": 2, "A": 1}))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"domain": ["a"], "arities": {"R": 2},
                                 "relations": {"R": [["a", ["a"]]]}}))
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"R": 200000}))
    many = tmp_path / "many.json"
    many.write_text(json.dumps({f"P{i}": 1 for i in range(1200)}))
    boolean = tmp_path / "bool.json"
    boolean.write_text(json.dumps({"P": True}))
    files = {"VOCAB": str(vocab), "MODEL": str(model), "BIG": str(big), "MANY": str(many),
             "BOOL": str(boolean)}
    argv = [files.get(a, a) for a in argv]
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert code == expected
    assert "Traceback" not in err
    doc = json.loads(out)
    if expected == 2:
        check_schema(doc, "error.schema.json")
        assert doc["error"]["kind"] != "internal"
    elif argv[0] == "sat":
        check_schema(doc, "sat.schema.json")
        assert doc["found"] is True
    elif argv[4] == "fu1":  # a translation prints text of its target language
        assert print_formula(parse_formula(doc["output"])) == doc["output"]
    else:
        assert dl.print_concept(dl.parse_concept(doc["output"])) == doc["output"]


@pytest.mark.parametrize("argv", [
    ["parse"],  # neither -e nor a file
    ["parse", "--vocab", "DEEP", "-e", "P(x)"],
    ["parse", "--vocab", "LIST", "-e", "P(x)"],
    ["eval", "--model", "MODEL", "--assign", "x", "-e", "P(x)"],
    ["translate", "--from", "dlr0", "--to", "fu1", "-e", "exists[$1] R"],  # no --vocab
    ["parse", "-e", "x=true"],  # a reserved word as a variable
])
def test_input_refusals_are_one_error_line(capsys, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"domain": ["a"], "arities": {"P": 1},
                                 "relations": {"P": [["a"]]}}))
    files = {"DEEP": str(deep), "LIST": str(listed), "MODEL": str(model)}
    code, out, err = invoke(capsys, *(files.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


EVAL_MODEL = ["eval", "-e", "E x. true", "--model", "FILE"]


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("argv, text, kind, message", [
    (EVAL_MODEL, "[1,2]", "StructureError", "structure document must be a JSON object"),
    (EVAL_MODEL, '{"domain": ["a"]}', "StructureError",
     "structure document lacks required keys: ['arities']"),
    (EVAL_MODEL, '{"domain": "a", "arities": {}}', "StructureError",
     "'domain' must be a list of strings"),
    (EVAL_MODEL, '{"domain": ["a"], "arities": []}', "StructureError",
     "'arities' must be an object mapping names to integers"),
    (EVAL_MODEL, '{"domain": ["a"], "arities": {}, "relations": []}', "StructureError",
     "'relations' must be an object mapping names to tuple lists"),
    (EVAL_MODEL, '{"domain": ["a"], "arities": {"R": 1}, "relations": {"R": [1]}}',
     "StructureError", "relation 'R' must be a list of tuples (lists)"),
    (["parse", "-e", "P(x) Q(x)"], None, "parse", "1:6: unexpected trailing input 'Q'"),
    (["parse", "--vocab", "FILE", "-e", "P(x)"], '{"1R": 2}', "VocabularyError",
     "invalid relation name '1R'"),
    (["translate", "--from", "dlr0", "--to", "fu1", "-e", "exists[$1] top1"], None, "parse",
     "1:12: top_n roles need n >= 2 (use top1 as a concept)"),
    (["translate", "--from", "dlr0", "--to", "fu1", "--vocab", "FILE", "-e",
      "exists[$1] (R & T)"], '{"R": 2, "T": 3}', "ArityError",
     "role intersection of arities 2 and 3"),
    (["check", "--fragment", "u1", "-e", "E x y. (P(x) & P(x,y))"], None, "ArityError",
     "relation 'P' used with arities 1 and 2"),
], ids=["model-not-object", "model-lacks-arities", "model-domain", "model-arities",
        "model-relations", "model-tuples", "trailing-input", "vocab-name", "dlr-top1-role",
        "dlr-role-arities", "check-mixed-arities"])
def test_refusals_report_their_kind_and_message(capsys, tmp_path, argv, text, kind,
                                                message, fmt):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    code, out, err = invoke(capsys, *(str(path) if a == "FILE" else a for a in argv),
                            "--format", fmt)
    assert (code, err) == (2, f"error: {message}\n")
    if fmt == "human":
        assert out == ""
    else:
        doc = json.loads(out)
        check_schema(doc, "error.schema.json")
        assert doc == {"error": {"kind": kind, "message": message}}


@pytest.mark.parametrize("argv", [
    ["parse", "FILE"],
    ["eval", "-e", "E x. true", "--model", "FILE"],
    ["parse", "--vocab", "FILE", "-e", "P(x)"],
], ids=["formula-file", "model", "vocab"])
def test_a_file_that_is_not_utf8_is_an_io_error(capsys, tmp_path, argv):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfeP(x)")
    code, out, err = invoke(capsys, *(str(path) if a == "FILE" else a for a in argv),
                            "--format", "json")
    message = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert (code, err) == (2, f"error: {message}\n")
    doc = json.loads(out)
    check_schema(doc, "error.schema.json")
    assert doc == {"error": {"kind": "io", "message": message}}


def test_a_translation_taller_than_the_parsers_accept_is_a_parse_error(capsys, tmp_path):
    # dl_to_fu1 of the deepest DL concept is about 400 levels tall: it is
    # printed, and reading it back is refused by the height bound
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps({"R": 2, "A": 1}))
    deepest = "exists R.(" * 199 + "A" + ")" * 199
    code, out, _ = invoke(capsys, "translate", "--from", "dl", "--to", "fu1", "--vocab", str(vocab),
                          "-e", deepest, "--format", "json")
    assert code == 0
    text = json.loads(out)["output"]
    for argv in (["parse"], ["translate", "--from", "fu1", "--to", "dl"]):
        code, out, err = invoke(capsys, *argv, "-e", text, "--format", "json")
        assert code == 2 and "Traceback" not in err
        error = json.loads(out)["error"]
        assert error["kind"] == "parse" and "deeper than" in error["message"]
    code, _, _ = invoke(capsys, "translate", "--from", "dl", "--to", "fu1", "--vocab", str(vocab),
                        "-e", "exists R.(" + deepest + ")")
    assert code == 2  # 199 is the deepest concept the DL parser accepts


def _chain(leaf, op, n=3000):
    return "(" + f" {op} ".join([leaf] * n) + ")"


@pytest.mark.parametrize("op", ["&", "|"])
@pytest.mark.parametrize("argv, leaf", [
    (["parse", "-e", "CHAIN"], "P(x)"),
    (["check", "--fragment", "fu1", "-e", "CHAIN"], "P(x)"),
    (["eval", "--model", "MODEL", "--assign", "x=a", "-e", "CHAIN"], "P(x)"),
    (["sat", "--max-size", "1", "-e", "E x. CHAIN"], "P(x)"),
    (["translate", "--from", "fu1", "--to", "dl", "-e", "CHAIN"], "P(x)"),
    (DL_FU1 + ["CHAIN"], "A"),
    (DLR0_FU1 + ["CHAIN"], "A"),
    (DLR0_FU1 + ["exists[$1] CHAIN"], "R"),
])
def test_long_chains_keep_the_exit_code_contract(capsys, tmp_path, argv, leaf, op):
    """3,000-operand chains nest about 12 levels deep and are answered."""
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps({"R": 2, "A": 1}))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"domain": ["a"], "arities": {"P": 1},
                                 "relations": {"P": [["a"]]}}))
    files = {"VOCAB": str(vocab), "MODEL": str(model)}
    argv = [files.get(a, a.replace("CHAIN", _chain(leaf, op))) for a in argv]
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert "Traceback" not in err
    if op == "|" and leaf != "P(x)":  # '|' has no place in the DL and DLR grammars
        assert code == 2 and json.loads(out)["error"]["kind"] == "parse"
    else:
        assert code == 0, out


def _nested_chains(depth=190, n=33):
    text = "P(x)"
    for _ in range(depth):
        text = "(" + " & ".join([text] + ["P(x)"] * (n - 1)) + ")"
    return text


@pytest.mark.parametrize("command", ["parse", "check", "eval", "sat", "translate"])
@pytest.mark.parametrize("text", [_chain("P(x)", "->"),
                                  "E " + " ".join(f"x{i}" for i in range(1000)) + ". P(x0)",
                                  _nested_chains()],
                         ids=["arrow-chain", "wide-block", "nested-chains"])
def test_inputs_past_the_nesting_bound_are_parse_errors(capsys, tmp_path, command, text):
    """'->' is not associative, so its chains nest one level per operand;
    the evaluator loops over each block variable in a frame of its own; and
    a chain of 33 operands nests 6 levels deep, so 190 nested ones make a
    tree over 1,000 levels tall."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"domain": ["a"], "arities": {"P": 1}, "relations": {}}))
    argv = {"check": ["check", "--fragment", "fu1"], "eval": ["eval", "--model", str(model)],
            "sat": ["sat", "--max-size", "1"],
            "translate": ["translate", "--from", "fu1", "--to", "dl"]}.get(command, [command])
    code, out, err = invoke(capsys, *argv, "-e", text, "--format", "json")
    assert code == 2 and "Traceback" not in err
    doc = json.loads(out)
    check_schema(doc, "error.schema.json")
    assert doc["error"]["kind"] == "parse" and "deeper than" in doc["error"]["message"]


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    import unifrag.cli

    def crash(args, rep):
        raise RuntimeError("unexpected\nfailure")

    monkeypatch.setattr(unifrag.cli, "_cmd_parse", crash)
    code, out, err = invoke(capsys, "parse", "-e", "P(x)", "--format", "json")
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error:")
    doc = json.loads(out)
    check_schema(doc, "error.schema.json")
    assert doc["error"]["kind"] == "internal"


def test_lab_run_schema_and_single_name(capsys):
    code, out, _ = invoke(capsys, "lab", "run", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "lab-run.schema.json")
    assert doc["all_passed"] is True
    assert len(doc["experiments"]) == 5

    code, out, _ = invoke(capsys, "lab", "run", "--name", "prop2-disjoint-copies",
                          "--format", "json")
    assert code == 0
    assert len(json.loads(out)["experiments"]) == 1


def test_lab_dump_writes_structure_documents(tmp_path, capsys):
    code, out, _ = invoke(capsys, "lab", "dump", "--out", str(tmp_path / "dump"),
                          "--format", "json")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "lab-dump.schema.json")
    assert len(doc["written"]) == 10
    sample = json.loads(Path(doc["written"][0]).read_text())
    check_schema(sample, "structure.schema.json")
    from unifrag import parse_structure
    parse_structure(Path(doc["written"][0]).read_text())


def test_sat_human_output_has_no_wall_time(capsys):
    runs = []
    for _ in range(2):
        code, out, err = invoke(capsys, "sat", "--max-size", "2", "-e", "A x. E y. S(x,y)")
        assert code == 0
        assert re.search(r"\d+\.\d{3}s", err) and not re.search(r"\d+\.\d{3}s", out)
        runs.append(out)
    assert runs[0] == runs[1]
    assert runs[0].startswith("model of size 1 (")


def test_json_mode_is_byte_identical(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = invoke(capsys, "sat", "--max-size", "2",
                           "-e", "A x. E y. S(x,y)", "--format", "json")
        runs.append(out)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# The exit-code contract under fuzzing
# ---------------------------------------------------------------------------

FORMULAS = ("E y. (R(x,y) & P(y))", "A x. E y z. (T(x,y,z) | ~(y = z))",
            "E[>=2] x. P(x)", "A x y. (R(x,y) -> R(y,x))", "~R(x,x)", "true")
DL_CONCEPTS = ("exists R.(P)", "~exists ~R.(P)", "(P & exists perm[2,1]R.(top))",
               "exists T.(P, ~Q)", "exists (R & eps).(top)")
DLR_CONCEPTS = ("exists[$1] R", "exists R|$1,$2 . A", "exists (R|$1,$2 o eps) . top1",
                "(<=1 [$2] R)", "exists ($1/2:A)|$1,$2 . ~B", "exists eps* . A",
                "exists[$2] ~(R & top2)")
ARITIES = {"R": 2, "T": 3, "P": 1, "Q": 1, "A": 1, "B": 1, "top2": 2}
VOCAB_DOCS = (json.dumps(ARITIES),)
STRUCTURE_DOCS = (json.dumps({"domain": ["a", "b"], "arities": ARITIES,
                              "relations": {"R": [["a", "b"]], "P": [["b"]],
                                            "top2": [["a", "b"], ["b", "a"]]}}),)
FUZZ_ALPHABET = "()[]{},.:&|~-><=$/*\"0123456789 xyzPRTAEeopstu\n"
# (opening, closing, depths): quantifier prefixes stay shallow or go past
# the parsers' depth limit, since evaluating a depth-k prefix can cost domain^k
NESTINGS = (("(", ")", (2, 150, 3000)), ("~", "", (2, 150, 3000)),
            ("[", "]", (2, 3000)), ('{"a":', "}", (2, 3000)),
            ("E x. ", "", (2, 300)), ("exists eps . ", "", (2, 300)),
            ("exists (($1/2: ", ") & R)|$1,$2 . A", (2, 40)))


# operand counts of a chain of seeds (1: the seed alone): short ones, and
# long ones that a left-deep tree could not walk without overflowing the
# stack; 1000 comes early, where the fuzzer draws it often enough to matter
CHAIN_LENGTHS = (1, 1000, 1, 2, 4, 5, 3000, 1, 5000)


@st.composite
def fuzzed_text(draw, seeds):
    """A seed input, or a chain of copies of it under one operator, after
    up to three truncations, edits or nestings; or random text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(FUZZ_ALPHABET, max_size=40))
    text = draw(st.sampled_from(seeds))
    n = draw(st.sampled_from(CHAIN_LENGTHS))
    if n > 1:
        text = "(" + f" {draw(st.sampled_from(('&', '|', '->')))} ".join([text] * n) + ")"
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("truncate", "insert", "delete", "nest")))
        i = draw(st.integers(0, len(text)))
        if op == "truncate":
            text = text[:i]
        elif op == "insert":
            text = text[:i] + draw(st.text(FUZZ_ALPHABET, min_size=1, max_size=4)) + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            opening, closing, depths = draw(st.sampled_from(NESTINGS))
            n = draw(st.sampled_from(depths))
            text = opening * n + text + closing * n
    return text


@st.composite
def fuzzed_request(draw, workdir):
    vocab, model, source = workdir / "vocab.json", workdir / "model.json", workdir / "input"
    # the files are left intact half of the time, so that most requests
    # get as far as their text input
    vocab.write_text(draw(st.one_of(st.sampled_from(VOCAB_DOCS), fuzzed_text(VOCAB_DOCS))))
    model.write_text(draw(st.one_of(st.sampled_from(STRUCTURE_DOCS),
                                    fuzzed_text(STRUCTURE_DOCS))))
    command = draw(st.sampled_from(("parse", "check", "eval", "fu1-dl", "dl-fu1",
                                    "dlr0-fu1", "sat", "lab-run", "lab-dump")))
    vocab_opt = ["--vocab", str(vocab)]
    if command not in ("dl-fu1", "dlr0-fu1"):  # the two that need one
        vocab_opt = draw(st.sampled_from(([], vocab_opt)))
    seeds = {"dl-fu1": DL_CONCEPTS, "dlr0-fu1": DLR_CONCEPTS}.get(command, FORMULAS)
    text = draw(fuzzed_text(seeds))
    if draw(st.booleans()):
        source.write_text(text)
        io_opts = [str(source)]
    else:
        io_opts = [f"--expr={text}"]
    if command == "parse":
        argv = ["parse"] + vocab_opt
    elif command == "check":
        fragment = draw(st.sampled_from(("u1woeq", "fu1", "u1", "uc1", "fo2")))
        argv = ["check", "--fragment", fragment] + vocab_opt
    elif command == "eval":
        assign = draw(st.sampled_from(("", "x=a", "x=b,y=a", "x=zz", "x", "=")))
        argv = ["eval", "--model", str(model), f"--assign={assign}"]
    elif command == "sat":
        argv = ["sat", "--max-size", str(draw(st.integers(-1, 2))),
                "--cell-limit", str(draw(st.sampled_from((0, 4, 8))))] + vocab_opt
        argv += draw(st.sampled_from(([], ["--prune"])))
    elif command == "lab-run":
        names = ("prop2-disjoint-copies", "cycles-triangle", "clique-edge-cover")
        name = draw(st.one_of(st.sampled_from(names), fuzzed_text(names)))
        io_opts, argv = [], ["lab", "run", f"--name={name}"]
    elif command == "lab-dump":
        out = draw(st.sampled_from((workdir / "dump", vocab / "dump")))  # under a file
        io_opts, argv = [], ["lab", "dump", "--out", str(out)]
    else:
        source_name, target = command.split("-")
        argv = ["translate", "--from", source_name, "--to", target] + vocab_opt
        argv += ["--topn-mode", draw(st.sampled_from(dlr.TOPN_MODES))]
    return argv + io_opts + ["--format", draw(st.sampled_from(("json", "json", "human")))]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_exit_code_contract_under_fuzzing(fuzz_dir, data):
    argv = data.draw(fuzzed_request(fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as e:  # argparse refuses a malformed command line
            code = e.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if argv[-1] == "human":
        return
    doc = json.loads(out.getvalue())
    if code >= 2:
        check_schema(doc, "error.schema.json")
        assert doc["error"]["kind"] != "internal", (argv, doc)
    else:
        command = f"lab-{argv[1]}" if argv[0] == "lab" else argv[0]
        check_schema(doc, f"{command}.schema.json")
