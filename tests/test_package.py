import ast
import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import unifrag
from unifrag import (Vocabulary, dl, dlr, fragments, make_structure, modelfind, parse_formula,
                     semantics, syntax, translate)

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
LIMITS = {"translate.DNF_LIMIT": translate.DNF_LIMIT,
          "modelfind.CIRCUIT_LIMIT": modelfind.CIRCUIT_LIMIT,
          "syntax.MAX_NESTING": syntax.MAX_NESTING,
          "syntax.MAX_DIGITS": syntax.MAX_DIGITS,
          "syntax.MAX_ARITY": syntax.MAX_ARITY,
          "syntax.MAX_COMPILED": syntax.MAX_COMPILED}


def _value(number: str) -> int:
    return int(number.replace(",", ""))


def test_every_public_name_is_listed_once_and_imports_from_the_package_root():
    assert len(unifrag.__all__) == len(set(unifrag.__all__))
    namespace: dict = {}
    exec("from unifrag import *", namespace)  # raises on a name the root lacks
    assert set(unifrag.__all__) <= namespace.keys()


def test_readme_states_each_limit_as_its_constant():
    # each limit is named just after the number README states for it
    for name, value in LIMITS.items():
        mentions = [m.start() for m in re.finditer(f"`{re.escape(name)}`", README)]
        assert mentions, f"README does not name {name}"
        for at in mentions:
            stated = re.findall(r"\d[\d,]*\d|\d", README[max(0, at - 60):at])
            assert stated and _value(stated[-1]) == value, (name, stated)
    # and a number written with thousands separators is one of the limits
    for number in re.findall(r"\d{1,3}(?:,\d{3})+", README):
        assert _value(number) in LIMITS.values(), number


def test_model_search_compiles_through_the_one_formula_compiler():
    # a second formula walker would need the node classes to dispatch on
    tree = ast.parse((ROOT / "src" / "unifrag" / "modelfind.py").read_text())
    names = {alias.name.rpartition(".")[2] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    walker = {"Atom", "Not", "And", "Or", "Implies", "Equals", "Top", "Bottom",
              "ExistsBlock", "ForallBlock", "CountExists", "check_atom"}
    assert names & walker == set()
    assert "compile_formula" in names


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's unifrag."""
    src = str(Path(unifrag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=True)


LOADED = "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'unifrag'))"


def test_each_subcommand_imports_only_what_it_uses(tmp_path):
    parse = _python("-c", "import sys\nfrom unifrag import cli\n"
                          f"cli.run(['parse', '-e', 'P(x)'])\n{LOADED}")
    assert parse.stdout.splitlines() == ["P(x)", repr(sorted([
        "unifrag", "unifrag.cli", "unifrag.errors", "unifrag.syntax"]))]
    assert _python("-c", f"import sys, unifrag\n{LOADED}").stdout == "['unifrag']\n"
    # run as a module, with no warning that the package imported it first
    command = _python("-m", "unifrag.cli", "parse", "-e", "P(x)")
    assert (command.stdout, command.stderr) == ("P(x)\n", "")
    assert set(unifrag.__all__) <= set(dir(unifrag))
    # no subcommand loads dataclasses nor the inspect module it imports,
    # unless the bare interpreter does
    model, vocab = tmp_path / "model.json", tmp_path / "vocab.json"
    model.write_text('{"domain": ["a", "b"], "arities": {"R": 2}, '
                     '"relations": {"R": [["a", "b"]]}}')
    vocab.write_text('{"R": 2}')
    heavy = "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    bare = _python("-c", f"import sys\n{heavy}").stdout
    for argv in (["parse", "-e", "P(x)"],
                 ["check", "--fragment", "fu1", "-e", "E x y. (R(x,y) & ~R(y,z))"],
                 ["eval", "--model", str(model), "-e", "E x y. R(x,y)"],
                 ["sat", "--max-size", "2", "-e", "E x. A y. ~R(x,y)"],
                 ["translate", "--from", "fu1", "--to", "dl", "-e", "E y. R(x,y)"],
                 ["translate", "--from", "dlr0", "--to", "fu1", "--vocab", str(vocab),
                  "-e", "exists[$1] R"],
                 ["lab", "run"],
                 ["lab", "dump", "--out", str(tmp_path / "lab")]):
        run = _python("-c", f"import sys\nfrom unifrag import cli\nprint(cli.run({argv!r}))\n"
                            f"{heavy}")
        code, loaded = run.stdout.splitlines()[-2:]
        assert code in ("0", "1") and loaded == bare.strip(), argv


def _scan(path: Path, defined: list, used: dict) -> None:
    """Add ``path``'s definitions to ``defined`` as (path, qualified name,
    first line, last line), and the places each name is referenced to
    ``used[name]`` as (path, line)."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()

    def visit(node: ast.AST, scope: str) -> None:
        words: list = []
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                docstrings.add(id(body[0].value))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.append((path, scope + node.name, node.lineno, node.end_lineno))
            scope += node.name + "."
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            words = [node.id]
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            words = [node.attr]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            words = re.findall(r"[A-Za-z_]\w*", node.value)
        for word in words:
            used.setdefault(word, []).append((path, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")


def test_every_definition_in_src_has_a_caller():
    """Each function, method and class under ``src/unifrag`` is referenced
    outside its own body from ``src/`` or ``perfbench/``: by a name, an
    attribute, or a word in a string that is not a docstring (so that the
    CLI's ``fn="_cmd_parse"`` and the package root's export table count).
    Dunder names are exempt, and the tests do not count as callers.  The
    rule matches by name only, so its blind spot is a name shared with
    another symbol: a method ``rel`` would pass on the ``Atom.rel`` field
    alone, and a reference from code that is itself dead counts as use."""
    defined: list = []
    used: dict = {}
    for path in sorted((ROOT / "src" / "unifrag").glob("*.py")):
        _scan(path, defined, used)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        _scan(path, [], used)

    def called(path: Path, name: str, first: int, last: int) -> bool:
        return any(p != path or not first <= line <= last for p, line in used.get(name, ()))

    uncalled = []
    for path, qualname, first, last in defined:
        name = qualname.rpartition(".")[2]
        if not (name.startswith("__") and name.endswith("__")
                or called(path, name, first, last)):
            uncalled.append(f"{path.name} {qualname}")
    assert uncalled == []


def test_no_compile_or_translation_leaves_a_reference_cycle():
    # a compiler's recursive walk that refers to itself would keep the walk,
    # and all it holds, until the next collection; with the collector off,
    # each call must leave nothing for it to find
    vocab = Vocabulary({"R": 2, "T": 3, "A": 1, "P": 1, "top2": 2})
    s = make_structure(["a", "b", "c"], vocab.symbols, {"R": {("a", "b"), ("b", "c")}})
    f = parse_formula("A x. E y. (R(x,y) & A z. ((R(y,z) & ~P(z)) -> E[>=1] y. R(z,y)))")
    fu1 = parse_formula("E y. (R(x,y) & ~E z. (R(y,z) & P(z)))")
    c = dl.parse_concept("(exists perm[2,1]R.(A) & ~exists (~T & perm[1,3,2]T).(A, ~A))")
    d = dlr.parse_dlr_concept("(exists (R|$1,$2 o R|$2,$1*) . A & (<=1 [$1] (R & ($2/2:A))))")
    d0 = dlr.parse_dlr_concept("(exists R|$1,$2 . A & exists[$1] (R & ~($2/2:A)))")
    calls = {
        "compile_formula": lambda: semantics.compile_formula(f, vocab),
        "evaluate_naive": lambda: semantics.evaluate_naive(s, {}, f),
        "dl._compile_concept": lambda: dl._compile_concept(c, vocab),
        "dlr._compile": lambda: dlr._compile(d, vocab, "delta", "concept"),
        "dlr._compile explicit": lambda: dlr._compile(d, vocab, "explicit", "concept"),
        "translate.fu1_to_dl": lambda: translate.fu1_to_dl(fu1),
        "translate.dl_to_fu1": lambda: translate.dl_to_fu1(c, vocab),
        "translate.dlr0_to_fu1": lambda: translate.dlr0_to_fu1(d0, vocab),
        "modelfind.find_model": lambda: modelfind.find_model(f, vocab, 2),
        "fragments.check_fragment": lambda: fragments.check_fragment(fu1, syntax.FragmentId.FU1),
    }
    for call in calls.values():  # first calls import and cache what they use
        call()
    gc.collect()
    gc.disable()
    try:
        left = {name: (call(), gc.collect())[1] for name, call in calls.items()}
    finally:
        gc.enable()
    assert left == dict.fromkeys(calls, 0)
