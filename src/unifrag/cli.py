"""Command-line interface.

Exit codes separate semantic verdicts from operational failures so shell
pipelines can branch on them:

* 0 - success, or a positive verdict (member / true / model found)
* 1 - a negative verdict (non-member, false, no model up to the bound,
      failing experiment); not an error
* 2 - input problems: unreadable files, syntax errors, bad documents
* 3 - fragment-gate refusals (e.g. closure or counting operators fed to
      the composition-free translation)

With ``--format json`` every command writes one JSON document to stdout;
identical invocations produce byte-identical output (timing statistics are
deliberately left out of the JSON reports).  Errors always print a single
diagnostic line to stderr, plus a JSON body on stdout in json mode; a
command line that argparse refuses is an error of kind ``"usage"`` (exit
2), in json mode when it asks for ``--format json``.  The argument parser
is built once per process.

Each subcommand imports only the modules it runs.  This module imports
:mod:`unifrag.syntax` and :mod:`unifrag.fragments`, all that ``parse`` and
``check`` need, and each other subcommand imports its modules in its own
body, so a fresh process pays for no module it does not use.  The parser's
choices and defaults that belong to other modules (``TOPN_MODES``,
``DEFAULT_CELL_LIMIT``) live in :mod:`unifrag.syntax` for that reason.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path
from typing import Optional

from .errors import FragmentGateError, LogicError, ParseError
from .syntax import (DEFAULT_CELL_LIMIT, TOPN_MODES, Formula, FragmentId, Vocabulary,
                     free_variables, infer_vocabulary, parse_formula, print_formula)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT_ERROR = 2
EXIT_GATE = 3

FRAGMENTS = {f.value: f for f in FragmentId}


class _Reporter:
    def __init__(self, fmt: str):
        self.json = fmt == "json"

    def emit(self, doc: dict, human: str):
        if self.json:
            print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        else:
            print(human)

    def error(self, kind: str, message: str) -> None:
        print(f"error: {message}", file=sys.stderr)
        if self.json:
            print(json.dumps({"error": {"kind": kind, "message": message}},
                             sort_keys=True, separators=(",", ":")))


def _read_input(args) -> str:
    if args.expr is not None:
        return args.expr
    if args.file is None:
        raise LogicError("provide inline input with -e TEXT or a file path")
    return Path(args.file).read_text("utf-8")


def _load_vocab(path: Optional[str]) -> Optional[Vocabulary]:
    if path is None:
        return None
    try:
        raw = json.loads(Path(path).read_text("utf-8"))
    except RecursionError:
        raise LogicError("vocabulary file nests too deeply to decode") from None
    if not isinstance(raw, dict):
        raise LogicError("vocabulary file must be a JSON object of name: arity")
    return Vocabulary(raw)


def _read_formula(args) -> tuple[Formula, Vocabulary]:
    """The formula of the request and its vocabulary: ``--vocab``'s, or else
    the one its atoms infer, which refuses a relation used at two arities."""
    vocab = _load_vocab(args.vocab)
    f = parse_formula(_read_input(args), vocab)
    return f, vocab if vocab is not None else infer_vocabulary(f)


def _parse_assignment(text: Optional[str]) -> dict[str, str]:
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise LogicError(f"assignment entries look like var=element, got {piece!r}")
        var, val = (part.strip() for part in piece.split("=", 1))
        if not var:
            raise LogicError(f"assignment entry {piece!r} names no variable")
        if var in out:
            raise LogicError(f"variable {var!r} is assigned twice")
        out[var] = val
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_parse(args, rep: _Reporter) -> int:
    f, vocab = _read_formula(args)
    doc = {
        "command": "parse",
        "formula": print_formula(f),
        "free_variables": sorted(free_variables(f)),
        "vocabulary": dict(sorted(vocab.symbols.items())),
    }
    rep.emit(doc, doc["formula"])
    return EXIT_OK


def _cmd_check(args, rep: _Reporter) -> int:
    from .fragments import check_fragment
    f, _ = _read_formula(args)
    frag = FRAGMENTS[args.fragment]
    diag = check_fragment(f, frag)
    doc = {"command": "check", "fragment": args.fragment,
           "formula": print_formula(f), **diag.to_doc()}
    lines = [f"{'member of' if diag.verdict else 'NOT in'} {args.fragment}: {doc['formula']}"]
    for v in diag.violations:
        lines.append(f"  {v.kind.value} at {list(v.path)}: {v.message}")
    rep.emit(doc, "\n".join(lines))
    return EXIT_OK if diag.verdict else EXIT_NEGATIVE


def _cmd_eval(args, rep: _Reporter) -> int:
    from .semantics import evaluate
    from .structures import parse_structure
    structure = parse_structure(Path(args.model).read_text("utf-8"))
    f = parse_formula(_read_input(args), structure.vocabulary)
    assignment = _parse_assignment(args.assign)
    value = evaluate(structure, assignment, f)
    doc = {"command": "eval", "formula": print_formula(f),
           "assignment": dict(sorted(assignment.items())), "value": value}
    rep.emit(doc, f"{value}")
    return EXIT_OK if value else EXIT_NEGATIVE


def _cmd_translate(args, rep: _Reporter) -> int:
    from . import dl, dlr
    from .translate import dl_to_fu1, dlr0_to_fu1, fu1_to_dl, gate_dlr0
    source, target = args.source, args.target
    if source == "fu1" and target == "dl":
        f, _ = _read_formula(args)
        out = dl.print_concept(fu1_to_dl(f))
        rendered_in = print_formula(f)
    elif source == "dl" and target == "fu1":
        vocab, text = _load_vocab(args.vocab), _read_input(args)
        if vocab is None:
            raise LogicError("--from dl needs --vocab to resolve atomic role arities")
        concept = dl.parse_concept(text)
        out = print_formula(dl_to_fu1(concept, vocab))
        rendered_in = dl.print_concept(concept)
    elif source == "dlr0" and target == "fu1":
        vocab, text = _load_vocab(args.vocab), _read_input(args)
        concept = dlr.parse_dlr_concept(text)
        gate_dlr0(concept)  # a refusal (3) outranks the missing vocabulary (2)
        if vocab is None:
            raise LogicError("--from dlr0 needs --vocab to resolve atomic role arities")
        out = print_formula(dlr0_to_fu1(concept, vocab, args.topn_mode))
        rendered_in = dlr.print_dlr_concept(concept)
    else:
        raise LogicError(
            f"unsupported translation {source} -> {target}; supported: "
            f"fu1->dl, dl->fu1, dlr0->fu1")
    doc = {"command": "translate", "from": source, "to": target,
           "input": rendered_in, "output": out}
    rep.emit(doc, out)
    return EXIT_OK


def _cmd_sat(args, rep: _Reporter) -> int:
    from .modelfind import find_model
    from .structures import dump_structure, structure_to_doc
    f, vocab = _read_formula(args)
    report = find_model(f, vocab, args.max_size, prune=args.prune,
                        cell_limit=args.cell_limit)
    doc = {
        "command": "sat",
        "sentence": print_formula(f),
        "max_size": report.bound,
        "found": report.found,
        "model": structure_to_doc(report.model) if report.found else None,
        "nodes_examined": report.nodes_examined,
    }
    if report.found:
        human = (f"model of size {report.model.size} ({report.nodes_examined} nodes)\n"
                 + dump_structure(report.model))
    else:
        human = f"no model up to size {report.bound} ({report.nodes_examined} nodes)"
    rep.emit(doc, human)
    if not rep.json:  # wall time only on stderr, so stdout stays deterministic
        print(f"search took {report.elapsed_seconds:.3f}s", file=sys.stderr)
    return EXIT_OK if report.found else EXIT_NEGATIVE


def _cmd_lab_run(args, rep: _Reporter) -> int:
    from .lab import run_experiments
    names = [args.name] if args.name else None
    results = run_experiments(names)
    all_passed = all(r.passed for r in results)
    doc = {
        "command": "lab-run",
        "experiments": [
            {"name": r.name, "passed": r.passed,
             "probes": [{"label": p.label, "expected": p.expected,
                         "actual": p.actual, "passed": p.passed}
                        for p in r.probes]}
            for r in results
        ],
        "all_passed": all_passed,
    }
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
        for p in r.probes:
            mark = "ok" if p.passed else "MISMATCH"
            lines.append(f"    {mark:8} expected {p.expected:12} actual {p.actual:12} {p.label}")
    rep.emit(doc, "\n".join(lines))
    return EXIT_OK if all_passed else EXIT_NEGATIVE


def _cmd_lab_dump(args, rep: _Reporter) -> int:
    from .lab import all_structures
    from .structures import dump_structure
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, structure in sorted(all_structures().items()):
        path = out_dir / f"{name}.json"
        path.write_text(dump_structure(structure) + "\n")
        written.append(str(path))
    rep.emit({"command": "lab-dump", "written": written},
             "\n".join(written))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_io(p: argparse.ArgumentParser):
    p.add_argument("-e", "--expr", help="inline input text")
    p.add_argument("file", nargs="?", help="input file (alternative to -e)")
    p.add_argument("--format", choices=("human", "json"), default="human")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # reported by ``run``, not by exiting
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    """A new parser; the subcommands name their function, which ``run``
    looks up when it dispatches."""
    top = _Parser(
        prog="unifrag",
        description="Toolkit for the uniform one-dimensional fragment and "
                    "its description-logic relatives.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print it back")
    _add_io(p)
    p.add_argument("--vocab", help="JSON vocabulary file (name: arity)")
    p.set_defaults(fn="_cmd_parse")

    p = sub.add_parser("check", help="fragment membership with diagnostics")
    _add_io(p)
    p.add_argument("--fragment", choices=sorted(FRAGMENTS), required=True)
    p.add_argument("--vocab", help="JSON vocabulary file (a relation that does not fit exits 2)")
    p.set_defaults(fn="_cmd_check")

    p = sub.add_parser("eval", help="evaluate a formula on a structure")
    _add_io(p)
    p.add_argument("--model", required=True, help="structure document (JSON)")
    p.add_argument("--assign", help="assignment, e.g. x=a,y=b")
    p.set_defaults(fn="_cmd_eval")

    p = sub.add_parser("translate", help="translate between formalisms")
    _add_io(p)
    p.add_argument("--from", dest="source", choices=("fu1", "dl", "dlr0"), required=True)
    p.add_argument("--to", dest="target", choices=("fu1", "dl"), required=True)
    p.add_argument("--vocab", help="JSON vocabulary file")
    p.add_argument("--topn-mode", choices=TOPN_MODES, default="delta")
    p.set_defaults(fn="_cmd_translate")

    p = sub.add_parser("sat", help="bounded model search for a sentence")
    _add_io(p)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--prune", action="store_true",
                   help="skip isomorphic candidates (never changes outcomes)")
    p.add_argument("--cell-limit", type=int, default=DEFAULT_CELL_LIMIT)
    p.add_argument("--vocab", help="JSON vocabulary file (default: inferred)")
    p.set_defaults(fn="_cmd_sat")

    p = sub.add_parser("lab", help="expressivity separation experiments")
    lab_sub = p.add_subparsers(dest="lab_command", required=True)
    q = lab_sub.add_parser("run", help="run experiments, print pass/fail")
    q.add_argument("--name", help="run a single experiment by name")
    q.add_argument("--format", choices=("human", "json"), default="human")
    q.set_defaults(fn="_cmd_lab_run")
    q = lab_sub.add_parser("dump", help="write all lab structures as JSON")
    q.add_argument("--out", default="lab-structures")
    q.add_argument("--format", choices=("human", "json"), default="human")
    q.set_defaults(fn="_cmd_lab_dump")

    return top


_parser = cache(build_parser)  # the one ``run`` uses, built once per process


def run(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
    except argparse.ArgumentError as e:  # no namespace: json if the line asks for it
        # as argparse reads it: --format json, --format=json, or a prefix from --fo
        pairs = [a.split("=", 1) if "=" in a else [a, b] for a, b in zip(argv, [*argv[1:], ""])]
        asks = any(len(k) > 3 and "--format".startswith(k) and v == "json" for k, v in pairs)
        _Reporter("json" if asks else "human").error("usage", str(e))
        return EXIT_INPUT_ERROR
    rep = _Reporter(args.format)
    try:
        return globals()[args.fn](args, rep)
    except FragmentGateError as e:
        rep.error("fragment-gate", str(e))
        return EXIT_GATE
    except ParseError as e:
        rep.error("parse", str(e))
        return EXIT_INPUT_ERROR
    except LogicError as e:
        rep.error(type(e).__name__, str(e))
        return EXIT_INPUT_ERROR
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        rep.error("io", str(e))
        return EXIT_INPUT_ERROR
    except Exception as e:  # last resort: a crash must never read as a verdict
        rep.error("internal", " ".join(f"{type(e).__name__}: {e}".split()))
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
