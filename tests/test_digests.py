"""Golden digests of the package's outputs.

Each digest is the SHA-256 of one canonical text:

* ``check``: the check documents of seeded generated formulas in all five
  fragments, with no vocabulary, with one that fits them and with one that
  refuses some of their atoms;
* ``extensions``: on seeded structures of 1-4 elements, some of whose
  relations are empty or full, the sorted satisfaction set of seeded
  formulas with at most one free variable and of their ``fu1_to_dl``
  translations, the sorted extensions of DL concepts and roles and of
  their ``dl_to_fu1`` translations, and of DLR concepts and binary
  relation terms and of the ``dlr0_to_fu1`` translations of DLR core
  concepts, in both top modes;
* ``fu1_to_dl``: the printed concept, or the refusal, of each such formula;
* ``lab_run``: the output of ``unifrag lab run --format json``;
* ``search``: for seeded generated sentences and each bound 1-3, the node
  estimate of ``grounder`` and, pruned and unpruned, the verdict, the
  nodes examined and the model of ``find_model``;
* ``text``: the printed text of seeded generated formulas, DL concepts and
  roles, and DLR concepts, roles and binary relation terms, and the parse
  tree, or the refusal, of each text and of seeded one-character mutations
  of it.

``digests.json`` holds the values of the code that wrote it, so a change to
any of these outputs fails here, under every hash seed.  After a deliberate
change of output, write the file anew with
``PYTHONPATH=src python tests/test_digests.py > tests/digests.json``.
``python tests/test_digests.py --lines NAME`` prints the canonical text of
the digest NAME, so that ``diff`` of its output at two commits shows which
lines a change moved.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from itertools import product

from unifrag import (LogicError, Vocabulary, check_fragment, cli, dl, dlr, dl_to_fu1,
                     dlr0_to_fu1, find_model, fu1_to_dl, satisfaction_set)
from unifrag.fragments import FragmentId
from unifrag.modelfind import grounder
from unifrag.structures import make_structure
from unifrag.syntax import parse_formula, print_formula

from strategies import (DLR_VOCAB, VOCAB, gen_any_formula, gen_dl_concept, gen_dl_role, gen_dlr_binrel,
                        gen_dlr_concept, gen_dlr_role, gen_formula, parse_role)

HERE = Path(__file__).resolve().parent
SEEDS, PER_SEED = (1, 2, 3), 300
U1_FAMILY = (FragmentId.U1_WO_EQ, FragmentId.FU1, FragmentId.U1, FragmentId.UC1)
VOCABULARIES = (None, VOCAB, Vocabulary({"R": 3, "P": 1}))


def _formulas():
    """Half grammar-directed formulas of the U1 family, half arbitrary ones."""
    for seed in SEEDS:
        rng = random.Random(seed)
        for i in range(PER_SEED):
            if i % 2:
                yield gen_any_formula(rng, 3, ("x",))
            else:
                yield gen_formula(rng, U1_FAMILY[i // 2 % 4], 3)


def _translation(f) -> str:
    try:
        return dl.print_concept(fu1_to_dl(f))
    except LogicError as e:
        return f"{type(e).__name__}: {e}"


def _dlr_reader(start: str):
    def read(text: str):
        p = dlr._DlrParser(text)
        return p.finish(getattr(p, start)())
    return read


TEXT_ROUNDS = 150  # per seed
# per grammar: a generator of terms, their printer and their parser
GRAMMARS = ((lambda rng: gen_any_formula(rng, 3, ("x",)), print_formula, parse_formula),
            (lambda rng: gen_dl_concept(rng, 3), dl.print_concept, dl.parse_concept),
            (lambda rng: gen_dl_role(rng, 3), dl.print_role, parse_role),
            (lambda rng: gen_dlr_concept(rng, 3), dlr.print_dlr_concept, dlr.parse_dlr_concept),
            (lambda rng: gen_dlr_role(rng, 3), dlr.print_dlr_role, _dlr_reader("role")),
            (lambda rng: gen_dlr_binrel(rng, 3), dlr.print_dlr_binrel, _dlr_reader("binrel")))
MUTATION_CHARS = "~&|()[]$.,:*/<=>-0123 \nAERTxo@"


def _parsed(parse, text: str) -> str:
    try:
        return repr(parse(text))
    except LogicError as e:
        return f"{type(e).__name__}: {e}"


def _texts():
    """Per printed term: its text, then the outcome of parsing it and three
    one-character mutations of it (an insertion, a replacement or a deletion)."""
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(TEXT_ROUNDS):
            for gen, show, parse in GRAMMARS:
                text = show(gen(rng))
                yield text
                yield _parsed(parse, text)
                for _ in range(3):
                    i, edit = rng.randrange(len(text) + 1), rng.randrange(3)
                    new = rng.choice(MUTATION_CHARS) if edit < 2 else ""
                    mutant = text[:i] + new + text[i + (edit > 0):]
                    yield f"{mutant!r} {_parsed(parse, mutant)}"


SEARCHES = 200  # per seed
SEARCH_VOCAB = Vocabulary({"R": 2, "P": 1, "Q": 1})


def _searches():
    """Per sentence and bound: the node estimate, then per search its
    verdict, nodes examined and model, with each relation's tuples sorted."""
    for seed in SEEDS:
        rng = random.Random(seed)
        for i in range(SEARCHES):
            if i % 2:
                f = gen_any_formula(rng, 3, (), SEARCH_VOCAB)
            else:
                f = gen_formula(rng, U1_FAMILY[i // 2 % 4], 3, None, SEARCH_VOCAB)
            yield print_formula(f)
            for bound in (1, 2, 3):
                yield f"{bound} {grounder(f, SEARCH_VOCAB, bound)[1]}"
                for prune in (False, True):
                    report = find_model(f, SEARCH_VOCAB, bound, prune)
                    model = report.model and (report.model.size, sorted(
                        (rel, sorted(tuples)) for rel, tuples in report.model.relations.items()))
                    yield f"{report.found} {report.nodes_examined} {model}"


EXTENSION_ROUNDS, EXTENSION_STRUCTURES = 60, 6  # per seed
TOP_VOCAB = Vocabulary({**DLR_VOCAB.symbols, "top2": 2, "top3": 3})


def _extension_structures(rng: random.Random, vocab: Vocabulary) -> list:
    """Structures of 1-4 elements, each relation empty, full or in between;
    a ``top<n>`` relation covers every n-ary relation, as explicit mode needs."""
    out = []
    for _ in range(EXTENSION_STRUCTURES):
        domain = [f"e{i}" for i in range(rng.randint(1, 4))]
        rels = {}
        for name, arity in vocab.symbols.items():
            density = rng.choice((0.0, 0.3, 0.6, 1.0))
            rels[name] = {t for t in product(domain, repeat=arity) if rng.random() < density}
        for name, arity in vocab.symbols.items():
            if name.startswith("top"):
                for other, tuples in list(rels.items()):
                    if vocab.symbols[other] == arity:
                        rels[name] |= tuples
        out.append(make_structure(domain, dict(vocab.symbols), rels))
    return out


def _outcomes(term, show, extension, structures) -> str:
    """The printed term, then per structure its sorted extension or the refusal."""
    out = [show(term)]
    for s in structures:
        try:
            out.append(" ".join(map(str, sorted(extension(s, term)))))
        except LogicError as e:
            out.append(f"{type(e).__name__}: {e}")
    return " | ".join(out)


def _satisfied(s, f):
    return satisfaction_set(s, f).elements


def _extensions():
    for seed in SEEDS:
        rng = random.Random(seed)
        fo, tops = _extension_structures(rng, VOCAB), _extension_structures(rng, TOP_VOCAB)
        for i in range(EXTENSION_ROUNDS):
            f = (gen_any_formula(rng, 3, ("x",)) if i % 2
                 else gen_formula(rng, U1_FAMILY[i // 2 % 4], 3))
            yield _outcomes(f, print_formula, _satisfied, fo)
            try:
                yield _outcomes(fu1_to_dl(f), dl.print_concept, dl.concept_extension, fo)
            except LogicError as e:
                yield f"{type(e).__name__}: {e}"
            c = gen_dl_concept(rng, 3)
            yield _outcomes(c, dl.print_concept, dl.concept_extension, fo)
            yield _outcomes(dl_to_fu1(c, VOCAB), print_formula, _satisfied, fo)
            yield _outcomes(gen_dl_role(rng, 3), dl.print_role, dl.role_extension, fo)
            c, rel = gen_dlr_concept(rng, 3), gen_dlr_binrel(rng, 3)
            core = gen_dlr_concept(rng, 3, core_only=True)
            for topn in ("delta", "explicit"):
                yield _outcomes(c, dlr.print_dlr_concept,
                                lambda s, c: dlr.dlr_concept_extension(s, c, topn), tops)
                yield _outcomes(rel, dlr.print_dlr_binrel,
                                lambda s, r: dlr.dlr_binrel_extension(s, r, topn), tops)
                yield _outcomes(core, dlr.print_dlr_concept,
                                lambda s, c: dlr.dlr_concept_extension(s, c, topn), tops)
                try:
                    yield _outcomes(dlr0_to_fu1(core, TOP_VOCAB, topn), print_formula,
                                    _satisfied, tops)
                except LogicError as e:
                    yield f"{type(e).__name__}: {e}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _lab_run() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["lab", "run", "--format", "json"]) == 0
    return out.getvalue()


# per digest, the function that computes its canonical text
TEXTS = {"check": lambda: json.dumps([check_fragment(f, frag, vocab).to_doc()
                                      for f in _formulas() for frag in FragmentId
                                      for vocab in VOCABULARIES], sort_keys=True),
         "extensions": lambda: "\n".join(_extensions()),
         "fu1_to_dl": lambda: "\n".join(map(_translation, _formulas())),
         "lab_run": _lab_run,
         "search": lambda: "\n".join(_searches()),
         "text": lambda: "\n".join(_texts())}


def digests() -> dict[str, str]:
    return {name: _sha(text()) for name, text in TEXTS.items()}


def test_outputs_match_the_committed_digests():
    assert digests() == json.loads((HERE / "digests.json").read_text())


def test_digests_do_not_depend_on_the_hash_seed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    runs = [subprocess.Popen([sys.executable, str(HERE / "test_digests.py")],
                             stdout=subprocess.PIPE, text=True,
                             env=dict(env, PYTHONHASHSEED=seed)) for seed in ("0", "1")]
    outputs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    expected = json.loads((HERE / "digests.json").read_text())
    assert [json.loads(text) for text in outputs] == [expected, expected]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--lines"]:
        print(TEXTS[sys.argv[2]]())
    else:
        print(json.dumps(digests(), indent=2, sort_keys=True))
