"""The four workloads.

Each ``build_*`` function turns a seeded ``random.Random`` into a
``Workload``: a fixed list of operations (one pass) that the runner repeats
in a closed loop with a single client.  An operation calls unifrag through
module attributes (``semantics.evaluate`` rather than a name bound at
import) so that the traced run sees every call, and checks the answer
against a source other than the function under test.  It returns None when
the answer checks out and a short reason otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from unifrag import cli, dl, dlr, fragments, modelfind, semantics, translate
from unifrag import lab, syntax
from unifrag.fragments import FragmentId
from unifrag.syntax import Vocabulary

import gen


@dataclass
class Op:
    fn: Callable[[], Optional[str]]
    # one of the known exit-code contract defects: counted as failed while
    # it fails, but not as a wrong answer
    defect: bool = False


@dataclass
class Workload:
    ops: list[Op]
    # answers shared between the two operations of a pair, cleared per pass
    pairs: dict = field(default_factory=dict)
    # deterministic counts the operations report (search anchors)
    counters: dict = field(default_factory=dict)
    # a timed run may end a pass after any whole block of this many ops
    block: int = 1
    # computes the expected answers after set-up; not part of setup_s
    prepare: Optional[Callable[[], None]] = None


# pass sizes: "full" for measurement, "tiny" for the self-test
SCALES = {
    "full": {"oracle_ops": 2160, "oracle_pool": 192, "oracle_sample": 12,
             "cycle_m": (1, 2, 3, 4, 5), "clique_k": (3, 4, 5, 6, 7, 8),
             "search_anchors": (0, 1, 2, 3), "search_quick": 320, "search_exhaust": 128,
             "cli_mixes": 12},
    "tiny": {"oracle_ops": 4, "oracle_pool": 8, "oracle_sample": 4,
             "cycle_m": (1,), "clique_k": (3,),
             "search_anchors": (0, 2), "search_quick": 2, "search_exhaust": 1,
             "cli_mixes": 1},
}

BIN_VOCAB = Vocabulary(gen.BIN_ARITIES)


# ---------------------------------------------------------------------------
# oracle: translations against the other formalism's extension
# ---------------------------------------------------------------------------

def _fu1_op(f, structures) -> Optional[str]:
    concept = translate.fu1_to_dl(f)
    for s in structures:
        if dl.concept_extension(s, concept) != semantics.satisfaction_set(s, f).elements:
            return "DL extension differs from the FO satisfaction set"
    return None


def _dlr_op(c, structures) -> Optional[str]:
    f = translate.dlr0_to_fu1(translate.eliminate_comp_union(c), BIN_VOCAB)
    if not fragments.check_fragment(f, FragmentId.FU1).verdict:
        return "translation is not an FU1 formula"
    for s in structures:
        if semantics.satisfaction_set(s, f).elements != dlr.dlr_concept_extension(s, c):
            return "FO satisfaction set differs from the DLR extension"
    return None


def build_oracle(rng: random.Random, scale: dict, workdir: Path) -> Workload:
    small = gen.all_structures(gen.BIN_ARITIES, 2)
    pool = [gen.random_structure(rng, gen.BIN_ARITIES, 3, rng.choice((0.3, 0.5, 0.7)))
            for _ in range(scale["oracle_pool"])]
    ops = []
    for i in range(scale["oracle_ops"]):
        depth = 1 + (i // 2) % 3  # depth 4 doubles the spread of op cost
        structures = small + rng.sample(pool, scale["oracle_sample"])
        if i % 2 == 0:
            f = gen.Fu1Gen(rng).formula(depth)
            ops.append(Op(lambda f=f, s=structures: _fu1_op(f, s)))
        else:
            c = gen.dlr_concept(rng, depth)
            ops.append(Op(lambda c=c, s=structures: _dlr_op(c, s)))
    return Workload(ops)


# ---------------------------------------------------------------------------
# lab-scaled: the separation families at 12 to 72 elements
# ---------------------------------------------------------------------------

TRIANGLE = "E x y z. (R(x,y) & R(y,z) & R(z,x))"


def _agree(pairs: dict, key, side: int, answer) -> Optional[str]:
    """Record one side's answer; on the second side, require agreement."""
    other = pairs.get((key, 1 - side))
    pairs[(key, side)] = answer
    if other is not None and other != answer:
        return "the pair disagrees on an agreement-corpus sentence"
    return None


def _corpus_op(wl: Workload, pair: str, side: int, index: int, f, s) -> Optional[str]:
    truth = semantics.evaluate(s, {}, f)
    if fragments.check_fragment(f, FragmentId.FU1).verdict:
        ext = dl.concept_extension(s, translate.fu1_to_dl(f))
        if ext != (frozenset(s.domain) if truth else frozenset()):
            return "DL answer differs from the FO answer"
    return _agree(wl.pairs, (pair, index), side, truth)


def _triangle_op(f, s, expected: bool) -> Optional[str]:
    if semantics.evaluate(s, {}, f) != expected:
        return "triangle sentence does not separate the cycle pair"
    return None


def _restriction_op(c, s, full: bool) -> Optional[str]:
    ext = dlr.dlr_concept_extension(s, c)
    if ext != (frozenset(s.domain) if full else frozenset()):
        return "number restriction does not separate the clique pair"
    return None


def build_lab(rng: random.Random, scale: dict, workdir: Path) -> Workload:
    corpus = lab.agreement_corpus()
    triangle = syntax.parse_formula(TRIANGLE)
    wl = Workload([])
    for m in scale["cycle_m"]:
        pair = f"cycles-{12 * m}"
        sides = (gen.cycles(4 * m, 3), gen.cycles(3 * m, 4))
        for side, (domain, edges) in enumerate(sides):
            s = gen.relabelled(rng, domain, edges)
            wl.ops.append(Op(lambda s=s, e=(side == 0): _triangle_op(triangle, s, e)))
            for i, f in enumerate(corpus):
                wl.ops.append(Op(lambda p=pair, d=side, i=i, f=f, s=s:
                                 _corpus_op(wl, p, d, i, f, s)))
    for k in scale["clique_k"]:
        pair = f"cliques-{k}"
        restriction = dlr.AtMost(k - 1, 2, dlr.AtomicRole("R"))
        sides = (gen.cliques(k + 1, k), gen.cliques(k, k + 1))
        for side, (domain, edges) in enumerate(sides):
            s = gen.relabelled(rng, domain, edges)
            wl.ops.append(Op(lambda s=s, full=(side == 0), c=restriction:
                             _restriction_op(c, s, full)))
            for i, f in enumerate(corpus):
                wl.ops.append(Op(lambda p=pair, d=side, i=i, f=f, s=s:
                                 _corpus_op(wl, p, d, i, f, s)))
    rng.shuffle(wl.ops)
    return wl


# ---------------------------------------------------------------------------
# search: bounded model search, pruned against unpruned
# ---------------------------------------------------------------------------

# (name, sentence, vocabulary, bound, expected: None | (found, model size))
ANCHORS = (
    ("infinity", "((A x. E y. S(x,y)) & (E x. A y. ~S(y,x)) & (A x. E[<=1] y. S(y,x)))",
     {"S": 2}, 5, (False, None)),
    ("relaxed", "((A x. E y. S(x,y)) & (E x. A y. ~S(y,x)))", {"S": 2}, 5, (True, 2)),
    ("three-distinct", "E x y z. (~(x = y) & ~(x = z) & ~(y = z))", {}, 2, (False, None)),
    ("three-distinct", "E x y z. (~(x = y) & ~(x = z) & ~(y = z))", {}, 3, (True, 3)),
)


def _search_op(wl: Workload, key, f, vocab, bound: int, prune: bool,
               expected, anchor: Optional[str]) -> Optional[str]:
    report = modelfind.find_model(f, vocab, bound, prune=prune)
    if anchor:
        wl.counters[f"{anchor}_nodes{'_pruned' if prune else ''}"] = report.nodes_examined
    if report.found:
        if report.model.size > bound or not semantics.evaluate_naive(report.model, {}, f):
            return "reported model does not satisfy the sentence"
    if expected is not None:
        found, size = expected
        if report.found != found or (found and report.model.size != size):
            return "search verdict differs from the known answer"
    partner = (key, not prune)
    wl.pairs[(key, prune)] = report.model
    if partner in wl.pairs and wl.pairs[partner] != report.model:
        return "pruned and unpruned searches disagree"
    return None


def build_search(rng: random.Random, scale: dict, workdir: Path) -> Workload:
    wl = Workload([])
    cases = []
    for j in scale["search_anchors"]:
        name, text, arities, bound, expected = ANCHORS[j]
        cases.append((syntax.parse_formula(text), Vocabulary(arities), bound, expected,
                      name if name == "infinity" else None))
    for _ in range(scale["search_quick"]):
        cases.append((gen.forall_exists(rng), BIN_VOCAB, 3, None, None))
    for i in range(scale["search_exhaust"]):
        cases.append((gen.contradiction_sentence(rng, column=i % 2 == 1), BIN_VOCAB, 3,
                      (False, None), None))
    for key, (f, vocab, bound, expected, anchor) in enumerate(cases):
        for prune in (False, True):
            wl.ops.append(Op(lambda k=key, f=f, v=vocab, b=bound, p=prune, e=expected, a=anchor:
                             _search_op(wl, k, f, v, b, p, e, a)))
    rng.shuffle(wl.ops)
    return wl


# ---------------------------------------------------------------------------
# cli: in-process requests with their exit-code contract
# ---------------------------------------------------------------------------

def _cli_op(argv: list[str], codes: frozenset, json_mode: bool) -> Optional[str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    if code not in codes:
        return f"exit {code}, expected one of {sorted(codes)}"
    text = out.getvalue()
    if json_mode and (code in (0, 1) or text):
        doc = json.loads(text)
        if not isinstance(doc, dict) or ("error" in doc) != (code >= 2):
            return "json output does not match the exit code"
    return None


def _write_structure(path: Path, s) -> None:
    doc = {"domain": list(s.domain), "arities": dict(s.vocabulary.symbols),
           "relations": {r: sorted(list(t) for t in ts) for r, ts in s.relations.items()}}
    path.write_text(json.dumps(doc))


# The six inputs that break the exit-code contract on the seed code: each
# raises out of cli.run instead of exiting 2.  The accepted codes admit the
# other contract-conforming outcomes (a successful deep parse, or a
# translation that is either printed or refused by name).
CLAUSES = " & ".join(f"(P{i}(y) | R(x,y))" for i in range(10))
DEFECTS = (
    (["translate", "--from", "dlr0", "--to", "fu1", "-e", "exists[$0] R"], {2}),
    (["translate", "--from", "dlr0", "--to", "fu1", "-e", "exists R|$0,$1 . A"], {2}),
    (["sat", "--max-size", "0", "-e", "E x. P(x)"], {2}),
    (["parse", "-e", "~" * 3000 + "P(x)"], {0, 2}),
    (["parse", "-e", "(" * 600 + "P(x)" + ")" * 600], {0, 2}),
    (["translate", "--from", "fu1", "--to", "dl", "-e", f"E y. ({CLAUSES})"], {0, 2, 3}),
)


def _cli_mix(rng: random.Random, workdir: Path, models: list, brute: list) -> list[tuple]:
    """One mix of 70 requests: (argv, accepted exit codes, json, defect).
    The accepted codes of an eval or sat request are a function that works
    them out by brute force, called after set-up."""
    vocab = str(workdir / "vocab.json")
    reqs: list[tuple] = []

    def add(argv, codes, json_mode=True, defect=False):
        reqs.append((argv + (["--format", "json"] if json_mode else []),
                     codes, json_mode, defect))

    def fu1(depth, pool=("x",), equality=True):
        return gen.formula_text(gen.Fu1Gen(rng, equality).formula(depth, pool))

    for i in range(14):
        add(["parse", "-e", fu1(rng.randint(1, 4))], {0}, json_mode=i % 4 != 0)
    for frag in ("fu1", "u1"):
        for _ in range(4):
            add(["check", "--fragment", frag, "-e", fu1(rng.randint(1, 4))], {0})
    counting = gen.formula_text(gen.Fu1Gen(rng).counting(rng.randint(1, 3)))
    add(["check", "--fragment", "uc1", "-e", counting], {0})
    add(["check", "--fragment", "u1", "-e", counting], {1})
    add(["check", "--fragment", "u1woeq", "-e", fu1(rng.randint(1, 4), equality=False)], {0})
    add(["check", "--fragment", "u1woeq", "-e", "E y. (R(x,y) & ~(x = y))"], {1})
    add(["check", "--fragment", "fo2", "-e",
         gen.formula_text(gen.fo2_formula(rng, rng.randint(1, 4)))], {0}, json_mode=False)
    add(["check", "--fragment", "fo2", "-e", "E y z. (R(x,y) & R(y,z) & R(z,x))"], {1})
    for _ in range(5):
        add(["translate", "--from", "fu1", "--to", "dl", "-e", fu1(rng.randint(1, 4))], {0})
    for _ in range(3):
        add(["translate", "--from", "dl", "--to", "fu1", "--vocab", vocab, "-e",
             gen.dl_concept_text(rng, rng.randint(1, 4))], {0})
    add(["translate", "--from", "dl", "--to", "fu1", "-e", "exists R.(P)"], {2})
    for _ in range(3):
        add(["translate", "--from", "dlr0", "--to", "fu1", "--vocab", vocab, "-e",
             gen.dlr_text(gen.dlr_concept(rng, rng.randint(1, 4)))], {0})
    add(["translate", "--from", "dlr0", "--to", "fu1", "--vocab", vocab, "-e",
         "exists R|$1,$2* . P"], {3})
    add(["translate", "--from", "dlr0", "--to", "fu1", "--vocab", vocab, "-e",
         "(<=1 [$2] R)"], {3})
    for i in range(8):
        index = rng.randrange(len(models))
        s = models[index]
        model = str(workdir / f"m{index}.json")
        if i % 2:
            f = gen.Fu1Gen(rng).formula(rng.randint(1, 3), ())
            add(["eval", "--model", model, "-e", gen.formula_text(f)],
                lambda s=s, f=f: {0 if semantics.evaluate_naive(s, {}, f) else 1})
        else:
            f = gen.Fu1Gen(rng).formula(rng.randint(1, 3))
            element = rng.choice(s.domain)
            add(["eval", "--model", model, "--assign", f"x={element}", "-e",
                 gen.formula_text(f)],
                lambda s=s, f=f, e=element: {0 if semantics.evaluate_naive(s, {"x": e}, f) else 1})
    for i in range(5):
        f = gen.forall_exists(rng)
        add(["sat", "--max-size", "2", "-e", gen.formula_text(f)]
            + (["--prune"] if i % 2 else []),
            lambda f=f: {0 if any(semantics.evaluate_naive(s, {}, f) for s in brute) else 1})
    add(["lab", "run"], {0})
    text = fu1(rng.randint(1, 4))
    add(["parse", "-e", text + ")"], {2})
    broken = text[:-1] if text.endswith(")") else text + " &"
    add(["check", "--fragment", "fu1", "-e", broken], {2})
    add(["parse", "-e", "(R(x,y) & R(x))"], {2})
    add(["translate", "--from", "dl", "--to", "fu1", "--vocab", vocab, "-e", "exists R.("], {2})
    add(["eval", "--model", str(workdir / "bad.json"), "-e", "E x. P(x)"], {2})
    add(["eval", "--model", str(workdir / "missing.json"), "-e", "E x. P(x)"], {2})
    add(["sat", "--max-size", "x", "-e", "E x. P(x)"], {2}, json_mode=False)
    add(["translate", "--from", "dl", "--to", "dl", "-e", "P"], {2})
    for argv, codes in DEFECTS:
        add(list(argv), codes, defect=True)
    rng.shuffle(reqs)
    return reqs


def build_cli(rng: random.Random, scale: dict, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "vocab.json").write_text(json.dumps(gen.BIN_ARITIES))
    (workdir / "bad.json").write_text('{"domain": ["a"], "arities": ')
    models = [gen.random_structure(rng, gen.BIN_ARITIES, rng.randint(2, 3), 0.4)
              for _ in range(8)]
    for i, s in enumerate(models):
        _write_structure(workdir / f"m{i}.json", s)
    brute = gen.all_structures(gen.BIN_ARITIES, 2)
    reqs = [r for _ in range(scale["cli_mixes"]) for r in _cli_mix(rng, workdir, models, brute)]
    expected: list[frozenset] = []

    def prepare() -> None:
        expected[:] = [frozenset(codes() if callable(codes) else codes)
                       for _, codes, _, _ in reqs]

    ops = [Op(lambda i=i, a=argv, j=json_mode: _cli_op(a, expected[i], j), defect)
           for i, (argv, _, json_mode, defect) in enumerate(reqs)]
    # whole mixes only, so that every run sees the defects at their share
    return Workload(ops, block=len(reqs) // scale["cli_mixes"], prepare=prepare)


WORKLOADS = {"oracle": build_oracle, "lab-scaled": build_lab,
            "search": build_search, "cli": build_cli}
