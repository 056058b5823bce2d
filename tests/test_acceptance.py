"""Acceptance suite.

One test per criterion; each prints a single PASS line (visible with
pytest -s or in captured output) and enforces its stated budget.  Random
cases are seeded, so the suite is deterministic.
"""

import itertools
import random
import time

from unifrag import (dl, dlr, disjoint_union, evaluate, make_structure,
                     parse_formula, print_formula, satisfaction_set)
from unifrag.fragments import FragmentId, check_fragment
from unifrag.lab import run_experiments
from unifrag.modelfind import find_model
from unifrag.syntax import Vocabulary, parse_formula as parse
from unifrag.translate import dlr0_to_fu1, eliminate_comp_union, fu1_to_dl

from strategies import (DLR_VOCAB, VOCAB, alpha_rename_once, dlr_role_arity,
                        enum_structures, gen_any_formula, gen_dlr_concept, gen_formula,
                        gen_structure, tag_elements)

F = FragmentId


def _report(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


# -- 1 ---------------------------------------------------------------------

def test_criterion_1_fragment_classification_suite():
    started = time.perf_counter()
    cases = [
        ("E y z. ((~R(x,y,z) | T(z,y,x,x)) & P(z))", F.U1_WO_EQ, True, None),
        ("E y z. (S(x,y) & S(y,z) & P(z))", F.U1, False, "UNIFORMITY"),
        ("E y. R(x,y,z)", F.U1, False, "ONE_DIMENSIONALITY"),
        ("E x z y. R(x,y,z)", F.U1, True, None),
        ("A x. E z y. (R(x,y,z) & E u. ~U(y,u))", F.U1, True, None),
        ("A x z. E y. R(x,y,z)", F.U1, False, "ONE_DIMENSIONALITY"),
        ("E y z. (R(y,z,x) & ~(x = y) & E z. S(y,z))", F.U1, True, None),
        ("E y z. (R(y,z,x) & ~(x = y) & E z. S(y,z))", F.FU1, False, "EQUALITY_PLACEMENT"),
        ("E x y z. (~(x = y) & ~(x = z) & ~(y = z))", F.U1, True, None),
        ("E x. A y z. (R(y,z) -> (x = y | x = z))", F.U1, True, None),
    ]
    for text, frag, verdict, kind in cases:
        diag = check_fragment(parse(text), frag)
        assert diag.verdict == verdict, (text, frag)
        if kind is not None:
            assert kind in {v.kind.value for v in diag.violations}, (text, frag)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"{len(cases)} classifications exact in {elapsed:.3f}s (< 1s)")


# -- 2 ---------------------------------------------------------------------

# exhaustive enumeration up to size 3 is feasible only for symbol pairs
# without the ternary symbol (2^27 interpretations per size-3 ternary
# relation); ternary pairs are covered separately below
FEASIBLE_PAIRS = [{"R": 2, "P": 1}, {"R": 2, "Q": 1}, {"P": 1, "Q": 1}]
TERNARY_PAIRS = [{"T": 3, "P": 1}, {"T": 3, "Q": 1}]


def test_criterion_2_translation_oracle_to_concepts():
    started = time.perf_counter()
    rng = random.Random(20_200)
    checked = 0
    for case in range(200):
        arities = FEASIBLE_PAIRS[case % len(FEASIBLE_PAIRS)]
        vocab = Vocabulary(arities)
        f = gen_formula(rng, F.FU1, depth=rng.randint(0, 4), vocab=vocab)
        concept = fu1_to_dl(f)
        for s in enum_structures(arities, 3):
            assert dl.concept_extension(s, concept) == satisfaction_set(s, f).elements, \
                (print_formula(f), dl.print_concept(concept))
            checked += 1
    # ternary coverage: exhaustive at size <= 2, sampled at size 3
    for case in range(40):
        arities = TERNARY_PAIRS[case % len(TERNARY_PAIRS)]
        vocab = Vocabulary(arities)
        f = gen_formula(rng, F.FU1, depth=rng.randint(0, 4), vocab=vocab)
        concept = fu1_to_dl(f)
        structures = list(enum_structures(arities, 2))
        structures += [gen_structure(rng, vocab, max_size=3) for _ in range(120)]
        for s in structures:
            assert dl.concept_extension(s, concept) == satisfaction_set(s, f).elements, \
                (print_formula(f), dl.print_concept(concept))
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report(2, f"240 formulas, {checked} oracle checks, 0 mismatches, "
               f"{elapsed:.1f}s (< 600s)")


# -- 3 ---------------------------------------------------------------------

DLR_FEASIBLE = [{"R": 2, "A": 1}, {"R": 2, "B": 1}, {"A": 1, "B": 1}]
DLR_TERNARY = [{"T": 3, "A": 1}, {"T": 3, "B": 1}]


def test_criterion_3_translation_oracle_from_dlr_core():
    started = time.perf_counter()
    rng = random.Random(30_300)
    checked = 0
    for case in range(200):
        arities = DLR_FEASIBLE[case % len(DLR_FEASIBLE)]
        vocab = Vocabulary(arities)
        c = gen_dlr_concept(rng, rng.randint(0, 4), vocab=vocab, core_only=True)
        simplified = eliminate_comp_union(c)
        f = dlr0_to_fu1(simplified, vocab)
        assert check_fragment(f, F.FU1).verdict, dlr.print_dlr_concept(c)
        for s in enum_structures(arities, 3):
            assert satisfaction_set(s, f).elements == dlr.dlr_concept_extension(s, c), \
                (dlr.print_dlr_concept(c), print_formula(f))
            checked += 1
    for case in range(40):
        arities = DLR_TERNARY[case % len(DLR_TERNARY)]
        vocab = Vocabulary(arities)
        c = gen_dlr_concept(rng, rng.randint(0, 4), vocab=vocab, core_only=True)
        f = dlr0_to_fu1(eliminate_comp_union(c), vocab)
        assert check_fragment(f, F.FU1).verdict, dlr.print_dlr_concept(c)
        structures = list(enum_structures(arities, 2))
        structures += [gen_structure(rng, vocab, max_size=3) for _ in range(120)]
        for s in structures:
            assert satisfaction_set(s, f).elements == dlr.dlr_concept_extension(s, c), \
                (dlr.print_dlr_concept(c), print_formula(f))
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report(3, f"240 concepts, {checked} oracle checks, FU1-legal outputs, "
               f"0 mismatches, {elapsed:.1f}s")


# -- 4 ---------------------------------------------------------------------

def test_criterion_4_separation_experiments():
    started = time.perf_counter()
    results = run_experiments()
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(4, f"{len(results)} experiments "
               f"({sum(len(r.probes) for r in results)} probes) in {elapsed:.2f}s (< 5s)")


# -- 5 ---------------------------------------------------------------------

def test_criterion_5_at_most_zero_equivalence():
    rng = random.Random(50_500)
    for i in range(100):
        s = gen_structure(rng, DLR_VOCAB, max_size=4)
        role = dlr.AtomicRole(rng.choice(("R", "T")))
        idx = rng.randint(1, dlr_role_arity(role, DLR_VOCAB))
        lhs = dlr.dlr_concept_extension(s, dlr.AtMost(0, idx, role))
        rhs = dlr.dlr_concept_extension(s, dlr.NotC(dlr.ExistsProj(idx, role)))
        assert lhs == rhs
    _report(5, "at-most-zero equals negated position existential on 100 structures")


# -- 6 ---------------------------------------------------------------------

def test_criterion_6_infinite_model_witness():
    started = time.perf_counter()
    vocab = Vocabulary({"S": 2})
    full = parse_formula(
        "((A x. E y. S(x,y)) & (E x. A y. ~S(y,x)) & (A x. E[<=1] y. S(y,x)))")
    report = find_model(full, vocab, 6)
    assert not report.found, "found a finite model of an infinity axiom"

    relaxed = parse_formula("((A x. E y. S(x,y)) & (E x. A y. ~S(y,x)))")
    found = find_model(relaxed, vocab, 6)
    assert found.found and found.model.size <= 2
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(6, f"no model up to size 6 ({report.nodes_examined} nodes); "
               f"relaxed variant at size {found.model.size}; {elapsed:.1f}s (< 120s)")


# -- 7 ---------------------------------------------------------------------

def test_criterion_7_minimal_model_counting():
    three = parse_formula("E x y z. (~(x = y) & ~(x = z) & ~(y = z))")
    vocab = Vocabulary({})
    assert not find_model(three, vocab, 2).found
    report = find_model(three, vocab, 3)
    assert report.found and report.model.size == 3
    _report(7, "three-pairwise-distinct: no model up to 2, model exactly at 3")


# -- 8 ---------------------------------------------------------------------

EXPLICIT_VOCAB = Vocabulary({"R": 2, "T": 3, "A": 1, "B": 1, "top2": 2, "top3": 3})


def _with_delta_tops(rng):
    base = gen_structure(rng, DLR_VOCAB, max_size=3)
    rels = {name: set(t) for name, t in base.relations.items()}
    rels["top2"] = set(itertools.product(base.domain, repeat=2))
    rels["top3"] = set(itertools.product(base.domain, repeat=3))
    return make_structure(base.domain, dict(EXPLICIT_VOCAB.symbols), rels)


def test_criterion_8_disjoint_copy_closure():
    # the built-in tops of the base structure are its full domain powers;
    # the double inherits the two tagged copies of those tops, which is
    # what "two disjoint copies of an interpretation" means
    rng = random.Random(80_800)
    for i in range(100):
        s = _with_delta_tops(rng)
        double = disjoint_union(s, s)
        c = gen_dlr_concept(rng, rng.randint(1, 3), vocab=EXPLICIT_VOCAB,
                            core_only=True)
        single = dlr.dlr_concept_extension(s, c, topn="explicit")
        expected = tag_elements(single, 1) | tag_elements(single, 2)
        actual = dlr.dlr_concept_extension(double, c, topn="explicit")
        assert actual == expected, dlr.print_dlr_concept(c)

    # and the free-negation concept from experiment (3) violates closure
    loop = make_structure(["u"], {"R": 2, "A": 1},
                          {"R": {("u", "u")}, "A": {("u",)}})
    witness = dl.NotC(dl.ExistsRole(dl.NotRole(dl.AtomicRole("R")),
                                    (dl.AtomicConcept("A"),)))
    assert dl.concept_extension(loop, witness) == {"u"}
    assert dl.concept_extension(disjoint_union(loop, loop), witness) == frozenset()
    _report(8, "100 star-free counting-free concepts closed under disjoint "
               "copies; free-negation witness is not")


# -- 9 ---------------------------------------------------------------------

def test_criterion_9_property_suites():
    rng = random.Random(90_900)

    # AST round-trip
    for i in range(500):
        if i % 2:
            f = gen_any_formula(rng, depth=4, pool=("x",))
        else:
            frag = rng.choice([F.U1_WO_EQ, F.FU1, F.U1, F.UC1])
            f = gen_formula(rng, frag, depth=3)
        assert parse_formula(print_formula(f)) == f

    # evaluation duality, alpha invariance, isomorphism invariance
    from unifrag.syntax import ExistsBlock, ForallBlock, Not
    for i in range(500):
        s = gen_structure(rng, VOCAB, max_size=3)
        a = {"x": rng.choice(s.domain)}
        vars = tuple(dict.fromkeys(f"w{rng.randint(1, 4)}" for _ in range(2)))
        body = gen_any_formula(rng, depth=2, pool=("x",) + vars)
        assert (evaluate(s, a, Not(ExistsBlock(vars, body)))
                == evaluate(s, a, ForallBlock(vars, Not(body))))

        f = gen_any_formula(rng, depth=3, pool=("x",))
        assert evaluate(s, a, alpha_rename_once(f, rng)) == evaluate(s, a, f)

        image = list(s.domain)
        rng.shuffle(image)
        iso = dict(zip(s.domain, image))
        s2 = make_structure([iso[d] for d in s.domain], dict(s.vocabulary.symbols),
                            {n: {tuple(iso[c] for c in t) for t in ts}
                             for n, ts in s.relations.items()})
        assert evaluate(s2, {k: iso[v] for k, v in a.items()}, f) == evaluate(s, a, f)

    # fragment monotonicity chain
    chain = [F.U1_WO_EQ, F.FU1, F.U1, F.UC1]
    for i in range(500):
        frag = rng.choice(chain)
        f = gen_formula(rng, frag, depth=3)
        verdicts = [check_fragment(f, g).verdict for g in chain]
        assert verdicts[chain.index(frag)]
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert not earlier or later

    # closure idempotence
    from strategies import gen_dlr_binrel
    for i in range(500):
        s = gen_structure(rng, DLR_VOCAB, max_size=4)
        e = gen_dlr_binrel(rng, rng.randint(0, 2))
        once = dlr.dlr_binrel_extension(s, dlr.Star(e))
        assert dlr.dlr_binrel_extension(s, dlr.Star(dlr.Star(e))) == once

    # number restriction monotonicity
    for i in range(500):
        s = gen_structure(rng, DLR_VOCAB, max_size=4)
        role = dlr.AtomicRole(rng.choice(("R", "T")))
        idx = rng.randint(1, dlr_role_arity(role, DLR_VOCAB))
        k = rng.randint(0, 3)
        k2 = k + rng.randint(0, 3)
        assert (dlr.dlr_concept_extension(s, dlr.AtMost(k, idx, role))
                <= dlr.dlr_concept_extension(s, dlr.AtMost(k2, idx, role)))

    _report(9, "round-trip, duality, alpha, isomorphism, monotonicity chain, "
               "closure idempotence, restriction monotonicity: 500 cases each, 0 failures")
