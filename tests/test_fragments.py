import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifrag import (Atom, Vocabulary, check_fo2, check_fragment, fragments,
                     free_variables, parse_formula)
from unifrag.fragments import FragmentId, ViolationKind
from unifrag.syntax import And, ExistsBlock, Not, walk

from strategies import gen_formula, rebuild, subformula_at

F = FragmentId

# formula text, fragment, expected verdict, expected violation kind (or None)
CLASSIFICATION_CASES = [
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


@pytest.mark.parametrize("text,frag,verdict,kind", CLASSIFICATION_CASES)
def test_reference_classification(text, frag, verdict, kind):
    diag = check_fragment(parse_formula(text), frag)
    assert diag.verdict == verdict
    assert diag.verdict == (not diag.violations)
    if kind is not None:
        assert kind in {v.kind.value for v in diag.violations}


def test_uniformity_message_names_the_sets():
    diag = check_fragment(parse_formula("E y z. (S(x,y) & S(y,z) & P(z))"), F.U1)
    messages = " ".join(v.message for v in diag.violations)
    assert "{x,y}" in messages or "{y,z}" in messages


def test_counting_only_in_uc1():
    f = parse_formula("A x. E[<=1] y. S(y,x)")
    assert check_fragment(f, F.UC1).verdict
    diag = check_fragment(f, F.U1)
    assert not diag.verdict
    assert {v.kind for v in diag.violations} == {ViolationKind.COUNTING_QUANTIFIER}


def test_equality_free_fragment_rejects_all_equality():
    f = parse_formula("E x y. (R(x,y) & x = y)")
    diag = check_fragment(f, F.U1_WO_EQ)
    assert {v.kind for v in diag.violations} == {ViolationKind.EQUALITY_PLACEMENT}
    assert check_fragment(f, F.FU1).verdict  # equality matches the atom set here


def test_self_equality_is_a_unary_leaf():
    f = parse_formula("(P(x) & x = x)")
    assert check_fragment(f, F.FU1).verdict
    assert check_fragment(f, F.U1).verdict
    assert not check_fragment(f, F.U1_WO_EQ).verdict


def test_higher_arity_atom_outside_block():
    diag = check_fragment(parse_formula("(R(x,y) & P(x))"), F.U1)
    assert not diag.verdict
    assert ViolationKind.UNIFORMITY in {v.kind for v in diag.violations}


def test_equality_only_blocks_in_fu1_need_one_set():
    # substitutable by a binary atom: fine
    assert check_fragment(parse_formula("E y. (x = y & P(y))"), F.FU1).verdict
    # three pairwise-different equality sets cannot come from one binary atom set
    diag = check_fragment(
        parse_formula("E x y z. (~(x = y) & ~(x = z) & ~(y = z))"), F.FU1)
    assert not diag.verdict
    assert ViolationKind.EQUALITY_PLACEMENT in {v.kind for v in diag.violations}
    # outside a block an equality between distinct variables is misplaced
    diag = check_fragment(parse_formula("x = y"), F.FU1)
    assert [(v.kind, v.path) for v in diag.violations] == [
        (ViolationKind.EQUALITY_PLACEMENT, ())]
    # once the atoms break uniformity, the equality adds no violation of its own
    diag = check_fragment(parse_formula("E x y z. ((R(x,y) & R(y,z)) & x = z)"), F.FU1)
    assert [(v.kind, v.path) for v in diag.violations] == [
        (ViolationKind.UNIFORMITY, (0, 0, 0)), (ViolationKind.UNIFORMITY, (0, 0, 1))]


def test_block_violation_comes_before_its_body():
    diag = check_fragment(parse_formula("E y. (R(y,z,x) & E w. (S(w,y) & S(w,x)))"), F.U1)
    assert [(v.kind, v.path) for v in diag.violations] == [
        (ViolationKind.ONE_DIMENSIONALITY, ()), (ViolationKind.ONE_DIMENSIONALITY, (0, 1)),
        (ViolationKind.UNIFORMITY, (0, 1, 0, 0)), (ViolationKind.UNIFORMITY, (0, 1, 0, 1))]


def test_arity_diagnostics_with_vocabulary():
    vocab = Vocabulary({"R": 3, "P": 1})
    diag = check_fragment(parse_formula("E x y. R(x,y)"), F.U1, vocab)
    assert ViolationKind.ARITY in {v.kind for v in diag.violations}
    diag2 = check_fragment(parse_formula("E x y. W(x,y)"), F.U1, vocab)
    assert ViolationKind.ARITY in {v.kind for v in diag2.violations}
    # arity violations come first, in pre-order, then the fragment's own
    diag3 = check_fragment(parse_formula(
        "(E x y z. (R(x,y) & R(y,z)) | E y. (W(y) & R(x,y,y)))"),
        F.U1, Vocabulary({"R": 2, "P": 1}))
    assert [(v.kind, v.path) for v in diag3.violations] == [
        (ViolationKind.ARITY, (1, 0, 0)), (ViolationKind.ARITY, (1, 0, 1)),
        (ViolationKind.UNIFORMITY, (0, 0, 0)), (ViolationKind.UNIFORMITY, (0, 0, 1))]
    # an ARITY fault under a counting quantifier, in a block that is not
    # uniform: both ARITY faults still come first, in pre-order
    f = parse_formula("E x y z. ((R(x,y) & R(y,z,z)) & E[>=2] w. R(w,x,x))")
    arity = [(ViolationKind.ARITY, (0, 0, 1)), (ViolationKind.ARITY, (0, 1, 0))]
    diag4 = check_fragment(f, F.UC1, Vocabulary({"R": 2, "P": 1}))
    assert [(v.kind, v.path) for v in diag4.violations] == arity + [
        (ViolationKind.UNIFORMITY, (0, 0, 0)), (ViolationKind.UNIFORMITY, (0, 0, 1))]
    diag5 = check_fragment(f, F.FO2, Vocabulary({"R": 2, "P": 1}))
    assert [(v.kind, v.path) for v in diag5.violations] == arity + [
        (ViolationKind.VARIABLE_COUNT, ()), (ViolationKind.VARIABLE_COUNT, ()),
        (ViolationKind.COUNTING_QUANTIFIER, (0, 1))]


def test_a_check_with_a_vocabulary_walks_the_formula_once(monkeypatch):
    # FO2's scan asks for the children of each node once; the U1 family's
    # walk follows the grammar and asks for none
    f = parse_formula("A x. (P(x) -> E y z. ((R(x,y,z) & ~(y = z)) & E[>=2] w. S(w,x)))")
    nodes = Counter(map(id, walk(f)))
    asked = Counter()
    children = fragments.children

    def counted_children(g):
        asked[id(g)] += 1
        return children(g)

    monkeypatch.setattr(fragments, "children", counted_children)
    for frag in F:
        asked.clear()
        monkeypatch.setattr(fragments, "_cache", [None] * 5 + [{}])
        diag = check_fragment(f, frag, Vocabulary({"R": 2, "P": 1}))
        assert ViolationKind.ARITY in {v.kind for v in diag.violations}
        assert asked == (nodes if frag is F.FO2 else Counter()), frag


def test_fo2_examples():
    assert check_fo2(parse_formula("A x. E y. S(x,y)")).verdict
    assert not check_fo2(
        parse_formula("E x y z. (~(x = y) & ~(x = z) & ~(y = z))")).verdict
    diag = check_fo2(parse_formula("E[>=2] y. S(x,y)"))
    assert not diag.verdict
    assert ViolationKind.COUNTING_QUANTIFIER in {v.kind for v in diag.violations}


def test_fo2_reports_arity_with_vocabulary():
    diag = check_fo2(parse_formula("A x. E y. S(x,y)"), Vocabulary({"S": 3}))
    assert [(v.kind, v.path, v.message) for v in diag.violations] == [
        (ViolationKind.ARITY, (0, 0), "relation 'S' has arity 3, got 2 arguments")]


def test_fo2_multi_variable_block():
    diag = check_fo2(parse_formula("E x y. S(x,y)"))
    assert not diag.verdict
    assert ViolationKind.VARIABLE_COUNT in {v.kind for v in diag.violations}
    diag2 = check_fo2(parse_formula("(E x y. S(x,y) & A z. E[>=2] y. S(z,y))"))
    assert [(v.kind, v.path) for v in diag2.violations] == [
        (ViolationKind.VARIABLE_COUNT, (0,)), (ViolationKind.VARIABLE_COUNT, (1,)),
        (ViolationKind.COUNTING_QUANTIFIER, (1, 0))]


def test_check_fragment_dispatches_fo2():
    assert check_fragment(parse_formula("A x. E y. S(x,y)"), F.FO2).verdict


def test_one_formula_object_checked_many_ways():
    # each call's own fragment and vocabulary decide, whatever the last
    # call on the same object kept
    text = "E y z. (R(y,z,x) & ~(x = y) & E z. S(y,z))"
    vocab = Vocabulary({"R": 2, "S": 2})
    calls = [(F.FU1,), (F.U1,), (F.UC1, vocab), (F.FO2,), (F.UC1,), (F.U1, vocab)]
    expected = [check_fragment(parse_formula(text), *call) for call in calls]
    assert [d.verdict for d in expected] == [False, True, False, False, True, False]
    assert [ViolationKind.ARITY in {v.kind for v in d.violations} for d in expected] == [
        False, False, True, False, False, True]
    f = parse_formula(text)
    for _ in range(3):
        for call, diag in zip(calls, expected):
            for _ in range(2):
                assert check_fragment(f, *call) == diag


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=150)
@given(st.integers(0, 10**9))
def test_generator_soundness(seed):
    rng = random.Random(seed)
    frag = rng.choice([F.U1_WO_EQ, F.FU1, F.U1, F.UC1])
    f = gen_formula(rng, frag, depth=3)
    diag = check_fragment(f, frag)
    assert diag.verdict, (frag, f, diag.violations)


@settings(max_examples=150)
@given(st.integers(0, 10**9))
def test_fragment_monotonicity_chain(seed):
    rng = random.Random(seed)
    frag = rng.choice([F.U1_WO_EQ, F.FU1, F.U1, F.UC1])
    f = gen_formula(rng, frag, depth=3)
    chain = [F.U1_WO_EQ, F.FU1, F.U1, F.UC1]
    verdicts = [check_fragment(f, g).verdict for g in chain]
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert not earlier or later, (f, verdicts)


def _uniform_block_case(rng):
    """A U1 block with several atoms over a shared two-variable set, plus
    the data needed to mutate one of them."""
    vars = ("a", "b", "c")
    x = ("a", "b")
    atoms = []
    for _ in range(rng.randint(2, 4)):
        args = [rng.choice(x), "a", "b"]
        rng.shuffle(args)
        atoms.append(Atom("T", tuple(args)))
    body = atoms[0]
    for atom in atoms[1:]:
        body = And(body, atom)
    return ExistsBlock(vars, body), len(atoms)


def _atom_paths(f, path=()):
    if isinstance(f, Atom) and len(set(f.args)) >= 2:
        yield path
    if isinstance(f, Not):
        yield from _atom_paths(f.body, path + (0,))
    elif isinstance(f, And):
        yield from _atom_paths(f.left, path + (0,))
        yield from _atom_paths(f.right, path + (1,))
    elif isinstance(f, ExistsBlock):
        yield from _atom_paths(f.body, path + (0,))


@settings(max_examples=150)
@given(st.integers(0, 10**9))
def test_mutation_completeness(seed):
    rng = random.Random(seed)
    f, _ = _uniform_block_case(rng)
    assert check_fragment(f, F.U1).verdict
    paths = list(_atom_paths(f))
    target = rng.choice(paths)
    old = subformula_at(f, target)
    new_set = rng.choice((("a", "c"), ("b", "c")))
    args = [rng.choice(new_set), new_set[0], new_set[1]]
    rng.shuffle(args)
    mutated = rebuild(f, target, Atom(old.rel, tuple(args)))
    diag = check_fragment(mutated, F.U1)
    assert not diag.verdict
    hits = [v for v in diag.violations
            if v.kind is ViolationKind.UNIFORMITY and v.path == target]
    assert hits, (mutated, target, diag.violations)


@settings(max_examples=150)
@given(st.integers(0, 10**9))
def test_fo2_without_equality_implies_fu1(seed):
    # syntactic containment, for formulas with at most one free variable
    rng = random.Random(seed)

    def two_var(depth, pool):
        from unifrag.syntax import (And, Bottom, ExistsBlock, ForallBlock,
                                    Implies, Not, Or, Top)
        if depth <= 0 or rng.random() < 0.3:
            if pool and rng.random() < 0.8:
                if rng.random() < 0.5 and len(pool) == 2:
                    return Atom("S", (rng.choice(pool), rng.choice(pool)))
                return Atom("P", (rng.choice(pool),))
            return Top() if rng.random() < 0.5 else Bottom()
        kind = rng.choice(["not", "and", "or", "implies", "q"])
        if kind == "not":
            return Not(two_var(depth - 1, pool))
        if kind in ("and", "or", "implies"):
            ctor = {"and": And, "or": Or, "implies": Implies}[kind]
            return ctor(two_var(depth - 1, pool), two_var(depth - 1, pool))
        var = rng.choice(("x", "y"))
        ctor = rng.choice((ExistsBlock, ForallBlock))
        inner_pool = tuple(dict.fromkeys(pool + (var,)))
        return ctor((var,), two_var(depth - 1, inner_pool))

    f = two_var(4, (rng.choice(("x", "y")),))
    if len(free_variables(f)) > 1:
        return
    assert check_fo2(f).verdict
    assert check_fragment(f, F.FU1).verdict, f
