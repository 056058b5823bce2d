import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifrag import (EvalError, disjoint_union, evaluate, evaluate_naive,
                     make_structure, parse_formula, satisfaction_set)
from unifrag.lab import disjoint_copies, gen_clique, gen_directed_cycle
from unifrag.syntax import (And, Atom, Bottom, CountExists, Equals,
                            ExistsBlock, ForallBlock, Implies, Not, Or, Top)

from strategies import (VOCAB, alpha_rename_once, gen_any_formula,
                        gen_structure)


# ---------------------------------------------------------------------------
# An independent brute-force oracle (kept deliberately separate from the
# package's evaluators: plain recursion over full assignment enumeration)
# ---------------------------------------------------------------------------

def oracle_eval(s, a, f):
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        return tuple(a[v] for v in f.args) in s.relations[f.rel]
    if isinstance(f, Equals):
        return a[f.left] == a[f.right]
    if isinstance(f, Not):
        return not oracle_eval(s, a, f.body)
    if isinstance(f, And):
        return oracle_eval(s, a, f.left) and oracle_eval(s, a, f.right)
    if isinstance(f, Or):
        return oracle_eval(s, a, f.left) or oracle_eval(s, a, f.right)
    if isinstance(f, Implies):
        return (not oracle_eval(s, a, f.left)) or oracle_eval(s, a, f.right)
    if isinstance(f, ExistsBlock):
        return any(oracle_eval(s, {**a, **dict(zip(f.vars, tup))}, f.body)
                   for tup in itertools.product(s.domain, repeat=len(f.vars)))
    if isinstance(f, ForallBlock):
        return all(oracle_eval(s, {**a, **dict(zip(f.vars, tup))}, f.body)
                   for tup in itertools.product(s.domain, repeat=len(f.vars)))
    if isinstance(f, CountExists):
        n = sum(oracle_eval(s, {**a, f.var: d}, f.body) for d in s.domain)
        return {">=": n >= f.bound, "<=": n <= f.bound, "=": n == f.bound}[f.cmp]
    raise TypeError(f)


EDGE_COVER = parse_formula("E x. A y z. (R(y,z) -> (x = y | x = z))")
TRIANGLE = parse_formula("E x y z. (R(x,y) & R(y,z) & R(z,x))")
SOME_NON_EDGE = parse_formula("E x y. ~R(x,y)")


def test_edge_cover_on_cliques():
    assert evaluate(gen_clique(2), {}, EDGE_COVER) is True
    assert evaluate(gen_clique(3), {}, EDGE_COVER) is False
    assert oracle_eval(gen_clique(2), {}, EDGE_COVER) is True
    assert oracle_eval(gen_clique(3), {}, EDGE_COVER) is False


def test_triangle_on_cycle_unions():
    a = disjoint_copies(gen_directed_cycle(3), 4)
    b = disjoint_copies(gen_directed_cycle(4), 3)
    assert evaluate(a, {}, TRIANGLE) is True
    assert evaluate(b, {}, TRIANGLE) is False


def test_some_non_edge_on_loops():
    loop = make_structure(["a"], {"R": 2}, {"R": {("a", "a")}})
    assert evaluate(loop, {}, SOME_NON_EDGE) is False
    assert evaluate(disjoint_union(loop, loop), {}, SOME_NON_EDGE) is True


def test_top_is_always_true():
    s = gen_structure(random.Random(0), VOCAB, max_size=3)
    assert evaluate(s, {}, Top()) is True


def test_counting_in_degree_example():
    s = make_structure(["a", "b", "c"], {"S": 2}, {"S": {("a", "c"), ("b", "c")}})
    f = CountExists("<=", 1, "y", Atom("S", ("y", "x")))
    assert evaluate(s, {"x": "c"}, f) is False
    assert evaluate(s, {"x": "a"}, f) is True


def test_unbound_variable_raises():
    s = make_structure(["a"], {"P": 1})
    with pytest.raises(EvalError, match="unbound"):
        evaluate(s, {}, Atom("P", ("x",)))


def test_assignment_value_must_be_in_domain():
    s = make_structure(["a"], {"P": 1})
    with pytest.raises(EvalError, match="not a domain element"):
        evaluate(s, {"x": "zz"}, Atom("P", ("x",)))


def test_vocabulary_mismatch_raises():
    from unifrag import VocabularyError
    s = make_structure(["a"], {"P": 1})
    with pytest.raises(VocabularyError):
        evaluate(s, {}, parse_formula("E x. W(x)"))


def test_satisfaction_set_examples():
    k2 = gen_clique(2)
    body = parse_formula("A y z. (R(y,z) -> (x = y | x = z))")
    assert satisfaction_set(k2, body).elements == frozenset(k2.domain)
    assert satisfaction_set(k2, Bottom()).elements == frozenset()
    loop = make_structure(["a"], {"R": 2}, {"R": {("a", "a")}})
    f = parse_formula("~E y. ~R(x,y)")
    assert satisfaction_set(loop, f).elements == {"a"}


def test_satisfaction_set_rejects_two_free_variables():
    s = gen_clique(2)
    with pytest.raises(EvalError):
        satisfaction_set(s, parse_formula("R(x,y)"))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def _case(seed, max_size=3):
    rng = random.Random(seed)
    s = gen_structure(rng, VOCAB, max_size=max_size)
    f = gen_any_formula(rng, depth=3, pool=("x",))
    a = {"x": rng.choice(s.domain)}
    return rng, s, f, a


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_oracle_and_naive_agreement(seed):
    _, s, f, a = _case(seed)
    expected = oracle_eval(s, a, f)
    assert evaluate(s, a, f) == expected
    assert evaluate_naive(s, a, f) == expected
    assert satisfaction_set(s, f).elements == {d for d in s.domain
                                               if oracle_eval(s, {"x": d}, f)}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_quantifier_duality(seed):
    rng, s, f, a = _case(seed)
    vars = tuple(dict.fromkeys(f"w{rng.randint(1, 4)}" for _ in range(2)))
    body = gen_any_formula(rng, depth=2, pool=("x",) + vars)
    lhs = Not(ExistsBlock(vars, body))
    rhs = ForallBlock(vars, Not(body))
    assert evaluate(s, a, lhs) == evaluate(s, a, rhs)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_alpha_invariance(seed):
    rng, s, f, a = _case(seed)
    g = alpha_rename_once(f, rng)
    assert evaluate(s, a, f) == evaluate(s, a, g)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_isomorphism_invariance(seed):
    rng, s, f, a = _case(seed)
    image = list(s.domain)
    rng.shuffle(image)
    iso = dict(zip(s.domain, image))
    s2 = make_structure(
        [iso[d] for d in s.domain], dict(s.vocabulary.symbols),
        {name: {tuple(iso[c] for c in t) for t in tuples}
         for name, tuples in s.relations.items()})
    a2 = {v: iso[d] for v, d in a.items()}
    assert evaluate(s, a, f) == evaluate(s2, a2, f)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_counting_consistency(seed):
    rng, s, f, a = _case(seed)
    var = f"w{rng.randint(1, 4)}"
    body = gen_any_formula(rng, depth=2, pool=("x", var))
    k = rng.randint(0, 3)
    assert (evaluate(s, a, CountExists(">=", 1, var, body))
            == evaluate(s, a, ExistsBlock((var,), body)))
    eq = evaluate(s, a, CountExists("=", k, var, body))
    both = (evaluate(s, a, CountExists(">=", k, var, body))
            and evaluate(s, a, CountExists("<=", k, var, body)))
    assert eq == both


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_triangle_locality_over_disjoint_unions(seed):
    rng = random.Random(seed)
    vocab = {"R": 2}
    from unifrag import Vocabulary
    s1 = gen_structure(rng, Vocabulary(vocab), max_size=3)
    s2 = gen_structure(rng, Vocabulary(vocab), max_size=3)
    u = disjoint_union(s1, s2)
    lhs = evaluate(u, {}, TRIANGLE)
    rhs = evaluate(s1, {}, TRIANGLE) or evaluate(s2, {}, TRIANGLE)
    assert lhs == rhs
