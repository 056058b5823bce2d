import gc
import itertools
import json
import random
import sys
import threading
import time
import types
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifrag import (EvalError, Vocabulary, check_fragment, disjoint_union, dl, dlr,
                     dump_structure, evaluate, evaluate_naive, fragments, make_structure,
                     parse_formula, print_formula, satisfaction_set, semantics,
                     structure_to_doc)
from unifrag.fragments import FragmentId
from unifrag.lab import disjoint_copies, gen_clique, gen_directed_cycle
from unifrag.modelfind import Circuit, grounder
from unifrag.semantics import block_parts
from unifrag.syntax import (MAX_COMPILED, And, Atom, Bottom, CountExists, Equals,
                            ExistsBlock, ForallBlock, Implies, Not, Or, Top,
                            free_variables, walk)

from strategies import (VOCAB, alpha_rename_once, enum_structures,
                        gen_any_formula, gen_structure)


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
# The prepared-formula cache: reuse must never skip a check or share state
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    """What a call answers, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)


def _naive_set(s, f):
    """``satisfaction_set`` of a formula free in at most ``x``, from the
    reference evaluator (validation errors are those of ``evaluate_naive``)."""
    answers = [_outcome(evaluate_naive, s, {"x": d}, f) for d in s.domain]
    errors = [r for r in answers if not isinstance(r, bool)]
    if errors:
        return errors[0]
    return frozenset(d for d, r in zip(s.domain, answers) if r)


def _set_outcome(s, f):
    r = _outcome(satisfaction_set, s, f)
    return r if isinstance(r, tuple) else r.elements


def test_one_formula_over_differing_vocabularies():
    f = parse_formula("E y. (R(x,y) & Q(y))")
    structures = [
        make_structure(["a", "b"], {"R": 2, "Q": 1}, {"R": {("a", "b")}, "Q": {("b",)}}),
        make_structure(["a", "b"], {"R": 2}, {"R": {("a", "b")}}),          # lacks Q
        make_structure(["a", "b"], {"R": 3, "Q": 1}, {"Q": {("b",)}}),     # R is ternary
    ]
    for order in itertools.permutations(structures):
        for s in order:
            for _ in range(2):  # a repeated call may be served from the cache
                assert (_outcome(evaluate, s, {"x": "a"}, f)
                        == _outcome(evaluate_naive, s, {"x": "a"}, f))
                assert _set_outcome(s, f) == _naive_set(s, f)


def test_satisfaction_set_free_variable_error_comes_first():
    s = make_structure(["a"], {"R": 2})
    message = r"at most one free variable, got \['x', 'y'\]"
    with pytest.raises(EvalError, match=message):
        satisfaction_set(s, parse_formula("(R(x,y) & W(x))"))
    g = parse_formula("R(x,y)")
    assert evaluate(s, {"x": "a", "y": "a"}, g) is False  # caches g
    with pytest.raises(EvalError, match=message):
        satisfaction_set(s, g)


def test_assignment_checks_survive_a_cache_hit():
    s = make_structure(["a"], {"P": 1}, {"P": {("a",)}})
    f = parse_formula("P(x)")
    assert evaluate(s, {"x": "a"}, f) is True
    assert evaluate(s, {"x": "a"}, f) is True
    with pytest.raises(EvalError, match="not a domain element"):
        evaluate(s, {"x": "zz"}, f)
    with pytest.raises(EvalError, match="unbound"):
        evaluate(s, {}, f)
    with pytest.raises(EvalError, match="unbound"):
        evaluate(s, {"y": "a"}, f)


def test_evaluate_never_writes_the_callers_assignment():
    s = make_structure(["a", "b", "c"], {"R": 2}, {"R": {("a", "b"), ("b", "a"), ("b", "c")}})
    for text in ("E y. (R(x,y) & E x. R(y,x))",       # the inner block rebinds x
                 "E[=2] y. (R(x,y) | R(y,x))"):
        f = parse_formula(text)
        for d in s.domain:
            expected = evaluate_naive(s, {"x": d}, f)
            assert evaluate(s, types.MappingProxyType({"x": d}), f) is expected
            a = {"x": d}
            assert evaluate(s, a, f) is expected
            assert a == {"x": d}


def test_no_structure_outlives_its_call():
    f = parse_formula("E y. R(x,y)")
    calls = (lambda s: evaluate(s, {"x": "a"}, f),
             lambda s: satisfaction_set(s, f),
             lambda s: _outcome(evaluate, s, {"x": "zz"}, f))
    for call in calls:
        s = make_structure(["a", "b"], {"R": 2}, {"R": {("a", "b")}})
        refs = [weakref.ref(s), weakref.ref(s.relations["R"])]
        call(s)
        del s
        gc.collect()
        assert [r() for r in refs] == [None, None]


def test_threads_never_share_a_prepared_formula():
    f = parse_formula("E y. (R(x,y) & ~E z. (R(y,z) & ~z = x))")
    structures = []
    for i in range(4):
        rng = random.Random(i)
        dom = [f"t{i}e{j}" for j in range(3 + i)]
        edges = {(u, v) for u in dom for v in dom if rng.random() < 0.4}
        structures.append(make_structure(dom, {"R": 2}, {"R": edges}))
    expected = [[evaluate_naive(s, {"x": d}, f) for d in s.domain] for s in structures]
    got: dict[int, list] = {}

    def work(i):
        s, answers = structures[i], []
        try:
            for _ in range(150):
                answers.append([evaluate(s, {"x": d}, f) for d in s.domain])
                answers.append([d in satisfaction_set(s, f).elements for d in s.domain])
        except Exception as e:  # noqa: BLE001 - reported by the assertion below
            answers.append(e)
        got[i] = answers

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i in range(4):
        assert got[i] == [expected[i]] * 300


def _target(out):
    """A weakly referable part of what a table keeps for a term."""
    return out[-1] if isinstance(out, tuple) else out


def test_each_table_is_bounded_and_frees_what_it_drops():
    s = make_structure(["a", "b"], {"R": 2, "A": 1}, {"R": {("a", "b")}, "A": {("b",)}})
    cases = [(semantics, lambda t: evaluate(s, {}, t), lambda: parse_formula("E x y. R(x,y)")),
             (fragments, lambda t: check_fragment(t, FragmentId.FU1),
              lambda: parse_formula("E x y. R(x,y)")),
             (dl, lambda t: dl.concept_extension(s, t), lambda: dl.parse_concept("exists R.(A)")),
             (dlr, lambda t: dlr.dlr_concept_extension(s, t),
              lambda: dlr.parse_dlr_concept("exists[$1] R"))]
    for module, call, make in cases:
        first = make()
        call(first)
        kept = [_target(e[-1]) for e in module._cache[-1].values() if e[1] is first]
        refs = [weakref.ref(first), *map(weakref.ref, kept)]
        del first, kept
        for _ in range(MAX_COMPILED + 5):
            call(make())
            assert len(module._cache[-1]) <= MAX_COMPILED
        gc.collect()
        assert [r() for r in refs] == [None, None], module.__name__


def test_a_formula_is_compiled_once_per_vocabulary(monkeypatch):
    # one formula alternating between structures of two vocabularies
    small = make_structure(["a"], {"P": 1}, {"P": {("a",)}})
    large = make_structure(["a", "b"], {"P": 1, "R": 2}, {"R": {("a", "b")}})
    f = parse_formula("E x. P(x)")
    builds = []
    compile_formula = semantics.compile_formula

    def counted_compile(g, vocab):
        builds.append(vocab)
        return compile_formula(g, vocab)

    monkeypatch.setattr(semantics, "compile_formula", counted_compile)
    answers = [evaluate(s, {}, f) for _ in range(5) for s in (small, large)]
    assert answers == [True, False] * 5
    assert builds == [small.vocabulary, large.vocabulary]


def test_equal_formulas_and_reused_ids_answer_as_the_reference():
    s = make_structure(["a", "b", "c"], {"R": 2}, {"R": {("a", "b"), ("b", "c")}})
    texts = ["E y. R(x,y)", "E y. R(y,x)", "A y. ~R(x,y)", "(E y. R(x,y) & E y. R(y,x))"]
    f, g = parse_formula(texts[0]), parse_formula(texts[0])
    assert f == g and f is not g
    for h in (f, g, f, g):
        for d in s.domain:
            assert evaluate(s, {"x": d}, h) == evaluate_naive(s, {"x": d}, h)
        assert _set_outcome(s, h) == _naive_set(s, h)
    # a formula dropped after its call may leave its id to the next one
    for i in range(200):
        h = parse_formula(texts[i % len(texts)])
        assert _set_outcome(s, h) == _naive_set(s, h)
        del h


def test_threads_share_compiled_formulas_safely():
    # four threads, each with its own structure, vocabulary and formula
    # objects, together more than a table holds: the tables keep clearing
    texts = ["E y. R(x,y)", "A y. (R(x,y) -> E z. (R(y,z) & ~z = x))", "E[>=2] y. R(y,x)",
             "(P(x) | ~E y. (R(x,y) & P(y)))", "R(x,y)", "E y z. (R(x,y) & R(y,z))",
             "X1(x)", "E y. R(x,y,y)", "A x. E y. (R(x,y) | x = y)", "~(x = x)",
             "A y. (R(y,x) -> P(y))", "E y. (R(x,y) & R(y,x))", "(P(x) & E[<=1] y. R(x,y))",
             "A y z. ((R(x,y) & R(x,z)) -> y = z)", "E y. (P(y) & ~R(y,x))", "~E y. R(y,y)",
             "E[=2] y. (R(x,y) | P(y))"]
    assert 4 * len(texts) > MAX_COMPILED
    structures, formulas = [], []
    for i in range(4):
        rng = random.Random(i)
        dom = [f"t{i}e{j}" for j in range(3 + i)]
        edges = {(u, v) for u in dom for v in dom if rng.random() < 0.4}
        structures.append(make_structure(dom, {"R": 2, "P": 1, f"X{i}": 1},
                                         {"R": edges, "P": {(dom[i % 3],)}}))
        formulas.append([parse_formula(t) for t in texts])

    def answers(i):
        s = structures[i]
        return [(_outcome(evaluate, s, {"x": s.domain[0]}, f), _set_outcome(s, f),
                 check_fragment(f, FragmentId.FU1),
                 check_fragment(f, FragmentId.U1, s.vocabulary)) for f in formulas[i]]

    expected = [answers(i) for i in range(4)]
    assert {type(a[1]) for e in expected for a in e} == {frozenset, tuple}  # answers, errors
    got: dict[int, list] = {}
    start = threading.Barrier(4, timeout=60)

    def work(i):
        start.wait()
        got[i] = [answers(i) for _ in range(60)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i in range(4):
        assert got[i] == [expected[i]] * 60


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def _case(seed, max_size=3):
    rng = random.Random(seed)
    s = gen_structure(rng, VOCAB, max_size=max_size)
    f = gen_any_formula(rng, depth=3, pool=("x",))
    a = {"x": rng.choice(s.domain)}
    return rng, s, f, a


# a second vocabulary: no Q or T, and R is ternary
OTHER_VOCAB = Vocabulary({"R": 3, "P": 1})


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_oracle_and_naive_agreement(seed, pool_seed):
    _, s, f, a = _case(seed)
    expected = oracle_eval(s, a, f)
    assert evaluate(s, a, f) == expected
    assert evaluate_naive(s, a, f) == expected
    assert satisfaction_set(s, f).elements == {d for d in s.domain
                                               if oracle_eval(s, {"x": d}, f)}
    # a few formula objects in random order over structures of two
    # vocabularies, so that cache hits and evictions interleave
    rng = random.Random(pool_seed)
    pool = [gen_any_formula(rng, depth=2, pool=("x",)) for _ in range(3)]
    structures = [gen_structure(rng, rng.choice((VOCAB, OTHER_VOCAB)), max_size=3)
                  for _ in range(3)]
    for _ in range(12):
        f, s = rng.choice(pool), rng.choice(structures)
        a = {"x": rng.choice(s.domain)}
        assert _outcome(evaluate, s, a, f) == _outcome(evaluate_naive, s, a, f)
        assert _set_outcome(s, f) == _naive_set(s, f)


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


# ---------------------------------------------------------------------------
# Quantifier blocks test each part of their body in the loop of its last
# block variable; these shapes cover every case of that rule
# ---------------------------------------------------------------------------

BLOCK_SHAPES = [
    "E x y. P(x)",                                          # vacuous y
    "A x y. R(y,y)",                                        # vacuous x
    "E y. (P(x) & R(x,y))",                                 # a part without y
    "A y. (P(x) | R(x,y) | P(y))",
    "E x y. (true & R(x,y))",
    "E y z. (R(y,z) & false)",
    "A x y. (false | R(x,y) | P(y))",
    "A x y. (true | R(x,y))",
    "A x y z. ((R(x,y) & R(y,z)) -> R(x,z))",
    "A y z. (R(x,y) -> (P(z) | R(y,z)))",                   # a disjunction under A
    "A y z. (R(y,z) | P(y) | ~(x = z))",
    "E x. A y z. (R(y,z) -> (x = y | x = z))",              # equality parts
    "E y z. (~(y = z) & R(x,y) & x = z)",
    "E x y. (R(x,y) & A z. (R(y,z) -> P(z)))",              # a block inside a part
    "A y. (P(y) -> E z w. (R(y,z) & R(z,w) & ~(w = x)))",
    "E y z. (R(x,y) & E z. (R(z,y) & P(z)) & ~R(y,z))",     # an inner block rebinds z
]

_CYCLES = disjoint_copies(gen_directed_cycle(4), 3)
SCHEDULING_STRUCTURES = list(enum_structures({"R": 2, "P": 1}, 2)) + [
    make_structure(_CYCLES.domain, {"R": 2, "P": 1},
                   {"R": _CYCLES.relations["R"], "P": {(d,) for d in _CYCLES.domain[::3]}})]


@pytest.mark.parametrize("text", BLOCK_SHAPES)
def test_block_scheduling_against_the_oracle(text):
    f = parse_formula(text)
    for s in SCHEDULING_STRUCTURES:
        if not free_variables(f):
            expected = oracle_eval(s, {}, f)
            assert evaluate(s, {}, f) == expected
            assert satisfaction_set(s, f).elements == (frozenset(s.domain) if expected
                                                       else frozenset())
        else:
            expected = {d for d in s.domain if oracle_eval(s, {"x": d}, f)}
            assert {d for d in s.domain if evaluate(s, {"x": d}, f)} == expected
            assert satisfaction_set(s, f).elements == expected


# ---------------------------------------------------------------------------
# A block variable with a guard atom walks the guard's tuples (the
# structure's index) instead of the domain; these shapes cover what is and
# is not a guard
# ---------------------------------------------------------------------------

GUARDED_SHAPES = [
    "E y. R(x,y)",                                          # the guard is the only part
    "E y. (P(y) & R(x,y) & R(y,x))",                        # a unary guard, first in text
    "E y. (~P(y) & R(y,x))",
    "E x y. (R(x,y) & E z. (R(y,z) & ~R(z,y)))",
    "A y. ~R(x,y)",                                         # negated atoms under A
    "A y. (P(y) | ~R(x,y) | ~R(y,x))",
    "A z. (R(x,z) -> P(z))",                                # an antecedent under A
    "A x y. (R(x,y) -> E z. (R(y,z) & ~R(z,y)))",
    "E x y. (R(x,y) & A z. (R(y,z) -> ~R(z,y)))",
    "E z. (R(z,z) & P(z))",                                 # not guards: z twice
    "A z. (~R(z,z) | R(x,z))",
    "A z. (R(x,z) | P(z))",                                 # not a guard: positive under A
    "E z. (~R(x,z) & P(z))",                                # not a guard: negated under E
    "E y z. (T(y,y,z) & P(z))",                             # ternary guards, bound arguments
    "E y z. (R(x,y) & T(x,z,y) & ~P(z))",
    "E y z. (R(x,y) & T(z,x,y))",
    "A y z. (T(x,z,y) -> R(y,z))",
    "E y. (R(x,y) & E x. R(y,x))",                          # an inner block rebinds x
    "A y. (R(y,x) -> E x. (R(x,y) & ~(x = y)))",
    "E y. (R(x,y) & E[>=2] z. R(y,z))",                     # a count inside a guarded loop
    "A x y. ((R(x,y) & R(y,x)) -> x = y)",                  # split by De Morgan
    "A y. ~(R(x,y) & P(y))",
    "E y. ~(~R(x,y) | P(y))",
    "E y. ~(R(x,y) -> P(y))",
    "E y. (x = y & P(y))",                                  # equality guards: one value
    "A y. (~(x = y) | P(y))",
    "A y. (x = y -> P(y))",
    "E y z. (R(x,y) & y = z & P(z))",
    "A y z. (R(x,y) -> (~(z = y) | ~R(z,x)))",
    "E y. (y = y & P(y))",                                  # not a guard: y twice
]


def _sparse_structure(rng, relations=("R", "T", "P")):
    domain = [f"e{i}" for i in range(rng.randint(6, 10))]
    tuples = {name: {t for t in itertools.product(domain, repeat=arity)
                     if name in relations and rng.random() < density}
              for name, arity, density in (("R", 2, 0.2), ("T", 3, 0.02), ("P", 1, 0.5))}
    return make_structure(domain, {"R": 2, "T": 3, "P": 1}, tuples)


GUARDED_STRUCTURES = [_sparse_structure(random.Random(seed)) for seed in range(6)] + [
    _sparse_structure(random.Random(6), ("P",)),            # R and T empty
    _sparse_structure(random.Random(7), ()),                # every relation empty
]


@pytest.mark.parametrize("text", GUARDED_SHAPES)
def test_guarded_loops_against_the_oracle(text):
    f = parse_formula(text)
    for s in GUARDED_STRUCTURES:
        if not free_variables(f):
            expected = evaluate_naive(s, {}, f)
            assert evaluate(s, {}, f) == expected
            assert satisfaction_set(s, f).elements == (frozenset(s.domain) if expected
                                                       else frozenset())
        else:
            expected = {d for d in s.domain if evaluate_naive(s, {"x": d}, f)}
            assert {d for d in s.domain if evaluate(s, {"x": d}, f)} == expected
            assert satisfaction_set(s, f).elements == expected


@pytest.mark.parametrize("text, expected", [
    ("E y. (P(y) & R(x,y) & R(y,x))", ["P(y)"]),             # the first in text order
    ("A y z. (R(y,z) -> ~R(z,y))", [None, "R(y,z)"]),
    ("A y z. (~P(y) | R(y,z) | ~R(z,y))", ["P(y)", "R(z,y)"]),
    ("E y z. (R(z,z) & R(y,z))", [None, "R(y,z)"]),
    ("A y. (R(x,y) | ~R(y,y))", [None]),
    ("(R(x,y) & P(x))", []),                                 # a chain has no loops
    ("A x y. ((R(x,y) & R(y,x)) -> x = y)", [None, "R(x,y)"]),  # split by De Morgan
    ("A y. ~(R(x,y) & P(y))", ["R(x,y)"]),
    ("E y. ~(~R(x,y) | P(y))", ["R(x,y)"]),
    ("E y. ~(R(x,y) -> P(y))", ["R(x,y)"]),
    ("A y. ~~(R(x,y) -> P(y))", ["R(x,y)"]),
    ("E y. ~(R(x,y) | P(y))", [None]),                       # negated under E: no guard
    ("A y. ~((P(y) | R(y,x)) & Q(x))", [None]),              # ~(a | b) is one part under A
    ("E y. (x = y & P(y))", ["x = y"]),                       # an equality with one side y
    ("A y. (~(x = y) | P(y))", ["x = y"]),
    ("A y. (x = y -> P(y))", ["x = y"]),
    ("E y z. (R(x,y) & y = z & P(z))", ["R(x,y)", "y = z"]),
    ("E y. (y = y & ~P(y))", [None]),                        # y = y is no guard
    ("E y. (y = y & P(y))", ["P(y)"]),
])
def test_block_parts_reports_the_first_guard(text, expected):
    def comp(g):
        return g, free_variables(g)

    _, _, levels, _, guards = block_parts(parse_formula(text), comp, lambda g: g)
    assert [guard and print_formula(guard[1]) for guard in guards] == expected
    for i, guard in enumerate(guards):
        if guard:  # the part it points at tests the guard's atom
            part = levels[i + 1][guard[0]]
            assert part == guard[1] or part == Not(guard[1])


def test_block_parts_splits_into_parts_in_text_order():
    def comp(g):
        return g, free_variables(g)

    text = "A y. (~(P(y) & ~~R(x,y)) | ((Q(y) & ~P(x)) -> ~(R(y,x) & Q(x))))"
    # the parts: ~P(y), ~R(x,y) (~~~R is ~R), ~Q(y), P(x) (~~P is P), ~R(y,x), ~Q(x)
    _, exists, levels, _, guards = block_parts(parse_formula(text), comp, Not)
    assert not exists and guards == [(0, Atom("P", ("y",)))]
    assert [[print_formula(g) for g in level] for level in levels] == [
        ["P(x)", "~Q(x)"], ["~P(y)", "~R(x,y)", "~Q(y)", "~R(y,x)"]]


def _split_prone(rng, depth, pool):
    """A formula over ``pool`` whose blocks often hold what ``block_parts``
    splits: negated conjunctions, disjunctions and implications, compound
    antecedents and double negations, over atoms that can guard."""
    if depth <= 0 or rng.random() < 0.2:
        rel = rng.choice(("R", "R", "T", "P", "Q", "="))
        args = tuple(rng.choice(pool) for _ in range(VOCAB.symbols.get(rel, 2)))
        leaf = Equals(*args) if rel == "=" else Atom(rel, args)
        return Not(leaf) if rng.random() < 0.3 else leaf

    def sub(extra=()):
        return _split_prone(rng, depth - 1, pool + extra)

    shape = rng.choice(("block", "block", "nand", "nand", "if", "if", "nor", "nif",
                        "notnot", "and", "or", "count"))
    if shape == "block":
        vars = tuple(dict.fromkeys(f"y{rng.randint(1, 3)}" for _ in range(rng.randint(1, 2))))
        return rng.choice((ExistsBlock, ForallBlock))(vars, sub(vars))
    if shape == "count":
        return CountExists(rng.choice((">=", "<=", "=")), rng.randint(0, 2), "z", sub(("z",)))
    if shape == "nand":
        return Not(And(sub(), sub()))
    if shape == "if":  # a compound antecedent, most of the time
        return Implies(rng.choice((And, And, Or, Implies))(sub(), sub()), sub())
    if shape == "nor":
        return Not(Or(sub(), sub()))
    if shape == "nif":
        return Not(Implies(sub(), sub()))
    if shape == "notnot":
        return Not(Not(sub()))
    return (And if shape == "and" else Or)(sub(), sub())


def test_split_blocks_against_the_reference_on_generated_formulas():
    rng = random.Random(20261021)
    structures = [gen_structure(rng, VOCAB, max_size=3, density=0.45) for _ in range(12)]
    split = 0
    for _ in range(2000):
        vars = tuple(dict.fromkeys(f"y{rng.randint(1, 3)}" for _ in range(rng.randint(1, 2))))
        f = rng.choice((ExistsBlock, ForallBlock))(vars, _split_prone(rng, 3, ("x",) + vars))
        split += any(isinstance(g, (ExistsBlock, ForallBlock))
                     and any(isinstance(h, Not) and isinstance(h.body, (And, Or, Implies))
                             or isinstance(h, Implies) and isinstance(h.left, (And, Or, Implies))
                             for h in walk(g.body))
                     for g in walk(f))
        s = rng.choice(structures)
        expected = {d for d in s.domain if evaluate_naive(s, {"x": d}, f)}
        assert {d for d in s.domain if evaluate(s, {"x": d}, f)} == expected, print_formula(f)
        assert satisfaction_set(s, f).elements == expected, print_formula(f)
    assert split > 1000, split  # most formulas hold a split shape inside a block


def _equality_prone(rng, depth, pool):
    """A formula over ``pool`` rich in equalities and negated atoms: the
    parts whose negation is one closure, and the equalities that guard a
    loop with one value."""
    if depth <= 0 or rng.random() < 0.25:
        rel = rng.choice(("=", "=", "=", "R", "T", "P", "Q"))
        args = tuple(rng.choice(pool) for _ in range(VOCAB.symbols.get(rel, 2)))
        leaf = Equals(*args) if rel == "=" else Atom(rel, args)
        return Not(leaf) if rng.random() < 0.5 else leaf
    shape = rng.choice(("block", "block", "and", "and", "or", "if", "not"))
    if shape == "block":
        vars = tuple(dict.fromkeys(f"y{rng.randint(1, 3)}" for _ in range(rng.randint(1, 2))))
        body = _equality_prone(rng, depth - 1, pool + vars)
        return rng.choice((ExistsBlock, ForallBlock))(vars, body)
    if shape == "not":
        return Not(_equality_prone(rng, depth - 1, pool))
    return {"and": And, "or": Or, "if": Implies}[shape](_equality_prone(rng, depth - 1, pool),
                                                        _equality_prone(rng, depth - 1, pool))


def test_equality_guards_and_fused_negations_against_the_reference():
    def comp(g):
        return g, free_variables(g)

    rng = random.Random(20261022)
    structures = [gen_structure(rng, VOCAB, max_size=3, density=density)
                  for density in (0, 0.2, 0.45, 0.7, 1) * 3]
    guarded = 0
    for _ in range(2000):
        vars = tuple(dict.fromkeys(f"y{rng.randint(1, 3)}" for _ in range(rng.randint(1, 2))))
        f = rng.choice((ExistsBlock, ForallBlock))(vars, _equality_prone(rng, 3, ("x",) + vars))
        guarded += any(isinstance(guard and guard[1], Equals)
                       for g in walk(f) if isinstance(g, (ExistsBlock, ForallBlock))
                       for guard in block_parts(g, comp, lambda h: h)[4])
        s = rng.choice(structures)
        expected = {d for d in s.domain if evaluate_naive(s, {"x": d}, f)}
        assert {d for d in s.domain if evaluate(s, {"x": d}, f)} == expected, print_formula(f)
        assert satisfaction_set(s, f).elements == expected, print_formula(f)
    assert guarded > 200, guarded  # many formulas hold a loop that an equality guards


def test_a_negated_atom_or_equality_is_one_closure():
    for text in ("~P(x)", "~R(x,y)", "~R(y,y)", "~(x = y)"):
        _, test = semantics.compile_formula(parse_formula(text), VOCAB)
        assert "_not" not in test.__qualname__, text  # no wrapper around the positive test
        for s in SCHEDULING_STRUCTURES:
            for x, y in itertools.product(s.domain, repeat=2):
                assert test(s, {"x": x, "y": y}) == evaluate_naive(s, {"x": x, "y": y},
                                                                   parse_formula(text))
    _, test = semantics.compile_formula(parse_formula("~E y. R(x,y)"), VOCAB)
    assert test.__qualname__ == "_not.<locals>.<lambda>"


def test_guarded_loops_walk_edges_not_the_domain():
    # every loop but the outermost is guarded, so the work is linear in the
    # edges; walking the domain in the inner loops takes seconds
    f = parse_formula("A x y. (R(x,y) -> E z. (R(y,z) & ~R(z,y)))")
    s = gen_directed_cycle(3000)
    started = time.perf_counter()
    assert evaluate(s, {}, f)
    assert time.perf_counter() - started < 0.5


def test_the_index_is_invisible():
    s = _sparse_structure(random.Random(5))
    text, doc = repr(s), dump_structure(s)
    union = dump_structure(disjoint_union(s, s))
    for shape in GUARDED_SHAPES:
        satisfaction_set(s, parse_formula(shape))
    assert s.index("R", 1) is s.index("R", 1)  # built once and kept
    copy = _sparse_structure(random.Random(5))
    assert s == copy and copy == s
    assert repr(s) == text == repr(copy)
    assert dump_structure(s) == doc
    assert json.dumps(structure_to_doc(s)) == json.dumps(structure_to_doc(copy))
    assert dump_structure(disjoint_union(s, s)) == union
    assert disjoint_union(s, s) == disjoint_union(copy, copy)


# ---------------------------------------------------------------------------
# Three-valued answers: model search's ground circuit against a strong
# Kleene reference over partial atom tables (the search prunes on these)
# ---------------------------------------------------------------------------

def _kleene_and(values):
    values = list(values)
    return False if False in values else (None if None in values else True)


def _kleene_not(v):
    return None if v is None else not v


def _kleene_or(values):
    return _kleene_not(_kleene_and(_kleene_not(v) for v in values))


def kleene_eval(table, domain, a, f):
    """Strong Kleene value of ``f``; ``table`` maps (relation, tuple) to
    True, False or None (undetermined)."""
    def ev(a, f):
        if isinstance(f, Top):
            return True
        if isinstance(f, Bottom):
            return False
        if isinstance(f, Atom):
            return table[f.rel, tuple(a[v] for v in f.args)]
        if isinstance(f, Equals):
            return a[f.left] == a[f.right]
        if isinstance(f, Not):
            return _kleene_not(ev(a, f.body))
        if isinstance(f, And):
            return _kleene_and([ev(a, f.left), ev(a, f.right)])
        if isinstance(f, Or):
            return _kleene_or([ev(a, f.left), ev(a, f.right)])
        if isinstance(f, Implies):
            return _kleene_or([_kleene_not(ev(a, f.left)), ev(a, f.right)])
        if isinstance(f, (ExistsBlock, ForallBlock)):
            values = [ev({**a, **dict(zip(f.vars, tup))}, f.body)
                      for tup in itertools.product(domain, repeat=len(f.vars))]
            return (_kleene_or if isinstance(f, ExistsBlock) else _kleene_and)(values)
        if isinstance(f, CountExists):
            values = [ev({**a, f.var: d}, f.body) for d in domain]
            low, high = values.count(True), len(values) - values.count(False)
            if f.cmp == ">=":
                return True if low >= f.bound else (False if high < f.bound else None)
            if f.cmp == "<=":
                return True if high <= f.bound else (False if low > f.bound else None)
            if low == high == f.bound:
                return True
            return False if low > f.bound or high < f.bound else None
        raise TypeError(f)

    return ev(a, f)


def _blocky_formula(rng, depth, pool):
    """A quantifier block of two or three variables over two to four
    generated parts, joined by random connectives; parts may nest blocks."""
    vars = tuple(rng.sample(("w1", "w2", "w3", "w4"), rng.randint(2, 3)))
    inner = pool + vars
    parts = [_blocky_formula(rng, depth - 1, inner) if depth > 0 and rng.random() < 0.3
             else gen_any_formula(rng, 1, inner) for _ in range(rng.randint(2, 4))]
    body = parts[0]
    for part in parts[1:]:
        body = rng.choice((And, Or, Implies))(body, part)
    if rng.random() < 0.2:
        body = Not(body)
    return rng.choice((ExistsBlock, ForallBlock))(vars, body)


def _value(circuit, lit):
    """The value of a literal of the circuit now: True, False or None."""
    if type(lit) is bool:
        return lit
    v = circuit.value[lit[0]]
    return None if v is None else v is not lit[1]


def test_three_valued_answers_match_a_kleene_reference():
    # decide the cells of a random partial table in random order, undoing
    # some decisions on the way; the root must read the Kleene value after
    # each of the first eight steps
    answers = []
    for seed in range(100):
        rng = random.Random(seed)
        domain = [f"e{i}" for i in range(rng.randint(1, 3))]
        table = {(rel, t): rng.choice((True, False, None, None))
                 for rel, arity in VOCAB.symbols.items()
                 for t in itertools.product(domain, repeat=arity)}
        f = _blocky_formula(rng, 1, ("x",))
        rels = {g.rel for g in walk(f) if isinstance(g, Atom)}
        _, _, ground = grounder(f, VOCAB, len(domain))
        for d in range(len(domain)):
            circuit = Circuit(VOCAB, len(domain))
            root = ground(circuit, {"x": d})
            keys = [(rel, tuple(domain[i] for i in t)) for rel, t in circuit.cells]
            pending = [i for i, key in enumerate(keys) if table[key] is not None and key[0] in rels]
            rng.shuffle(pending)
            partial = dict.fromkeys(table)
            done = []  # (cell, trail mark) of the decisions in force
            for _ in range(8):
                got = _value(circuit, root)
                assert got is kleene_eval(partial, domain, {"x": domain[d]}, f), (seed, d)
                answers.append(got)
                if done and rng.random() < 0.25:
                    cell, mark = done.pop()
                    circuit.undo(mark)
                    partial[keys[cell]] = None
                    pending.append(cell)
                elif pending:
                    cell = pending.pop()
                    done.append((cell, len(circuit.trail)))
                    assert circuit.propagate(cell, table[keys[cell]])
                    partial[keys[cell]] = table[keys[cell]]
                else:
                    break
    # 463 True, 289 False and 313 None answers
    assert min(answers.count(v) for v in (True, False, None)) >= 100
