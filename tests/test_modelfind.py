import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifrag import (ArityError, CellLimitError, EvalError, Vocabulary,
                     VocabularyError, evaluate, parse_formula)
from unifrag.modelfind import cell_count, find_model
from unifrag.syntax import Bottom, Top

from strategies import enum_structures, gen_any_formula

EMPTY = Vocabulary({})
BINARY = Vocabulary({"S": 2})

WITNESS = parse_formula(
    "((A x. E y. S(x,y)) & (E x. A y. ~S(y,x)) & (A x. E[<=1] y. S(y,x)))")
WITNESS_RELAXED = parse_formula("((A x. E y. S(x,y)) & (E x. A y. ~S(y,x)))")
THREE_DISTINCT = parse_formula("E x y z. (~(x = y) & ~(x = z) & ~(y = z))")
# a strict order without a greatest element: no finite model
UNBOUNDED_ORDER = parse_formula(
    "((A x y z. ((R(x,y) & R(y,z)) -> R(x,z))) & (A x. ~R(x,x)) & (A x. E y. R(x,y)))")


def test_three_distinct_elements_need_size_three():
    assert not find_model(THREE_DISTINCT, EMPTY, 2).found
    report = find_model(THREE_DISTINCT, EMPTY, 3)
    assert report.found and report.model.size == 3


def test_bottom_never_has_a_model():
    report = find_model(Bottom(), EMPTY, 4)
    assert not report.found
    assert report.bound == 4


def test_top_has_a_singleton_model():
    report = find_model(Top(), EMPTY, 3)
    assert report.found and report.model.size == 1


def test_infinity_axioms_have_no_small_model():
    report = find_model(WITNESS, BINARY, 4)
    assert not report.found
    # the search order is fixed, and so is the number of nodes it visits
    assert find_model(WITNESS, BINARY, 5).nodes_examined == 873
    assert find_model(WITNESS, BINARY, 5, prune=True).nodes_examined == 151
    # a multi-variable block, whose parts are grounded in separate loops
    report = find_model(UNBOUNDED_ORDER, Vocabulary({"R": 2}), 4)
    assert not report.found and report.nodes_examined == 16
    assert find_model(UNBOUNDED_ORDER, Vocabulary({"R": 2}), 4, prune=True).nodes_examined == 10


def test_relaxed_witness_finds_size_two():
    report = find_model(WITNESS_RELAXED, BINARY, 6)
    assert report.found and report.model.size == 2
    assert evaluate(report.model, {}, WITNESS_RELAXED)


def test_found_models_satisfy_the_sentence():
    rng = random.Random(0)
    for _ in range(80):
        f = gen_any_formula(rng, depth=3, pool=(), vocab=BINARY)
        report = find_model(f, BINARY, 2)
        if report.found:
            assert evaluate(report.model, {}, f)


def test_free_variables_rejected():
    with pytest.raises(EvalError):
        find_model(parse_formula("P(x)"), Vocabulary({"P": 1}), 2)


@pytest.mark.parametrize("text,error", [
    ("(W(x) & P(y))", EvalError),  # needing a sentence comes before the vocabulary
    ("E x. W(x)", VocabularyError),
    ("E x. P(x,x)", ArityError),
])
def test_error_precedence(text, error):
    with pytest.raises(error):
        find_model(parse_formula(text), Vocabulary({"P": 1}), 2)


def test_cell_limit_refuses():
    with pytest.raises(CellLimitError):
        find_model(Top(), Vocabulary({"T": 3}), 5)  # 125 cells > 64
    assert cell_count(Vocabulary({"T": 3}), 5) == 125
    # raising the limit explicitly lets it run
    assert find_model(Top(), Vocabulary({"T": 3}), 5, cell_limit=200).found


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_completeness_against_enumeration_reference(seed):
    # the independent reference path: enumerate every structure and evaluate
    rng = random.Random(seed)
    vocab = Vocabulary({"S": 2})
    f = gen_any_formula(rng, depth=2, pool=(), vocab=vocab)
    reference = [s for s in enum_structures({"S": 2}, 2) if evaluate(s, {}, f)]
    report = find_model(f, vocab, 2)
    assert report.found == bool(reference)
    if report.found:
        sizes = {s.size for s in reference}
        assert report.model.size == min(sizes)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_prune_never_changes_outcomes(seed):
    rng = random.Random(seed)
    vocab = Vocabulary({"S": 2, "P": 1})
    f = gen_any_formula(rng, depth=2, pool=(), vocab=vocab)
    plain = find_model(f, vocab, 2)
    pruned = find_model(f, vocab, 2, prune=True)
    assert plain.found == pruned.found
    if plain.found:
        assert plain.model == pruned.model  # the least model is canonical


def test_determinism():
    a = find_model(WITNESS_RELAXED, BINARY, 3)
    b = find_model(WITNESS_RELAXED, BINARY, 3)
    assert a.model == b.model
    assert a.nodes_examined == b.nodes_examined


def test_minimality_over_sizes():
    f = parse_formula("E x y. ~(x = y)")
    report = find_model(f, EMPTY, 4)
    assert report.found and report.model.size == 2


def _lex_first_model(f, vocab, max_size):
    """Literal realization of the documented order: sizes ascending, cells
    (sorted relations, row-major tuples), bit strings in increasing binary
    order with the first cell as the most significant bit."""
    import itertools
    from unifrag import make_structure
    for n in range(1, max_size + 1):
        domain = tuple(f"e{i}" for i in range(n))
        rels = sorted(vocab.symbols)
        cells = []
        for rel in rels:
            cells.extend((rel, t) for t in
                         itertools.product(domain, repeat=vocab.symbols[rel]))
        for mask in range(2 ** len(cells)):
            relations = {rel: set() for rel in rels}
            for idx, (rel, t) in enumerate(cells):
                if (mask >> (len(cells) - 1 - idx)) & 1:
                    relations[rel].add(t)
            s = make_structure(domain, dict(vocab.symbols), relations)
            if evaluate(s, {}, f):
                return s
    return None


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_found_model_is_lexicographically_least(seed):
    # with a unary symbol and counting quantifiers, threshold gates force cells
    rng = random.Random(seed)
    for vocab in (BINARY, Vocabulary({"S": 2, "P": 1})):
        f = gen_any_formula(rng, depth=2, pool=(), vocab=vocab)
        reference = _lex_first_model(f, vocab, 2)
        assert find_model(f, vocab, 2).model == reference
        assert find_model(f, vocab, 2, prune=True).model == reference


def test_search_depth_is_not_bounded_by_the_interpreter_stack():
    # one cell per symbol at size 1; far more cells than stack frames
    vocab = Vocabulary({f"P{i}": 1 for i in range(1200)})
    report = find_model(parse_formula("A x. P999(x)"), vocab, 1, cell_limit=5000)
    assert report.found
    assert report.model.relations["P999"] == {("e0",)}
    assert not any(report.model.relations[f"P{i}"] for i in range(1200) if i != 999)
