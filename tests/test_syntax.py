import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifrag import (ArityError, Atom, CountExists, Equals, ExistsBlock,
                     ParseError, Top, Vocabulary, free_variables,
                     infer_vocabulary, parse_formula, print_formula,
                     validate_formula)
from unifrag.fragments import FragmentId
from unifrag.syntax import MAX_NESTING

from strategies import VOCAB, gen_any_formula, gen_formula


def test_parse_block_example():
    f = parse_formula("E y z. ((~R(x,y,z) | T(z,y,x,x)) & P(z))")
    assert isinstance(f, ExistsBlock)
    assert f.vars == ("y", "z")


def test_parse_true_is_top():
    assert parse_formula("true") == Top()


def test_parse_counting():
    f = parse_formula("E[>=3] x. P(x)")
    assert f == CountExists(">=", 3, "x", Atom("P", ("x",)))


def test_print_top_and_equality():
    assert print_formula(Top()) == "true"
    assert print_formula(Equals("x", "y")) == "x = y"


def test_print_parse_is_identity_on_canonical_text():
    canonical = "E y z. ((~R(x,y,z) | T(z,y,x,x)) & P(z))"
    assert print_formula(parse_formula(canonical)) == canonical


def test_chained_operators_parse_left_associated():
    f = parse_formula("(P(x) & Q(x) & P(x))")
    g = parse_formula("((P(x) & Q(x)) & P(x))")
    assert f == g


def test_mixed_chain_rejected():
    with pytest.raises(ParseError):
        parse_formula("(P(x) & Q(x) | P(x))")


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as e:
        parse_formula("E y z R(x)")
    assert e.value.line == 1
    assert e.value.column > 1


def test_nesting_limit_is_a_positioned_parse_error():
    deepest = "~" * (MAX_NESTING - 1) + "P(x)"
    assert print_formula(parse_formula(deepest)) == deepest
    with pytest.raises(ParseError, match=f"1:{MAX_NESTING + 1}: .*deeper than"):
        parse_formula("~" + deepest)


def test_duplicate_block_variable_rejected():
    with pytest.raises(ParseError):
        parse_formula("E y y. P(y)")


def test_arity_checked_against_vocabulary():
    vocab = Vocabulary({"R": 3})
    with pytest.raises(ArityError):
        parse_formula("E x y. R(x,y)", vocab)
    parse_formula("E x y. R(x,y,x)", vocab)


def test_unknown_symbol_rejected():
    from unifrag import VocabularyError
    with pytest.raises(VocabularyError):
        parse_formula("P(x)", Vocabulary({"R": 2}))


def test_free_variables_reference_cases():
    assert free_variables(parse_formula("E y. R(x,y,z)")) == {"x", "z"}
    assert free_variables(parse_formula("E x z y. R(x,y,z)")) == frozenset()
    assert free_variables(parse_formula("(P(x) & Q(x))")) == {"x"}


def test_infer_vocabulary_consistency():
    f = parse_formula("(R(x,y) & E z. R(z,z))")
    assert infer_vocabulary(f).symbols == {"R": 2}
    with pytest.raises(ArityError):
        infer_vocabulary(parse_formula("(R(x,y) & R(x,x,x))"))


def test_vocabulary_invariants():
    from unifrag import VocabularyError
    with pytest.raises(VocabularyError):
        Vocabulary({"=": 2})
    with pytest.raises(VocabularyError):
        Vocabulary({"R": 0})


def test_block_needs_variables():
    with pytest.raises(ValueError):
        ExistsBlock((), Top())


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_round_trip_arbitrary_formulas(seed):
    rng = random.Random(seed)
    f = gen_any_formula(rng, depth=4, pool=("x",))
    assert parse_formula(print_formula(f)) == f


@settings(max_examples=100)
@given(st.integers(0, 10**9))
def test_round_trip_fragment_formulas(seed):
    rng = random.Random(seed)
    frag = rng.choice(list(FragmentId))
    if frag is FragmentId.FO2:
        frag = FragmentId.UC1
    f = gen_formula(rng, frag, depth=3)
    assert parse_formula(print_formula(f), VOCAB) == f
    validate_formula(f, VOCAB)
