import copy
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifrag import (VocabularyError, disjoint_union, evaluate, make_structure,
                     satisfaction_set)
from unifrag.dl import (AndC, AndRole, Apply, AtomicConcept, AtomicRole,
                        Epsilon, ExistsRole, NotC, NotRole, Surjection, TopC,
                        concept_extension, parse_concept, print_concept,
                        print_role, role_extension, universal_role)
from unifrag.lab import disjoint_copies, gen_clique
from unifrag.syntax import Vocabulary
from unifrag.translate import _role_formula, dl_to_fu1

from strategies import (VOCAB, gen_dl_concept, gen_dl_role, gen_structure, inverse,
                        parse_role, role_arity)


def test_surjection_validation():
    Surjection((2, 1, 1))
    with pytest.raises(ValueError):
        Surjection((1, 1))  # target 1 is below the minimum of 2
    with pytest.raises(ValueError):
        Surjection((1, 3))  # not onto 1..3
    with pytest.raises(ValueError):
        Surjection((1,))


def test_role_arity_rules():
    vocab = Vocabulary({"R": 2, "T": 3})
    assert role_arity(Epsilon(), vocab) == 2
    assert role_arity(Apply(Surjection((1, 2, 2)), AtomicRole("T")), vocab) == 2
    assert role_arity(AndRole(AtomicRole("R"), AtomicRole("T")), vocab) == 2
    assert role_arity(AndRole(AtomicRole("T"), AtomicRole("T")), vocab) == 3
    # map whose source does not fit the role: nominal arity two
    assert role_arity(Apply(Surjection((1, 2)), AtomicRole("T")), vocab) == 2
    with pytest.raises(VocabularyError):
        role_arity(AtomicRole("W"), vocab)


def test_unary_symbol_is_not_a_role():
    vocab = Vocabulary({"P": 1})
    with pytest.raises(VocabularyError):
        role_arity(AtomicRole("P"), vocab)


def test_epsilon_extension():
    s = make_structure(["a", "b"], {"R": 2})
    assert role_extension(s, Epsilon()) == {("a", "a"), ("b", "b")}


def test_inverse_via_coordinate_map():
    s = make_structure(["a", "b"], {"R": 2}, {"R": {("a", "b")}})
    inv = Apply(Surjection((2, 1)), AtomicRole("R"))
    assert role_extension(s, inv) == {("b", "a")}


def test_coordinate_map_with_repeats():
    s = make_structure(["c", "d", "e"], {"Q": 3}, {"Q": {("c", "d", "d")}})
    r = Apply(Surjection((2, 1, 1)), AtomicRole("Q"))
    assert role_extension(s, r) == {("d", "c")}
    s2 = make_structure(["c", "d", "e"], {"Q": 3}, {"Q": {("c", "d", "e")}})
    assert role_extension(s2, r) == frozenset()


def test_intersection_with_complement_is_empty():
    rng = random.Random(3)
    s = gen_structure(rng, VOCAB, max_size=3)
    r = AndRole(AtomicRole("R"), NotRole(AtomicRole("R")))
    assert role_extension(s, r) == frozenset()


def test_mismatched_intersection_is_empty_binary():
    s = make_structure(["a"], {"R": 2, "T": 3},
                       {"R": {("a", "a")}, "T": {("a", "a", "a")}})
    assert role_extension(s, AndRole(AtomicRole("R"), AtomicRole("T"))) == frozenset()


def test_universal_role_is_total():
    s = make_structure(["a", "b"], {"R": 2})
    assert role_extension(s, universal_role()) == {
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}


def test_atomic_concept_extension():
    s = make_structure(["a", "b"], {"A": 1}, {"A": {("a",)}})
    assert concept_extension(s, AtomicConcept("A")) == {"a"}
    assert concept_extension(s, TopC()) == {"a", "b"}


def test_nary_existential():
    s = make_structure(["a", "b", "c"], {"R": 3}, {"R": {("a", "b", "c")}})
    c = ExistsRole(AtomicRole("R"), (TopC(), TopC()))
    assert concept_extension(s, c) == {"a"}


def test_argument_count_must_match_arity():
    s = make_structure(["a"], {"T": 3})
    with pytest.raises(VocabularyError, match="argument"):
        concept_extension(s, ExistsRole(AtomicRole("T"), (TopC(),)))


def test_disjoint_copy_sensitivity_witness():
    loop = make_structure(["u"], {"R": 2, "A": 1},
                          {"R": {("u", "u")}, "A": {("u",)}})
    witness = NotC(ExistsRole(NotRole(AtomicRole("R")), (AtomicConcept("A"),)))
    assert concept_extension(loop, witness) == {"u"}
    assert concept_extension(disjoint_union(loop, loop), witness) == frozenset()


def test_parse_print_round_trip():
    texts = [
        "~exists ~R.(A)",
        "exists (eps & perm[1,2,2]R).(top)",
        "(A & ~exists R.(top, top))",
        "exists perm[2,1]R.(~A)",
    ]
    vocab = Vocabulary({"R": 3, "A": 1})
    for text in texts:
        c = parse_concept(text)
        assert parse_concept(print_concept(c)) == c
    r = parse_role("(R & ~perm[2,1,1]R)")
    assert parse_role(print_role(r)) == r


def test_parse_errors_have_positions():
    from unifrag import ParseError
    with pytest.raises(ParseError):
        parse_concept("exists R.(")
    with pytest.raises(ParseError):
        parse_concept("perm[1]R")
    with pytest.raises(ParseError, match="not onto"):
        parse_concept("exists perm[1,3000000000]R.(A)")


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_double_negation(seed):
    rng = random.Random(seed)
    s = gen_structure(rng, VOCAB, max_size=3)
    r = gen_dl_role(rng, 2)
    assert role_extension(s, NotRole(NotRole(r))) == role_extension(s, r)
    c = gen_dl_concept(rng, 2)
    assert concept_extension(s, NotC(NotC(c))) == concept_extension(s, c)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_permutation_inverse(seed):
    rng = random.Random(seed)
    s = gen_structure(rng, VOCAB, max_size=3)
    r = gen_dl_role(rng, 1)
    k = role_arity(r, VOCAB)
    perm = list(range(1, k + 1))
    rng.shuffle(perm)
    sigma = Surjection(tuple(perm))
    round_trip = Apply(inverse(sigma), Apply(sigma, r))
    assert role_extension(s, round_trip) == role_extension(s, r)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_agreement_with_first_order_evaluation(seed):
    rng = random.Random(seed)
    c = gen_dl_concept(rng, rng.randint(1, 3))
    f = dl_to_fu1(c, VOCAB)
    for _ in range(10):
        s = gen_structure(rng, VOCAB, max_size=rng.randint(1, 4))
        assert concept_extension(s, c) == satisfaction_set(s, f).elements


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_printer_parser_round_trip_on_generated_concepts(seed):
    rng = random.Random(seed)
    c = gen_dl_concept(rng, rng.randint(0, 3))
    assert parse_concept(print_concept(c)) == c


def test_agreement_with_evaluation_exhaustive_small():
    from strategies import enum_structures
    rng = random.Random(31)
    vocab = Vocabulary({"R": 2, "P": 1})
    structures = list(enum_structures({"R": 2, "P": 1}, 2))
    for _ in range(40):
        c = gen_dl_concept(rng, rng.randint(1, 3), vocab=vocab)
        f = dl_to_fu1(c, vocab)
        for s in structures:
            assert concept_extension(s, c) == satisfaction_set(s, f).elements


# ---------------------------------------------------------------------------
# Extensions against the first-order oracle on larger structures
# ---------------------------------------------------------------------------

def _structure_of_size(rng, n):
    domain = tuple(f"e{i}" for i in range(n))
    rels = {name: {t for t in itertools.product(domain, repeat=arity)
                   if rng.random() < 0.4}
            for name, arity in VOCAB.symbols.items()}
    return make_structure(domain, dict(VOCAB.symbols), rels)


def _role_oracle(s, r):
    """The tuples satisfying the standard translation of r."""
    n = role_arity(r, VOCAB)
    xs = tuple(f"x{i}" for i in range(n))
    f = _role_formula(r, VOCAB)[1](xs)
    return frozenset(t for t in itertools.product(s.domain, repeat=n)
                     if evaluate(s, dict(zip(xs, t)), f))


_R, _T = AtomicRole("R"), AtomicRole("T")
_EMPTY = NotC(TopC())
# ternary roles, maps with repeated positions, double negation, and role
# intersection under all four sign pairs
_ROLES = [
    _T,
    NotRole(_T),
    NotRole(NotRole(_T)),
    Apply(Surjection((1, 2, 2)), _T),
    Apply(Surjection((2, 1, 1)), NotRole(_T)),
    Apply(Surjection((1, 3, 2, 1)), NotRole(NotRole(_T))),
    Apply(Surjection((2, 1, 2)), Apply(Surjection((2, 1)), _R)),
    AndRole(_R, Apply(Surjection((2, 1)), _R)),
    AndRole(_R, NotRole(Epsilon())),
    AndRole(NotRole(_R), Epsilon()),
    AndRole(NotRole(_R), NotRole(Apply(Surjection((2, 1)), _R))),
    AndRole(NotRole(_T), NotRole(Apply(Surjection((1, 3, 2)), _T))),
    AndRole(_T, NotRole(_R)),  # mismatched arities: the empty binary relation
    universal_role(),
]


@pytest.mark.parametrize("r", _ROLES, ids=print_role)
def test_role_extensions_agree_with_first_order_oracle(r):
    rng = random.Random(17)
    for n in (5, 6, 7):
        s = _structure_of_size(rng, n)
        assert role_extension(s, r) == _role_oracle(s, r)
        arity = role_arity(r, VOCAB)
        for arg in (TopC(), AtomicConcept("P"), NotC(AtomicConcept("Q")), _EMPTY):
            c = ExistsRole(r, (arg,) * (arity - 1))
            assert concept_extension(s, c) == satisfaction_set(s, dl_to_fu1(c, VOCAB)).elements


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_extensions_agree_on_five_to_seven_elements(seed):
    rng = random.Random(seed)
    s = _structure_of_size(rng, rng.randint(5, 7))
    r = gen_dl_role(rng, rng.randint(1, 3))
    assert role_extension(s, r) == _role_oracle(s, r)
    c = gen_dl_concept(rng, rng.randint(1, 2))
    assert concept_extension(s, c) == satisfaction_set(s, dl_to_fu1(c, VOCAB)).elements


def test_existential_over_negated_role_with_empty_argument_is_empty():
    s = make_structure(["a", "b"], {"R": 2, "P": 1}, {"R": {("a", "b")}})
    for empty in (_EMPTY, AtomicConcept("P")):
        assert concept_extension(s, ExistsRole(NotRole(AtomicRole("R")), (empty,))) == frozenset()
    # the complement of R is not empty, so a non-empty argument finds it
    assert concept_extension(s, ExistsRole(NotRole(AtomicRole("R")), (TopC(),))) == {"a", "b"}


def test_universal_role_reaches_the_whole_of_a_large_domain():
    s = disjoint_copies(gen_clique(8), 9)
    assert s.size == 72
    assert concept_extension(s, ExistsRole(universal_role(), (TopC(),))) == frozenset(s.domain)


# ---------------------------------------------------------------------------
# The compiled-concept cache
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    """What a call answers, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)


def test_one_concept_over_differing_vocabularies():
    c = parse_concept("(exists R.((A & exists perm[2,1]R.(top))) & ~exists (eps & ~eps).(A))")
    r = parse_role("(R & ~perm[2,1]R)")
    structures = [
        make_structure(["a", "b"], {"R": 2, "A": 1}, {"R": {("a", "b")}, "A": {("b",)}}),
        make_structure(["a", "b"], {"R": 2, "A": 1}, {"R": {("b", "a")}}),  # an equal vocabulary
        make_structure(["a", "b"], {"R": 2}, {"R": {("a", "b")}}),          # lacks A
        make_structure(["a", "b"], {"R": 3, "A": 1}, {"A": {("b",)}}),     # R is ternary
        make_structure(["a"], {"R": 1, "A": 1}),                            # R is unary
    ]
    # every answer of a fresh copy first, so that the calls below keep one
    # object cached across the structures
    expected = [(_outcome(concept_extension, s, copy.deepcopy(c)),
                 _outcome(role_extension, s, copy.deepcopy(r))) for s in structures]
    assert {type(e[0]) for e in expected} == {frozenset, tuple}  # answers and errors
    for order in itertools.permutations(range(len(structures))):
        for fn, term, which in ((concept_extension, c, 0), (role_extension, r, 1)):
            for i in order:
                for _ in range(2):  # a repeated call is served from the cache
                    assert _outcome(fn, structures[i], term) == expected[i][which]


def test_a_failing_concept_fails_again_from_the_cache():
    s = make_structure(["a"], {"R": 2, "A": 1})
    c = AndC(AtomicConcept("A"), ExistsRole(AtomicRole("R"), (TopC(), TopC())))
    for _ in range(3):
        with pytest.raises(VocabularyError, match="needs 1 argument concepts, got 2"):
            concept_extension(s, c)


# ---------------------------------------------------------------------------
# Coordinate maps: a one-to-one map permutes the inner tuples, the identity
# map keeps the inner role, and only the others test each lifted tuple
# ---------------------------------------------------------------------------

def _surjections(k: int) -> list[Surjection]:
    """Every map from [k] onto [m] with 2 <= m <= k."""
    return [Surjection(m) for m in itertools.product(range(1, k + 1), repeat=k)
            if max(m) >= 2 and set(m) == set(range(1, max(m) + 1))]


@pytest.mark.parametrize("srj", _surjections(2) + _surjections(3), ids=lambda srj: str(srj.map))
def test_coordinate_maps_against_brute_force(srj):
    rng = random.Random(31)
    atom = AtomicRole("R" if srj.source == 2 else "T")
    for _ in range(6):
        s = gen_structure(rng, VOCAB, max_size=4, density=0.4)
        for inner in (atom, NotRole(atom)):
            listed = set(itertools.product(s.domain, repeat=srj.source))
            ext = s.relations[atom.name] if inner is atom else listed - s.relations[atom.name]
            targets = set(itertools.product(s.domain, repeat=srj.target))
            expected = {t for t in targets if tuple(t[i - 1] for i in srj.map) in ext}
            assert role_extension(s, Apply(srj, inner)) == expected
            assert role_extension(s, NotRole(Apply(srj, inner))) == targets - expected
            c = ExistsRole(Apply(srj, inner), (TopC(),) * (srj.target - 1))
            assert concept_extension(s, c) == {t[0] for t in expected}
