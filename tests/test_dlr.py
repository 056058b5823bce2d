import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifrag import (ArityError, ParseError, StructureError, disjoint_union,
                     dl, make_structure)
from unifrag.dlr import (AndR, AtMost, AtomicConcept, AtomicRole, Comp, Eps,
                         ExistsE, ExistsProj, NotC, NotR, Proj, Sel, Star,
                         Top1, TopN, UnionE, dlr_binrel_extension,
                         dlr_concept_extension, dlr_role_extension,
                         parse_dlr_concept, print_dlr_concept)
from unifrag.lab import disjoint_copies, gen_clique
from unifrag.structures import tag_elements
from unifrag.syntax import Vocabulary

from strategies import (DLR_VOCAB, gen_dlr_binrel, gen_dlr_concept,
                        gen_structure)


def test_topn_default_is_domain_power():
    s = make_structure(["a", "b"], {"R": 2})
    assert dlr_role_extension(s, TopN(2)) == {
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}


def test_selection_filters_component():
    s = make_structure(["a", "b"], {"R": 2, "A": 1}, {"A": {("a",)}})
    assert dlr_role_extension(s, Sel(1, 2, AtomicConcept("A"))) == {
        ("a", "a"), ("a", "b")}


def test_role_negation_relative_to_top():
    s = make_structure(["a", "b"], {"R": 2}, {"R": {("a", "b")}})
    assert dlr_role_extension(s, AndR(AtomicRole("R"), NotR(AtomicRole("R")))) == frozenset()
    assert dlr_role_extension(s, NotR(AtomicRole("R"))) == {
        ("a", "a"), ("b", "a"), ("b", "b")}


def test_role_intersection_arity_mismatch_is_an_error():
    s = make_structure(["a"], {"R": 2, "T": 3})
    with pytest.raises(ArityError):
        dlr_role_extension(s, AndR(AtomicRole("R"), AtomicRole("T")))
    # the arity check precedes the missing top2 relation of explicit mode
    with pytest.raises(ArityError):
        dlr_role_extension(s, AndR(TopN(2), TopN(3)), "explicit")


def test_projection():
    s = make_structure(["a", "b", "c"], {"T": 3}, {"T": {("a", "b", "c")}})
    assert dlr_binrel_extension(s, Proj(AtomicRole("T"), 2, 3)) == {("b", "c")}
    with pytest.raises(ArityError):
        dlr_binrel_extension(s, Proj(AtomicRole("T"), 2, 4))


def test_composition():
    s = make_structure(["a", "b", "c"], {"R": 2}, {"R": {("a", "b"), ("b", "c")}})
    e = Comp(Proj(AtomicRole("R"), 1, 2), Proj(AtomicRole("R"), 1, 2))
    assert dlr_binrel_extension(s, e) == {("a", "c")}


def test_star_contains_identity():
    rng = random.Random(1)
    s = gen_structure(rng, DLR_VOCAB, max_size=4)
    e = gen_dlr_binrel(rng, 2)
    ext = dlr_binrel_extension(s, Star(e))
    assert {(d, d) for d in s.domain} <= ext


def _closure_oracle(pairs, domain):
    # reflexive-transitive closure by breadth-first reachability
    out = set()
    adjacency = {}
    for a, b in pairs:
        adjacency.setdefault(a, set()).add(b)
    for start in domain:
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adjacency.get(v, ()):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        out.update((start, v) for v in seen)
    return frozenset(out)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_star_matches_reachability_oracle(seed):
    rng = random.Random(seed)
    s = gen_structure(rng, DLR_VOCAB, max_size=4)
    e = gen_dlr_binrel(rng, rng.randint(0, 2))
    base = dlr_binrel_extension(s, e)
    assert dlr_binrel_extension(s, Star(e)) == _closure_oracle(base, s.domain)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_star_idempotent(seed):
    rng = random.Random(seed)
    s = gen_structure(rng, DLR_VOCAB, max_size=4)
    e = gen_dlr_binrel(rng, rng.randint(0, 2))
    once = dlr_binrel_extension(s, Star(e))
    twice = dlr_binrel_extension(s, Star(Star(e)))
    assert once == twice


def test_at_most_counts_tuples():
    s = make_structure(["a", "b", "c"], {"S": 2}, {"S": {("a", "c"), ("b", "c")}})
    ext = dlr_concept_extension(s, AtMost(1, 2, AtomicRole("S")))
    assert ext == {"a", "b"}  # everything except the doubly-hit c


def test_at_most_on_clique_unions():
    for k in (2, 3):
        first = disjoint_copies(gen_clique(k), k + 1)
        second = disjoint_copies(gen_clique(k + 1), k)
        concept = AtMost(k - 1, 2, AtomicRole("R"))
        assert dlr_concept_extension(first, concept) == frozenset(first.domain)
        assert dlr_concept_extension(second, concept) == frozenset()


def test_exists_star_covers_base_concept():
    rng = random.Random(5)
    s = gen_structure(rng, DLR_VOCAB, max_size=4)
    e = gen_dlr_binrel(rng, 1)
    a = dlr_concept_extension(s, AtomicConcept("A"))
    assert a <= dlr_concept_extension(s, ExistsE(Star(e), AtomicConcept("A")))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_at_most_zero_equals_negated_position_existential(seed):
    rng = random.Random(seed)
    s = gen_structure(rng, DLR_VOCAB, max_size=4)
    role = AtomicRole(rng.choice(("R", "T")))
    i = rng.randint(1, 2 if role.name == "R" else 3)
    lhs = dlr_concept_extension(s, AtMost(0, i, role))
    rhs = dlr_concept_extension(s, NotC(ExistsProj(i, role)))
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_at_most_monotone_in_the_bound(seed):
    rng = random.Random(seed)
    s = gen_structure(rng, DLR_VOCAB, max_size=4)
    r = AtomicRole(rng.choice(("R", "T")))
    from unifrag.dlr import dlr_role_arity
    i = rng.randint(1, dlr_role_arity(r, DLR_VOCAB))
    k = rng.randint(0, 3)
    kk = k + rng.randint(0, 3)
    small = dlr_concept_extension(s, AtMost(k, i, r))
    large = dlr_concept_extension(s, AtMost(kk, i, r))
    assert small <= large


def test_position_existential_is_complement_of_at_most_zero():
    s = make_structure(["a", "b"], {"R": 2}, {"R": {("a", "b")}})
    lhs = dlr_concept_extension(s, ExistsProj(2, AtomicRole("R")))
    rhs = frozenset(s.domain) - dlr_concept_extension(s, AtMost(0, 2, AtomicRole("R")))
    assert lhs == rhs == {"b"}


# ---------------------------------------------------------------------------
# Explicit top mode and disjoint-copy closure
# ---------------------------------------------------------------------------

EXPLICIT_VOCAB = Vocabulary({"R": 2, "T": 3, "A": 1, "B": 1, "top2": 2, "top3": 3})


def _with_explicit_tops(rng, max_size=3):
    base = gen_structure(rng, Vocabulary({"R": 2, "T": 3, "A": 1, "B": 1}), max_size)
    rels = {name: set(t) for name, t in base.relations.items()}
    rels["top2"] = set(itertools.product(base.domain, repeat=2))
    rels["top3"] = set(itertools.product(base.domain, repeat=3))
    return make_structure(base.domain, dict(EXPLICIT_VOCAB.symbols), rels)


def test_explicit_top_must_cover():
    s = make_structure(["a", "b"], {"R": 2, "top2": 2},
                       {"R": {("a", "b")}, "top2": {("a", "a")}})
    with pytest.raises(StructureError, match="cover"):
        dlr_role_extension(s, TopN(2), topn="explicit")


def test_explicit_top_missing_declaration():
    s = make_structure(["a"], {"R": 2})
    with pytest.raises(StructureError, match="top2"):
        dlr_role_extension(s, TopN(2), topn="explicit")


def test_topn_covers_declared_relations_in_both_modes():
    rng = random.Random(9)
    s = _with_explicit_tops(rng)
    for mode in ("delta", "explicit"):
        top2 = dlr_role_extension(s, TopN(2), topn=mode)
        assert s.rel("R") <= top2


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_disjoint_copy_closure(seed):
    # the built-in tops of a disjoint double are the tagged copies of the
    # factor's tops, so they are read from the structure (explicit mode)
    rng = random.Random(seed)
    s = _with_explicit_tops(rng)
    double = disjoint_union(s, s)
    c = gen_dlr_concept(rng, rng.randint(1, 3), vocab=EXPLICIT_VOCAB)
    single = dlr_concept_extension(s, c, topn="explicit")
    expected = tag_elements(single, 1) | tag_elements(single, 2)
    assert dlr_concept_extension(double, c, topn="explicit") == expected


def test_delta_convention_breaks_closure_via_role_negation():
    # the counterexample that forces the tagged-top reading above
    loop = make_structure(["u"], {"R": 2}, {"R": {("u", "u")}})
    c = ExistsProj(1, NotR(AtomicRole("R")))
    assert dlr_concept_extension(loop, c, topn="delta") == frozenset()
    double = disjoint_union(loop, loop)
    assert dlr_concept_extension(double, c, topn="delta") != frozenset()


# ---------------------------------------------------------------------------
# Text grammar
# ---------------------------------------------------------------------------

def test_parse_print_round_trip():
    texts = [
        "(<=1 [$2] R)",
        "exists[$2] ~R",
        "exists (R|$1,$2 u eps) . A",
        "exists (R|$1,$2 o T|$3,$1) . (A & ~B)",
        "exists eps* . A",
        "~exists ($1/3:(A & top1))|$2,$3 . top1",
        "(<=0 [$1] (T & ~T))",
    ]
    for text in texts:
        c = parse_dlr_concept(text)
        assert parse_dlr_concept(print_dlr_concept(c)) == c
    # top1 and eps are the dl node classes, spelt in this grammar's words
    shared = ExistsE(dl.Epsilon(), dl.TopC())
    assert parse_dlr_concept("exists eps . top1") == shared
    assert print_dlr_concept(shared) == "exists eps . top1"


def test_parse_star_postfix():
    c = parse_dlr_concept("exists R|$1,$2* . A")
    assert c == ExistsE(Star(Proj(AtomicRole("R"), 1, 2)), AtomicConcept("A"))


def test_parse_union_and_comp():
    c = parse_dlr_concept("exists (eps u (eps o eps)) . top1")
    assert c == ExistsE(UnionE(Eps(), Comp(Eps(), Eps())), Top1())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_printer_parser_round_trip_on_generated_concepts(seed):
    rng = random.Random(seed)
    c = gen_dlr_concept(rng, rng.randint(0, 3))
    assert parse_dlr_concept(print_dlr_concept(c)) == c


def test_backtracking_reports_the_error_that_got_furthest():
    # the composition reading fails at the 0 index, the projection reading
    # already at the '|'; the former is the one worth reporting
    with pytest.raises(ParseError, match="1:17: projection indices are 1-based"):
        parse_dlr_concept("exists (R|$0,$1 o eps) . A")
    with pytest.raises(ParseError, match="1:23: projection indices are 1-based"):
        parse_dlr_concept("exists (R & ~R)|$1,$0 . A")
