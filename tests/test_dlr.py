import copy
import gc
import itertools
import random
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifrag import (ArityError, ParseError, StructureError, VocabularyError,
                     disjoint_union, dl, dlr, make_structure)
from unifrag.dlr import (AndC, AndR, AtMost, AtomicConcept, AtomicRole, Comp, Eps,
                         ExistsE, ExistsProj, NotC, NotR, Proj, Sel, Star,
                         Top1, TopN, UnionE, dlr_binrel_extension,
                         dlr_concept_extension, operators_used, parse_dlr_concept,
                         print_dlr_concept)
from unifrag.lab import disjoint_copies, gen_clique
from unifrag.semantics import satisfaction_set
from unifrag.syntax import Vocabulary
from unifrag.translate import dlr0_to_fu1

from strategies import (DLR_VOCAB, dlr_role_extension, gen_dlr_binrel, gen_dlr_concept,
                        gen_structure, tag_elements)


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
    from strategies import dlr_role_arity
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


def test_explicit_top_of_the_wrong_arity():
    s = make_structure(["a"], {"R": 2, "top2": 3})
    with pytest.raises(StructureError, match="^'top2' must have arity 2$"):
        dlr_role_extension(s, TopN(2), topn="explicit")


def test_topn_covers_declared_relations_in_both_modes():
    rng = random.Random(9)
    s = _with_explicit_tops(rng)
    for mode in ("delta", "explicit"):
        top2 = dlr_role_extension(s, TopN(2), topn=mode)
        assert s.relations["R"] <= top2


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


def _with_partial_tops(rng, max_size=3):
    """A structure whose top<n> covers its n-ary relations and, whenever
    they leave a tuple of domain^n out, misses at least one such tuple."""
    base = gen_structure(rng, DLR_VOCAB, max_size)
    rels = {name: set(t) for name, t in base.relations.items()}
    for n, name in ((2, "R"), (3, "T")):
        outside = [t for t in itertools.product(base.domain, repeat=n) if t not in rels[name]]
        kept = {t for t in outside if rng.random() < 0.5}
        if outside and len(kept) == len(outside):
            kept.discard(rng.choice(outside))
        rels[f"top{n}"] = rels[name] | kept
    return make_structure(base.domain, dict(EXPLICIT_VOCAB.symbols), rels)


def test_explicit_mode_with_partial_tops_matches_the_translation():
    # relative negation and selection, read against top relations that are
    # proper subsets of domain^n, agree with the explicit-mode translation
    rng = random.Random(2611)
    used: set = set()
    proper = differs = 0
    for _ in range(300):
        s = _with_partial_tops(rng)
        c = gen_dlr_concept(rng, rng.randint(1, 4), vocab=EXPLICIT_VOCAB, core_only=True)
        used |= operators_used(c)
        proper += len(s.relations["top3"]) < len(s.domain) ** 3
        f = dlr0_to_fu1(c, EXPLICIT_VOCAB, topn="explicit")
        ext = dlr_concept_extension(s, c, "explicit")
        assert ext == satisfaction_set(s, f).elements
        differs += ext != dlr_concept_extension(s, c, "delta")
    assert {Sel, NotR, AndR, TopN} <= used
    assert proper > 200 and differs >= 5


@pytest.mark.parametrize("text", ["exists[$1] ~(($1/3:A) & ~R)",
                                  "exists[$2] ~(($1/3:A) & ($3/3:A))"])
def test_the_complement_of_a_filtered_complement_agrees_with_the_translation(text):
    # ~ of a complement cut by a filter that is not one bare selection lists
    # the product of its filters' sets, in both top modes
    vocab = Vocabulary({"R": 3, "A": 1, "top3": 3})
    c = parse_dlr_concept(text)
    rng = random.Random(3)
    for _ in range(100):
        base = gen_structure(rng, Vocabulary({"R": 3, "A": 1}), 3)
        extra = {t for t in itertools.product(base.domain, repeat=3) if rng.random() < 0.5}
        s = make_structure(base.domain, dict(vocab.symbols),
                           dict(base.relations, top3=base.relations["R"] | extra))
        for mode in ("delta", "explicit"):
            f = dlr0_to_fu1(c, vocab, topn=mode)
            assert dlr_concept_extension(s, c, mode) == satisfaction_set(s, f).elements


def _boolean_role(rng, depth, names):
    """A role built by ~ and & over the atomic roles ``names``, all of one arity."""
    if depth <= 0 or rng.random() < 0.3:
        return AtomicRole(rng.choice(names))
    if rng.random() < 0.4:
        return NotR(_boolean_role(rng, depth - 1, names))
    return AndR(_boolean_role(rng, depth - 1, names), _boolean_role(rng, depth - 1, names))


def _holds(r, t, s):
    if isinstance(r, AtomicRole):
        return t in s.relations[r.name]
    if isinstance(r, NotR):
        return not _holds(r.role, t, s)
    return _holds(r.left, t, s) and _holds(r.right, t, s)


def _head_counts(s, r, names, n):
    """Tuples of domain^n in r per first component, from the tuples of the
    relations alone: a tuple in none of them is in r iff the empty one is."""
    listed = set().union(*(s.relations[name] for name in names))
    spare = len(s.domain) ** (n - 1) if _holds(r, None, s) else 0
    counts = {d: spare for d in s.domain}
    for t in listed:
        counts[t[0]] += _holds(r, t, s) - (spare > 0)
    return counts


def _forbidden(*args, **kwargs):
    raise AssertionError("a role built a power of the domain")


@pytest.mark.parametrize("size, cases", [(3, 150), (80, 12)], ids=["small", "ternary-80"])
def test_one_role_term_in_both_logics(size, cases, monkeypatch):
    # the DL and the DLR share ~ and &: exists[$1] r is exists r.(top, top),
    # and (<=k [$1] r) counts the tuples of r at each element.  At 80
    # elements, domain^3 is 512,000 tuples, and no path may list them.
    rng = random.Random(size)
    names, n = ("R", "S"), 3
    for _ in range(cases):
        dom = [f"e{i}" for i in range(rng.randint(1, size) if size < 10 else size)]
        rels = {name: {tuple(rng.choice(dom) for _ in range(n))
                       for _ in range(3 * len(dom))} for name in names}
        s = make_structure(dom, {"R": n, "S": n}, rels)
        r = _boolean_role(rng, 3, names)
        counts = _head_counts(s, r, names, n)
        if size < 10:
            listed = dl.role_extension(s, r)
            assert counts == {d: sum(t[0] == d for t in listed) for d in dom}
        else:
            monkeypatch.setattr(dl, "product", _forbidden)
            monkeypatch.setattr(dlr, "product", _forbidden, raising=False)
        k = rng.randint(0, 3)
        assert dlr_concept_extension(s, ExistsProj(1, r)) == {d for d, m in counts.items() if m}
        assert dl.concept_extension(s, dl.ExistsRole(r, (dl.TopC(),) * (n - 1))) == {
            d for d, m in counts.items() if m}
        assert dlr_concept_extension(s, AtMost(k, 1, r)) == {
            d for d, m in counts.items() if m <= k}


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
        # a '(' read from its first operand: a projection of a role group,
        # a role group of one, twice, and a union with two stars
        "exists ((R & S)|$1,$2 o T|$1,$2)* . A",
        "exists (R)|$1,$2 . A",
        "exists ((R))|$1,$2 . A",
        "exists (eps u R|$1,$2)** . A",
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
    # a '(' in relation position is read from its first operand: in the
    # first text a projection, so the '(' opens a composition, and the
    # projection fails at its 0 index; in the second a role that '&'
    # follows, so the '(' opens a role group, whose projection fails at
    # the 0 index too
    with pytest.raises(ParseError, match="1:17: projection indices are 1-based"):
        parse_dlr_concept("exists (R|$0,$1 o eps) . A")
    with pytest.raises(ParseError, match="1:23: projection indices are 1-based"):
        parse_dlr_concept("exists (R & ~R)|$1,$0 . A")


def _nested_selections(n):
    return "exists (($1/2: " * n + "A" + ") & R)|$1,$2 . A" * n


def test_nested_selections_parse_in_linear_time():
    # each '(' of a role group in relation position was once read as a
    # composition first and again as a projection, doubling per level
    start = time.perf_counter()
    c = parse_dlr_concept(_nested_selections(16))
    assert time.perf_counter() - start < 1.0
    assert parse_dlr_concept(print_dlr_concept(c)) == c
    assert isinstance(parse_dlr_concept(_nested_selections(40)), ExistsE)


@pytest.mark.parametrize("shape, deepest", [
    (lambda n: "exists " + "(eps o " * n + "eps" + ")" * n + " . A", 99),
    (lambda n: "exists " + "(" * n + "eps" + " o eps)" * n + " . A", 99),
    (lambda n: "exists " + "(" * n + "R" + " & R)" * n + "|$1,$2 . A", 197),
    (_nested_selections, 49),
    (lambda n: "exists " + "(" * n + "R|$1,$2*" + " o eps)*" * n + " . A", 65),
], ids=["right-compositions", "left-compositions", "role-groups", "selections",
        "left-compositions-with-stars"])
def test_the_deepest_nesting_of_each_shape(shape, deepest):
    # one level more is refused; the deepest prints, parses back and, in
    # the core, translates to a formula of the same extension
    with pytest.raises(ParseError, match="deeper than"):
        parse_dlr_concept(shape(deepest + 1))
    c = parse_dlr_concept(shape(deepest))
    assert parse_dlr_concept(print_dlr_concept(c)) == c
    s = make_structure(["a", "b"], {"R": 2, "A": 1}, {"R": {("a", "b")}, "A": {("b",)}})
    if Star not in operators_used(c):
        f = dlr0_to_fu1(c, s.vocabulary)
        assert satisfaction_set(s, f).elements == dlr_concept_extension(s, c)


# ---------------------------------------------------------------------------
# The compiled-concept cache
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    """What a call answers, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)


_VOCAB_STRUCTURES = [
    make_structure(["a", "b"], {"R": 2, "A": 1, "top2": 2},
                   {"R": {("a", "b")}, "A": {("b",)}, "top2": {("a", "b"), ("b", "b")}}),
    make_structure(["a", "b"], {"R": 2, "A": 1, "top2": 2},           # an equal vocabulary,
                   {"R": {("a", "b")}, "top2": {("a", "a")}}),        # top2 not covering R
    make_structure(["a", "b"], {"R": 2, "A": 1}, {"R": {("b", "a")}}),  # no top2
    make_structure(["a", "b"], {"R": 2}, {"R": {("a", "b")}}),          # lacks A
    make_structure(["a", "b"], {"R": 3, "A": 1}, {"A": {("b",)}}),     # R is ternary
]


@pytest.mark.parametrize("mode", ["delta", "explicit"])
def test_one_concept_over_differing_vocabularies(mode):
    c = parse_dlr_concept("(exists (R|$1,$2 o ~R|$2,$1) . A & (<=0 [$2] ($1/2:A)))")
    e = Comp(Proj(NotR(AtomicRole("R")), 1, 2), Proj(Sel(2, 2, AtomicConcept("A")), 2, 1))
    r = AndR(NotR(AtomicRole("R")), Sel(1, 2, AtomicConcept("A")))
    calls = ((dlr_concept_extension, c), (dlr_binrel_extension, e), (dlr_role_extension, r))
    # every answer of a fresh copy first, so that the calls below keep one
    # object cached across the structures
    expected = [[_outcome(fn, s, copy.deepcopy(term), mode) for fn, term in calls]
                for s in _VOCAB_STRUCTURES]
    assert {type(x[0]) for x in expected} == {frozenset, tuple}  # answers and errors
    for order in itertools.permutations(range(len(_VOCAB_STRUCTURES))):
        for which, (fn, term) in enumerate(calls):
            for i in order:
                for _ in range(2):  # a repeated call is served from the cache
                    assert _outcome(fn, _VOCAB_STRUCTURES[i], term, mode) == expected[i][which]


def test_one_concept_alternating_top_modes():
    s = _VOCAB_STRUCTURES[0]
    c = ExistsProj(1, NotR(AtomicRole("R")))
    answers = {"delta": {"a", "b"}, "explicit": {"b"}}
    for mode in ["delta", "explicit"] * 3:
        assert dlr_concept_extension(s, c, mode) == answers[mode]


def test_term_errors_come_before_structure_errors():
    # top2 does not cover R and Q is undeclared: a term is checked against
    # the vocabulary before the structure is read, wherever its top2 stands
    s = _VOCAB_STRUCTURES[1]
    terms = [AndC(ExistsProj(1, TopN(2)), AtomicConcept("Q")),
             AndC(ExistsProj(1, NotR(AtomicRole("R"))), ExistsProj(3, AtomicRole("R"))),
             ExistsE(Comp(Proj(TopN(2), 1, 2), Proj(AtomicRole("R"), 1, 3)), Top1()),
             ExistsProj(1, AndR(Sel(1, 2, Top1()), Sel(2, 2, AtomicConcept("Q")))),
             AndC(AtomicConcept("Q"), ExistsProj(1, TopN(2))),
             ExistsE(Comp(Proj(AtomicRole("R"), 1, 3), Proj(TopN(2), 1, 2)), Top1())]
    errors = [VocabularyError, ArityError, ArityError, VocabularyError, VocabularyError, ArityError]
    for _ in range(2):  # the second time from the cache
        for mode in ["delta", "explicit"]:
            for c, error in zip(terms, errors):
                with pytest.raises(error):
                    dlr_concept_extension(s, c, mode)
    with pytest.raises(StructureError, match="does not cover"):
        dlr_concept_extension(s, ExistsProj(1, TopN(2)), "explicit")


def test_one_object_as_a_term_of_two_kinds():
    s = _VOCAB_STRUCTURES[0]
    eps = Eps()
    for _ in range(2):  # each call finds the other kind in the cache
        assert dlr_binrel_extension(s, eps) == {("a", "a"), ("b", "b")}
        with pytest.raises(TypeError, match="not a concept"):
            dlr_concept_extension(s, eps)


def test_no_structure_outlives_its_call():
    s = make_structure(["a", "b"], {"R": 2, "A": 1}, {"R": {("a", "b")}})
    refs = [weakref.ref(s), weakref.ref(s.relations["R"])]
    assert dl.concept_extension(s, dl.parse_concept("exists ~R.(~A)")) == {"a", "b"}
    assert dlr_concept_extension(s, parse_dlr_concept("exists R|$1,$2 . ~A")) == {"a"}
    del s
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_threads_share_compiled_concepts_safely():
    # each thread has its own vocabulary, so the threads keep evicting one
    # another's compiled terms from the two caches
    dl_c = dl.parse_concept("(exists R.(~A) & ~exists ~perm[2,1]R.(A))")
    dlr_c = parse_dlr_concept("(exists (R|$1,$2 o R|$2,$1) . A & exists[$1] ~R)")
    structures = []
    for i in range(4):
        rng = random.Random(i)
        dom = [f"t{i}e{j}" for j in range(3 + i)]
        edges = {(u, v) for u in dom for v in dom if rng.random() < 0.4}
        vocab = {"R": 2, "A": 1, f"X{i}": 1, "top2": 2}
        structures.append(make_structure(dom, vocab, {"R": edges, "A": {(dom[i % 3],)},
                                                      "top2": edges | {(dom[0], dom[0])}}))
    calls = [lambda s: dl.concept_extension(s, dl_c),
             lambda s: dlr_concept_extension(s, dlr_c),
             lambda s: dlr_concept_extension(s, dlr_c, "explicit")]
    expected = [[_outcome(call, s) for call in calls] for s in structures]
    got: dict[int, list] = {}

    start = threading.Barrier(4, timeout=60)

    def work(i):
        s, answers = structures[i], []
        start.wait()
        for _ in range(150):
            answers.append([_outcome(call, s) for call in calls])
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
        assert got[i] == [expected[i]] * 150
