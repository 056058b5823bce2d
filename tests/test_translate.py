import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifrag import (ArityError, DnfLimitError, FragmentGateError, ParseError, StructureError,
                     Vocabulary, VocabularyError, evaluate, make_structure, parse_formula,
                     print_formula, satisfaction_set)
from unifrag import dl, dlr
from unifrag.fragments import FragmentId, check_fragment
from unifrag.syntax import (And, Atom, Equals, ExistsBlock, ForallBlock, Not, Top,
                            walk)
from unifrag.translate import (Disjunct, dl_to_fu1, dlr0_to_fu1,
                               eliminate_comp_union, fu1_to_dl, to_dnf_block)

from strategies import (DLR_VOCAB, VOCAB, dlr_role_extension, enum_structures,
                        gen_dl_concept, gen_dlr_concept, gen_formula, gen_structure,
                        literal_formula)


# ---------------------------------------------------------------------------
# DNF blocks
# ---------------------------------------------------------------------------

def test_dnf_distributes_disjunction():
    f = parse_formula("E y. (R(x,y) & (P(y) | Q(y)))")
    block = to_dnf_block(f)
    assert len(block.disjuncts) == 2
    assert block.free_var == "x"
    for d in block.disjuncts:
        assert {frozenset(l.atom.args) for l in d.relation_literals} == {frozenset("xy")}


def test_dnf_single_atom_has_no_substantive_unary_parts():
    block = to_dnf_block(parse_formula("E y. R(x,y)"))
    assert len(block.disjuncts) == 1
    d = block.disjuncts[0]
    # saturation pads every uniform variable with true()
    assert all(isinstance(chi, Top) for _, chi in d.unary_parts)
    assert {v for v, _ in d.unary_parts} == {"x", "y"}


def test_dnf_two_uniform_disjuncts():
    f = parse_formula("E y z. ((~R(x,y,z) | T(z,y,x,x)) & P(z))")
    block = to_dnf_block(f)
    assert len(block.disjuncts) == 2
    for d in block.disjuncts:
        sets = {frozenset(l.atom.args) for l in d.relation_literals}
        assert sets == {frozenset("xyz")}


def test_dnf_rejects_non_uniform_input():
    with pytest.raises(FragmentGateError, match="uniformity"):
        to_dnf_block(parse_formula("E y z. (S(x,y) & S(y,z))"))


def test_dnf_rejects_two_free_variables():
    with pytest.raises(FragmentGateError):
        to_dnf_block(parse_formula("E y. R(x,y,z)"))
    with pytest.raises(FragmentGateError, match="free variables"):  # a leaf with x and y free
        to_dnf_block(parse_formula("E y. (P(y) & E z. R(x,y,z))"))


def test_dnf_semantic_equivalence():
    f = parse_formula("E y z. ((~R(x,y,z) | T(z,y,x,x)) & P(z))")
    block = to_dnf_block(f)
    rng = random.Random(0)
    vocab = Vocabulary({"R": 3, "T": 4, "P": 1})
    for _ in range(150):
        s = gen_structure(rng, vocab, max_size=3)
        for x in s.domain:
            want = _eval_with(s, f, x)
            got = any(_eval_disjunct(s, block, d, x) for d in block.disjuncts)
            assert want == got


def _eval_with(s, f, x):
    from unifrag import evaluate
    return evaluate(s, {"x": x}, f)


def _eval_disjunct(s, block, d: Disjunct, x):
    from unifrag import evaluate
    parts = [literal_formula(lit) for lit in d.relation_literals + d.equality_literals]
    parts += [chi for _, chi in d.unary_parts]
    body = parts[0]
    for p in parts[1:]:
        body = And(body, p)
    return evaluate(s, {"x": x}, ExistsBlock(block.variables, body))


def _clauses(k):
    return " & ".join(f"(P{i}(y) | R(x,y))" for i in range(k))


@pytest.mark.parametrize("k", [10, 30])
def test_dnf_absorbs_subsumed_conjunctions(k):
    # every mixed choice contains R(x,y), so E y. R(x,y) | E y. (P0(y) & ...)
    block = to_dnf_block(parse_formula(f"E y. ({_clauses(k)})"))
    assert [len(d.relation_literals) for d in block.disjuncts] == [0, 1]
    assert [len(d.unary_parts) for d in block.disjuncts] == [k, 2]


def _choices(letter, k):
    return " & ".join(f"({letter}{i}(y) | {letter.lower()}{i}(y))" for i in range(k))


@pytest.mark.parametrize("shared", ["R(x,y) & ", ""])
def test_dnf_unions_over_the_limit_are_refused_quickly(shared):
    # 2^10 + 2^11 irreducible disjuncts, over DNF_LIMIT; sides that share a
    # leaf were once compared conjunction by conjunction before the check
    f = parse_formula(f"E y. (({shared}{_choices('P', 10)}) | ({shared}{_choices('Q', 11)}))")
    times = []
    for _ in range(3):
        started = time.perf_counter()
        with pytest.raises(DnfLimitError, match="into 3072 alternatives"):
            to_dnf_block(f)
        times.append(time.perf_counter() - started)
    assert min(times) < 0.05


def test_dnf_drops_contradictory_conjunctions():
    f = parse_formula("E y. (R(x,y) & ~R(x,y))")
    assert to_dnf_block(f).disjuncts == ()
    assert fu1_to_dl(f) == dl.NotC(dl.TopC())


def _signed_leaves(d: Disjunct) -> frozenset:
    """The conjunction a disjunct was built from, without the padding."""
    out = {(lit.positive, lit.atom) for lit in d.relation_literals + d.equality_literals}
    for _, chi in d.unary_parts:
        if isinstance(chi, Not):
            out.add((False, chi.body))
        elif not isinstance(chi, Top):  # Top is never a leaf
            out.add((True, chi))
    return frozenset(out)


ABSORB_VOCAB = {"R": 2, "P": 1}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_dnf_is_absorbed_and_extension_equal(seed):
    # a small vocabulary makes repeated and complementary leaves common
    rng = random.Random(seed)
    f = gen_formula(rng, FragmentId.FU1, depth=rng.randint(2, 4),
                    vocab=Vocabulary(ABSORB_VOCAB))
    for g in walk(f):
        if isinstance(g, (ExistsBlock, ForallBlock)):
            body = g.body if isinstance(g, ExistsBlock) else Not(g.body)
            conjs = [_signed_leaves(d) for d in to_dnf_block(ExistsBlock(g.vars, body)).disjuncts]
            for i, a in enumerate(conjs):
                assert not any((not p, leaf) in a for p, leaf in a)
                assert not any(b <= a for b in conjs[:i] + conjs[i + 1:])
    c = fu1_to_dl(f)
    for s in enum_structures(ABSORB_VOCAB, 3):
        assert dl.concept_extension(s, c) == satisfaction_set(s, f).elements, \
            (print_formula(f), dl.print_concept(c))


# ---------------------------------------------------------------------------
# FU1 -> DL
# ---------------------------------------------------------------------------

def test_unary_atom_translates_to_atomic_concept():
    assert fu1_to_dl(parse_formula("P(x)")) == dl.AtomicConcept("P")


def test_guarded_exists_translates_to_role_existential():
    c = fu1_to_dl(parse_formula("E y. (R(x,y) & P(y))"))
    assert c == dl.ExistsRole(dl.AtomicRole("R"), (dl.AtomicConcept("P"),))


def test_diagonal_atom_uses_identity_intersection():
    c = fu1_to_dl(parse_formula("R(x,x,x)"))
    s = make_structure(["a", "b"], {"R": 3},
                       {"R": {("a", "a", "a"), ("a", "b", "a")}})
    assert dl.concept_extension(s, c) == {"a"}
    s2 = make_structure(["a"], {"R": 3})
    assert dl.concept_extension(s2, c) == frozenset()


def test_sentence_embeds_via_universal_role():
    c = fu1_to_dl(parse_formula("E x y. ~R(x,y)"))
    loop = make_structure(["a"], {"R": 2}, {"R": {("a", "a")}})
    two = make_structure(["a", "b"], {"R": 2}, {"R": {("a", "a"), ("b", "b")}})
    assert dl.concept_extension(loop, c) == frozenset()
    assert dl.concept_extension(two, c) == {"a", "b"}


def test_a_false_disjunct_is_left_out():
    assert fu1_to_dl(parse_formula("(P(x) | false)")) == dl.AtomicConcept("P")
    assert fu1_to_dl(parse_formula("(false | false)")) == dl.NotC(dl.TopC())


def test_fu1_gate_rejects_violations():
    with pytest.raises(FragmentGateError, match="UNIFORMITY"):
        fu1_to_dl(parse_formula("E y z. (S(x,y) & S(y,z))"))
    with pytest.raises(FragmentGateError):
        fu1_to_dl(parse_formula("E y z. (R(y,z,x) & ~(x = y))"))  # U1, not FU1
    with pytest.raises(FragmentGateError, match="at most one free variable"):
        fu1_to_dl(parse_formula("(P(x) & P(y))"))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_fu1_to_dl_oracle(seed):
    rng = random.Random(seed)
    f = gen_formula(rng, FragmentId.FU1, depth=rng.randint(1, 4))
    c = fu1_to_dl(f)
    for _ in range(12):
        s = gen_structure(rng, VOCAB, max_size=rng.randint(1, 3))
        assert dl.concept_extension(s, c) == satisfaction_set(s, f).elements, \
            (print_formula(f), dl.print_concept(c))


# ---------------------------------------------------------------------------
# DL -> FU1
# ---------------------------------------------------------------------------

def test_atomic_concept_to_formula():
    assert dl_to_fu1(dl.AtomicConcept("P"), VOCAB) == Atom("P", ("x",))


def test_nary_existential_to_block():
    c = dl.ExistsRole(dl.AtomicRole("T"), (dl.AtomicConcept("P"), dl.AtomicConcept("Q")))
    f = dl_to_fu1(c, VOCAB)
    assert f == ExistsBlock(
        ("y1", "y2"),
        And(And(Atom("T", ("x", "y1", "y2")), Atom("P", ("y1",))),
            Atom("Q", ("y2",))))


def test_negated_role_existential_shape():
    c = dl.NotC(dl.ExistsRole(dl.NotRole(dl.AtomicRole("R")), (dl.AtomicConcept("P"),)))
    f = dl_to_fu1(c, VOCAB)
    assert f == Not(ExistsBlock(
        ("y1",), And(Not(Atom("R", ("x", "y1"))), Atom("P", ("y1",)))))


def test_top_translates_to_true_in_both_logics():
    assert dl_to_fu1(dl.TopC(), VOCAB) == dlr0_to_fu1(dlr.Top1(), DLR_VOCAB) == Top()
    # so a top argument of an existential adds no conjunct
    c = dl.ExistsRole(dl.AtomicRole("R"), (dl.TopC(),))
    assert dl_to_fu1(c, VOCAB) == ExistsBlock(("y1",), Atom("R", ("x", "y1")))


def test_dl_to_fu1_always_passes_the_checker():
    rng = random.Random(17)
    for _ in range(150):
        c = gen_dl_concept(rng, rng.randint(1, 3))
        f = dl_to_fu1(c, VOCAB)
        assert check_fragment(f, FragmentId.FU1).verdict, dl.print_concept(c)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_up_to_semantics(seed):
    rng = random.Random(seed)
    c = gen_dl_concept(rng, rng.randint(1, 2))
    c2 = fu1_to_dl(dl_to_fu1(c, VOCAB))
    for _ in range(10):
        s = gen_structure(rng, VOCAB, max_size=3)
        assert dl.concept_extension(s, c) == dl.concept_extension(s, c2)


RESERVED_NAMES_VOCAB = Vocabulary({"R": 2, "T": 3, "A": 1, "E": 1, "true": 1, "false": 1})


def test_translations_over_reserved_concept_names_parse_back():
    # A(y1), E(x) or true(x) in a translation is an atom, not a block or a constant
    rng = random.Random(29)
    for _ in range(60):
        c = gen_dl_concept(rng, rng.randint(1, 3), RESERVED_NAMES_VOCAB)
        f = dl_to_fu1(c, RESERVED_NAMES_VOCAB)
        assert parse_formula(print_formula(f)) == f, dl.print_concept(c)
        c = gen_dlr_concept(rng, rng.randint(1, 3), RESERVED_NAMES_VOCAB, core_only=True)
        f = dlr0_to_fu1(c, RESERVED_NAMES_VOCAB)
        assert parse_formula(print_formula(f)) == f, dlr.print_dlr_concept(c)
    assert parse_formula("E y1. (R(x,y1) & A(y1))") == ExistsBlock(
        ("y1",), And(Atom("R", ("x", "y1")), Atom("A", ("y1",))))


# ---------------------------------------------------------------------------
# Composition and union elimination
# ---------------------------------------------------------------------------

def test_union_elimination_shape():
    c = dlr.ExistsE(dlr.UnionE(dlr.Eps(), dlr.Eps()), dlr.AtomicConcept("A"))
    out = eliminate_comp_union(c)
    assert not dlr.operators_used(out) & {dlr.Comp, dlr.UnionE}
    # a union of identical branches folds to a disjunction of existentials
    assert out == dlr.or_dlr(dlr.ExistsE(dlr.Eps(), dlr.AtomicConcept("A")),
                             dlr.ExistsE(dlr.Eps(), dlr.AtomicConcept("A")))


def test_composition_elimination_shape():
    e1 = dlr.Proj(dlr.AtomicRole("R"), 1, 2)
    e2 = dlr.Proj(dlr.AtomicRole("R"), 2, 1)
    c = dlr.ExistsE(dlr.Comp(e1, e2), dlr.AtomicConcept("A"))
    assert eliminate_comp_union(c) == dlr.ExistsE(
        e1, dlr.ExistsE(e2, dlr.AtomicConcept("A")))


def test_identity_composition_is_extension_neutral():
    rng = random.Random(23)
    inner = dlr.Proj(dlr.AtomicRole("R"), 1, 2)
    c1 = dlr.ExistsE(dlr.Comp(dlr.Eps(), inner), dlr.AtomicConcept("A"))
    c2 = dlr.ExistsE(inner, dlr.AtomicConcept("A"))
    out = eliminate_comp_union(c1)
    for _ in range(60):
        s = gen_structure(rng, DLR_VOCAB, max_size=3)
        assert (dlr.dlr_concept_extension(s, out)
                == dlr.dlr_concept_extension(s, c1)
                == dlr.dlr_concept_extension(s, c2))


def _compositions_of_unions(n):
    term = "(eps u R|$1,$2)"
    for _ in range(n - 1):
        term = f"((eps u R|$1,$2) o {term})"
    return f"exists {term} . A"


def _nested_unions(n):
    return "exists (eps u R|$1,$2) . " * n + "A"


@pytest.mark.parametrize("text", [_compositions_of_unions, _nested_unions])
def test_dlr_blow_ups_are_refused_before_they_are_built(text):
    # n levels give 2^n composition chains, or 2^n copies of the innermost
    # body; DNF_LIMIT is 2^11
    vocab = Vocabulary({"R": 2, "A": 1})
    for n in (12, 16):
        c = dlr.parse_dlr_concept(text(n))
        started = time.perf_counter()
        with pytest.raises(DnfLimitError):
            eliminate_comp_union(c)
        with pytest.raises(DnfLimitError):
            dlr0_to_fu1(c, vocab)
        assert time.perf_counter() - started < 0.5
    f = dlr0_to_fu1(dlr.parse_dlr_concept(text(11)), vocab)
    assert check_fragment(f, FragmentId.FU1).verdict


def test_star_and_counting_are_gated():
    starry = dlr.ExistsE(dlr.Star(dlr.Eps()), dlr.AtomicConcept("A"))
    with pytest.raises(FragmentGateError):
        eliminate_comp_union(starry)
    with pytest.raises(FragmentGateError):
        dlr0_to_fu1(starry, DLR_VOCAB)
    counting = dlr.AtMost(1, 1, dlr.AtomicRole("R"))
    with pytest.raises(FragmentGateError):
        dlr0_to_fu1(counting, DLR_VOCAB)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_elimination_is_comp_union_free_and_extension_equal(seed):
    rng = random.Random(seed)
    c = gen_dlr_concept(rng, rng.randint(1, 4), core_only=True)
    out = eliminate_comp_union(c)
    assert not dlr.operators_used(out) & {dlr.Comp, dlr.UnionE}
    for _ in range(10):
        s = gen_structure(rng, DLR_VOCAB, max_size=3)
        assert (dlr.dlr_concept_extension(s, c)
                == dlr.dlr_concept_extension(s, out))


# ---------------------------------------------------------------------------
# DLR (star-free, counting-free) -> FU1
# ---------------------------------------------------------------------------

def test_position_existential_translation_shape():
    f = dlr0_to_fu1(dlr.ExistsProj(2, dlr.AtomicRole("T")), DLR_VOCAB)
    assert f == ExistsBlock(("x1", "x2"), Atom("T", ("x1", "x", "x2")))


def test_identity_existential_translation_shape():
    f = dlr0_to_fu1(dlr.ExistsE(dlr.Eps(), dlr.AtomicConcept("A")), DLR_VOCAB)
    assert f == ExistsBlock(("x1",), And(Equals("x", "x1"), Atom("A", ("x1",))))


def test_projection_translation_oracle():
    c = dlr.ExistsE(dlr.Proj(dlr.AtomicRole("T"), 1, 2), dlr.AtomicConcept("A"))
    f = dlr0_to_fu1(c, DLR_VOCAB)
    assert check_fragment(f, FragmentId.FU1).verdict
    for s in enum_structures({"T": 3, "A": 1}, 2):
        assert satisfaction_set(s, f).elements == dlr.dlr_concept_extension(s, c)


def test_same_position_projection():
    c = dlr.ExistsE(dlr.Proj(dlr.AtomicRole("R"), 2, 2), dlr.AtomicConcept("A"))
    f = dlr0_to_fu1(c, DLR_VOCAB)
    assert check_fragment(f, FragmentId.FU1).verdict
    for s in enum_structures({"R": 2, "A": 1}, 3):
        assert satisfaction_set(s, f).elements == dlr.dlr_concept_extension(s, c)


def test_selection_inside_position_existential():
    c = dlr.ExistsProj(1, dlr.Sel(1, 2, dlr.AtomicConcept("A")))
    f = dlr0_to_fu1(c, DLR_VOCAB)
    assert check_fragment(f, FragmentId.FU1).verdict
    for s in enum_structures({"R": 2, "A": 1}, 3):
        assert satisfaction_set(s, f).elements == dlr.dlr_concept_extension(s, c)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_dlr0_to_fu1_oracle(seed):
    rng = random.Random(seed)
    c = gen_dlr_concept(rng, rng.randint(1, 4), core_only=True)
    f = dlr0_to_fu1(c, DLR_VOCAB)
    assert check_fragment(f, FragmentId.FU1).verdict, dlr.print_dlr_concept(c)
    for _ in range(8):
        s = gen_structure(rng, DLR_VOCAB, max_size=3)
        assert satisfaction_set(s, f).elements == dlr.dlr_concept_extension(s, c), \
            (dlr.print_dlr_concept(c), print_formula(f))


def test_explicit_top_mode_emits_top_atoms():
    vocab = Vocabulary({"R": 2, "A": 1, "top2": 2})
    c = dlr.ExistsProj(1, dlr.NotR(dlr.AtomicRole("R")))
    f = dlr0_to_fu1(c, vocab, topn="explicit")
    assert "top2" in print_formula(f)
    assert check_fragment(f, FragmentId.FU1).verdict
    rng = random.Random(4)
    import itertools
    for _ in range(40):
        base = gen_structure(rng, Vocabulary({"R": 2, "A": 1}), max_size=3)
        rels = {n: set(t) for n, t in base.relations.items()}
        rels["top2"] = set(itertools.product(base.domain, repeat=2))
        s = make_structure(base.domain, dict(vocab.symbols), rels)
        assert (satisfaction_set(s, f).elements
                == dlr.dlr_concept_extension(s, c, topn="explicit"))


@pytest.mark.parametrize("symbols, error, message", [
    ({"R": 2, "A": 1}, VocabularyError, "unknown relation symbol 'top2'"),
    ({"R": 2, "A": 1, "top2": 3}, ArityError, "relation 'top2' has arity 3, got 2 arguments"),
])
def test_explicit_top_atoms_are_checked_against_the_vocabulary(symbols, error, message):
    # the extension refuses such a vocabulary too, once it reads the structure
    c = dlr.ExistsProj(1, dlr.NotR(dlr.AtomicRole("R")))
    with pytest.raises(error, match=f"^{message}$"):
        dlr0_to_fu1(c, Vocabulary(symbols), topn="explicit")
    s = make_structure(("a",), symbols, {})
    with pytest.raises(StructureError):
        dlr.dlr_concept_extension(s, c, topn="explicit")


@pytest.mark.parametrize("c", [
    dlr.ExistsProj(3, dlr.AtomicRole("R")),
    dlr.ExistsE(dlr.Proj(dlr.AtomicRole("R"), 1, 3), dlr.AtomicConcept("A")),
    dlr.ExistsE(dlr.Proj(dlr.NotR(dlr.AtomicRole("R")), 3, 3), dlr.Top1()),
])
def test_dlr_arity_errors_agree_between_extension_and_translation(c):
    # one rule for positions: the extension and the translation refuse the
    # same concept with the same error
    vocab = Vocabulary({"R": 2, "A": 1})
    s = make_structure(("a",), dict(vocab.symbols), {})
    with pytest.raises(ArityError) as from_extension:
        dlr.dlr_concept_extension(s, c)
    with pytest.raises(ArityError) as from_translation:
        dlr0_to_fu1(c, vocab)
    assert str(from_translation.value) == str(from_extension.value)
    assert "out of range for a role of arity 2" in str(from_extension.value)


def test_an_intersection_of_two_arities_is_refused_by_the_translation():
    c = dlr.parse_dlr_concept("exists[$1] (R & T)")
    with pytest.raises(ArityError, match="^role intersection of arities 2 and 3$"):
        dlr0_to_fu1(c, Vocabulary({"R": 2, "T": 3}))


@pytest.mark.parametrize("c", [
    dl.AtomicConcept("R"),
    dl.NotC(dl.AndC(dl.AtomicConcept("A"), dl.AtomicConcept("R"))),
])
def test_binary_symbol_as_concept_errors_agree(c):
    # dl and dlr share the concept core, so one concept object serves both
    vocab = Vocabulary({"R": 2, "A": 1})
    s = make_structure(("a",), dict(vocab.symbols), {})
    for refuse in (lambda: dl.concept_extension(s, c), lambda: dl_to_fu1(c, vocab),
                   lambda: dlr.dlr_concept_extension(s, c), lambda: dlr0_to_fu1(c, vocab)):
        with pytest.raises(VocabularyError, match="'R' has arity 2; atomic concepts must be unary"):
            refuse()


def test_dlr_shares_the_dl_concept_core():
    for dlr_name, dl_name in (("AtomicRole", "AtomicRole"), ("AtomicConcept", "AtomicConcept"),
                              ("NotC", "NotC"), ("AndC", "AndC"),
                              ("Top1", "TopC"), ("Eps", "Epsilon")):
        assert getattr(dlr, dlr_name) is getattr(dl, dl_name)
    assert dlr.or_dlr is dl.or_concept


_BOGUS_MODE = "topn mode must be one of ('delta', 'explicit'), got 'bogus'"


@pytest.mark.parametrize("refuse", [
    lambda s, vocab: dlr.dlr_concept_extension(s, dlr.AtomicConcept("A"), "bogus"),
    lambda s, vocab: dlr.dlr_concept_extension(s, dlr.ExistsProj(1, dlr.AtomicRole("R")), "bogus"),
    lambda s, vocab: dlr.dlr_binrel_extension(s, dlr.Eps(), "bogus"),
    lambda s, vocab: dlr_role_extension(s, dlr.AtomicRole("R"), "bogus"),
    lambda s, vocab: dlr0_to_fu1(dlr.AtomicConcept("A"), vocab, "bogus"),
    lambda s, vocab: dlr0_to_fu1(dlr.ExistsProj(1, dlr.AtomicRole("R")), vocab, "bogus"),
], ids=["concept", "concept-exists-proj", "binrel", "role", "dlr0_to_fu1",
        "dlr0_to_fu1-exists-proj"])
def test_unknown_top_mode_is_refused_on_entry(refuse):
    # even where no node reads the top relation, every entry checks the mode
    vocab = Vocabulary({"R": 2, "A": 1})
    s = make_structure(("a",), dict(vocab.symbols), {"A": {("a",)}})
    with pytest.raises(ValueError) as refused:
        refuse(s, vocab)
    assert str(refused.value) == _BOGUS_MODE


# ---------------------------------------------------------------------------
# The deepest input each grammar accepts
# ---------------------------------------------------------------------------

def _deepest(make, parse):
    """``make(k)`` for the largest k whose text ``parse`` accepts."""
    k = 1
    while True:
        try:
            parse(make(k + 1))
        except ParseError as e:
            assert "deeper than" in str(e)
            return make(k)
        k += 1


_DEEP_STRUCTURE = make_structure(["a", "b"], {"R": 2, "P": 1, "A": 1},
                                 {"R": {("a", "b"), ("b", "b")}, "P": {("a",)}, "A": {("b",)}})


def _through_the_fo_layers(f):
    # a translation may be too tall for the parser to read back
    assert print_formula(f)
    assert check_fragment(f, FragmentId.FU1).verdict
    return satisfaction_set(_DEEP_STRUCTURE, f).elements


def test_the_translation_of_the_deepest_dl_concept_compares_hashes_and_prints():
    # dl_to_fu1 of the deepest DL concept is about 400 levels tall, twice
    # what the parsers accept; its twin differs only in the innermost leaf
    vocab = Vocabulary({"R": 2, "A": 1})
    f, g, twin = (dl_to_fu1(dl.parse_concept("exists R.(" * 199 + leaf + ")" * 199), vocab)
                  for leaf in ("A", "A", "top"))
    assert f is not g and f == g and not f != g and hash(f) == hash(g)
    assert f != twin and not f == twin
    assert repr(f) == repr(g) != repr(twin)
    assert repr(f).count("ExistsBlock(") == 199 and repr(f).count("(") > 800


def test_the_deepest_accepted_input_runs_through_every_layer():
    s, vocab = _DEEP_STRUCTURE, _DEEP_STRUCTURE.vocabulary
    f = parse_formula(_deepest(lambda k: "~" * k + "P(x)", parse_formula))
    c = fu1_to_dl(f)
    assert _through_the_fo_layers(f) == dl.concept_extension(s, c) == {"b"}
    assert parse_formula(print_formula(f)) == f
    assert dl.parse_concept(dl.print_concept(c)) == c

    c = dl.parse_concept(_deepest(lambda k: "exists R.(" * k + "A" + ")" * k, dl.parse_concept))
    assert dl.parse_concept(dl.print_concept(c)) == c
    assert _through_the_fo_layers(dl_to_fu1(c, vocab)) == dl.concept_extension(s, c) == {"a", "b"}

    c = dlr.parse_dlr_concept(_deepest(lambda k: "exists R|$1,$2 . " * k + "A",
                                       dlr.parse_dlr_concept))
    assert dlr.parse_dlr_concept(dlr.print_dlr_concept(c)) == c
    f = dlr0_to_fu1(c, vocab)
    assert _through_the_fo_layers(f) == dlr.dlr_concept_extension(s, c) == {"a", "b"}
    assert evaluate(s, {"x": "a"}, f)
