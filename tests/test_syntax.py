import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifrag import (ArityError, Atom, CountExists, Equals, ExistsBlock,
                     ParseError, SearchReport, Top, Vocabulary, VocabularyError,
                     check_fragment, free_variables, infer_vocabulary, make_structure,
                     parse_formula, print_formula, satisfaction_set, to_dnf_block,
                     validate_formula)
from unifrag import dl, dlr, syntax
from unifrag.fragments import FragmentId
from unifrag.modelfind import find_model
from unifrag.dl import _DlParser, parse_concept, print_concept
from unifrag.dlr import _DlrParser, parse_dlr_concept, print_dlr_concept
from unifrag.syntax import (MAX_ARITY, MAX_DIGITS, MAX_NESTING, And, Implies, Node, Or,
                            _FormulaParser, _tokens, fold)

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
    assert parse_formula("E[=12] x. P(x)") == CountExists("=", 12, "x", Atom("P", ("x",)))
    bound = int("9" * MAX_DIGITS)
    assert parse_formula(f"E[<={bound}] x. P(x)").bound == bound


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


def test_chains_of_four_or_more_operands_are_balanced():
    p = [Atom("P", (f"x{i}",)) for i in range(5)]
    assert fold(And, p[:4]) == And(And(p[0], p[1]), And(p[2], p[3]))
    assert fold(And, p) == And(And(And(p[0], p[1]), p[2]), And(p[3], p[4]))
    text = "(P(x0) & P(x1) & P(x2) & P(x3) & P(x4))"
    assert parse_formula(text) == fold(And, p)
    # '->' is not associative and keeps nesting to the left
    assert parse_formula(text.replace("&", "->")) == Implies(
        Implies(Implies(Implies(p[0], p[1]), p[2]), p[3]), p[4])


def test_fold_leaves_out_units_only_when_given_one():
    p, q = Atom("P", ("x",)), Atom("Q", ("x",))
    assert fold(And, [Top(), p, Top(), q], Top()) == And(p, q)
    assert fold(And, [Top(), Top()], Top()) == Top()
    assert fold(And, [], Top()) == Top()
    assert fold(And, [Top(), p]) == And(Top(), p)


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


@pytest.mark.parametrize("parser, start, leaf", [
    (_FormulaParser, "formula", "P(x)"),
    (_DlParser, "concept", "A"),
    (_DlrParser, "concept", "A"),
    # a bad character past the refusal is never read
    (_DlrParser, "concept", "A @"),
])
def test_a_deep_refusal_reads_a_bounded_prefix(parser, start, leaf):
    """Tokens are read as the productions ask for them, one past the current
    token, so a refusal at token MAX_NESTING + 1 has read one token more."""
    p = parser("~" * 100_000 + leaf)
    with pytest.raises(ParseError, match=f"^1:{MAX_NESTING + 1}: input nests deeper than "
                                         f"{MAX_NESTING} levels$"):
        getattr(p, start)()
    assert next(p.stream).col == MAX_NESTING + 3  # the first token not read


def test_arrow_chains_block_variables_and_stars_count_against_the_bound():
    arrows = " -> ".join(["P(x)"] * 3000)
    # refused at the arrow after the first operand that makes it too tall
    with pytest.raises(ParseError, match=f"1:{7 + 8 * (MAX_NESTING + 1)}: .*deeper than"):
        parse_formula(f"({arrows})")
    parse_formula("(" + " -> ".join(["P(x)"] * MAX_NESTING) + ")")
    variables = " ".join(f"x{i}" for i in range(1000))
    with pytest.raises(ParseError, match="deeper than"):
        parse_formula(f"E {variables}. P(x0)")
    variables = " ".join(f"x{i}" for i in range(MAX_NESTING - 2))
    parse_formula(f"E {variables}. P(x0)")
    with pytest.raises(ParseError, match=f"1:{15 + MAX_NESTING - 1}: .*deeper than"):
        parse_dlr_concept("exists R|$1,$2" + "*" * 1000 + " . A")
    parse_dlr_concept("exists R|$1,$2" + "*" * (MAX_NESTING - 3) + " . A")


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
    from unifrag import StructureError, VocabularyError, parse_structure
    with pytest.raises(VocabularyError):
        Vocabulary({"=": 2})
    with pytest.raises(VocabularyError):
        Vocabulary({"R": 0})
    Vocabulary({"R": MAX_ARITY})
    with pytest.raises(VocabularyError, match="exceeds the limit"):
        Vocabulary({"R": MAX_ARITY + 1})
    wide = f"R({','.join(f'x{i}' for i in range(MAX_ARITY + 1))})"
    with pytest.raises(VocabularyError, match="exceeds the limit"):
        infer_vocabulary(parse_formula(wide))
    with pytest.raises(StructureError, match="exceeds the limit"):
        parse_structure('{"domain": ["a"], "arities": {"R": %d}}' % (MAX_ARITY + 1))
    # a JSON true is an int to Python, but no arity
    with pytest.raises(VocabularyError, match="positive integer"):
        Vocabulary({"P": True})
    with pytest.raises(StructureError, match="positive integer"):
        parse_structure('{"domain": ["a"], "arities": {"P": true}}')


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


def test_token_positions_across_lines_tabs_and_unicode_spaces():
    text = "E y.\n\t(P(y)\u00a0&\r\n\u3000 Q(y))"  # a no-break and an ideographic space
    toks = [(t.kind, t.text, t.line, t.col) for t in _tokens(text)]
    assert toks == [
        ("NAME", "E", 1, 1), ("NAME", "y", 1, 3), ("DOT", ".", 1, 4),
        ("LPAREN", "(", 2, 2), ("NAME", "P", 2, 3), ("LPAREN", "(", 2, 4),
        ("NAME", "y", 2, 5), ("RPAREN", ")", 2, 6), ("AMP", "&", 2, 8),
        ("NAME", "Q", 3, 3), ("LPAREN", "(", 3, 4), ("NAME", "y", 3, 5),
        ("RPAREN", ")", 3, 6), ("RPAREN", ")", 3, 7), ("EOF", "", 3, 8)]
    # a bad character ends the stream
    assert list(_tokens("P(x)\n\t(é"))[-1] == ("BAD", "é", 2, 3)


@pytest.mark.parametrize("parse, text, message", [
    # a parse fault before a bad character is reported first
    (parse_formula, "(P(x) & ) @", "1:9: expected a formula, found ')'"),
    (parse_formula, "P(x)\n\t(é", "2:2: unexpected trailing input '('"),
    (parse_concept, "(A & ) @", "1:6: expected concept name, found ')'"),
    (parse_dlr_concept, "(A & ) @", "1:6: expected a concept, found ')'"),
    # a bad character before any parse fault, wherever the reading stands
    (parse_formula, "P(x) @", "1:6: unexpected character '@'"),
    (parse_formula, "P @", "1:3: unexpected character '@'"),
    (parse_formula, "@", "1:1: unexpected character '@'"),
    # the last token of the parser's first batch of 32, and the first of the next
    (parse_formula, "~" * 31 + "@", "1:32: unexpected character '@'"),
    (parse_formula, "~" * 32 + "@", "1:33: unexpected character '@'"),
    (parse_concept, "A @", "1:3: unexpected character '@'"),
    (parse_dlr_concept, "A @", "1:3: unexpected character '@'"),
])
def test_the_first_fault_in_reading_order_is_reported(parse, text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


LONG = "1" + "0" * MAX_DIGITS  # one digit more than the bound


@pytest.mark.parametrize("parse, text, column", [
    (parse_formula, f"E[>={LONG}] x. P(x)", 5),
    (parse_concept, f"exists perm[1,{LONG}]R.(A)", 15),
    (parse_dlr_concept, f"exists[${LONG}] R", 9),
    (parse_dlr_concept, f"(<={LONG} [$1] R)", 4),
    (parse_dlr_concept, f"exists R|$1,${LONG} . A", 14),
    (parse_dlr_concept, f"exists[$1] top{LONG}", 15),
])
def test_integer_literals_past_the_digit_bound_are_parse_errors(parse, text, column):
    with pytest.raises(ParseError, match=f"1:{column}: integer literal longer than"):
        parse(text)


@pytest.mark.parametrize("parse, text, message", [
    (parse_formula, "E[", "1:3: expected '>=', '<=' or '=', found 'end of input'"),
    (parse_dlr_concept, "exists (eps x eps) . A", "1:13: expected 'o' or 'u', found 'x'"),
    (parse_dlr_concept, "exists (eps", "1:12: expected 'o' or 'u', found 'end of input'"),
    (parse_formula, "P(x,", "1:5: expected variable, found 'end of input'"),
    (parse_concept, "exists R.(A,", "1:13: expected concept name, found 'end of input'"),
    # an unclosed '(' before a binary relation term opens one too
    (parse_dlr_concept, "exists ((T|$3,$3", "1:17: expected 'o' or 'u', found 'end of input'"),
    (parse_dlr_concept, "exists ((R|$1,$2 o S|$1,$2", "1:27: expected ')', found 'end of input'"),
    (parse_dlr_concept, "exists (R & S", "1:14: expected ')', found 'end of input'"),
    # a token is named as it is spelled, an INT as an integer
    (parse_formula, "P(x", "1:4: expected ')', found 'end of input'"),
    (parse_formula, "E[>=x] y. P(y)", "1:5: expected an integer, found 'x'"),
    (parse_dlr_concept, "exists[1] R", "1:8: expected '$', found '1'"),
])
def test_expected_errors_name_what_they_found(parse, text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# Tree height of parsed input
# ---------------------------------------------------------------------------

def tree_height(node) -> int:
    """Levels of AST nodes on the longest root-to-leaf path."""
    parts = [getattr(node, f) for f in node._fields]
    parts = [q for p in parts for q in (p if isinstance(p, tuple) else (p,))]
    return 1 + max((tree_height(p) for p in parts if isinstance(p, Node)), default=0)


def _chain_levels(op: str, n: int) -> int:
    return n - 1 if op == "->" else (n - 1).bit_length()


def _chain(rng, spine: tuple[str, int], leaf: str, ops: str) -> tuple[str, int]:
    op, n = rng.choice(ops.split()), rng.choice((2, 3, 4, 5, 8, 9, 33, rng.randint(2, 300)))
    parts = [leaf] * n
    parts[rng.randrange(n)] = spine[0]
    return f"({f' {op} '.join(parts)})", spine[1] + _chain_levels(op, n)


def _wrap(rng, grammar: str, spine: tuple[str, int]) -> tuple[str, int]:
    """``spine`` (a text and the tree height the parser counts for it)
    inside one more construct of ``grammar``."""
    text, h = spine
    kind = rng.choice(("not", "chain", "chain", "bind"))
    if kind == "not":
        return "~" + text, h + 1
    if kind == "chain":
        leaf = {"fo": "P(x)", "dl": "A", "dlr": "A"}[grammar]
        return _chain(rng, spine, leaf, "& | ->" if grammar == "fo" else "&")
    if grammar == "fo":
        k = rng.choice((1, 2, rng.randint(1, 60)))
        return f"E {' '.join(f'x{i}' for i in range(k))}. {text}", 1 + k + h
    if grammar == "dl":
        role = _chain(rng, ("R", 1), "R", "&") if rng.random() < 0.3 else ("R", 1)
        return f"exists {role[0]}.({text})", 1 + max(role[1], h)
    stars = rng.choice((0, 1, rng.randint(0, 60)))
    return f"exists R|$1,$2{'*' * stars} . {text}", 1 + max(2 + stars, h)


GRAMMARS = {"fo": (parse_formula, print_formula), "dl": (parse_concept, print_concept),
            "dlr": (parse_dlr_concept, print_dlr_concept)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(GRAMMARS)), st.integers(0, 10**9))
def test_parsed_trees_are_as_tall_as_the_parser_counts(grammar, seed):
    """Each construct adds the levels the parser counts for it: one, one
    per block variable or ``*``, and ⌈log2 n⌉ for a chain of n ``&`` or
    ``|`` operands (n - 1 for ``->``).  Input is accepted exactly when the
    count stays within ``MAX_NESTING``, and its tree is no taller."""
    rng = random.Random(seed)
    parse, show = GRAMMARS[grammar]
    spine = ("P(x)" if grammar == "fo" else "A", 1)
    for _ in range(rng.choice((1, 5, 50, rng.randint(1, 200)))):
        spine = _wrap(rng, grammar, spine)
    text, counted = spine
    try:
        tree = parse(text)
    except ParseError as e:
        assert "deeper than" in str(e) and counted > MAX_NESTING
        return
    assert counted <= MAX_NESTING
    assert tree_height(tree) <= counted
    assert parse(show(tree)) == tree


# ---------------------------------------------------------------------------
# The node base
# ---------------------------------------------------------------------------

def _structure():
    return make_structure(["a", "b"], {"R": 2, "P": 1, "Q": 1},
                          {"R": {("a", "b")}, "P": {("b",)}})


def _report():
    """A search report, its wall time fixed."""
    r = find_model(parse_formula("E x. (P(x) & E y. (R(x,y) & ~P(y)))"),
                   Vocabulary({"R": 2, "P": 1}), 3)
    return SearchReport(r.sentence, r.bound, r.model, r.nodes_examined, 0.25)


# One term or record of each node class of the three grammars, of the
# checker, and of a structure and the records computed over one, and its
# repr: the class name, then each field as name=repr.
REPRS = [
    (lambda: parse_formula("(E x y. (R(x,y) & ~x = y) | A z. (true -> E[>=2] w. false))"),
     "Or(left=ExistsBlock(vars=('x', 'y'), body=And(left=Atom(rel='R', args=('x', 'y')), "
     "right=Not(body=Equals(left='x', right='y')))), right=ForallBlock(vars=('z',), "
     "body=Implies(left=Top(), right=CountExists(cmp='>=', bound=2, var='w', body=Bottom()))))"),
    (lambda: Vocabulary({"R": 2, "P": 1}), "Vocabulary(symbols={'R': 2, 'P': 1})"),
    (lambda: parse_concept("(exists perm[2,1](~R & eps).(top) & ~A)"),
     "AndC(left=ExistsRole(role=Apply(srj=Surjection(map=(2, 1)), role=AndRole("
     "left=NotRole(role=AtomicRole(name='R')), right=Epsilon())), args=(TopC(),)), "
     "right=NotC(body=AtomicConcept(name='A')))"),
    (lambda: parse_dlr_concept("(exists (R|$1,$2 u (eps o ($1/2:top1)|$2,$1))* . A & "
                               "(exists[$1] (top3 & ~T) & (<=0 [$2] R)))"),
     "AndC(left=ExistsE(rel=Star(body=UnionE(left=Proj(role=AtomicRole(name='R'), i=1, j=2), "
     "right=Comp(left=Epsilon(), right=Proj(role=Sel(i=1, n=2, concept=TopC()), i=2, j=1)))), "
     "concept=AtomicConcept(name='A')), right=AndC(left=ExistsProj(i=1, role=AndRole("
     "left=TopN(n=3), right=NotRole(role=AtomicRole(name='T')))), "
     "right=AtMost(k=0, i=2, role=AtomicRole(name='R'))))"),
    (lambda: check_fragment(parse_formula("E x y z. (R(x,y) & R(y,z))"), FragmentId.FU1),
     "Diagnostic(verdict=False, violations=(Violation(kind=<ViolationKind.UNIFORMITY: "
     "'UNIFORMITY'>, path=(0, 0), message='atom R has variable set {x,y} but the block also "
     "uses {y,z}'), Violation(kind=<ViolationKind.UNIFORMITY: 'UNIFORMITY'>, path=(0, 1), "
     "message='atom R has variable set {y,z} but the block also uses {x,y}')))"),
    (_structure,
     "Structure(domain=('a', 'b'), relations={'R': frozenset({('a', 'b')}), "
     "'P': frozenset({('b',)}), 'Q': frozenset()}, "
     "vocabulary=Vocabulary(symbols={'R': 2, 'P': 1, 'Q': 1}))"),
    (lambda: satisfaction_set(_structure(), parse_formula("E y. R(x,y)")),
     "SatisfactionSet(formula=ExistsBlock(vars=('y',), body=Atom(rel='R', args=('x', 'y'))), "
     "elements=frozenset({'a'}))"),
    (lambda: to_dnf_block(parse_formula("E y. ((R(x,y) & ~x = y) | (P(y) & ~R(y,x)))")),
     "DnfBlock(variables=('y',), free_var='x', disjuncts=(Disjunct(relation_literals=("
     "Literal(positive=True, atom=Atom(rel='R', args=('x', 'y'))),), equality_literals=("
     "Literal(positive=False, atom=Equals(left='x', right='y')),), unary_parts=(('x', Top()), "
     "('y', Top()))), Disjunct(relation_literals=(Literal(positive=False, atom=Atom(rel='R', "
     "args=('y', 'x'))),), equality_literals=(), unary_parts=(('y', Atom(rel='P', "
     "args=('y',))), ('x', Top())))))"),
    (_report,
     "SearchReport(sentence=ExistsBlock(vars=('x',), body=And(left=Atom(rel='P', args=('x',)), "
     "right=ExistsBlock(vars=('y',), body=And(left=Atom(rel='R', args=('x', 'y')), "
     "right=Not(body=Atom(rel='P', args=('y',))))))), bound=3, model=Structure(domain=("
     "'e0', 'e1'), relations={'R': frozenset({('e1', 'e0')}), 'P': frozenset({('e1',)})}, "
     "vocabulary=Vocabulary(symbols={'R': 2, 'P': 1})), nodes_examined=3, "
     "elapsed_seconds=0.25)"),
]


@pytest.mark.parametrize("make, text", REPRS, ids=[
    "fo", "vocabulary", "dl", "dlr", "diagnostic", "structure", "satisfaction-set",
    "dnf-block", "search-report"])
def test_node_repr_equality_and_copies(make, text):
    node, again = make(), make()
    assert repr(node) == text
    assert node is not again and node == again and not node != again
    if "Structure(" in text:  # its relations are a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(node)
    else:
        assert hash(node) == hash(again)
    duplicate = copy.deepcopy(node)
    assert duplicate is not node and duplicate == node and repr(duplicate) == text


def test_an_indexed_structure_equals_and_prints_as_an_unindexed_one():
    s, plain = _structure(), _structure()
    assert s.index("R", 1) == {("a",): ("b",)}
    assert s == plain and plain == s and repr(s) == repr(plain)
    assert copy.deepcopy(s) == plain


def test_a_vocabulary_is_read_only_and_hashable():
    v = Vocabulary({"R": 2, "P": 1})
    symbols = v.symbols
    with pytest.raises(TypeError):
        symbols["="] = 0
    with pytest.raises(TypeError):
        del symbols["R"]
    with pytest.raises(TypeError):
        symbols |= {"Q": 1}
    for change in (symbols.clear, symbols.popitem, lambda: symbols.pop("R"),
                   lambda: symbols.setdefault("Q", 1), lambda: symbols.update(Q=1)):
        with pytest.raises(TypeError):
            change()
    assert repr(v) == "Vocabulary(symbols={'R': 2, 'P': 1})"
    assert json.dumps(v.symbols) == '{"R": 2, "P": 1}'
    assert v == Vocabulary({"P": 1, "R": 2}) and hash(v) == hash(Vocabulary({"P": 1, "R": 2}))
    assert copy.deepcopy(v) == v and copy.deepcopy(v).symbols == {"R": 2, "P": 1}


def test_equal_vocabularies_share_their_symbols():
    v, w = Vocabulary({"R": 2, "P": 1}), Vocabulary({"R": 2, "P": 1})
    assert v.symbols is w.symbols
    s, t = (make_structure(["a"], {"R": 2, "P": 1}) for _ in range(2))
    assert s.vocabulary.symbols is t.vocabulary.symbols is v.symbols
    # the same items in another order print in that order, so they keep their own
    other = Vocabulary({"P": 1, "R": 2})
    assert other == v and other.symbols is not v.symbols
    assert repr(other) == "Vocabulary(symbols={'P': 1, 'R': 2})"


def test_a_compiled_entry_serves_every_equal_vocabulary():
    builds = []

    def build(term, vocab):
        builds.append(vocab)
        return object()

    cache, term = [None] * 5 + [{}], parse_formula("P(x)")
    v, w = Vocabulary({"R": 2, "P": 1}), Vocabulary({"R": 2, "P": 1})
    out = syntax.compiled(cache, build, term, v)
    assert syntax.compiled(cache, build, term, w) is out  # the same symbols object
    syntax._SHARED_SYMBOLS.clear()
    other = Vocabulary({"R": 2, "P": 1})  # an equal vocabulary with symbols of its own
    assert other.symbols is not v.symbols
    assert syntax.compiled(cache, build, term, other) is out  # the entry built last
    cache[:5] = [None] * 5
    assert syntax.compiled(cache, build, term, other) is out  # the table's entry
    assert builds == [v]


def test_the_shared_symbols_table_is_bounded():
    for i in range(2 * syntax.MAX_COMPILED + 3):
        v = Vocabulary({f"S{i}": 1, "R": 2})
        assert len(syntax._SHARED_SYMBOLS) <= syntax.MAX_COMPILED
        assert Vocabulary({f"S{i}": 1, "R": 2}).symbols is v.symbols


def test_nodes_of_two_classes_with_equal_fields_differ():
    a, b = Atom("P", ("x",)), Atom("Q", ("x",))
    assert And(a, b) != Or(a, b) and not And(a, b) == Or(a, b)
    assert And(a, b) == And(Atom("P", ["x"]), b) and hash(And(a, b)) == hash(And(a, b))
    assert And(a, b) != And(b, a) and And(a, b) != (a, b)
    assert len({And(a, b), Or(a, b), And(a, b)}) == 2


def test_nodes_with_tuple_fields_of_two_lengths_differ():
    role, a, b = dl.AtomicRole("R"), dl.AtomicConcept("A"), dl.AtomicConcept("B")
    one, two = dl.ExistsRole(role, (a,)), dl.ExistsRole(role, (a, b))
    assert one != two and two != one
    assert not one == two and not two == one


def test_nodes_refuse_assignment():
    node = parse_concept("exists R.(A)")
    for target in (node, node.role, Vocabulary({"R": 2}), _structure(), _report()):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            target.name = "S"
        with pytest.raises(AttributeError, match="cannot delete field"):
            del target.__slots__
    assert node == parse_concept("exists R.(A)")


# Each constructor check, on arguments that break two of them where it has
# two: the message of the one made first.
CHECKS = [
    (lambda: CountExists("<", -1, "x", Top()), "comparator must be one of ('>=', '<=', '='), got '<'"),
    (lambda: CountExists("=", -1, "x", Top()), "counting bound must be >= 0"),
    (lambda: ExistsBlock([], Top()), "quantifier block needs at least one variable"),
    (lambda: ExistsBlock(["x", "x"], Top()), "duplicate variable in quantifier block: ('x', 'x')"),
    (lambda: Atom("P", []), "atoms take at least one argument (arity >= 1)"),
    (lambda: Vocabulary({"=": 0}), "'=' is reserved for built-in equality"),
    (lambda: Vocabulary({"R": 99}), f"arity 99 of 'R' exceeds the limit of {MAX_ARITY}"),
    (lambda: dl.Surjection([1]), "coordinate maps need source arity >= 2"),
    (lambda: dl.Surjection([1, 3]), "map (1, 3) is not onto 1..3"),
    (lambda: dl.ExistsRole(dl.AtomicRole("R"), []),
     "n-ary existential needs at least one argument concept"),
    (lambda: dlr.Sel(0, 99, dl.TopC()), "selection needs 1 <= i <= n and n >= 2, got i=0, n=99"),
    (lambda: dlr.TopN(99), f"top relation arity 99 exceeds the limit of {MAX_ARITY}"),
    (lambda: dlr.Proj(dl.AtomicRole("R"), 0, 1), "projection indices are 1-based"),
    (lambda: dlr.AtMost(-1, 0, dl.AtomicRole("R")), "number restriction bound must be >= 0"),
    (lambda: dlr.ExistsProj(0, dl.AtomicRole("R")), "position index is 1-based"),
]


@pytest.mark.parametrize("make, message", CHECKS)
def test_constructor_checks_keep_their_messages_and_order(make, message):
    with pytest.raises((ValueError, VocabularyError)) as e:
        make()
    assert str(e.value) == message
