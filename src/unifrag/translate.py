"""Semantics-preserving translations between the first-order fragments and
the two description logics.

* ``to_dnf_block``: put a quantified Boolean combination into disjunctive
  normal form and distribute the quantifier prefix, splitting each
  disjunct into its uniform higher-arity part and its unary parts.
* ``fu1_to_dl``: formulas with at most one free variable into concepts of
  the surjection logic;
* ``dl_to_fu1``: the standard translation back;
* ``eliminate_comp_union`` and ``dlr0_to_fu1``: the closure-free,
  counting-free fragment of the n-ary DL into first-order form, by first
  rewriting compositions and unions away and then translating projections,
  selections and position existentials.

Every blow-up is refused (``DnfLimitError``) before it is built, under the
one budget ``DNF_LIMIT``.  Every output is checked against the target
fragment and against extension oracles in the test suite; no rewrite is
trusted on its own.
"""

from __future__ import annotations

from itertools import count, groupby
from typing import Callable, Iterator, Optional, Union

from . import dl, dlr
from .errors import DnfLimitError, FragmentGateError, VocabularyError
from .fragments import FragmentId, check_fragment
from .syntax import (And, Atom, Bottom, Equals, ExistsBlock, ForallBlock,
                     Formula, Implies, Node, Not, Or, Recursive, Top, Vocabulary, check_atom,
                     fold, free_variables, walk)

# ---------------------------------------------------------------------------
# DNF blocks
# ---------------------------------------------------------------------------

LeafAtom = Union[Atom, Equals]


class Literal(Node):
    """An ``atom``, an Atom or an Equals, that is ``positive`` or negated."""

    __slots__ = ("positive", "atom")


class Disjunct(Node):
    """One conjunction of the distributed normal form.

    ``relation_literals`` all share a single variable set (the uniform
    part); ``equality_literals`` are equalities between distinct
    variables; ``unary_parts`` pairs each remaining conjunct with its free
    variable (None for sentences).  Both kinds of literal are Literals.
    """

    __slots__ = ("relation_literals", "equality_literals", "unary_parts")

    def uniform_variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for lit in self.relation_literals + self.equality_literals:
            out |= _leaf_vars(lit.atom)
        return out


class DnfBlock(Node):
    """The normal form of a block ``E variables. body``: the tuple of its
    ``variables``; ``free_var``, its one free variable or None; and the
    tuple of the ``disjuncts`` of its body."""

    __slots__ = ("variables", "free_var", "disjuncts")


def _leaf_vars(a: LeafAtom) -> frozenset[str]:
    if isinstance(a, Atom):
        return frozenset(a.args)
    return frozenset((a.left, a.right))


# The one blow-up budget of the translations: most disjuncts of a block's
# absorbed normal form (see _dnf), chains of a DLR relation term or copies of
# a part of a DLR concept (see _elim_concept).  2^11 irreducible disjuncts
# print as about 100k characters of DL concept, 2^13 as half a megabyte.
DNF_LIMIT = 2048

# One conjunction of the normal form: its signed leaves without repeats, in
# text order, and the same leaves as a set.
Conj = tuple[tuple[tuple[bool, Formula], ...], frozenset]
_EMPTY: Conj = ((), frozenset())


def _check_dnf_size(size: int) -> None:
    if size > DNF_LIMIT:
        raise DnfLimitError(
            f"translation would expand one part of its input into {size} "
            f"alternatives or copies, more than the limit of {DNF_LIMIT}")


def _shares_leaf(left: list[Conj], right: list[Conj]) -> bool:
    """Whether some leaf occurs on both sides, with either sign."""
    ls = frozenset().union(*(s for _, s in left))
    rs = frozenset().union(*(s for _, s in right))
    return not (ls.isdisjoint(rs) and ls.isdisjoint({(not p, leaf) for p, leaf in rs}))


def _absorbed(conjs: list[Conj]) -> list[Conj]:
    """Drop each conjunction that contains another (A | (A & B) = A) or
    repeats an earlier one; the others keep their order."""
    first: dict[frozenset, Conj] = {}
    for c in conjs:
        first.setdefault(c[1], c)
    kept: set[frozenset] = set()
    for _, same in groupby(sorted(first, key=len), len):  # shortest first
        kept.update([s for s in same if not any(k <= s for k in kept)])
    return [c for s, c in first.items() if s in kept]


def _product(left: list[Conj], right: list[Conj]) -> list[Conj]:
    _check_dnf_size(len(left) * len(right))  # before building it
    if not _shares_leaf(left, right):
        # each side is an antichain over its own leaves, so the product is one
        return [(a + b, sa | sb) for a, sa in left for b, sb in right]
    negated = [frozenset((not p, leaf) for p, leaf in b) for b, _ in right]
    return _absorbed([(a + tuple(x for x in b if x not in sa), sa | sb)
                      for a, sa in left for (b, sb), nb in zip(right, negated)
                      if sa.isdisjoint(nb)])


def _union(left: list[Conj], right: list[Conj]) -> list[Conj]:
    """``_absorbed(left + right)`` of absorbed forms: only a conjunction whose
    leaves all occur on the other side can contain or lie in one there."""
    ls = frozenset().union(*(s for _, s in left))
    rs = frozenset().union(*(s for _, s in right))
    inner_left = [s for _, s in left if s <= rs]
    inner_right = [s for _, s in right if s <= ls]
    return ([c for c in left if not any(s < c[1] for s in inner_right)]
            + [c for c in right if not any(s <= c[1] for s in inner_left)])


def _dnf(f: Formula, positive: bool) -> list[Conj]:
    """Disjunctive normal form over the Boolean skeleton; quantified
    subformulas and atoms stay opaque leaves.  The form is absorbed: no
    conjunction holds a leaf with both signs, none contains or repeats
    another, and the survivors keep the order of the full product."""
    if isinstance(f, Not):
        return _dnf(f.body, not positive)
    if isinstance(f, Top):
        return [_EMPTY] if positive else []
    if isinstance(f, Bottom):
        return [] if positive else [_EMPTY]
    if isinstance(f, And) and positive or isinstance(f, Or) and not positive:
        return _product(_dnf(f.left, positive), _dnf(f.right, positive))
    if isinstance(f, Or) and positive or isinstance(f, And) and not positive:
        return _union(_dnf(f.left, positive), _dnf(f.right, positive))
    if isinstance(f, Implies):
        if positive:
            return _union(_dnf(f.left, False), _dnf(f.right, True))
        return _product(_dnf(f.left, True), _dnf(f.right, False))
    leaf = (positive, f)
    return [((leaf,), frozenset((leaf,)))]


def _classify(conj: tuple[tuple[bool, Formula], ...]) -> Disjunct:
    rel_lits: list[Literal] = []
    eq_lits: list[Literal] = []
    chis: list[tuple[Optional[str], Formula]] = []
    for positive, leaf in conj:
        if isinstance(leaf, Atom) and len(set(leaf.args)) >= 2:
            rel_lits.append(Literal(positive, leaf))
        elif isinstance(leaf, Equals) and leaf.left != leaf.right:
            eq_lits.append(Literal(positive, leaf))
        else:
            fv = free_variables(leaf)
            if len(fv) > 1:
                raise FragmentGateError(
                    f"subformula with free variables {sorted(fv)} cannot appear "
                    f"inside a uniform block")
            var = next(iter(fv)) if fv else None
            chis.append((var, leaf if positive else Not(leaf)))
    sets = {frozenset(l.atom.args) for l in rel_lits}
    if len(sets) > 1:
        raise FragmentGateError(
            "input violates uniformity: higher-arity literals use variable sets "
            + ", ".join(sorted("{%s}" % ",".join(sorted(s)) for s in sets)))
    return Disjunct(tuple(rel_lits), tuple(eq_lits), tuple(chis))


def to_dnf_block(f: Formula) -> DnfBlock:
    """Distribute an existential block over the absorbed disjunctive normal
    form of its body (see ``_dnf``).  Each disjunct is saturated: every
    variable of the uniform part carries at least one unary conjunct
    (true() when nothing else)."""
    if not isinstance(f, ExistsBlock):
        raise FragmentGateError("to_dnf_block expects an existential block")
    leftover = free_variables(f)
    if len(leftover) > 1:
        raise FragmentGateError(
            f"block leaves {len(leftover)} variables free, so it is not "
            f"one-dimensional: {sorted(leftover)}")
    free_var = next(iter(leftover)) if leftover else None
    conjs = _dnf(f.body, True)
    # products are checked as they are built; unions of checked products
    # grow only with the size of the input, so the total is checked here
    _check_dnf_size(len(conjs))
    disjuncts = []
    for conj, _ in conjs:
        d = _classify(conj)
        covered = {v for v, _ in d.unary_parts}
        padding = tuple((v, Top()) for v in sorted(d.uniform_variables() - covered))
        disjuncts.append(Disjunct(d.relation_literals, d.equality_literals,
                                  d.unary_parts + padding))
    return DnfBlock(f.vars, free_var, tuple(disjuncts))


# ---------------------------------------------------------------------------
# FU1  ->  DL
# ---------------------------------------------------------------------------

_FALSE_C = dl.NotC(dl.TopC())


def _literal_role(lit: Literal, ys: tuple[str, ...]) -> dl.RoleTerm:
    atom = lit.atom
    if isinstance(atom, Equals):
        role: dl.RoleTerm = dl.Epsilon()
    else:
        sigma = tuple(ys.index(v) + 1 for v in atom.args)
        if sigma == tuple(range(1, len(ys) + 1)):  # the identity map
            role = dl.AtomicRole(atom.rel)
        else:
            role = dl.Apply(dl.Surjection(sigma), dl.AtomicRole(atom.rel))
    return role if lit.positive else dl.NotRole(role)


def fu1_to_dl(f: Formula) -> dl.Concept:
    """Translate a formula with at most one free variable into an
    extension-equal concept.  The two checks below are the only fragment
    refusals, and a relation named by a DL keyword, which would print as
    that keyword, the only vocabulary refusal; the construction assumes
    them and refuses nothing but a normal form over ``DNF_LIMIT``."""
    diag = check_fragment(f, FragmentId.FU1)
    if not diag.verdict:
        first = diag.violations[0]
        raise FragmentGateError(
            f"not an FU1 formula: {first.kind.value} at path {list(first.path)}: "
            f"{first.message}")
    if len(free_variables(f)) > 1:
        raise FragmentGateError("concept translation needs at most one free variable")
    keywords = sorted({g.rel for g in walk(f) if isinstance(g, Atom)} & dl.RESERVED)
    if keywords:
        raise VocabularyError(f"{keywords[0]!r} is a DL keyword and cannot name a "
                              f"concept or role")
    return _concept_of(f)


def _concept_of(f: Formula) -> dl.Concept:
    if isinstance(f, Top):
        return dl.TopC()
    if isinstance(f, Bottom):
        return _FALSE_C
    if isinstance(f, Atom) and len(f.args) == 1:
        return dl.AtomicConcept(f.rel)
    if isinstance(f, Atom) and len(set(f.args)) == 1:
        # R(x,...,x): the diagonal, via the identity role
        sigma = dl.Surjection((1,) + (2,) * (len(f.args) - 1))
        diag_role = dl.AndRole(dl.Epsilon(), dl.Apply(sigma, dl.AtomicRole(f.rel)))
        return dl.ExistsRole(diag_role, (dl.TopC(),))
    if isinstance(f, Equals) and f.left == f.right:
        return dl.TopC()
    if isinstance(f, Not):
        return dl.NotC(_concept_of(f.body))
    if isinstance(f, And):
        return fold(dl.AndC, [_concept_of(f.left), _concept_of(f.right)], dl.TopC())
    if isinstance(f, Or):
        return fold(dl.or_concept, [_concept_of(f.left), _concept_of(f.right)], _FALSE_C)
    if isinstance(f, Implies):
        return fold(dl.or_concept, [dl.NotC(_concept_of(f.left)), _concept_of(f.right)], _FALSE_C)
    if isinstance(f, ExistsBlock):
        return _block_concept(f)
    if isinstance(f, ForallBlock):
        return dl.NotC(_block_concept(ExistsBlock(f.vars, Not(f.body))))
    raise TypeError(f"not an FU1 formula: {f!r}")


def _block_concept(f: ExistsBlock) -> dl.Concept:
    block = to_dnf_block(f)
    return fold(dl.or_concept, [_disjunct_concept(d, block.free_var) for d in block.disjuncts],
                _FALSE_C)


def _disjunct_concept(d: Disjunct, x0: Optional[str]) -> dl.Concept:
    uniform = d.relation_literals + d.equality_literals
    chis: dict[Optional[str], list[Formula]] = {}
    for var, chi in d.unary_parts:
        chis.setdefault(var, []).append(chi)

    def chi_concept(var: Optional[str]) -> dl.Concept:
        return fold(dl.AndC, [_concept_of(g) for g in chis.get(var, [])], dl.TopC())

    conjuncts: list[dl.Concept] = []
    covered: set[Optional[str]] = set()
    if uniform:
        xset = d.uniform_variables()
        if x0 is not None and x0 in xset:
            ys = (x0,) + tuple(sorted(xset - {x0}))
        else:
            ys = tuple(sorted(xset))
        role = fold(dl.AndRole, [_literal_role(lit, ys) for lit in uniform])
        head = fold(dl.AndC, [chi_concept(ys[0]),
                              dl.ExistsRole(role, tuple(chi_concept(y) for y in ys[1:]))],
                    dl.TopC())
        covered.update(ys)
        if x0 is not None and x0 in xset:
            conjuncts.append(head)
        else:
            conjuncts.append(dl.ExistsRole(dl.universal_role(), (head,)))
    for var in sorted(chis, key=lambda v: (v is None, v or "")):
        if var in covered:
            continue
        c = chi_concept(var)
        if var is None or var == x0:
            conjuncts.append(c)
        else:
            conjuncts.append(dl.ExistsRole(dl.universal_role(), (c,)))
    return fold(dl.AndC, conjuncts, dl.TopC())


# ---------------------------------------------------------------------------
# DL  ->  FU1
# ---------------------------------------------------------------------------

def dl_to_fu1(c: dl.Concept, vocab: Vocabulary) -> Formula:
    """Standard translation; the result has the single free variable x
    (degenerate subterms denoting the empty relation may drop it, and
    ``top`` translates to true())."""
    return _formula_of(c, "x", count(1), vocab, "delta")


def _formula_of(c: Union[dl.Concept, dlr.DlrConcept], x: str, ctr: Iterator[int],
                vocab: Vocabulary, topn: str) -> Formula:
    """The standard translation at ``x`` of a DL concept, or of a DLR one
    without composition or union in top mode ``topn``; fresh variables
    are y<n> in the DL and x<n> in the DLR, numbered by ``ctr``."""
    if isinstance(c, dl.TopC):
        return Top()
    if isinstance(c, dl.AtomicConcept):
        dl.check_concept_name(c.name, vocab)
        return Atom(c.name, (x,))
    if isinstance(c, dl.NotC):
        return Not(_formula_of(c.body, x, ctr, vocab, topn))
    if isinstance(c, dl.AndC):
        return And(_formula_of(c.left, x, ctr, vocab, topn),
                   _formula_of(c.right, x, ctr, vocab, topn))
    if isinstance(c, dl.ExistsRole):
        n, role = _role_formula(c.role, vocab)
        dl.check_existential_args(n, c.args)
        ys = tuple(f"y{next(ctr)}" for _ in range(n - 1))
        parts = [role((x,) + ys)]
        parts += [_formula_of(arg, y, ctr, vocab, topn) for arg, y in zip(c.args, ys)]
        return ExistsBlock(ys, fold(And, parts, Top()))
    if isinstance(c, dlr.ExistsE):
        e, y = c.rel, f"x{next(ctr)}"
        inner = _formula_of(c.concept, y, ctr, vocab, topn)
        if isinstance(e, dlr.Eps):
            return ExistsBlock((y,), And(Equals(x, y), inner))
        if isinstance(e, dlr.Proj):
            n, role = _dlr_role(e.role, ctr, vocab, topn, "projection |${},${}", e.i, e.j)
            if e.i == e.j:
                # (u,v) with u = v = t_i for some tuple t: an equality guard plus
                # the nested membership block of exists[$i] keeps the block uniform
                tup, others = _fresh_tuple(n, {e.i: x}, ctr)
                member = ExistsBlock(others, role(tup))
                return ExistsBlock((y,), fold(And, [Equals(x, y), member, inner], Top()))
            tup, zs = _fresh_tuple(n, {e.i: x, e.j: y}, ctr)
            return ExistsBlock((y,) + zs, fold(And, [role(tup), inner], Top()))
    if isinstance(c, dlr.ExistsProj):
        n, role = _dlr_role(c.role, ctr, vocab, topn, "position ${}", c.i)
        tup, others = _fresh_tuple(n, {c.i: x}, ctr)
        return ExistsBlock(others, role(tup))
    raise TypeError(f"not a concept: {c!r}")


def _dl_role(r: dl.RoleTerm, walk: Callable) -> tuple[int, Callable]:
    if isinstance(r, dl.Epsilon):
        return 2, lambda tup: Equals(tup[0], tup[1])
    if isinstance(r, dl.AndRole):  # of two arities: the empty relation
        return 2, lambda tup: Bottom()
    if isinstance(r, dl.Apply):
        k, inner = walk(r.role)
        if r.srj.source != k:
            return 2, lambda tup: Bottom()
        return r.srj.target, lambda tup: inner(tuple(tup[i - 1] for i in r.srj.map))
    raise TypeError(f"not a role term: {r!r}")


def _role_formula(r, vocab: Vocabulary, own: Callable = _dl_role,
                  topn: str = "delta") -> tuple[int, Callable]:
    """The arity of ``r`` and the builder of its translation at a tuple of
    that many variables, in one walk shaped like :func:`dl.role_compiler`'s
    (``own`` is the DL's by default).  A complement is taken in the top
    relation of mode ``topn``, domain^n in delta mode and so in the DL."""
    def walk(r, walk) -> tuple[int, Callable]:
        if isinstance(r, dl.AtomicRole):
            return dl.atomic_role_arity(r.name, vocab), lambda tup: Atom(r.name, tup)
        if isinstance(r, dl.NotRole):
            n, body = walk(r.role)
            if topn == "delta":
                return n, lambda tup: Not(body(tup))
            return n, lambda tup: And(_topn_formula(n, tup, vocab, topn), Not(body(tup)))
        if isinstance(r, dl.AndRole):
            (n, left), (n2, right) = walk(r.left), walk(r.right)
            if n != n2:
                return own(r, walk)
            return n, lambda tup: And(left(tup), right(tup))
        return own(r, walk)
    return Recursive(walk)(r)


# ---------------------------------------------------------------------------
# DLR without star and counting  ->  FU1
# ---------------------------------------------------------------------------

def gate_dlr0(c: dlr.DlrConcept) -> None:
    """Refuse the two operators outside the translatable core."""
    if dlr.operators_used(c) & {dlr.Star, dlr.AtMost}:
        raise FragmentGateError(
            "reflexive-transitive closure and number restrictions have no "
            "translation into the uniform fragment; refusing")


def eliminate_comp_union(c: dlr.DlrConcept) -> dlr.DlrConcept:
    """Rewrite away every composition and union of binary relation terms,
    using distribution over union and the unnesting of compositions under
    the binary existential.  A result holding more than ``DNF_LIMIT`` chains,
    or copies of one part of ``c``, is refused before it is built."""
    gate_dlr0(c)
    return _elim_concept(c, 1)


def _elim_concept(c: dlr.DlrConcept, copies: int) -> dlr.DlrConcept:
    """``c`` eliminated; the output, read as a tree, repeats it at most ``copies`` times."""
    if isinstance(c, (dlr.Top1, dlr.AtomicConcept)):
        return c
    if isinstance(c, dlr.NotC):
        return dlr.NotC(_elim_concept(c.body, copies))
    if isinstance(c, dlr.AndC):
        return dlr.AndC(_elim_concept(c.left, copies), _elim_concept(c.right, copies))
    if isinstance(c, dlr.ExistsProj):
        return dlr.ExistsProj(c.i, _elim_role(c.role, copies))
    if isinstance(c, dlr.ExistsE):
        chains = _union_of_chains(c.rel)
        copies *= len(chains)  # every chain repeats the body, and each step at most once
        _check_dnf_size(copies)  # before the body or a step's role is eliminated
        body = _elim_concept(c.concept, copies)
        alternatives = []
        for chain in chains:
            out = body
            for step in reversed(chain):
                if isinstance(step, dlr.Proj):
                    step = dlr.Proj(_elim_role(step.role, copies), step.i, step.j)
                out = dlr.ExistsE(step, out)
            alternatives.append(out)
        return fold(dlr.or_dlr, alternatives, dlr.NotC(dlr.Top1()))
    raise TypeError(f"unexpected concept in composition elimination: {c!r}")


def _elim_role(r: dlr.DlrRole, copies: int) -> dlr.DlrRole:
    if isinstance(r, dlr.Sel):
        return dlr.Sel(r.i, r.n, _elim_concept(r.concept, copies))
    if isinstance(r, dlr.NotR):
        return dlr.NotR(_elim_role(r.role, copies))
    if isinstance(r, dlr.AndR):
        return dlr.AndR(_elim_role(r.left, copies), _elim_role(r.right, copies))
    return r


def _union_of_chains(e: dlr.DlrBinRel) -> list[list[dlr.DlrBinRel]]:
    """A binary relation term as a union of composition chains of atomic
    steps (identity or projection, its role not yet eliminated)."""
    if isinstance(e, (dlr.Eps, dlr.Proj)):
        return [[e]]
    if isinstance(e, dlr.Comp):
        left, right = _union_of_chains(e.left), _union_of_chains(e.right)
        _check_dnf_size(len(left) * len(right))  # before building it
        return [a + b for a in left for b in right]
    if isinstance(e, dlr.UnionE):
        return _union_of_chains(e.left) + _union_of_chains(e.right)
    raise TypeError(f"unexpected term in composition elimination: {e!r}")


def dlr0_to_fu1(c: dlr.DlrConcept, vocab: Vocabulary, topn: str = "delta") -> Formula:
    """Translate a closure-free, counting-free concept into a formula with
    the free variable x.  Under the default convention the built-in top
    relations are the domain powers and translate to true(); in explicit
    mode they translate to atoms over the declared top<n> relations."""
    dlr.check_topn_mode(topn)
    simple = eliminate_comp_union(c)
    return _formula_of(simple, "x", count(1), vocab, topn)


def _fresh_tuple(n: int, fixed: dict[int, str], ctr: Iterator[int]
                 ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """An n-tuple holding ``fixed[i]`` at each 1-based position i and a
    fresh variable, drawn from ``ctr`` in position order, everywhere else;
    returned with the fresh variables."""
    tup = tuple(fixed[pos] if pos in fixed else f"x{next(ctr)}" for pos in range(1, n + 1))
    return tup, tuple(v for pos, v in enumerate(tup, start=1) if pos not in fixed)


def _dlr_role(r: dlr.DlrRole, ctr: Iterator[int], vocab: Vocabulary, topn: str,
              what: str, *positions: int) -> tuple[int, Callable]:
    """:func:`_role_formula` of a DLR role whose arity covers ``positions``;
    the builder draws from ``ctr`` when it is called."""
    def own(r, walk) -> tuple[int, Callable]:
        if isinstance(r, dlr.TopN):
            return r.n, lambda tup: _topn_formula(r.n, tup, vocab, topn)
        if isinstance(r, dlr.Sel):
            return r.n, lambda tup: fold(And, [_formula_of(r.concept, tup[r.i - 1], ctr, vocab, topn),
                                               _topn_formula(r.n, tup, vocab, topn)], Top())
        if isinstance(r, dlr.AndR):
            raise dlr.arity_mismatch(r, walk)
        raise TypeError(f"not a role: {r!r}")
    n, build = _role_formula(r, vocab, own, topn)
    dlr.check_positions(n, what, *positions)
    return n, build


def _topn_formula(n: int, tup: tuple[str, ...], vocab: Vocabulary, topn: str) -> Formula:
    """Membership of ``tup`` in the top relation of arity n: true, or in
    explicit mode an atom over ``top<n>``, which ``vocab`` must declare at
    that arity."""
    if topn == "delta":
        return Top()
    atom = Atom(dlr.topn_relation_name(n), tup)
    check_atom(atom, vocab)
    return atom
