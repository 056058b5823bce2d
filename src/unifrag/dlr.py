"""n-ary description logic with selections, binary projections, relational
composition, union, reflexive-transitive closure and number restrictions.

Text grammar::

    role    ::= 'top' INT | NAME | '($' i '/' n ':' concept ')'
              | '~' role | '(' role '&' role ')'
    binrel  ::= 'eps' | role '|$' i ',$' j
              | '(' binrel 'o' binrel ')' | '(' binrel 'u' binrel ')'
              | binrel '*'
    concept ::= 'top1' | NAME | '~' concept | '(' concept '&' concept ')'
              | 'exists' binrel '.' concept | 'exists[$' i ']' role
              | '(<=' k '[$' i ']' role ')'

The parser never backtracks, and reads each '(' that begins a binary
relation term, unless '$' follows it, from its first operand: 'eps',
another such '(', or a role, which a '|' makes a projection.  If that
operand is a binary relation term, the '(' opens a composition or union,
else a role group, which a '|' after its ')' projects.

The built-in n-ary top relation admits two conventions, selected by the
``topn`` argument of the extension functions and of
:func:`unifrag.translate.dlr0_to_fu1`, each of which checks it on entry:

* ``"delta"`` (default): the n-th power of the domain;
* ``"explicit"``: a relation named ``top<n>`` read from the structure,
  which must cover every declared n-ary relation.

Roles share the node classes and the signed tuple-set core of
:mod:`unifrag.dl` (``NotR`` and ``AndR`` are its ``NotRole`` and
``AndRole``), but a role complement here is relative to the top relation
of the role's arity: delta mode counts it against domain^n without listing
it, and explicit mode keeps a role's tuples within ``top<n>``.  A selection
``($i/n:C)`` is a position filter; only ``~`` of a filtered complement
other than one selection, as ``~(($1/3:A) & ~R)``, lists the product of
its filters.  The number restriction counts tuples: the
extension of ``(<=k [$i] R)`` holds the elements occurring at most k times
in position i over all tuples of R.

Atomic roles and concepts, role and concept negation and conjunction,
``top1`` (:class:`unifrag.dl.TopC`, the whole domain) and ``eps``
(:class:`unifrag.dl.Epsilon`, the identity relation) are the node classes
of :mod:`unifrag.dl`, checked by its vocabulary rules and printed by its
printer core (:func:`unifrag.dl.printer`), which spells ``TopC`` ``top1``
here; the three printers of this module are one, which adds its own nodes.

Every term is an immutable node on the base :class:`unifrag.syntax.Node`,
as the shared classes are.  Parsed ``&`` chains are balanced trees, and
parsed concepts at most ``syntax.MAX_NESTING`` levels tall (a ``*`` counts
one); a much taller concept built in code may make the walkers raise
RecursionError, though never ``==`` or ``repr``.

Concepts, binary relation terms and roles are compiled once per
vocabulary and top mode, the shared nodes by the concept and role
compilers of :mod:`unifrag.dl`, and kept in a bounded table of their own
by :func:`unifrag.syntax.compiled`; ``exists eps . C`` compiles as ``C``.
A composition looks its second side up by first element, and ``e*`` is
what each element reaches over ``e``, found by a walk.  A term is checked against the
vocabulary when it is compiled, before any structure is read: a role's
names and arities first, then the positions read from it, then the
concepts of its selections.  Structure errors, such as an explicit-mode
``top<n>`` that does not cover a relation, come only after that check.
"""

from __future__ import annotations

from typing import Union

from .dl import (AndC, AtomicConcept, AtomicRole, Compiled, CompiledRole, NotC,
                 concept_compiler, crowded, identity, nothing, printer, role_compiler)
from .dl import (AndRole as AndR, Epsilon as Eps, NotRole as NotR, TopC as Top1,
                 or_concept as or_dlr)
from .errors import ArityError, ParseError, StructureError
from .structures import Structure
from .syntax import MAX_ARITY, TOPN_MODES, Node, TokenParser, Vocabulary, compiled, nested


def check_topn_mode(topn: str) -> None:
    if topn not in TOPN_MODES:
        raise ValueError(f"topn mode must be one of {TOPN_MODES}, got {topn!r}")


def topn_relation_name(n: int) -> str:
    return f"top{n}"


# ---------------------------------------------------------------------------
# ASTs
# ---------------------------------------------------------------------------

def _check_top_arity(n: int) -> None:
    if n > MAX_ARITY:
        raise ValueError(f"top relation arity {n} exceeds the limit of {MAX_ARITY}")


class TopN(Node):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("top_n needs n >= 2")
        _check_top_arity(n)
        self._set_fields(n)


class Sel(Node):
    """($i/n : C): the n-ary top tuples whose i-th component lies in C."""

    __slots__ = ("i", "n", "concept")

    def __init__(self, i: int, n: int, concept: "DlrConcept"):
        if not (2 <= n and 1 <= i <= n):
            raise ValueError(f"selection needs 1 <= i <= n and n >= 2, got i={i}, n={n}")
        _check_top_arity(n)
        self._set_fields(i, n, concept)


DlrRole = Union[TopN, AtomicRole, Sel, NotR, AndR]


class Proj(Node):
    """R|$i,$j: the pairs (t_i, t_j) over the tuples t of the role."""

    __slots__ = ("role", "i", "j")

    def __init__(self, role: DlrRole, i: int, j: int):
        if i < 1 or j < 1:
            raise ValueError("projection indices are 1-based")
        self._set_fields(role, i, j)


class Comp(Node):
    __slots__ = ("left", "right")


class UnionE(Node):
    __slots__ = ("left", "right")


class Star(Node):
    __slots__ = ("body",)


DlrBinRel = Union[Eps, Proj, Comp, UnionE, Star]


class ExistsE(Node):
    """exists rel . concept: elements with a ``rel``-successor in ``concept``."""

    __slots__ = ("rel", "concept")


class ExistsProj(Node):
    """exists[$i] R: elements occurring at position i of some tuple of R."""

    __slots__ = ("i", "role")

    def __init__(self, i: int, role: DlrRole):
        if i < 1:
            raise ValueError("position index is 1-based")
        self._set_fields(i, role)


class AtMost(Node):
    """(<=k [$i] R): elements occurring at position i of at most k tuples."""

    __slots__ = ("k", "i", "role")

    def __init__(self, k: int, i: int, role: DlrRole):
        if k < 0:
            raise ValueError("number restriction bound must be >= 0")
        if i < 1:
            raise ValueError("position index is 1-based")
        self._set_fields(k, i, role)


DlrConcept = Union[Top1, AtomicConcept, NotC, AndC, ExistsE, ExistsProj, AtMost]


# ---------------------------------------------------------------------------
# Extension semantics
# ---------------------------------------------------------------------------

def check_positions(n: int, what: str, *positions: int) -> None:
    """Every 1-based position lies within arity ``n``; ``what`` is the
    error's format string for the positions."""
    if max(positions) > n:
        raise ArityError(f"{what.format(*positions)} out of range for a role of arity {n}")


def arity_mismatch(r: AndR, comp) -> ArityError:
    """The error of an ``&`` of two arities, which ``comp`` gives first."""
    return ArityError(f"role intersection of arities {comp(r.left)[0]} and {comp(r.right)[0]}")


def _top(s: Structure, n: int) -> frozenset[tuple[str, ...]]:
    """The explicit top relation of arity n, once the structure declares it
    at that arity and it covers every n-ary relation."""
    name = topn_relation_name(n)
    if name not in s.vocabulary:
        raise StructureError(
            f"explicit top mode needs a declared relation {name!r}")
    if s.vocabulary.arity(name) != n:
        raise StructureError(f"{name!r} must have arity {n}")
    ext = s.relations[name]
    for rel, arity in s.vocabulary.symbols.items():
        if arity == n and rel != name and not s.relations[rel] <= ext:
            raise StructureError(
                f"{name!r} does not cover relation {rel!r}")
    return ext


def _successors(pairs) -> dict:
    """Each first element of ``pairs`` mapped to the list of its seconds."""
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, []).append(b)
    return succ


def _compose(first, second) -> frozenset:
    succ = _successors(second)
    return frozenset((a, c) for a, b in first for c in succ.get(b, ()))


def _closure(pairs, dom: frozenset) -> frozenset:
    """The least reflexive-transitive relation over ``dom`` that holds
    ``pairs``: each element with everything it reaches over them."""
    succ, out = _successors(pairs), []
    for d in dom:
        seen, todo = {d}, [d]
        while todo:
            for b in succ.get(todo.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        out += [(d, b) for b in seen]
    return frozenset(out)


def _compile(x, vocab: Vocabulary, topn: str, kind: str) -> Compiled:
    """``x`` compiled as a ``kind`` ("concept" or "binrel") over ``vocab``
    in top mode ``topn``; a term that fails a vocabulary or arity check
    raises here, before any structure is read."""

    late: list = []  # the concepts of selections, compiled once their role's arity is checked

    def own_role(r, comp) -> CompiledRole:
        if isinstance(r, TopN):
            return r.n, (), nothing  # the complement of nothing
        if isinstance(r, Sel):
            good: list = []
            late.append((r.concept, good))
            return r.n, ((r.i - 1, lambda s, dom: good[0](s, dom)),), nothing
        if isinstance(r, AndR):
            raise arity_mismatch(r, comp)
        raise TypeError(f"not a role: {r!r}")

    roles = role_compiler(vocab, own_role)

    def counted(r: DlrRole, k: int, what: str, *positions: int) -> Compiled:
        """The keys at the 1-based ``positions`` of more than k tuples of
        ``r`` (see :func:`unifrag.dl.crowded`), once its arity covers them.
        Explicit mode keeps the tuples in ``top<n>`` of a role that reads it."""
        mark = len(late)
        n, cuts, tuples = roles(r)
        check_positions(n, what, *positions)
        for c, good in late[mark:]:
            good.append(concept(c))
        del late[mark:]
        at = tuple(p - 1 for p in positions)
        if topn == "delta" or not operators_used(r) & {NotR, TopN, Sel}:
            return crowded((n, cuts, tuples), (), at, k)
        if cuts is None:
            return crowded((n, None, lambda s, dom: _top(s, n) & tuples(s, dom)), (), at, k)
        return crowded((n, None, lambda s, dom: _top(s, n) - tuples(s, dom)), cuts, at, k)

    def binrel(e: DlrBinRel) -> Compiled:
        if isinstance(e, Eps):
            return identity
        if isinstance(e, Proj):
            return counted(e.role, 0, "projection |${},${}", e.i, e.j)
        if isinstance(e, Comp):
            left, right = binrel(e.left), binrel(e.right)
            return lambda s, dom: _compose(left(s, dom), right(s, dom))
        if isinstance(e, UnionE):
            left, right = binrel(e.left), binrel(e.right)
            return lambda s, dom: left(s, dom) | right(s, dom)
        if isinstance(e, Star):
            body = binrel(e.body)
            return lambda s, dom: _closure(body(s, dom), dom)
        raise TypeError(f"not a binary relation term: {e!r}")

    def own(c, comp) -> Compiled:
        if isinstance(c, ExistsE):
            if isinstance(c.rel, Eps):  # exists eps . C is C
                return comp(c.concept)
            rel, good = binrel(c.rel), comp(c.concept)

            def exists(s: Structure, dom: frozenset) -> frozenset:
                pairs = rel(s, dom)
                g = good(s, dom)
                return frozenset(u for u, v in pairs if v in g)
            return exists
        if isinstance(c, ExistsProj):
            return counted(c.role, 0, "position ${}", c.i)
        if isinstance(c, AtMost):
            more = counted(c.role, c.k, "position ${}", c.i)
            return lambda s, dom: dom - more(s, dom)
        raise TypeError(f"not a concept: {c!r}")

    concept = concept_compiler(vocab, own)
    out = concept(x) if kind == "concept" else binrel(x)
    del concept, binrel  # they refer to themselves: free them, and what they hold, at once
    return out


_cache: list = [None] * 5 + [{}]  # the terms compiled, see syntax.compiled


def _extension(kind: str, x, s: Structure, topn: str) -> frozenset:
    check_topn_mode(topn)
    return compiled(_cache, _compile, x, s.vocabulary, topn, kind)(s, s.domain_set())


def dlr_binrel_extension(s: Structure, e: DlrBinRel, topn: str = "delta") -> frozenset[tuple[str, str]]:
    return _extension("binrel", e, s, topn)


def dlr_concept_extension(s: Structure, c: DlrConcept, topn: str = "delta") -> frozenset[str]:
    return _extension("concept", c, s, topn)


def operators_used(c: DlrConcept) -> frozenset[type]:
    """The node classes occurring anywhere in a concept, its roles and its
    binary relation terms (one iterative walk, whatever the nesting)."""
    seen: set[type] = set()
    stack: list = [c]
    while stack:
        node = stack.pop()
        seen.add(type(node))
        stack.extend(v for v in node._values(node) if isinstance(v, Node))
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Parsing (recursive descent, deciding from the tokens) and printing
# ---------------------------------------------------------------------------

_RESERVED = frozenset({"eps", "exists", "o", "u"})


class _DlrParser(TokenParser):
    # concepts ---------------------------------------------------------------

    @nested
    def concept(self) -> DlrConcept:
        if self.accept("TILDE"):
            return NotC(self.concept())
        if self.accept("NAME", "top1"):
            return Top1()
        if self.accept("NAME", "exists"):
            if self.accept("LBRACK"):
                self.expect("DOLLAR")
                i = self.integer()
                self.expect("RBRACK")
                return self.build(ExistsProj, i, self.role())
            e = self.binrel()
            self.expect("DOT")
            return ExistsE(e, self.concept())
        if self.tok.kind == "LPAREN":
            if self.ahead.kind == "LE":
                self.next()
                self.next()
                k = self.integer()
                self.expect("LBRACK")
                self.expect("DOLLAR")
                i = self.integer()
                self.expect("RBRACK")
                r = self.role()
                self.expect("RPAREN")
                return self.build(AtMost, k, i, r)
            return self.chain(self.concept, {"AMP": AndC})
        return AtomicConcept(self.word("a concept", _RESERVED))

    # binary relation terms ----------------------------------------------------

    @nested
    def binrel(self) -> DlrBinRel:
        x = self.operand()
        return x if isinstance(x, DlrBinRel) else self.projection(x)

    def operand(self) -> DlrBinRel | DlrRole:
        """A binary relation term, with its stars, or a role that '&' or ')'
        follows."""
        if self.accept("NAME", "eps"):
            return self.stars(Eps())
        if self.tok.kind == "LPAREN" and self.ahead.kind != "DOLLAR":
            x = self.group()
            if isinstance(x, DlrBinRel):
                return x
        else:
            x = self.role()
        return x if self.tok.kind in ("AMP", "RPAREN") else self.projection(x)

    @nested
    def group(self) -> DlrBinRel | DlrRole:
        """A '(' read from its first operand: a composition or union, with
        its stars, if that is a binary relation term, else a role group."""
        self.expect("LPAREN")
        first = self.operand()
        if not isinstance(first, DlrBinRel):
            return self.chain(self.role, {"AMP": AndR}, first)
        t = self.tok
        if t.kind != "NAME" or t.text not in ("o", "u"):
            raise self.expected("'o' or 'u'")
        self.next()
        self.rise(self.height + 1)  # a level for the first operand, as binrel counts the second
        second = self.binrel()
        self.expect("RPAREN")
        return self.stars(Comp(first, second) if t.text == "o" else UnionE(first, second))

    def projection(self, r: DlrRole) -> DlrBinRel:
        """``r`` projected by the '|$i,$j' that follows, with its stars."""
        self.expect("PIPE")
        self.expect("DOLLAR")
        i = self.integer()
        self.expect("COMMA")
        self.expect("DOLLAR")
        j = self.integer()
        return self.stars(self.build(Proj, r, i, j))

    def stars(self, e: DlrBinRel) -> DlrBinRel:
        while self.tok.kind == "STAR":
            self.rise(self.height + 1)
            self.next()
            e = Star(e)
        return e

    # roles --------------------------------------------------------------------

    @nested
    def role(self) -> DlrRole:
        if self.accept("TILDE"):
            return NotR(self.role())
        t = self.tok
        if t.kind == "NAME" and t.text.startswith("top") and t.text[3:].isdigit():
            self.next()
            n = self.integer(t, 3)
            if n < 2:
                raise ParseError("top_n roles need n >= 2 (use top1 as a concept)",
                                 t.line, t.col)
            return self.build(TopN, n)
        if t.kind == "LPAREN":
            if self.ahead.kind == "DOLLAR":
                self.next()
                self.next()
                i = self.integer()
                self.expect("SLASH")
                n = self.integer()
                self.expect("COLON")
                c = self.concept()
                self.expect("RPAREN")
                return self.build(Sel, i, n, c)
            return self.chain(self.role, {"AMP": AndR})
        return AtomicRole(self.word("a role", _RESERVED))


def parse_dlr_concept(text: str) -> DlrConcept:
    p = _DlrParser(text)
    return p.finish(p.concept())


def _print_own(x, p) -> str:
    kind = type(x)  # by exact class, as the printer core of dl reads its nodes
    if kind is ExistsE:
        return f"exists {p(x.rel)} . {p(x.concept)}"
    if kind is Proj:
        return f"{p(x.role)}|${x.i},${x.j}"
    if kind is ExistsProj:
        return f"exists[${x.i}] {p(x.role)}"
    if kind is TopN:
        return f"top{x.n}"
    if kind is Sel:
        return f"(${x.i}/{x.n}:{p(x.concept)})"
    if kind is Comp or kind is UnionE:
        return f"({p(x.left)} {'o' if kind is Comp else 'u'} {p(x.right)})"
    if kind is Star:
        return f"{p(x.body)}*"
    if kind is AtMost:
        return f"(<={x.k} [${x.i}] {p(x.role)})"
    raise TypeError(f"not a DLR concept, role or binary relation term: {x!r}")


print_dlr_role = print_dlr_binrel = print_dlr_concept = printer("top1", _print_own)
