"""Description logic with n-ary roles, Boolean role operators, the binary
identity role and surjective coordinate maps.

Role and concept text grammar::

    role    ::= NAME | 'eps' | '~' role | '(' role '&' role ')'
              | 'perm[' INT (',' INT)* ']' role
    concept ::= NAME | 'top' | '~' concept | '(' concept '&' concept ')'
              | 'exists' role '.' '(' concept (',' concept)* ')'

``perm[i1,...,ik]`` applies the coordinate map sending position j to i_j;
for a role of matching arity k the result has arity max(i_j).  Mismatched
arities (role intersection of different arities, coordinate maps applied
at the wrong source arity) denote the empty relation, which carries the
nominal arity two.

Atomic roles must be declared with arity at least two, atomic concepts
with arity one.  ``top`` denotes the whole domain; it also lets the
n-ary existential express "some tuple, no constraint" as exists R.(top,...).
Roles, concepts and coordinate maps are immutable nodes on the base
:class:`unifrag.syntax.Node`, whose ``==``, ``hash`` and ``repr`` read
their fields.  A chain of ``&`` is parsed as a balanced tree, and parsed
terms are at most ``syntax.MAX_NESTING`` levels tall; a much taller term
built in code may make the extensions, printers and translations raise
RecursionError, though never ``==`` or ``repr``.  One printer prints
concepts and roles alike; its core, :func:`printer`, serves :mod:`unifrag.dlr` too.

Extensions are computed bottom-up without ever building a complement: a
role term evaluates to a signed tuple set, the tuples of a relation or of
its complement in domain^n, and role negation only flips the sign.  The
n-ary existential over a complemented role counts, for each element, the
excluded tuples that start there.  Each node therefore costs time linear
in the size of the relations and the domain, O(|relations| + |domain|),
never domain^n; only :func:`role_extension` of a complemented role, asked
for the tuples themselves, enumerates domain^n.  The role core
(:func:`role_compiler`) and the counting of complements (:func:`crowded`)
are shared with :mod:`unifrag.dlr`, whose complements also carry the
position filters of its selections and are taken in its top relations.

A concept or role is compiled once per vocabulary into closures that do
only this set work: names, arities, argument counts and coordinate maps
are checked and settled at compile time, so a term that fails a check
raises before any structure is read, as an FO formula does.  The terms
compiled are kept in a bounded table of :func:`unifrag.syntax.compiled`,
so a concept checked on many structures is compiled once.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import prod
from operator import itemgetter
from typing import Callable, Optional, Union

from .errors import VocabularyError
from .structures import Structure
from .syntax import Node, Recursive, TokenParser, Vocabulary, compiled, nested

# ---------------------------------------------------------------------------
# Surjections and role terms
# ---------------------------------------------------------------------------


class Surjection(Node):
    """A map from [k] onto [m] with 2 <= m <= k, stored as the value list
    (map[j-1] is the image of position j)."""

    __slots__ = ("map",)

    def __init__(self, map: tuple[int, ...]):
        map = tuple(map)
        k = len(map)
        if k < 2:
            raise ValueError("coordinate maps need source arity >= 2")
        m = max(map, default=0)
        if m < 2:
            raise ValueError("coordinate maps need target arity >= 2")
        if min(map) < 1 or len(set(map)) != m:  # every value is <= m
            raise ValueError(f"map {map} is not onto 1..{m}")
        self._set_fields(map)

    @property
    def source(self) -> int:
        return len(self.map)

    @property
    def target(self) -> int:
        return max(self.map)


class AtomicRole(Node):
    __slots__ = ("name",)


class Epsilon(Node):
    __slots__ = ()


class NotRole(Node):
    """~role: the complement of ``role`` within the tuples of its arity."""

    __slots__ = ("role",)


class AndRole(Node):
    __slots__ = ("left", "right")


class Apply(Node):
    """perm[...] role: ``role`` under the coordinate map ``srj``, a
    :class:`Surjection`."""

    __slots__ = ("srj", "role")


RoleTerm = Union[AtomicRole, Epsilon, NotRole, AndRole, Apply]


# ---------------------------------------------------------------------------
# Concepts
# ---------------------------------------------------------------------------

class AtomicConcept(Node):
    __slots__ = ("name",)


class TopC(Node):
    __slots__ = ()


class NotC(Node):
    __slots__ = ("body",)


class AndC(Node):
    __slots__ = ("left", "right")


class ExistsRole(Node):
    __slots__ = ("role", "args")

    def __init__(self, role: RoleTerm, args: tuple["Concept", ...]):
        args = tuple(args)
        if not args:
            raise ValueError("n-ary existential needs at least one argument concept")
        self._set_fields(role, args)


Concept = Union[AtomicConcept, TopC, NotC, AndC, ExistsRole]


def or_concept(c1: Concept, c2: Concept) -> Concept:
    return NotC(AndC(NotC(c1), NotC(c2)))


def universal_role() -> RoleTerm:
    # the empty binary relation eps & ~eps, complemented
    return NotRole(AndRole(Epsilon(), NotRole(Epsilon())))


# ---------------------------------------------------------------------------
# Arity and extension semantics
# ---------------------------------------------------------------------------

def atomic_role_arity(name: str, vocab: Vocabulary) -> int:
    """Arity of the symbol an atomic role names; roles need arity >= 2."""
    arity = vocab.arity(name)
    if arity < 2:
        raise VocabularyError(f"{name!r} has arity {arity}; roles need arity >= 2")
    return arity


def check_concept_name(name: str, vocab: Vocabulary) -> None:
    """An atomic concept must name a unary symbol."""
    if vocab.symbols.get(name) != 1:
        arity = vocab.arity(name)  # raises for an unknown name
        raise VocabularyError(f"{name!r} has arity {arity}; atomic concepts must be unary")


def check_existential_args(n: int, args: tuple) -> None:
    """An existential over a role of arity n takes n - 1 argument concepts."""
    if len(args) != n - 1:
        raise VocabularyError(
            f"existential over a role of arity {n} needs {n - 1} argument "
            f"concepts, got {len(args)}")


# A compiled term: the closure ``f(s, dom)`` that gives its extension on a
# structure ``s`` over its vocabulary with the domain ``dom`` as a frozenset.
Compiled = Callable[[Structure, frozenset], frozenset]


def nothing(s: Structure, dom: frozenset) -> frozenset:
    return frozenset()


def identity(s: Structure, dom: frozenset) -> frozenset:
    return s.eps()


_cache: list = [None] * 5 + [{}]  # the terms compiled, see syntax.compiled


def concept_compiler(vocab: Vocabulary, own: Callable) -> Callable[[Concept], Compiled]:
    """The compiler of concepts over ``vocab``, shared with :mod:`unifrag.dlr`:
    it compiles the four node kinds of both logics and leaves the others to
    ``own(c, comp)``.  A node that fails a vocabulary check, or is no node,
    raises when it is compiled."""
    def comp(c, comp) -> Compiled:
        if isinstance(c, TopC):
            return lambda s, dom: dom
        if isinstance(c, AtomicConcept):
            check_concept_name(c.name, vocab)
            name = c.name
            return lambda s, dom: s.members(name)
        if isinstance(c, NotC):
            body = comp(c.body)
            return lambda s, dom: dom - body(s, dom)
        if isinstance(c, AndC):
            left, right = comp(c.left), comp(c.right)
            return lambda s, dom: left(s, dom) & right(s, dom)
        return own(c, comp)
    return Recursive(comp)


# A compiled role ``(arity, cuts, tuples)`` stands for the set ``tuples(s,
# dom)`` when ``cuts`` is None, else for its complement among the tuples t
# of domain^arity with t[i] in ``c(s, dom)`` for each filter ``(i, c)`` of
# the tuple ``cuts`` (i 0-based).  Only the DLR's selections make filters.
CompiledRole = tuple[int, Optional[tuple], Compiled]


def role_compiler(vocab: Vocabulary, own: Callable) -> Callable[[RoleTerm], CompiledRole]:
    """The compiler of roles over ``vocab``, shared with :mod:`unifrag.dlr`:
    it compiles atomic roles, ``~`` and ``&`` of one arity, and leaves the
    other nodes, and an ``&`` of two arities, to ``own(r, comp)``.  No rule
    lists domain^n, but ``~`` of a cut complement other than one bare filter
    lists the product of its cuts' sets."""
    def comp(r, comp) -> CompiledRole:
        if isinstance(r, AtomicRole):
            name = r.name
            return atomic_role_arity(name, vocab), None, lambda s, dom: s.relations[name]
        if isinstance(r, NotRole):
            n, cuts, tuples = comp(r.role)
            if cuts is None:
                return n, (), tuples
            if not cuts:  # the complement of a complement
                return n, None, tuples
            if tuples is nothing and len(cuts) == 1:  # the complement of one filter
                (i, c), = cuts
                return n, ((i, lambda s, dom: dom - c(s, dom)),), nothing

            def listed(s: Structure, dom: frozenset) -> frozenset:
                sets, excluded = _sets(n, cuts, s, dom), tuples(s, dom)
                return frozenset(t for t in product(*sets) if t not in excluded)
            return n, (), listed
        if isinstance(r, AndRole):
            (n, cuts1, t1), (n2, cuts2, t2) = comp(r.left), comp(r.right)
            if n != n2:
                return own(r, comp)
            if t1 is t2:  # one closure, so one tuple set, as for eps & ~eps
                if (cuts1 is None) != (cuts2 is None):
                    return n, None, nothing
                return n, None if cuts1 is None else cuts1 + cuts2, t1
            if cuts1 is None:
                if cuts2 is None:
                    return n, None, lambda s, dom: t1(s, dom) & t2(s, dom)
                kept, dropped, cuts = t1, t2, cuts2
            elif cuts2 is None:
                kept, dropped, cuts = t2, t1, cuts1
            else:  # ~t1 & ~t2 = ~(t1 | t2)
                return n, cuts1 + cuts2, lambda s, dom: t1(s, dom) | t2(s, dom)
            if not cuts:
                return n, None, lambda s, dom: kept(s, dom) - dropped(s, dom)

            def cut(s: Structure, dom: frozenset) -> frozenset:
                hits = kept(s, dom) - dropped(s, dom)
                for i, c in cuts:
                    ext = c(s, dom)
                    hits = [t for t in hits if t[i] in ext]
                return frozenset(hits)
            return n, None, cut
        return own(r, comp)
    return Recursive(comp)


def _sets(n: int, cuts: tuple, s: Structure, dom: frozenset) -> list:
    """Per position, the elements that every filter at that position allows."""
    sets = [dom] * n
    for i, c in cuts:
        sets[i] = c(s, dom) if sets[i] is dom else sets[i] & c(s, dom)
    return sets


def crowded(role: CompiledRole, filters: tuple, positions: tuple, k: int = 0) -> Compiled:
    """The keys, the components at one position or the pairs at two, of
    more than k tuples of ``role`` cut down by ``filters``.  A complement is
    counted, not built: a key that the cuts allow has the product of the
    other positions' sets for tuples, less the excluded ones it has."""
    n, cuts, tuples = role
    key = itemgetter(*positions)
    if cuts is None and not k:
        def present(s: Structure, dom: frozenset) -> frozenset:
            hits = tuples(s, dom)
            for p, c in filters:
                ext = c(s, dom)
                if ext is not dom:  # a top argument gives dom itself and keeps all
                    hits = [t for t in hits if t[p] in ext]
            return frozenset(map(key, hits))
        return present
    negated, cuts = cuts is not None, (cuts or ()) + filters
    rest = [p for p in range(n) if p not in positions]
    i, j = positions[0], positions[-1]

    def extension(s: Structure, dom: frozenset) -> frozenset:
        hits = tuples(s, dom)
        sets = _sets(n, cuts, s, dom)
        for p, _ in cuts:
            if sets[p] is not dom:
                ext = sets[p]
                hits = [t for t in hits if t[p] in ext]
        if not negated:
            return frozenset(x for x, m in Counter(map(key, hits)).items() if m > k)
        keys = (sets[i] if len(positions) == 1 else product(sets[i], sets[j]) if i != j
                else ((d, d) for d in sets[i]))
        room = prod(len(sets[p]) for p in rest)
        if room <= k:
            return frozenset()
        if len(hits) < room - k:  # too few exclusions to bring a key down to k
            return frozenset(keys)
        if room == 1:  # a key has one tuple, there unless it is excluded
            return frozenset(keys).difference(map(key, hits))
        per_key = Counter(map(key, hits))
        return frozenset(x for x in keys if room - per_key[x] > k)
    return extension


def _own_role(r, comp) -> CompiledRole:
    if isinstance(r, Epsilon):
        return 2, None, identity
    if isinstance(r, Apply):
        k, cuts, inner = comp(r.role)
        if r.srj.source != k:
            return 2, None, nothing
        # t is in the result iff lift(t) = (t[map[j]-1])_j is in the inner
        # relation.  lift is injective, so it commutes with complement, and
        # the only candidate preimage of an inner tuple u is pick(u), whose
        # position i is u's first position j with map[j] = i.  A one-to-one
        # map lifts every pick(u) back to u, so it needs no lift test
        images = r.srj.map
        if images == tuple(range(1, k + 1)):
            return k, cuts, inner
        pick = itemgetter(*(images.index(i) for i in range(1, r.srj.target + 1)))
        if r.srj.target == k:
            return k, cuts, lambda s, dom: frozenset(map(pick, inner(s, dom)))
        lift = itemgetter(*(i - 1 for i in images))

        def apply(s: Structure, dom: frozenset) -> frozenset:
            tuples = inner(s, dom)
            return frozenset(t for t in map(pick, tuples) if lift(t) in tuples)
        return r.srj.target, cuts, apply
    if isinstance(r, AndRole):  # of two arities: the empty relation
        return 2, None, nothing
    raise TypeError(f"not a role term: {r!r}")


def _compile_role(r: RoleTerm, vocab: Vocabulary) -> CompiledRole:
    return role_compiler(vocab, _own_role)(r)


def _compile_concept(c: Concept, vocab: Vocabulary) -> Compiled:
    role = role_compiler(vocab, _own_role)

    def exists(c, comp) -> Compiled:
        if not isinstance(c, ExistsRole):
            raise TypeError(f"not a concept: {c!r}")
        compiled_role = role(c.role)
        check_existential_args(compiled_role[0], c.args)
        # the heads of the role's tuples (d, c_1, ..., c_n-1) with c_i in C_i
        return crowded(compiled_role, tuple(enumerate(map(comp, c.args), start=1)), (0,))
    return concept_compiler(vocab, exists)(c)


def role_extension(s: Structure, r: RoleTerm) -> frozenset[tuple[str, ...]]:
    n, cuts, tuples = compiled(_cache, _compile_role, r, s.vocabulary)
    ext = tuples(s, s.domain_set())
    if cuts is None:
        return ext
    return frozenset(t for t in product(s.domain, repeat=n) if t not in ext)


def concept_extension(s: Structure, c: Concept) -> frozenset[str]:
    return compiled(_cache, _compile_concept, c, s.vocabulary)(s, s.domain_set())


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

RESERVED = frozenset({"eps", "exists", "perm", "top"})


class _DlParser(TokenParser):
    @nested
    def concept(self) -> Concept:
        if self.accept("NAME", "top"):
            return TopC()
        if self.accept("TILDE"):
            return NotC(self.concept())
        if self.tok.kind == "LPAREN":
            return self.chain(self.concept, {"AMP": AndC})
        if self.accept("NAME", "exists"):
            role = self.role()
            self.expect("DOT")
            self.expect("LPAREN")
            args = self.items(self.concept)
            self.expect("RPAREN")
            return ExistsRole(role, tuple(args))
        return AtomicConcept(self.word("concept name", RESERVED))

    @nested
    def role(self) -> RoleTerm:
        if self.accept("NAME", "eps"):
            return Epsilon()
        if self.accept("TILDE"):
            return NotRole(self.role())
        if self.tok.kind == "LPAREN":
            return self.chain(self.role, {"AMP": AndRole})
        if self.accept("NAME", "perm"):
            self.expect("LBRACK")
            values = self.items(self.integer)
            self.expect("RBRACK")
            srj = self.build(Surjection, tuple(values))
            return Apply(srj, self.role())
        return AtomicRole(self.word("role name", RESERVED))


def parse_concept(text: str) -> Concept:
    p = _DlParser(text)
    return p.finish(p.concept())


def printer(top: str, own: Callable) -> Callable[[Node], str]:
    """The printer shared with :mod:`unifrag.dlr`: it prints atomic concepts
    and roles, ``TopC`` as the text ``top``, ``eps``, and ``~`` and ``&`` of
    concepts or roles, and leaves the other nodes to ``own(x, p)``."""
    def p(x) -> str:
        kind = type(x)  # by exact class: an isinstance per kind tried made printing 1.5x slower
        if kind is NotC:
            return f"~{p(x.body)}"
        if kind is AndC or kind is AndRole:
            return f"({p(x.left)} & {p(x.right)})"
        if kind is AtomicConcept or kind is AtomicRole:
            return x.name
        if kind is NotRole:
            return f"~{p(x.role)}"
        if kind is TopC:
            return top
        if kind is Epsilon:
            return "eps"
        return own(x, p)
    return p


def _print_own(x, p) -> str:
    if isinstance(x, Apply):
        return f"perm[{','.join(map(str, x.srj.map))}]{p(x.role)}"
    if isinstance(x, ExistsRole):
        return f"exists {p(x.role)}.({', '.join(map(p, x.args))})"
    raise TypeError(f"not a DL concept or role: {x!r}")


print_role = print_concept = printer("top", _print_own)
