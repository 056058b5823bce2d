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

Extensions are computed bottom-up without ever building a complement: a
role term evaluates to a signed tuple set, the tuples of a relation or of
its complement in domain^n, and role negation only flips the sign.  The
n-ary existential over a complemented role counts, for each element, the
excluded tuples that start there.  Each node therefore costs time linear
in the size of the relations and the domain, O(|relations| + |domain|),
never domain^n; only :func:`role_extension` of a complemented role, asked
for the tuples themselves, enumerates domain^n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import prod
from operator import itemgetter
from typing import Union

from .errors import VocabularyError
from .structures import Structure
from .syntax import TokenParser, Vocabulary, nested

# ---------------------------------------------------------------------------
# Surjections and role terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Surjection:
    """A map from [k] onto [m] with 2 <= m <= k, stored as the value list
    (map[j-1] is the image of position j)."""

    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        k = len(self.map)
        if k < 2:
            raise ValueError("coordinate maps need source arity >= 2")
        m = max(self.map, default=0)
        if m < 2:
            raise ValueError("coordinate maps need target arity >= 2")
        if min(self.map) < 1 or len(set(self.map)) != m:  # every value is <= m
            raise ValueError(f"map {self.map} is not onto 1..{m}")

    @property
    def source(self) -> int:
        return len(self.map)

    @property
    def target(self) -> int:
        return max(self.map)

    def inverse(self) -> "Surjection":
        if self.source != self.target:
            raise ValueError("only permutations have an inverse")
        inv = [0] * self.source
        for j, i in enumerate(self.map, start=1):
            inv[i - 1] = j
        return Surjection(tuple(inv))


@dataclass(frozen=True)
class AtomicRole:
    name: str


@dataclass(frozen=True)
class Epsilon:
    pass


@dataclass(frozen=True)
class NotRole:
    role: "RoleTerm"


@dataclass(frozen=True)
class AndRole:
    left: "RoleTerm"
    right: "RoleTerm"


@dataclass(frozen=True)
class Apply:
    srj: Surjection
    role: "RoleTerm"


RoleTerm = Union[AtomicRole, Epsilon, NotRole, AndRole, Apply]


# ---------------------------------------------------------------------------
# Concepts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicConcept:
    name: str


@dataclass(frozen=True)
class TopC:
    pass


@dataclass(frozen=True)
class NotC:
    body: "Concept"


@dataclass(frozen=True)
class AndC:
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True)
class ExistsRole:
    role: RoleTerm
    args: tuple["Concept", ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise ValueError("n-ary existential needs at least one argument concept")


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


def role_arity(r: RoleTerm, vocab: Vocabulary) -> int:
    """Arity of a role term; mismatches collapse to the empty binary relation."""
    if isinstance(r, AtomicRole):
        return atomic_role_arity(r.name, vocab)
    if isinstance(r, Epsilon):
        return 2
    if isinstance(r, NotRole):
        return role_arity(r.role, vocab)
    if isinstance(r, AndRole):
        a1 = role_arity(r.left, vocab)
        a2 = role_arity(r.right, vocab)
        return a1 if a1 == a2 else 2
    if isinstance(r, Apply):
        return r.srj.target if r.srj.source == role_arity(r.role, vocab) else 2
    raise TypeError(f"not a role term: {r!r}")


def _role_literal(s: Structure, r: RoleTerm) -> tuple[int, bool, frozenset]:
    """``(arity, negated, tuples)``: the extension of ``r`` is ``tuples``,
    or its complement in domain^arity when ``negated``.  Every rule costs
    time linear in the tuple sets it combines; none builds a complement."""
    if isinstance(r, AtomicRole):
        return atomic_role_arity(r.name, s.vocabulary), False, s.relations[r.name]
    if isinstance(r, Epsilon):
        return 2, False, frozenset((d, d) for d in s.domain)
    if isinstance(r, NotRole):
        n, negated, tuples = _role_literal(s, r.role)
        return n, not negated, tuples
    if isinstance(r, AndRole):
        n, neg1, t1 = _role_literal(s, r.left)
        n2, neg2, t2 = _role_literal(s, r.right)
        if n != n2:
            return 2, False, frozenset()
        if neg1 and neg2:
            return n, True, t1 | t2  # ~t1 & ~t2 = ~(t1 | t2)
        if neg1:
            return n, False, t2 - t1
        if neg2:
            return n, False, t1 - t2
        return n, False, t1 & t2
    if isinstance(r, Apply):
        k, negated, tuples = _role_literal(s, r.role)
        if r.srj.source != k:
            return 2, False, frozenset()
        # t is in the result iff lift(t) = (t[map[j]-1])_j is in the inner
        # relation.  lift is injective, so it commutes with complement, and
        # the only candidate preimage of an inner tuple u is pick(u), whose
        # position i is u's first position j with map[j] = i
        images = r.srj.map
        pick = itemgetter(*(images.index(i) for i in range(1, r.srj.target + 1)))
        lift = itemgetter(*(i - 1 for i in images))
        return r.srj.target, negated, frozenset(
            t for t in map(pick, tuples) if lift(t) in tuples)
    raise TypeError(f"not a role term: {r!r}")


def role_extension(s: Structure, r: RoleTerm) -> frozenset[tuple[str, ...]]:
    n, negated, tuples = _role_literal(s, r)
    if not negated:
        return tuples
    return frozenset(t for t in product(s.domain, repeat=n) if t not in tuples)


def concept_extension(s: Structure, c: Concept) -> frozenset[str]:
    if isinstance(c, TopC):
        return frozenset(s.domain)
    if isinstance(c, AtomicConcept):
        check_concept_name(c.name, s.vocabulary)
        return frozenset(t[0] for t in s.relations[c.name])
    if isinstance(c, NotC):
        return frozenset(s.domain) - concept_extension(s, c.body)
    if isinstance(c, AndC):
        return concept_extension(s, c.left) & concept_extension(s, c.right)
    if isinstance(c, ExistsRole):
        n, negated, tuples = _role_literal(s, c.role)
        check_existential_args(n, c.args)
        arg_exts = [concept_extension(s, a) for a in c.args]
        hits = [t for t in tuples
                if all(t[i] in ext for i, ext in enumerate(arg_exts, start=1))]
        if not negated:
            return frozenset(t[0] for t in hits)
        # d has a witness outside the tuples iff fewer than all
        # prod |C_i| candidate tuples (d, c_1, ..., c_n-1) are among them
        room = prod(len(ext) for ext in arg_exts)
        per_head = Counter(t[0] for t in hits)
        return frozenset(d for d in s.domain if per_head[d] < room)
    raise TypeError(f"not a concept: {c!r}")


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_RESERVED = frozenset({"eps", "exists", "perm", "top"})


class _DlParser(TokenParser):
    def atom_name(self, what):
        t = self.peek()
        if t.kind != "NAME" or t.text in _RESERVED:
            raise self.error(f"expected {what}, found {t.text or 'end of input'!r}")
        return self.next().text

    @nested
    def concept(self) -> Concept:
        t = self.peek()
        if t.kind == "NAME" and t.text == "top":
            self.next()
            return TopC()
        if t.kind == "TILDE":
            self.next()
            return NotC(self.concept())
        if t.kind == "LPAREN":
            return self.conjunction(self.concept, AndC)
        if t.kind == "NAME" and t.text == "exists":
            self.next()
            role = self.role()
            self.expect("DOT")
            self.expect("LPAREN")
            args = [self.concept()]
            while self.peek().kind == "COMMA":
                self.next()
                args.append(self.concept())
            self.expect("RPAREN")
            return ExistsRole(role, tuple(args))
        return AtomicConcept(self.atom_name("concept name"))

    @nested
    def role(self) -> RoleTerm:
        t = self.peek()
        if t.kind == "NAME" and t.text == "eps":
            self.next()
            return Epsilon()
        if t.kind == "TILDE":
            self.next()
            return NotRole(self.role())
        if t.kind == "LPAREN":
            return self.conjunction(self.role, AndRole)
        if t.kind == "NAME" and t.text == "perm":
            self.next()
            self.expect("LBRACK")
            values = [self.integer()]
            while self.peek().kind == "COMMA":
                self.next()
                values.append(self.integer())
            self.expect("RBRACK")
            srj = self.build(Surjection, tuple(values))
            return Apply(srj, self.role())
        return AtomicRole(self.atom_name("role name"))


def parse_concept(text: str) -> Concept:
    p = _DlParser(text)
    return p.finish(p.concept())


def parse_role(text: str) -> RoleTerm:
    p = _DlParser(text)
    return p.finish(p.role())


def print_role(r: RoleTerm) -> str:
    if isinstance(r, AtomicRole):
        return r.name
    if isinstance(r, Epsilon):
        return "eps"
    if isinstance(r, NotRole):
        return f"~{print_role(r.role)}"
    if isinstance(r, AndRole):
        return f"({print_role(r.left)} & {print_role(r.right)})"
    if isinstance(r, Apply):
        return f"perm[{','.join(map(str, r.srj.map))}]{print_role(r.role)}"
    raise TypeError(f"not a role term: {r!r}")


def print_concept(c: Concept) -> str:
    if isinstance(c, AtomicConcept):
        return c.name
    if isinstance(c, TopC):
        return "top"
    if isinstance(c, NotC):
        return f"~{print_concept(c.body)}"
    if isinstance(c, AndC):
        return f"({print_concept(c.left)} & {print_concept(c.right)})"
    if isinstance(c, ExistsRole):
        return f"exists {print_role(c.role)}.({', '.join(print_concept(a) for a in c.args)})"
    raise TypeError(f"not a concept: {c!r}")
