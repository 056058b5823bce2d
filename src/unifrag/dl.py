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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Union

from .errors import VocabularyError
from .structures import Structure
from .syntax import TokenParser, Vocabulary

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
        if set(self.map) != set(range(1, m + 1)):
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


def union_role(r1: RoleTerm, r2: RoleTerm) -> RoleTerm:
    return NotRole(AndRole(NotRole(r1), NotRole(r2)))


def universal_role() -> RoleTerm:
    # the empty binary relation eps & ~eps, complemented
    return NotRole(AndRole(Epsilon(), NotRole(Epsilon())))


# ---------------------------------------------------------------------------
# Arity and extension semantics
# ---------------------------------------------------------------------------

def role_arity(r: RoleTerm, vocab: Vocabulary) -> int:
    """Arity of a role term; mismatches collapse to the empty binary relation."""
    if isinstance(r, AtomicRole):
        arity = vocab.arity(r.name)
        if arity < 2:
            raise VocabularyError(f"{r.name!r} has arity {arity}; roles need arity >= 2")
        return arity
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


def role_extension(s: Structure, r: RoleTerm) -> frozenset[tuple[str, ...]]:
    vocab = s.vocabulary
    if isinstance(r, AtomicRole):
        role_arity(r, vocab)
        return s.relations[r.name]
    if isinstance(r, Epsilon):
        return frozenset((d, d) for d in s.domain)
    if isinstance(r, NotRole):
        inner = role_extension(s, r.role)
        n = role_arity(r.role, vocab)
        return frozenset(t for t in product(s.domain, repeat=n) if t not in inner)
    if isinstance(r, AndRole):
        if role_arity(r.left, vocab) != role_arity(r.right, vocab):
            return frozenset()
        return role_extension(s, r.left) & role_extension(s, r.right)
    if isinstance(r, Apply):
        if r.srj.source != role_arity(r.role, vocab):
            return frozenset()
        inner = role_extension(s, r.role)
        m = r.srj.target
        return frozenset(
            t for t in product(s.domain, repeat=m)
            if tuple(t[i - 1] for i in r.srj.map) in inner)
    raise TypeError(f"not a role term: {r!r}")


def concept_extension(s: Structure, c: Concept) -> frozenset[str]:
    vocab = s.vocabulary
    if isinstance(c, TopC):
        return frozenset(s.domain)
    if isinstance(c, AtomicConcept):
        arity = vocab.arity(c.name)
        if arity != 1:
            raise VocabularyError(
                f"{c.name!r} has arity {arity}; atomic concepts must be unary")
        return frozenset(t[0] for t in s.relations[c.name])
    if isinstance(c, NotC):
        return frozenset(s.domain) - concept_extension(s, c.body)
    if isinstance(c, AndC):
        return concept_extension(s, c.left) & concept_extension(s, c.right)
    if isinstance(c, ExistsRole):
        n = role_arity(c.role, vocab)
        if len(c.args) != n - 1:
            raise VocabularyError(
                f"existential over a role of arity {n} needs {n - 1} argument "
                f"concepts, got {len(c.args)}")
        arg_exts = [concept_extension(s, a) for a in c.args]
        ext = role_extension(s, c.role)
        return frozenset(
            t[0] for t in ext
            if all(t[i + 1] in arg_exts[i] for i in range(len(arg_exts))))
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

    def concept(self) -> Concept:
        t = self.peek()
        if t.kind == "NAME" and t.text == "top":
            self.next()
            return TopC()
        if t.kind == "TILDE":
            self.next()
            return NotC(self.concept())
        if t.kind == "LPAREN":
            self.next()
            c = self.concept()
            while self.peek().kind == "AMP":
                self.next()
                c = AndC(c, self.concept())
            self.expect("RPAREN")
            return c
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

    def role(self) -> RoleTerm:
        t = self.peek()
        if t.kind == "NAME" and t.text == "eps":
            self.next()
            return Epsilon()
        if t.kind == "TILDE":
            self.next()
            return NotRole(self.role())
        if t.kind == "LPAREN":
            self.next()
            r = self.role()
            while self.peek().kind == "AMP":
                self.next()
                r = AndRole(r, self.role())
            self.expect("RPAREN")
            return r
        if t.kind == "NAME" and t.text == "perm":
            self.next()
            self.expect("LBRACK")
            values = [int(self.expect("INT").text)]
            while self.peek().kind == "COMMA":
                self.next()
                values.append(int(self.expect("INT").text))
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
