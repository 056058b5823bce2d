"""Tarskian model checking over finite structures, including counting
quantifiers.

``compile_formula`` is the one evaluator core: it compiles a formula into
closures with three-valued (Kleene) connectives and quantifiers, leaving
the atoms to a caller-supplied factory.  ``evaluate`` and
``satisfaction_set`` compile with atoms that look tuples up in a structure,
so there the core is two-valued; :mod:`unifrag.modelfind` compiles with
atoms that read a partial interpretation.  ``evaluate_naive`` enumerates
every branch with its own plain recursion and serves as the reference the
compiled evaluator is tested against.

``evaluate`` and ``satisfaction_set`` validate and compile a formula once
per vocabulary and reuse the result across structures: the last formula
prepared stays in a one-entry cache, keyed on the formula object and an
equal vocabulary, until a call asks for another.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .errors import EvalError
from .structures import Structure
from .syntax import (And, Atom, Bottom, CountExists, Equals, ExistsBlock,
                     ForallBlock, Formula, Implies, Not, Or, Top, Vocabulary,
                     free_variables, validate_formula)

Assignment = Mapping[str, str]
Closure = Callable[[], Optional[bool]]

_MISSING = object()


@dataclass(frozen=True)
class SatisfactionSet:
    """The subset of the domain a formula with at most one free variable
    carves out; for sentences this is the whole domain or nothing."""

    formula: Formula
    elements: frozenset[str]


def _check_inputs(s: Structure, a: Assignment, f: Formula):
    validate_formula(f, s.vocabulary)
    _check_assignment(s, a, free_variables(f))


def _check_assignment(s: Structure, a: Assignment, free: frozenset[str]):
    dom = set(s.domain)
    for var, val in a.items():
        if val not in dom:
            raise EvalError(f"assignment maps {var!r} to {val!r}, not a domain element")
    unbound = free - a.keys()
    if unbound:
        raise EvalError(f"unbound free variables: {', '.join(sorted(unbound))}")


def evaluate(s: Structure, a: Assignment, f: Formula) -> bool:
    """Standard satisfaction; quantifier blocks are iterated quantification
    and E[cmp k] x. f counts the witnesses for x."""
    p = _take(f, s) or _Prepared(f, s.vocabulary)
    try:
        _check_assignment(s, a, p.free)
        p.bind(s, a)
        return p.test()
    finally:
        p.release()


class _Prepared:
    """``formula`` validated against ``vocabulary`` and compiled once.

    The closures quantify over ``domain``, look atoms up in ``relations``
    and read variables from ``asg``.  ``bind`` fills the three from one
    structure over the vocabulary and one assignment for the length of a
    call.  ``release`` empties them again, so that no structure outlives
    its call, and puts the record back in the cache.
    """

    __slots__ = ("formula", "vocabulary", "free", "domain", "relations", "asg", "test")

    def __init__(self, f: Formula, vocabulary: Vocabulary,
                 free: Optional[frozenset[str]] = None):
        validate_formula(f, vocabulary)
        self.formula, self.vocabulary = f, vocabulary
        self.free = free_variables(f) if free is None else free
        self.domain: list[str] = []
        self.relations: dict[str, frozenset[tuple[str, ...]]] = {}
        self.asg: dict[str, str] = {}
        relations, asg = self.relations, self.asg

        def atom(g: Atom) -> Closure:
            name, args = g.rel, g.args
            return lambda: tuple([asg[v] for v in args]) in relations[name]

        self.test = compile_formula(f, self.domain, atom, asg)

    def bind(self, s: Structure, a: Assignment) -> None:
        self.domain[:] = s.domain
        self.relations.update(s.relations)
        self.asg.update(a)

    def release(self) -> None:
        self.domain.clear()
        self.relations.clear()
        self.asg.clear()
        _slot.append(self)


# The one cached record.  A call takes it out while it runs and releases it
# (or its own) back afterwards, so concurrent or re-entrant calls never
# share a record's bindings.  Holding the formula keeps its id from being
# reused while it is cached.
_slot: deque[_Prepared] = deque(maxlen=1)


def _take(f: Formula, s: Structure) -> Optional[_Prepared]:
    """The cached record when it was prepared for ``f`` over a vocabulary
    equal to that of ``s``; the slot is left empty either way."""
    try:
        p = _slot.pop()
    except IndexError:
        return None
    if p.formula is f and (p.vocabulary is s.vocabulary or p.vocabulary == s.vocabulary):
        return p
    return None


# ---------------------------------------------------------------------------
# The evaluator core: three-valued (Kleene) evaluation compiled to closures
# ---------------------------------------------------------------------------

def compile_formula(f: Formula, domain: Sequence, atom: Callable[[Atom], Closure],
                    asg: dict) -> Closure:
    """Compile ``f`` into a closure reading the variable values in ``asg``.

    Quantifiers range over ``domain``; ``atom`` builds the closure of each
    atom.  A closure answers True, False, or None (not yet determined) when
    an atom closure does, and the connectives and quantifiers follow the
    strong Kleene tables, so a definite answer never changes however the
    undetermined atoms are later decided.  When no atom answers None the
    evaluation is ordinary two-valued satisfaction.
    """
    if isinstance(f, Top):
        return lambda: True
    if isinstance(f, Bottom):
        return lambda: False
    if isinstance(f, Atom):
        return atom(f)
    if isinstance(f, Equals):
        left, right = f.left, f.right
        return lambda: asg[left] == asg[right]
    if isinstance(f, Not):
        g = compile_formula(f.body, domain, atom, asg)

        def ev_not():
            v = g()
            return None if v is None else not v

        return ev_not
    if isinstance(f, (And, Or, Implies)):
        gl = compile_formula(f.left, domain, atom, asg)
        gr = compile_formula(f.right, domain, atom, asg)
        if isinstance(f, And):
            def ev_and():
                a = gl()
                if a is False:
                    return False
                b = gr()
                if b is False:
                    return False
                return True if (a and b) else None

            return ev_and
        if isinstance(f, Or):
            def ev_or():
                a = gl()
                if a is True:
                    return True
                b = gr()
                if b is True:
                    return True
                return False if (a is False and b is False) else None

            return ev_or

        def ev_implies():
            a = gl()
            if a is False:
                return True
            b = gr()
            if b is True:
                return True
            if a is True and b is False:
                return False
            return None

        return ev_implies
    if isinstance(f, (ExistsBlock, ForallBlock)):
        body = compile_formula(f.body, domain, atom, asg)
        exists = isinstance(f, ExistsBlock)

        def make(vars: tuple[str, ...]) -> Closure:
            if not vars:
                return body
            inner = make(vars[1:])
            var = vars[0]

            def ev_quant():
                saw_unknown = False
                saved = asg.get(var, _MISSING)
                try:
                    for d in domain:
                        asg[var] = d
                        r = inner()
                        if r is exists:
                            return exists
                        if r is None:
                            saw_unknown = True
                finally:
                    if saved is _MISSING:
                        del asg[var]
                    else:
                        asg[var] = saved
                return None if saw_unknown else (not exists)

            return ev_quant

        return make(f.vars)
    if isinstance(f, CountExists):
        body = compile_formula(f.body, domain, atom, asg)
        var, bound, cmp = f.var, f.bound, f.cmp

        def ev_count():
            true_count = unknown = 0
            saved = asg.get(var, _MISSING)
            try:
                for d in domain:
                    asg[var] = d
                    r = body()
                    if r is True:
                        true_count += 1
                    elif r is None:
                        unknown += 1
                    if cmp == ">=" and true_count >= bound:
                        return True
                    if cmp != ">=" and true_count > bound:
                        return False
            finally:
                if saved is _MISSING:
                    del asg[var]
                else:
                    asg[var] = saved
            if cmp == ">=":
                return False if true_count + unknown < bound else None
            if cmp == "<=":
                return True if true_count + unknown <= bound else None
            if true_count + unknown < bound:
                return False
            if true_count == bound and unknown == 0:
                return True
            return None

        return ev_count
    raise TypeError(f"not a formula: {f!r}")


def evaluate_naive(s: Structure, a: Assignment, f: Formula) -> bool:
    """No-pruning reference semantics: quantifiers enumerate the full
    domain and combine afterwards."""
    _check_inputs(s, a, f)
    return _ev_naive(s, dict(a), f)


def _ev_naive(s, a, f) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        return tuple(a[v] for v in f.args) in s.relations[f.rel]
    if isinstance(f, Equals):
        return a[f.left] == a[f.right]
    if isinstance(f, Not):
        return not _ev_naive(s, a, f.body)
    if isinstance(f, And):
        left, right = _ev_naive(s, a, f.left), _ev_naive(s, a, f.right)
        return left and right
    if isinstance(f, Or):
        left, right = _ev_naive(s, a, f.left), _ev_naive(s, a, f.right)
        return left or right
    if isinstance(f, Implies):
        left, right = _ev_naive(s, a, f.left), _ev_naive(s, a, f.right)
        return (not left) or right
    if isinstance(f, (ExistsBlock, ForallBlock)):
        results = []

        def enum(vars, a):
            if not vars:
                results.append(_ev_naive(s, dict(a), f.body))
                return
            for d in s.domain:
                enum(vars[1:], {**a, vars[0]: d})

        enum(f.vars, a)
        return any(results) if isinstance(f, ExistsBlock) else all(results)
    if isinstance(f, CountExists):
        count = sum(_ev_naive(s, {**a, f.var: d}, f.body) for d in s.domain)
        return {">=": count >= f.bound, "<=": count <= f.bound,
                "=": count == f.bound}[f.cmp]
    raise TypeError(f"not a formula: {f!r}")


def satisfaction_set(s: Structure, f: Formula) -> SatisfactionSet:
    """All domain elements satisfying a formula with at most one free
    variable; a sentence yields the full domain or the empty set."""
    p = _take(f, s)
    fv = free_variables(f) if p is None else p.free
    if len(fv) > 1:
        raise EvalError(
            f"satisfaction_set needs at most one free variable, got {sorted(fv)}")
    p = p or _Prepared(f, s.vocabulary, fv)
    try:
        p.bind(s, {})
        if not fv:
            return SatisfactionSet(f, frozenset(s.domain) if p.test() else frozenset())
        (x,) = fv
        asg, test, elements = p.asg, p.test, []
        for d in s.domain:
            asg[x] = d
            if test():
                elements.append(d)
        return SatisfactionSet(f, frozenset(elements))
    finally:
        p.release()
