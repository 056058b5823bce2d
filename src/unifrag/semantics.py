"""Tarskian model checking over finite structures, including counting
quantifiers.

``compile_formula`` is the one evaluator core: it compiles a formula into
closures with three-valued (Kleene) connectives and quantifiers, leaving
the atoms to a caller-supplied factory.  A quantifier block does not test
its whole body for every tuple of its variables: each conjunct under ``E``
(disjunct under ``A``) is tested in the loop of the last block variable it
mentions, which the strong Kleene tables allow without changing any
answer (see ``compile_formula``).  ``evaluate`` and
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
from operator import itemgetter
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
            name = g.rel
            if len(g.args) == 1:
                (v,) = g.args
                return lambda: (asg[v],) in relations[name]
            key = itemgetter(*g.args)  # a tuple, also for R(x,x)
            return lambda: key(asg) in relations[name]

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

    A quantifier block tests each part of its body in the loop of the last
    block variable the part mentions.  The parts are the conjuncts under
    ``E`` and the disjuncts under ``A``, where ``a -> b`` gives ``~a`` and
    the parts of ``b``; a part without a block variable is tested before the
    block's loops.  Each loop joins its parts, in text order, with the next
    loop inwards.  This rests on Ez(p & q) = p & Ez q and Az(p | q) = p |
    Az q for z not free in p, which hold in the strong Kleene tables (a De
    Morgan algebra), so every answer, None included, is the one the whole
    body tested in the innermost loop would give.
    """
    def comp(f: Formula) -> tuple[Closure, frozenset[str]]:
        """The closure of ``f`` and the free variables of ``f``."""
        if isinstance(f, Atom):
            return atom(f), frozenset(f.args)
        if isinstance(f, Not):
            g, free = comp(f.body)
            return _not(g), free
        if isinstance(f, (And, Or, Implies)):
            (gl, fl), (gr, fr) = comp(f.left), comp(f.right)
            if isinstance(f, Implies):
                gl = _not(gl)
            return _join([gl, gr], not isinstance(f, And)), fl | fr
        if isinstance(f, (ExistsBlock, ForallBlock)):
            return block(f.vars, f.body, isinstance(f, ExistsBlock))
        if isinstance(f, Equals):
            left, right = f.left, f.right
            return (lambda: asg[left] == asg[right]), frozenset((left, right))
        if isinstance(f, Top):
            return (lambda: True), frozenset()
        if isinstance(f, Bottom):
            return (lambda: False), frozenset()
        if isinstance(f, CountExists):
            body, free = comp(f.body)
            return _count(f.cmp, f.bound, f.var, body, domain, asg), free - {f.var}
        raise TypeError(f"not a formula: {f!r}")

    def split(f: Formula, exists: bool, parts: list) -> None:
        """Append the compiled parts of the body ``f`` of an ``E`` (``exists``)
        or ``A`` block to ``parts``."""
        if isinstance(f, And if exists else Or):
            split(f.left, exists, parts)
            split(f.right, exists, parts)
        elif not exists and isinstance(f, Implies):
            g, free = comp(f.left)
            parts.append((_not(g), free))
            split(f.right, exists, parts)
        else:
            parts.append(comp(f))

    def block(vars: tuple[str, ...], body: Formula,
              exists: bool) -> tuple[Closure, frozenset[str]]:
        parts: list[tuple[Closure, frozenset[str]]] = []
        split(body, exists, parts)
        # levels[0] is tested outside the loops, levels[i] in the loop of vars[i-1]
        n = len(vars)
        levels: list[list[Closure]] = [[] for _ in range(n + 1)]
        free: set[str] = set()
        for g, part_free in parts:
            i = n
            while i and vars[i - 1] not in part_free:
                i -= 1
            levels[i].append(g)
            free |= part_free
        zero = not exists  # the value that decides a conjunction (E) or disjunction (A)
        g = _join(levels[n], zero)
        for i in range(n - 1, -1, -1):
            levels[i].append(_loop(vars[i], g, exists, domain, asg))
            g = _join(levels[i], zero)
        free.difference_update(vars)
        return g, frozenset(free)

    return comp(f)[0]


def _not(g: Closure) -> Closure:
    def ev_not():
        v = g()
        return None if v is None else not v

    return ev_not


def _join(gs: list[Closure], zero: bool) -> Closure:
    """The strong Kleene conjunction (``zero`` False) or disjunction
    (``zero`` True) of ``gs``, testing them in order until one is ``zero``."""
    if len(gs) == 1:
        return gs[0]
    unit = not zero
    if not gs:
        return lambda: unit
    if len(gs) == 2:
        gl, gr = gs

        def ev_join2():
            a = gl()
            if a is zero:
                return zero
            b = gr()
            if b is zero:
                return zero
            return None if a is None or b is None else unit

        return ev_join2

    gs = tuple(gs)

    def ev_join():
        unknown = False
        for g in gs:
            v = g()
            if v is zero:
                return zero
            if v is None:
                unknown = True
        return None if unknown else unit

    return ev_join


def _loop(var: str, body: Closure, exists: bool, domain: Sequence, asg: dict) -> Closure:
    """``E var. body`` when ``exists``, else ``A var. body``."""
    def ev_quant():
        saw_unknown = False
        saved = asg.get(var, _MISSING)
        try:
            for d in domain:
                asg[var] = d
                r = body()
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


def _count(cmp: str, bound: int, var: str, body: Closure, domain: Sequence,
           asg: dict) -> Closure:
    """``E[cmp bound] var. body``."""
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
