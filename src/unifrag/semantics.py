"""Tarskian model checking over finite structures, including counting
quantifiers.

``compile_formula`` is the one evaluator core: it compiles a formula into
closures that look atoms up in a structure's relations.  A quantifier
block does not test its whole body for every tuple of its variables: each
conjunct under ``E`` (disjunct under ``A``) is tested in the loop of the
last block variable it mentions (``block_parts``, which
:mod:`unifrag.modelfind` shares to ground a sentence); a loop with a guard
atom walks the structure's index instead of the domain.  ``evaluate`` and
``satisfaction_set`` run the core; ``evaluate_naive`` enumerates every
branch with its own plain recursion and serves as the reference the
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
Closure = Callable[[], bool]


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

    The closures quantify over ``domain`` or ``indexes``, look atoms up in
    ``relations`` and read variables from ``asg``.  ``bind`` fills the four
    from one structure over the vocabulary and one assignment for the length
    of a call.  ``release`` empties them again, so that no structure outlives
    its call, and puts the record back in the cache.
    """

    __slots__ = ("formula", "vocabulary", "free", "domain", "relations", "indexes", "asg", "test")

    def __init__(self, f: Formula, vocabulary: Vocabulary,
                 free: Optional[frozenset[str]] = None):
        validate_formula(f, vocabulary)
        self.formula, self.vocabulary = f, vocabulary
        self.free = free_variables(f) if free is None else free
        self.domain: list[str] = []
        self.relations: dict[str, frozenset[tuple[str, ...]]] = {}
        self.indexes: dict[tuple[str, int], dict] = {}
        self.asg: dict[str, str] = {}
        self.test = compile_formula(f, self.domain, self.relations, self.asg, self.indexes)

    def bind(self, s: Structure, a: Assignment) -> None:
        self.domain[:] = s.domain
        self.relations.update(s.relations)
        for key in self.indexes:
            self.indexes[key] = s.index(*key)
        self.asg.update(a)

    def release(self) -> None:
        self.domain.clear()
        self.relations.clear()
        for key in self.indexes:
            self.indexes[key] = {}
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
# The evaluator core: two-valued evaluation compiled to closures
# ---------------------------------------------------------------------------

def compile_formula(f: Formula, domain: Sequence, relations: Mapping[str, frozenset],
                    asg: dict, indexes: dict) -> Closure:
    """Compile ``f`` into a closure reading the variable values in ``asg``.

    Quantifiers range over ``domain`` and atoms are looked up in
    ``relations``.  A quantifier block tests each part of its body in the
    loop of the last block variable the part mentions (see ``block_parts``).
    Each loop joins its parts, in text order, with the next loop inwards.
    This rests on Ez(p & q) = p & Ez q and Az(p | q) = p | Az q for z not
    free in p, so every answer is the one the whole body tested in the
    innermost loop would give.  A loop with a guard walks only the values
    that satisfy it, read from ``indexes[rel, pos]`` (see ``Structure.index``),
    whose key it enters.
    """
    def comp(f: Formula) -> tuple[Closure, frozenset[str]]:
        """The closure of ``f`` and the free variables of ``f``."""
        if isinstance(f, Atom):
            name = f.rel
            if len(f.args) == 1:
                (v,) = f.args
                return (lambda: (asg[v],) in relations[name]), frozenset(f.args)
            key = itemgetter(*f.args)  # a tuple, also for R(x,x)
            return (lambda: key(asg) in relations[name]), frozenset(f.args)
        if isinstance(f, Not):
            g, free = comp(f.body)
            return _not(g), free
        if isinstance(f, (And, Or, Implies, ExistsBlock, ForallBlock)):
            vars, exists, levels, free, guards = block_parts(f, comp, _not)
            for i in range(len(vars), 0, -1):  # the innermost loop first
                walk = _walk(vars[i - 1], guards[i - 1], levels[i], domain, indexes, asg)
                body = _join(levels[i], exists)
                levels[i - 1].append(_loop(vars[i - 1], body, exists, walk, asg))
            return _join(levels[0], exists), free
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

    return comp(f)[0]


def block_parts(f: Formula, comp: Callable, negate: Callable
                ) -> tuple[tuple[str, ...], bool, list[list], frozenset[str], list]:
    """The variables of the quantifier block ``f`` and whether it is an
    ``E`` block, its compiled parts placed by the loop that tests them, its
    free variables and its guards.  A chain of ``&`` counts as an ``E``
    block without variables, a chain of ``|`` and ``->`` as an ``A`` block.

    The parts are the conjuncts under ``E`` and the disjuncts under ``A``,
    where ``a -> b`` gives ``negate`` of ``~a`` and the parts of ``b``;
    ``comp`` returns a part's compiled form and free variables.  The
    variables returned are those some part mentions: over a nonempty domain,
    ``E z`` and ``A z`` of a formula without ``z`` are that formula.  Each
    part goes to the last of them it mentions: ``levels[0]`` holds the parts
    without a block variable, ``levels[i]`` those tested in the loop of
    ``vars[i-1]``.  ``guards[i]`` is ``(k, atom)`` when ``levels[i+1][k]`` is
    the first part to test an atom that mentions ``vars[i]`` once, as a
    conjunct under ``E`` or negated under ``A``, and None if there is none.
    """
    if isinstance(f, (ExistsBlock, ForallBlock)):
        vars, exists, todo = f.vars, isinstance(f, ExistsBlock), [f.body]
    else:
        vars, exists, todo = (), isinstance(f, And), [f]
    chain = And if exists else Or
    parts: list = []
    free: set[str] = set()
    while todo:  # in text order, without a Python frame per operand
        g = todo.pop()
        if isinstance(g, chain):
            todo += (g.right, g.left)
            continue
        if not exists and isinstance(g, Implies):
            h, part_free = comp(g.left)
            h, atom = negate(h), g.left
            todo.append(g.right)
        else:
            h, part_free = comp(g)
            atom = g if exists else g.body if isinstance(g, Not) else None
        parts.append((h, part_free, atom if isinstance(atom, Atom) else None))
        free |= part_free
    if not vars:
        return vars, exists, [[h for h, _, _ in parts]], frozenset(free), []
    used = tuple([v for v in vars if v in free])
    levels: list[list] = [[] for _ in range(len(used) + 1)]
    guards: list = [None] * len(used)
    for h, part_free, atom in parts:
        i = len(used)
        while i and used[i - 1] not in part_free:
            i -= 1
        if i and not guards[i - 1] and atom is not None and atom.args.count(used[i - 1]) == 1:
            guards[i - 1] = (len(levels[i]), atom)
        levels[i].append(h)
    free.difference_update(vars)
    return used, exists, levels, frozenset(free), guards


def _not(g: Closure) -> Closure:
    return lambda: not g()


def _join(gs: list[Closure], conj: bool) -> Closure:
    """The conjunction (``conj``) or disjunction of ``gs``, testing them in
    order until one decides it."""
    if len(gs) == 1:
        return gs[0]
    if len(gs) == 2:
        gl, gr = gs
        return (lambda: gl() and gr()) if conj else (lambda: gl() or gr())
    gs = tuple(gs)
    zero = not conj

    def ev_join():
        for g in gs:
            if g() is zero:
                return zero
        return conj

    return ev_join


def _walk(var: str, guard: Optional[tuple], level: list, domain: Sequence, indexes: dict,
          asg: dict) -> Callable:
    """What the loop of ``var`` walks: the domain, or the values that satisfy
    the guard ``(k, atom)``, whose own test ``level[k]`` is then deleted."""
    if guard is None:
        return domain.__iter__
    k, atom = guard
    del level[k]
    pos = atom.args.index(var)
    key, others = (atom.rel, pos), atom.args[:pos] + atom.args[pos + 1:]
    indexes[key] = {}
    return lambda: indexes[key].get(tuple([asg[v] for v in others]), ())


def _loop(var: str, body: Closure, exists: bool, walk: Callable, asg: dict) -> Closure:
    """``E var. body`` when ``exists``, else ``A var. body``, over ``walk()``."""
    def ev_quant():
        saved, result = asg.get(var), not exists
        for d in walk():
            asg[var] = d
            if body() is exists:
                result = exists
                break
        asg[var] = saved  # None out of scope, where nothing reads it
        return result

    return ev_quant


def _count(cmp: str, bound: int, var: str, body: Closure, domain: Sequence,
           asg: dict) -> Closure:
    """``E[cmp bound] var. body``, counting until the answer is known."""
    stop = bound if cmp == ">=" else bound + 1

    def ev_count():
        saved, count = asg.get(var), 0
        for d in domain:
            asg[var] = d
            if body():
                count += 1
                if count >= stop:
                    break
        asg[var] = saved
        if cmp == ">=":
            return count >= bound
        return count == bound if cmp == "=" else count <= bound

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
