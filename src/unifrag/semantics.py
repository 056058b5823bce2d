"""Tarskian model checking over finite structures, including counting
quantifiers.

``compile_formula`` is the one formula compiler.  By default it compiles a
formula into a closure ``test(s, asg)`` that looks atoms up in the relations
of the structure ``s`` it is given (a negated atom or equality is one test);
:mod:`unifrag.modelfind` passes it a kit that grounds into a circuit instead.
A quantifier block does not test its whole body for every tuple of its
variables: each conjunct under ``E`` (disjunct under ``A``) is tested in the
loop of the last block variable it mentions (``block_parts``); a loop with a
guard atom walks the structure's index, and one with a guard equality the
one value it allows, not the domain.  ``evaluate`` and ``satisfaction_set``
run the core; ``evaluate_naive`` enumerates every branch with its own plain
recursion, the reference the core is tested on.

``evaluate`` and ``satisfaction_set`` compile, and so check, a formula once
per vocabulary and reuse the test across structures, through a bounded
table of :func:`unifrag.syntax.compiled`.  A test holds no structure and no
assignment: each call passes its structure and a copy of its assignment.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import Callable, Mapping, Optional

from .errors import EvalError, LogicError
from .structures import Structure
from .syntax import (And, Atom, Bottom, CountExists, Equals, ExistsBlock,
                     ForallBlock, Formula, Implies, Node, Not, Or, Top, Vocabulary,
                     check_atom, compiled, free_variables, validate_formula)

Assignment = Mapping[str, str]
Test = Callable[[Structure, dict], bool]


class SatisfactionSet(Node):
    """The ``elements``, a frozenset, of the domain that ``formula``, with
    at most one free variable, carves out; for sentences this is the whole
    domain or nothing."""

    __slots__ = ("formula", "elements")


def _check_assignment(s: Structure, a: Assignment, free: frozenset[str]):
    for var, val in a.items():
        if val not in s.domain_set():
            raise EvalError(f"assignment maps {var!r} to {val!r}, not a domain element")
    unbound = free - a.keys()
    if unbound:
        raise EvalError(f"unbound free variables: {', '.join(sorted(unbound))}")


def evaluate(s: Structure, a: Assignment, f: Formula) -> bool:
    """Standard satisfaction; quantifier blocks are iterated quantification
    and E[cmp k] x. f counts the witnesses for x."""
    free, test = compiled(_cache, compile_formula, f, s.vocabulary)
    _check_assignment(s, a, free)
    return test(s, dict(a))


_cache: list = [None] * 5 + [{}]  # the formulas compiled, see syntax.compiled


# ---------------------------------------------------------------------------
# The compiler core, and the evaluator's kit of closures it builds by default
# ---------------------------------------------------------------------------

def _atom(f: Atom) -> Test:
    """The test of ``f``, which carries its ``negation`` for ``_not``."""
    name, v, key = f.rel, f.args[0], itemgetter(*f.args)  # key: a tuple, also for R(x,x)
    if len(f.args) == 1:
        test = lambda s, asg: (asg[v],) in s.relations[name]
        test.negation = lambda s, asg: (asg[v],) not in s.relations[name]
    else:
        test = lambda s, asg: key(asg) in s.relations[name]
        test.negation = lambda s, asg: key(asg) not in s.relations[name]
    return test


def _block(vars: tuple[str, ...], exists: bool, levels: list[list], guards: list) -> Test:
    for i in range(len(vars), 0, -1):  # the innermost loop first
        walk = _walk(vars[i - 1], guards[i - 1], levels[i])  # drops the guard's test
        levels[i - 1].append(_loop(vars[i - 1], _join(levels[i], exists), exists, walk))
    return _join(levels[0], exists)


def _not(g: Test) -> Test:
    return getattr(g, "negation", None) or (lambda s, asg: not g(s, asg))


def _join(gs: list[Test], conj: bool) -> Test:
    """The conjunction (``conj``) or disjunction of ``gs``, testing them in
    order until one decides it."""
    if len(gs) == 1:
        return gs[0]
    if len(gs) == 2:
        gl, gr = gs
        if conj:
            return lambda s, asg: gl(s, asg) and gr(s, asg)
        return lambda s, asg: gl(s, asg) or gr(s, asg)
    gs = tuple(gs)
    zero = not conj

    def ev_join(s, asg):
        for g in gs:
            if g(s, asg) is zero:
                return zero
        return conj

    return ev_join


def _walk(var: str, guard: Optional[tuple], level: list) -> Callable:
    """What the loop of ``var`` walks: the domain, or the values that satisfy
    the guard ``(k, atom)``, an atom or equality, whose test ``level[k]`` is deleted."""
    if guard is None:
        return lambda s, asg: s.domain
    k, atom = guard
    del level[k]
    if isinstance(atom, Equals):
        other = atom.right if atom.left == var else atom.left
        return lambda s, asg: (asg[other],)
    pos = atom.args.index(var)
    name, others = atom.rel, atom.args[:pos] + atom.args[pos + 1:]
    if len(others) == 1:
        other = others[0]
        return lambda s, asg: s.index(name, pos).get((asg[other],), ())
    return lambda s, asg: s.index(name, pos).get(tuple([asg[v] for v in others]), ())


def _loop(var: str, body: Test, exists: bool, walk: Callable) -> Test:
    """``E var. body`` when ``exists``, else ``A var. body``, over ``walk``."""
    def ev_quant(s, asg):
        saved, result = asg.get(var), not exists
        for d in walk(s, asg):
            asg[var] = d
            if body(s, asg) is exists:
                result = exists
                break
        asg[var] = saved  # None out of scope, where nothing reads it
        return result

    return ev_quant


def _count(cmp: str, bound: int, var: str, body: Test) -> Test:
    """``E[cmp bound] var. body``, counting until the answer is known."""
    stop = bound if cmp == ">=" else bound + 1

    def ev_count(s, asg):
        saved, count = asg.get(var), 0
        for d in s.domain:
            asg[var] = d
            if body(s, asg):
                count += 1
                if count >= stop:
                    break
        asg[var] = saved
        if cmp == ">=":
            return count >= bound
        return count == bound if cmp == "=" else count <= bound

    return ev_count


def compile_formula(f: Formula, vocab: Vocabulary, atom=_atom, negate=_not, block=_block,
                    count=_count) -> tuple[frozenset[str], Callable]:
    """The free variables of ``f`` and its closure ``test(s, asg)``: whether
    ``s``, a structure over ``vocab``, satisfies ``f`` under the dict ``asg``.
    Each atom is checked against ``vocab`` as it is compiled.  The test
    writes quantified variables into ``asg``, so each call passes its own.
    ``=``, ``true`` and ``false`` read only ``asg``; the kit ``atom(f)``,
    ``negate(g)``, ``block(vars, exists, levels, guards)`` and ``count(cmp,
    bound, var, body)`` builds the rest (``modelfind.grounder`` passes its own).

    Quantifiers range over ``s.domain`` and atoms are looked up in
    ``s.relations``.  A quantifier block tests each part of its body in the
    loop of the last block variable the part mentions (see ``block_parts``).
    Each loop joins its parts, in text order, with the next loop inwards.
    This rests on Ez(p & q) = p & Ez q and Az(p | q) = p | Az q for z not
    free in p, so every answer is the one the whole body tested in the
    innermost loop would give.  A loop with a guard walks only the values
    that satisfy it, read from ``s.index(rel, pos)``.
    """
    def comp(f: Formula) -> tuple[Callable, frozenset[str]]:
        """The compiled form of ``f`` and the free variables of ``f``."""
        if isinstance(f, Atom):
            check_atom(f, vocab)
            return atom(f), frozenset(f.args)
        if isinstance(f, Not):
            g, free = comp(f.body)
            return negate(g), free
        if isinstance(f, (And, Or, Implies, ExistsBlock, ForallBlock)):
            vars, exists, levels, free, guards = block_parts(f, comp, negate)
            return block(vars, exists, levels, guards), free
        if isinstance(f, Equals):
            left, right = f.left, f.right
            test = lambda s, asg: asg[left] == asg[right]
            test.negation = lambda s, asg: asg[left] != asg[right]
            return test, frozenset((left, right))
        if isinstance(f, Top):
            return (lambda s, asg: True), frozenset()
        if isinstance(f, Bottom):
            return (lambda s, asg: False), frozenset()
        if isinstance(f, CountExists):
            body, free = comp(f.body)
            return count(f.cmp, f.bound, f.var, body), free - {f.var}
        raise TypeError(f"not a formula: {f!r}")

    g, free = comp(f)
    del comp  # it refers to itself: free it, and the kit it holds, at once
    return free, g


def block_parts(f: Formula, comp: Callable, negate: Callable
                ) -> tuple[tuple[str, ...], bool, list[list], frozenset[str], list]:
    """The variables of the quantifier block ``f`` and whether it is an
    ``E`` block, its compiled parts placed by the loop that tests them, its
    free variables and its guards.  A chain of ``&`` counts as an ``E``
    block without variables, a chain of ``|`` and ``->`` as an ``A`` block.

    The parts are the conjuncts under ``E`` and the disjuncts under ``A``,
    split by De Morgan: under ``A``, ``a -> b`` and ``~(a & b)`` give the
    parts of ``~a`` and of ``b`` or ``~b``; under ``E``, ``~(a | b)`` and
    ``~(a -> b)`` give those of ``~a`` or ``a`` and of ``~b``; ``~~a`` gives
    those of ``a``.  ``comp`` returns a compiled form and free variables,
    and a part ``~a`` is ``negate`` of ``a``'s compiled form.  The
    variables returned are those some part mentions: over a nonempty domain,
    ``E z`` and ``A z`` of a formula without ``z`` are that formula.  Each
    part goes to the last of them it mentions: ``levels[0]`` holds the parts
    without a block variable, ``levels[i]`` those tested in the loop of
    ``vars[i-1]``.  ``guards[i]`` is ``(k, atom)`` when ``levels[i+1][k]`` is
    the first part to test an atom, or an equality, that mentions ``vars[i]``
    once, as a conjunct under ``E`` or negated under ``A``, and None if there
    is none.
    """
    if isinstance(f, (ExistsBlock, ForallBlock)):
        vars, exists, todo = f.vars, isinstance(f, ExistsBlock), [f.body]
    else:
        vars, exists, todo = (), isinstance(f, And), [f]
    chain = And if exists else Or
    flips = (Not, Or, Implies) if exists else (Not, And)  # a negation of these splits
    parts: list = []
    free: set[str] = set()
    while todo:  # in text order, without a Python frame per operand
        g = todo.pop()
        if isinstance(g, chain):
            todo += (g.right, g.left)
            continue
        if isinstance(g, Not):  # the part ~a
            a = g.body
        elif not exists and isinstance(g, Implies):
            todo.append(g.right)
            a = g.left
        else:
            h, part_free = comp(g)
            parts.append((h, part_free, g if exists and isinstance(g, (Atom, Equals)) else None))
            free |= part_free
            continue
        if isinstance(a, flips):  # ~~b is b, ~(b & c) is ~b | ~c, ~(b -> c) is b & ~c, ...
            todo += ((a.body,) if isinstance(a, Not) else
                     (Not(a.right), a.left if isinstance(a, Implies) else Not(a.left)))
        else:
            h, part_free = comp(a)
            parts.append((negate(h), part_free,
                          a if not exists and isinstance(a, (Atom, Equals)) else None))
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
        if i and not guards[i - 1] and atom is not None and (  # atom mentions used[i - 1]
                atom.left != atom.right if isinstance(atom, Equals)
                else atom.args.count(used[i - 1]) == 1):
            guards[i - 1] = (len(levels[i]), atom)
        levels[i].append(h)
    free.difference_update(vars)
    return used, exists, levels, frozenset(free), guards


def evaluate_naive(s: Structure, a: Assignment, f: Formula) -> bool:
    """No-pruning reference semantics: quantifiers enumerate the full
    domain and combine afterwards."""
    validate_formula(f, s.vocabulary)
    _check_assignment(s, a, free_variables(f))
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
    if isinstance(f, (And, Or, Implies)):  # both sides, whatever the first gives
        left, right = _ev_naive(s, a, f.left), _ev_naive(s, a, f.right)
        return (left and right if isinstance(f, And) else left or right if isinstance(f, Or)
                else not left or right)
    if isinstance(f, (ExistsBlock, ForallBlock)):
        results = [_ev_naive(s, {**a, **dict(zip(f.vars, t))}, f.body)
                   for t in product(s.domain, repeat=len(f.vars))]
        return any(results) if isinstance(f, ExistsBlock) else all(results)
    if isinstance(f, CountExists):
        count = sum(_ev_naive(s, {**a, f.var: d}, f.body) for d in s.domain)
        return {">=": count >= f.bound, "<=": count <= f.bound,
                "=": count == f.bound}[f.cmp]
    raise TypeError(f"not a formula: {f!r}")


def satisfaction_set(s: Structure, f: Formula) -> SatisfactionSet:
    """All domain elements satisfying a formula with at most one free
    variable; a sentence yields the full domain or the empty set."""
    try:
        free, test = compiled(_cache, compile_formula, f, s.vocabulary)
    except LogicError:
        _at_most_one(free_variables(f))  # this error comes before the vocabulary's
        raise
    if not free:
        return SatisfactionSet(f, s.domain_set() if test(s, {}) else frozenset())
    if len(free) > 1:
        _at_most_one(free)
    (x,) = free
    asg: dict[str, str] = {}
    elements = []
    for d in s.domain:
        asg[x] = d
        if test(s, asg):
            elements.append(d)
    return SatisfactionSet(f, s.domain_set() if len(elements) == len(s.domain)
                           else frozenset(elements))


def _at_most_one(free: frozenset[str]) -> None:
    if len(free) > 1:
        raise EvalError(
            f"satisfaction_set needs at most one free variable, got {sorted(free)}")
