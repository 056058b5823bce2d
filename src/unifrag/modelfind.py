"""Bounded model search for sentences.

Candidate interpretations at each domain size correspond to bit strings
over a fixed cell sequence (relations sorted by name, tuples in row-major
order over the domain e0..e{n-1}).  The search walks these strings in
increasing binary order, false first, so the reported model is always the
lexicographically least satisfying interpretation of minimal domain size.

The sentence is compiled once, by ``grounder``, through the one formula
compiler :func:`unifrag.semantics.compile_formula` with a grounding kit,
and grounded at each size into a ``Circuit`` of gates over the cells: ``A``
and ``E`` give AND and OR gates, ``E[>=k]`` a threshold gate, ``E[<=k]`` the
negated ``>=k+1`` gate, ``E[=k]`` the AND of both, and equalities, ``true``
and ``false`` fold away.  Block parts are placed as the evaluator places
them, so a vacuous block variable does not multiply the circuit.  The root is
required true; a conflict backtracks, a true root completes with every
undecided cell false.  Forcing only removes non-models, so outcomes match
an exhaustive enumeration exactly.  A model is re-checked on the built
structure, through the structure's own tuples, before it is returned.

NoModelUpTo is a bounded verdict only.  Sentences of the uniform fragment
that are satisfiable at all have models of size exponentially bounded in
the sentence, but the bound's constants are not computed here, so absence
up to ``max_size`` is never an unsatisfiability certificate.

The optional ``prune`` flag adds isomorphism symmetry breaking: partial
assignments certified lexicographically greater than one of their domain
transpositions are skipped.  The least satisfying assignment is invariant
under every domain permutation, hence never skipped, and the flag cannot
change any outcome.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import product
from operator import itemgetter
from typing import Callable, Optional, Union

from .errors import CellLimitError, CircuitLimitError, EvalError, LogicError
from .semantics import compile_formula, evaluate
from .structures import Structure
from .syntax import DEFAULT_CELL_LIMIT, Formula, Node, Vocabulary, free_variables

# ground circuit nodes at the largest size (before folding), and sizes searched
CIRCUIT_LIMIT = 100_000

# a gate input or root: (node, negated), or a constant folded while grounding
Lit = Union[tuple[int, bool], bool]
Ground = Callable[["Circuit", dict], Lit]  # a grounder closure, see ``grounder``


class SearchReport(Node):
    """Outcome of a bounded search for a model of ``sentence``, which took
    ``elapsed_seconds``.  ``model`` is None when no structure of size up to
    ``bound`` satisfies the sentence.  ``nodes_examined`` counts one node
    per domain size searched plus one per decision tried (a cell set by
    branching, not by forcing)."""

    __slots__ = ("sentence", "bound", "model", "nodes_examined", "elapsed_seconds")

    @property
    def found(self) -> bool:
        return self.model is not None


def cell_count(vocab: Vocabulary, size: int) -> int:
    return sum(size ** a for a in vocab.symbols.values())


def find_model(f: Formula, vocab: Vocabulary, max_size: int,
               prune: bool = False,
               cell_limit: int = DEFAULT_CELL_LIMIT) -> SearchReport:
    """Search domain sizes 1..max_size in ascending order and return the
    first (lexicographically least) satisfying structure, if any."""
    if max_size < 1:
        raise EvalError(f"max_size must be >= 1, got {max_size}")
    try:
        free, nodes, root = grounder(f, vocab, max_size)
    except LogicError:  # needing a sentence comes before a vocabulary error
        if not (free := free_variables(f)):
            raise
    if free:
        raise EvalError(f"model search needs a sentence, free: {', '.join(sorted(free))}")
    worst = cell_count(vocab, max_size)
    if worst > cell_limit:
        raise CellLimitError(
            f"{worst} interpretation cells at size {max_size} exceed the limit "
            f"of {cell_limit}; raise cell_limit explicitly to search anyway")
    if max(nodes, max_size) > CIRCUIT_LIMIT:
        raise CircuitLimitError(f"the ground circuits up to size {max_size} would exceed "
                                f"the limit of {CIRCUIT_LIMIT} nodes")
    started = time.perf_counter()
    counter = [0]
    for size in range(1, max_size + 1):
        model = _search_size(root, vocab, size, prune, counter)
        if model is not None:
            if not evaluate(model, {}, f):  # soundness re-check before returning
                raise AssertionError("search returned a non-model; this is a bug")
            return SearchReport(f, max_size, model, counter[0],
                                time.perf_counter() - started)
    return SearchReport(f, max_size, None, counter[0],
                        time.perf_counter() - started)


# ---------------------------------------------------------------------------
# The ground circuit
# ---------------------------------------------------------------------------

class Circuit:
    """The cells of ``vocab`` at domain ``size``, the gates grounding adds
    above them, and the state of one partial interpretation.

    Nodes ``0..len(cells)-1`` are the cells (``index`` maps a cell to its
    node), later ones gates, each true when at least k of its (possibly
    negated) inputs are.  ``gates[g]`` is ``[need False, need True,
    required value, inputs]``: the gate takes value ``v`` once ``need v``
    more inputs have (past 0 when a node is an input twice), which is its
    strong Kleene value.  ``value`` holds each decided node's value, a
    gate's once its counts decide it.  Deciding a cell updates only the
    gates above it, and a required gate with no slack left forces its
    undecided inputs.  ``trail`` lists each decided node ``x``, and ``~g``
    for each gate given a required value, in order.
    """

    def __init__(self, vocab: Vocabulary, size: int):
        self.size = size
        self.cells = [(rel, t) for rel in sorted(vocab.symbols)
                      for t in product(range(size), repeat=vocab.symbols[rel])]
        self.index = {cell: i for i, cell in enumerate(self.cells)}
        n = len(self.cells)
        self.value: list[Optional[bool]] = [None] * n
        self.gates: list[Optional[list]] = [None] * n
        self.parents: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
        self.trail: list[int] = []

    def gate(self, k: int, lits: list[Lit]) -> Lit:
        """At least ``k`` of ``lits`` true, with the constants folded."""
        if k == 1 and len(lits) == 1:
            return lits[0]
        ins = [lit for lit in lits if type(lit) is tuple]
        k -= lits.count(True)
        if k <= 0 or k > len(ins):
            return k <= 0
        if len(ins) == 1:
            return ins[0]
        g = len(self.value)
        for node, neg in ins:
            self.parents[node].append((g, neg))
        self.value.append(None)
        self.gates.append([len(ins) - k + 1, k, None, ins])
        self.parents.append([])
        return (g, False)

    def propagate(self, node: int, v: bool) -> bool:
        """Give ``node`` the value ``v`` (decide a cell, or require a gate)
        and propagate: counts upwards, forced values downwards.  False on a
        conflict, which leaves the state for ``undo`` to restore."""
        value, gates, parents, trail = self.value, self.gates, self.parents, self.trail
        stack = [(node, v)]
        while stack:
            x, v = stack.pop()
            if value[x] is not None:
                if value[x] is not v:
                    return False
                continue
            gate = gates[x]
            if gate:
                if gate[2] is (not v) or gate[not v] <= 0:
                    return False
                if gate[v] > 0:  # undecided: required to become v
                    if gate[2] is None:
                        gate[2] = v
                        trail.append(~x)
                    if gate[not v] == 1:  # no slack: the undecided inputs are forced
                        stack += ((c, v is not neg) for c, neg in gate[3] if value[c] is None)
                    continue
            value[x] = v
            trail.append(x)
            for p, neg in parents[x]:
                if value[p] is None:
                    u = v is not neg
                    gate = gates[p]
                    gate[u] -= 1
                    if gate[u] == 0:
                        stack.append((p, u))
                    elif gate[u] == 1 and gate[2] is (not u):  # no slack left
                        stack.append((p, not u))
        return True

    def undo(self, mark: int) -> None:
        """Restore the state to the moment the trail was ``mark`` long."""
        value, gates, parents, trail = self.value, self.gates, self.parents, self.trail
        while len(trail) > mark:
            x = trail.pop()
            if x < 0:
                gates[~x][2] = None
                continue
            v, value[x] = value[x], None
            for p, neg in parents[x]:
                if value[p] is None:
                    gates[p][v is not neg] += 1


def _negate(lit: Lit) -> Lit:
    return not lit if lit is True or lit is False else (lit[0], not lit[1])


def grounder(f: Formula, vocab: Vocabulary, max_size: int) -> tuple[frozenset[str], int, Ground]:
    """Compile ``f`` once, by ``compile_formula`` with a grounding kit, into
    its free variables, the number of nodes grounding makes at ``max_size``
    before any folds (one per gate and per gate input), and ``root(c, asg)``:
    the literal of ``f`` grounded into the circuit ``c`` under the dict
    ``asg`` (variables to element indices), which ``root`` writes quantified
    variables into, so each call passes its own."""
    nodes: dict[Ground, int] = {}  # each closure's node estimate, 1 unless set

    def each(var: str, g: Ground, c: Circuit, asg: dict) -> list[Lit]:
        """The literals of ``g`` for every value of ``var``."""
        saved, lits = asg.get(var), []
        for d in range(c.size):
            asg[var] = d
            lits.append(g(c, asg))
        asg[var] = saved  # None out of scope, where nothing reads it
        return lits

    def atom(f: Formula) -> Ground:
        rel, key = f.rel, itemgetter(*f.args)  # a tuple, also for R(x,x)
        if len(f.args) == 1:
            return lambda c, asg: (c.index[rel, (key(asg),)], False)
        return lambda c, asg: (c.index[rel, key(asg)], False)

    def negate(g: Ground) -> Ground:
        def ground_not(c: Circuit, asg: dict) -> Lit:
            return _negate(g(c, asg))

        nodes[ground_not] = nodes.get(g, 1)
        return ground_not

    def block(vars: tuple, exists: bool, levels: list, guards: list) -> Ground:
        g, n = None, 0  # guards serve evaluation only
        for i in range(len(levels) - 1, -1, -1):
            g = partial(level, levels[i], vars[i] if g else None, g, exists)
            # the level's gate, its parts, and a loop gate over the next level
            n = 1 + sum(nodes.get(p, 1) for p in levels[i]) + (1 + max_size * n if n else 0)
        nodes[g] = n
        return g

    def count(cmp: str, k: int, var: str, body: Ground) -> Ground:
        def ground_count(c: Circuit, asg: dict) -> Lit:
            lits = each(var, body, c, asg)
            if cmp == ">=":
                return c.gate(k, lits)
            at_most = _negate(c.gate(k + 1, lits))
            return at_most if cmp == "<=" else c.gate(2, [c.gate(k, lits), at_most])

        nodes[ground_count] = 3 + max_size * nodes.get(body, 1)
        return ground_count

    def level(parts: list, var: Optional[str], inner: Optional[Ground], exists: bool,
              c: Circuit, asg: dict) -> Lit:
        """The join of ``parts`` and of the loop of ``var`` over ``inner``."""
        lits = [p(c, asg) for p in parts]
        if inner is not None:
            loop = each(var, inner, c, asg)
            lits.append(c.gate(1 if exists else len(loop), loop))
        return c.gate(len(lits) if exists else 1, lits)

    free, root = compile_formula(f, vocab, atom, negate, block, count)
    return free, nodes.get(root, 1), root


# ---------------------------------------------------------------------------
# One domain size
# ---------------------------------------------------------------------------

def _search_size(ground: Ground, vocab: Vocabulary, n: int, prune: bool,
                 counter: list[int]) -> Optional[Structure]:
    c = Circuit(vocab, n)
    root = ground(c, {})
    counter[0] += 1
    if root is False or (root is not True and not c.propagate(root[0], not root[1])):
        return None
    vals = c.value  # the cells first, in search order

    # for each transposition of two domain elements, the image of every cell
    swaps = [[c.index[rel, tuple(q if e == p else p if e == q else e for e in t)]
              for rel, t in c.cells] for p in range(n) for q in range(p + 1, n)] if prune else []

    def lex_violates(depth: int) -> bool:
        # certified "assignment > transposed assignment" on the decided prefix
        for perm in swaps:
            for j in range(depth + 1):
                a = vals[j]
                b = vals[perm[j]]
                if b is None:
                    break
                if a is b:
                    continue
                if a and not b:
                    return True
                break
        return False

    decisions: list[tuple[int, int, bool]] = []  # (cell, trail mark, value tried)
    i = 0
    while root is not True and vals[root[0]] is None:  # until the root is true
        while vals[i] is not None:  # forced, or decided before
            i += 1
        v = False
        while True:
            mark = len(c.trail)
            counter[0] += 1
            if c.propagate(i, v) and not (prune and lex_violates(i)):
                decisions.append((i, mark, v))
                break
            c.undo(mark)
            while v:  # both values failed here: back to the last decision still at False
                if not decisions:
                    return None
                i, mark, v = decisions.pop()
                c.undo(mark)
            v = True

    # every undecided cell is false in the least completion
    domain = tuple(f"e{i}" for i in range(n))
    relations: dict[str, set] = {rel: set() for rel in vocab.symbols}
    for (rel, t), v in zip(c.cells, vals):
        if v:
            relations[rel].add(tuple(domain[i] for i in t))
    return Structure(domain, relations, vocab)
