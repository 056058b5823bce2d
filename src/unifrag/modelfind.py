"""Bounded model search for sentences.

Candidate interpretations at each domain size correspond to bit strings
over a fixed cell sequence (relations sorted by name, tuples in row-major
order over the domain e0..e{n-1}).  The search walks these strings in
increasing binary order, false first, so the reported model is always the
lexicographically least satisfying interpretation of minimal domain size.
Subtrees are cut with a three-valued evaluation of the sentence under the
partial interpretation: the Kleene evaluator core of
:mod:`unifrag.semantics` (``compile_formula``) runs with atoms that read
the cell array, where an undecided cell is unknown.  A definite false
prunes, a definite true is completed with all remaining cells false.  The
pruning is conservative, so outcomes match an exhaustive enumeration
exactly.  A model is re-checked on the built structure, through the
structure's own tuples, before it is returned.

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
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import CellLimitError, EvalError
from .semantics import compile_formula, evaluate
from .structures import Structure
from .syntax import Atom, Formula, Vocabulary, free_variables, validate_formula

DEFAULT_CELL_LIMIT = 64


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a bounded search.  ``model`` is None when no structure of
    size up to ``bound`` satisfies the sentence.  ``nodes_examined`` counts
    the partial interpretations evaluated."""

    sentence: Formula
    bound: int
    model: Optional[Structure]
    nodes_examined: int
    elapsed_seconds: float

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
    fv = free_variables(f)
    if fv:
        raise EvalError(f"model search needs a sentence, free: {', '.join(sorted(fv))}")
    validate_formula(f, vocab)
    worst = cell_count(vocab, max_size)
    if worst > cell_limit:
        raise CellLimitError(
            f"{worst} interpretation cells at size {max_size} exceed the limit "
            f"of {cell_limit}; raise cell_limit explicitly to search anyway")
    started = time.perf_counter()
    counter = [0]
    for size in range(1, max_size + 1):
        model = _search_size(f, vocab, size, prune, counter)
        if model is not None:
            if not evaluate(model, {}, f):  # soundness re-check before returning
                raise AssertionError("search returned a non-model; this is a bug")
            return SearchReport(f, max_size, model, counter[0],
                                time.perf_counter() - started)
    return SearchReport(f, max_size, None, counter[0],
                        time.perf_counter() - started)


# ---------------------------------------------------------------------------
# One domain size
# ---------------------------------------------------------------------------

def _search_size(f: Formula, vocab: Vocabulary, n: int, prune: bool,
                 counter: list[int]) -> Optional[Structure]:
    rels = sorted(vocab.symbols)
    offsets: dict[str, int] = {}
    cells: list[tuple[str, tuple[int, ...]]] = []
    for rel in rels:
        offsets[rel] = len(cells)
        arity = vocab.symbols[rel]
        cells.extend((rel, t) for t in product(range(n), repeat=arity))
    vals: list[Optional[bool]] = [None] * len(cells)
    asg: dict[str, int] = {}

    def atom(g: Atom):
        base, args = offsets[g.rel], g.args

        def ev_atom():
            rank = 0
            for v in args:
                rank = rank * n + asg[v]
            return vals[base + rank]

        return ev_atom

    root = compile_formula(f, range(n), atom, asg)

    swaps = _transposition_maps(cells, offsets, n) if prune else []

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

    def build() -> Structure:
        domain = tuple(f"e{i}" for i in range(n))
        relations: dict[str, set] = {rel: set() for rel in rels}
        for (rel, t), v in zip(cells, vals):
            if v:
                relations[rel].add(tuple(domain[i] for i in t))
        return Structure(domain, relations, vocab)

    i = 0  # depth of the node: the cells before i are decided
    while True:
        counter[0] += 1
        verdict = root()
        if verdict is True:
            for j in range(i, len(vals)):
                vals[j] = False
            return build()
        if verdict is None:
            vals[i] = False
            i += 1
            if not (prune and lex_violates(i - 1)):
                continue
        # backtrack to the deepest decided cell that can still turn True
        while True:
            i -= 1
            if i < 0:
                return None
            if vals[i] is False:
                vals[i] = True
                if not (prune and lex_violates(i)):
                    i += 1
                    break
            vals[i] = None


def _transposition_maps(cells: list[tuple[str, tuple[int, ...]]],
                        offsets: dict[str, int], n: int) -> list[list[int]]:
    """For each transposition of two domain elements, the index of the
    image of every cell, in cell order."""
    maps = []
    for p in range(n):
        for q in range(p + 1, n):
            swap = {p: q, q: p}
            perm: list[int] = []
            for rel, t in cells:
                rank = 0
                for i in t:
                    rank = rank * n + swap.get(i, i)
                perm.append(offsets[rel] + rank)
            maps.append(perm)
    return maps
