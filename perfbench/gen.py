"""Seeded input generators.

Everything the workloads feed to unifrag is built here from a
``random.Random`` seeded by the command line, independently of the test
suite's generators, so that editing the tests never shifts the benchmark's
inputs.  The program's AST classes and ``make_structure`` are used to build
inputs; text inputs for the command line are rendered by this module's own
printers, not by the program's.
"""

from __future__ import annotations

import itertools
import random

from unifrag import dlr
from unifrag.structures import make_structure
from unifrag.syntax import (And, Atom, Bottom, CountExists, Equals,
                            ExistsBlock, ForallBlock, Implies, Not, Or, Top)

# one binary and one unary symbol: every structure of size <= 2 is only 68
BIN_ARITIES = {"R": 2, "P": 1}


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------

def all_structures(arities: dict[str, int], max_size: int) -> list:
    """Every structure over ``arities`` with domain e0..e{n-1}, n <= max_size."""
    out = []
    names = sorted(arities)
    for n in range(1, max_size + 1):
        domain = [f"e{i}" for i in range(n)]
        cells = [list(itertools.product(domain, repeat=arities[r])) for r in names]
        for masks in itertools.product(*[range(2 ** len(c)) for c in cells]):
            rels = {r: [c[i] for i in range(len(c)) if mask >> i & 1]
                    for r, c, mask in zip(names, cells, masks)}
            out.append(make_structure(domain, arities, rels))
    return out


def random_structure(rng: random.Random, arities: dict[str, int], n: int,
                     density: float):
    domain = [f"e{i}" for i in range(n)]
    rels = {r: [t for t in itertools.product(domain, repeat=a) if rng.random() < density]
            for r, a in sorted(arities.items())}
    return make_structure(domain, arities, rels)


def relabelled(rng: random.Random, domain: list[str], edges: set):
    """A structure over {R:2} isomorphic to (domain, edges), with seeded
    element names and a seeded domain order."""
    names = [f"n{i}" for i in range(len(domain))]
    rng.shuffle(names)
    rename = dict(zip(domain, names))
    rng.shuffle(names)
    return make_structure(names, {"R": 2},
                          {"R": {(rename[a], rename[b]) for a, b in edges}})


def cycles(copies: int, length: int) -> tuple[list[str], set]:
    """``copies`` disjoint directed cycles of ``length`` elements."""
    domain = [f"c{c}_{i}" for c in range(copies) for i in range(length)]
    edges = {(f"c{c}_{i}", f"c{c}_{(i + 1) % length}")
             for c in range(copies) for i in range(length)}
    return domain, edges


def cliques(copies: int, k: int) -> tuple[list[str], set]:
    """``copies`` disjoint irreflexive k-cliques."""
    domain = [f"k{c}_{i}" for c in range(copies) for i in range(k)]
    edges = {(f"k{c}_{i}", f"k{c}_{j}")
             for c in range(copies) for i in range(k) for j in range(k) if i != j}
    return domain, edges


# ---------------------------------------------------------------------------
# FU1 formulas over {R:2, P:1}
# ---------------------------------------------------------------------------

class Fu1Gen:
    """Grammar-directed FU1 formulas: quantifier blocks of one or two
    variables whose bodies combine literals over one uniform variable pair,
    equalities over that same pair, and nested formulas with at most one
    free variable."""

    def __init__(self, rng: random.Random, equality: bool = True):
        self.rng = rng
        self.equality = equality
        self.fresh = itertools.count(1)

    def formula(self, depth: int, pool: tuple[str, ...] = ("x",)):
        rng = self.rng
        r = rng.random()
        if depth <= 0 or r < 0.12:
            return self.leaf(pool)
        if r < 0.25:
            return Not(self.formula(depth - 1, pool))
        if r < 0.45:
            ctor = rng.choice((And, Or, Implies))
            return ctor(self.formula(depth - 1, pool), self.formula(depth - 1, pool))
        return self.block(depth, pool)

    def leaf(self, pool: tuple[str, ...]):
        rng = self.rng
        if not pool or rng.random() < 0.15:
            return rng.choice((Top(), Bottom()))
        v = pool[0]
        return Atom("P", (v,)) if rng.random() < 0.65 else Atom("R", (v, v))

    def block(self, depth: int, pool: tuple[str, ...]):
        rng = self.rng
        bound = tuple(f"v{next(self.fresh)}" for _ in range(rng.choice((1, 2))))
        ys = bound + pool
        pair = tuple(rng.sample(ys, 2)) if len(ys) >= 2 else None
        leaves = []
        for _ in range(rng.randint(1, 3)):
            if pair and rng.random() < 0.6:
                a, b = pair if rng.random() < 0.5 else pair[::-1]
                atom = Atom("R", (a, b))
                leaves.append(Not(atom) if rng.random() < 0.35 else atom)
            elif rng.random() < 0.85:
                leaves.append(self.formula(depth - 1, (rng.choice(ys),)))
            else:
                leaves.append(self.formula(depth - 1, ()))
        if pair and self.equality and rng.random() < 0.25:
            eq = Equals(*pair)
            leaves.append(Not(eq) if rng.random() < 0.5 else eq)
        body = leaves[0]
        for leaf in leaves[1:]:
            body = rng.choice((And, And, Or, Implies))(body, leaf)
        if rng.random() < 0.2:
            body = Not(body)
        return rng.choice((ExistsBlock, ForallBlock))(bound, body)

    def counting(self, depth: int):
        """A UC1 formula with free variable x: E[cmp k] v. (R(x,v) & ...)."""
        rng = self.rng
        v = f"v{next(self.fresh)}"
        atom = Atom("R", (v, "x") if rng.random() < 0.5 else ("x", v))
        body = And(atom, self.formula(depth - 1, (v,)))
        return CountExists(rng.choice((">=", "<=", "=")), rng.randint(0, 2), v, body)


def fo2_formula(rng: random.Random, depth: int, var: str = "x"):
    """An FO2 formula with free variable ``var``: variables x and y only,
    one variable per quantifier."""
    other = "y" if var == "x" else "x"
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return rng.choice((Atom("P", (var,)), Atom("R", (var, var))))
    if r < 0.5:
        return Not(fo2_formula(rng, depth - 1, var))
    if r < 0.7:
        return rng.choice((And, Or))(fo2_formula(rng, depth - 1, var),
                                     fo2_formula(rng, depth - 1, var))
    atom = Atom("R", (var, other) if rng.random() < 0.5 else (other, var))
    body = rng.choice((And, Implies))(atom, fo2_formula(rng, depth - 1, other))
    return rng.choice((ExistsBlock, ForallBlock))((other,), body)


# ---------------------------------------------------------------------------
# DLR-core concepts over {R:2, P:1}: no closure, no number restriction
# ---------------------------------------------------------------------------

def dlr_concept(rng: random.Random, depth: int):
    r = rng.random()
    if depth <= 0 or r < 0.15:
        return dlr.AtomicConcept("P") if rng.random() < 0.75 else dlr.Top1()
    if r < 0.3:
        return dlr.NotC(dlr_concept(rng, depth - 1))
    if r < 0.45:
        return dlr.AndC(dlr_concept(rng, depth - 1), dlr_concept(rng, depth - 1))
    if r < 0.8:
        return dlr.ExistsE(dlr_binrel(rng, depth - 1), dlr_concept(rng, depth - 1))
    return dlr.ExistsProj(rng.randint(1, 2), dlr_role(rng, depth - 1))


def dlr_role(rng: random.Random, depth: int):
    r = rng.random()
    if depth <= 0 or r < 0.4:
        return dlr.AtomicRole("R") if rng.random() < 0.8 else dlr.TopN(2)
    if r < 0.6:
        return dlr.NotR(dlr_role(rng, depth - 1))
    if r < 0.75:
        return dlr.AndR(dlr_role(rng, depth - 1), dlr_role(rng, depth - 1))
    return dlr.Sel(rng.randint(1, 2), 2, dlr_concept(rng, depth - 1))


def dlr_binrel(rng: random.Random, depth: int):
    r = rng.random()
    if depth <= 0 or r < 0.5:
        if rng.random() < 0.2:
            return dlr.Eps()
        return dlr.Proj(dlr_role(rng, depth - 1), rng.randint(1, 2), rng.randint(1, 2))
    if r < 0.75:
        return dlr.Comp(dlr_binrel(rng, depth - 1), dlr_binrel(rng, depth - 1))
    return dlr.UnionE(dlr_binrel(rng, depth - 1), dlr_binrel(rng, depth - 1))


# ---------------------------------------------------------------------------
# Sentences for model search over {R:2, P:1}
# ---------------------------------------------------------------------------

SEARCH_ATOMS = (Atom("R", ("x", "y")), Atom("R", ("y", "x")), Atom("R", ("x", "x")),
                Atom("R", ("y", "y")), Atom("P", ("x",)), Atom("P", ("y",)),
                Equals("x", "y"))


def forall_exists(rng: random.Random):
    """A x. E y. (Boolean combination of two to four distinct atoms)."""
    atoms = rng.sample(SEARCH_ATOMS, rng.randint(2, 4))
    lits = [Not(a) if rng.random() < 0.4 else a for a in atoms]
    body = lits[0]
    for lit in lits[1:]:
        body = rng.choice((And, And, Or, Implies))(body, lit)
    return ForallBlock(("x",), ExistsBlock(("y",), body))


def contradiction_sentence(rng: random.Random, column: bool):
    """An A-E sentence with no model at any size: its body conjoins a binary
    atom with its own negation, which partial evaluation cannot refute
    before the atom's cells are decided, so the search exhausts the tree.
    The atom R(y,x) (``column``) is decided later than R(x,y) in the
    row-major cell order and costs about ten times as many nodes.  The
    seeded side condition (L | ~L) is never false, so it changes the text
    but not the number of nodes: the stratum's cost does not depend on the
    seed."""
    atom = Atom("R", ("y", "x") if column else ("x", "y"))
    side = rng.choice(SEARCH_ATOMS)
    body = And(Or(side, Not(side)), And(atom, Not(atom)))
    return ForallBlock(("x",), ExistsBlock(("y",), body))


# ---------------------------------------------------------------------------
# Text renderers for command-line requests
# ---------------------------------------------------------------------------

def formula_text(f) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Atom):
        return f"{f.rel}({','.join(f.args)})"
    if isinstance(f, Equals):
        return f"{f.left} = {f.right}"
    if isinstance(f, Not):
        inner = formula_text(f.body)
        return f"~({inner})" if isinstance(f.body, Equals) else f"~{inner}"
    if isinstance(f, (And, Or, Implies)):
        op = {And: "&", Or: "|", Implies: "->"}[type(f)]
        return f"({formula_text(f.left)} {op} {formula_text(f.right)})"
    if isinstance(f, (ExistsBlock, ForallBlock)):
        q = "E" if isinstance(f, ExistsBlock) else "A"
        return f"{q} {' '.join(f.vars)}. {formula_text(f.body)}"
    if isinstance(f, CountExists):
        return f"E[{f.cmp}{f.bound}] {f.var}. {formula_text(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


def dl_concept_text(rng: random.Random, depth: int) -> str:
    """A concept of the surjection DL over {R:2, P:1}, as text."""
    r = rng.random()
    if depth <= 0 or r < 0.2:
        return "P" if rng.random() < 0.75 else "top"
    if r < 0.35:
        return "~" + dl_concept_text(rng, depth - 1)
    if r < 0.55:
        return f"({dl_concept_text(rng, depth - 1)} & {dl_concept_text(rng, depth - 1)})"
    return f"exists {dl_role_text(rng, depth - 1)}.({dl_concept_text(rng, depth - 1)})"


def dl_role_text(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth <= 0 or r < 0.4:
        return "R" if rng.random() < 0.75 else "eps"
    if r < 0.6:
        return "~" + dl_role_text(rng, depth - 1)
    if r < 0.8:
        return f"({dl_role_text(rng, depth - 1)} & {dl_role_text(rng, depth - 1)})"
    return "perm[2,1]" + dl_role_text(rng, depth - 1)


def dlr_text(c) -> str:
    """Render a DLR concept built by ``dlr_concept`` in the DLR grammar."""
    if isinstance(c, dlr.Top1):
        return "top1"
    if isinstance(c, dlr.AtomicConcept):
        return c.name
    if isinstance(c, dlr.NotC):
        return "~" + dlr_text(c.body)
    if isinstance(c, dlr.AndC):
        return f"({dlr_text(c.left)} & {dlr_text(c.right)})"
    if isinstance(c, dlr.ExistsE):
        return f"exists {_binrel_text(c.rel)} . {dlr_text(c.concept)}"
    if isinstance(c, dlr.ExistsProj):
        return f"exists[${c.i}] {_role_text(c.role)}"
    raise TypeError(f"not a core concept: {c!r}")


def _role_text(r) -> str:
    if isinstance(r, dlr.TopN):
        return f"top{r.n}"
    if isinstance(r, dlr.AtomicRole):
        return r.name
    if isinstance(r, dlr.Sel):
        return f"(${r.i}/{r.n}:{dlr_text(r.concept)})"
    if isinstance(r, dlr.NotR):
        return "~" + _role_text(r.role)
    if isinstance(r, dlr.AndR):
        return f"({_role_text(r.left)} & {_role_text(r.right)})"
    raise TypeError(f"not a role: {r!r}")


def _binrel_text(e) -> str:
    if isinstance(e, dlr.Eps):
        return "eps"
    if isinstance(e, dlr.Proj):
        return f"{_role_text(e.role)}|${e.i},${e.j}"
    if isinstance(e, dlr.Comp):
        return f"({_binrel_text(e.left)} o {_binrel_text(e.right)})"
    if isinstance(e, dlr.UnionE):
        return f"({_binrel_text(e.left)} u {_binrel_text(e.right)})"
    raise TypeError(f"not a core binary relation: {e!r}")
