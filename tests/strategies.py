"""Random generators shared by the property and acceptance tests.

The formula generator follows the fragment grammars construction rule by
construction rule, so everything it emits must be accepted by the checker
(that is itself one of the properties under test).  Plain random.Random
keeps the acceptance runs deterministic; the hypothesis strategies wrap
the same generators.  The module also holds oracles, views of the library's
internals that only the tests need.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from unifrag import ArityError, dl, dlr
from unifrag.fragments import FragmentId
from unifrag.structures import COPY_SEP, Structure, make_structure
from unifrag.syntax import (And, Atom, Bottom, CountExists, Equals,
                            ExistsBlock, ForallBlock, Formula, Implies, Not,
                            Or, Top, Vocabulary, children, fold)

# vocabulary used throughout the oracle tests: one binary, one ternary, two unary
VOCAB = Vocabulary({"R": 2, "T": 3, "P": 1, "Q": 1})
DLR_VOCAB = Vocabulary({"R": 2, "T": 3, "A": 1, "B": 1})


class FormulaGen:
    """Grammar-directed generator for the uniform fragments."""

    def __init__(self, rng: random.Random, frag: FragmentId,
                 vocab: Vocabulary = VOCAB):
        self.rng = rng
        self.frag = frag
        self.vocab = vocab
        self.counter = itertools.count(1)
        self.unary = sorted(n for n, a in vocab.symbols.items() if a == 1)
        self.by_min_arity = {
            k: sorted(n for n, a in vocab.symbols.items() if a >= k)
            for k in (2, 3)
        }

    def fresh(self) -> str:
        return f"v{next(self.counter)}"

    def formula(self, depth: int, pool: tuple[str, ...]) -> Formula:
        """A formula of the fragment whose free variables lie in pool."""
        rng = self.rng
        choices = ["leaf", "not", "binop", "block"]
        if self.frag in (FragmentId.U1, FragmentId.UC1) and len(pool) >= 2:
            choices.append("equality")
        if depth <= 0:
            choices = ["leaf"]
        kind = rng.choice(choices)
        if kind == "leaf":
            return self.leaf(pool)
        if kind == "not":
            return Not(self.formula(depth - 1, pool))
        if kind == "binop":
            ctor = rng.choice((And, Or, Implies))
            return ctor(self.formula(depth - 1, pool),
                        self.formula(depth - 1, pool))
        if kind == "equality":
            a, b = rng.sample(pool, 2)
            return Equals(a, b)
        return self.block(depth, pool)

    def leaf(self, pool: tuple[str, ...]) -> Formula:
        rng = self.rng
        options = ["top", "bottom"]
        if pool:
            options += ["unary", "unary", "diag"]
            if self.frag is not FragmentId.U1_WO_EQ:
                options.append("self_eq")
        kind = rng.choice(options)
        if kind == "top":
            return Top()
        if kind == "bottom":
            return Bottom()
        v = rng.choice(pool)
        if kind == "unary" and self.unary:
            return Atom(rng.choice(self.unary), (v,))
        if kind in ("unary", "diag") and self.by_min_arity[2]:
            rel = rng.choice(self.by_min_arity[2])
            return Atom(rel, (v,) * self.vocab.arity(rel))
        if self.frag is FragmentId.U1_WO_EQ:
            return Top()
        return Equals(v, v)

    def block(self, depth: int, pool: tuple[str, ...]) -> Formula:
        rng = self.rng
        counting = (self.frag is FragmentId.UC1 and rng.random() < 0.3)
        k = 1 if counting else rng.randint(1, 3)
        block_vars = tuple(self.fresh() for _ in range(k))
        outer = rng.choice((None,) + tuple(pool)) if pool else None
        y = block_vars + ((outer,) if outer else ())
        body = self.block_body(depth - 1, y)
        if counting:
            cmp = rng.choice((">=", "<=", "="))
            return CountExists(cmp, rng.randint(0, 2), block_vars[0], body)
        ctor = rng.choice((ExistsBlock, ForallBlock))
        return ctor(block_vars, body)

    def block_body(self, depth: int, y: tuple[str, ...]) -> Formula:
        """Boolean combination of uniform atoms over one X and formulas with
        free variables inside y."""
        rng = self.rng
        xset: Optional[tuple[str, ...]] = None
        sizes = [s for s in (2, 3) if s <= len(y) and self.by_min_arity[s]]
        if sizes and rng.random() < 0.9:
            xset = tuple(rng.sample(y, rng.choice(sizes)))
        leaves = []
        for _ in range(rng.randint(1, 3)):
            if xset is not None and rng.random() < 0.7:
                leaves.append(self.x_atom(xset))
            else:
                sub_pool = tuple(rng.sample(y, rng.randint(0, min(2, len(y)))))
                leaves.append(self.formula(depth, sub_pool))
        if self.frag in (FragmentId.U1, FragmentId.UC1) and len(y) >= 2 and rng.random() < 0.4:
            a, b = rng.sample(y, 2)
            leaves.append(Equals(a, b))
        if self.frag is FragmentId.FU1 and xset is not None and len(xset) == 2 and rng.random() < 0.4:
            leaves.append(Equals(xset[0], xset[1]))
        return self.combine(leaves)

    def x_atom(self, xset: tuple[str, ...]) -> Formula:
        rng = self.rng
        rel = rng.choice(self.by_min_arity[len(xset)])
        arity = self.vocab.arity(rel)
        args = list(xset) + [rng.choice(xset) for _ in range(arity - len(xset))]
        rng.shuffle(args)
        atom = Atom(rel, tuple(args))
        return atom if rng.random() < 0.7 else Not(atom)

    def combine(self, leaves: list[Formula]) -> Formula:
        rng = self.rng
        out = leaves[0]
        for leaf in leaves[1:]:
            ctor = rng.choice((And, And, Or, Implies))
            left, right = (out, leaf) if rng.random() < 0.5 else (leaf, out)
            out = ctor(left, right)
        if rng.random() < 0.2:
            out = Not(out)
        return out


def gen_formula(rng: random.Random, frag: FragmentId, depth: int = 3,
                free_var: Optional[str] = "x", vocab: Vocabulary = VOCAB) -> Formula:
    pool = (free_var,) if free_var else ()
    return FormulaGen(rng, frag, vocab).formula(depth, pool)


def gen_any_formula(rng: random.Random, depth: int = 3,
                    pool: tuple[str, ...] = (), vocab: Vocabulary = VOCAB) -> Formula:
    """Arbitrary first-order formulas (no fragment discipline) for the
    evaluator properties.  All free variables lie in pool."""
    if depth <= 0 or rng.random() < 0.25:
        kind = rng.choice(["top", "bottom", "atom", "atom", "eq"] if pool else ["top", "bottom"])
        if kind == "top":
            return Top()
        if kind == "bottom":
            return Bottom()
        if kind == "eq":
            return Equals(rng.choice(pool), rng.choice(pool))
        rel = rng.choice(sorted(vocab.symbols))
        return Atom(rel, tuple(rng.choice(pool) for _ in range(vocab.arity(rel))))
    kind = rng.choice(["not", "and", "or", "implies", "exists", "forall", "count"])
    if kind == "not":
        return Not(gen_any_formula(rng, depth - 1, pool, vocab))
    if kind in ("and", "or", "implies"):
        ctor = {"and": And, "or": Or, "implies": Implies}[kind]
        return ctor(gen_any_formula(rng, depth - 1, pool, vocab),
                    gen_any_formula(rng, depth - 1, pool, vocab))
    if kind == "count":
        var = f"w{rng.randint(1, 5)}"
        return CountExists(rng.choice((">=", "<=", "=")), rng.randint(0, 2), var,
                           gen_any_formula(rng, depth - 1, pool + (var,), vocab))
    vars = tuple(f"w{rng.randint(1, 5)}" for _ in range(rng.randint(1, 2)))
    vars = tuple(dict.fromkeys(vars))
    ctor = ExistsBlock if kind == "exists" else ForallBlock
    return ctor(vars, gen_any_formula(rng, depth - 1, pool + vars, vocab))


def counting_formula(predicate: str, cmp: str, k: int) -> Formula:
    """A sentence of the uniform fragment, built from equality and a block
    of k (respectively k+1) variables, saying |P| >= k, <= k or = k."""
    if k < 0:
        raise ValueError("count bound must be >= 0")
    if cmp == ">=":
        if k == 0:
            return Top()
        vars = tuple(f"x{i}" for i in range(1, k + 1))
        parts = [Not(Equals(a, b)) for a, b in itertools.combinations(vars, 2)]
        parts += [Atom(predicate, (v,)) for v in vars]
        return ExistsBlock(vars, fold(And, parts))
    if cmp == "<=":
        return Not(counting_formula(predicate, ">=", k + 1))
    if cmp == "=":
        above = counting_formula(predicate, ">=", k)
        below = counting_formula(predicate, "<=", k)
        return below if isinstance(above, Top) else And(above, below)
    raise ValueError(f"comparator must be '>=', '<=' or '=', got {cmp!r}")


# ---------------------------------------------------------------------------
# Oracles: views of the library's internals that only the tests need
# ---------------------------------------------------------------------------

def role_arity(r: dl.RoleTerm, vocab: Vocabulary) -> int:
    """Arity of a DL role term; mismatches collapse to the empty binary relation."""
    return dl._compile_role(r, vocab)[0]


def dlr_role_arity(r: dlr.DlrRole, vocab: Vocabulary) -> int:
    """Arity of a DLR role term; an intersection of two arities raises."""
    if isinstance(r, (dlr.TopN, dlr.Sel)):
        return r.n
    if isinstance(r, dlr.AtomicRole):
        return dl.atomic_role_arity(r.name, vocab)
    if isinstance(r, dlr.NotR):
        return dlr_role_arity(r.role, vocab)
    left, right = dlr_role_arity(r.left, vocab), dlr_role_arity(r.right, vocab)
    if left != right:
        raise ArityError(f"role intersection of arities {left} and {right}")
    return left


def parse_role(text: str) -> dl.RoleTerm:
    p = dl._DlParser(text)
    return p.finish(p.role())


def dlr_role_extension(s: Structure, r: dlr.DlrRole, topn: str = "delta") -> frozenset:
    """Extension of a binary DLR role, read as its projection on $1,$2."""
    return dlr.dlr_binrel_extension(s, dlr.Proj(r, 1, 2), topn)


def compose_reference(first, second) -> frozenset:
    """Relational composition by a nested loop over every pair of both sides."""
    return frozenset((a, c) for a, b in first for b2, c in second if b == b2)


def closure_reference(pairs, domain) -> frozenset:
    """The reflexive-transitive closure of ``pairs`` over ``domain``, squared
    with :func:`compose_reference` until nothing new appears."""
    closure = {(d, d) for d in domain} | set(pairs)
    while not (step := compose_reference(closure, closure)) <= closure:
        closure |= step
    return frozenset(closure)


def inverse(srj: dl.Surjection) -> dl.Surjection:
    """The inverse of a permutation."""
    if srj.source != srj.target:
        raise ValueError("only permutations have an inverse")
    inv = [0] * srj.source
    for j, i in enumerate(srj.map, start=1):
        inv[i - 1] = j
    return dl.Surjection(tuple(inv))


def subformula_at(f: Formula, path: tuple[int, ...]) -> Formula:
    for i in path:
        f = children(f)[i]
    return f


def tag_elements(elements, copy: int) -> frozenset[str]:
    """Elements of one copy inside a disjoint union, by tag index (1 or 2)."""
    return frozenset(f"{e}{COPY_SEP}{copy}" for e in elements)


def literal_formula(lit) -> Formula:
    """The formula of a DNF literal (``translate.Literal``)."""
    return lit.atom if lit.positive else Not(lit.atom)


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------

def gen_structure(rng: random.Random, vocab: Vocabulary = VOCAB,
                  max_size: int = 4, density: float = 0.4) -> Structure:
    n = rng.randint(1, max_size)
    domain = tuple(f"e{i}" for i in range(n))
    rels = {}
    for name, arity in vocab.symbols.items():
        rels[name] = {t for t in itertools.product(domain, repeat=arity)
                      if rng.random() < density}
    return make_structure(domain, dict(vocab.symbols), rels)


def enum_structures(arities: dict[str, int], max_size: int):
    """Every structure over the given symbols with domain size <= max_size."""
    for n in range(1, max_size + 1):
        domain = tuple(f"e{i}" for i in range(n))
        rel_names = sorted(arities)
        cell_lists = [list(itertools.product(domain, repeat=arities[r]))
                      for r in rel_names]
        for masks in itertools.product(*[range(2 ** len(c)) for c in cell_lists]):
            rels = {}
            for rname, cells, mask in zip(rel_names, cell_lists, masks):
                rels[rname] = {cells[i] for i in range(len(cells)) if mask >> i & 1}
            yield make_structure(domain, arities, rels)


# ---------------------------------------------------------------------------
# DL concepts and roles
# ---------------------------------------------------------------------------

def gen_dl_role(rng: random.Random, depth: int, vocab: Vocabulary = VOCAB) -> dl.RoleTerm:
    roles = sorted(n for n, a in vocab.symbols.items() if a >= 2)
    if depth <= 0 or rng.random() < 0.4:
        return dl.AtomicRole(rng.choice(roles)) if rng.random() < 0.7 else dl.Epsilon()
    kind = rng.choice(["not", "and", "apply"])
    if kind == "not":
        return dl.NotRole(gen_dl_role(rng, depth - 1, vocab))
    if kind == "and":
        return dl.AndRole(gen_dl_role(rng, depth - 1, vocab),
                          gen_dl_role(rng, depth - 1, vocab))
    inner = gen_dl_role(rng, depth - 1, vocab)
    k = role_arity(inner, vocab)
    if rng.random() < 0.15:
        k = rng.choice([s for s in (2, 3) if s != k] or [k])  # pathological on purpose
    m = rng.randint(2, k)
    values = list(range(1, m + 1)) + [rng.randint(1, m) for _ in range(k - m)]
    rng.shuffle(values)
    return dl.Apply(dl.Surjection(tuple(values)), inner)


def gen_dl_concept(rng: random.Random, depth: int, vocab: Vocabulary = VOCAB) -> dl.Concept:
    unary = sorted(n for n, a in vocab.symbols.items() if a == 1)
    if depth <= 0 or rng.random() < 0.3:
        if unary and rng.random() < 0.8:
            return dl.AtomicConcept(rng.choice(unary))
        return dl.TopC()
    kind = rng.choice(["not", "and", "exists", "exists"])
    if kind == "not":
        return dl.NotC(gen_dl_concept(rng, depth - 1, vocab))
    if kind == "and":
        return dl.AndC(gen_dl_concept(rng, depth - 1, vocab),
                       gen_dl_concept(rng, depth - 1, vocab))
    role = gen_dl_role(rng, depth - 1, vocab)
    n = role_arity(role, vocab)
    args = tuple(gen_dl_concept(rng, depth - 1, vocab) for _ in range(n - 1))
    return dl.ExistsRole(role, args)


# ---------------------------------------------------------------------------
# DLR concepts (optionally restricted to the star-free counting-free core)
# ---------------------------------------------------------------------------

def gen_dlr_role(rng: random.Random, depth: int, vocab: Vocabulary = DLR_VOCAB,
                 core_only: bool = False) -> dlr.DlrRole:
    roles = sorted(n for n, a in vocab.symbols.items() if a >= 2)
    arities = sorted({vocab.arity(r) for r in roles}) or [2]
    if depth <= 0 or rng.random() < 0.4:
        if roles and rng.random() < 0.7:
            return dlr.AtomicRole(rng.choice(roles))
        return dlr.TopN(rng.choice(arities))
    kind = rng.choice(["not", "and", "sel"])
    if kind == "not":
        return dlr.NotR(gen_dlr_role(rng, depth - 1, vocab, core_only))
    if kind == "and":
        left = gen_dlr_role(rng, depth - 1, vocab, core_only)
        n = dlr_role_arity(left, vocab)
        right = _dlr_role_of_arity(rng, depth - 1, n, vocab, core_only)
        return dlr.AndR(left, right)
    n = rng.choice(arities)
    return dlr.Sel(rng.randint(1, n), n,
                   gen_dlr_concept(rng, depth - 1, vocab, core_only))


def _dlr_role_of_arity(rng, depth, n, vocab, core_only) -> dlr.DlrRole:
    for _ in range(20):
        r = gen_dlr_role(rng, depth, vocab, core_only)
        if dlr_role_arity(r, vocab) == n:
            return r
    return dlr.TopN(n)


def gen_dlr_binrel(rng: random.Random, depth: int, vocab: Vocabulary = DLR_VOCAB,
                   core_only: bool = False) -> dlr.DlrBinRel:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.3:
            return dlr.Eps()
        role = gen_dlr_role(rng, depth - 1, vocab, core_only)
        n = dlr_role_arity(role, vocab)
        return dlr.Proj(role, rng.randint(1, n), rng.randint(1, n))
    kinds = ["comp", "union"] + ([] if core_only else ["star"])
    kind = rng.choice(kinds)
    if kind == "comp":
        return dlr.Comp(gen_dlr_binrel(rng, depth - 1, vocab, core_only),
                        gen_dlr_binrel(rng, depth - 1, vocab, core_only))
    if kind == "union":
        return dlr.UnionE(gen_dlr_binrel(rng, depth - 1, vocab, core_only),
                          gen_dlr_binrel(rng, depth - 1, vocab, core_only))
    return dlr.Star(gen_dlr_binrel(rng, depth - 1, vocab, core_only))


def gen_dlr_concept(rng: random.Random, depth: int, vocab: Vocabulary = DLR_VOCAB,
                    core_only: bool = False) -> dlr.DlrConcept:
    unary = sorted(n for n, a in vocab.symbols.items() if a == 1)
    if depth <= 0 or rng.random() < 0.3:
        if unary and rng.random() < 0.8:
            return dlr.AtomicConcept(rng.choice(unary))
        return dlr.Top1()
    kinds = ["not", "and", "exists_e", "exists_proj"]
    if not core_only:
        kinds.append("atmost")
    kind = rng.choice(kinds)
    if kind == "not":
        return dlr.NotC(gen_dlr_concept(rng, depth - 1, vocab, core_only))
    if kind == "and":
        return dlr.AndC(gen_dlr_concept(rng, depth - 1, vocab, core_only),
                        gen_dlr_concept(rng, depth - 1, vocab, core_only))
    if kind == "exists_e":
        return dlr.ExistsE(gen_dlr_binrel(rng, depth - 1, vocab, core_only),
                           gen_dlr_concept(rng, depth - 1, vocab, core_only))
    role = gen_dlr_role(rng, depth - 1, vocab, core_only)
    n = dlr_role_arity(role, vocab)
    if kind == "exists_proj":
        return dlr.ExistsProj(rng.randint(1, n), role)
    return dlr.AtMost(rng.randint(0, 3), rng.randint(1, n), role)


# ---------------------------------------------------------------------------
# Formula surgery helpers (alpha renaming, path rebuilds)
# ---------------------------------------------------------------------------

def subst_free(f: Formula, mapping: dict[str, str]) -> Formula:
    """Rename free occurrences; targets must be globally fresh names."""
    if not mapping:
        return f
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(mapping.get(v, v) for v in f.args))
    if isinstance(f, Equals):
        return Equals(mapping.get(f.left, f.left), mapping.get(f.right, f.right))
    if isinstance(f, Not):
        return Not(subst_free(f.body, mapping))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(subst_free(f.left, mapping), subst_free(f.right, mapping))
    if isinstance(f, (ExistsBlock, ForallBlock)):
        inner = {k: v for k, v in mapping.items() if k not in f.vars}
        return type(f)(f.vars, subst_free(f.body, inner))
    if isinstance(f, CountExists):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        return CountExists(f.cmp, f.bound, f.var, subst_free(f.body, inner))
    return f


def quantifier_paths(f: Formula, path=()):
    if isinstance(f, (ExistsBlock, ForallBlock, CountExists)):
        yield path, f
    if isinstance(f, Not):
        yield from quantifier_paths(f.body, path + (0,))
    elif isinstance(f, (And, Or, Implies)):
        yield from quantifier_paths(f.left, path + (0,))
        yield from quantifier_paths(f.right, path + (1,))
    elif isinstance(f, (ExistsBlock, ForallBlock, CountExists)):
        yield from quantifier_paths(f.body, path + (0,))


def rebuild(f: Formula, path: tuple[int, ...], replacement: Formula) -> Formula:
    if not path:
        return replacement
    i, rest = path[0], path[1:]
    if isinstance(f, Not):
        return Not(rebuild(f.body, rest, replacement))
    if isinstance(f, (And, Or, Implies)):
        if i == 0:
            return type(f)(rebuild(f.left, rest, replacement), f.right)
        return type(f)(f.left, rebuild(f.right, rest, replacement))
    if isinstance(f, (ExistsBlock, ForallBlock)):
        return type(f)(f.vars, rebuild(f.body, rest, replacement))
    if isinstance(f, CountExists):
        return CountExists(f.cmp, f.bound, f.var, rebuild(f.body, rest, replacement))
    raise ValueError(f"path {path} does not exist in {f!r}")


def alpha_rename_once(f: Formula, rng: random.Random) -> Formula:
    """Capture-avoiding rename of one bound variable to a fresh name."""
    sites = list(quantifier_paths(f))
    if not sites:
        return f
    path, node = rng.choice(sites)
    fresh = f"fresh{rng.randint(10**6, 10**7)}"
    if isinstance(node, CountExists):
        renamed = CountExists(node.cmp, node.bound, fresh,
                              subst_free(node.body, {node.var: fresh}))
    else:
        idx = rng.randrange(len(node.vars))
        old = node.vars[idx]
        vars = node.vars[:idx] + (fresh,) + node.vars[idx + 1:]
        renamed = type(node)(vars, subst_free(node.body, {old: fresh}))
    return rebuild(f, path, renamed)
