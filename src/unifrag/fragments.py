"""Membership checking for the uniform one-dimensional fragment family.

The checker decides whether a formula is generated by the grammar of one of

* ``U1_WO_EQ``  - uniform one-dimensional fragment without equality,
* ``FU1``       - equality admitted only where a binary atom could stand,
* ``U1``        - equality placed freely,
* ``UC1``       - U1 plus counting quantifiers on single variables,
* ``FO2``       - two-variable logic with equality (separate shape check),

and reports each violation as data (kind, subformula path, message).

A formula of the first four fragments is built from four ingredients:
unary leaves (nullary constants, atoms over a single distinct variable),
equality leaves (fragment dependent), Boolean connectives, and quantifier
blocks.  For every block ``E x1..xk. body`` three conditions are enforced:

1. one-dimensionality: at most one variable of ``body`` stays free;
2. every Boolean leaf of ``body`` is either a recursively legal formula
   whose free variables lie in Y = {block variables} + the one free
   variable, or an atom with two or more distinct variables;
3. uniformity: all leaves of the second kind share a single variable set X.

A higher-arity atom can therefore only ever appear inside a quantifier
block; anywhere else it draws a UNIFORMITY violation.  Atoms of shape
``R(x,...,x)`` count as unary leaves, whatever the arity of ``R``, and
never constrain X.

The grammar leaves open whether a lone equality-free block whose atoms all
share a singleton variable set routes through the unary-leaf clause or
through uniformity; both readings generate the same language, and the
checker accepts both (single-variable atoms are simply unary leaves here).
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Optional

from .errors import ArityError, VocabularyError
from .syntax import (And, Atom, Bottom, CountExists, Equals, ExistsBlock,
                     ForallBlock, Formula, FragmentId, Implies, Node, Not, Or, Top,
                     Vocabulary, check_atom, children, compiled)


class ViolationKind(Enum):
    UNIFORMITY = "UNIFORMITY"
    ONE_DIMENSIONALITY = "ONE_DIMENSIONALITY"
    EQUALITY_PLACEMENT = "EQUALITY_PLACEMENT"
    COUNTING_QUANTIFIER = "COUNTING_QUANTIFIER"
    VARIABLE_COUNT = "VARIABLE_COUNT"
    ARITY = "ARITY"


class Violation(Node):
    """One violation: its ``kind``, a ViolationKind; the ``path`` of child
    indices from the root to the subformula at fault; and a ``message``."""

    __slots__ = ("kind", "path", "message")


class Diagnostic(Node):
    """The ``verdict``, true when the formula is in the fragment, and the
    tuple of its ``violations``, empty exactly then."""

    __slots__ = ("verdict", "violations")

    def __init__(self, verdict: bool, violations: tuple[Violation, ...]):
        self._set_fields(verdict, violations)
        assert verdict == (not violations)

    def to_doc(self) -> dict:
        return {
            "verdict": self.verdict,
            "violations": [
                {"kind": v.kind.value, "path": list(v.path), "message": v.message}
                for v in self.violations
            ],
        }


class _Checker:
    """The one walk of a check, ``check_f`` for the U1 family and the scan of
    :func:`check_fo2` for FO2: it meets every atom once and records there each
    that ``vocab``, when given, refuses.  These ARITY violations go to ``arity``,
    listed first, in pre-order; the fragment's own go to ``out``."""

    def __init__(self, frag: FragmentId, vocab: Vocabulary | None):
        self.frag, self.vocab = frag, vocab
        self.arity: list[Violation] = []
        self.out: list[Violation] = []

    def emit(self, kind: ViolationKind, path: tuple[int, ...], message: str):
        self.out.append(Violation(kind, path, message))

    def check_arity(self, f: Atom, path: tuple[int, ...]):
        if self.vocab is not None:
            try:
                check_atom(f, self.vocab)
            except (ArityError, VocabularyError) as e:
                self.arity.append(Violation(ViolationKind.ARITY, path, str(e)))

    def diagnostic(self) -> Diagnostic:
        violations = (*self.arity, *self.out)
        return Diagnostic(not violations, violations)

    # -- formula positions (clauses 1-3 plus block entry) -------------------

    def check_f(self, f: Formula, path: tuple[int, ...],
                shared: Optional[tuple[list, list]] = None) -> frozenset[str]:
        """Check ``f`` at ``path``, returning its free variables.  Inside a block's
        Boolean skeleton ``shared`` holds the lists of its uniform atoms and its
        FU1 equalities; ``None`` means outside one."""
        if isinstance(f, (Top, Bottom)):
            return frozenset()
        if isinstance(f, Atom):
            self.check_arity(f, path)
            varset = frozenset(f.args)
            if len(varset) > 1 and shared is None:
                self.emit(ViolationKind.UNIFORMITY, path,
                          f"atom {f.rel} over two or more distinct variables may only "
                          f"occur inside a quantifier block")
            elif len(varset) > 1:
                shared[0].append((varset, path, f.rel))
            return varset
        if isinstance(f, Equals):
            self.check_equality_leaf(f, path, shared)
            return frozenset((f.left, f.right))
        if isinstance(f, Not):
            return self.check_f(f.body, path + (0,), shared)
        if isinstance(f, (And, Or, Implies)):
            return (self.check_f(f.left, path + (0,), shared)
                    | self.check_f(f.right, path + (1,), shared))
        if isinstance(f, (ExistsBlock, ForallBlock)):
            return self.check_block(f.vars, f.body, path)
        if isinstance(f, CountExists):
            if self.frag is not FragmentId.UC1:
                self.emit(ViolationKind.COUNTING_QUANTIFIER, path,
                          f"counting quantifier E[{f.cmp}{f.bound}] is only available in UC1")
            return self.check_block((f.var,), f.body, path)
        raise TypeError(f"not a formula: {f!r}")

    def check_equality_leaf(self, f: Equals, path: tuple[int, ...],
                            shared: Optional[tuple[list, list]]):
        """Equality outside uniform-atom positions.

        U1 and UC1 admit x=y anywhere; U1(wo=) admits no equality at all;
        in FU1 an equality between distinct variables stands for a binary
        atom and is handled by the uniformity bookkeeping (``shared``).
        """
        if self.frag is FragmentId.U1_WO_EQ:
            self.emit(ViolationKind.EQUALITY_PLACEMENT, path,
                      "equality is not available in the equality-free fragment")
            return
        if f.left == f.right:
            return  # x=x substitutes a unary atom R(x,x); harmless everywhere else
        if self.frag is FragmentId.FU1:
            if shared is None:
                self.emit(ViolationKind.EQUALITY_PLACEMENT, path,
                          "equality between distinct variables may only stand where "
                          "a binary atom could (inside a quantifier block)")
            else:
                shared[1].append((frozenset((f.left, f.right)), path))

    # -- clause 4 ------------------------------------------------------------

    def check_block(self, vars: tuple[str, ...], body: Formula, path: tuple[int, ...]):
        at, atoms, equalities = len(self.out), [], []
        leftover = self.check_f(body, path + (0,), (atoms, equalities)).difference(vars)
        if len(leftover) > 1:
            self.emit(ViolationKind.ONE_DIMENSIONALITY, path,
                      f"quantifying {' '.join(vars)} leaves "
                      f"{len(leftover)} variables free ({', '.join(sorted(leftover))}) "
                      f"instead of at most one")
            self.out.insert(at, self.out.pop())  # ahead of the body's violations
        self.report(atoms, equalities)
        return leftover

    def report(self, atoms: list, equalities: list):
        """Uniformity of one block, from the variable sets of its higher-arity
        atoms and, for FU1, of its equalities between distinct variables: every
        set must coincide.  When they do not, every atom outside the unique
        largest class is flagged, and on a tie all classes are flagged, so the
        mutated atom of a single-atom edit is always reported."""
        counts = Counter(v for v, _, _ in atoms)
        shared: Optional[frozenset[str]] = None
        if counts:
            best = max(counts.values())
            majority = [v for v, c in counts.items() if c == best]
            keep = majority[0] if len(majority) == 1 else None
            for varset, path, rel in atoms:
                if varset != keep:
                    others = sorted("{%s}" % ",".join(sorted(v))
                                    for v in counts if v != varset)
                    self.emit(
                        ViolationKind.UNIFORMITY, path,
                        f"atom {rel} has variable set {{{','.join(sorted(varset))}}} "
                        f"but the block also uses {', '.join(others)}")
            shared = keep
        if not equalities:
            return
        # FU1 only: equalities behave like binary atoms and share the same X
        if shared is None and counts:
            return  # uniformity already failed; avoid piling on
        for varset, path in equalities:
            if shared is None:
                shared = varset
            if varset != shared:
                self.emit(
                    ViolationKind.EQUALITY_PLACEMENT, path,
                    f"equality over {{{','.join(sorted(varset))}}} does not match the "
                    f"block's uniform variable set {{{','.join(sorted(shared))}}}")


def check_fragment(f: Formula, frag: FragmentId,
                   vocab: Vocabulary | None = None) -> Diagnostic:
    """Decide membership of ``f`` in the given fragment.

    Violations are returned as data, never raised.  When a vocabulary is
    supplied, the one walk of the check also finds each atom that
    :func:`unifrag.syntax.check_atom` refuses: an ARITY violation with its
    message, listed ahead of the fragment's own, in pre-order.  The diagnostic
    is kept in a bounded table of :func:`unifrag.syntax.compiled`, so a formula
    object checked again for the same fragment and vocabulary is walked once.
    """
    return compiled(_cache, _check, f, vocab, frag)


_cache: list = [None] * 5 + [{}]  # the diagnostics made, see syntax.compiled


def _check(f: Formula, vocab: Vocabulary | None, frag: FragmentId) -> Diagnostic:
    if frag is FragmentId.FO2:
        return check_fo2(f, vocab)
    checker = _Checker(frag, vocab)
    checker.check_f(f, ())
    return checker.diagnostic()


def check_fo2(f: Formula, vocab: Vocabulary | None = None) -> Diagnostic:
    """Two-variable shape: at most two distinct variable names, only
    single-variable quantifier blocks, no counting quantifiers.  One pre-order
    scan of the subformulas, each with its diagnostic path, checks them."""
    checker, seen, stack = _Checker(FragmentId.FO2, vocab), set(), [((), f)]
    while stack:
        path, g = stack.pop()
        kids = children(g)
        stack.extend((path + (i,), kids[i]) for i in reversed(range(len(kids))))
        if isinstance(g, Atom):
            checker.check_arity(g, path)
            names = g.args
        elif isinstance(g, Equals):
            names = (g.left, g.right)
        elif isinstance(g, (ExistsBlock, ForallBlock)):
            if len(g.vars) > 1:
                checker.emit(ViolationKind.VARIABLE_COUNT, path,
                             f"FO2 quantifies one variable at a time, block has {len(g.vars)}")
            names = g.vars
        elif isinstance(g, CountExists):
            checker.emit(ViolationKind.COUNTING_QUANTIFIER, path,
                         "counting quantifiers are outside FO2")
            names = (g.var,)
        else:
            continue
        for name in names:
            if name not in seen:
                seen.add(name)
                if len(seen) == 3:  # one report per formula is enough
                    checker.emit(ViolationKind.VARIABLE_COUNT, path,
                                 f"third distinct variable {name!r} appears here; "
                                 f"FO2 allows at most two")
    return checker.diagnostic()
