"""Structure and formula generators for the expressivity separations, and
an experiment runner that recomputes every expected value.

The catalogue pairs structures that agree on one logic but are told apart
by another:

1. the 2-clique against the 3-clique, separated (beyond two-variable
   logic) by the sentence "some element belongs to every edge";
2. four 3-cycles against three 4-cycles, separated by the triangle
   sentence, which lies outside the uniform fragment; a corpus of uniform
   sentences is expected to agree on the pair;
3. a single reflexive point against its disjoint double, separated by
   free role negation (and by "some non-edge exists"), witnessing that
   concepts of the surjection logic are not closed under disjoint copies;
4. k+1 copies of the k-clique against k copies of the (k+1)-clique for
   k in {2, 3}, separated by a number restriction on incoming edges but
   agreeing on the same corpus of uniform sentences.

The corpus lives in data/u1_corpus.json; a probe with expectation
``agree`` passes when both structures give the same truth value, so the
corpus can only ever falsify the indistinguishability claims, not prove
them.
"""

from __future__ import annotations

import json
from functools import partial
from importlib import resources
from typing import Optional

from . import dl, dlr
from .errors import LogicError
from .semantics import evaluate
from .structures import Structure, disjoint_union, make_structure
from .syntax import Formula, Node, parse_formula, print_formula

RELATION = "R"  # the binary relation all generated structures interpret


def gen_clique(k: int) -> Structure:
    """The k-clique: total binary relation minus the reflexive loops."""
    if k < 2:
        raise ValueError("cliques need at least 2 elements")
    domain = [f"v{i}" for i in range(k)]
    edges = {(a, b) for a in domain for b in domain if a != b}
    return make_structure(domain, {RELATION: 2}, {RELATION: edges})


def gen_directed_cycle(n: int) -> Structure:
    """The directed n-cycle; n = 1 degenerates to a single loop."""
    if n < 1:
        raise ValueError("cycles need at least 1 element")
    domain = [f"v{i}" for i in range(n)]
    edges = {(domain[i], domain[(i + 1) % n]) for i in range(n)}
    return make_structure(domain, {RELATION: 2}, {RELATION: edges})


def disjoint_copies(s: Structure, copies: int) -> Structure:
    if copies < 1:
        raise ValueError("need at least one copy")
    out = s
    for _ in range(copies - 1):
        out = disjoint_union(out, s)
    return out


def one_point_loop() -> Structure:
    """A single element satisfying A and connected to itself by R."""
    return make_structure(["u"], {RELATION: 2, "A": 1},
                          {RELATION: {("u", "u")}, "A": {("u",)}})


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

class Probe(Node):
    """A test of a structure pair, named by its ``label``: ``outcome`` reads
    one structure as text, and ``expected`` is the pair's outcomes joined
    by '/', or None when the pair must agree."""

    __slots__ = ("label", "outcome", "expected")


def _sentence(f: Formula, expected: Optional[str] = None) -> Probe:
    """A probe of the truth value of the sentence f, 'True' or 'False'."""
    return Probe(print_formula(f), lambda s: str(evaluate(s, {}, f)), expected)


def _nonempty(c: dl.Concept, s: Structure) -> str:
    return "nonempty" if dl.concept_extension(s, c) else "empty"


def _coverage(c: dlr.DlrConcept, s: Structure) -> str:
    ext = dlr.dlr_concept_extension(s, c)
    if ext == s.domain_set():
        return "full"
    return "empty" if not ext else "partial"


class Experiment(Node):
    """An experiment, by ``name``: the ``provenance`` of its claim, the pair
    of ``structures`` it compares, and the tuple of ``probes`` run on them."""

    __slots__ = ("name", "provenance", "structures", "probes")


class ProbeResult(Node):
    """A probe's ``label``, its ``expected`` outcome ('agree' when the pair
    must agree), the ``actual`` outcomes joined by '/', and whether it
    ``passed``."""

    __slots__ = ("label", "expected", "actual", "passed")


class ExperimentResult(Node):
    """An experiment's ``name`` and the tuple of its ``probes``' results."""

    __slots__ = ("name", "probes")

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.probes)


def agreement_corpus() -> list[Formula]:
    doc = json.loads(
        resources.files("unifrag").joinpath("data/u1_corpus.json").read_text())
    return [parse_formula(text) for text in doc["sentences"]]


def separation_experiments() -> list[Experiment]:
    corpus = tuple(_sentence(f) for f in agreement_corpus())

    edge_cover = parse_formula("E x. A y z. (R(y,z) -> (x = y | x = z))")
    triangle = parse_formula("E x y z. (R(x,y) & R(y,z) & R(z,x))")
    some_non_edge = parse_formula("E x y. ~R(x,y)")
    negated_role_witness = dl.parse_concept("~exists ~R.(A)")

    loop = one_point_loop()
    experiments = [
        Experiment(
            "clique-edge-cover",
            "an element on every edge separates the 2-clique "
            "from the 3-clique, though the two-pebble game cannot",
            (gen_clique(2), gen_clique(3)),
            (_sentence(edge_cover, "True/False"),),
        ),
        Experiment(
            "cycles-triangle",
            "four 3-cycles and three 4-cycles (equal cardinality) "
            "disagree on the triangle sentence but are expected to "
            "agree on every uniform one-dimensional sentence",
            (disjoint_copies(gen_directed_cycle(3), 4),
             disjoint_copies(gen_directed_cycle(4), 3)),
            (_sentence(triangle, "True/False"),) + corpus,
        ),
        Experiment(
            "prop2-disjoint-copies",
            "a reflexive point and its disjoint double: free role "
            "negation is not closed under disjoint copies",
            (loop, disjoint_union(loop, loop)),
            (_sentence(some_non_edge, "False/True"),
             Probe(dl.print_concept(negated_role_witness),
                   partial(_nonempty, negated_role_witness), "nonempty/empty")),
        ),
    ]
    for k in (2, 3):
        restriction = dlr.AtMost(k - 1, 2, dlr.AtomicRole(RELATION))
        experiments.append(Experiment(
            f"cliques-count-k{k}",
            f"{k + 1} copies of the {k}-clique against {k} copies "
            f"of the {k + 1}-clique: an in-degree restriction "
            f"separates them, uniform sentences are expected not to",
            (disjoint_copies(gen_clique(k), k + 1), disjoint_copies(gen_clique(k + 1), k)),
            (Probe(dlr.print_dlr_concept(restriction), partial(_coverage, restriction),
                   "full/empty"),) + corpus,
        ))
    return experiments


def _run_probe(probe: Probe, structures: tuple[Structure, Structure]) -> ProbeResult:
    left, right = (probe.outcome(s) for s in structures)
    actual = f"{left}/{right}"
    passed = left == right if probe.expected is None else actual == probe.expected
    return ProbeResult(probe.label, probe.expected or "agree", actual, passed)


def run_experiments(names: Optional[list[str]] = None) -> list[ExperimentResult]:
    catalogue = separation_experiments()
    if names:
        known = {e.name for e in catalogue}
        unknown = [n for n in names if n not in known]
        if unknown:
            raise LogicError(f"unknown experiment names: {', '.join(unknown)}; "
                             f"available: {', '.join(sorted(known))}")
        catalogue = [e for e in catalogue if e.name in set(names)]
    results = []
    for exp in catalogue:
        probe_results = tuple(_run_probe(p, exp.structures) for p in exp.probes)
        results.append(ExperimentResult(exp.name, probe_results))
    return results


def all_structures() -> dict[str, Structure]:
    """Every structure of the catalogue, keyed for the dump command."""
    out: dict[str, Structure] = {}
    for exp in separation_experiments():
        out[f"{exp.name}-left"] = exp.structures[0]
        out[f"{exp.name}-right"] = exp.structures[1]
    return out
