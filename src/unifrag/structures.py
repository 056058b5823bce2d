"""Finite relational structures and their JSON document format.

A structure document is a JSON object::

    {"domain": ["a", "b"],
     "arities": {"R": 2},
     "relations": {"R": [["a", "a"], ["b", "b"]]}}

Relations declared in ``arities`` but absent from ``relations`` are empty.
Structures are immutable; the sets derived from one are cached on it, outside its fields.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from .errors import StructureError, VocabularyError
from .syntax import Node, Vocabulary

# Separator appended by disjoint_union when tagging element copies.
COPY_SEP = "#"


class Structure(Node):
    """Finite interpretation: ``domain``, a tuple of distinct element names
    in order; ``relations``, a dict from each symbol of the vocabulary to
    the frozenset of its tuples; and ``vocabulary``, a Vocabulary.  It is
    not hashable, since ``relations`` is a dict."""

    __slots__ = ("domain", "relations", "vocabulary", "_indexes")

    def __init__(self, domain: Iterable[str], relations: Mapping, vocabulary: Vocabulary):
        domain = tuple(domain)
        if not domain:
            raise StructureError("domain must be nonempty")
        elems = frozenset(domain)
        if len(elems) != len(domain):
            raise StructureError("domain contains duplicate elements")
        rels: dict[str, frozenset[tuple[str, ...]]] = {}
        for name, tuples in relations.items():
            if name not in vocabulary:
                raise StructureError(f"relation {name!r} is not declared in the vocabulary")
            arity = vocabulary.arity(name)
            frozen = frozenset({tuple(t): None for t in tuples})  # from a dict, sized once
            for t in frozen:
                if len(t) != arity:
                    raise StructureError(
                        f"tuple {t!r} of relation {name!r} has length {len(t)}, "
                        f"declared arity is {arity}")
                for component in t:
                    if component not in elems:
                        raise StructureError(
                            f"tuple component {component!r} of relation {name!r} "
                            f"is not a domain element")
            rels[name] = frozen
        for name in vocabulary.symbols:
            rels.setdefault(name, frozenset())
        self._set_fields(domain, rels, vocabulary)
        object.__setattr__(self, "_indexes", {"domain": elems})  # the derived sets

    def domain_set(self) -> frozenset[str]:
        """The domain as a frozenset, built with the structure."""
        return self._indexes["domain"]

    def eps(self) -> frozenset[tuple[str, str]]:
        """The identity relation, the pairs (d, d)."""
        got = self._indexes.get("eps")
        if got is None:
            got = self._indexes["eps"] = frozenset((d, d) for d in self.domain)
        return got

    def members(self, name: str) -> frozenset[str]:
        """The elements of the unary relation ``name``."""
        got = self._indexes.get((name,))
        if got is None:
            got = self._indexes[name,] = frozenset(t[0] for t in self.relations[name])
        return got

    def index(self, name: str, pos: int) -> dict[tuple[str, ...], tuple[str, ...]]:
        """The components at ``pos`` of ``name``'s tuples, keyed by the others."""
        index = self._indexes.get((name, pos))
        if index is None:
            lists: dict = {}
            for t in sorted(self.relations[name]):  # the same order in every run
                lists.setdefault(t[:pos] + t[pos + 1:], []).append(t[pos])
            index = self._indexes[name, pos] = {k: tuple(v) for k, v in lists.items()}
        return index

    @property
    def size(self) -> int:
        return len(self.domain)


def parse_structure(text: str) -> Structure:
    """Parse and fully validate a structure document."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # the latter: nesting too deep
        raise StructureError(f"malformed structure document: {e}") from None
    return structure_from_doc(doc)


def structure_from_doc(doc: Any) -> Structure:
    if not isinstance(doc, dict):
        raise StructureError("structure document must be a JSON object")
    missing = {"domain", "arities"} - doc.keys()
    if missing:
        raise StructureError(f"structure document lacks required keys: {sorted(missing)}")
    domain = doc["domain"]
    arities = doc["arities"]
    relations = doc.get("relations", {})
    if not isinstance(domain, list) or not all(isinstance(e, str) for e in domain):
        raise StructureError("'domain' must be a list of strings")
    if not isinstance(arities, dict):
        raise StructureError("'arities' must be an object mapping names to integers")
    if not isinstance(relations, dict):
        raise StructureError("'relations' must be an object mapping names to tuple lists")
    try:
        vocab = Vocabulary(arities)
    except VocabularyError as e:
        raise StructureError(str(e)) from None
    rels = {}
    for name, tuples in relations.items():
        if not isinstance(tuples, list) or not all(isinstance(t, list) for t in tuples):
            raise StructureError(f"relation {name!r} must be a list of tuples (lists)")
        if not all(isinstance(c, str) for t in tuples for c in t):
            raise StructureError(f"tuple components of relation {name!r} must be strings")
        rels[name] = [tuple(t) for t in tuples]
    return Structure(tuple(domain), rels, vocab)


def structure_to_doc(s: Structure) -> dict:
    """Inverse of structure_from_doc, with deterministically sorted tuples."""
    return {
        "domain": list(s.domain),
        "arities": dict(sorted(s.vocabulary.symbols.items())),
        "relations": {name: sorted(list(t) for t in tuples)
                      for name, tuples in sorted(s.relations.items())},
    }


def dump_structure(s: Structure) -> str:
    return json.dumps(structure_to_doc(s), indent=2, sort_keys=True)


def make_structure(domain: Iterable[str], arities: Mapping[str, int],
                   relations: Mapping[str, Iterable[tuple[str, ...]]] | None = None) -> Structure:
    """Convenience constructor used throughout tests and generators."""
    return Structure(tuple(domain), dict(relations or {}), Vocabulary(arities))


def disjoint_union(s1: Structure, s2: Structure) -> Structure:
    """Tagged disjoint union; elements are suffixed with '#1' / '#2'.

    Both structures must share the same vocabulary.
    """
    if s1.vocabulary.symbols != s2.vocabulary.symbols:
        raise VocabularyError("disjoint_union requires identical vocabularies")

    def tag(e: str, i: int) -> str:
        return f"{e}{COPY_SEP}{i}"

    domain = tuple(tag(e, 1) for e in s1.domain) + tuple(tag(e, 2) for e in s2.domain)
    relations = {
        name: frozenset(tuple(tag(c, 1) for c in t) for t in s1.relations[name])
        | frozenset(tuple(tag(c, 2) for c in t) for t in s2.relations[name])
        for name in s1.vocabulary.symbols
    }
    return Structure(domain, relations, s1.vocabulary)
