import gc
import json
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifrag import (StructureError, VocabularyError, disjoint_union, dl, dlr, evaluate,
                     make_structure, parse_formula, parse_structure, satisfaction_set,
                     structure_to_doc)
from unifrag.structures import structure_from_doc

from strategies import VOCAB, gen_structure

ONE_POINT_LOOP = '{"domain": ["a"], "arities": {"R": 2}, "relations": {"R": [["a", "a"]]}}'


def test_parse_one_point_loop():
    s = parse_structure(ONE_POINT_LOOP)
    assert s.domain == ("a",)
    assert s.relations["R"] == {("a", "a")}


def test_parse_two_disjoint_loops():
    s = parse_structure(
        '{"domain": ["a", "b"], "arities": {"R": 2},'
        ' "relations": {"R": [["a", "a"], ["b", "b"]]}}')
    assert s.relations["R"] == {("a", "a"), ("b", "b")}


def test_component_outside_domain_rejected():
    doc = {"domain": ["a"], "arities": {"R": 2}, "relations": {"R": [["a", "c"]]}}
    with pytest.raises(StructureError, match="not a domain element"):
        structure_from_doc(doc)


@pytest.mark.parametrize("component", [["a"], {"a": "a"}])
def test_non_string_component_rejected(component):
    doc = {"domain": ["a"], "arities": {"R": 2}, "relations": {"R": [["a", component]]}}
    with pytest.raises(StructureError, match="must be strings"):
        parse_structure(json.dumps(doc))


def test_arity_mismatch_rejected():
    doc = {"domain": ["a"], "arities": {"R": 2}, "relations": {"R": [["a"]]}}
    with pytest.raises(StructureError, match="arity"):
        structure_from_doc(doc)


def test_empty_domain_rejected():
    with pytest.raises(StructureError, match="nonempty"):
        structure_from_doc({"domain": [], "arities": {}, "relations": {}})


def test_duplicate_domain_rejected():
    with pytest.raises(StructureError, match="duplicate"):
        structure_from_doc({"domain": ["a", "a"], "arities": {}, "relations": {}})


def test_undeclared_relation_rejected():
    doc = {"domain": ["a"], "arities": {}, "relations": {"R": [["a"]]}}
    with pytest.raises(StructureError, match="not declared"):
        structure_from_doc(doc)


def test_malformed_document_rejected():
    with pytest.raises(StructureError, match="malformed"):
        parse_structure("{not json")


def test_missing_relations_default_empty():
    s = parse_structure('{"domain": ["a"], "arities": {"R": 2}}')
    assert s.relations["R"] == frozenset()


def test_doc_round_trip():
    s = parse_structure(ONE_POINT_LOOP)
    assert structure_from_doc(json.loads(json.dumps(structure_to_doc(s)))) == s


def test_disjoint_union_of_loops():
    loop = parse_structure(ONE_POINT_LOOP)
    d = disjoint_union(loop, loop)
    assert d.size == 2
    assert d.relations["R"] == {("a#1", "a#1"), ("a#2", "a#2")}


def test_disjoint_union_vocabulary_mismatch():
    s1 = make_structure(["a"], {"R": 2})
    s2 = make_structure(["a"], {"S": 2})
    with pytest.raises(VocabularyError):
        disjoint_union(s1, s2)


@settings(max_examples=100)
@given(st.integers(0, 10**9))
def test_disjoint_union_cardinalities(seed):
    rng = random.Random(seed)
    s1 = gen_structure(rng, VOCAB, max_size=3)
    s2 = gen_structure(rng, VOCAB, max_size=3)
    d = disjoint_union(s1, s2)
    assert d.size == s1.size + s2.size
    for name in VOCAB.symbols:
        assert len(d.relations[name]) == len(s1.relations[name]) + len(s2.relations[name])


class _CountingStore(dict):
    """A structure's store of derived sets that counts what goes into it."""

    def __init__(self, items):
        super().__init__(items)
        self.stores = Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


def _evaluate_everything(s):
    evaluate(s, {}, parse_formula("A x. (P(x) -> E y. (R(x,y) & ~R(y,x)))"))
    satisfaction_set(s, parse_formula("A y. (R(x,y) -> Q(y))"))
    dl.concept_extension(s, dl.parse_concept("(P & exists (eps & ~perm[2,1]R).(~Q))"))
    dlr.dlr_concept_extension(s, dlr.parse_dlr_concept("(P & exists eps . Q)"))


def test_each_derived_set_is_built_once():
    s = make_structure(["a", "b", "c"], {"R": 2, "P": 1, "Q": 1},
                       {"R": {("a", "b"), ("b", "c"), ("c", "a")}, "P": {("a",)}})
    store = _CountingStore(s._indexes)
    object.__setattr__(s, "_indexes", store)
    for _ in range(3):
        _evaluate_everything(s)
        assert s.domain_set() == frozenset(s.domain) and s.domain_set() is s.domain_set()
        assert s.eps() == {(d, d) for d in s.domain} and s.eps() is s.eps()
        assert s.members("Q") == frozenset() and s.members("Q") is s.members("Q")
    assert set(store.stores) == {"eps", ("P",), ("Q",), ("P", 0), ("R", 1)}
    assert set(store.stores.values()) == {1}  # the domain set is built with the structure


def test_no_structure_outlives_its_derived_sets():
    # with the collector off, a structure and its sets go when the last
    # reference does: they hold no reference cycle
    s = make_structure(["a", "b"], {"R": 2, "P": 1, "Q": 1}, {"R": {("a", "b")}, "P": {("b",)}})
    _evaluate_everything(s)
    refs = [weakref.ref(x) for x in (s, s.domain_set(), s.eps(), s.members("P"))]
    gc.disable()
    try:
        del s
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()
