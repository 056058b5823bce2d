import random
from collections import Counter

import pytest

from unifrag import evaluate, fragments, semantics
from unifrag.fragments import FragmentId, check_fragment
from unifrag.lab import (agreement_corpus, all_structures,
                         disjoint_copies, gen_clique, gen_directed_cycle,
                         one_point_loop,
                         run_experiments, separation_experiments)

from strategies import counting_formula, gen_structure
from unifrag.syntax import Vocabulary
from unifrag.translate import fu1_to_dl


def test_clique_shapes():
    k2 = gen_clique(2)
    assert k2.size == 2 and len(k2.relations["R"]) == 2
    k3 = gen_clique(3)
    assert len(k3.relations["R"]) == 6
    for k in (2, 3, 4, 5):
        s = gen_clique(k)
        assert len(s.relations["R"]) == k * (k - 1)
        for v in s.domain:
            assert sum(1 for (_, b) in s.relations["R"] if b == v) == k - 1


def test_clique_needs_two_elements():
    with pytest.raises(ValueError):
        gen_clique(1)


def test_cycle_shapes():
    assert len(gen_directed_cycle(3).relations["R"]) == 3
    loop = gen_directed_cycle(1)
    assert loop.size == 1 and len(loop.relations["R"]) == 1
    for n in range(1, 7):
        assert len(gen_directed_cycle(n).relations["R"]) == n
    with pytest.raises(ValueError):
        gen_directed_cycle(0)


def test_counting_formula_against_direct_counting():
    rng = random.Random(2)
    vocab = Vocabulary({"P": 1})
    for _ in range(120):
        s = gen_structure(rng, vocab, max_size=4)
        size = len(s.relations["P"])
        for cmp in (">=", "<=", "="):
            k = rng.randint(0, 4)
            f = counting_formula("P", cmp, k)
            want = {">=": size >= k, "<=": size <= k, "=": size == k}[cmp]
            assert evaluate(s, {}, f) == want, (cmp, k, size)


def test_counting_formula_is_u1_without_counting_quantifiers():
    from unifrag.syntax import CountExists, walk
    for cmp in (">=", "<=", "="):
        for k in range(0, 4):
            f = counting_formula("P", cmp, k)
            assert check_fragment(f, FragmentId.U1).verdict, (cmp, k)
            assert not any(isinstance(g, CountExists) for g in walk(f))


def test_counting_formula_at_least_one_is_plain_exists():
    from unifrag.syntax import Atom, ExistsBlock
    assert counting_formula("P", ">=", 1) == ExistsBlock(("x1",), Atom("P", ("x1",)))


def test_catalogue_cardinality_parity():
    for exp in separation_experiments():
        if exp.name in ("cycles-triangle", "cliques-count-k2", "cliques-count-k3"):
            s1, s2 = exp.structures
            assert s1.size == s2.size


def test_cycle_union_sizes():
    assert disjoint_copies(gen_directed_cycle(3), 4).size == 12
    assert disjoint_copies(gen_directed_cycle(4), 3).size == 12
    assert disjoint_copies(gen_clique(2), 3).size == 6
    assert disjoint_copies(gen_clique(3), 2).size == 6


def test_corpus_is_uniform_one_dimensional():
    corpus = agreement_corpus()
    assert len(corpus) == 20
    for f in corpus:
        assert check_fragment(f, FragmentId.U1).verdict


def test_all_experiments_pass():
    results = run_experiments()
    assert len(results) == 5
    for r in results:
        assert r.passed, (r.name, [p for p in r.probes if not p.passed])


def test_run_experiments_by_name():
    (res,) = run_experiments(["prop2-disjoint-copies"])
    assert res.name == "prop2-disjoint-copies"
    assert res.passed


def test_unknown_experiment_name():
    from unifrag import LogicError
    with pytest.raises(LogicError, match="unknown experiment"):
        run_experiments(["no-such-thing"])


def test_dump_catalogue_is_complete():
    structures = all_structures()
    assert len(structures) == 10
    assert "prop2-disjoint-copies-left" in structures
    assert structures["prop2-disjoint-copies-left"].size == 1


def test_one_point_loop_shape():
    s = one_point_loop()
    assert s.relations["R"] == {("u", "u")}
    assert s.relations["A"] == {("u",)}


def test_each_corpus_sentence_is_compiled_and_walked_once(monkeypatch):
    # the pattern of the lab-scaled benchmark: the corpus interleaved over
    # structures of one vocabulary, each sentence checked for FU1 and its
    # translation checking it again
    corpus = agreement_corpus()
    structures = [s for s in all_structures().values()
                  if s.vocabulary == Vocabulary({"R": 2})]
    assert len(structures) == 8
    builds, walks = Counter(), Counter()
    compile_formula, check_f = semantics.compile_formula, fragments._Checker.check_f

    def counted_compile(f, vocab):
        builds[id(f)] += 1
        return compile_formula(f, vocab)

    def counted_check(checker, f, path, shared=None):
        if path == ():
            walks[id(f)] += 1
        return check_f(checker, f, path, shared)

    monkeypatch.setattr(semantics, "compile_formula", counted_compile)
    monkeypatch.setattr(fragments._Checker, "check_f", counted_check)
    for module in (semantics, fragments):  # empty tables, whatever ran before
        monkeypatch.setattr(module, "_cache", [None] * 5 + [{}], raising=False)
    for _ in range(2):
        for s in structures:
            for f in corpus:
                evaluate(s, {}, f)
                check_fragment(f, FragmentId.FU1)
    translated = [fu1_to_dl(f) for f in corpus if check_fragment(f, FragmentId.FU1).verdict]
    assert len(translated) == 16
    assert builds == {id(f): 1 for f in corpus}
    assert walks == {id(f): 1 for f in corpus}


def test_the_corpus_over_every_lab_structure_compiles_each_pair_once(monkeypatch):
    # 20 sentences over the structures of two vocabularies: 40 term-vocabulary
    # pairs, which one table holds at once, whatever the order of the passes
    corpus, structures = agreement_corpus(), list(all_structures().values())
    assert len(corpus) == 20 and len({s.vocabulary for s in structures}) == 2
    builds = Counter()
    compile_formula = semantics.compile_formula

    def counted_compile(f, vocab):
        builds[id(f), vocab] += 1
        return compile_formula(f, vocab)

    monkeypatch.setattr(semantics, "compile_formula", counted_compile)
    monkeypatch.setattr(semantics, "_cache", [None] * 5 + [{}])
    for s in structures:
        for f in corpus:
            evaluate(s, {}, f)
    assert sum(builds.values()) == 40 and len(builds) == 40
