import math

import numpy as np
import pytest

from helpers import model_from_beta
from newstm.evaluate import (
    LN2,
    intertopic_map,
    js_divergence,
    read_intertopic_csv,
    topic_overlap,
    umass_coherence,
    write_intertopic_csv,
)
from newstm.preprocess import BowDoc


def _beta_with_top(order, v=6):
    """One topic whose descending-probability order starts with `order`."""
    row = np.full(v, 1e-6)
    for rank, w in enumerate(order):
        row[w] = 0.5 / (rank + 1)
    return (row / row.sum())[None, :]


def test_umass_matches_hand_computation():
    # Three docs: a and b co-occur twice, a and c once, b and c twice.
    corpus = [
        BowDoc("d0", {0: 1, 1: 2}),
        BowDoc("d1", {0: 1, 1: 1, 2: 1}),
        BowDoc("d2", {1: 1, 2: 3}),
    ]
    model = model_from_beta(_beta_with_top([0, 1, 2]))
    report = umass_coherence(model, corpus, top_n=3)
    # D(a)=2, D(b)=3, D(c)=2, D(a,b)=2, D(a,c)=1, D(b,c)=2; pairs (b|a), (c|a), (c|b):
    want = math.log((2 + 1) / 2) + math.log((1 + 1) / 2) + math.log((2 + 1) / 3)
    assert report.per_topic[0] == pytest.approx(want, abs=1e-9)
    assert report.mean == pytest.approx(want, abs=1e-9)
    assert report.skipped_pairs == 0


def test_umass_pair_terms():
    # Both words in the same 10 docs: the single pair term is log(11/10).
    corpus = [BowDoc(f"d{i}", {0: 1, 1: 1}) for i in range(10)]
    model = model_from_beta(_beta_with_top([0, 1]))
    report = umass_coherence(model, corpus, top_n=2)
    assert report.per_topic[0] == pytest.approx(math.log(11 / 10), abs=1e-12)

    # Never co-occurring with D(w_j) = 10: pair term log(1/10).
    corpus = [BowDoc(f"a{i}", {0: 1}) for i in range(10)]
    corpus += [BowDoc(f"b{i}", {1: 1}) for i in range(3)]
    report = umass_coherence(model, corpus, top_n=2)
    assert report.per_topic[0] == pytest.approx(math.log(1 / 10), abs=1e-12)


def test_umass_skips_pairs_with_zero_document_frequency():
    # Word 1 never occurs in the supplied corpus, so the (w2|w1) pair and the
    # (w1|w0) pair's reverse still count: only pairs conditioning on word 1 skip.
    corpus = [BowDoc("d0", {0: 1, 2: 1}), BowDoc("d1", {0: 1})]
    model = model_from_beta(_beta_with_top([0, 1, 2]))
    report = umass_coherence(model, corpus, top_n=3)
    assert report.skipped_pairs == 1  # pair (i=w2, j=w1)
    # (w1|w0): D(w1,w0)=0, D(w0)=2; (w2|w0): D(w2,w0)=1, D(w0)=2.
    want = math.log((0 + 1) / 2) + math.log((1 + 1) / 2)
    assert report.per_topic[0] == pytest.approx(want, abs=1e-12)


def test_umass_validation():
    corpus = [BowDoc("d0", {0: 1})]
    model = model_from_beta(_beta_with_top([0, 1]))
    with pytest.raises(ValueError):
        umass_coherence(model, corpus, top_n=1)
    with pytest.raises(ValueError):
        umass_coherence(model, corpus, top_n=7)
    with pytest.raises(ValueError):
        umass_coherence(model, [], top_n=2)


def test_umass_permutation_invariance():
    corpus = [
        BowDoc("d0", {0: 1, 1: 1}),
        BowDoc("d1", {2: 1, 3: 1}),
        BowDoc("d2", {0: 1, 3: 1}),
    ]
    beta = np.vstack([_beta_with_top([0, 1]), _beta_with_top([2, 3])])
    report = umass_coherence(model_from_beta(beta), corpus, top_n=2)
    flipped = umass_coherence(model_from_beta(beta[::-1].copy()), corpus, top_n=2)
    assert flipped.per_topic == report.per_topic[::-1]
    assert flipped.mean == pytest.approx(report.mean, abs=1e-12)


def test_overlap_identical_rows():
    beta = np.tile(_beta_with_top([0, 1, 2]), (3, 1))
    matrix = topic_overlap(model_from_beta(beta), top_n=3)
    assert np.array_equal(matrix, np.ones((3, 3)))


def test_overlap_disjoint_and_partial():
    beta = np.vstack(
        [
            _beta_with_top([0, 1, 2, 3], v=12),
            _beta_with_top([4, 5, 6, 7], v=12),
            _beta_with_top([0, 1, 8, 9], v=12),
        ]
    )
    matrix = topic_overlap(model_from_beta(beta), top_n=4)
    assert matrix[0, 1] == 0.0
    assert matrix[0, 2] == pytest.approx(2 / 6)  # half-overlapping top-4 lists
    assert np.array_equal(matrix, matrix.T)
    assert np.array_equal(np.diag(matrix), np.ones(3))
    assert ((matrix >= 0) & (matrix <= 1)).all()


def test_js_divergence_properties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        d_pq = js_divergence(p, q)
        assert d_pq == pytest.approx(js_divergence(q, p), abs=1e-12)
        assert 0 <= d_pq <= LN2 + 1e-12
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


def test_js_divergence_disjoint_supports_is_ln2():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert js_divergence(p, q) == pytest.approx(LN2, abs=1e-12)


def test_two_point_embedding_reproduces_ln2():
    model = model_from_beta(
        np.array([[1.0, 0.0], [0.0, 1.0]]), theta=np.full((1, 2), 0.5)
    )
    topic_map = intertopic_map(model)
    assert topic_map.distances[0, 1] == pytest.approx(LN2, abs=1e-12)
    got = float(np.linalg.norm(topic_map.coordinates[0] - topic_map.coordinates[1]))
    assert got == pytest.approx(LN2, abs=1e-6)


def test_three_point_embedding_is_exact():
    # Three disjoint-support topics: every pairwise divergence equals ln 2, an
    # equilateral triangle that 2-D embeds exactly.
    model = model_from_beta(np.eye(3), theta=np.full((1, 3), 1 / 3))
    topic_map = intertopic_map(model)
    for i in range(3):
        for j in range(i + 1, 3):
            want = topic_map.distances[i, j]
            assert want == pytest.approx(LN2, abs=1e-12)
            got = float(np.linalg.norm(topic_map.coordinates[i] - topic_map.coordinates[j]))
            assert got == pytest.approx(want, abs=1e-6)


def test_degenerate_map_reports_origin():
    beta = np.tile(_beta_with_top([0, 1]), (3, 1))
    topic_map = intertopic_map(model_from_beta(beta))
    assert topic_map.degenerate
    assert np.array_equal(topic_map.coordinates, np.zeros((3, 2)))


def test_intertopic_requires_two_topics():
    with pytest.raises(ValueError):
        intertopic_map(model_from_beta(np.array([[1.0]])))


def test_prevalence_is_token_weighted():
    beta = np.vstack([_beta_with_top([0]), _beta_with_top([1])])
    theta = np.array([[1.0, 0.0], [0.0, 1.0]])
    doc_lengths = np.array([30, 10])
    topic_map = intertopic_map(model_from_beta(beta, theta=theta, doc_lengths=doc_lengths))
    assert topic_map.prevalence == pytest.approx([0.75, 0.25])
    assert topic_map.prevalence.sum() == pytest.approx(1.0, abs=1e-9)


def test_intertopic_csv_roundtrip(tmp_path):
    model = model_from_beta(np.eye(3), theta=np.full((2, 3), 1 / 3))
    topic_map = intertopic_map(model)
    path = tmp_path / "map.csv"
    write_intertopic_csv(topic_map, path)
    loaded = read_intertopic_csv(path)
    assert np.array_equal(loaded.coordinates, topic_map.coordinates)
    assert np.array_equal(loaded.prevalence, topic_map.prevalence)
    assert loaded.distances is None
