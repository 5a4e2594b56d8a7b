import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from helpers import (
    docs_to_bows,
    enumerate_collapsed_posterior,
    gibbs_marginals,
    model_from_beta,
    planted_two_topic_bows,
)
from newstm import _kernels, lda
from newstm.lda import (
    LdaHyperparams,
    _count_matrices,
    _expand_bows,
    _sample_topics_from_beta,
    audit_counts,
    infer_theta,
    load_lda,
    perplexity,
    posterior_assignment_samples,
    save_lda,
    top_words,
    train_lda,
)
from newstm.preprocess import BowDoc, Vocabulary


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        LdaHyperparams(k=1)
    with pytest.raises(ValueError):
        LdaHyperparams(k=2, alpha=0.0)
    with pytest.raises(ValueError):
        LdaHyperparams(k=2, eta=-0.1)
    with pytest.raises(ValueError):
        LdaHyperparams(k=2, iterations=10, burn_in=10)
    with pytest.raises(ValueError):
        LdaHyperparams(k=2, thin=0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        LdaHyperparams(k=2, seed=-1)


@pytest.mark.parametrize("prior", ["alpha", "eta"])
def test_hyperparams_reject_nan_priors(prior):
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=prior):
            LdaHyperparams(k=2, **{prior: value})


def test_alpha_defaults_to_fifty_over_k():
    assert LdaHyperparams(k=20).alpha == pytest.approx(2.5)
    assert LdaHyperparams(k=2, alpha=0.7).alpha == 0.7


def test_train_rejects_bad_corpus():
    hyper = LdaHyperparams(k=2, alpha=1.0, iterations=4, burn_in=1, thin=1)
    with pytest.raises(ValueError):
        train_lda([], 3, hyper)
    with pytest.raises(ValueError):
        train_lda([BowDoc("d", {5: 1})], 3, hyper)
    with pytest.raises(ValueError):
        train_lda([BowDoc("d", {0: 1})], 0, hyper)


def test_training_is_deterministic():
    bows, _, _ = planted_two_topic_bows(n_docs=20, doc_len=10, seed=4)
    hyper = LdaHyperparams(k=2, alpha=1.0, iterations=30, burn_in=5, thin=2, seed=13)
    a = train_lda(bows, 10, hyper)
    b = train_lda(bows, 10, hyper)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.theta, b.theta)
    assert all(np.array_equal(x, y) for x, y in zip(a.assignments, b.assignments))


def test_count_invariants_hold_at_every_sweep_boundary():
    bows, _, _ = planted_two_topic_bows(n_docs=8, doc_len=6, seed=1)
    for iterations in (1, 2, 3, 5):
        hyper = LdaHyperparams(
            k=3, alpha=0.5, iterations=iterations, burn_in=0, thin=1, seed=2
        )
        model = train_lda(bows, 10, hyper)
        audit_counts(model)  # raises on any inconsistency


def test_estimates_are_row_stochastic():
    bows, _, _ = planted_two_topic_bows(n_docs=12, doc_len=8, seed=9)
    model = train_lda(
        bows, 10, LdaHyperparams(k=4, alpha=0.5, iterations=20, burn_in=4, thin=3, seed=0)
    )
    assert np.allclose(model.beta.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)


def test_single_token_doc_symmetry():
    # One doc holding one token, k=2, alpha=eta=1: both topics are exchangeable,
    # so the posterior-mean theta is (0.5, 0.5).
    hyper = LdaHyperparams(
        k=2, alpha=1.0, eta=1.0, iterations=1300, burn_in=100, thin=1, seed=5
    )
    model = train_lda([BowDoc("d0", {0: 1})], 1, hyper)
    assert model.theta[0] == pytest.approx([0.5, 0.5], abs=0.05)


def test_gibbs_pair_marginal_matches_enumeration():
    # Two 3-token one-word docs: exact posterior by enumerating all 2^6 states.
    docs = [[0, 0, 0], [1, 1, 1]]
    alpha = eta = 1.0
    _, states, weights = enumerate_collapsed_posterior(docs, 2, 2, alpha, eta)
    exact_same = sum(w for z, w in zip(states, weights) if z[0] == z[1])

    hyper = LdaHyperparams(
        k=2, alpha=alpha, eta=eta, iterations=20000, burn_in=1000, thin=1, seed=3
    )
    samples, _, _ = posterior_assignment_samples(docs_to_bows(docs), 2, hyper)
    got_same = float((samples[:, 0] == samples[:, 1]).mean())
    assert got_same == pytest.approx(exact_same, abs=0.02)


def test_gibbs_marginals_match_enumeration_small_corpus():
    docs = [[0, 1], [2, 2], [0]]
    alpha, eta = 0.7, 0.4
    exact, _, _ = enumerate_collapsed_posterior(docs, 3, 2, alpha, eta)
    hyper = LdaHyperparams(
        k=2, alpha=alpha, eta=eta, iterations=20000, burn_in=1000, thin=1, seed=11
    )
    samples, _, _ = posterior_assignment_samples(docs_to_bows(docs), 3, hyper)
    got = gibbs_marginals(samples, 2)
    assert np.abs(got - exact).max() < 0.02


def test_planted_topics_recovered():
    bows, _, supports = planted_two_topic_bows(seed=21)
    hyper = LdaHyperparams(
        k=2, alpha=1.0, eta=0.01, iterations=300, burn_in=100, thin=10, seed=21
    )
    model = train_lda(bows, 10, hyper)
    tops = [
        {int(term) for term, _ in top_words(model, k, 5).terms} for k in range(2)
    ]
    assert tops in ([set(supports[0]), set(supports[1])], [set(supports[1]), set(supports[0])])


def _per_sweep_chain(bows, vocab_size, hyper, eta_kw=None, init_beta=None):
    """The sampling loop as it was before chain calls: one array-kernel call
    per sweep, estimates and z copies taken after each retained sweep."""
    k = hyper.k
    doc_ids, word_ids, _ = _expand_bows(bows, vocab_size)
    rng = np.random.default_rng(hyper.seed)
    if eta_kw is None:
        eta_kw = np.full((k, vocab_size), hyper.eta)
    eta_sum = eta_kw.sum(axis=1)
    if init_beta is None:
        z = rng.integers(0, k, word_ids.size, dtype=np.int64)
    else:
        z = _sample_topics_from_beta(init_beta, word_ids, rng)
    n_dk, n_kw, n_k = _count_matrices(doc_ids, word_ids, z, len(bows), k, vocab_size)
    doc_lengths = np.bincount(doc_ids, minlength=len(bows))
    alpha = float(hyper.alpha)
    probs = np.empty(k)
    beta_acc, theta_acc, z_samples = 0.0, 0.0, []
    for sweep in range(hyper.iterations):
        uniforms = rng.random(word_ids.size)
        _kernels._gibbs_sweep_py(
            doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, uniforms, probs
        )
        if sweep >= hyper.burn_in and (sweep - hyper.burn_in) % hyper.thin == 0:
            beta_acc = beta_acc + (n_kw + eta_kw) / (n_k + eta_sum)[:, None]
            theta_acc = theta_acc + (n_dk + alpha) / (doc_lengths + k * alpha)[:, None]
            z_samples.append(z.copy())
    n = len(z_samples)
    return z, n_dk, n_kw, n_k, beta_acc / n, theta_acc / n, np.stack(z_samples)


def _per_sweep_infer(model, doc, sweeps, seed):
    k = model.n_topics
    ids = sorted(doc.counts)
    word_ids = np.repeat(np.array(ids, dtype=np.int64), [doc.counts[i] for i in ids])
    n = word_ids.size
    rng = np.random.default_rng(seed)
    z = rng.integers(0, k, n, dtype=np.int64)
    m_k = np.bincount(z, minlength=k).astype(np.int64)
    alpha = float(model.hyper.alpha)
    probs = np.empty(k)
    acc = np.zeros(k)
    for _ in range(sweeps):
        _kernels._infer_sweep_py(word_ids, z, m_k, model.beta, alpha, rng.random(n), probs)
        acc += (m_k + alpha) / (n + k * alpha)
    return acc / sweeps


def test_corpus_without_tokens_gives_uniform_estimates():
    bows = [BowDoc(f"d{i}", {}) for i in range(3)]
    hyper = LdaHyperparams(k=4, iterations=9, burn_in=3, thin=2, seed=1)
    model = train_lda(bows, 6, hyper)
    assert np.allclose(model.beta, 1 / 6, rtol=0, atol=1e-15)
    assert np.allclose(model.theta, 1 / 4, rtol=0, atol=1e-15)
    assert (model.beta == model.beta[0, 0]).all() and (model.theta == model.theta[0, 0]).all()
    assert model.n_kw.sum() == 0 and [a.size for a in model.assignments] == [0, 0, 0]
    samples, doc_ids, word_ids = posterior_assignment_samples(bows, 6, hyper)
    assert samples.shape == (3, 0) and doc_ids.size == word_ids.size == 0


@pytest.mark.parametrize(
    "iterations, burn_in, thin, empty_doc, dtm",
    [
        (7, 0, 2, False, False),  # burn_in=0
        (6, 2, 1, False, False),  # thin=1
        (11, 2, 3, False, False),  # thin=3, sweeps 9 and 10 are a non-retained tail
        (1, 0, 1, False, False),  # iterations=1
        (9, 3, 2, True, False),  # a document with no tokens
        (8, 2, 3, False, True),  # DTM-style eta_kw and init_beta
    ],
)
def test_chain_calls_match_per_sweep_loop(iterations, burn_in, thin, empty_doc, dtm, monkeypatch):
    """train_lda, posterior_assignment_samples and infer_theta are bitwise
    equal to the per-sweep loops over the uncompiled array kernels, on the
    training backend in use and on the list fallback, in uniform blocks of
    any number of sweeps."""
    bows, _, _ = planted_two_topic_bows(n_docs=8, doc_len=6, seed=5)
    if empty_doc:
        bows.insert(3, BowDoc("empty", {}))
    k = 3 if dtm else 2
    hyper = LdaHyperparams(
        k=k, alpha=0.8, eta=0.05, iterations=iterations, burn_in=burn_in, thin=thin, seed=17
    )
    eta_kw = init_beta = None
    if dtm:
        init_beta = np.random.default_rng(2).dirichlet(np.ones(10), size=k)
        eta_kw = 0.05 + 10 * init_beta
    z, n_dk, n_kw, n_k, beta, theta, samples = _per_sweep_chain(
        bows, 10, hyper, eta_kw, init_beta
    )

    n_tokens = sum(sum(bow.counts.values()) for bow in bows)
    for chain in (_kernels.c_gibbs_chain, None):
        for block_values in (lda._BLOCK_VALUES, 2 * n_tokens):
            monkeypatch.setattr(_kernels, "c_gibbs_chain", chain)
            monkeypatch.setattr(lda, "_BLOCK_VALUES", block_values)
            model = train_lda(bows, 10, hyper, eta_kw=eta_kw, init_beta=init_beta)
            assert np.array_equal(np.concatenate(model.assignments), z)
            for got, want in ((model.n_dk, n_dk), (model.n_kw, n_kw), (model.n_k, n_k)):
                assert np.array_equal(got, want)
            assert np.array_equal(model.beta, beta)
            assert np.array_equal(model.theta, theta)
            if not dtm:
                got_samples, _, _ = posterior_assignment_samples(bows, 10, hyper)
                assert np.array_equal(got_samples, samples)

    for doc in (bows[0], BowDoc("repeats", {7: 3, 1: 2, 4: 1})):
        for sweeps in (1, 7):
            want = _per_sweep_infer(model, doc, sweeps, seed=sweeps)
            assert np.array_equal(infer_theta(model, doc, sweeps=sweeps, seed=sweeps), want)


def test_trained_lda_log_line_names_the_backend(caplog):
    with caplog.at_level(logging.INFO, logger="newstm.lda"):
        train_lda([BowDoc("d", {0: 2, 1: 1})], 2, LdaHyperparams(k=2, iterations=2, burn_in=0))
    assert f"iterations=2 backend={_kernels.BACKEND}" in caplog.text


def _planted_model(seed=33):
    bows, labels, supports = planted_two_topic_bows(seed=seed)
    hyper = LdaHyperparams(
        k=2, alpha=1.0, eta=0.01, iterations=300, burn_in=100, thin=10, seed=seed
    )
    return train_lda(bows, 10, hyper), bows, labels, supports


def test_infer_theta_empty_doc_is_uniform():
    model, _, _, _ = _planted_model()
    assert np.array_equal(infer_theta(model, BowDoc("new", {})), np.full(2, 0.5))


@pytest.mark.parametrize("sweeps", [0, -5])
@pytest.mark.parametrize("counts", [{}, {0: 2}], ids=["empty", "nonempty"])
def test_infer_theta_rejects_fewer_than_one_sweep(counts, sweeps):
    model, _, _, _ = _planted_model()
    with pytest.raises(ValueError, match=f"sweeps must be >= 1, got {sweeps}"):
        infer_theta(model, BowDoc("new", counts), sweeps=sweeps)


@pytest.mark.parametrize("counts", [{}, {0: 2}], ids=["empty", "nonempty"])
def test_infer_theta_rejects_a_negative_seed(counts):
    model, _, _, _ = _planted_model()
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        infer_theta(model, BowDoc("new", counts), seed=-1)


@pytest.mark.parametrize("seed", [0, 4, 11])
@pytest.mark.parametrize("sweeps", [1, 200])
@pytest.mark.parametrize("length", [1, 7, 12])
def test_infer_theta_equals_one_draw_per_sweep(length, sweeps, seed):
    """The one (sweeps, n) block of uniforms gives the bytes of one random(n)
    draw per sweep."""
    rng = np.random.default_rng(40 + length)
    model = model_from_beta(rng.dirichlet(np.full(10, 0.5), size=4))
    doc = docs_to_bows([rng.integers(0, 10, length).tolist()])[0]
    assert doc.total() == length
    want = _per_sweep_infer(model, doc, sweeps, seed)
    assert np.array_equal(infer_theta(model, doc, sweeps=sweeps, seed=seed), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.4], ids=["nan", "inf", "negative"])
def test_infer_theta_rejects_bad_beta_in_the_documents_columns(bad):
    beta = np.full((2, 4), 0.25)
    beta[1, 2] = bad
    with pytest.raises(ValueError, match="for word 2$"):
        infer_theta(model_from_beta(beta), BowDoc("new", {0: 1, 2: 3}), sweeps=5)


def test_infer_theta_draws_uniformly_for_a_zero_column():
    beta = np.random.default_rng(3).dirichlet(np.ones(4), size=2)
    beta[:, 2] = 0.0
    model = model_from_beta(beta)
    doc = BowDoc("new", {0: 1, 2: 3})
    want = _per_sweep_infer(model, doc, 20, seed=4)
    assert np.array_equal(infer_theta(model, doc, sweeps=20, seed=4), want)


def test_infer_theta_recovers_planted_topic():
    model, bows, labels, supports = _planted_model()
    # The topic index matching planted label 0 is whichever one puts more
    # mass on that support.
    mass0 = model.beta[:, supports[0]].sum(axis=1)
    label0_topic = int(np.argmax(mass0))
    theta = infer_theta(model, bows[0], sweeps=200, seed=9)
    assert int(np.argmax(theta)) == label0_topic
    assert theta.sum() == pytest.approx(1.0, abs=1e-9)

    one_word = BowDoc("w", {supports[0][0]: 1})
    theta_one = infer_theta(model, one_word, sweeps=200, seed=9)
    assert theta_one[label0_topic] > theta_one[1 - label0_topic]


def test_top_words_full_distribution():
    model, _, _, _ = _planted_model()
    summary = top_words(model, 0, 10)
    probs = [p for _, p in summary.terms]
    assert probs == sorted(probs, reverse=True)
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_top_words_tie_break_on_uniform_row():
    model = model_from_beta(np.full((2, 6), 1.0 / 6))
    summary = top_words(model, 0, 4)
    assert [term for term, _ in summary.terms] == ["0", "1", "2", "3"]


def test_top_words_with_vocabulary_tokens():
    model = model_from_beta([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
    vocab = Vocabulary(
        token_to_id={"apa": 0, "björn": 1, "val": 2},
        id_to_token=("apa", "björn", "val"),
        document_frequency=(1, 1, 1),
        no_below=1,
        no_above=1.0,
        n_docs=1,
    )
    summary = top_words(model, 0, 2, vocab)
    assert [term for term, _ in summary.terms] == ["apa", "björn"]


def test_top_words_range_checks():
    model, _, _, _ = _planted_model()
    with pytest.raises(ValueError):
        top_words(model, 5, 3)
    with pytest.raises(ValueError):
        top_words(model, 0, 11)


def test_perplexity_uniform_model_equals_vocab_size():
    v = 7
    model = model_from_beta(np.full((2, v), 1.0 / v), theta=np.full((2, 2), 0.5))
    corpus = [BowDoc("a", {0: 3, 2: 1}), BowDoc("b", {4: 2})]
    assert perplexity(model, corpus) == pytest.approx(v, rel=1e-12)


def test_perplexity_single_topic_is_unigram_cross_entropy():
    beta = np.array([[0.5, 0.3, 0.2]])
    model = model_from_beta(beta, theta=np.ones((1, 1)))
    corpus = [BowDoc("a", {0: 2, 1: 1, 2: 1})]
    want = math.exp(-(2 * math.log(0.5) + math.log(0.3) + math.log(0.2)) / 4)
    assert perplexity(model, corpus) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "counts, message",
    [
        ({-1: 2}, "word id out of range for vocab_size=3"),
        ({3: 1}, "word id out of range for vocab_size=3"),
        ({0: 2, 1: -1}, "counts must be >= 1"),
        ({0: 0}, "counts must be >= 1"),
    ],
    ids=["negative-id", "id-at-vocab-size", "negative-count", "zero-count"],
)
def test_perplexity_rejects_bad_word_ids_and_counts(counts, message):
    model = model_from_beta(np.array([[0.5, 0.3, 0.2]]), theta=np.ones((2, 1)))
    corpus = [BowDoc("good", {0: 1}), BowDoc("bad", counts)]
    with pytest.raises(ValueError, match=f"^document 'bad': {message}$"):
        perplexity(model, corpus)
    # _expand_bows, which feeds training and inference, rejects the same input
    # with the same words.
    with pytest.raises(ValueError, match=f"^document 'bad': {message}$"):
        _expand_bows(corpus, 3)


def test_trained_model_beats_unigram_baseline():
    model, bows, _, _ = _planted_model()
    # Unigram baseline: one topic holding the corpus-wide word frequencies.
    totals = np.zeros(10)
    for bow in bows:
        for w, c in bow.counts.items():
            totals[w] += c
    unigram = model_from_beta(
        (totals / totals.sum())[None, :], theta=np.ones((len(bows), 1))
    )
    assert perplexity(model, bows) < perplexity(unigram, bows)


def test_perplexity_invariant_under_topic_permutation():
    model, bows, _, _ = _planted_model()
    permuted = model_from_beta(
        model.beta[::-1].copy(),
        theta=model.theta[:, ::-1].copy(),
        doc_lengths=model.doc_lengths,
    )
    assert perplexity(permuted, bows) == pytest.approx(perplexity(model, bows), rel=1e-10)


def test_save_load_roundtrip_is_lossless(tmp_path):
    model, bows, _, _ = _planted_model()
    path = tmp_path / "model.json"
    save_lda(model, path)
    loaded = load_lda(path)
    assert np.array_equal(loaded.beta, model.beta)
    assert np.array_equal(loaded.theta, model.theta)
    assert np.array_equal(loaded.doc_lengths, model.doc_lengths)
    assert np.array_equal(loaded.n_kw, model.n_kw)
    assert loaded.hyper == model.hyper
    audit_counts(loaded)
    # Byte-stable second generation proves full float precision survived.
    path2 = tmp_path / "model2.json"
    save_lda(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_without_assignments_supports_diagnostics(tmp_path):
    model, bows, _, _ = _planted_model()
    path = tmp_path / "slim.json"
    save_lda(dataclasses.replace(model, assignments=None), path)
    loaded = load_lda(path)
    assert loaded.assignments is None
    assert not {"z", "word_ids"} & {a["name"] for a in json.loads(path.read_bytes().partition(b"\n")[0])["arrays"]}
    top_words(loaded, 0, 5)
    perplexity(loaded, bows)
    with pytest.raises(ValueError):
        audit_counts(loaded)
