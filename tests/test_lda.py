import dataclasses
import itertools
import json
import logging
import math
import tracemalloc
import weakref

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
from reference_kernels import _gibbs_sweep_py, _infer_sweep_py
from newstm.lda import (
    LdaHyperparams,
    _count_matrices,
    _expand_bows,
    _sample_topics_from_beta,
    infer_theta,
    load_lda,
    perplexity,
    posterior_assignment_samples,
    save_lda,
    top_words,
    train_lda,
)
from newstm.modelfile import BlockFile, write_model
from newstm.preprocess import BowDoc, Bows, Vocabulary


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


@pytest.mark.parametrize(
    "field, value, fault",
    [
        ("k", 2.0, "field 'k' must be an integer, got 2.0"),
        ("k", np.int64(2), "field 'k' must be an integer, got np.int64(2)"),
        ("seed", True, "field 'seed' must be an integer, got true"),
        ("iterations", "10", "field 'iterations' must be an integer, got \"10\""),
        ("eta", True, "field 'eta' must be a finite number, got true"),
    ],
    ids=["float-k", "numpy-k", "bool-seed", "string-iterations", "bool-eta"],
)
def test_hyperparams_take_each_field_of_its_exact_type(field, value, fault):
    with pytest.raises(ValueError) as info:
        LdaHyperparams(**{"k": 2, field: value})
    assert str(info.value) == fault


def test_alpha_defaults_to_fifty_over_k():
    assert LdaHyperparams(k=20).alpha == pytest.approx(2.5)
    assert LdaHyperparams(k=2, alpha=0.7).alpha == 0.7


def test_train_rejects_bad_corpus():
    hyper = LdaHyperparams(k=2, alpha=1.0, iterations=4, burn_in=1, thin=1)
    with pytest.raises(ValueError):
        train_lda(Bows.from_docs([], 3), hyper)
    with pytest.raises(ValueError):
        train_lda(Bows.from_docs([BowDoc("d", {5: 1})], 3), hyper)
    with pytest.raises(ValueError):
        train_lda(Bows.from_docs([BowDoc("d", {0: 1})], 0), hyper)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_train_rejects_a_non_finite_or_non_positive_eta_kw(value):
    eta_kw = np.full((2, 3), 0.1)
    eta_kw[0, 1] = value
    hyper = LdaHyperparams(k=2, iterations=4, burn_in=1, thin=1)
    with pytest.raises(ValueError, match="^eta_kw "):
        train_lda(Bows.from_docs([BowDoc("d", {0: 1, 1: 2})], 3), hyper, eta_kw=eta_kw)


@pytest.mark.parametrize(
    "init_beta, message",
    [
        (np.full((3, 3), 0.5), r"init_beta must have shape \(2, 3\), got \(3, 3\)"),
        (np.full((2, 2), 0.5), r"init_beta must have shape \(2, 3\), got \(2, 2\)"),
        (np.full((2, 3), np.nan), "init_beta has a NaN or infinite entry"),
        ([[0.5, np.inf, 0.5], [0.5, 0.5, 0.5]], "init_beta has a NaN or infinite entry"),
        ([[0.5, -0.1, 0.5], [0.5, 0.5, 0.5]], "init_beta entries must be >= 0"),
        ([[0.5, 0.0, 0.5], [0.5, 0.0, 0.5]], "init_beta has no mass for word 1"),
    ],
    ids=["too-many-topics", "too-few-words", "all-nan", "inf", "negative", "zero-column"],
)
def test_train_rejects_a_bad_init_beta(init_beta, message):
    hyper = LdaHyperparams(k=2, iterations=4, burn_in=1, thin=1)
    bows = Bows.from_docs([BowDoc("d", {0: 1, 1: 2})], 3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        train_lda(bows, hyper, init_beta=np.array(init_beta))


def test_train_accepts_an_init_beta_with_no_mass_on_unused_words():
    hyper = LdaHyperparams(k=2, iterations=4, burn_in=1, thin=1)
    init_beta = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    model = train_lda(Bows.from_docs([BowDoc("d", {0: 1, 1: 2})], 3), hyper, init_beta=init_beta)
    assert np.isfinite(model.beta).all()


def test_training_is_deterministic():
    bows, _, _ = planted_two_topic_bows(n_docs=20, doc_len=10, seed=4)
    hyper = LdaHyperparams(k=2, alpha=1.0, iterations=30, burn_in=5, thin=2, seed=13)
    a = train_lda(Bows.from_docs(bows, 10), hyper)
    b = train_lda(Bows.from_docs(bows, 10), hyper)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.theta, b.theta)
    samples_a, _, _ = posterior_assignment_samples(Bows.from_docs(bows, 10), hyper)
    samples_b, _, _ = posterior_assignment_samples(Bows.from_docs(bows, 10), hyper)
    assert np.array_equal(samples_a, samples_b)


def test_estimates_are_row_stochastic():
    bows, _, _ = planted_two_topic_bows(n_docs=12, doc_len=8, seed=9)
    model = train_lda(
        Bows.from_docs(bows, 10),
        LdaHyperparams(k=4, alpha=0.5, iterations=20, burn_in=4, thin=3, seed=0),
    )
    assert np.allclose(model.beta.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)


def test_single_token_doc_symmetry():
    # One doc holding one token, k=2, alpha=eta=1: both topics are exchangeable,
    # so the posterior-mean theta is (0.5, 0.5).
    hyper = LdaHyperparams(
        k=2, alpha=1.0, eta=1.0, iterations=1300, burn_in=100, thin=1, seed=5
    )
    model = train_lda(Bows.from_docs([BowDoc("d0", {0: 1})], 1), hyper)
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
    samples, _, _ = posterior_assignment_samples(Bows.from_docs(docs_to_bows(docs), 2), hyper)
    got_same = float((samples[:, 0] == samples[:, 1]).mean())
    assert got_same == pytest.approx(exact_same, abs=0.02)


def test_gibbs_marginals_match_enumeration_small_corpus():
    docs = [[0, 1], [2, 2], [0]]
    alpha, eta = 0.7, 0.4
    exact, _, _ = enumerate_collapsed_posterior(docs, 3, 2, alpha, eta)
    hyper = LdaHyperparams(
        k=2, alpha=alpha, eta=eta, iterations=20000, burn_in=1000, thin=1, seed=11
    )
    samples, _, _ = posterior_assignment_samples(Bows.from_docs(docs_to_bows(docs), 3), hyper)
    got = gibbs_marginals(samples, 2)
    assert np.abs(got - exact).max() < 0.02


# A DTM slice's prior as the chain takes it, (base, scale, offset), at K = 3:
# its own matrix (eta_kw, 1.0, 0.0) and beta_{t-1} chained with kappa * V and
# eta. The prior is far from uniform: the symmetric prior of its mean moves
# the exact marginals by up to 0.50. Over chain seeds 0-9 the largest error
# was 0.0087 for both forms.
_BETA_PREV = np.array(
    [[0.50, 0.10, 0.05, 0.02], [0.02, 0.08, 0.40, 0.10], [0.15, 0.15, 0.05, 0.60]]
)


@pytest.mark.parametrize(
    "prior",
    [(_BETA_PREV * 5.0 + 0.1, 1.0, 0.0), (_BETA_PREV, 5.0, 0.1)],
    ids=["eta_kw", "chained"],
)
def test_chain_with_a_prior_matrix_matches_enumeration_at_k3(prior):
    """7 tokens at K = 3: all 3^7 assignments enumerated."""
    docs = [[0, 0, 1], [1, 2], [2, 3]]
    base, scale, offset = prior
    alpha = 0.8
    exact, _, _ = enumerate_collapsed_posterior(docs, 4, 3, alpha, base * scale + offset)
    hyper = LdaHyperparams(k=3, alpha=alpha, iterations=20000, burn_in=1000, thin=1, seed=0)
    bows = Bows.from_docs(docs_to_bows(docs), 4)
    samples, _, _ = lda._run_chain([bows], hyper, prior, None, collect_z=True)
    assert np.abs(gibbs_marginals(samples, 3) - exact).max() < 0.02


def test_planted_topics_recovered():
    bows, _, supports = planted_two_topic_bows(seed=21)
    hyper = LdaHyperparams(
        k=2, alpha=1.0, eta=0.01, iterations=300, burn_in=100, thin=10, seed=21
    )
    model = train_lda(Bows.from_docs(bows, 10), hyper)
    tops = [
        {int(term) for term, _ in top_words(model, k, 5).terms} for k in range(2)
    ]
    assert tops in ([set(supports[0]), set(supports[1])], [set(supports[1]), set(supports[0])])


def _per_sweep_chain(bows, vocab_size, hyper, eta_kw=None, init_beta=None):
    """The sampling loop as it was before chain calls: one array-kernel call
    per sweep, estimates and z copies taken after each retained sweep."""
    k = hyper.k
    doc_ids, word_ids, _ = _expand_bows(Bows.from_docs(bows, vocab_size))
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
        _gibbs_sweep_py(
            doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, uniforms, probs
        )
        if sweep >= hyper.burn_in and (sweep - hyper.burn_in) % hyper.thin == 0:
            beta_acc = beta_acc + (n_kw + eta_kw) / (n_k + eta_sum)[:, None]
            theta_acc = theta_acc + (n_dk + alpha) / (doc_lengths + k * alpha)[:, None]
            z_samples.append(z.copy())
    n = len(z_samples)
    return z, n_dk, n_kw, n_k, beta_acc / n, theta_acc / n, np.stack(z_samples)


@pytest.mark.parametrize("list_fallback", [False, True], ids=["training_backend", "list_fallback"])
def test_chain_stops_after_its_last_retained_sweep(list_fallback, monkeypatch):
    """A chain runs sweeps 0..last retained and no more, in both modes; the
    sweeps after the last retained one could change no estimate."""
    if list_fallback:
        monkeypatch.setattr(_kernels, "c_gibbs_chain", None)
    sweeps = []
    blocks = lda._uniform_blocks

    def counted(rng, n_sweeps, n):
        sweeps.append(n_sweeps)
        return blocks(rng, n_sweeps, n)

    monkeypatch.setattr(lda, "_uniform_blocks", counted)
    bows, _, _ = planted_two_topic_bows(n_docs=8, doc_len=6, seed=5)
    models = {}
    for schedule, want in (((11, 2, 3), 9), ((9, 2, 3), 9), ((7, 0, 2), 7), ((1, 0, 1), 1)):
        iterations, burn_in, thin = schedule
        hyper = LdaHyperparams(k=2, iterations=iterations, burn_in=burn_in, thin=thin, seed=17)
        for sample in (train_lda, posterior_assignment_samples):
            sweeps.clear()
            models[schedule, sample] = sample(Bows.from_docs(bows, 10), hyper)
            assert sum(sweeps) == want, (schedule, sample.__name__)
    longer, shorter = models[(11, 2, 3), train_lda], models[(9, 2, 3), train_lda]
    assert longer.beta.tobytes() == shorter.beta.tobytes()
    assert longer.theta.tobytes() == shorter.theta.tobytes()


@pytest.mark.parametrize("list_fallback", [False, True], ids=["training_backend", "list_fallback"])
def test_train_lda_lets_go_of_bags_it_alone_holds_before_the_first_sweep(
    list_fallback, monkeypatch
):
    """Bags passed to train_lda with no other reference are freed once the
    chain has built their tokens, before the first uniforms are drawn; a
    caller's own reference keeps them. Both give the same model."""
    if list_fallback:
        monkeypatch.setattr(_kernels, "c_gibbs_chain", None)
    docs, _, _ = planted_two_topic_bows(n_docs=8, doc_len=6, seed=5)
    hyper = LdaHyperparams(k=2, iterations=3, burn_in=1, thin=1, seed=17)
    refs, alive = [], []
    blocks = lda._uniform_blocks

    def watched(rng, n_sweeps, n):
        alive.append(refs[-1]() is not None)
        return blocks(rng, n_sweeps, n)

    def made():
        bows = Bows.from_docs(docs, 10)
        refs.append(weakref.ref(bows))
        return bows

    monkeypatch.setattr(lda, "_uniform_blocks", watched)
    handed = train_lda(made(), hyper)
    assert alive == [False, False]
    alive.clear()
    kept = made()
    held = train_lda(kept, hyper)
    assert alive == [True, True]
    assert handed.beta.tobytes() == held.beta.tobytes()
    assert handed.theta.tobytes() == held.theta.tobytes()


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
        _infer_sweep_py(word_ids, z, m_k, model.beta, alpha, rng.random(n), probs)
        acc += (m_k + alpha) / (n + k * alpha)
    return acc / sweeps


@pytest.mark.parametrize("list_fallback", [False, True], ids=["training_backend", "list_fallback"])
def test_corpus_without_tokens_gives_uniform_estimates(list_fallback, monkeypatch):
    if list_fallback:
        monkeypatch.setattr(_kernels, "c_gibbs_chain", None)
    bows = [BowDoc(f"d{i}", {}) for i in range(3)]
    hyper = LdaHyperparams(k=4, iterations=9, burn_in=3, thin=2, seed=1)
    model = train_lda(Bows.from_docs(bows, 6), hyper)
    assert np.allclose(model.beta, 1 / 6, rtol=0, atol=1e-15)
    assert np.allclose(model.theta, 1 / 4, rtol=0, atol=1e-15)
    assert (model.beta == model.beta[0, 0]).all() and (model.theta == model.theta[0, 0]).all()
    assert model.doc_lengths.tolist() == [0, 0, 0]
    samples, doc_ids, word_ids = posterior_assignment_samples(Bows.from_docs(bows, 6), hyper)
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
    *_, beta, theta, samples = _per_sweep_chain(bows, 10, hyper, eta_kw, init_beta)

    n_tokens = sum(sum(bow.counts.values()) for bow in bows)
    for chain in (_kernels.c_gibbs_chain, None):
        for block_values in (lda._BLOCK_VALUES, 2 * n_tokens):
            monkeypatch.setattr(_kernels, "c_gibbs_chain", chain)
            monkeypatch.setattr(lda, "_BLOCK_VALUES", block_values)
            model = train_lda(Bows.from_docs(bows, 10), hyper, eta_kw=eta_kw, init_beta=init_beta)
            assert np.array_equal(model.beta, beta)
            assert np.array_equal(model.theta, theta)
            if not dtm:
                got_samples, _, _ = posterior_assignment_samples(Bows.from_docs(bows, 10), hyper)
                assert np.array_equal(got_samples, samples)
            # 25 sweeps of a 6-token document span two blocks of 2 * n_tokens values
            for doc in (bows[0], BowDoc("repeats", {7: 3, 1: 2, 4: 1})):
                for sweeps in (1, 7, 25):
                    want = _per_sweep_infer(model, doc, sweeps, seed=sweeps)
                    got = infer_theta(model, doc, sweeps=sweeps, seed=sweeps)
                    assert np.array_equal(got, want)


def test_trained_lda_log_line_names_the_backend(caplog):
    bows = Bows.from_docs([BowDoc("d", {0: 2, 1: 1})], 2)
    with caplog.at_level(logging.INFO, logger="newstm.lda"):
        train_lda(bows, LdaHyperparams(k=2, iterations=2, burn_in=0))
    assert f"iterations=2 backend={_kernels.BACKEND}" in caplog.text


def _planted_model(seed=33):
    bows, labels, supports = planted_two_topic_bows(seed=seed)
    hyper = LdaHyperparams(
        k=2, alpha=1.0, eta=0.01, iterations=300, burn_in=100, thin=10, seed=seed
    )
    return train_lda(Bows.from_docs(bows, 10), hyper), bows, labels, supports


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


def _exact_infer_mean(beta, words, alpha):
    """The exact posterior mean of (m_k + alpha) / (n + K alpha), over every
    assignment z of `words`, each weighted by prod_i beta[z_i, w_i] *
    prod_k Gamma(m_k + alpha), where m_k counts the tokens on topic k."""
    k, n = beta.shape[0], len(words)
    acc, total = np.zeros(k), 0.0
    for z in itertools.product(range(k), repeat=n):
        m = np.bincount(z, minlength=k)
        weight = math.prod(beta[t, w] for t, w in zip(z, words))
        weight *= math.prod(math.gamma(c + alpha) for c in m)
        acc += weight * (m + alpha) / (n + k * alpha)
        total += weight
    return acc / total


# The bound was set from draws 0-5 of beta: the worst deviation was 0.0031
# at alpha = 1 (seeds 0-2) and 0.0070 at alpha = 0.5 (seeds 0-5).
@pytest.mark.parametrize("draw", [0, 2])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_infer_theta_matches_the_exact_posterior_mean(alpha, draw):
    """One 6-token document at K = 3: all 3^6 assignments enumerated."""
    beta = np.random.default_rng(draw).dirichlet(np.full(4, 0.5), size=3)
    words = [0, 0, 1, 2, 3, 3]
    model = model_from_beta(beta)
    model = dataclasses.replace(model, hyper=dataclasses.replace(model.hyper, alpha=alpha))
    got = infer_theta(model, BowDoc("new", {0: 2, 1: 1, 2: 1, 3: 2}), sweeps=20000, seed=0)
    assert np.abs(got - _exact_infer_mean(beta, words, alpha)).max() < 0.01


def test_top_words_full_distribution():
    model, _, _, _ = _planted_model()
    summary = top_words(model, 0, 10)
    probs = [p for _, p in summary.terms]
    assert probs == sorted(probs, reverse=True)
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_top_order_breaks_ties_by_ascending_word_id():
    rng = np.random.default_rng(0)
    for _ in range(50):
        row = rng.choice([0.0, -0.0, 0.1, 0.25, 0.5], size=40)
        want = np.lexsort((np.arange(row.size), -row))[:10]
        assert lda._top_order(row, 10).tolist() == want.tolist()


def test_top_words_tie_break_on_uniform_row():
    model = model_from_beta(np.full((2, 6), 1.0 / 6))
    summary = top_words(model, 0, 4)
    assert [term for term, _ in summary.terms] == ["0", "1", "2", "3"]


def test_top_words_with_vocabulary_tokens():
    model = model_from_beta([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
    vocab = Vocabulary(("apa", "björn", "val"))
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
    # Bows.from_docs, which feeds training and inference, rejects the same
    # input with the same words.
    with pytest.raises(ValueError, match=f"^document 'bad': {message}$"):
        Bows.from_docs(corpus, 3)


def test_expand_bows_lays_hand_built_descending_keys_out_ascending():
    bows = [BowDoc("a", {2: 1, 0: 2}), BowDoc("b", {4: 3}), BowDoc("c", {9: 1, 7: 2, 8: 1})]
    doc_ids, word_ids, lengths = _expand_bows(Bows.from_docs(bows, 10))
    assert word_ids.tolist() == [0, 0, 2, 4, 4, 4, 7, 7, 8, 9]
    assert doc_ids.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]
    assert lengths.tolist() == [3, 3, 4]


def test_expand_bows_gives_an_empty_document_length_zero():
    bows = [BowDoc("a", {1: 2}), BowDoc("empty", {}), BowDoc("c", {0: 1, 3: 1})]
    doc_ids, word_ids, lengths = _expand_bows(Bows.from_docs(bows, 4))
    assert lengths.tolist() == [2, 0, 2]
    assert doc_ids.tolist() == [0, 0, 2, 2]
    assert word_ids.tolist() == [1, 1, 0, 3]


@pytest.mark.parametrize(
    "first, second, message",
    [
        ({1: 0}, {7: 1}, "counts must be >= 1"),
        ({7: 1}, {1: 0}, "word id out of range for vocab_size=3"),
        ({0: 1, 5: 0}, {1: 0}, "word id out of range for vocab_size=3"),
    ],
    ids=["count-then-id", "id-then-count", "id-beats-count-in-one-document"],
)
def test_expand_bows_names_the_first_bad_document(first, second, message):
    bows = [BowDoc("good", {0: 1}), BowDoc("empty", {}), BowDoc("first", first), BowDoc("second", second)]
    with pytest.raises(ValueError, match=f"^document 'first': {message}$"):
        Bows.from_docs(bows, 3)


def test_symmetric_prior_row_sum_is_the_full_matrix_row_sum_bitwise():
    """Summing one V-long row of eta gives the bits of
    np.full((k, V), eta).sum(axis=1), the row sums _run_chain takes of the
    symmetric prior; both sum in the same order."""
    sizes = [*range(1, 1025), 14_949, 16_012, 20_000]
    sizes += [2**e + d for e in range(10, 17) for d in (-1, 0, 1)]
    for eta in (0.01, 0.05, 0.1, 1 / 3):
        for v in sizes:
            rows = np.full((3, v), eta).sum(axis=1)
            assert (rows == np.full(v, eta).sum()).all(), (eta, v)


def test_prior_row_sums_in_row_blocks_are_the_full_matrix_row_sums_bitwise(monkeypatch):
    """The row sums that _run_chain takes of a chained prior, from blocks of
    whole rows, have the bits of the whole matrix's .sum(axis=1), for a
    random non-constant prior at the V sizes above, in blocks of many rows,
    of two rows and a last partial block, and of one row."""
    sizes = [*range(1, 1025), 14_949, 16_012, 20_000]
    sizes += [2**e + d for e in range(10, 17) for d in (-1, 0, 1)]
    rng = np.random.default_rng(12)
    for v in sizes:
        base = rng.dirichlet(np.ones(v), size=5) if v > 1 else np.ones((5, 1))
        scale, offset = 0.5 * v, 0.01
        full = np.multiply(base, scale)
        full += offset
        want = full.sum(axis=1)
        for block_values in (lda._BLOCK_VALUES, 2 * v + 1, 1):
            monkeypatch.setattr(lda, "_BLOCK_VALUES", block_values)
            assert lda._prior_row_sums(base, scale, offset).tobytes() == want.tobytes(), v


@pytest.mark.parametrize("block_values", [1, 65_536], ids=["row_blocks", "one_block"])
def test_prior_check_reports_a_non_finite_entry_before_a_non_positive_one(
    block_values, monkeypatch
):
    """Over the whole prior, as a checked matrix would: a zero in row 0 and
    an infinite entry in row 2 give the NaN-or-infinite message, in one
    block or in blocks of one row."""
    monkeypatch.setattr(lda, "_BLOCK_VALUES", block_values)
    base = np.full((3, 4), 0.25)
    base[0, 1] = 0.0
    base[2, 3] = np.inf
    with pytest.raises(ValueError, match="^eta_kw has a NaN or infinite entry$"):
        lda._prior_row_sums(base, 1.0, 0.0)
    base[2, 3] = 0.25
    with pytest.raises(ValueError, match="^eta_kw entries must be > 0$"):
        lda._prior_row_sums(base, 1.0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_perplexity_rejects_a_negative_or_non_finite_theta(bad):
    model = model_from_beta(np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]))
    corpus = [BowDoc("a", {0: 1}), BowDoc("b", {1: 2, 2: 1})]
    theta = np.array([[0.0, 1.0], [bad, 2.0]])
    message = r"^theta has a negative, NaN or infinite entry in row 1$"
    with pytest.raises(ValueError, match=message):
        perplexity(model, corpus, theta=theta)
    theta[1] = [0.25, 0.75]  # a zero entry is a valid proportion
    assert perplexity(model, corpus, theta=theta) == pytest.approx(
        math.exp(-(math.log(0.2) + 2 * math.log(0.3) + math.log(0.425)) / 4), rel=1e-12
    )


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


@pytest.mark.parametrize("list_fallback", [False, True], ids=["training_backend", "list_fallback"])
def test_default_prior_equals_the_constant_eta_kw_bitwise(list_fallback, monkeypatch):
    """train_lda's symmetric prior is np.full((k, V), eta) as eta_kw: the two
    give the same β and θ bytes, in the word columns no token uses too."""
    if list_fallback:
        monkeypatch.setattr(_kernels, "c_gibbs_chain", None)
    bows, _, _ = planted_two_topic_bows(n_docs=8, doc_len=6, seed=5)
    vocab_size = 25  # words 10..24 are in no document
    assert max(w for bow in bows for w in bow.counts) < 10
    for eta in (0.01, 1 / 3):
        hyper = LdaHyperparams(k=3, alpha=0.8, eta=eta, iterations=12, burn_in=3, thin=2, seed=9)
        default = train_lda(Bows.from_docs(bows, vocab_size), hyper)
        eta_kw = np.full((hyper.k, vocab_size), eta)
        constant = train_lda(Bows.from_docs(bows, vocab_size), hyper, eta_kw=eta_kw)
        assert default.beta.tobytes() == constant.beta.tobytes(), eta
        assert default.theta.tobytes() == constant.theta.tobytes(), eta


@pytest.mark.parametrize("iterations", [1, 3])
def test_static_chain_holds_beta_and_at_most_two_k_by_v_arrays_more(iterations):
    """Traced allocations (numpy's buffers included) during train_lda with the
    symmetric prior, on a corpus that uses every word, peak at β plus two
    K x V-sized arrays (the chain's prior columns and counts), one
    _BLOCK_VALUES block of temporaries and a few int64s per token: no K x V
    prior and no β accumulator beside β."""
    k, v = 20, 20_000
    words = np.random.default_rng(5).permutation(v).reshape(100, 200)  # each word once
    bows = Bows.from_docs(
        [BowDoc(f"d{d}", {int(w): 1 for w in row}) for d, row in enumerate(words)], v
    )
    hyper = LdaHyperparams(k=k, iterations=iterations, burn_in=0, thin=1, seed=3)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        model = train_lda(bows, hyper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # doc ids, word ids, column ids, z and the used columns, plus the D x K
    # counts and θ, which fit in one more int64 per token here
    per_token = 6 * 8 * v
    assert peak - before <= model.beta.nbytes + 2 * k * v * 8 + lda._BLOCK_VALUES * 8 + per_token


@pytest.mark.parametrize("iterations", [1, 3])
def test_symmetric_prior_takes_no_array_in_the_static_chain(iterations):
    """As above, with one K x V-sized array fewer: the chain holds β, its
    K x V counts, one _BLOCK_VALUES block of temporaries and a few int64s
    per token. The symmetric prior is a stride-0 view of eta, not a K x V
    matrix of it."""
    k, v = 20, 20_000
    words = np.random.default_rng(5).permutation(v).reshape(100, 200)  # each word once
    bows = Bows.from_docs(
        [BowDoc(f"d{d}", {int(w): 1 for w in row}) for d, row in enumerate(words)], v
    )
    hyper = LdaHyperparams(k=k, iterations=iterations, burn_in=0, thin=1, seed=3)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        model = train_lda(bows, hyper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_token = 6 * 8 * v  # as above
    assert peak - before <= model.beta.nbytes + k * v * 8 + lda._BLOCK_VALUES * 8 + per_token


def _one_shot_topics_from_beta(beta, word_ids, rng):
    """The warm-start draw as one K x n array and one rng.random(n) call:
    the reference the blocked `_sample_topics_from_beta` must equal."""
    k = beta.shape[0]
    n = word_ids.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    cum = beta[:, word_ids]
    cum /= cum.sum(axis=0, keepdims=True)
    np.cumsum(cum, axis=0, out=cum)
    u = rng.random(n)
    z = (u[None, :] < cum).argmax(axis=0).astype(np.int64)
    z[u >= cum[-1, :]] = k - 1
    return z


class _PinnedStream:
    """A generator whose stream holds `pinned[i]` as token i's uniform: a
    value where a draw one ulp off would pick another topic. The values come
    after as many draws from a seeded PCG64, whose state `rng` keeps."""

    def __init__(self, seed, pinned):
        self.rng = np.random.default_rng(seed)
        self.pinned = pinned
        self.drawn = 0

    def random(self, size):
        self.rng.random(size)
        self.drawn += size
        return self.pinned[self.drawn - size : self.drawn].copy()


def _blocks(k):
    return lda._BLOCK_VALUES // k


def _cumulative(columns):
    """The reference's cumulative sums of each column, normalised."""
    cum = columns / columns.sum(axis=0, keepdims=True)
    return np.cumsum(cum, axis=0, out=cum)


@pytest.mark.parametrize(
    "k, n",
    [(k, 3 * _blocks(k) + 7) for k in (2, 20, 50)]
    + [(k, 3 * _blocks(k) + 1) for k in (2, 20, 50)]  # a last block of one column
    + [(20, 0), (20, 1), (20, _blocks(20)), (20, _blocks(20) + 1)],
)
def test_blocked_warm_start_draw_is_bitwise_the_one_shot_draw(k, n):
    """Every token's uniform sits on one of its cumulative sums, or just
    below 1, so a weight or a sum one ulp off would move a draw."""
    rng = np.random.default_rng(k * 1_000 + n)
    v = 64
    beta = rng.exponential(size=(k, v))
    beta[:, :16] *= 1e-300  # columns near the smallest normal double
    beta[:, 16:32] = 0.0  # columns with a single nonzero entry
    beta[rng.integers(0, k, 16), np.arange(16, 32)] = rng.exponential(size=16)
    word_ids = rng.integers(0, v, n)
    cum = _cumulative(beta[:, word_ids])
    pinned = cum[rng.integers(0, k, n), np.arange(n)]
    near_one = np.arange(n) % 13 == 5  # where a sum that ends below 1 takes the guard
    pinned[near_one] = np.nextafter(1.0, 0.0)
    stream, stream_ref = _PinnedStream(7, pinned), _PinnedStream(7, pinned)
    z = _sample_topics_from_beta(beta, word_ids, stream)
    z_ref = _one_shot_topics_from_beta(beta, word_ids, stream_ref)
    assert z.dtype == z_ref.dtype == np.int64
    assert z.tobytes() == z_ref.tobytes()
    assert stream.drawn == stream_ref.drawn == n
    assert stream.rng.bit_generator.state == stream_ref.rng.bit_generator.state
    if n > 1_000:  # the guard fired
        assert (near_one & (cum[-1] < 1.0)).any()


def test_warm_start_draw_holds_z_and_at_most_two_blocks_more():
    """Traced allocations of the warm-start draw at K = 20 over 200,000
    tokens: z, two blocks of floats and one block's mask, where one K x n
    gather with its mask (about 36 MB) was drawn before."""
    k, n = 20, 200_000
    rng = np.random.default_rng(11)
    beta = rng.random((k, 1_000))
    word_ids = rng.integers(0, 1_000, n)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        z = _sample_topics_from_beta(beta, word_ids, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= z.nbytes + 2 * 8 * lda._BLOCK_VALUES + lda._BLOCK_VALUES


def test_perplexity_invariant_under_topic_permutation():
    model, bows, _, _ = _planted_model()
    permuted = model_from_beta(
        model.beta[::-1].copy(),
        theta=model.theta[:, ::-1].copy(),
        doc_lengths=model.doc_lengths,
    )
    assert perplexity(permuted, bows) == pytest.approx(perplexity(model, bows), rel=1e-10)


def test_perplexity_takes_bows_as_well_as_bow_docs():
    model, bows, _, _ = _planted_model()
    assert perplexity(model, Bows.from_docs(bows, 10)) == perplexity(model, bows)
    with pytest.raises(ValueError, match="the bags of words have vocab_size=11, not 10"):
        perplexity(model, Bows.from_docs(bows, 11))


def test_save_load_roundtrip_is_lossless(tmp_path):
    model, bows, _, _ = _planted_model()
    path = tmp_path / "model.json"
    save_lda(model, path)
    loaded = load_lda(path)
    assert np.array_equal(loaded.beta, model.beta)
    assert np.array_equal(loaded.theta, model.theta)
    assert np.array_equal(loaded.doc_lengths, model.doc_lengths)
    assert loaded.hyper == model.hyper
    # Byte-stable second generation proves full float precision survived.
    path2 = tmp_path / "model2.json"
    save_lda(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def _array_names(path) -> list[str]:
    return [a["name"] for a in json.loads(path.read_bytes().partition(b"\n")[0])["arrays"]]


def test_saved_model_holds_exactly_its_estimates(tmp_path):
    model, bows, _, _ = _planted_model()
    for name, saved in (
        ("trained", model),
        ("hand-built", model_from_beta(model.beta, model.theta, model.doc_lengths)),
    ):
        path = tmp_path / f"{name}.newstm"
        save_lda(saved, path)
        assert _array_names(path) == ["beta", "theta", "doc_lengths"], name
        loaded = load_lda(path)
        assert loaded.assignments is loaded.n_dk is loaded.n_kw is loaded.n_k is None
        top_words(loaded, 0, 5)
        perplexity(loaded, bows)


@pytest.mark.parametrize(
    "doc_lengths",
    [np.array([[5], [-7]]), np.array([5, -7]), np.array([5.0, 7.0])],
    ids=["two-dimensional", "negative", "float"],
)
def test_load_lda_rejects_malformed_doc_lengths(tmp_path, doc_lengths):
    model = model_from_beta(np.array([[0.5, 0.5], [0.1, 0.9]]), theta=np.full((2, 2), 0.5))
    arrays = {"beta": model.beta, "theta": model.theta, "doc_lengths": doc_lengths}
    meta = {"vocab_size": model.vocab_size, "hyper": dataclasses.asdict(model.hyper)}
    path = tmp_path / "model.newstm"
    write_model(path, lda._FORMAT, meta, arrays)
    with pytest.raises(ValueError, match="doc_lengths must be a 1-D array of token counts"):
        load_lda(path)
    arrays["doc_lengths"] = np.array([5, 0])
    write_model(path, lda._FORMAT, meta, arrays)
    assert load_lda(path).doc_lengths.tolist() == [5, 0]


def test_model_file_with_assignments_still_loads(tmp_path, monkeypatch):
    """A file of the earlier layout, which also holds the final z and the
    token stream, loads to the same estimates and saves to the new bytes.
    Only the three arrays the model uses are read, and a header whose β
    has another topic count is rejected before any array is."""
    reads = []
    rows = BlockFile.rows

    def recorded(self, name, *args, **kwargs):
        reads.append(name)
        return rows(self, name, *args, **kwargs)

    monkeypatch.setattr(BlockFile, "rows", recorded)
    model, bows, _, _ = _planted_model()
    old = tmp_path / "old.newstm"
    _, word_ids, _ = _expand_bows(Bows.from_docs(bows, model.vocab_size))
    arrays = {
        "beta": model.beta,
        "theta": model.theta,
        "doc_lengths": model.doc_lengths,
        "z": np.random.default_rng(0).integers(0, model.n_topics, word_ids.size),
        "word_ids": word_ids,
    }
    meta = {"vocab_size": model.vocab_size, "hyper": dataclasses.asdict(model.hyper)}
    write_model(old, lda._FORMAT, meta, arrays)
    assert _array_names(old) == list(arrays)
    loaded = load_lda(old)
    assert reads == ["beta", "theta", "doc_lengths"]
    assert np.array_equal(loaded.beta, model.beta)
    assert np.array_equal(loaded.theta, model.theta)
    assert np.array_equal(loaded.doc_lengths, model.doc_lengths)
    assert loaded.hyper == model.hyper
    assert loaded.assignments is loaded.n_kw is None
    new, resaved = tmp_path / "new.newstm", tmp_path / "resaved.newstm"
    save_lda(model, new)
    save_lda(loaded, resaved)
    assert resaved.read_bytes() == new.read_bytes()
    reads.clear()
    meta["hyper"]["k"] += 1
    write_model(old, lda._FORMAT, meta, arrays)
    k = model.n_topics
    with pytest.raises(ValueError, match=rf"beta has shape \({k}, \d+\), not \({k + 1}, V\)"):
        load_lda(old)
    assert reads == []
