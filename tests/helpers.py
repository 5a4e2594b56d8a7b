"""Shared test fixtures: brute-force oracles, planted synthetic corpora and a
model-consistency audit."""

from __future__ import annotations

import datetime
import itertools
import math
from collections import Counter

import numpy as np

from newstm.corpus import TimeSlice
from newstm.lda import LdaHyperparams, LdaModel, _count_matrices
from newstm.preprocess import BowDoc, Vocabulary


def enumerate_collapsed_posterior(docs, vocab_size, k, alpha, eta):
    """Exact assignment marginals by enumerating every topic-assignment vector.

    Fully independent of the sampler: each state's weight comes straight from
    the collapsed joint via log-gamma count products (constant factors drop
    under normalization).

    Returns (marginals, states, weights): marginals is (n_tokens, k), tokens
    flattened document by document.
    """
    doc_ids = [d for d, doc in enumerate(docs) for _ in doc]
    word_ids = [w for doc in docs for w in doc]
    n = len(word_ids)
    n_docs = len(docs)
    states = list(itertools.product(range(k), repeat=n))
    log_weights = []
    for z in states:
        n_dk = [[0] * k for _ in range(n_docs)]
        n_kw = [[0] * vocab_size for _ in range(k)]
        n_k = [0] * k
        for i in range(n):
            n_dk[doc_ids[i]][z[i]] += 1
            n_kw[z[i]][word_ids[i]] += 1
            n_k[z[i]] += 1
        logw = 0.0
        for d in range(n_docs):
            for kk in range(k):
                logw += math.lgamma(n_dk[d][kk] + alpha)
        for kk in range(k):
            for w in range(vocab_size):
                logw += math.lgamma(n_kw[kk][w] + eta)
            logw -= math.lgamma(n_k[kk] + vocab_size * eta)
        log_weights.append(logw)
    logs = np.array(log_weights)
    weights = np.exp(logs - logs.max())
    weights /= weights.sum()
    marginals = np.zeros((n, k))
    for s, z in enumerate(states):
        for i in range(n):
            marginals[i, z[i]] += weights[s]
    return marginals, states, weights


def gibbs_marginals(samples: np.ndarray, k: int) -> np.ndarray:
    """Per-token topic frequencies over retained sweeps: (n_tokens, k)."""
    n = samples.shape[1]
    out = np.zeros((n, k))
    for kk in range(k):
        out[:, kk] = (samples == kk).mean(axis=0)
    return out


def docs_to_bows(docs: list[list[int]]) -> list[BowDoc]:
    return [
        BowDoc(f"doc-{d}", dict(sorted(Counter(doc).items()))) for d, doc in enumerate(docs)
    ]


def planted_two_topic_bows(n_docs=100, doc_len=25, seed=0):
    """Corpus drawn from two disjoint-support uniform topics over 10 words.

    Even docs use words 0..4, odd docs words 5..9. Returns (bows, labels,
    supports).
    """
    rng = np.random.default_rng(seed)
    supports = [list(range(0, 5)), list(range(5, 10))]
    bows, labels = [], []
    for d in range(n_docs):
        topic = d % 2
        words = rng.choice(supports[topic], size=doc_len)
        bows.append(BowDoc(f"doc-{d}", dict(sorted(Counter(int(w) for w in words).items()))))
        labels.append(topic)
    return bows, labels, supports


DRIFT_VOCAB_SIZE = 10
DRIFT_OUT_WORD = 0  # in topic A's support only at slice 0
DRIFT_IN_WORD = 3  # in topic A's support only at slice 1
DRIFT_MARKER_WORD = 1  # in topic A's support at both slices (identifies topic A)
STABLE_WORD = 6  # topic B support marker


def planted_drift_sliced_corpus(docs_per_topic=30, doc_len=20, seed=0):
    """Two slices over 10 words; topic A's support drifts {0,1,2} -> {1,2,3},
    topic B stays {6,7,8}. Returns list of (TimeSlice, bows)."""
    rng = np.random.default_rng(seed)
    supports = {
        0: {"A": [0, 1, 2], "B": [6, 7, 8]},
        1: {"A": [1, 2, 3], "B": [6, 7, 8]},
    }
    start = datetime.date(2020, 1, 17)
    sliced = []
    doc_index = 0
    for t in (0, 1):
        bows = []
        for topic in ("A", "B"):
            for _ in range(docs_per_topic):
                words = rng.choice(supports[t][topic], size=doc_len)
                bows.append(
                    BowDoc(
                        f"doc-{doc_index}",
                        dict(sorted(Counter(int(w) for w in words).items())),
                    )
                )
                doc_index += 1
        meta = TimeSlice(
            index=t,
            start=datetime.date(2020, 1 + t, 17),
            end=datetime.date(2020, 2 + t, 17),
            doc_ids=tuple(b.doc_id for b in bows),
        )
        sliced.append((meta, bows))
    return sliced


def drift_vocab() -> Vocabulary:
    tokens = [f"w{i}" for i in range(DRIFT_VOCAB_SIZE)]
    return Vocabulary(
        token_to_id={t: i for i, t in enumerate(tokens)},
        id_to_token=tuple(tokens),
        document_frequency=tuple(1 for _ in tokens),
        no_below=1,
        no_above=1.0,
        n_docs=1,
    )


def model_from_beta(beta, theta=None, doc_lengths=None) -> LdaModel:
    """Hand-built model for diagnostics tests; the dummy hyper never feeds the
    computation (note the row count, not hyper.k, defines n_topics)."""
    beta = np.asarray(beta, dtype=np.float64)
    k, v = beta.shape
    if theta is None:
        theta = np.full((1, k), 1.0 / k)
    theta = np.asarray(theta, dtype=np.float64)
    if doc_lengths is None:
        doc_lengths = np.full(theta.shape[0], 10, dtype=np.int64)
    return LdaModel(
        beta=beta,
        theta=theta,
        assignments=None,
        n_dk=None,
        n_kw=None,
        n_k=None,
        hyper=LdaHyperparams(k=max(k, 2), alpha=1.0, iterations=2, burn_in=1, thin=1),
        vocab_size=v,
        doc_lengths=np.asarray(doc_lengths, dtype=np.int64),
    )


def _concat(arrays) -> np.ndarray:
    return np.concatenate(arrays) if len(arrays) else np.zeros(0, dtype=np.int64)


def audit_counts(model: LdaModel) -> None:
    """Recompute the count matrices from stored assignments and verify invariants.

    Raises ValueError on any inconsistency; intended as a debug/test hook.
    """
    if model.assignments is None or model.word_ids is None:
        raise ValueError("model carries no assignments to audit")
    n_docs = len(model.assignments)
    lengths = np.array([a.size for a in model.assignments], dtype=np.int64)
    doc_ids = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    z = _concat(model.assignments)
    n_dk, n_kw, n_k = _count_matrices(
        doc_ids, model.word_ids, z, n_docs, model.n_topics, model.vocab_size
    )
    if not np.array_equal(n_dk, model.n_dk):
        raise ValueError("n_dk is inconsistent with the stored assignments")
    if not np.array_equal(n_kw, model.n_kw):
        raise ValueError("n_kw is inconsistent with the stored assignments")
    if not np.array_equal(n_k, model.n_k):
        raise ValueError("n_k is inconsistent with the stored assignments")
    if int(n_k.sum()) != int(model.word_ids.size):
        raise ValueError("topic totals do not sum to the token count")
    if not np.allclose(model.beta.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("beta rows do not sum to 1")
    if not np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("theta rows do not sum to 1")
