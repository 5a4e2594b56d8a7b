"""Static LDA trained with collapsed Gibbs sampling.

The sampler integrates out the topic-word and document-topic Dirichlet
parameters and resamples one token's topic at a time from

    p(z_i = k | z_-i, w)  ~  (n_dk + alpha) * (n_kw + eta) / (n_k + V*eta)

where the counts exclude the current token. Point estimates are posterior
means averaged over thinned post-burn-in sweeps. All randomness flows
through one seeded PCG64 generator (initial assignments, then one uniform
per token per sweep), so runs are reproducible across platforms.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from newstm import _kernels
from newstm._kernels import infer_chain
# Unused here, but perfbench/spans.py looks these two names up on this module.
from newstm._kernels import gibbs_sweep, infer_sweep  # noqa: F401
from newstm.modelfile import read_model, write_model
from newstm.preprocess import BowDoc, Vocabulary

logger = logging.getLogger(__name__)

_FORMAT = "newstm-lda"
_BLOCK_VALUES = 65_536  # uniforms per block (512 KB), or one sweep's if it needs more


@dataclass(frozen=True)
class LdaHyperparams:
    """Collapsed-Gibbs settings; alpha=None resolves to the 50/k default."""

    k: int
    alpha: float | None = None
    eta: float = 0.01
    iterations: int = 1000
    burn_in: int = 200
    thin: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", 50.0 / self.k)
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if not self.iterations > self.burn_in >= 0:
            raise ValueError(
                f"need iterations > burn_in >= 0, got {self.iterations} and {self.burn_in}"
            )
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class LdaModel:
    """Trained model state: estimates, final assignments and count matrices."""

    beta: np.ndarray  # (k, V) row-stochastic topic-word estimate
    theta: np.ndarray  # (D, k) row-stochastic doc-topic estimate
    assignments: list[np.ndarray] | None  # per-document final z
    n_dk: np.ndarray | None
    n_kw: np.ndarray | None
    n_k: np.ndarray | None
    hyper: LdaHyperparams
    vocab_size: int
    doc_lengths: np.ndarray
    word_ids: np.ndarray | None = None  # concatenated token stream backing assignments

    @property
    def n_topics(self) -> int:
        return self.beta.shape[0]

    @property
    def n_docs(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class TopicSummary:
    """Top terms of one topic, probabilities descending."""

    topic_id: int
    terms: tuple[tuple[str, float], ...]


def _bow_arrays(bow: BowDoc, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The word ids and counts of a nonempty document, in its dict order,
    checked to be ids in 0..vocab_size-1 and counts >= 1."""
    ids = np.fromiter(bow.counts.keys(), dtype=np.int64, count=len(bow.counts))
    cnt = np.fromiter(bow.counts.values(), dtype=np.int64, count=len(bow.counts))
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise ValueError(
            f"document {bow.doc_id!r}: word id out of range for vocab_size={vocab_size}"
        )
    if (cnt < 1).any():
        raise ValueError(f"document {bow.doc_id!r}: counts must be >= 1")
    return ids, cnt


def _expand_bows(bows: Sequence[BowDoc], vocab_size: int):
    """Flatten bag-of-words docs into parallel doc-index/word-id token arrays.

    Within a document tokens are laid out in ascending word-id order, making
    the expansion (and everything downstream) deterministic.
    """
    per_doc: list[np.ndarray] = []
    for bow in bows:
        if bow.counts:
            ids, cnt = _bow_arrays(bow, vocab_size)
            order = np.argsort(ids, kind="stable")
            per_doc.append(np.repeat(ids[order], cnt[order]))
        else:
            per_doc.append(np.zeros(0, dtype=np.int64))
    lengths = np.array([arr.size for arr in per_doc], dtype=np.int64)
    word_ids = np.concatenate(per_doc) if per_doc else np.zeros(0, dtype=np.int64)
    doc_ids = np.repeat(np.arange(len(per_doc), dtype=np.int64), lengths)
    return doc_ids, word_ids, lengths


def _sample_topics_from_beta(beta: np.ndarray, word_ids: np.ndarray, rng) -> np.ndarray:
    """Draw one topic per token with p(k) proportional to beta[k, word]."""
    k = beta.shape[0]
    n = word_ids.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    cols = beta[:, word_ids]
    cum = np.cumsum(cols / cols.sum(axis=0, keepdims=True), axis=0)
    u = rng.random(n)
    z = (u[None, :] < cum).argmax(axis=0).astype(np.int64)
    z[u >= cum[-1, :]] = k - 1  # guard against cumulative sums just below 1
    return z


def _concat(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if len(arrays) else np.zeros(0, dtype=np.int64)


def _count_matrices(
    doc_ids: np.ndarray,
    word_ids: np.ndarray,
    z: np.ndarray,
    n_docs: int,
    k: int,
    vocab_size: int,
):
    """The doc-topic, topic-word and topic counts (n_dk, n_kw, n_k) of an assignment.

    Raises ValueError when a topic or word id is out of range, as in a
    malformed model file.
    """
    for name, ids, bound in (("topic", z, k), ("word", word_ids, vocab_size)):
        if ids.size and (ids.min() < 0 or ids.max() >= bound):
            raise ValueError(f"{name} ids must lie in 0..{bound - 1}")
    n_dk = np.bincount(doc_ids * k + z, minlength=n_docs * k).reshape(n_docs, k)
    n_kw = np.bincount(z * vocab_size + word_ids, minlength=k * vocab_size).reshape(k, vocab_size)
    n_dk, n_kw = n_dk.astype(np.int64, copy=False), n_kw.astype(np.int64, copy=False)
    return n_dk, n_kw, n_kw.sum(axis=1)


def _run_chain(
    doc_ids: np.ndarray,
    word_ids: np.ndarray,
    n_docs: int,
    vocab_size: int,
    hyper: LdaHyperparams,
    eta_kw: np.ndarray | None,
    init_beta: np.ndarray | None,
    collect_z: bool,
):
    """Run one chain; return its final state and estimates, or with
    `collect_z` only the z of every retained sweep (no estimates)."""
    k = hyper.k
    n_tokens = word_ids.size
    rng = np.random.default_rng(hyper.seed)

    if eta_kw is None:
        eta_kw = np.full((k, vocab_size), hyper.eta, dtype=np.float64)
    else:
        eta_kw = np.ascontiguousarray(eta_kw, dtype=np.float64)
        if eta_kw.shape != (k, vocab_size):
            raise ValueError(f"eta_kw must have shape {(k, vocab_size)}, got {eta_kw.shape}")
        if (eta_kw <= 0).any():
            raise ValueError("eta_kw entries must be > 0")
    eta_sum = eta_kw.sum(axis=1)

    if init_beta is None:
        z = rng.integers(0, k, n_tokens, dtype=np.int64)
    else:
        z = _sample_topics_from_beta(np.asarray(init_beta, dtype=np.float64), word_ids, rng)

    n_dk, n_kw, n_k = _count_matrices(doc_ids, word_ids, z, n_docs, k, vocab_size)

    doc_lengths = np.bincount(doc_ids, minlength=n_docs).astype(np.int64)
    alpha = float(hyper.alpha)
    chain = _kernels.GibbsLists if _kernels.c_gibbs_chain is None else _kernels.GibbsArrays
    state = chain(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum)
    block_rows = max(1, _BLOCK_VALUES // max(n_tokens, 1))

    def run(n_sweeps: int) -> None:
        # a (rows, n) block is the same stream as `rows` calls of random(n)
        for start in range(0, n_sweeps, block_rows):
            state.sweep(rng.random((min(block_rows, n_sweeps - start), n_tokens)))

    # The state lives for the whole chain. At each retained sweep the list
    # state writes back only what the next lines read.
    retained = range(hyper.burn_in, hyper.iterations, hyper.thin)
    beta_acc = np.zeros((k, vocab_size), dtype=np.float64)
    theta_acc = np.zeros((n_docs, k), dtype=np.float64)
    z_samples: list[np.ndarray] = []
    done = 0
    for sweep in retained:
        run(sweep + 1 - done)
        done = sweep + 1
        if collect_z:
            state.store_z()
            z_samples.append(z.copy())
        else:
            state.store_counts()
            beta_acc += (n_kw + eta_kw) / (n_k + eta_sum)[:, None]
            theta_acc += (n_dk + alpha) / (doc_lengths + k * alpha)[:, None]
    if collect_z:
        return z_samples  # the sweeps after the last retained one would change no sample
    if done < hyper.iterations:
        run(hyper.iterations - done)
        state.store_counts()
    state.store_z()
    beta = beta_acc / len(retained)
    theta = theta_acc / len(retained)
    return z, n_dk, n_kw, n_k, beta, theta, doc_lengths


def train_lda(
    corpus: Iterable[BowDoc],
    vocab_size: int,
    hyper: LdaHyperparams,
    *,
    eta_kw: np.ndarray | None = None,
    init_beta: np.ndarray | None = None,
) -> LdaModel:
    """Run collapsed Gibbs sampling over the corpus and return the trained model.

    `eta_kw` overrides the symmetric word prior with a per-topic-per-word
    pseudo-count matrix, and `init_beta` seeds the initial assignments from
    an existing topic-word estimate instead of the uniform draw; both hooks
    exist for chained dynamic training and leave the default behaviour
    untouched when None.
    """
    bows = list(corpus)
    if not bows:
        raise ValueError("cannot train on an empty corpus")
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    doc_ids, word_ids, lengths = _expand_bows(bows, vocab_size)
    z, n_dk, n_kw, n_k, beta, theta, doc_lengths = _run_chain(
        doc_ids, word_ids, len(bows), vocab_size, hyper, eta_kw, init_beta, collect_z=False
    )
    assignments = np.split(z, np.cumsum(lengths)[:-1])
    logger.info(
        "trained LDA: k=%d docs=%d tokens=%d iterations=%d backend=%s",
        hyper.k,
        len(bows),
        word_ids.size,
        hyper.iterations,
        _kernels.BACKEND,
    )
    return LdaModel(
        beta=beta,
        theta=theta,
        assignments=assignments,
        n_dk=n_dk,
        n_kw=n_kw,
        n_k=n_k,
        hyper=hyper,
        vocab_size=vocab_size,
        doc_lengths=doc_lengths,
        word_ids=word_ids,
    )


def posterior_assignment_samples(
    corpus: Iterable[BowDoc], vocab_size: int, hyper: LdaHyperparams
):
    """Collect retained post-burn-in assignment sweeps for diagnostics.

    Returns (samples, doc_ids, word_ids) where samples has shape
    (n_retained, n_tokens). Intended for small corpora: every retained sweep
    stores a full copy of z.
    """
    bows = list(corpus)
    if not bows:
        raise ValueError("cannot sample on an empty corpus")
    doc_ids, word_ids, _ = _expand_bows(bows, vocab_size)
    z_samples = _run_chain(
        doc_ids, word_ids, len(bows), vocab_size, hyper, None, None, collect_z=True
    )
    return np.stack(z_samples), doc_ids, word_ids


def infer_theta(model: LdaModel, doc: BowDoc, sweeps: int = 200, seed: int = 0) -> np.ndarray:
    """Topic proportions for a held-out document, beta frozen at the trained estimate.

    Gibbs runs over the new document's assignments only; the returned vector
    averages the per-sweep posterior-mean estimates and sums to 1. An empty
    document yields the uniform vector. Raises ValueError if beta has a
    negative, NaN or infinite entry in the column of one of the document's
    words.

    The document's uniforms are drawn up front as one (sweeps, n) float64
    block, so memory grows as O(sweeps * n): 16 MB for a 10,000-token
    document at the default 200 sweeps.
    """
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    k = model.n_topics
    if not doc.counts:
        return np.full(k, 1.0 / k)
    _, word_ids, _ = _expand_bows([doc], model.vocab_size)
    n = word_ids.size
    # The sampler's topic search needs every weight >= 0 and finite.
    columns = model.beta[:, word_ids]
    bad = ~np.isfinite(columns) | (columns < 0)
    if bad.any():
        word = int(word_ids[bad.any(axis=0)][0])
        raise ValueError(f"beta has a negative, NaN or infinite entry for word {word}")

    rng = np.random.default_rng(seed)
    z = rng.integers(0, k, n, dtype=np.int64)
    m_k = np.bincount(z, minlength=k).astype(np.int64)
    probs = np.empty(k, dtype=np.float64)
    acc = np.zeros(k, dtype=np.float64)
    # one block: its rows are the same stream as `sweeps` successive random(n) draws
    uniforms = rng.random((sweeps, n))
    infer_chain(word_ids, z, m_k, model.beta, float(model.hyper.alpha), uniforms, probs, acc)
    return acc / sweeps


def _top_order(beta_row: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest entries, ties broken by ascending word id."""
    v = beta_row.size
    order = np.lexsort((np.arange(v), -beta_row))
    return order[:n]


def _topic_summary(
    beta: np.ndarray, topic_id: int, n: int, vocab: Vocabulary | None
) -> TopicSummary:
    """The n highest-probability terms of row `topic_id` of a (k, V) beta."""
    k, vocab_size = beta.shape
    if not 0 <= topic_id < k:
        raise ValueError(f"topic_id {topic_id} out of range for k={k}")
    if not 1 <= n <= vocab_size:
        raise ValueError(f"n must be in 1..{vocab_size}, got {n}")
    row = beta[topic_id]
    terms = tuple(
        (vocab.decode(int(i)) if vocab is not None else str(int(i)), float(row[i]))
        for i in _top_order(row, n)
    )
    return TopicSummary(topic_id=topic_id, terms=terms)


def top_words(
    model: LdaModel, topic_id: int, n: int, vocab: Vocabulary | None = None
) -> TopicSummary:
    """The n highest-probability terms of one topic.

    Terms are tokens when `vocab` is given, else decimal word-id strings.
    """
    return _topic_summary(model.beta, topic_id, n, vocab)


def perplexity(
    model: LdaModel, corpus: Iterable[BowDoc], theta: np.ndarray | None = None
) -> float:
    """exp of the negative mean per-token log-likelihood under the mixture.

    `theta` defaults to the training estimate and must then match the corpus
    by position; pass explicit rows (e.g. from infer_theta) for held-out docs.
    """
    bows = list(corpus)
    theta = model.theta if theta is None else np.asarray(theta, dtype=np.float64)
    if theta.shape != (len(bows), model.n_topics):
        raise ValueError(
            f"theta shape {theta.shape} does not match {len(bows)} docs x {model.n_topics} topics"
        )
    log_lik = 0.0
    total = 0
    for d, bow in enumerate(bows):
        if not bow.counts:
            continue
        ids, counts = _bow_arrays(bow, model.vocab_size)
        cnt = counts.astype(np.float64)
        p = theta[d] @ model.beta[:, ids]
        if (p <= 0).any():
            raise ValueError(
                "word with zero probability under every topic; impossible for "
                "trained models since eta > 0"
            )
        log_lik += float(cnt @ np.log(p))
        total += int(cnt.sum())
    if total == 0:
        raise ValueError("perplexity is undefined for a corpus with no tokens")
    return float(np.exp(-log_lik / total))


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


def save_lda(model: LdaModel, path: str | Path) -> None:
    """Write the model as a binary model file (see `newstm.modelfile`).

    With assignments the file also holds the flat topic assignments `z` and
    the token stream `word_ids`, from which `load_lda` rebuilds the counts.
    """
    arrays = {"beta": model.beta, "theta": model.theta, "doc_lengths": model.doc_lengths}
    if model.assignments is not None and model.word_ids is not None:
        arrays["z"] = _concat(model.assignments)
        arrays["word_ids"] = model.word_ids
    meta = {"vocab_size": model.vocab_size, "hyper": dataclasses.asdict(model.hyper)}
    write_model(path, _FORMAT, meta, arrays)


def _model_from_file(meta: dict, arrays: dict[str, np.ndarray]) -> LdaModel:
    hyper = LdaHyperparams(**meta["hyper"])
    vocab_size = int(meta["vocab_size"])
    beta, theta, doc_lengths = arrays["beta"], arrays["theta"], arrays["doc_lengths"]
    if beta.shape != (hyper.k, vocab_size):
        raise ValueError(f"beta has shape {beta.shape}, expected {(hyper.k, vocab_size)}")
    if theta.shape != (doc_lengths.size, hyper.k):
        raise ValueError(
            f"theta has shape {theta.shape}, expected {(doc_lengths.size, hyper.k)}"
        )
    assignments = word_ids = n_dk = n_kw = n_k = None
    if "z" in arrays:
        z, word_ids = arrays["z"], arrays["word_ids"]
        if not z.size == word_ids.size == int(doc_lengths.sum()):
            raise ValueError(
                f"z has {z.size} and word_ids {word_ids.size} tokens, "
                f"doc_lengths sum to {int(doc_lengths.sum())}"
            )
        doc_ids = np.repeat(np.arange(doc_lengths.size, dtype=np.int64), doc_lengths)
        n_dk, n_kw, n_k = _count_matrices(
            doc_ids, word_ids, z, doc_lengths.size, hyper.k, vocab_size
        )
        assignments = np.split(z, np.cumsum(doc_lengths)[:-1])
    return LdaModel(
        beta=beta,
        theta=theta,
        assignments=assignments,
        n_dk=n_dk,
        n_kw=n_kw,
        n_k=n_k,
        hyper=hyper,
        vocab_size=vocab_size,
        doc_lengths=doc_lengths,
        word_ids=word_ids,
    )


def load_lda(path: str | Path) -> LdaModel:
    """Read a model written by `save_lda`; a malformed file raises ValueError."""
    return read_model(path, _FORMAT, "newstm train --mode static", _model_from_file)
