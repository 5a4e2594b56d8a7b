"""Static LDA trained with collapsed Gibbs sampling.

The sampler integrates out the topic-word and document-topic Dirichlet
parameters and resamples one token's topic at a time from

    p(z_i = k | z_-i, w)  ~  (n_dk + alpha) * (n_kw + eta) / (n_k + V*eta)

where the counts exclude the current token. A trained model is its point
estimates: the posterior means β and θ, averaged over thinned post-burn-in
sweeps. A chain stops after its last retained sweep, as later sweeps would
change no estimate, and keeps no assignments or counts. All randomness
flows through one seeded PCG64 generator (initial assignments, then one
uniform per token per sweep), so runs are reproducible across platforms.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from newstm import _kernels
from newstm._kernels import infer_chain
# Unused here, but perfbench/spans.py looks these two names up on this module.
from newstm._kernels import gibbs_sweep, infer_sweep  # noqa: F401
from newstm.modelfile import json_fields, read_model, write_model
from newstm.params import LdaHyperparams
from newstm.preprocess import BowDoc, Bows, Vocabulary

logger = logging.getLogger(__name__)

_FORMAT = "newstm-lda"
_BLOCK_VALUES = 65_536  # uniforms per block (512 KB), or one sweep's if it needs more


@dataclass
class LdaModel:
    """A model's estimates β and θ and its document lengths, as `train_lda`
    returns them and the model file holds them."""

    beta: np.ndarray  # (k, V) row-stochastic topic-word estimate
    theta: np.ndarray  # (D, k) row-stochastic doc-topic estimate
    hyper: LdaHyperparams
    vocab_size: int
    doc_lengths: np.ndarray
    # Always None: kept only because perfbench/heldout_job.py passes them by name.
    assignments: None = None
    n_dk: None = None
    n_kw: None = None
    n_k: None = None

    @property
    def n_topics(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class TopicSummary:
    """Top terms of one topic, probabilities descending."""

    topic_id: int
    terms: tuple[tuple[str, float], ...]


def _check_vocab_size(bows: Bows, vocab_size: int) -> None:
    """Raise ValueError unless `bows` is over `vocab_size` words."""
    if bows.vocab_size != vocab_size:
        raise ValueError(f"the bags of words have vocab_size={bows.vocab_size}, not {vocab_size}")


def _expand_bows(bows: Bows):
    """Flatten bags of words into parallel doc-index/word-id token arrays and
    the token count of each document.

    Within a document tokens are laid out in ascending word-id order, as
    Bows stores them, making the expansion (and everything downstream)
    deterministic.
    """
    entry_bounds = np.concatenate(([0], np.cumsum(bows.doc_lengths)))
    lengths = np.diff(np.concatenate(([0], np.cumsum(bows.counts)))[entry_bounds])
    doc_ids = np.repeat(np.arange(len(bows), dtype=np.int64), lengths)
    return doc_ids, np.repeat(bows.word_ids, bows.counts), lengths


def _sample_topics_from_beta(beta: np.ndarray, word_ids: np.ndarray, rng) -> np.ndarray:
    """Draw one topic per token with p(k) proportional to beta[k, word].

    The tokens go in column blocks of at most _BLOCK_VALUES values, or of
    one column if K needs more, and each block's uniforms are the next
    values of one rng.random(n) stream. The draws do not depend on the
    blocks: numpy gathers each column contiguously and sums it on its own.
    """
    k = beta.shape[0]
    n = word_ids.size
    z = np.empty(n, dtype=np.int64)
    step = max(1, _BLOCK_VALUES // k)
    for start in range(0, n, step):
        stop = min(start + step, n)
        cum = beta[:, word_ids[start:stop]]  # normalised and summed in place
        cum /= cum.sum(axis=0, keepdims=True)
        np.cumsum(cum, axis=0, out=cum)
        u = rng.random(stop - start)
        block = (u < cum).argmax(axis=0)
        block[u >= cum[-1]] = k - 1  # guard against cumulative sums just below 1
        z[start:stop] = block
        del cum  # before the next block is gathered
    return z


def _count_matrices(
    doc_ids: np.ndarray,
    word_ids: np.ndarray,
    z: np.ndarray,
    n_docs: int,
    k: int,
    vocab_size: int,
):
    """The doc-topic, topic-word and topic counts (n_dk, n_kw, n_k) of an
    assignment; every doc, word and topic id must be in range."""
    key = doc_ids * k  # one token-length key, reused
    key += z
    n_dk = np.bincount(key, minlength=n_docs * k).reshape(n_docs, k)
    np.multiply(z, vocab_size, out=key)
    key += word_ids
    n_kw = np.bincount(key, minlength=k * vocab_size).reshape(k, vocab_size)
    n_dk, n_kw = n_dk.astype(np.int64, copy=False), n_kw.astype(np.int64, copy=False)
    return n_dk, n_kw, n_kw.sum(axis=1)


def _finite_matrix(name: str, array, shape: tuple[int, int]) -> np.ndarray:
    """`array` as a C-contiguous float64 matrix, checked to have `shape` and
    only finite entries."""
    array = np.ascontiguousarray(array, dtype=np.float64)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} has a NaN or infinite entry")
    return array


def _prior_row_sums(base: np.ndarray, scale: float, offset: float) -> np.ndarray:
    """The row sums of the word prior base * scale + offset, each entry
    rounded twice, checked to be finite and > 0 over the whole prior in
    that order. The prior goes in blocks of whole rows, at most
    _BLOCK_VALUES values or one row, so no (k, V) prior is built; each row
    sums in the order of the whole matrix's .sum(axis=1)."""
    k, vocab_size = base.shape
    sums = np.empty(k)
    step = max(1, _BLOCK_VALUES // max(vocab_size, 1))
    block = np.empty((min(step, k), vocab_size))
    positive = True
    for start in range(0, k, step):
        rows = block[: min(step, k - start)]
        np.multiply(base[start : start + step], scale, out=rows)
        rows += offset
        if not np.isfinite(rows).all():
            raise ValueError("eta_kw has a NaN or infinite entry")
        positive &= bool((rows > 0).all())
        sums[start : start + step] = rows.sum(axis=1)
    if not positive:
        raise ValueError("eta_kw entries must be > 0")
    return sums


def _uniform_blocks(rng, n_sweeps: int, n: int):
    """The uniforms of `n_sweeps` sweeps over `n` tokens, as (rows, n) blocks
    of at most _BLOCK_VALUES values, or of one row if a row needs more. The
    rows are the same stream as `n_sweeps` successive rng.random(n) calls."""
    rows = max(1, _BLOCK_VALUES // max(n, 1))
    for start in range(0, n_sweeps, rows):
        yield rng.random((min(rows, n_sweeps - start), n))


def _run_chain(
    bows: Bows,
    hyper: LdaHyperparams,
    prior: tuple[np.ndarray, float, float] | None,
    init_beta: np.ndarray | None,
    *,
    collect_z: bool,
    out: np.ndarray | None = None,
):
    """Run one chain over the bags of words; return (beta, theta, lengths),
    its estimates and the token count of each document, or with `collect_z`
    (samples, doc_ids, word_ids), the z of every retained sweep stacked and
    the token arrays they index.

    The word prior eta_kw is np.full((k, V), hyper.eta) when `prior` is
    None, and base * scale + offset, each entry rounded twice, for `prior`
    = (base, scale, offset) with base a C-contiguous (k, V) float64 array:
    (eta_kw, 1.0, 0.0) is the matrix eta_kw itself, and (beta_{t-1}, kappa *
    V, eta) a DTM slice's chained prior. Neither is built. The chain's state
    holds only the word columns its tokens use, the ascending ids of
    `present`, and its prior is those columns of eta_kw: a stride-0 view of
    hyper.eta, which both kernels read through its strides, or base's
    columns, scaled and offset. The row sums eta_sum come from blocks of
    whole rows (`_prior_row_sums`).

    The chain stops after its last retained sweep: a later sweep would
    change no estimate and no sample. A column no token uses has count 0 at
    every sweep, so its β entries are the mean of eta_kw / (n_k + eta_sum)
    over the retained sweeps; they are formed from base in the row blocks
    that β's sums go in. β is written into `out`, a C-contiguous (k, V)
    float64 array, when one is given, and its sums are kept in β itself: the
    chain builds no K x V float64 array but β.
    """
    k, vocab_size = hyper.k, bows.vocab_size
    doc_ids, word_ids, doc_lengths = _expand_bows(bows)
    n_docs, n_tokens = doc_lengths.size, word_ids.size
    rng = np.random.default_rng(hyper.seed)
    used = np.zeros(vocab_size, dtype=bool)
    used[word_ids] = True
    present = np.flatnonzero(used)  # the columns of the chain's state
    n_used = present.size
    local_ids = (np.cumsum(used) - 1)[word_ids]

    if prior is None:  # LdaHyperparams has checked that eta is finite and > 0
        eta_sum = np.full(k, np.full(vocab_size, hyper.eta).sum())  # the row sum of the full prior
        eta_local = np.broadcast_to(np.float64(hyper.eta), (k, n_used))  # one value, stride 0
    else:
        base, scale, offset = prior
        eta_sum = _prior_row_sums(base, scale, offset)
        eta_local = np.take(base, present, axis=1)  # C-contiguous, as the C kernel needs
        eta_local *= scale
        eta_local += offset

    if init_beta is None:
        z = rng.integers(0, k, n_tokens, dtype=np.int64)
    else:
        init_beta = _finite_matrix("init_beta", init_beta, (k, vocab_size))
        if (init_beta < 0).any():
            raise ValueError("init_beta entries must be >= 0")
        empty = (init_beta.sum(axis=0) == 0)[word_ids]
        if empty.any():
            raise ValueError(f"init_beta has no mass for word {int(word_ids[empty][0])}")
        z = _sample_topics_from_beta(init_beta, word_ids, rng)

    if not collect_z:
        del word_ids  # the kernel sweeps the column ids local_ids
    n_dk, n_kw, n_k = _count_matrices(doc_ids, local_ids, z, n_docs, k, n_used)

    alpha = float(hyper.alpha)
    chain = _kernels.GibbsLists if _kernels.c_gibbs_chain is None else _kernels.GibbsArrays
    state = chain(doc_ids, local_ids, z, n_dk, n_kw, n_k, alpha, eta_local, eta_sum)

    def run(n_sweeps: int) -> None:
        for block in _uniform_blocks(rng, n_sweeps, n_tokens):
            state.sweep(block)

    # Each sum starts from its first term, as 0.0 + term would. The rows go in
    # blocks whose temporaries hold at most _BLOCK_VALUES values together.
    retained = range(hyper.burn_in, hyper.iterations, hyper.thin)
    beta = np.empty((k, vocab_size)) if out is None else out
    theta = np.zeros((n_docs, k))
    theta_denom = (doc_lengths + k * alpha)[:, None]
    step = max(1, _BLOCK_VALUES // max(vocab_size + n_used, 1))

    def add_terms(rows: slice, denom: np.ndarray, first: bool) -> None:
        term = beta[rows] if first else np.empty((denom.shape[0], vocab_size))
        if prior is None:
            np.divide(hyper.eta, denom, out=term)
        else:  # eta_kw's rows, rounded as _prior_row_sums rounds them
            np.multiply(base[rows], scale, out=term)
            term += offset
            term /= denom
        used_term = n_kw[rows] + eta_local[rows]
        used_term /= denom
        term[:, present] = used_term
        if not first:
            beta[rows] += term

    z_samples: list[np.ndarray] = []
    done = 0
    for sweep in retained:
        run(sweep + 1 - done)
        done = sweep + 1
        if collect_z:
            z_samples.append(z.copy())
            continue
        denom = (n_k + eta_sum)[:, None]
        for start in range(0, k, step):
            rows = slice(start, start + step)
            add_terms(rows, denom[rows], sweep == hyper.burn_in)
        term = n_dk + alpha  # divided in place; dropped before the next sweep's uniforms
        term /= theta_denom
        theta += term
        del term
    if collect_z:
        return np.stack(z_samples), doc_ids, word_ids
    beta /= len(retained)
    theta /= len(retained)
    logger.info(
        "trained LDA: k=%d docs=%d tokens=%d iterations=%d backend=%s",
        k, n_docs, n_tokens, hyper.iterations, _kernels.BACKEND,
    )
    return beta, theta, doc_lengths


def train_lda(
    bows: Bows,
    hyper: LdaHyperparams,
    *,
    eta_kw: np.ndarray | None = None,
    init_beta: np.ndarray | None = None,
) -> LdaModel:
    """Run collapsed Gibbs sampling over the bags of words and return the
    trained model: its estimates β and θ over the bags' vocab_size words and
    its document lengths.

    `eta_kw` overrides the symmetric word prior with a (k, V)
    per-topic-per-word pseudo-count matrix, and `init_beta` seeds the initial
    assignments from an existing topic-word estimate instead of the uniform
    draw; both leave the default behaviour untouched when None. `train_dtm`
    calls `_run_chain` directly, so the hooks' one caller is the per-slice
    chain of `train_lda` calls that the DTM tests compare `train_dtm` against.
    """
    if not bows:
        raise ValueError("cannot train on an empty corpus")
    prior = None
    if eta_kw is not None:  # eta_kw * 1.0 + 0.0 is eta_kw, bitwise, for every entry > 0
        prior = _finite_matrix("eta_kw", eta_kw, (hyper.k, bows.vocab_size)), 1.0, 0.0
    beta, theta, lengths = _run_chain(bows, hyper, prior, init_beta, collect_z=False)
    return LdaModel(beta, theta, hyper, bows.vocab_size, lengths)


def posterior_assignment_samples(bows: Bows, hyper: LdaHyperparams):
    """Collect retained post-burn-in assignment sweeps for diagnostics.

    Returns (samples, doc_ids, word_ids) where samples has shape
    (n_retained, n_tokens). Intended for small corpora: every retained sweep
    stores a full copy of z.
    """
    if not bows:
        raise ValueError("cannot sample on an empty corpus")
    return _run_chain(bows, hyper, None, None, collect_z=True)


def infer_theta(model: LdaModel, doc: BowDoc, sweeps: int = 200, seed: int = 0) -> np.ndarray:
    """Topic proportions for a held-out document, beta frozen at the trained estimate.

    Gibbs runs over the new document's assignments only; the returned vector
    averages the per-sweep posterior-mean estimates and sums to 1. An empty
    document yields the uniform vector. Raises ValueError if beta has a
    negative, NaN or infinite entry in the column of one of the document's
    words.

    The uniforms are drawn in the blocks training draws, so at most
    _BLOCK_VALUES of them are held at once, or one sweep's if it needs more.
    """
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    k = model.n_topics
    if not doc.counts:
        return np.full(k, 1.0 / k)
    bow = Bows.from_docs([doc], model.vocab_size)
    word_ids = np.repeat(bow.word_ids, bow.counts)
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
    acc = np.zeros(k, dtype=np.float64)
    uniforms = itertools.chain.from_iterable(_uniform_blocks(rng, sweeps, n))
    infer_chain(word_ids, z, m_k, model.beta, float(model.hyper.alpha), uniforms, acc)
    return acc / sweeps


def _top_order(beta_row: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest entries, ties broken by ascending word id."""
    v = beta_row.size
    order = np.lexsort((np.arange(v), -beta_row))
    return order[:n].copy()  # a view would keep all V entries alive


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
    model: LdaModel, corpus: Iterable[BowDoc] | Bows, theta: np.ndarray | None = None
) -> float:
    """exp of the negative mean per-token log-likelihood under the mixture.

    A BowDoc corpus is converted with `Bows.from_docs`; a Bows corpus must
    have the model's vocab_size words. `theta` defaults to the training
    estimate and must then match the corpus by position; pass explicit rows
    (e.g. from infer_theta) for held-out docs. Raises ValueError if theta
    has a negative, NaN or infinite entry.
    """
    # BowDoc input stays only because perfbench/heldout_job.py passes BowDocs.
    # ROADMAP item 1 is the change that may edit that file and drop this path.
    bows = corpus if isinstance(corpus, Bows) else Bows.from_docs(corpus, model.vocab_size)
    _check_vocab_size(bows, model.vocab_size)
    theta = model.theta if theta is None else np.asarray(theta, dtype=np.float64)
    if theta.shape != (len(bows), model.n_topics):
        raise ValueError(
            f"theta shape {theta.shape} does not match {len(bows)} docs x {model.n_topics} topics"
        )
    bad = ~np.isfinite(theta) | (theta < 0)
    if bad.any():
        row = int(np.flatnonzero(bad.any(axis=1))[0])
        raise ValueError(f"theta has a negative, NaN or infinite entry in row {row}")
    bounds = np.cumsum(bows.doc_lengths).tolist()
    log_lik = 0.0
    total = 0
    for d, (start, end) in enumerate(zip([0, *bounds], bounds)):
        if start == end:
            continue
        ids = bows.word_ids[start:end]
        cnt = bows.counts[start:end].astype(np.float64)
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


def save_lda(model: LdaModel, path: str | Path) -> None:
    """Write the model's estimates β and θ and its document lengths as a
    binary model file (see `newstm.modelfile`)."""
    arrays = {"beta": model.beta, "theta": model.theta, "doc_lengths": model.doc_lengths}
    write_model(path, _FORMAT, {"hyper": dataclasses.asdict(model.hyper)}, arrays)


def _model_from_file(meta: dict, arrays: dict[str, np.ndarray]) -> LdaModel:
    # A file written before the format held only the estimates also has the
    # final `z` and `word_ids`, which are read and not used; a `vocab_size` in
    # an older header is ignored, as V is beta's last axis. save_lda writes the
    # resolved alpha, so a null one is a fault, not the 50/k default.
    json_fields(meta["hyper"], {"alpha": float})
    hyper = LdaHyperparams(**meta["hyper"])
    beta, theta, doc_lengths = arrays["beta"], arrays["theta"], arrays["doc_lengths"]
    if beta.ndim != 2 or beta.shape[0] != hyper.k:
        raise ValueError(f"beta has shape {beta.shape}, not ({hyper.k}, V)")
    if doc_lengths.ndim != 1 or doc_lengths.dtype.kind != "i" or (doc_lengths < 0).any():
        raise ValueError("doc_lengths must be a 1-D array of token counts, each >= 0")
    if theta.shape != (doc_lengths.size, hyper.k):
        raise ValueError(
            f"theta has shape {theta.shape}, expected {(doc_lengths.size, hyper.k)}"
        )
    return LdaModel(beta, theta, hyper, beta.shape[1], doc_lengths)


def load_lda(path: str | Path) -> LdaModel:
    """Read a model written by `save_lda`; a malformed file raises ValueError."""
    return read_model(path, _FORMAT, "newstm train --mode static", _model_from_file)
