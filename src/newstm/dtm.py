"""Dynamic topics over time slices via chained collapsed-Gibbs LDA.

Slice 0 trains as plain LDA; each later slice reuses the previous slice's
topic-word estimate in two ways: as word-prior pseudo-counts
(eta_t = eta + kappa * V * beta_prev) and, when
warm_start is on, as the distribution the initial assignments are sampled
from. Topic identity across slices therefore comes from the chain itself;
there is no post-hoc alignment step. With kappa=0 and warm_start=False the
chain degenerates into independent per-slice LDA runs, bitwise.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from newstm.bowsfile import BowsFile
from newstm.corpus import TimeSlice
from newstm.exports import TrajectorySeries
from newstm.lda import LdaHyperparams, TopicSummary, _run_chain, _top_order, _topic_summary
# Unused here, but perfbench/spans.py looks this name up on this module.
from newstm.lda import train_lda  # noqa: F401
from newstm.modelfile import BlockFile, Blocks, iso_date, json_fields, write_model
from newstm.preprocess import Bows, Vocabulary

logger = logging.getLogger(__name__)

_FORMAT = "newstm-dtm"
_RETRAIN = "newstm train --mode dtm"


@dataclass
class DtmModel:
    """Per-slice topic-word estimates chained over an ordered slice sequence."""

    slices: list[TimeSlice]
    per_slice_beta: np.ndarray  # (T, k, V), each [t, k] row sums to 1
    per_slice_theta: list[np.ndarray]
    kappa: float
    base_hyper: LdaHyperparams

    @property
    def n_slices(self) -> int:
        return self.per_slice_beta.shape[0]

    @property
    def slice_seeds(self) -> list[int]:
        return slice_seeds_for(self.base_hyper.seed, self.n_slices)


def slice_seeds_for(base_seed: int, n_slices: int) -> list[int]:
    """Deterministic per-slice seeds: slice 0 keeps the base seed, later
    slices draw from the base seed's numpy SeedSequence stream."""
    if base_seed < 0:
        raise ValueError(f"seed must be >= 0, got {base_seed}")
    stream = np.random.SeedSequence(base_seed).generate_state(max(n_slices - 1, 0), np.uint32)
    return [int(base_seed), *stream.tolist()]


def train_dtm(
    slices: Sequence[TimeSlice],
    bows: Bows,
    base_hyper: LdaHyperparams,
    kappa: float = 1.0,
    *,
    warm_start: bool = True,
) -> DtmModel:
    """Train the chained per-slice model over an ordered slice sequence.

    Slice t's documents are `bows.select(slices[t].doc_ids)`, so `bows` may
    hold the documents in any order, and documents outside every slice; a
    slice doc id with no bag raises ValueError. Empty slices (no documents)
    inherit the previous slice's topic-word rows verbatim; an empty slice 0
    starts from the uniform distribution.
    warm_start=False disables assignment initialization from the previous
    slice (the equivalence mode used to compare against independent runs).
    """
    slices = list(slices)
    betas = np.empty((len(slices), base_hyper.k, bows.vocab_size), dtype=np.float64)
    steps = _chain(slices, bows, base_hyper, kappa, warm_start, betas)
    return DtmModel(
        slices=slices,
        per_slice_beta=betas,
        per_slice_theta=[theta_t for _, theta_t in steps],
        kappa=kappa,
        base_hyper=base_hyper,
    )


def train_dtm_to_file(
    path: str | Path,
    slices: Sequence[TimeSlice],
    bows: Bows | BowsFile,
    base_hyper: LdaHyperparams,
    kappa: float = 1.0,
) -> None:
    """Train as `train_dtm` does and write the file `save_dtm` would write
    of its model, each slice's β as it finishes: no more than two (k, V)
    slices of β are held at once.

    Slice t's bags are `bows.select(slices[t].doc_ids)`, taken when the
    slice starts, and its chain holds them only until it has built their
    tokens. So from a `BowsFile`, which reads a slice's rows then, at most
    one slice's bags are held at a time; a `Bows` is held by its caller."""
    slices = list(slices)
    ring = np.empty((2, base_hyper.k, bows.vocab_size), dtype=np.float64)
    steps = _chain(slices, bows, base_hyper, kappa, True, ring)
    meta = _meta(slices, kappa, base_hyper)
    _write(path, meta, (len(slices), base_hyper.k, bows.vocab_size), sum(map(len, slices)), steps)


def _chain(
    slices: list[TimeSlice],
    bows: Bows | BowsFile,
    base_hyper: LdaHyperparams,
    kappa: float,
    warm_start: bool,
    ring: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield each slice's (beta_t, theta_t) in order.

    beta_t is written into ring[t % len(ring)], a (k, V) float64 array, and
    stays valid until slice t + len(ring) starts. Slice t's prior needs
    only beta_{t-1}, so a ring of two serves any number of slices.
    """
    if not slices:
        raise ValueError("need at least one time slice")
    if not (kappa >= 0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")

    seeds = slice_seeds_for(base_hyper.seed, len(slices))
    k, vocab_size = base_hyper.k, bows.vocab_size
    for t, time_slice in enumerate(slices):
        held = [bows.select(time_slice.doc_ids)]  # _run_chain drops it once it has the tokens
        hyper_t = dataclasses.replace(base_hyper, seed=seeds[t])
        beta_t = ring[t % len(ring)]
        prev_beta = ring[(t - 1) % len(ring)] if t else None
        if not held[0]:
            beta_t[...] = prev_beta if prev_beta is not None else 1.0 / vocab_size
            theta_t = np.zeros((0, k), dtype=np.float64)
            logger.info("slice %d is empty; carrying topic-word rows forward", t)
        else:
            # slice 0's prior is the symmetric eta, a later one's eta + kappa * V * prev_beta
            prior = None if prev_beta is None else (prev_beta, kappa * vocab_size, base_hyper.eta)
            init_beta = prev_beta if warm_start else None
            _, theta_t, _ = _run_chain(held, hyper_t, prior, init_beta, collect_z=False, out=beta_t)
        yield beta_t, theta_t


def trajectory(
    model: DtmModel, topic_id: int, words: Sequence[str], vocab: Vocabulary
) -> TrajectorySeries:
    """Extract p(word | topic, t) across all slices for the given words.

    Values are raw per-slice topic-word entries, never renormalized.
    Out-of-vocabulary words raise instead of being dropped.
    """
    if not 0 <= topic_id < model.base_hyper.k:
        raise ValueError(f"topic_id {topic_id} out of range for k={model.base_hyper.k}")
    missing = [w for w in words if vocab.encode(w) is None]
    if missing:
        raise ValueError(f"words not in vocabulary: {missing}")
    series = {
        w: model.per_slice_beta[:, topic_id, vocab.encode(w)].copy() for w in words
    }
    labels = tuple(s.start.isoformat() for s in model.slices)
    return TrajectorySeries(
        topic_id=topic_id, words=tuple(words), series=series, slice_labels=labels
    )


def top_words_at(
    model: DtmModel, topic_id: int, t: int, n: int, vocab: Vocabulary | None = None
) -> TopicSummary:
    """Top terms of one topic at slice t; same contract as the static top_words."""
    if not 0 <= t < model.n_slices:
        raise ValueError(f"slice index {t} out of range for {model.n_slices} slices")
    return _topic_summary(model.per_slice_beta[t], topic_id, n, vocab)


def read_trajectories(path: str | Path, vocab: Vocabulary, n: int) -> list[TrajectorySeries]:
    """Each topic's n top words at the last slice of a `save_dtm` file, with
    their p(word | topic, t) across all slices: what `top_words_at` and
    `trajectory` give on the loaded model. Reads one (k, V) slice at a time,
    each once after the last, so the whole β is never held."""
    with BlockFile(path, _FORMAT, _RETRAIN, _checked_header) as stored:
        slices, _, _ = stored.header
        held = stored.rows("per_slice_beta", len(slices) - 1)  # (1, k, V): the last slice
        beta_t = held[0]
        if not 1 <= n <= beta_t.shape[1]:
            raise ValueError(f"n must be in 1..{beta_t.shape[1]}, got {n}")
        top = np.array([_top_order(row, n) for row in beta_t])  # (k, n) word ids
        values = np.empty((len(slices),) + top.shape)
        for t in range(len(slices)):
            stored.rows("per_slice_beta", t, t + 1, out=held)
            values[t] = np.take_along_axis(beta_t, top, axis=1)
    labels = tuple(s.start.isoformat() for s in slices)
    out = []
    for topic, ids in enumerate(top):
        words = tuple(vocab.decode(int(i)) for i in ids)
        series = {w: values[:, topic, j].copy() for j, w in enumerate(words)}
        out.append(TrajectorySeries(topic, words, series, labels))
    return out


def save_dtm(model: DtmModel, path: str | Path) -> None:
    """Write the model as a binary model file (see `newstm.modelfile`).

    All slice thetas go into one array of stacked rows, a slice's rows
    being its documents in `doc_ids` order.
    """
    meta = _meta(model.slices, model.kappa, model.base_hyper)
    rows = sum(len(theta_t) for theta_t in model.per_slice_theta)
    steps = zip(model.per_slice_beta, model.per_slice_theta)
    _write(path, meta, model.per_slice_beta.shape, rows, steps)


def _meta(slices: list[TimeSlice], kappa: float, base_hyper: LdaHyperparams) -> dict:
    return {
        "kappa": kappa,
        "base_hyper": dataclasses.asdict(base_hyper),
        "slices": [
            {
                "start": s.start.isoformat(),
                "end": s.end.isoformat(),
                "doc_ids": list(s.doc_ids),
            }
            for s in slices
        ],
    }


def _write(
    path: str | Path,
    meta: dict,
    shape: tuple[int, ...],
    rows: int,
    steps: Iterable[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Write a model file of β shape `shape` and `rows` θ rows from the
    per-slice (beta_t, theta_t) of `steps`: each beta_t as it comes, then
    the theta rows, which are small, collected on the way."""
    thetas: list[np.ndarray] = []

    def betas() -> Iterator[np.ndarray]:
        for beta_t, theta_t in steps:
            thetas.append(theta_t)
            yield beta_t[np.newaxis]

    arrays = {
        "per_slice_beta": Blocks(shape, np.dtype(np.float64), betas()),
        "per_slice_theta": Blocks((rows, shape[1]), np.dtype(np.float64), thetas),
    }
    write_model(path, _FORMAT, meta, arrays)


def _checked_header(
    meta: dict, shapes: dict[str, tuple[int, ...]]
) -> tuple[list[TimeSlice], float, LdaHyperparams]:
    """The slices, kappa and base hyperparameters of a DTM file's header,
    checked to be as `save_dtm` writes them (T >= 1 abutting slices, in
    order, and kappa >= 0), and against the shapes of the arrays: β is
    (T, k, V), and θ has a row per document. Fields that earlier versions
    also wrote (`vocab_size`, `theta_rows`, `slice_seeds` and each slice's
    `index`) follow from these and are ignored."""
    kappa, base_hyper, entries = json_fields(
        meta, {"kappa": float, "base_hyper": dict, "slices": list}
    )
    slices: list[TimeSlice] = []
    for t, entry in enumerate(entries):  # as slice_monthly builds them: in order, abutting
        try:
            start, end, doc_ids = json_fields(
                entry, {"start": str, "end": str, "doc_ids": list[str]}
            )
            start, end = iso_date(start), iso_date(end)
            if not start < end:
                raise ValueError(f"start {start} is not before end {end}")
            if slices and start != slices[-1].end:
                raise ValueError(f"start {start} is not slice {t - 1}'s end {slices[-1].end}")
        except ValueError as exc:
            raise ValueError(f"slice {t}: {exc}") from None
        slices.append(TimeSlice(start, end, tuple(doc_ids)))
    json_fields(base_hyper, {"alpha": float})  # as save_dtm writes it: resolved, never null
    hyper = LdaHyperparams(**base_hyper)
    if not slices:  # as train_dtm requires
        raise ValueError("the model has no time slices")
    if kappa < 0:
        raise ValueError(f"kappa {kappa} is below 0")
    betas, thetas = tuple(shapes["per_slice_beta"]), tuple(shapes["per_slice_theta"])
    if len(betas) != 3 or betas[:2] != (len(slices), hyper.k):
        raise ValueError(f"per_slice_beta has shape {betas}, not ({len(slices)}, {hyper.k}, V)")
    rows = sum(map(len, slices))  # a slice's theta rows are its documents, in order
    if thetas != (rows, hyper.k):
        raise ValueError(f"per_slice_theta has shape {thetas}, not ({rows}, {hyper.k})")
    return slices, kappa, hyper


def load_dtm(path: str | Path) -> DtmModel:
    """Read a model written by `save_dtm`; a malformed file raises ValueError."""
    with BlockFile(path, _FORMAT, _RETRAIN, _checked_header) as stored:
        slices, kappa, hyper = stored.header
        beta, theta = stored.rows("per_slice_beta"), stored.rows("per_slice_theta")
    thetas = np.split(theta, np.cumsum([len(s) for s in slices])[:-1])
    return DtmModel(slices, beta, thetas, kappa, hyper)
