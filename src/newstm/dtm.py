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
import datetime
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from newstm.corpus import TimeSlice
from newstm.lda import LdaHyperparams, TopicSummary, _topic_summary, train_lda
from newstm.modelfile import read_csv, read_model, write_csv, write_model
from newstm.preprocess import BowDoc, Vocabulary

logger = logging.getLogger(__name__)

_FORMAT = "newstm-dtm"


@dataclass
class DtmModel:
    """Per-slice topic-word estimates chained over an ordered slice sequence."""

    slices: list[TimeSlice]
    per_slice_beta: np.ndarray  # (T, k, V), each [t, k] row sums to 1
    per_slice_theta: list[np.ndarray]
    kappa: float
    base_hyper: LdaHyperparams
    slice_seeds: list[int]
    vocab_size: int

    @property
    def n_slices(self) -> int:
        return self.per_slice_beta.shape[0]


@dataclass(frozen=True)
class TrajectorySeries:
    """p(word | topic, t) curves for a tracked word list of one topic."""

    topic_id: int
    words: tuple[str, ...]
    series: dict[str, np.ndarray]
    slice_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        t = len(self.slice_labels)
        for word in self.words:
            values = self.series[word]
            if len(values) != t:
                raise ValueError(f"series for {word!r} has length {len(values)}, expected {t}")
            if not ((values >= 0) & (values <= 1)).all():
                raise ValueError(f"series for {word!r} leaves [0, 1]")


def slice_seeds_for(base_seed: int, n_slices: int) -> list[int]:
    """Deterministic per-slice seeds: slice 0 keeps the base seed, later
    slices draw from the spawned SeedSequence stream."""
    seeds = [int(base_seed)]
    if n_slices > 1:
        state = np.random.SeedSequence(base_seed).generate_state(n_slices - 1, dtype=np.uint32)
        seeds.extend(int(s) for s in state)
    return seeds


def train_dtm(
    sliced_corpus: Sequence[tuple[TimeSlice, Sequence[BowDoc]]],
    base_hyper: LdaHyperparams,
    kappa: float = 1.0,
    *,
    vocab_size: int,
    warm_start: bool = True,
) -> DtmModel:
    """Train the chained per-slice model over an ordered sliced corpus.

    Empty slices (no documents) inherit the previous slice's topic-word
    rows verbatim; an empty slice 0 starts from the uniform distribution.
    warm_start=False disables assignment initialization from the previous
    slice (the equivalence mode used to compare against independent runs).
    """
    slices_in = list(sliced_corpus)
    if not slices_in:
        raise ValueError("need at least one time slice")
    if not (kappa >= 0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")

    k = base_hyper.k
    seeds = slice_seeds_for(base_hyper.seed, len(slices_in))
    betas = np.empty((len(slices_in), k, vocab_size), dtype=np.float64)
    thetas: list[np.ndarray] = []
    metas: list[TimeSlice] = []
    prev_beta: np.ndarray | None = None

    for t, (meta, bows) in enumerate(slices_in):
        bows = list(bows)
        hyper_t = dataclasses.replace(base_hyper, seed=seeds[t])
        if not bows:
            beta_t = (
                prev_beta.copy()
                if prev_beta is not None
                else np.full((k, vocab_size), 1.0 / vocab_size)
            )
            theta_t = np.zeros((0, k), dtype=np.float64)
            logger.info("slice %d is empty; carrying topic-word rows forward", t)
        else:
            if t == 0 or prev_beta is None:
                eta_kw = None
                init_beta = None
            else:
                eta_kw = base_hyper.eta + kappa * vocab_size * prev_beta
                init_beta = prev_beta if warm_start else None
            model_t = train_lda(bows, vocab_size, hyper_t, eta_kw=eta_kw, init_beta=init_beta)
            beta_t, theta_t = model_t.beta, model_t.theta
        betas[t] = beta_t
        thetas.append(theta_t)
        metas.append(meta)
        prev_beta = beta_t

    return DtmModel(
        slices=metas,
        per_slice_beta=betas,
        per_slice_theta=thetas,
        kappa=kappa,
        base_hyper=base_hyper,
        slice_seeds=seeds,
        vocab_size=vocab_size,
    )


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


def write_trajectory_csv(series_list: Iterable[TrajectorySeries], path: str | Path) -> None:
    """CSV export, one row per (word, slice): topic,word,slice_start,probability."""
    rows = (
        (ts.topic_id, word, label, repr(float(prob)))
        for ts in series_list
        for word in ts.words
        for label, prob in zip(ts.slice_labels, ts.series[word])
    )
    write_csv(path, ("topic", "word", "slice_start", "probability"), rows)


def read_trajectory_csv(path: str | Path) -> list[TrajectorySeries]:
    grouped: dict[int, dict[str, list[tuple[str, float]]]] = {}  # in first-seen order
    for topic, word, label, prob in read_csv(path, ("topic", "word", "slice_start", "probability")):
        grouped.setdefault(int(topic), {}).setdefault(word, []).append((label, float(prob)))
    out: list[TrajectorySeries] = []
    for topic, by_word in grouped.items():
        words = tuple(by_word)
        labels = tuple(label for label, _ in by_word[words[0]])
        for word in words[1:]:
            if tuple(label for label, _ in by_word[word]) != labels:
                raise ValueError(
                    f"{path}: topic {topic} word {word!r} has slice_start dates "
                    f"other than those of word {words[0]!r}"
                )
        series = {w: np.array([p for _, p in by_word[w]], dtype=np.float64) for w in words}
        out.append(
            TrajectorySeries(topic_id=topic, words=words, series=series, slice_labels=labels)
        )
    return out


def save_dtm(model: DtmModel, path: str | Path) -> None:
    """Write the model as a binary model file (see `newstm.modelfile`).

    All slice thetas go into one array of stacked rows; the header records
    each slice's row count, so empty slices survive the round trip.
    """
    meta = {
        "vocab_size": model.vocab_size,
        "kappa": model.kappa,
        "slice_seeds": model.slice_seeds,
        "base_hyper": dataclasses.asdict(model.base_hyper),
        "slices": [
            {
                "index": s.index,
                "start": s.start.isoformat(),
                "end": s.end.isoformat(),
                "doc_ids": list(s.doc_ids),
            }
            for s in model.slices
        ],
        "theta_rows": [theta.shape[0] for theta in model.per_slice_theta],
    }
    arrays = {
        "per_slice_beta": model.per_slice_beta,
        "per_slice_theta": np.concatenate(model.per_slice_theta),
    }
    write_model(path, _FORMAT, meta, arrays)


def _model_from_file(meta: dict, arrays: dict[str, np.ndarray]) -> DtmModel:
    slices = [
        TimeSlice(
            index=int(s["index"]),
            start=datetime.date.fromisoformat(s["start"]),
            end=datetime.date.fromisoformat(s["end"]),
            doc_ids=tuple(s["doc_ids"]),
        )
        for s in meta["slices"]
    ]
    rows = [int(n) for n in meta["theta_rows"]]
    hyper, vocab_size = LdaHyperparams(**meta["base_hyper"]), int(meta["vocab_size"])
    thetas, betas = arrays["per_slice_theta"], arrays["per_slice_beta"]
    if len(rows) != len(slices):
        raise ValueError(f"{len(slices)} slices and {len(rows)} theta row counts")
    if betas.shape != (len(slices), hyper.k, vocab_size):
        raise ValueError(
            f"per_slice_beta has shape {betas.shape}, "
            f"expected {(len(slices), hyper.k, vocab_size)}"
        )
    if thetas.shape[1:] != (hyper.k,):
        raise ValueError(f"per_slice_theta has shape {thetas.shape}, expected {hyper.k} columns")
    if min(rows, default=0) < 0 or sum(rows) != thetas.shape[0]:
        raise ValueError(f"theta row counts {rows} do not add up to {thetas.shape[0]} rows")
    return DtmModel(
        slices=slices,
        per_slice_beta=betas,
        per_slice_theta=np.split(thetas, np.cumsum(rows)[:-1]),
        kappa=float(meta["kappa"]),
        base_hyper=hyper,
        slice_seeds=[int(s) for s in meta["slice_seeds"]],
        vocab_size=vocab_size,
    )


def load_dtm(path: str | Path) -> DtmModel:
    """Read a model written by `save_dtm`; a malformed file raises ValueError."""
    return read_model(path, _FORMAT, "newstm train --mode dtm", _model_from_file)
