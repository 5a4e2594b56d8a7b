"""Model-selection diagnostics: UMass coherence, topic overlap, intertopic map.

All operations are pure functions over an immutable trained model; nothing
here mutates model state.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from newstm.lda import LdaModel, _top_order
from newstm.modelfile import read_csv, replace_text, write_csv
from newstm.preprocess import BowDoc

logger = logging.getLogger(__name__)

LN2 = math.log(2.0)


@dataclass(frozen=True)
class CoherenceReport:
    """Per-topic UMass scores; pairs skipped for zero document frequency are counted."""

    per_topic: tuple[float, ...]
    mean: float
    top_n: int
    skipped_pairs: int


@dataclass(frozen=True)
class IntertopicMap:
    """2-D topic embedding with prevalence weights and, when it is known, the
    distance matrix used."""

    coordinates: np.ndarray  # (k, 2)
    prevalence: np.ndarray  # (k,), sums to 1
    distances: np.ndarray | None = None  # (k, k) symmetric, zero diagonal; not in the CSV
    degenerate: bool = False


def umass_coherence(
    model: LdaModel, corpus: Iterable[BowDoc], top_n: int = 10
) -> CoherenceReport:
    """UMass coherence of each topic's top_n words over the supplied corpus.

    score = sum_{i=2..N} sum_{j<i} log((D(w_i, w_j) + 1) / D(w_j)) with D the
    document occurrence / co-occurrence counts. Pairs whose conditioning word
    never occurs (D(w_j) = 0) are skipped and tallied in the report.
    """
    if top_n < 2:
        raise ValueError(f"top_n must be >= 2, got {top_n}")
    if top_n > model.vocab_size:
        raise ValueError(f"top_n {top_n} exceeds vocabulary size {model.vocab_size}")
    bows = list(corpus)
    if not bows:
        raise ValueError("coherence requires a nonempty corpus")

    top_ids = [
        [int(w) for w in _top_order(model.beta[k], top_n)] for k in range(model.n_topics)
    ]
    needed = {w for ids in top_ids for w in ids}
    docs_with: dict[int, set[int]] = {w: set() for w in needed}
    for d, bow in enumerate(bows):
        for w in needed.intersection(bow.counts):
            if bow.counts[w] > 0:
                docs_with[w].add(d)

    scores: list[float] = []
    skipped = 0
    for ids in top_ids:
        total = 0.0
        for i in range(1, len(ids)):
            for j in range(i):
                d_j = len(docs_with[ids[j]])
                if d_j == 0:
                    skipped += 1
                    continue
                d_ij = len(docs_with[ids[i]] & docs_with[ids[j]])
                total += math.log((d_ij + 1) / d_j)
        scores.append(total)
    return CoherenceReport(
        per_topic=tuple(scores),
        mean=float(sum(scores) / len(scores)),
        top_n=top_n,
        skipped_pairs=skipped,
    )


def topic_overlap(model: LdaModel, top_n: int = 10) -> np.ndarray:
    """K x K Jaccard similarity of the topics' top_n word sets (diagonal 1)."""
    if not 1 <= top_n <= model.vocab_size:
        raise ValueError(f"top_n must be in 1..{model.vocab_size}, got {top_n}")
    sets = [set(int(w) for w in _top_order(model.beta[k], top_n)) for k in range(model.n_topics)]
    k = model.n_topics
    out = np.zeros((k, k), dtype=np.float64)
    for i in range(k):
        for j in range(i, k):
            inter = len(sets[i] & sets[j])
            union = len(sets[i] | sets[j])
            out[i, j] = out[j, i] = inter / union
    return out


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence (natural log): symmetric, bounded by ln 2."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = 0.5 * (p + q)

    def half(a: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / m[mask])))

    return 0.5 * half(p) + 0.5 * half(q)


def _classical_mds(distances: np.ndarray) -> np.ndarray:
    """Torgerson embedding: double-center the squared distances, take the top
    two eigenpairs, scale eigenvectors by sqrt of (clamped) eigenvalues."""
    k = distances.shape[0]
    d2 = distances**2
    j = np.eye(k) - np.full((k, k), 1.0 / k)
    b = -0.5 * (j @ d2 @ j)
    eigvals, eigvecs = np.linalg.eigh(b)
    idx = np.argsort(eigvals)[::-1][:2]
    vals = np.clip(eigvals[idx], 0.0, None)
    vecs = eigvecs[:, idx]
    # Canonical orientation: make each axis's largest-magnitude entry positive.
    for col in range(vecs.shape[1]):
        pivot = int(np.argmax(np.abs(vecs[:, col])))
        if vecs[pivot, col] < 0:
            vecs[:, col] = -vecs[:, col]
    return vecs * np.sqrt(vals)[None, :]


def intertopic_map(model: LdaModel) -> IntertopicMap:
    """2-D topic map: pairwise JS divergences embedded by classical MDS,
    with token-weighted topic prevalences as circle areas.
    """
    k = model.n_topics
    if k < 2:
        raise ValueError(f"intertopic map needs k >= 2, got {k}")
    distances = np.zeros((k, k), dtype=np.float64)
    for i in range(k):
        for j in range(i + 1, k):
            d = js_divergence(model.beta[i], model.beta[j])
            distances[i, j] = distances[j, i] = d

    weights = model.doc_lengths.astype(np.float64)
    if weights.sum() > 0:
        prevalence = (model.theta * weights[:, None]).sum(axis=0) / weights.sum()
    else:
        prevalence = np.full(k, 1.0 / k)

    if distances.max() <= 0.0:
        logger.info("all topics identical; placing every topic at the origin")
        coords = np.zeros((k, 2), dtype=np.float64)
        return IntertopicMap(coords, prevalence, distances, degenerate=True)
    return IntertopicMap(_classical_mds(distances), prevalence, distances, degenerate=False)


def write_coherence_json(report: CoherenceReport, path: str | Path) -> None:
    payload = {
        "format": "newstm-coherence",
        "version": 1,
        "top_n": report.top_n,
        "mean": report.mean,
        "skipped_pairs": report.skipped_pairs,
        "per_topic": list(report.per_topic),
    }
    replace_text(path, json.dumps(payload, ensure_ascii=False))


def write_overlap_json(matrix: np.ndarray, top_n: int, path: str | Path) -> None:
    payload = {
        "format": "newstm-overlap",
        "version": 1,
        "top_n": top_n,
        "jaccard": matrix.tolist(),
    }
    replace_text(path, json.dumps(payload, ensure_ascii=False))


def write_intertopic_csv(topic_map: IntertopicMap, path: str | Path) -> None:
    """CSV export: topic,x,y,prevalence; full float precision."""
    rows = (
        (k, repr(float(x)), repr(float(y)), repr(float(p)))
        for k, ((x, y), p) in enumerate(zip(topic_map.coordinates, topic_map.prevalence))
    )
    write_csv(path, ("topic", "x", "y", "prevalence"), rows)


def read_intertopic_csv(path: str | Path) -> IntertopicMap:
    rows = list(read_csv(path, ("topic", "x", "y", "prevalence")))
    return IntertopicMap(
        coordinates=np.asarray([[float(x), float(y)] for _, x, y, _ in rows], dtype=np.float64),
        prevalence=np.asarray([float(p) for *_, p in rows], dtype=np.float64),
    )
