"""The topic-change exports `report` writes and `plot` reads, free of numpy.

`TrajectorySeries` and `IntertopicMap` are the records behind
`trajectories.csv` and `intertopic.csv`. The writers take records holding
numpy arrays, as `dtm.trajectory`, `dtm.read_trajectories` and
`evaluate.intertopic_map` build them, or tuples of floats, as the readers
here return them; `newstm.viz` draws either. So `plot` loads no numpy.
"""

from __future__ import annotations

import datetime
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from newstm.modelfile import finite_float, iso_date, read_csv, write_csv

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class TrajectorySeries:
    """p(word | topic, t) curves for a tracked word list of one topic; each
    curve is a 1-D array or a tuple of floats."""

    topic_id: int
    words: tuple[str, ...]
    series: dict[str, Sequence[float]]
    slice_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        t = len(self.slice_labels)
        if sorted(self.words) != sorted(self.series):  # the words, each once
            raise ValueError(f"series has the words {list(self.series)}, not {list(self.words)}")
        for word in self.words:
            values = self.series[word]
            shape = tuple(values.shape) if hasattr(values, "shape") else (len(values),)
            if shape != (t,):
                raise ValueError(f"series for {word!r} has shape {shape}, not ({t},)")
            if not all(0 <= value <= 1 for value in values):  # false for nan too
                raise ValueError(f"series for {word!r} leaves [0, 1]")


@dataclass(frozen=True)
class IntertopicMap:
    """2-D topic embedding with prevalence weights and, when it is known, the
    distance matrix used. Coordinates and prevalences are arrays, or tuples
    of floats as `read_intertopic_csv` gives them."""

    coordinates: Sequence[Sequence[float]]  # (k, 2)
    prevalence: Sequence[float]  # (k,), sums to 1
    distances: np.ndarray | None = None  # (k, k) symmetric, zero diagonal; not in the CSV
    degenerate: bool = False


def write_trajectory_csv(series_list: Iterable[TrajectorySeries], path: str | Path) -> None:
    """CSV export, one row per (word, slice): topic,word,slice_start,probability."""
    rows = (
        (ts.topic_id, word, label, repr(float(prob)))
        for ts in series_list
        for word in ts.words
        for label, prob in zip(ts.slice_labels, ts.series[word])
    )
    write_csv(path, ("topic", "word", "slice_start", "probability"), rows)


def _probability(field: str) -> float:
    value = float(field)
    if not 0 <= value <= 1:  # false for nan too
        raise ValueError(f"probability {value} is not in [0, 1]")
    return value


def read_trajectory_csv(path: str | Path) -> list[TrajectorySeries]:
    """Read a `write_trajectory_csv` export: each word's slice_start dates
    strictly ascend, and each topic's words share one list of dates."""
    grouped: dict[int, dict[str, list[tuple[str, float]]]] = {}  # in first-seen order
    latest: dict[tuple[int, str], datetime.date] = {}  # each word's last slice_start so far

    def ascending(row: tuple) -> None:
        topic, word, label, _ = row
        before = latest.get((topic, word))
        if before is not None and label <= before:
            raise ValueError(
                f"topic {topic} word {word!r}: slice_start {label} is not after {before}"
            )
        latest[topic, word] = label

    columns = {"topic": int, "word": str, "slice_start": iso_date, "probability": _probability}
    for topic, word, label, prob in read_csv(path, columns, ascending):
        grouped.setdefault(topic, {}).setdefault(word, []).append((label.isoformat(), prob))
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
        series = {w: tuple(p for _, p in by_word[w]) for w in words}
        out.append(
            TrajectorySeries(topic_id=topic, words=words, series=series, slice_labels=labels)
        )
    return out


def write_intertopic_csv(topic_map: IntertopicMap, path: str | Path) -> None:
    """CSV export: topic,x,y,prevalence; full float precision."""
    rows = (
        (k, repr(float(x)), repr(float(y)), repr(float(p)))
        for k, ((x, y), p) in enumerate(zip(topic_map.coordinates, topic_map.prevalence))
    )
    write_csv(path, ("topic", "x", "y", "prevalence"), rows)


def _prevalence(field: str) -> float:
    value = finite_float(field)
    if value < 0:
        raise ValueError(f"prevalence {value} is negative")
    return value


def read_intertopic_csv(path: str | Path) -> IntertopicMap:
    """Read a `write_intertopic_csv` export, whose topics are 0..K-1 in row order."""
    order = itertools.count()

    def in_row_order(row: tuple) -> None:
        expected = next(order)
        if row[0] != expected:
            raise ValueError(f"topic {row[0]} where topic {expected} belongs (0..K-1 in row order)")

    columns = {"topic": int, "x": finite_float, "y": finite_float, "prevalence": _prevalence}
    rows = list(read_csv(path, columns, in_row_order))
    return IntertopicMap(
        coordinates=tuple((x, y) for _, x, y, _ in rows),
        prevalence=tuple(p for *_, p in rows),
    )
