"""Loading, filtering and time-slicing of dated news-article corpora."""

from __future__ import annotations

import datetime
import json
import logging
from bisect import bisect_right
from calendar import monthrange
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from newstm.modelfile import iso_date, json_fields, read_csv, replacing, write_csv

logger = logging.getLogger(__name__)

_FIELD_TYPES = dict.fromkeys(("id", "date", "category", "title", "body"), str)


class CorpusError(ValueError):
    """A corpus file or record violates the expected format."""


@dataclass(frozen=True)
class Document:
    """One dated, categorised article."""

    id: str
    date: datetime.date
    category: str
    title: str
    body: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be nonempty")
        if not self.body and not self.title:
            raise ValueError(f"document {self.id!r}: body may be empty only if title is nonempty")


@dataclass(frozen=True)
class Corpus:
    """An immutable run of documents, sorted nondecreasing by date, with unique ids."""

    documents: tuple[Document, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        prev: datetime.date | None = None
        for doc in self.documents:
            if doc.id in seen:
                raise CorpusError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
            if prev is not None and doc.date < prev:
                raise CorpusError("documents must be sorted nondecreasing by date")
            prev = doc.date

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    @property
    def origin_date(self) -> datetime.date:
        if not self.documents:
            raise ValueError("empty corpus has no origin date")
        return self.documents[0].date

    @property
    def end_date(self) -> datetime.date:
        if not self.documents:
            raise ValueError("empty corpus has no end date")
        return self.documents[-1].date


@dataclass(frozen=True)
class TimeSlice:
    """A half-open date interval [start, end) holding document ids."""

    index: int
    start: datetime.date
    end: datetime.date
    doc_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.doc_ids)


def read_documents(path: str | Path, *, ascending: bool = False) -> Iterator[Document]:
    """Yield the documents of a JSONL corpus file, one article object per
    line, in file order; blank lines are skipped.

    Each record needs string id/date/category/title/body fields; dates are
    written YYYY-MM-DD. Malformed records, duplicate ids and, with
    `ascending`, a date before the previous document's raise CorpusError
    naming the offending line. Only the ids read so far are held, never the
    text.
    """
    path = Path(path)
    seen: dict[str, int] = {}
    previous: tuple[datetime.date, int] | None = None
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            try:
                doc_id, day, category, title, body = json_fields(record, _FIELD_TYPES)
            except ValueError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
            try:
                when = iso_date(day)
            except ValueError as exc:
                raise CorpusError(f"{path}: line {lineno}: unparseable date {day!r}") from exc
            if doc_id in seen:
                raise CorpusError(
                    f"{path}: line {lineno}: duplicate id {doc_id!r} "
                    f"(first seen on line {seen[doc_id]})"
                )
            seen[doc_id] = lineno
            if ascending and previous is not None and when < previous[0]:
                raise CorpusError(
                    f"{path}: line {lineno}: date {when} is before line {previous[1]}'s "
                    f"{previous[0]}; the file must be sorted by date"
                )
            previous = when, lineno
            try:
                doc = Document(doc_id, when, category, title, body)
            except ValueError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
            yield doc


def load_corpus(path: str | Path) -> Corpus:
    """Load a JSONL corpus file with `read_documents`, its errors included.
    The returned corpus is sorted nondecreasing by date (stable, preserving
    file order within a day)."""
    docs = sorted(read_documents(path), key=lambda d: d.date)
    logger.info("loaded %d documents from %s", len(docs), path)
    return Corpus(tuple(docs))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as canonical JSONL (fixed field order, UTF-8, no escaping)."""
    with replacing(path, "w", encoding="utf-8") as fh:
        for doc in corpus:
            fh.write(
                json.dumps(
                    {
                        "id": doc.id,
                        "date": doc.date.isoformat(),
                        "category": doc.category,
                        "title": doc.title,
                        "body": doc.body,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def filter_by_category(corpus: Corpus, keep: Iterable[str]) -> Corpus:
    """Keep exactly the documents whose category is in `keep`, order preserved."""
    keep = set(keep)
    if not keep:
        raise ValueError("keep must be a nonempty set of category tags")
    kept = tuple(doc for doc in corpus if doc.category in keep)
    logger.info("retained %d of %d documents after category filter", len(kept), len(corpus))
    return Corpus(kept)


def _anchor_in_month(year: int, month: int, anchor_day: int) -> datetime.date:
    # Clamp to the month's last day when the anchor does not exist (day 31 in February).
    return datetime.date(year, month, min(anchor_day, monthrange(year, month)[1]))


def max_slices(first_start: datetime.date) -> int:
    """The most monthly slices from `first_start` that end by December 9999,
    the last month a `datetime.date` can hold."""
    return (9999 - first_start.year) * 12 + 12 - first_start.month


def slice_monthly(
    corpus: Iterable[Document],
    anchor_day: int,
    first_start: datetime.date,
    n_slices: int,
) -> list[TimeSlice]:
    """Partition the documents, a Corpus or `read_documents`' stream, into
    month-long slices anchored on `anchor_day`, each holding its ids in the
    order they come.

    Slice t spans [anchor of month m+t, anchor of month m+t+1), with the
    anchor clamped to the month's last day when absent. Documents dated
    outside all slices are excluded and logged, never an error.
    """
    if not 1 <= anchor_day <= 31:
        raise ValueError(f"anchor_day must be in 1..31, got {anchor_day}")
    most = max_slices(first_start)
    if not 1 <= n_slices <= most:
        raise ValueError(f"n_slices must be in 1..{most} from {first_start}, got {n_slices}")
    if first_start != _anchor_in_month(first_start.year, first_start.month, anchor_day):
        raise ValueError(f"first_start {first_start} does not fall on anchor day {anchor_day}")

    bounds = [first_start]
    year, month = first_start.year, first_start.month
    for _ in range(n_slices):
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
        bounds.append(_anchor_in_month(year, month, anchor_day))

    buckets: list[list[str]] = [[] for _ in range(n_slices)]
    excluded = 0
    for doc in corpus:
        if doc.date < bounds[0] or doc.date >= bounds[-1]:
            excluded += 1
            continue
        buckets[bisect_right(bounds, doc.date) - 1].append(doc.id)
    if excluded:
        logger.info(
            "excluded %d documents outside the sliced span %s..%s",
            excluded,
            bounds[0],
            bounds[-1],
        )
    return [
        TimeSlice(index=t, start=bounds[t], end=bounds[t + 1], doc_ids=tuple(buckets[t]))
        for t in range(n_slices)
    ]


def articles_per_day(corpus: Corpus) -> list[tuple[datetime.date, int]]:
    """Zero-filled daily publication counts from origin_date to end_date inclusive."""
    if not len(corpus):
        raise ValueError("articles_per_day requires a nonempty corpus")
    counts = Counter(doc.date for doc in corpus)
    series: list[tuple[datetime.date, int]] = []
    day = corpus.origin_date
    step = datetime.timedelta(days=1)
    while day <= corpus.end_date:
        series.append((day, counts.get(day, 0)))
        day += step
    return series


def write_timeline_csv(series: list[tuple[datetime.date, int]], path: str | Path) -> None:
    write_csv(path, ("date", "count"), ((day.isoformat(), count) for day, count in series))


def _count(field: str) -> int:
    count = int(field)
    if count < 0:
        raise ValueError(f"count {count} is negative")
    return count


def read_timeline_csv(path: str | Path) -> list[tuple[datetime.date, int]]:
    """Read a `write_timeline_csv` export, whose dates strictly ascend."""
    previous: datetime.date | None = None

    def ascending(row: tuple) -> None:
        nonlocal previous
        if previous is not None and row[0] <= previous:
            raise ValueError(f"date {row[0]} is not after {previous}")
        previous = row[0]

    columns = {"date": iso_date, "count": _count}
    return list(read_csv(path, columns, ascending))
