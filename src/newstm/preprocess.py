"""Text pipeline: tokenise, drop stopwords, merge scored bigrams, build a
document-frequency-filtered vocabulary, encode bag-of-words vectors.

Stage order is fixed: tokenize -> stopwords -> phrases -> vocabulary -> bow.
Lemmatization is an upstream concern; already-lemmatized text passes through
unchanged.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from newstm.modelfile import json_fields, read_model, replace_text, write_model

logger = logging.getLogger(__name__)

# Unicode letters/digits (underscore excluded); hyphens survive only inside a token.
_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*")


def tokenize(text: str) -> list[str]:
    """Lowercase `text` and split on non-letter/non-digit boundaries.

    Intra-word hyphens are preserved ("covid-19" stays one token) and
    digits-only tokens are retained.
    """
    return _TOKEN_RE.findall(text.lower())


def remove_stopwords(tokens: Sequence[str], stoplist: Iterable[str]) -> list[str]:
    """Drop tokens found in `stoplist`, keeping the survivors' relative order."""
    stopset = stoplist if isinstance(stoplist, (set, frozenset)) else set(stoplist)
    return [tok for tok in tokens if tok not in stopset]


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Read a stopword file: UTF-8, one token per line, '#' starts a comment.

    With path=None the bundled Swedish list is used.
    """
    if path is None:
        text = resources.files("newstm").joinpath("data/stopwords_sv.txt").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    words = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            words.add(line)
    return frozenset(words)


@dataclass(frozen=True)
class TokenStream:
    """Ordered lowercase tokens of one document."""

    doc_id: str
    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        for tok in self.tokens:
            if tok.split() != [tok]:  # empty, or holds a character that isspace()
                raise ValueError(
                    f"document {self.doc_id!r}: token {tok!r} is empty or contains whitespace"
                )


def fit_phrases(
    streams: Iterable[TokenStream], min_count: int = 5, threshold: float = 10.0
) -> frozenset[tuple[str, str]]:
    """The adjacent pairs to merge, counted within each stream.

    A bigram (a, b) scores (count(ab) - min_count) * total_tokens /
    (count(a) * count(b)), after Mikolov et al. (2013), and merges when the
    score reaches `threshold`. Unseen bigrams never merge.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    unigrams: Counter[str] = Counter()
    bigrams: Counter[tuple[str, str]] = Counter()
    total = 0
    for stream in streams:
        toks = stream.tokens
        unigrams.update(toks)
        bigrams.update(zip(toks, toks[1:]))
        total += len(toks)
    if total == 0:
        raise ValueError("cannot fit phrases on an empty corpus")
    # A pair counted min_count times or fewer scores <= 0, below any threshold > 0.
    return frozenset(
        (a, b)
        for (a, b), n in bigrams.items()
        if (threshold <= 0 or n > min_count)
        and (n - min_count) * total / (unigrams[a] * unigrams[b]) >= threshold
    )


def apply_phrases(pairs: frozenset[tuple[str, str]], tokens: Sequence[str]) -> list[str]:
    """Greedy left-to-right single pass: adjacent tokens that form one of
    `pairs` become "a_b".

    A merged token is skipped over, so it cannot re-merge within the pass.
    """
    merged: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        if i + 1 < n and (tokens[i], tokens[i + 1]) in pairs:
            merged.append(tokens[i] + "_" + tokens[i + 1])
            i += 2
        else:
            merged.append(tokens[i])
            i += 1
    return merged


@dataclass(frozen=True)
class Vocabulary:
    """Dense token<->id mapping with document frequencies and the filter thresholds."""

    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]
    document_frequency: tuple[int, ...]
    no_below: int
    no_above: float
    n_docs: int

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, token: str) -> int | None:
        return self.token_to_id.get(token)

    def decode(self, word_id: int) -> str:
        return self.id_to_token[word_id]


def _check_thresholds(no_below: int, no_above: float) -> None:
    if no_below < 1:
        raise ValueError(f"no_below must be >= 1, got {no_below}")
    if not 0 < no_above <= 1:
        raise ValueError(f"no_above must be in (0, 1], got {no_above}")


def build_vocabulary(
    streams: Iterable[TokenStream], no_below: int = 2, no_above: float = 0.5
) -> Vocabulary:
    """Assign ids (first-appearance order) to tokens passing the df thresholds.

    A token survives iff no_below <= df and df / n_docs <= no_above.
    """
    _check_thresholds(no_below, no_above)
    streams = list(streams)
    if not streams:
        raise ValueError("cannot build a vocabulary from zero documents")
    # A Counter keeps its keys in first-insertion order: first appearance.
    df = Counter(chain.from_iterable(dict.fromkeys(stream.tokens) for stream in streams))
    n_docs = len(streams)
    kept = [tok for tok, n in df.items() if n >= no_below and n / n_docs <= no_above]
    if not kept:
        raise ValueError("vocabulary is empty after frequency filtering")
    logger.info("vocabulary: kept %d of %d distinct tokens", len(kept), len(df))
    return Vocabulary(
        token_to_id={tok: i for i, tok in enumerate(kept)},
        id_to_token=tuple(kept),
        document_frequency=tuple(df[tok] for tok in kept),
        no_below=no_below,
        no_above=no_above,
        n_docs=n_docs,
    )


@dataclass(frozen=True)
class BowDoc:
    """Sparse word-id -> count representation of one document."""

    doc_id: str
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())


def to_bow(stream: TokenStream, vocab: Vocabulary) -> BowDoc:
    """Encode a token stream against `vocab`; out-of-vocabulary tokens are dropped."""
    counts = Counter(map(vocab.token_to_id.get, stream.tokens))
    counts.pop(None, None)
    return BowDoc(stream.doc_id, dict(sorted(counts.items())))


def _falls(doc_lengths: np.ndarray, word_ids: np.ndarray) -> np.ndarray:
    """Whether each word id after the first is not above the one before it
    in its document: a bool array one shorter than `word_ids`."""
    falls = np.diff(word_ids) <= 0
    if falls.any():  # a fall into the next document's first entry is allowed
        starts = np.cumsum(doc_lengths[:-1])  # the first entries of documents 1..D-1
        falls[starts[(starts > 0) & (starts < word_ids.size)] - 1] = False
    return falls


@dataclass(frozen=True, eq=False)
class Bows:
    """The bags of words of a corpus as compressed sparse rows (CSR).

    Document d owns the doc_lengths[d] entries of `word_ids` and `counts`
    that follow those of documents 0..d-1: its distinct word ids, strictly
    ascending, each with how often it occurs (>= 1). So doc_lengths counts
    distinct words, not tokens. Every word id lies in 0..vocab_size-1, and
    no two documents share a doc id. Construction checks all of this and
    raises ValueError on a fault.
    """

    doc_ids: tuple[str, ...]
    doc_lengths: np.ndarray
    word_ids: np.ndarray
    counts: np.ndarray
    vocab_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "doc_ids", tuple(self.doc_ids))
        seen: set[str] = set()
        for doc_id in self.doc_ids:
            if doc_id in seen:
                raise ValueError(f"duplicate document id {doc_id!r}")
            seen.add(doc_id)
        for name in ("doc_lengths", "word_ids", "counts"):
            array = np.asarray(getattr(self, name))
            if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
                shape = f"{array.dtype}{list(array.shape)}"
                raise ValueError(f"{name} must be a flat integer array, got {shape}")
            object.__setattr__(self, name, array.astype(np.int64, copy=False))
        lengths, ids, counts, v = self.doc_lengths, self.word_ids, self.counts, self.vocab_size
        if v < 1:
            raise ValueError(f"vocab_size must be >= 1, got {v}")
        if lengths.size != len(self.doc_ids) or (lengths.size and lengths.min() < 0):
            raise ValueError(f"need one doc_length >= 0 for each of {len(self.doc_ids)} documents")
        if not int(lengths.sum()) == ids.size == counts.size:
            raise ValueError(
                f"doc_lengths sum to {int(lengths.sum())}, "
                f"but there are {ids.size} word ids and {counts.size} counts"
            )
        if ids.size and (ids.min() < 0 or ids.max() >= v or counts.min() < 1):
            # Name the first bad document, and an id error before a count error.
            bad_id = (ids < 0) | (ids >= v)
            ends = np.cumsum(lengths)
            doc = int(np.searchsorted(ends, np.argmax(bad_id | (counts < 1)), side="right"))
            if bad_id[ends[doc] - lengths[doc] : ends[doc]].any():
                fault = f"word id out of range for vocab_size={v}"
            else:
                fault = "counts must be >= 1"
            raise ValueError(f"document {self.doc_ids[doc]!r}: {fault}")
        falls = _falls(lengths, ids)
        if falls.any():
            doc = int(np.searchsorted(np.cumsum(lengths), np.argmax(falls) + 1, side="right"))
            raise ValueError(f"document {self.doc_ids[doc]!r}: word ids must be strictly ascending")

    @classmethod
    def from_docs(cls, docs: Iterable[BowDoc], vocab_size: int) -> Bows:
        """The documents' bags of words, each laid out in ascending word-id
        order. A bad id or count raises for the first bad document."""
        docs = list(docs)
        counts = [doc.counts for doc in docs]
        lengths = np.fromiter(map(len, counts), dtype=np.int64, count=len(counts))
        n = int(lengths.sum())
        ids = np.fromiter(chain.from_iterable(counts), dtype=np.int64, count=n)
        cnt = np.fromiter(chain.from_iterable(c.values() for c in counts), dtype=np.int64, count=n)
        if _falls(lengths, ids).any():  # only hand-built dicts get here
            order = np.lexsort((ids, np.repeat(np.arange(len(docs)), lengths)))
            ids, cnt = ids[order], cnt[order]
        return cls(tuple(doc.doc_id for doc in docs), lengths, ids, cnt, vocab_size)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def select(self, doc_ids: Sequence[str]) -> Bows:
        """The documents named by `doc_ids`, in that order."""
        row_of = {doc_id: row for row, doc_id in enumerate(self.doc_ids)}
        try:
            rows = np.fromiter(map(row_of.__getitem__, doc_ids), np.int64, count=len(doc_ids))
        except KeyError as exc:
            raise ValueError(f"no bag of words for document {exc.args[0]!r}") from None
        lengths = self.doc_lengths[rows]
        starts = np.cumsum(self.doc_lengths) - self.doc_lengths
        # Entry j of a selected row sits at its start + j; `lengths` entries per row.
        entries = np.repeat(starts[rows] - (np.cumsum(lengths) - lengths), lengths)
        entries += np.arange(entries.size)
        return Bows(
            tuple(doc_ids), lengths, self.word_ids[entries], self.counts[entries], self.vocab_size
        )


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Export as JSON: the tokens and their document frequencies, each a list
    indexed by word id, plus the filter thresholds."""
    payload = {
        "format": "newstm-vocab",
        "version": 2,
        "no_below": vocab.no_below,
        "no_above": vocab.no_above,
        "n_docs": vocab.n_docs,
        "tokens": vocab.id_to_token,
        "document_frequency": vocab.document_frequency,
    }
    replace_text(path, json.dumps(payload, ensure_ascii=False))


_VOCAB_TYPES = dict(
    tokens=list[str], document_frequency=list[int], no_below=int, no_above=float, n_docs=int
)


def read_vocabulary(path: str | Path) -> Vocabulary:
    """Read a `write_vocabulary` export; a malformed one raises ValueError
    naming `path` and `newstm preprocess`, which rewrites it."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if json_fields(payload, {"format": str, "version": int}) != ("newstm-vocab", 2):
            raise ValueError("not a version 2 newstm-vocab file")
        tokens, df, no_below, no_above, n_docs = json_fields(payload, _VOCAB_TYPES)
        token_to_id = {tok: i for i, tok in enumerate(tokens)}
        if len(token_to_id) != len(tokens):
            raise ValueError("tokens must be a list of strings, none of them repeated")
        if len(df) != len(tokens):
            raise ValueError(f"document_frequency must be a list of {len(tokens)} counts")
        # build_vocabulary never writes a value outside these ranges.
        _check_thresholds(no_below, no_above)
        if n_docs < 1:
            raise ValueError(f"n_docs must be >= 1, got {n_docs}")
        for token, count in zip(tokens, df):
            if not no_below <= count <= n_docs:
                raise ValueError(
                    f"token {token!r} has document frequency {count}, not in {no_below}..{n_docs}"
                )
            if not count / n_docs <= no_above:  # as build_vocabulary filters
                raise ValueError(
                    f"token {token!r} has document frequency {count} of {n_docs} documents, "
                    f"above no_above {no_above}"
                )
        return Vocabulary(token_to_id, tuple(tokens), tuple(df), no_below, no_above, n_docs)
    except ValueError as exc:
        raise ValueError(
            f"{path}: not a valid vocabulary export ({exc}); re-run `newstm preprocess`"
        ) from exc


_BOWS_FORMAT = "newstm-bows"


def write_bows(bows: Bows, path: str | Path) -> None:
    """Write the bags of words as a `newstm.modelfile` file: the doc ids and
    vocab_size in the header, then doc_lengths, word_ids and counts."""
    meta = {"doc_ids": list(bows.doc_ids), "vocab_size": bows.vocab_size}
    arrays = {"doc_lengths": bows.doc_lengths, "word_ids": bows.word_ids, "counts": bows.counts}
    write_model(path, _BOWS_FORMAT, meta, arrays)


def _bows_from_file(meta: dict, arrays: dict[str, np.ndarray]) -> Bows:
    doc_ids, vocab_size = json_fields(meta, {"doc_ids": list[str], "vocab_size": int})
    return Bows(doc_ids, arrays["doc_lengths"], arrays["word_ids"], arrays["counts"], vocab_size)


def read_bows(path: str | Path) -> Bows:
    """Read a `write_bows` file. A malformed file, or one whose arrays fail
    the `Bows` checks, raises one ValueError naming `path`."""
    return read_model(path, _BOWS_FORMAT, "newstm preprocess", _bows_from_file)
