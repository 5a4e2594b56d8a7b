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
from pathlib import Path
from typing import Iterable, Sequence

from newstm.modelfile import replace_text, replacing

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


@dataclass(frozen=True)
class PhraseModel:
    """Corpus counts backing the bigram score.

    A bigram (a, b) scores (count(ab) - min_count) * total_tokens /
    (count(a) * count(b)) and qualifies for merging when the score reaches
    `threshold`. Unseen bigrams never qualify.
    """

    unigram_counts: dict[str, int]
    bigram_counts: dict[tuple[str, str], int]
    total_tokens: int
    min_count: int
    threshold: float

    def score(self, first: str, second: str) -> float:
        pair_count = self.bigram_counts.get((first, second), 0)
        if pair_count == 0:
            return float("-inf")
        return (
            (pair_count - self.min_count)
            * self.total_tokens
            / (self.unigram_counts[first] * self.unigram_counts[second])
        )

    def qualifies(self, first: str, second: str) -> bool:
        return self.score(first, second) >= self.threshold


def fit_phrases(
    streams: Iterable[TokenStream], min_count: int = 5, threshold: float = 10.0
) -> PhraseModel:
    """Count unigrams and adjacent bigrams over the streams and fix the score cutoffs."""
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
    return PhraseModel(dict(unigrams), dict(bigrams), total, min_count, threshold)


def apply_phrases(model: PhraseModel, tokens: Sequence[str]) -> list[str]:
    """Greedy left-to-right single pass: qualifying adjacent pairs become "a_b".

    A merged token is skipped over, so it cannot re-merge within the pass.
    """
    merged: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        if i + 1 < n and model.qualifies(tokens[i], tokens[i + 1]):
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


def build_vocabulary(
    streams: Iterable[TokenStream], no_below: int = 2, no_above: float = 0.5
) -> Vocabulary:
    """Assign ids (first-appearance order) to tokens passing the df thresholds.

    A token survives iff no_below <= df and df / n_docs <= no_above.
    """
    if no_below < 1:
        raise ValueError(f"no_below must be >= 1, got {no_below}")
    if not 0 < no_above <= 1:
        raise ValueError(f"no_above must be in (0, 1], got {no_above}")
    streams = list(streams)
    if not streams:
        raise ValueError("cannot build a vocabulary from zero documents")
    df: Counter[str] = Counter()
    first_seen: list[str] = []
    known: set[str] = set()
    for stream in streams:
        for tok in dict.fromkeys(stream.tokens):
            if tok not in known:
                known.add(tok)
                first_seen.append(tok)
            df[tok] += 1
    n_docs = len(streams)
    kept = [tok for tok in first_seen if df[tok] >= no_below and df[tok] / n_docs <= no_above]
    if not kept:
        raise ValueError("vocabulary is empty after frequency filtering")
    logger.info("vocabulary: kept %d of %d distinct tokens", len(kept), len(first_seen))
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
    counts: dict[int, int] = {}
    for tok in stream.tokens:
        wid = vocab.encode(tok)
        if wid is not None:
            counts[wid] = counts.get(wid, 0) + 1
    return BowDoc(stream.doc_id, dict(sorted(counts.items())))


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Export as JSON: {token: id} plus per-id document frequencies and thresholds."""
    payload = {
        "format": "newstm-vocab",
        "version": 1,
        "no_below": vocab.no_below,
        "no_above": vocab.no_above,
        "n_docs": vocab.n_docs,
        "tokens": vocab.token_to_id,
        "document_frequency": {str(i): df for i, df in enumerate(vocab.document_frequency)},
    }
    replace_text(path, json.dumps(payload, ensure_ascii=False))


def read_vocabulary(path: str | Path) -> Vocabulary:
    """Read a `write_vocabulary` export; a malformed one raises ValueError naming `path`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") != "newstm-vocab":
            raise ValueError(f"format is {payload.get('format')!r}")
        token_to_id = {str(tok): int(i) for tok, i in payload["tokens"].items()}
        df = {int(key): int(value) for key, value in payload["document_frequency"].items()}
        ids = list(range(len(token_to_id)))
        if sorted(token_to_id.values()) != ids:
            raise ValueError(f"token ids must be 0..{len(ids) - 1}, each used once")
        if sorted(df) != ids:
            raise ValueError(f"document frequencies must be given for ids 0..{len(ids) - 1}")
        id_to_token = sorted(token_to_id, key=token_to_id.__getitem__)
        return Vocabulary(
            token_to_id=token_to_id,
            id_to_token=tuple(id_to_token),
            document_frequency=tuple(df[i] for i in ids),
            no_below=int(payload["no_below"]),
            no_above=float(payload["no_above"]),
            n_docs=int(payload["n_docs"]),
        )
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a valid vocabulary export ({exc})") from exc


def write_bows(bows: Iterable[BowDoc], path: str | Path) -> None:
    """One JSON object per line: {"doc_id": ..., "counts": {word_id: count}}."""
    with replacing(path, "w", encoding="utf-8") as fh:
        for bow in bows:
            record = {
                "doc_id": bow.doc_id,
                "counts": {str(w): c for w, c in sorted(bow.counts.items())},
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_bows(path: str | Path) -> list[BowDoc]:
    """Read a `write_bows` export; a malformed line raises ValueError naming it."""
    bows: list[BowDoc] = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                counts = {int(w): int(c) for w, c in record["counts"].items()}
                doc_id = str(record["doc_id"])
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {lineno}: invalid JSON ({exc.msg})") from exc
            except (AttributeError, LookupError, TypeError, ValueError) as exc:
                fault = f"not a bag-of-words record ({exc})"
                raise ValueError(f"{path} line {lineno}: {fault}") from exc
            if counts and min(counts.values()) < 1:
                raise ValueError(f"{path} line {lineno}: counts must be >= 1")
            bows.append(BowDoc(doc_id, dict(sorted(counts.items()))))
    return bows
