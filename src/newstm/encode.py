"""Integer-id preprocessing: the text pipeline of `newstm.preprocess` run on
token ids, giving the same vocabulary and bags of words.

`newstm preprocess` calls `encode_corpus`; the string functions in
`newstm.preprocess` stay the library API and the reference it is tested
against. This module is imported only by that command.
"""

from __future__ import annotations

import logging
from array import array
from typing import Iterable

import numpy as np

from newstm.preprocess import Bows, Vocabulary, _check_thresholds, remove_stopwords, tokenize

logger = logging.getLogger(__name__)


# Uniquing is a sort plus a boundary mask, never plain np.unique: numpy 2.4's
# np.unique counts integers in a hash table, which tracemalloc does not see.
# On 100,000 int64 keys it raised peak RSS by 7.0 MB, a sort and mask by 2.1 MB.
def _runs(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array, and how often each occurs."""
    starts = np.empty(sorted_keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    return sorted_keys[starts], np.diff(np.append(starts, sorted_keys.size))


def _phrase_keys(
    pairs: np.ndarray, unigrams: np.ndarray, min_count: int, threshold: float
) -> np.ndarray:
    """The sorted keys a*U + b (U = len(unigrams)) of the pairs that
    `fit_phrases` would return, scored with its Python-int arithmetic.
    `pairs` holds the key of every within-document pair and is sorted in
    place."""
    pairs.sort()
    keys, n = _runs(pairs)
    if threshold > 0:  # as fit_phrases: a pair counted min_count times or fewer never merges
        keys, n = keys[n > min_count], n[n > min_count]
    total = int(unigrams.sum())
    count_a, count_b = (unigrams[ids].tolist() for ids in np.divmod(keys, unigrams.size))
    scores = (
        (c - min_count) * total / (a * b) for c, a, b in zip(n.tolist(), count_a, count_b)
    )
    qualifies = np.fromiter((score >= threshold for score in scores), dtype=bool, count=keys.size)
    return keys[qualifies]


def encode_corpus(
    docs: Iterable[tuple[str, str]],
    stopwords: Iterable[str],
    *,
    min_count: int = 5,
    threshold: float = 10.0,
    no_below: int = 2,
    no_above: float = 0.5,
) -> tuple[Vocabulary, Bows]:
    """The vocabulary and bags of words of (doc_id, text) pairs.

    They equal, and write to the same bytes as, what the string functions
    give: TokenStreams of `remove_stopwords(tokenize(text), stopwords)`,
    `fit_phrases`, `apply_phrases`, `build_vocabulary`, then `to_bow` and
    `Bows.from_docs`; a bad argument or an empty result raises the same
    ValueError. The work runs on integer ids: each kept token is interned
    once, in first-appearance order, and the phrases, the vocabulary and
    the bags are counted in numpy. `tokenize` never yields a token that
    fails the TokenStream check, so none is made.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    stopset = frozenset(stopwords)
    ids_of: dict[str, int] = {}
    flat, lengths, doc_ids = array("q"), array("q"), []
    for doc_id, text in docs:
        kept = [
            ids_of.setdefault(tok, len(ids_of)) for tok in remove_stopwords(tokenize(text), stopset)
        ]
        flat.extend(kept)
        lengths.append(len(kept))
        doc_ids.append(doc_id)
    if not flat:
        raise ValueError("cannot fit phrases on an empty corpus")
    _check_thresholds(no_below, no_above)
    ids = np.array(flat, dtype=np.int64)
    lengths = np.array(lengths, dtype=np.int64)
    del flat
    words = list(ids_of)  # raw token id -> text
    del ids_of
    n_docs, n_raw = lengths.size, len(words)

    # Phrases: the key a*U + b of each adjacent pair, -1 across documents.
    doc_of = np.repeat(np.arange(n_docs), lengths)
    inside = doc_of[1:] == doc_of[:-1]
    pairs = ids[:-1] * n_raw + ids[1:]
    pairs[~inside] = -1
    phrases = _phrase_keys(pairs[inside], np.bincount(ids, minlength=n_raw), min_count, threshold)
    found = np.searchsorted(phrases, pairs)
    qualifies = found < phrases.size
    qualifies[qualifies] = phrases[found[qualifies]] == pairs[qualifies]
    # apply_phrases is greedy from the left: in each run of qualifying
    # positions, the merges start at even offsets from the run's start.
    starts = qualifies.copy()
    starts[1:] &= ~qualifies[:-1]
    at = np.arange(qualifies.size)
    run_start = np.maximum.accumulate(np.where(starts, at, 0))
    at = np.flatnonzero(qualifies & ((at - run_start) % 2 == 0))
    tokens = ids.copy()
    tokens[at] = n_raw + found[at]  # phrase p has id n_raw + p
    keep = np.ones(tokens.size, dtype=bool)
    keep[at + 1] = False
    tokens, doc_of = tokens[keep], doc_of[keep]
    del ids, pairs, found, qualifies, starts, run_start, keep

    # Vocabulary: ids ordered by first position, filtered by document frequency.
    n_ids = n_raw + phrases.size
    first = np.full(n_ids, tokens.size)
    np.minimum.at(first, tokens, np.arange(tokens.size))
    keys, counts = _runs(np.sort(doc_of * n_ids + tokens))  # the (doc, token) pairs
    del tokens, doc_of
    pair_doc, pair_token = np.divmod(keys, n_ids)
    df = np.bincount(pair_token, minlength=n_ids)
    kept = np.flatnonzero((df >= no_below) & (df / n_docs <= no_above))
    if not kept.size:
        raise ValueError("vocabulary is empty after frequency filtering")
    logger.info("vocabulary: kept %d of %d distinct tokens", kept.size, np.count_nonzero(df))
    kept = kept[np.argsort(first[kept])]

    # Bows: the in-vocabulary (doc, token) pairs, by doc and then word id.
    word_of = np.full(n_ids, -1)
    word_of[kept] = np.arange(kept.size)
    word = word_of[pair_token]
    in_vocab = word >= 0
    doc, word, counts = pair_doc[in_vocab], word[in_vocab], counts[in_vocab]
    order = np.argsort(doc * kept.size + word)
    bows = Bows(doc_ids, np.bincount(doc, minlength=n_docs), word[order], counts[order], kept.size)
    del pair_doc, pair_token, word_of, word, in_vocab, doc, counts, order

    def text(token: int) -> str:
        if token < n_raw:
            return words[token]
        a, b = divmod(int(phrases[token - n_raw]), n_raw)
        return words[a] + "_" + words[b]

    id_to_token = tuple(map(text, kept.tolist()))
    vocab = Vocabulary(
        token_to_id={tok: i for i, tok in enumerate(id_to_token)},
        id_to_token=id_to_token,
        document_frequency=tuple(df[kept].tolist()),
        no_below=no_below,
        no_above=no_above,
        n_docs=n_docs,
    )
    return vocab, bows
