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

from newstm.preprocess import _TOKEN_RE, Bows, Vocabulary, _check_thresholds

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
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1:] = sorted_keys.size - starts[-1:]
    return sorted_keys[starts], counts


def _phrase_keys(
    pairs: np.ndarray, unigrams: np.ndarray, min_count: int, threshold: float
) -> np.ndarray:
    """The sorted keys a*U + b (U = len(unigrams)) of the pairs that
    `fit_phrases` would return, scored with its Python-int arithmetic.
    `pairs` holds the key of every adjacent pair, -1 across documents."""
    pairs = np.sort(pairs)
    pairs = pairs[np.searchsorted(pairs, 0) :]
    if threshold > 0:
        # As fit_phrases, a pair counted min_count times or fewer never merges.
        # A key counted more often is the key min_count places further on, so
        # the candidates come without a count of every distinct pair.
        m = min(min_count, pairs.size)
        keys = _runs(pairs[m:][pairs[: pairs.size - m] == pairs[m:]])[0]
        n = np.searchsorted(pairs, keys, side="right") - np.searchsorted(pairs, keys)
    else:
        keys, n = _runs(pairs)
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

    The tokens are `tokenize`'s, found one whitespace-separated word at a
    time: no whitespace character is a token character or '-', so no token
    spans two words. A word whose characters are all alphanumeric
    (`str.isalnum`) is one token without the regex, since `isalnum` holds
    for a code point exactly when `[^\\W_]` matches it.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    stopset = frozenset(stopwords)
    ids_of: dict[str, int] = {}
    intern, findall = ids_of.setdefault, _TOKEN_RE.findall
    flat, lengths, doc_ids = array("q"), array("q"), []
    for doc_id, text in docs:
        start = len(flat)
        for word in text.lower().split():
            if word.isalnum():  # the whole word is one token
                if word not in stopset:
                    flat.append(intern(word, len(ids_of)))
            else:
                for tok in findall(word):
                    if tok not in stopset:
                        flat.append(intern(tok, len(ids_of)))
        lengths.append(len(flat) - start)
        doc_ids.append(doc_id)
    del intern  # a bound method would keep ids_of alive past its `del` below
    if not flat:
        raise ValueError("cannot fit phrases on an empty corpus")
    _check_thresholds(no_below, no_above)
    # Each token-length or id-length array is dropped at its last read; ids is
    # a view of flat.
    ids = np.frombuffer(flat, dtype=np.int64)
    lengths = np.frombuffer(lengths, dtype=np.int64)
    del flat
    words = list(ids_of)  # raw token id -> text
    del ids_of
    n_docs, n_raw, n = lengths.size, len(words), ids.size
    ends = np.cumsum(lengths)

    # Phrases: the key a*U + b of each adjacent pair, -1 across documents.
    pairs = ids[:-1] * n_raw
    pairs += ids[1:]
    doc_starts = ends[:-1]  # a pair across documents ends on a document's start
    pairs[doc_starts[(doc_starts > 0) & (doc_starts < n)] - 1] = -1
    phrases = _phrase_keys(pairs, np.bincount(ids, minlength=n_raw), min_count, threshold)
    found = np.searchsorted(phrases, pairs)
    qualifies = found < phrases.size
    qualifies[qualifies] = phrases[found[qualifies]] == pairs[qualifies]
    del pairs
    # apply_phrases is greedy from the left: in each run of qualifying
    # positions, the merges start at even offsets from the run's start.
    at = np.flatnonzero(qualifies)
    del qualifies
    starts = np.ones(at.size, dtype=bool)
    starts[1:] = at[1:] != at[:-1] + 1
    index = np.arange(at.size)
    run_start = np.maximum.accumulate(np.where(starts, index, 0))
    at = at[(index - run_start) % 2 == 0]
    ids[at] = n_raw + found[at]  # phrase p has id n_raw + p
    del found
    keep = np.ones(n, dtype=bool)
    keep[at + 1] = False
    tokens = ids[keep]
    del ids, keep
    # Each merge drops one token from the document of its pair.
    merged_lengths = lengths - np.bincount(
        np.searchsorted(ends, at, side="right"), minlength=n_docs
    )

    # Vocabulary: ids ordered by first position, filtered by document frequency.
    n_ids = n_raw + phrases.size
    first = np.full(n_ids, tokens.size)
    np.minimum.at(first, tokens, np.arange(tokens.size))
    key = np.repeat(np.arange(n_docs, dtype=np.int64) * n_ids, merged_lengths)
    key += tokens
    del tokens
    key.sort()
    keys, counts = _runs(key)  # the (doc, token) pairs
    del key
    pair_doc, pair_token = np.divmod(keys, n_ids)
    del keys
    df = np.bincount(pair_token, minlength=n_ids)
    # The quotient only for the ids that pass no_below: one float for every
    # distinct token, alive beside the pair arrays, set preprocess's peak on
    # `wide`.
    kept = np.flatnonzero(df >= no_below)
    kept = kept[df[kept] / n_docs <= no_above]
    if not kept.size:
        raise ValueError("vocabulary is empty after frequency filtering")
    logger.info("vocabulary: kept %d of %d distinct tokens", kept.size, np.count_nonzero(df))
    kept = kept[np.argsort(first[kept])]
    kept_df = df[kept]
    del first, df

    def text(token: int) -> str:
        if token < n_raw:
            return words[token]
        a, b = divmod(int(phrases[token - n_raw]), n_raw)
        return words[a] + "_" + words[b]

    id_to_token = tuple(map(text, kept.tolist()))
    del words  # the raw tokens that missed the vocabulary go before the bags are counted

    # Bows: the in-vocabulary (doc, token) pairs, by doc and then word id.
    word_of = np.full(n_ids, -1)
    word_of[kept] = np.arange(kept.size)
    word = word_of[pair_token]
    del word_of, pair_token
    in_vocab = word >= 0
    word = word[in_vocab]
    counts = counts[in_vocab]
    doc = pair_doc[in_vocab]
    del pair_doc, in_vocab
    doc_lengths = np.bincount(doc, minlength=n_docs)
    doc *= kept.size  # the sort key, built in place
    doc += word
    order = np.argsort(doc)
    del doc
    word = word[order]
    counts = counts[order]
    del order
    bows = Bows(doc_ids, doc_lengths, word, counts, kept.size)

    vocab = Vocabulary(
        token_to_id={tok: i for i, tok in enumerate(id_to_token)},
        id_to_token=id_to_token,
        document_frequency=tuple(kept_df.tolist()),
        no_below=no_below,
        no_above=no_above,
        n_docs=n_docs,
    )
    return vocab, bows
