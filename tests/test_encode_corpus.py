"""`encode_corpus`, the integer-id preprocessing behind `newstm preprocess`,
against the string functions it replaces on that path."""

import json
import re
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import DATA_DIR
from newstm import preprocess
from newstm.cli import main
from newstm.corpus import load_corpus
from newstm.encode import encode_corpus
from newstm.preprocess import (
    Bows,
    TokenStream,
    apply_phrases,
    build_vocabulary,
    fit_phrases,
    load_stopwords,
    remove_stopwords,
    to_bow,
    tokenize,
    write_bows,
    write_vocabulary,
)

STOPS = load_stopwords()


def _string_path(docs, stops, min_count, threshold, no_below, no_above):
    """The string functions composed as in `test_pipeline_determinism`."""
    streams = [
        TokenStream(doc_id, remove_stopwords(tokenize(text), stops)) for doc_id, text in docs
    ]
    phrases = fit_phrases(streams, min_count=min_count, threshold=threshold)
    merged = [TokenStream(s.doc_id, apply_phrases(phrases, s.tokens)) for s in streams]
    vocab = build_vocabulary(merged, no_below=no_below, no_above=no_above)
    return vocab, Bows.from_docs([to_bow(s, vocab) for s in merged], len(vocab))


def _encoded(docs, stops, min_count, threshold, no_below, no_above):
    return encode_corpus(
        docs,
        stops,
        min_count=min_count,
        threshold=threshold,
        no_below=no_below,
        no_above=no_above,
    )


def _bytes(vocab, bows, out_dir):
    out_dir.mkdir()
    write_vocabulary(vocab, out_dir / "vocab.json")
    write_bows(bows, out_dir / "bows.newstm")
    return (out_dir / "vocab.json").read_bytes(), (out_dir / "bows.newstm").read_bytes()


def _fixture_docs():
    corpus = load_corpus(DATA_DIR / "sample_news.jsonl")
    return [(doc.id, doc.title + " " + doc.body) for doc in corpus]


def _generated_docs(seed=7, n_docs=400):
    """Seeded articles: Zipf-drawn words from a 300-word pool, stopwords,
    words used once, and planted collocations; some documents are empty,
    one token long or all stopwords."""
    rng = np.random.default_rng(seed)
    pool = [f"ord{i}" for i in range(300)]
    stops = sorted(STOPS)
    planted = ["anders tegnell", "covid-19 vaccin", "region stockholm stad"]
    docs = []
    for d in range(n_docs):
        kind = d % 25
        if kind == 0:
            text = ""
        elif kind == 1:
            text = pool[int(rng.integers(len(pool)))]
        elif kind == 2:
            text = " ".join(rng.choice(stops, 8))
        else:
            words = [pool[i - 1] for i in rng.zipf(1.3, int(rng.integers(5, 60))) if i <= len(pool)]
            words += [stops[int(i)] for i in rng.integers(0, len(stops), 10)]
            words += [f"engång{d}x{i}" for i in range(int(rng.integers(0, 4)))]
            n_planted = int(rng.integers(0, 4))
            words += [planted[int(i)] for i in rng.integers(0, len(planted), n_planted)]
            rng.shuffle(words)
            text = "Rubrik " + ", ".join(words) + "."
        docs.append((f"g{d:04d}", text))
    return docs


def _planted_docs():
    """A run of qualifying pairs (alfa beta alfa beta alfa), a pair split
    across documents (delta | epsilon) and seen inside one once, an all-stopword document, an empty
    document and a one-token document, each repeated past min_count."""
    docs = []
    for r in range(8):
        docs += [
            (f"run{r}", "alfa beta alfa beta alfa gamma"),
            (f"even{r}", "Alfa beta alfa beta"),
            (f"tail{r}", "gamma theta delta"),
            (f"head{r}", "epsilon theta gamma"),
            (f"stop{r}", "och det som"),
            (f"empty{r}", ""),
            (f"one{r}", "zeta"),
        ]
    return docs + [("split", "delta epsilon")]


def _wide_docs(seed=3, n_docs=1000):
    """Articles shaped like the `wide` benchmark corpus: about 60 stopwords,
    15 words used nowhere else and 18 words from a 20,000-word pool each."""
    rng = np.random.default_rng(seed)
    stops = sorted(STOPS)
    docs = []
    for d in range(n_docs):
        words = [stops[int(i)] for i in rng.integers(0, len(stops), 60)]
        words += [f"engång{d}x{i}" for i in range(15)]
        words += [f"ord{int(i)}" for i in rng.integers(0, 20_000, 18)]
        docs.append((f"w{d:04d}", " ".join(rng.permutation(words))))
    return docs


def _adversarial_docs():
    """Text where a whitespace split or `str.isalnum` could part from the
    regex: non-ASCII digits and titlecase letters, a capital whose lowercase
    adds a combining mark (İ), whitespace that only str.split() knows,
    underscores, stray hyphens, and punctuation joined to words and
    stopwords; each document repeated past min_count."""
    texts = [
        "x² ²2 İstanbul ǅemal ǄEMAL ǆ",
        "a\u2003b\x1cc\xa0d\u3000e\x85f a_b _a b_ a__b",
        "covid-19 x--y -a- a- -b covid-19-vaccin covid-19",
        "(ord), ord. ord; «ord» och, Och. “och” ord!ord ord-och",
        "x\u2003x² İ ord\x1dord\u2028ord İSTANBUL",
    ]
    return [(f"a{r}{i}", text) for r in range(6) for i, text in enumerate(texts)]


CORPORA = {
    # name: (docs, no_below, no_above)
    "fixture": (_fixture_docs, 2, 0.5),
    "generated": (_generated_docs, 2, 0.9),
    "planted": (_planted_docs, 1, 1.0),
    "adversarial": (_adversarial_docs, 1, 1.0),
}


@pytest.mark.parametrize("min_count", [1, 2, 5])
@pytest.mark.parametrize("threshold", [-1e9, 0.0, 1.0, 10.0])
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_encode_corpus_writes_the_string_path_bytes(tmp_path, corpus, threshold, min_count):
    make, no_below, no_above = CORPORA[corpus]
    docs = make()
    settings = (STOPS, min_count, threshold, no_below, no_above)
    want = _string_path(docs, *settings)
    got = _encoded(iter(docs), *settings)
    assert got[0] == want[0]
    assert _bytes(*got, tmp_path / "got") == _bytes(*want, tmp_path / "want")


@pytest.mark.parametrize("threshold", [-1e300, -1e9, 1.0])
@pytest.mark.parametrize("min_count", [2**60, 2**70])
def test_encode_corpus_scores_huge_counts_with_python_ints(tmp_path, min_count, threshold):
    """A numerator past int64, or past float64's exact integers, is scored
    as fit_phrases scores it."""
    settings = (STOPS, min_count, threshold, 1, 1.0)
    docs = _planted_docs()
    want = _string_path(docs, *settings)
    assert _bytes(*_encoded(docs, *settings), tmp_path / "got") == _bytes(*want, tmp_path / "want")


def test_encode_corpus_merges_a_run_at_even_offsets():
    docs = [("d0", "alfa beta alfa beta alfa"), ("d1", "beta alfa beta"), ("d2", "alfa")]
    vocab, bows = encode_corpus(docs, (), min_count=1, threshold=-1e9, no_below=1, no_above=1.0)
    assert vocab.id_to_token == ("alfa_beta", "alfa", "beta_alfa", "beta")
    assert bows.doc_lengths.tolist() == [2, 2, 1]
    assert bows.word_ids.tolist() == [0, 1, 2, 3, 1]
    assert bows.counts.tolist() == [2, 1, 1, 1, 1]


def test_a_pair_split_across_documents_is_not_counted():
    """delta | epsilon spans 8 document boundaries but sits inside one
    document once, so it is not counted more than min_count = 1 times."""
    vocab, _ = _encoded(_planted_docs(), STOPS, 1, 1.0, 1, 1.0)
    assert "alfa_beta" in vocab.token_to_id
    assert "delta_epsilon" not in vocab.token_to_id


def _error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize(
    "docs, settings, message",
    [
        ([("d0", "och det"), ("d1", "")], (5, 10.0, 2, 0.5), "cannot fit phrases on an empty"),
        ([("d0", "och det")], (5, 10.0, 0, 5.0), "cannot fit phrases on an empty corpus"),
        ([], (5, 10.0, 2, 0.5), "cannot fit phrases on an empty corpus"),
        ([("d0", "och")], (0, 10.0, 0, 0.5), "min_count must be >= 1, got 0"),
        ([("d0", "alfa beta"), ("d1", "gamma")], (1, 10.0, 2, 0.5), "vocabulary is empty after"),
        ([("d0", "alfa beta"), ("d1", "alfa")], (1, 10.0, 1, 0.4), "vocabulary is empty after"),
        ([("d0", "alfa beta")], (1, 10.0, 0, 0.5), "no_below must be >= 1, got 0"),
        ([("d0", "alfa beta")], (1, 10.0, 1, 1.5), "no_above must be in (0, 1], got 1.5"),
        ([("d0", "alfa"), ("d0", "beta")], (1, 10.0, 1, 1.0), "duplicate document id 'd0'"),
    ],
    ids=[
        "all-stopwords",
        "empty-before-thresholds",
        "no-documents",
        "min-count",
        "all-below-no-below",
        "all-above-no-above",
        "no-below",
        "no-above",
        "repeated-doc-id",
    ],
)
def test_encode_corpus_raises_the_string_paths_error(docs, settings, message):
    want = _error(_string_path, docs, STOPS, *settings)
    assert want.startswith(message)
    assert _error(_encoded, iter(docs), STOPS, *settings) == want


def _write_corpus(path, bodies):
    with path.open("w", encoding="utf-8") as fh:
        for i, body in enumerate(bodies):
            record = {"id": f"a{i}", "date": "2020-03-01", "category": "inrikes"}
            fh.write(json.dumps({**record, "title": "", "body": body}) + "\n")
    return path


@pytest.mark.parametrize(
    "bodies, message",
    [
        (["och det som", "men för"], "cannot fit phrases on an empty corpus"),
        (["alfa beta", "gamma delta"], "vocabulary is empty after frequency filtering"),
    ],
    ids=["all-stopwords", "all-below-no-below"],
)
def test_preprocess_fails_without_writing_its_outputs(tmp_path, caplog, bodies, message):
    corpus = _write_corpus(tmp_path / "corpus.jsonl", bodies)
    config = tmp_path / "run.ini"
    config.write_text(f"[corpus]\npath = {corpus}\n[preprocess]\nno_below = 2\n", encoding="utf-8")
    ws = tmp_path / "ws"
    assert main(["--workspace", str(ws), "--config", str(config), "ingest"]) == 0
    assert main(["--workspace", str(ws), "--config", str(config), "preprocess"]) == 2
    assert message in caplog.text
    assert not (ws / "vocab.json").exists()
    assert not (ws / "bows.newstm").exists()


def test_no_tokenize_output_fails_the_token_stream_check():
    """A token is one or more characters that [^\\W_] matches, joined by
    single hyphens. None of those characters, nor '-', is isspace(), so
    every token passes TokenStream's check and `encode_corpus` skips it;
    and no token spans two of the words str.split() gives, so
    `encode_corpus` can tokenize one word at a time."""
    assert preprocess._TOKEN_RE.pattern == r"[^\W_]+(?:-[^\W_]+)*"
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    token_chars = "".join(re.findall(r"[^\W_]", everything)) + "-"
    assert token_chars.split() == [token_chars]  # no character isspace()
    assert TokenStream("d0", [token_chars]).tokens == (token_chars,)


def test_isalnum_holds_exactly_for_the_token_characters():
    """A word `str.isalnum` accepts is, for the regex, one token: `encode_corpus`
    takes it as one without the regex."""
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    token_chars = "".join(re.findall(r"[^\W_]", everything))
    assert "".join(filter(str.isalnum, everything)) == token_chars
    assert preprocess._TOKEN_RE.fullmatch(token_chars)


# The encoder's peak over the string path's, measured at 0.66 on this corpus
# (4.5 of 6.8 MB). The bound leaves about 20% for object sizes that vary with
# the Python and numpy versions; an encoder that held every document's token
# strings at once would peak above the string path.
PEAK_FRACTION = 0.8


def test_encode_corpus_peaks_below_a_fraction_of_the_string_path():
    docs = _wide_docs()

    def peak(fn):
        tracemalloc.start()
        try:
            fn(iter(docs), STOPS, 5, 10.0, 2, 0.9)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    string_peak, encoded_peak = peak(_string_path), peak(_encoded)
    assert encoded_peak < PEAK_FRACTION * string_peak, (encoded_peak, string_peak)


def test_encode_corpus_holds_at_most_six_token_arrays_beyond_its_interning_loop():
    """On 300,000 tokens from a 2,000-word pool, nearly every adjacent pair
    is distinct. The traced peak after the interning loop, above the loop's
    own peak, is at most six int64 arrays of the token count; counting every
    distinct pair took 9.2."""
    rng = np.random.default_rng(17)
    words = [f"ord{i}" for i in range(2_000)]
    docs = [
        (f"p{d:04d}", " ".join(words[i] for i in rng.integers(0, len(words), 100)))
        for d in range(3_000)
    ]
    loop_peak = []

    def docs_then_reset_peak():
        yield from docs
        loop_peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        encode_corpus(docs_then_reset_peak(), STOPS, min_count=5, threshold=10.0, no_above=0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_tokens = 3_000 * 100
    assert peak - loop_peak[0] <= 6 * 8 * n_tokens, (peak - loop_peak[0]) / (8 * n_tokens)
