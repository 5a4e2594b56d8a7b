import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from newstm.modelfile import write_model
from newstm.preprocess import (
    BowDoc,
    Bows,
    TokenStream,
    apply_phrases,
    build_vocabulary,
    fit_phrases,
    load_stopwords,
    read_bows,
    read_vocabulary,
    remove_stopwords,
    to_bow,
    tokenize,
    write_bows,
    write_vocabulary,
)


def test_tokenize_strips_punctuation_and_lowercases():
    assert tokenize("Folkhälsomyndigheten rekommenderar munskydd.") == [
        "folkhälsomyndigheten",
        "rekommenderar",
        "munskydd",
    ]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_preserves_intra_word_hyphens():
    assert tokenize("covid-19 i Sverige") == ["covid-19", "i", "sverige"]


def test_tokenize_keeps_digit_tokens_and_splits_on_underscore():
    assert tokenize("paragraf 19_b") == ["paragraf", "19", "b"]


def test_tokenize_strips_dangling_hyphens():
    assert tokenize("-virus- sa hon") == ["virus", "sa", "hon"]


def test_remove_stopwords():
    assert remove_stopwords(["i", "sverige"], {"i"}) == ["sverige"]
    assert remove_stopwords(["och", "och"], {"och"}) == []
    tokens = ["a", "b", "a"]
    assert remove_stopwords(tokens, set()) == tokens


def test_bundled_stopwords_load():
    stops = load_stopwords()
    assert "och" in stops and "att" in stops
    assert all(tok == tok.lower() for tok in stops)


def test_stopword_file_comments_and_blanks(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment\nordet\n\nandra # trailing\n", encoding="utf-8")
    assert load_stopwords(path) == {"ordet", "andra"}


def _phrase_corpus():
    # 10 tokens; "anders tegnell" adjacent 3 times, both unigrams count 3.
    tokens = ["anders", "tegnell", "x", "anders", "tegnell", "y", "anders", "tegnell", "z", "w"]
    return [TokenStream("d0", tokens)]


def _bigram_oracle(streams, min_count):
    """Each bigram seen inside a stream -> (its count, its score), counted
    token by token: (count(ab) - min_count) * total / (count(a) * count(b))."""
    unigrams, bigrams = Counter(), Counter()
    for stream in streams:
        toks = stream.tokens
        for i in range(len(toks)):
            unigrams[toks[i]] += 1
            if i + 1 < len(toks):
                bigrams[toks[i], toks[i + 1]] += 1
    total = sum(unigrams.values())
    return {
        (a, b): (n, (n - min_count) * total / (unigrams[a] * unigrams[b]))
        for (a, b), n in bigrams.items()
    }


def test_phrase_score_matches_hand_computation():
    # (count(ab) - min_count) * total / (count(a) * count(b)) = (3-1)*10/(3*3)
    pair = ("anders", "tegnell")
    assert _bigram_oracle(_phrase_corpus(), 1)[pair] == (3, 20 / 9)
    assert pair in fit_phrases(_phrase_corpus(), min_count=1, threshold=20 / 9)
    above = math.nextafter(20 / 9, math.inf)
    assert pair not in fit_phrases(_phrase_corpus(), min_count=1, threshold=above)


def test_phrase_merge_emits_joined_token():
    pairs = fit_phrases(_phrase_corpus(), min_count=1, threshold=1.0)
    merged = apply_phrases(pairs, ["anders", "tegnell", "x"])
    assert merged == ["anders_tegnell", "x"]


def test_phrase_score_zero_at_min_count_boundary():
    # count(ab) == min_count makes the numerator zero: never merged for threshold > 0.
    streams = [TokenStream("d0", ["a", "b", "c", "d"])]
    assert _bigram_oracle(streams, 1)[("a", "b")] == (1, 0.0)
    assert fit_phrases(streams, min_count=1, threshold=0.5) == frozenset()
    assert ("a", "b") in fit_phrases(streams, min_count=1, threshold=0.0)


def test_unseen_bigram_never_merges():
    pairs = fit_phrases(_phrase_corpus(), min_count=1, threshold=-100.0)
    assert ("x", "z") not in pairs
    assert pairs == set(_bigram_oracle(_phrase_corpus(), 1))
    assert apply_phrases(pairs, ["x", "z"]) == ["x", "z"]


def test_a_pair_split_across_two_documents_is_neither_counted_nor_merged():
    # (a, b) and (c, c) only ever span a boundary between two documents.
    streams = [TokenStream(f"d{i}", ["b", "c"] if i % 2 else ["c", "a"]) for i in range(10)]
    pairs = fit_phrases(streams, min_count=1, threshold=-1e9)  # every counted pair merges
    assert pairs == {("c", "a"), ("b", "c")} == set(_bigram_oracle(streams, 1))
    joined = [TokenStream("all", [tok for s in streams for tok in s.tokens])]
    assert ("a", "b") in fit_phrases(joined, min_count=1, threshold=-1e9)
    assert [apply_phrases(pairs, s.tokens) for s in streams[:2]] == [["c_a"], ["b_c"]]
    assert apply_phrases(pairs, ["a", "b"]) == ["a", "b"]


def test_apply_phrases_empty_and_identity():
    pairs = fit_phrases(_phrase_corpus(), min_count=1, threshold=1.0)
    assert apply_phrases(pairs, []) == []
    assert apply_phrases(pairs, ["z", "w", "x"]) == ["z", "w", "x"]


def test_apply_phrases_no_remerge_in_single_pass():
    # scores: (a,b) = (5-1)*20/(5*15) = 1.07, (b,b) = (10-1)*20/(15*15) = 0.8
    streams = [TokenStream("d0", ["a", "b"] * 5 + ["b", "b"] * 5)]
    pairs = fit_phrases(streams, min_count=1, threshold=0.7)
    assert {("a", "b"), ("b", "b")} <= pairs
    # Greedy pass merges (a, b) then moves past it; the emitted "a_b" cannot
    # combine with the following "b".
    assert apply_phrases(pairs, ["a", "b", "b"]) == ["a_b", "b"]


def test_apply_phrases_shortens_or_preserves_length():
    pairs = fit_phrases(_phrase_corpus(), min_count=1, threshold=1.0)
    for tokens in (["anders", "tegnell"] * 3, ["x"], [], ["anders"] * 4):
        assert len(apply_phrases(pairs, tokens)) <= len(tokens)


@pytest.mark.parametrize("threshold", [-1e9, 0.0, 10.0])
def test_qualifies_matches_the_score_rule(threshold):
    # Pairs counted below, at and above min_count=2 over 100 tokens: (a, b)
    # 4 times scores 8, (x, y) 3 times scores 11.1, (b, a) twice scores 0.
    tokens = "a b a b a b c d c d e f a c e g b d f h a b g h x y x y x y".split()
    tokens += [f"f{i}" for i in range(70)]
    streams = [TokenStream("d0", tokens)]
    pairs = fit_phrases(streams, min_count=2, threshold=threshold)
    oracle = _bigram_oracle(streams, 2)
    assert pairs == {pair for pair, (_, score) in oracle.items() if score >= threshold}
    qualifying = {oracle[pair][0] for pair in pairs}
    # Below 0 a pair seen fewer than min_count times merges; at 0 one seen exactly that often.
    assert qualifying == {-1e9: {1, 2, 3, 4}, 0.0: {2, 3, 4}, 10.0: {3}}[threshold]


def test_fit_phrases_validates_inputs():
    with pytest.raises(ValueError):
        fit_phrases(_phrase_corpus(), min_count=0)
    with pytest.raises(ValueError):
        fit_phrases([], min_count=1)
    with pytest.raises(ValueError):
        fit_phrases([TokenStream("d0", [])], min_count=1)


def test_token_stream_rejects_bad_tokens():
    with pytest.raises(ValueError):
        TokenStream("d0", ["ok", ""])
    with pytest.raises(ValueError):
        TokenStream("d0", ["two words"])


def test_token_check_agrees_with_a_per_character_isspace_test():
    """TokenStream tests each token with one str.split(); that rejects
    exactly the tokens that are empty or hold a character with isspace()."""

    def per_character(tok):
        return not tok or any(ch.isspace() for ch in tok)

    def per_token(tok):
        return tok.split() != [tok]

    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    for tokens in (chars, [f"a{c}b" for c in chars]):
        assert list(map(per_character, tokens)) == list(map(per_token, tokens))
    for tok in ("", "\u00a0", "a\u2028b", "\u001c", "a\u0085b"):
        assert per_character(tok)
        with pytest.raises(ValueError, match="empty or contains whitespace"):
            TokenStream("d0", ["ok", tok])
    for tok in ("\u200b", "a\u200bb"):  # zero-width space is not whitespace to Python
        assert not per_character(tok)
        assert TokenStream("d0", [tok]).tokens == (tok,)


def _streams(docs: dict[str, list[str]]):
    return [TokenStream(doc_id, tokens) for doc_id, tokens in docs.items()]


def test_vocabulary_drops_rare_tokens():
    streams = _streams({"d0": ["vanlig", "sällsynt"], "d1": ["vanlig"]})
    vocab = build_vocabulary(streams, no_below=2, no_above=1.0)
    assert vocab.encode("vanlig") == 0
    assert vocab.encode("sällsynt") is None


def test_vocabulary_vacuous_thresholds_keep_everything():
    streams = _streams({"d0": ["a", "b"], "d1": ["c"]})
    vocab = build_vocabulary(streams, no_below=1, no_above=1.0)
    assert len(vocab) == 3
    assert vocab.id_to_token == ("a", "b", "c")  # first-appearance order


def test_vocabulary_drops_ubiquitous_tokens():
    streams = _streams(
        {
            "d0": ["allestädes", "x"],
            "d1": ["allestädes", "y"],
            "d2": ["allestädes", "x"],
            "d3": ["allestädes", "y"],
        }
    )
    # df("allestädes") = 4/4 > 0.5 drops it; df("x") = 2/4 sits exactly on the cap.
    vocab = build_vocabulary(streams, no_below=1, no_above=0.5)
    assert vocab.encode("allestädes") is None
    assert vocab.encode("x") is not None


def test_vocabulary_empty_after_filtering_raises():
    streams = _streams({"d0": ["bara-här"]})
    with pytest.raises(ValueError, match="empty"):
        build_vocabulary(streams, no_below=2, no_above=1.0)


def test_vocabulary_bijective():
    streams = _streams({"d0": ["a", "b", "c"], "d1": ["a", "b", "c", "d"]})
    vocab = build_vocabulary(streams, no_below=1, no_above=1.0)
    for token, wid in vocab.token_to_id.items():
        assert vocab.decode(wid) == token
        assert vocab.encode(token) == wid
    assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))


def test_to_bow_counts_and_oov():
    streams = _streams({"d0": ["a", "b"], "d1": ["a", "b"]})
    vocab = build_vocabulary(streams, no_below=1, no_above=1.0)
    bow = to_bow(TokenStream("d2", ["a", "b", "a", "okänd"]), vocab)
    assert bow.counts == {0: 2, 1: 1}
    assert to_bow(TokenStream("d3", ["okänd"]), vocab).counts == {}
    assert to_bow(TokenStream("d4", []), vocab).counts == {}


def test_to_bow_conserves_in_vocab_token_count():
    streams = _streams({"d0": ["a", "b", "c"], "d1": ["a", "c"]})
    vocab = build_vocabulary(streams, no_below=1, no_above=1.0)
    tokens = ["a", "a", "c", "b", "zzz"]
    bow = to_bow(TokenStream("d9", tokens), vocab)
    in_vocab = [t for t in tokens if vocab.encode(t) is not None]
    assert bow.total() == len(in_vocab)


def test_vocabulary_json_roundtrip(tmp_path):
    streams = _streams({"d0": ["a", "b"], "d1": ["a", "b", "c"], "d2": ["a"]})
    vocab = build_vocabulary(streams, no_below=1, no_above=1.0)
    path = tmp_path / "vocab.json"
    write_vocabulary(vocab, path)
    again = read_vocabulary(path)
    assert again == vocab
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["version"] == 2
    assert payload["tokens"] == ["a", "b", "c"]
    assert payload["document_frequency"] == [3, 2, 1]


def _csr(bows):
    return (
        bows.doc_ids,
        bows.vocab_size,
        bows.doc_lengths.tolist(),
        bows.word_ids.tolist(),
        bows.counts.tolist(),
    )


def test_bows_file_roundtrip(tmp_path):
    docs = [BowDoc("d0", {0: 2, 3: 1}), BowDoc("d1", {}), BowDoc("d2", {1: 4})]
    bows = Bows.from_docs(docs, 5)
    path = tmp_path / "bows.newstm"
    write_bows(bows, path)
    again = read_bows(path)
    assert again.doc_ids == ("d0", "d1", "d2") and again.vocab_size == 5
    assert again.doc_lengths.tolist() == [2, 0, 1]
    assert again.word_ids.tolist() == [0, 3, 1]
    assert again.counts.tolist() == [2, 1, 4]
    assert _csr(again) == _csr(bows)


def test_bows_select_takes_rows_by_doc_id():
    docs = [BowDoc("d0", {0: 2, 3: 1}), BowDoc("d1", {}), BowDoc("d2", {1: 4}), BowDoc("d3", {2: 1})]
    bows = Bows.from_docs(docs, 5)
    want = Bows.from_docs([docs[2], docs[1], docs[0]], 5)
    assert _csr(bows.select(["d2", "d1", "d0"])) == _csr(want)
    assert len(bows.select([])) == 0
    with pytest.raises(ValueError, match="^no bag of words for document 'd9'$"):
        bows.select(["d0", "d9"])


def test_pipeline_determinism(tmp_path):
    docs = {
        "d0": "Anders Tegnell håller presskonferens om smittspridning.",
        "d1": "Anders Tegnell svarar på frågor om munskydd.",
        "d2": "Regeringen och Anders Tegnell diskuterar nya råd.",
    }
    stops = {"och", "om", "på", "nya"}

    def run(out_dir):
        streams = [
            TokenStream(doc_id, remove_stopwords(tokenize(text), stops))
            for doc_id, text in docs.items()
        ]
        phrases = fit_phrases(streams, min_count=1, threshold=1.0)
        merged = [TokenStream(s.doc_id, apply_phrases(phrases, s.tokens)) for s in streams]
        vocab = build_vocabulary(merged, no_below=1, no_above=1.0)
        bows = Bows.from_docs([to_bow(s, vocab) for s in merged], len(vocab))
        write_vocabulary(vocab, out_dir / "vocab.json")
        write_bows(bows, out_dir / "bows.newstm")

    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    run(first)
    run(second)
    assert (first / "vocab.json").read_bytes() == (second / "vocab.json").read_bytes()
    assert (first / "bows.newstm").read_bytes() == (second / "bows.newstm").read_bytes()


def _vocab_file(path, tokens):
    """A vocabulary export whose `tokens` entry is replaced by `tokens`."""
    vocab = build_vocabulary(_streams({"d0": ["a", "b"]}), no_below=1, no_above=1.0)
    write_vocabulary(vocab, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["tokens"] = tokens
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "tokens", [{"a": 0, "b": 0}, {"a": 0, "b": 2}], ids=["shared-id", "id-out-of-range"]
)
def test_read_vocabulary_rejects_ids_that_are_not_a_dense_range(tmp_path, tokens):
    path = _vocab_file(tmp_path / "vocab.json", tokens)
    with pytest.raises(ValueError) as info:
        read_vocabulary(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "changes, fault",
    [
        ({"tokens": ["a", "a"]}, "tokens must be a list of strings, none of them repeated"),
        ({"document_frequency": [1]}, "document_frequency must be a list of 2 counts"),
        ({"document_frequency": [1, 1, 1]}, "document_frequency must be a list of 2 counts"),
        (
            {"version": 1, "tokens": {"a": 0, "b": 1}, "document_frequency": {"0": 1, "1": 1}},
            "not a version 2 newstm-vocab file",
        ),
        (
            {"document_frequency": [1.9, True]},
            "field 'document_frequency' must be a list of integers, got [1.9, true]",
        ),
        ({"no_below": 1.5}, "field 'no_below' must be an integer, got 1.5"),
        ({"no_above": "0.5"}, "field 'no_above' must be a finite number, got \"0.5\""),
        ({"n_docs": True}, "field 'n_docs' must be an integer, got true"),
        ({"n_docs": 0}, "n_docs must be >= 1, got 0"),
        ({"n_docs": -3}, "n_docs must be >= 1, got -3"),
        ({"no_below": 0}, "no_below must be >= 1, got 0"),
        ({"no_above": 5.0}, "no_above must be in (0, 1], got 5.0"),
        ({"no_above": 0}, "no_above must be in (0, 1], got 0"),
        ({"document_frequency": [-1, 1]}, "token 'a' has document frequency -1, not in 1..1"),
        ({"document_frequency": [1, 7]}, "token 'b' has document frequency 7, not in 1..1"),
        (
            {"document_frequency": [3, 2], "no_below": 3, "n_docs": 4},
            "token 'b' has document frequency 2, not in 3..4",
        ),
        (
            {"document_frequency": [2, 2], "no_above": 0.5, "n_docs": 2},
            "token 'a' has document frequency 2 of 2 documents, above no_above 0.5",
        ),
    ],
    ids=[
        "repeated-token",
        "short-frequencies",
        "long-frequencies",
        "version-1",
        "non-integer-frequencies",
        "float-no-below",
        "string-no-above",
        "bool-n-docs",
        "zero-n-docs",
        "negative-n-docs",
        "zero-no-below",
        "no-above-above-1",
        "zero-no-above",
        "negative-frequency",
        "frequency-above-n-docs",
        "frequency-below-no-below",
        "frequency-above-no-above",
    ],
)
def test_read_vocabulary_rejects_a_fault_of_the_list_layout(tmp_path, changes, fault):
    path = _vocab_file(tmp_path / "vocab.json", ["a", "b"])
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.update(changes)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_vocabulary(path)
    assert str(info.value) == (
        f"{path}: not a valid vocabulary export ({fault}); re-run `newstm preprocess`"
    )


def _raw_bows_file(path, doc_lengths, word_ids, counts, fmt="newstm-bows", doc_ids=None):
    """A bows file with these arrays for documents `doc_ids` (by default d0,
    d1, ...), over 3 words, written without the checks of `Bows`."""
    if doc_ids is None:
        doc_ids = [f"d{i}" for i in range(len(doc_lengths))]
    meta = {"doc_ids": doc_ids, "vocab_size": 3}
    arrays = {"doc_lengths": doc_lengths, "word_ids": word_ids, "counts": counts}
    write_model(path, fmt, meta, {name: np.array(a, dtype=np.int64) for name, a in arrays.items()})
    return path


def _rejection(path):
    with pytest.raises(ValueError) as info:
        read_bows(path)
    message = str(info.value)
    assert message.startswith(f"{path}: not a valid newstm-bows model file (")
    assert message.endswith("); re-run `newstm preprocess`")
    assert "\n" not in message
    return message


@pytest.mark.parametrize("count", [0, -2])
def test_read_bows_rejects_counts_below_one(tmp_path, count):
    path = _raw_bows_file(tmp_path / "bows.newstm", [1, 2], [0, 0, 2], [1, 2, count])
    assert "(document 'd1': counts must be >= 1)" in _rejection(path)


def test_bows_rejects_a_repeated_doc_id():
    docs = [BowDoc("a", {0: 1}), BowDoc("b", {2: 1}), BowDoc("a", {1: 1})]
    with pytest.raises(ValueError, match="^duplicate document id 'a'$"):
        Bows.from_docs(docs, 5)


def test_read_bows_rejects_a_repeated_doc_id(tmp_path):
    path = _raw_bows_file(
        tmp_path / "bows.newstm", [1, 1, 1], [0, 1, 2], [1, 1, 1], doc_ids=["x", "y", "y"]
    )
    assert "(duplicate document id 'y')" in _rejection(path)


def _truncated(path):
    _raw_bows_file(path, [1, 2], [0, 0, 2], [1, 2, 1])
    path.write_bytes(path.read_bytes()[:-3])
    return path


@pytest.mark.parametrize(
    "make, fault",
    [
        (_truncated, "not fully written"),
        (
            lambda path: _raw_bows_file(path, [1], [0], [1], fmt="newstm-lda"),
            "format is 'newstm-lda', expected 'newstm-bows'",
        ),
        (
            lambda path: _raw_bows_file(path, [1, 2], [0, 1, 3], [1, 1, 1]),
            "document 'd1': word id out of range for vocab_size=3",
        ),
        (
            lambda path: _raw_bows_file(path, [1, 2], [0, 2, 1], [1, 1, 1]),
            "document 'd1': word ids must be strictly ascending",
        ),
        (
            lambda path: _raw_bows_file(path, [1, 3], [0, 1, 2], [1, 1, 1]),
            "doc_lengths sum to 4, but there are 3 word ids and 3 counts",
        ),
    ],
    ids=["truncated", "other-format", "id-at-vocab-size", "unsorted-ids", "doc-lengths"],
)
def test_read_bows_rejects_a_malformed_file(tmp_path, make, fault):
    assert fault in _rejection(make(tmp_path / "bows.newstm"))
