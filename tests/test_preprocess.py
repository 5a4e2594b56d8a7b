import json
import sys

import pytest

from newstm.preprocess import (
    BowDoc,
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


def test_phrase_score_matches_hand_computation():
    model = fit_phrases(_phrase_corpus(), min_count=1, threshold=1.0)
    # (count(ab) - min_count) * total / (count(a) * count(b)) = (3-1)*10/(3*3)
    assert model.score("anders", "tegnell") == pytest.approx(20.0 / 9.0, rel=1e-12)
    assert model.qualifies("anders", "tegnell")


def test_phrase_merge_emits_joined_token():
    model = fit_phrases(_phrase_corpus(), min_count=1, threshold=1.0)
    merged = apply_phrases(model, ["anders", "tegnell", "x"])
    assert merged == ["anders_tegnell", "x"]


def test_phrase_score_zero_at_min_count_boundary():
    # count(ab) == min_count makes the numerator zero: never merged for threshold > 0.
    streams = [TokenStream("d0", ["a", "b", "c", "d"])]
    model = fit_phrases(streams, min_count=1, threshold=0.5)
    assert model.score("a", "b") == 0.0
    assert not model.qualifies("a", "b")


def test_unseen_bigram_never_merges():
    model = fit_phrases(_phrase_corpus(), min_count=1, threshold=-100.0)
    assert not model.qualifies("x", "z")
    assert apply_phrases(model, ["x", "z"]) == ["x", "z"]


def test_apply_phrases_empty_and_identity():
    model = fit_phrases(_phrase_corpus(), min_count=1, threshold=1.0)
    assert apply_phrases(model, []) == []
    assert apply_phrases(model, ["z", "w", "x"]) == ["z", "w", "x"]


def test_apply_phrases_no_remerge_in_single_pass():
    # scores: (a,b) = (5-1)*20/(5*15) = 1.07, (b,b) = (10-1)*20/(15*15) = 0.8
    streams = [TokenStream("d0", ["a", "b"] * 5 + ["b", "b"] * 5)]
    model = fit_phrases(streams, min_count=1, threshold=0.7)
    assert model.qualifies("a", "b") and model.qualifies("b", "b")
    # Greedy pass merges (a, b) then moves past it; the emitted "a_b" cannot
    # combine with the following "b".
    assert apply_phrases(model, ["a", "b", "b"]) == ["a_b", "b"]


def test_apply_phrases_shortens_or_preserves_length():
    model = fit_phrases(_phrase_corpus(), min_count=1, threshold=1.0)
    for tokens in (["anders", "tegnell"] * 3, ["x"], [], ["anders"] * 4):
        assert len(apply_phrases(model, tokens)) <= len(tokens)


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
    assert payload["tokens"] == {"a": 0, "b": 1, "c": 2}


def test_bows_jsonl_roundtrip(tmp_path):
    bows = [BowDoc("d0", {0: 2, 3: 1}), BowDoc("d1", {})]
    path = tmp_path / "bows.jsonl"
    write_bows(bows, path)
    assert read_bows(path) == bows


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
        bows = [to_bow(s, vocab) for s in merged]
        write_vocabulary(vocab, out_dir / "vocab.json")
        write_bows(bows, out_dir / "bows.jsonl")

    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    run(first)
    run(second)
    assert (first / "vocab.json").read_bytes() == (second / "vocab.json").read_bytes()
    assert (first / "bows.jsonl").read_bytes() == (second / "bows.jsonl").read_bytes()


def _vocab_file(path, tokens):
    """A vocabulary export whose token ids are replaced by `tokens`."""
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


@pytest.mark.parametrize("count", [0, -2])
def test_read_bows_rejects_counts_below_one(tmp_path, count):
    path = tmp_path / "bows.jsonl"
    write_bows([BowDoc("d0", {0: 1}), BowDoc("d1", {0: 2, 3: count})], path)
    with pytest.raises(ValueError) as info:
        read_bows(path)
    assert str(info.value).startswith(f"{path} line 2: ")


def test_read_bows_names_the_line_of_a_malformed_record(tmp_path):
    path = tmp_path / "bows.jsonl"
    path.write_text('{"doc_id": "d0", "counts": {"0": 1}}\n{"doc_id": \n', encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_bows(path)
    assert str(info.value).startswith(f"{path} line 2: ")
    assert not isinstance(info.value, json.JSONDecodeError)
