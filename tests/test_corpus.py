import datetime
import re

import pytest

from newstm.corpus import (
    Corpus,
    CorpusError,
    Document,
    articles_per_day,
    filter_by_category,
    load_corpus,
    read_timeline_csv,
    save_corpus,
    slice_monthly,
    write_timeline_csv,
)


def _write_jsonl(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _record(doc_id, date, category="inrikes", title="t", body="b"):
    return (
        f'{{"id": "{doc_id}", "date": "{date}", "category": "{category}", '
        f'"title": "{title}", "body": "{body}"}}'
    )


def _doc(doc_id, date, category="inrikes"):
    return Document(id=doc_id, date=date, category=category, title="t", body="b")


def test_load_sorts_and_counts(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            _record("b", "2020-03-01"),
            _record("a", "2020-01-05"),
            _record("c", "2020-02-01"),
        ],
    )
    corpus = load_corpus(path)
    assert len(corpus) == 3
    assert [d.id for d in corpus] == ["a", "c", "b"]
    assert corpus.origin_date == datetime.date(2020, 1, 5)
    assert corpus.end_date == datetime.date(2020, 3, 1)


def test_load_duplicate_id_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record("a", "2020-01-05"), _record("a", "2020-01-06")])
    with pytest.raises(CorpusError, match="line 2.*duplicate id"):
        load_corpus(path)


def test_load_invalid_json_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record("a", "2020-01-05"), "{not json"])
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_load_unparseable_date_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record("a", "2020-13-45")])
    with pytest.raises(CorpusError, match="line 1.*unparseable date"):
        load_corpus(path)


def test_load_missing_field_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, ['{"id": "a", "date": "2020-01-05", "category": "inrikes"}'])
    with pytest.raises(CorpusError, match="line 1.*missing fields"):
        load_corpus(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("id", "7"),
        ("date", "20200105"),
        ("category", '["inrikes"]'),
        ("title", "null"),
        ("body", '{"text": "b"}'),
        ("title", "false"),
    ],
)
def test_load_non_string_field_names_line_and_field(tmp_path, field, value):
    record = {"id": '"b"', "date": '"2020-01-06"', "category": '"inrikes"'}
    record.update({"title": '"t"', "body": '"b"', field: value})
    bad = "{" + ", ".join(f'"{name}": {text}' for name, text in record.items()) + "}"
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record("a", "2020-01-05"), bad])
    with pytest.raises(
        CorpusError, match=rf"line 2: field '{field}' must be a string, got {re.escape(value)}$"
    ):
        load_corpus(path)


def test_empty_body_requires_title():
    with pytest.raises(ValueError):
        Document(id="a", date=datetime.date(2020, 1, 1), category="x", title="", body="")
    Document(id="a", date=datetime.date(2020, 1, 1), category="x", title="headline", body="")


def test_save_load_roundtrip(tmp_path, sample_corpus_path):
    corpus = load_corpus(sample_corpus_path)
    out = tmp_path / "copy.jsonl"
    save_corpus(corpus, out)
    again = load_corpus(out)
    assert again.documents == corpus.documents


def test_filter_identity_when_all_categories_kept():
    docs = (_doc("a", datetime.date(2020, 1, 1), "x"), _doc("b", datetime.date(2020, 1, 2), "y"))
    corpus = Corpus(docs)
    assert filter_by_category(corpus, {"x", "y"}).documents == docs


def test_filter_nonexistent_category_yields_empty():
    corpus = Corpus((_doc("a", datetime.date(2020, 1, 1), "x"),))
    assert len(filter_by_category(corpus, {"nope"})) == 0


def test_filter_idempotent(sample_corpus_path):
    corpus = load_corpus(sample_corpus_path)
    keep = {"inrikes", "utrikes"}
    once = filter_by_category(corpus, keep)
    twice = filter_by_category(once, keep)
    assert once.documents == twice.documents


def test_filter_empty_keep_raises():
    corpus = Corpus((_doc("a", datetime.date(2020, 1, 1)),))
    with pytest.raises(ValueError):
        filter_by_category(corpus, set())


def test_slice_boundary_inclusion():
    day = datetime.date(2020, 1, 17)
    corpus = Corpus((_doc("a", day),))
    slices = slice_monthly(corpus, 17, day, 1)
    assert len(slices) == 1
    assert slices[0].doc_ids == ("a",)
    assert slices[0].start == day
    assert slices[0].end == datetime.date(2020, 2, 17)


def test_slice_end_is_exclusive():
    corpus = Corpus((_doc("a", datetime.date(2020, 2, 17)),))
    slices = slice_monthly(corpus, 17, datetime.date(2020, 1, 17), 1)
    assert slices[0].doc_ids == ()


def test_slice_anchor_clamps_in_short_months():
    corpus = Corpus((_doc("a", datetime.date(2020, 2, 28)),))
    slices = slice_monthly(corpus, 31, datetime.date(2020, 1, 31), 2)
    assert slices[0].end == datetime.date(2020, 2, 29)  # leap February
    assert slices[1].end == datetime.date(2020, 3, 31)
    assert slices[0].doc_ids == ("a",)


def test_slice_first_start_off_anchor_raises():
    corpus = Corpus((_doc("a", datetime.date(2020, 1, 18)),))
    with pytest.raises(ValueError, match="anchor"):
        slice_monthly(corpus, 17, datetime.date(2020, 1, 18), 1)


def test_slice_partition_property():
    import numpy as np

    rng = np.random.default_rng(7)
    base = datetime.date(2020, 1, 17)
    for trial in range(5):
        docs = tuple(
            _doc(f"d{i}", base + datetime.timedelta(days=int(offset)))
            for i, offset in enumerate(sorted(rng.integers(-40, 500, size=60)))
        )
        corpus = Corpus(docs)
        slices = slice_monthly(corpus, 17, base, 12)
        all_ids = [doc_id for s in slices for doc_id in s.doc_ids]
        assert len(all_ids) == len(set(all_ids)), "a document landed in two slices"
        end = slices[-1].end
        excluded = [d.id for d in docs if d.date < base or d.date >= end]
        assert len(all_ids) + len(excluded) == len(corpus)
        for s in slices:
            assert s.start < s.end


def test_articles_per_day_zero_fill():
    d1 = datetime.date(2020, 1, 1)
    corpus = Corpus((_doc("a", d1), _doc("b", d1 + datetime.timedelta(days=2))))
    series = articles_per_day(corpus)
    assert [count for _, count in series] == [1, 0, 1]


def test_articles_per_day_same_day():
    d1 = datetime.date(2020, 1, 1)
    corpus = Corpus((_doc("a", d1), _doc("b", d1)))
    series = articles_per_day(corpus)
    assert series == [(d1, 2)]


def test_articles_per_day_counts_and_length(sample_corpus_path):
    corpus = load_corpus(sample_corpus_path)
    series = articles_per_day(corpus)
    assert sum(count for _, count in series) == len(corpus)
    assert len(series) == (corpus.end_date - corpus.origin_date).days + 1


def test_articles_per_day_empty_raises():
    with pytest.raises(ValueError):
        articles_per_day(Corpus(()))


def test_timeline_csv_roundtrip(tmp_path):
    d1 = datetime.date(2020, 1, 1)
    series = [(d1, 3), (d1 + datetime.timedelta(days=1), 0)]
    path = tmp_path / "t.csv"
    write_timeline_csv(series, path)
    assert read_timeline_csv(path) == series
