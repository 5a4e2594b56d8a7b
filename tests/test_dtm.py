import dataclasses
import datetime
import re

import numpy as np
import pytest

from helpers import (
    DRIFT_IN_WORD,
    DRIFT_MARKER_WORD,
    DRIFT_OUT_WORD,
    DRIFT_VOCAB_SIZE,
    drift_vocab,
    planted_drift_sliced_corpus,
    planted_two_topic_bows,
)
from newstm.corpus import TimeSlice
from newstm.dtm import (
    TrajectorySeries,
    load_dtm,
    read_trajectory_csv,
    save_dtm,
    top_words_at,
    train_dtm,
    trajectory,
    write_trajectory_csv,
)
from newstm.lda import LdaHyperparams, top_words, train_lda


def _slice_meta(t, doc_ids=()):
    return TimeSlice(
        index=t,
        start=datetime.date(2020, 1 + t, 17),
        end=datetime.date(2020, 2 + t, 17),
        doc_ids=tuple(doc_ids),
    )


def _two_slice_corpus(seed=0):
    bows_a, _, _ = planted_two_topic_bows(n_docs=20, doc_len=8, seed=seed)
    bows_b, _, _ = planted_two_topic_bows(n_docs=16, doc_len=8, seed=seed + 1)
    return [
        (_slice_meta(0, [b.doc_id for b in bows_a]), bows_a),
        (_slice_meta(1, [b.doc_id for b in bows_b]), bows_b),
    ]


BASE = LdaHyperparams(k=3, alpha=0.8, eta=0.05, iterations=40, burn_in=10, thin=3, seed=7)


def test_kappa_zero_equivalence_mode_is_bitwise_independent_lda():
    sliced = _two_slice_corpus()
    model = train_dtm(sliced, BASE, kappa=0.0, vocab_size=10, warm_start=False)
    for t, (_, bows) in enumerate(sliced):
        hyper_t = dataclasses.replace(BASE, seed=model.slice_seeds[t])
        independent = train_lda(bows, 10, hyper_t)
        assert np.array_equal(model.per_slice_beta[t], independent.beta)
        assert np.array_equal(model.per_slice_theta[t], independent.theta)


def test_single_slice_dtm_equals_static_lda_bitwise():
    sliced = _two_slice_corpus()[:1]
    model = train_dtm(sliced, BASE, kappa=1.0, vocab_size=10)
    static = train_lda(sliced[0][1], 10, BASE)
    assert model.slice_seeds == [BASE.seed]
    assert np.array_equal(model.per_slice_beta[0], static.beta)
    assert np.array_equal(model.per_slice_theta[0], static.theta)


def test_validation_errors():
    sliced = _two_slice_corpus()
    with pytest.raises(ValueError, match="kappa"):
        train_dtm(sliced, BASE, kappa=-1.0, vocab_size=10)
    with pytest.raises(ValueError, match="slice"):
        train_dtm([], BASE, vocab_size=10)


def test_nan_kappa_is_rejected():
    for kappa in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa"):
            train_dtm(_two_slice_corpus(), BASE, kappa=kappa, vocab_size=10)


def test_empty_slice_carries_beta_forward_verbatim():
    sliced = _two_slice_corpus()
    sliced.append((_slice_meta(2), []))
    model = train_dtm(sliced, BASE, kappa=1.0, vocab_size=10)
    assert np.array_equal(model.per_slice_beta[2], model.per_slice_beta[1])
    assert model.per_slice_theta[2].shape == (0, 3)


def test_leading_empty_slice_starts_uniform():
    sliced = [(_slice_meta(0), [])] + _two_slice_corpus()[:1]
    model = train_dtm(sliced, BASE, kappa=1.0, vocab_size=10)
    assert np.array_equal(model.per_slice_beta[0], np.full((3, 10), 0.1))


def _drift_hyper(seed=17):
    return LdaHyperparams(
        k=2, alpha=1.0, eta=0.01, iterations=200, burn_in=80, thin=5, seed=seed
    )


def _drift_topic_index(model):
    # Topic A is the one holding the always-present marker word at slice 0.
    return int(np.argmax(model.per_slice_beta[0, :, DRIFT_MARKER_WORD]))


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_planted_drift_trajectories(kappa):
    sliced = planted_drift_sliced_corpus(seed=3)
    model = train_dtm(sliced, _drift_hyper(), kappa=kappa, vocab_size=DRIFT_VOCAB_SIZE)
    topic_a = _drift_topic_index(model)
    series = trajectory(
        model, topic_a, [f"w{DRIFT_IN_WORD}", f"w{DRIFT_OUT_WORD}"], drift_vocab()
    )
    drifted_in = series.series[f"w{DRIFT_IN_WORD}"]
    drifted_out = series.series[f"w{DRIFT_OUT_WORD}"]
    assert drifted_in[1] - drifted_in[0] > 0
    assert drifted_out[1] - drifted_out[0] < 0


def test_chain_strength_tightens_consecutive_slices():
    # Mean total-variation distance between consecutive slices should weakly
    # decrease as kappa grows on a fixed corpus and seed set.
    sliced = planted_drift_sliced_corpus(seed=3)
    tv = {}
    for kappa in (0.0, 1.0, 10.0):
        model = train_dtm(
            sliced, _drift_hyper(), kappa=kappa, vocab_size=DRIFT_VOCAB_SIZE
        )
        diffs = np.abs(model.per_slice_beta[1:] - model.per_slice_beta[:-1])
        tv[kappa] = float(diffs.sum(axis=-1).mean() / 2)
    assert tv[0.0] >= tv[1.0] >= tv[10.0]


def test_all_slice_rows_are_distributions():
    sliced = planted_drift_sliced_corpus(seed=3)
    for kappa in (0.0, 1.0, 10.0):
        model = train_dtm(
            sliced, _drift_hyper(), kappa=kappa, vocab_size=DRIFT_VOCAB_SIZE
        )
        sums = model.per_slice_beta.sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-9)
        assert (model.per_slice_beta > 0).all()


def test_trajectory_values_are_raw_beta_entries():
    sliced = _two_slice_corpus()
    model = train_dtm(sliced, BASE, kappa=1.0, vocab_size=10)
    vocab = drift_vocab()
    series = trajectory(model, 1, ["w2", "w7"], vocab)
    assert np.array_equal(series.series["w2"], model.per_slice_beta[:, 1, 2])
    assert np.array_equal(series.series["w7"], model.per_slice_beta[:, 1, 7])
    assert series.slice_labels == ("2020-01-17", "2020-02-17")


def test_trajectory_rejects_oov_words():
    sliced = _two_slice_corpus()
    model = train_dtm(sliced, BASE, kappa=1.0, vocab_size=10)
    with pytest.raises(ValueError, match="okänt"):
        trajectory(model, 0, ["w1", "okänt"], drift_vocab())
    with pytest.raises(ValueError, match="topic_id"):
        trajectory(model, 9, ["w1"], drift_vocab())


def test_unseen_word_series_is_smoothing_floor():
    # Word 9 never occurs in the drift corpus; its probability stays at the
    # strictly positive prior floor in every slice.
    sliced = planted_drift_sliced_corpus(seed=3)
    model = train_dtm(sliced, _drift_hyper(), kappa=0.0, vocab_size=DRIFT_VOCAB_SIZE)
    series = trajectory(model, 0, ["w9"], drift_vocab())
    values = series.series["w9"]
    assert (values > 0).all()
    assert values.max() < 1e-3


def test_top_words_at_matches_slice_rows():
    sliced = _two_slice_corpus()
    model = train_dtm(sliced, BASE, kappa=0.0, vocab_size=10, warm_start=False)
    for t, (_, bows) in enumerate(sliced):
        hyper_t = dataclasses.replace(BASE, seed=model.slice_seeds[t])
        independent = train_lda(bows, 10, hyper_t)
        assert top_words_at(model, 0, t, 5) == top_words(independent, 0, 5)
    with pytest.raises(ValueError):
        top_words_at(model, 0, 5, 3)


def test_top_words_at_uniform_row_tie_break():
    sliced = [(_slice_meta(0), [])]  # empty leading slice trains nothing: uniform rows
    model = train_dtm(sliced, BASE, kappa=1.0, vocab_size=10)
    summary = top_words_at(model, 1, 0, 3)
    assert [term for term, _ in summary.terms] == ["0", "1", "2"]


def test_trajectory_csv_roundtrip(tmp_path):
    sliced = _two_slice_corpus()
    model = train_dtm(sliced, BASE, kappa=1.0, vocab_size=10)
    vocab = drift_vocab()
    series_list = [trajectory(model, k, ["w1", "w5"], vocab) for k in range(3)]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(series_list, path)
    loaded = read_trajectory_csv(path)
    assert len(loaded) == 3
    for got, want in zip(loaded, series_list):
        assert got.topic_id == want.topic_id
        assert got.words == want.words
        assert got.slice_labels == want.slice_labels
        for word in want.words:
            assert np.array_equal(got.series[word], want.series[word])


def test_trajectory_csv_rejects_words_with_other_slice_dates(tmp_path):
    path = tmp_path / "traj.csv"
    rows = [
        "topic,word,slice_start,probability",
        "0,w1,2020-01-17,0.5",
        "0,w1,2020-02-17,0.5",
        "0,w5,2020-03-17,0.25",
        "0,w5,2020-04-17,0.25",
    ]
    path.write_text("\r\n".join(rows) + "\r\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: topic 0 word 'w5'"):
        read_trajectory_csv(path)


def test_trajectory_series_rejects_nan(tmp_path):
    with pytest.raises(ValueError, match=r"'a' leaves \[0, 1\]"):
        TrajectorySeries(0, ("a",), {"a": np.array([np.nan])}, ("2020-01-17",))
    path = tmp_path / "traj.csv"
    rows = ["topic,word,slice_start,probability", "0,w1,2020-01-17,nan"]
    path.write_text("\r\n".join(rows) + "\r\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"'w1' leaves \[0, 1\]"):
        read_trajectory_csv(path)


def test_save_load_roundtrip(tmp_path):
    sliced = _two_slice_corpus()
    model = train_dtm(sliced, BASE, kappa=1.0, vocab_size=10)
    path = tmp_path / "dtm.json"
    save_dtm(model, path)
    loaded = load_dtm(path)
    assert np.array_equal(loaded.per_slice_beta, model.per_slice_beta)
    for got, want in zip(loaded.per_slice_theta, model.per_slice_theta):
        assert np.array_equal(got, want)
    assert loaded.slices == model.slices
    assert loaded.slice_seeds == model.slice_seeds
    assert loaded.base_hyper == model.base_hyper
    path2 = tmp_path / "dtm2.json"
    save_dtm(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
