import dataclasses
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from helpers import (
    DRIFT_IN_WORD,
    DRIFT_MARKER_WORD,
    DRIFT_OUT_WORD,
    drift_vocab,
    monthly_slices,
    planted_drift_sliced_corpus,
    planted_two_topic_bows,
)
from newstm import _kernels, lda
from newstm.bowsfile import BowsFile
from newstm.dtm import (
    TrajectorySeries,
    load_dtm,
    save_dtm,
    slice_seeds_for,
    top_words_at,
    train_dtm,
    train_dtm_to_file,
    trajectory,
)
from newstm.exports import read_trajectory_csv, write_trajectory_csv
from newstm.lda import LdaHyperparams, top_words, train_lda
from newstm.preprocess import BowDoc, Bows, read_bows, write_bows


def _two_slice_parts(seed=0):
    bows_a, _, _ = planted_two_topic_bows(n_docs=20, doc_len=8, seed=seed, prefix="a")
    bows_b, _, _ = planted_two_topic_bows(n_docs=16, doc_len=8, seed=seed + 1, prefix="b")
    return [bows_a, bows_b]


def _two_slice_corpus(seed=0):
    return monthly_slices(_two_slice_parts(seed), 10)


BASE = LdaHyperparams(k=3, alpha=0.8, eta=0.05, iterations=40, burn_in=10, thin=3, seed=7)


def test_kappa_zero_equivalence_mode_is_bitwise_independent_lda():
    slices, bows = _two_slice_corpus()
    model = train_dtm(slices, bows, BASE, kappa=0.0, warm_start=False)
    for t, time_slice in enumerate(slices):
        hyper_t = dataclasses.replace(BASE, seed=model.slice_seeds[t])
        independent = train_lda(bows.select(time_slice.doc_ids), hyper_t)
        assert np.array_equal(model.per_slice_beta[t], independent.beta)
        assert np.array_equal(model.per_slice_theta[t], independent.theta)


def test_single_slice_dtm_equals_static_lda_bitwise():
    slices, bows = monthly_slices(_two_slice_parts()[:1], 10)
    model = train_dtm(slices, bows, BASE, kappa=1.0)
    static = train_lda(bows, BASE)
    assert model.slice_seeds == [BASE.seed]
    assert np.array_equal(model.per_slice_beta[0], static.beta)
    assert np.array_equal(model.per_slice_theta[0], static.theta)


def test_validation_errors():
    slices, bows = _two_slice_corpus()
    with pytest.raises(ValueError, match="kappa"):
        train_dtm(slices, bows, BASE, kappa=-1.0)
    with pytest.raises(ValueError, match="slice"):
        train_dtm([], bows, BASE)


def test_bows_in_another_order_with_an_unsliced_document_give_the_same_model():
    """Each slice's bags are selected by its doc ids, so neither the order of
    the documents in the bags nor a document outside every slice matters."""
    slices, in_order = _two_slice_corpus()
    docs = [b for part in _two_slice_parts() for b in part]
    shuffled = [docs[i] for i in np.random.default_rng(3).permutation(len(docs))]
    shuffled.insert(11, BowDoc("unsliced", {0: 2, 9: 1}))
    shuffled = Bows.from_docs(shuffled, 10)
    for kappa, warm_start in ((1.0, True), (0.0, False)):
        want = train_dtm(slices, in_order, BASE, kappa=kappa, warm_start=warm_start)
        got = train_dtm(slices, shuffled, BASE, kappa=kappa, warm_start=warm_start)
        assert got.per_slice_beta.tobytes() == want.per_slice_beta.tobytes()
        for t in range(len(slices)):
            assert got.per_slice_theta[t].tobytes() == want.per_slice_theta[t].tobytes()
        assert got.slices == want.slices == slices


def test_slice_doc_id_with_no_bag_of_words_is_rejected():
    slices, bows = _two_slice_corpus()
    slices[1] = dataclasses.replace(slices[1], doc_ids=(*slices[1].doc_ids, "missing"))
    with pytest.raises(ValueError, match="^no bag of words for document 'missing'$"):
        train_dtm(slices, bows, BASE)


def test_nan_kappa_is_rejected():
    for kappa in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa"):
            train_dtm(*_two_slice_corpus(), BASE, kappa=kappa)


def test_empty_slice_carries_beta_forward_verbatim():
    slices, bows = monthly_slices([*_two_slice_parts(), []], 10)
    model = train_dtm(slices, bows, BASE, kappa=1.0)
    assert np.array_equal(model.per_slice_beta[2], model.per_slice_beta[1])
    assert model.per_slice_theta[2].shape == (0, 3)


def test_leading_empty_slice_starts_uniform():
    slices, bows = monthly_slices([[], _two_slice_parts()[0]], 10)
    model = train_dtm(slices, bows, BASE, kappa=1.0)
    assert np.array_equal(model.per_slice_beta[0], np.full((3, 10), 0.1))


def test_slice_seeds_are_numpys_seed_sequence_state():
    # slice_seeds_for keeps the base seed and draws the rest from
    # SeedSequence(seed).generate_state; n = 5 and 13 draw past its 4-word pool.
    rng = random.Random(20240517)
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128 + 7]
    seeds = edges + [rng.getrandbits(rng.randint(1, 300)) for _ in range(1000)]
    for seed in seeds:
        for n in (1, 3, 4, 5, 13):
            want = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32).tolist()
            assert slice_seeds_for(seed, n + 1)[1:] == want, (seed, n)
    assert slice_seeds_for(5, 0) == slice_seeds_for(5, 1) == [5]
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        slice_seeds_for(-1, 2)


def _chained_by_train_lda(slices, all_bows, base, kappa, warm_start):
    """Each slice's beta and theta as one train_lda call per slice gives them,
    with the previous slice's beta as prior and start: train_dtm's oracle."""
    seeds = slice_seeds_for(base.seed, len(slices))
    vocab_size = all_bows.vocab_size
    prev, betas, thetas = None, [], []
    for t, time_slice in enumerate(slices):
        bows = all_bows.select(time_slice.doc_ids)
        if not bows:
            beta = prev.copy() if prev is not None else np.full((base.k, vocab_size), 1 / vocab_size)
            theta = np.zeros((0, base.k))
        else:
            eta_kw = None if prev is None else base.eta + kappa * vocab_size * prev
            init_beta = prev if prev is not None and warm_start else None
            hyper = dataclasses.replace(base, seed=seeds[t])
            model = train_lda(bows, hyper, eta_kw=eta_kw, init_beta=init_beta)
            beta, theta = model.beta, model.theta
        betas.append(beta)
        thetas.append(theta)
        prev = beta
    return betas, thetas


def _slices_over_vocabulary_subsets(vocab_size=40, seed=11):
    """Five slices: words 0-9, an empty slice, words 10-19, words 5-14 and
    words 30-39, so most slices leave most columns without a token."""
    rng = np.random.default_rng(seed)
    parts = []
    for t, words in enumerate([range(0, 10), (), range(10, 20), range(5, 15), range(30, 40)]):
        draws = [Counter(rng.choice(list(words), size=7).tolist()) for _ in range(6 if words else 0)]
        parts.append([BowDoc(f"s{t}d{d}", dict(sorted(c.items()))) for d, c in enumerate(draws)])
    return monthly_slices(parts, vocab_size)


@pytest.mark.parametrize(
    "backend",
    [
        pytest.param("c", marks=pytest.mark.skipif(_kernels.BACKEND != "c", reason="no C kernel")),
        "lists",
    ],
)
@pytest.mark.parametrize("warm_start", [True, False])
@pytest.mark.parametrize("kappa", [1.0, 0.5])
def test_chain_is_bitwise_the_composition_of_train_lda_calls(kappa, warm_start, backend, monkeypatch):
    if backend == "lists":
        monkeypatch.setattr(_kernels, "c_gibbs_chain", None)
    slices, bows = _slices_over_vocabulary_subsets()
    base = LdaHyperparams(k=3, alpha=0.4, eta=0.05, iterations=12, burn_in=3, thin=2, seed=5)
    model = train_dtm(slices, bows, base, kappa=kappa, warm_start=warm_start)
    betas, thetas = _chained_by_train_lda(slices, bows, base, kappa, warm_start)
    for t in range(len(slices)):
        assert np.array_equal(model.per_slice_beta[t], betas[t]), t
        assert np.array_equal(model.per_slice_theta[t], thetas[t]), t
    assert np.array_equal(model.per_slice_beta[1], model.per_slice_beta[0])


@pytest.mark.parametrize("iterations", [2, 4], ids=["one-retained-sweep", "three"])
def test_dtm_holds_its_betas_and_at_most_four_k_by_v_arrays_more(iterations):
    """Traced allocations (numpy's buffers included) during train_dtm peak at
    per_slice_beta plus at most 4 K x V float64 arrays: slices that use a few
    hundred of V words get no K x V chain state of their own."""
    k, v = 20, 20_000
    rng = np.random.default_rng(4)
    parts = [
        [
            BowDoc(f"s{t}d{d}", {int(w): 1 for w in np.unique(rng.integers(0, v, 30))})
            for d in range(20)
        ]
        for t in range(6)
    ]
    slices, bows = monthly_slices(parts, v)
    hyper = LdaHyperparams(k=k, iterations=iterations, burn_in=1, thin=1, seed=3)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        model = train_dtm(slices, bows, hyper, kappa=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= model.per_slice_beta.nbytes + 4 * k * v * 8


@pytest.mark.parametrize("iterations", [2, 4], ids=["one-retained-sweep", "three"])
def test_streamed_dtm_builds_no_chained_prior(iterations, tmp_path):
    """Traced allocations of train_dtm_to_file, 4 slices of 25 documents at
    K = 20 and V = 20,000: the ring's two K x V slices of β, the slice's
    chain state (its K x P_t counts and prior columns), one _BLOCK_VALUES
    block of temporaries and a few int64s per token. The prior eta + kappa
    * V * beta_{t-1} is built in row blocks and in the used columns, never
    as a K x V matrix."""
    k, v = 20, 20_000
    rng = np.random.default_rng(8)
    parts = [
        [
            BowDoc(f"s{t}d{d}", dict.fromkeys(np.unique(rng.integers(0, v, 200)).tolist(), 1))
            for d in range(25)
        ]
        for t in range(4)
    ]
    slices, bows = monthly_slices(parts, v)
    slice_bows = [bows.select(s.doc_ids) for s in slices]
    used = max(np.unique(b.word_ids).size for b in slice_bows)
    tokens = max(int(b.counts.sum()) for b in slice_bows)
    hyper = LdaHyperparams(k=k, iterations=iterations, burn_in=1, thin=1, seed=3)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        train_dtm_to_file(tmp_path / "dtm.newstm", slices, bows, hyper, kappa=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ring, state = 2 * k * v * 8, 2 * k * used * 8
    assert peak - before <= ring + state + lda._BLOCK_VALUES * 8 + 8 * 8 * tokens


def test_streamed_dtm_reading_the_bows_file_holds_one_slices_bags(tmp_path):
    """train_dtm_to_file over a BowsFile, 4 slices of 25 documents at K = 20
    and V = 20,000: its traced peak is that of the same chain over bags the
    caller already holds, plus at most one slice's bags. Reading the whole
    file instead would add all four slices' bags."""
    k, v = 20, 20_000
    rng = np.random.default_rng(8)
    parts = [
        [
            BowDoc(f"s{t}d{d}", dict.fromkeys(np.unique(rng.integers(0, v, 200)).tolist(), 1))
            for d in range(25)
        ]
        for t in range(4)
    ]
    slices, bows = monthly_slices(parts, v)
    write_bows(bows, tmp_path / "bows.newstm")
    one_slice = max(16 * bows.select(s.doc_ids).word_ids.size for s in slices)
    assert bows.word_ids.nbytes + bows.counts.nbytes > 3.5 * one_slice
    hyper = LdaHyperparams(k=k, iterations=2, burn_in=1, thin=1, seed=3)

    def traced_peak(train) -> int:
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            train()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def from_file():
        with BowsFile(tmp_path / "bows.newstm") as stored:
            train_dtm_to_file(tmp_path / "file.newstm", slices, stored, hyper, kappa=1.0)

    held = traced_peak(lambda: train_dtm_to_file(tmp_path / "held.newstm", slices, bows, hyper))
    assert traced_peak(from_file) <= held + one_slice
    assert (tmp_path / "file.newstm").read_bytes() == (tmp_path / "held.newstm").read_bytes()


def test_streamed_dtm_writes_the_same_bytes_from_the_bows_file(tmp_path):
    """An empty slice, documents in no slice and a slice whose rows are not
    consecutive in the file: the same model bytes as from `read_bows`."""
    docs, _, _ = planted_two_topic_bows(n_docs=14, doc_len=6, seed=2)
    slices, _ = monthly_slices([docs[2:7][::-1], [], docs[7:12]], 10)
    write_bows(Bows.from_docs(docs, 10), tmp_path / "bows.newstm")
    with BowsFile(tmp_path / "bows.newstm") as stored:
        train_dtm_to_file(tmp_path / "file.newstm", slices, stored, BASE, kappa=0.5)
    read = read_bows(tmp_path / "bows.newstm")
    train_dtm_to_file(tmp_path / "read.newstm", slices, read, BASE, kappa=0.5)
    assert (tmp_path / "file.newstm").read_bytes() == (tmp_path / "read.newstm").read_bytes()


def _drift_hyper(seed=17):
    return LdaHyperparams(
        k=2, alpha=1.0, eta=0.01, iterations=200, burn_in=80, thin=5, seed=seed
    )


def _drift_topic_index(model):
    # Topic A is the one holding the always-present marker word at slice 0.
    return int(np.argmax(model.per_slice_beta[0, :, DRIFT_MARKER_WORD]))


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_planted_drift_trajectories(kappa):
    slices, bows = planted_drift_sliced_corpus(seed=3)
    model = train_dtm(slices, bows, _drift_hyper(), kappa=kappa)
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
    slices, bows = planted_drift_sliced_corpus(seed=3)
    tv = {}
    for kappa in (0.0, 1.0, 10.0):
        model = train_dtm(slices, bows, _drift_hyper(), kappa=kappa)
        diffs = np.abs(model.per_slice_beta[1:] - model.per_slice_beta[:-1])
        tv[kappa] = float(diffs.sum(axis=-1).mean() / 2)
    assert tv[0.0] >= tv[1.0] >= tv[10.0]


def test_all_slice_rows_are_distributions():
    slices, bows = planted_drift_sliced_corpus(seed=3)
    for kappa in (0.0, 1.0, 10.0):
        model = train_dtm(slices, bows, _drift_hyper(), kappa=kappa)
        sums = model.per_slice_beta.sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-9)
        assert (model.per_slice_beta > 0).all()


def test_trajectory_values_are_raw_beta_entries():
    slices, bows = _two_slice_corpus()
    model = train_dtm(slices, bows, BASE, kappa=1.0)
    vocab = drift_vocab()
    series = trajectory(model, 1, ["w2", "w7"], vocab)
    assert np.array_equal(series.series["w2"], model.per_slice_beta[:, 1, 2])
    assert np.array_equal(series.series["w7"], model.per_slice_beta[:, 1, 7])
    assert series.slice_labels == ("2020-01-17", "2020-02-17")


def test_trajectory_rejects_oov_words():
    slices, bows = _two_slice_corpus()
    model = train_dtm(slices, bows, BASE, kappa=1.0)
    with pytest.raises(ValueError, match="okänt"):
        trajectory(model, 0, ["w1", "okänt"], drift_vocab())
    with pytest.raises(ValueError, match="topic_id"):
        trajectory(model, 9, ["w1"], drift_vocab())


def test_unseen_word_series_is_smoothing_floor():
    # Word 9 never occurs in the drift corpus; its probability stays at the
    # strictly positive prior floor in every slice.
    slices, bows = planted_drift_sliced_corpus(seed=3)
    model = train_dtm(slices, bows, _drift_hyper(), kappa=0.0)
    series = trajectory(model, 0, ["w9"], drift_vocab())
    values = series.series["w9"]
    assert (values > 0).all()
    assert values.max() < 1e-3


def test_top_words_at_matches_slice_rows():
    slices, bows = _two_slice_corpus()
    model = train_dtm(slices, bows, BASE, kappa=0.0, warm_start=False)
    for t, time_slice in enumerate(slices):
        hyper_t = dataclasses.replace(BASE, seed=model.slice_seeds[t])
        independent = train_lda(bows.select(time_slice.doc_ids), hyper_t)
        assert top_words_at(model, 0, t, 5) == top_words(independent, 0, 5)
    with pytest.raises(ValueError):
        top_words_at(model, 0, 5, 3)


def test_top_words_at_uniform_row_tie_break():
    slices, bows = monthly_slices([[]], 10)  # empty leading slice trains nothing: uniform rows
    model = train_dtm(slices, bows, BASE, kappa=1.0)
    summary = top_words_at(model, 1, 0, 3)
    assert [term for term, _ in summary.terms] == ["0", "1", "2"]


def test_trajectory_csv_roundtrip(tmp_path):
    slices, bows = _two_slice_corpus()
    model = train_dtm(slices, bows, BASE, kappa=1.0)
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
    with pytest.raises(ValueError) as info:
        read_trajectory_csv(path)
    assert str(info.value) == (
        f"{path} line 2: column 'probability': probability nan is not in [0, 1]"
    )


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,w1,not-a-date,0.5", "column 'slice_start': Invalid isoformat string: 'not-a-date'"),
        ("0,w1,20200217,0.5", "column 'slice_start': '20200217' is not a YYYY-MM-DD date"),
        ("0,w1,2020-02-17,1.5", "column 'probability': probability 1.5 is not in [0, 1]"),
        ("0,w1,2020-02-17,-inf", "column 'probability': probability -inf is not in [0, 1]"),
        (
            "0,w1,2020-01-17,0.5",
            "topic 0 word 'w1': slice_start 2020-01-17 is not after 2020-01-17",
        ),
        (
            "0,w1,2019-12-17,0.5",
            "topic 0 word 'w1': slice_start 2019-12-17 is not after 2020-01-17",
        ),
    ],
    ids=["not-a-date", "basic-format", "above-1", "minus-inf", "repeated", "descending"],
)
def test_trajectory_csv_rejects_a_bad_row_naming_its_line(tmp_path, row, message):
    path = tmp_path / "traj.csv"
    rows = ["topic,word,slice_start,probability", "0,w1,2020-01-17,0.5", row]
    path.write_text("\r\n".join(rows) + "\r\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_trajectory_csv(path)
    assert str(info.value) == f"{path} line 3: {message}"


def test_trajectory_csv_rejects_a_word_that_comes_back_with_an_earlier_date(tmp_path):
    path = tmp_path / "traj.csv"
    rows = [
        "topic,word,slice_start,probability",
        "0,w1,2020-02-17,0.5",
        "0,w2,2020-02-17,0.5",
        "0,w1,2020-01-17,0.5",
    ]
    path.write_text("\r\n".join(rows) + "\r\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_trajectory_csv(path)
    assert str(info.value) == (
        f"{path} line 4: topic 0 word 'w1': slice_start 2020-01-17 is not after 2020-02-17"
    )


@pytest.mark.parametrize(
    "words, series, message",
    [
        (("a", "b"), {"a": [0.5]}, "series has the words ['a'], not ['a', 'b']"),
        (("a",), {"a": [0.5], "b": [0.5]}, "series has the words ['a', 'b'], not ['a']"),
        (("a", "a"), {"a": [0.5]}, "series has the words ['a'], not ['a', 'a']"),
        (("a",), {"a": [[0.5]]}, "series for 'a' has shape (1, 1), not (1,)"),
        (("a",), {"a": [0.5, 0.5]}, "series for 'a' has shape (2,), not (1,)"),
    ],
    ids=["missing-word", "extra-word", "repeated-word", "two-dimensional", "too-long"],
)
def test_trajectory_series_rejects_a_series_that_does_not_match_its_words(words, series, message):
    series = {word: np.array(values) for word, values in series.items()}
    with pytest.raises(ValueError) as info:
        TrajectorySeries(0, words, series, ("2020-01-17",))
    assert str(info.value) == message


def test_save_load_roundtrip(tmp_path):
    slices, bows = _two_slice_corpus()
    model = train_dtm(slices, bows, BASE, kappa=1.0)
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
