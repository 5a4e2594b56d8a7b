"""Model arrays written and read one leading-axis block at a time.

`train --mode dtm` writes the DTM's β slice by slice and `report` reads it
one slice at a time; the file must be the bytes of the whole-array write,
and each block the loaded slice, bit for bit.
"""

import datetime
import io
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.format import write_array

from helpers import monthly_slices, planted_two_topic_bows, read_all_arrays
from newstm.cli import main
from newstm.dtm import (
    _checked_header,
    load_dtm,
    read_trajectories,
    save_dtm,
    top_words_at,
    train_dtm,
    train_dtm_to_file,
    trajectory,
)
from newstm.lda import LdaHyperparams
from newstm.modelfile import BlockFile, Blocks, write_model
from newstm.corpus import TimeSlice
from newstm.preprocess import BowDoc, Bows, TokenStream, build_vocabulary

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import gen  # noqa: E402

HYPER = LdaHyperparams(k=3, alpha=0.8, eta=0.05, iterations=6, burn_in=2, thin=2, seed=5)
RETRAIN = "newstm train --mode dtm"
F8 = np.dtype(np.float64)


def _whole_array_bytes(path):
    """The file at `path` as the whole-array writer lays it out: its header,
    then numpy's `write_array` of each array as `BlockFile` reads it whole."""
    meta, arrays = read_all_arrays(path, "newstm-dtm")
    header = {
        "format": "newstm-dtm",
        "version": 2,
        "meta": meta,
        "arrays": [
            {"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str}
            for name, arr in arrays.items()
        ],
    }
    out = io.BytesIO()
    out.write(json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n")
    for arr in arrays.values():
        write_array(out, arr, version=(1, 0), allow_pickle=False)
    return out.getvalue()


def _vocab(size):
    return build_vocabulary(
        [TokenStream("d", tuple(f"w{i}" for i in range(size)))], no_below=1, no_above=1.0
    )


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """The `wide` benchmark workspace (seed 0) through `train --mode dtm`:
    twelve slices, k = 20 and V near 15,000."""
    work = tmp_path_factory.mktemp("wide")
    corpus = work / "wide.jsonl"
    gen.write_wide_corpus(0, corpus, gen.bundled_stopwords())
    config = work / "run.ini"
    config.write_text(
        f"[corpus]\npath = {corpus}\n[preprocess]\nno_above = 0.9\n"
        "[lda]\nk = 20\niterations = 1\nburn_in = 0\nthin = 1\nseed = 0\n",
        encoding="utf-8",
    )
    argv = ["--workspace", str(work / "ws"), "--config", str(config)]
    for command in (["ingest"], ["preprocess"], ["train", "--mode", "dtm"]):
        assert main(argv + command) == 0
    return work / "ws" / "model_dtm.newstm"


def _empty_slices_model(path):
    # Every slice empty: β is uniform throughout and θ has no rows.
    slices, bows = monthly_slices([[], [], []], 7)
    train_dtm_to_file(path, slices, bows, HYPER)
    return path


def _one_slice_model(path):
    docs, _, _ = planted_two_topic_bows(n_docs=12, doc_len=6, seed=2)
    slices, bows = monthly_slices([docs], 10)
    train_dtm_to_file(path, slices, bows, HYPER)
    return path


@pytest.mark.parametrize("case", ["one-slice", "wide", "every-slice-empty"])
def test_streamed_write_is_the_whole_array_write(tmp_path, request, case):
    if case == "wide":
        path = request.getfixturevalue("wide")
    elif case == "one-slice":
        path = _one_slice_model(tmp_path / "dtm.newstm")
    else:
        path = _empty_slices_model(tmp_path / "dtm.newstm")
    model = load_dtm(path)
    assert model.n_slices == {"one-slice": 1, "wide": 12, "every-slice-empty": 3}[case]
    if case == "every-slice-empty":
        assert np.concatenate(model.per_slice_theta).shape == (0, HYPER.k)
    assert path.read_bytes() == _whole_array_bytes(path)
    # save_dtm writes through the same streamed path.
    save_dtm(model, tmp_path / "again.newstm")
    assert (tmp_path / "again.newstm").read_bytes() == path.read_bytes()


def test_streamed_train_writes_the_file_of_train_dtm_then_save_dtm(tmp_path):
    docs, _, _ = planted_two_topic_bows(n_docs=12, doc_len=6, seed=2)
    slices, bows = monthly_slices([docs[:7], [], docs[7:]], 10)
    train_dtm_to_file(tmp_path / "streamed.newstm", slices, bows, HYPER, kappa=0.5)
    save_dtm(train_dtm(slices, bows, HYPER, kappa=0.5), tmp_path / "saved.newstm")
    assert (tmp_path / "streamed.newstm").read_bytes() == (tmp_path / "saved.newstm").read_bytes()


def test_each_block_is_bitwise_the_loaded_slice(wide):
    betas = load_dtm(wide).per_slice_beta
    with BlockFile(wide, "newstm-dtm", RETRAIN, _checked_header) as stored:
        slices, _, hyper = stored.header
        assert (len(slices), hyper.k) == betas.shape[:2]
        out = np.empty((1, *betas.shape[1:]))
        for t in range(len(slices)):
            assert stored.rows("per_slice_beta", t, t + 1).tobytes() == betas[t].tobytes()
            assert stored.rows("per_slice_beta", t, t + 1, out=out) is out
            assert out.tobytes() == betas[t].tobytes()
        # A run of blocks, as one array: by default the whole array, or to its end.
        for start, stop in ((0, None), (0, len(slices)), (1, 3), (2, 2), (len(slices) - 1, None)):
            run = stored.rows("per_slice_beta", start, stop)
            assert run.shape == betas[start:stop].shape
            assert run.tobytes() == betas[start:stop].tobytes()
        for start, stop in ((-1, 1), (2, 1), (0, len(slices) + 1), (len(slices) + 1, None)):
            with pytest.raises(IndexError):
                stored.rows("per_slice_beta", start, stop)


def _composed_trajectories(path, vocab, n):
    # What `report` computed from the whole loaded model.
    model = load_dtm(path)
    out = []
    for topic in range(model.base_hyper.k):
        summary = top_words_at(model, topic, model.n_slices - 1, n, vocab)
        out.append(trajectory(model, topic, [term for term, _ in summary.terms], vocab))
    return out


@pytest.mark.parametrize("n", [1, 5])
def test_read_trajectories_are_top_words_at_the_last_slice_followed_through_all(tmp_path, n):
    docs, _, _ = planted_two_topic_bows(n_docs=12, doc_len=6, seed=2)
    slices, bows = monthly_slices([docs[:7], [], docs[7:]], 10)
    path = tmp_path / "dtm.newstm"
    train_dtm_to_file(path, slices, bows, HYPER)
    vocab = _vocab(10)
    got, want = read_trajectories(path, vocab, n), _composed_trajectories(path, vocab, n)
    assert [(s.topic_id, s.words, s.slice_labels) for s in got] == [
        (s.topic_id, s.words, s.slice_labels) for s in want
    ]
    for a, b in zip(got, want):
        for word in a.words:
            assert a.series[word].tobytes() == b.series[word].tobytes()


def _shrink_first_shape(path):
    header, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["arrays"][0]["shape"][-1] -= 1
    path.write_bytes(json.dumps(header).encode() + b"\n" + rest)


FAULTS = {
    "truncated": (
        lambda path: path.write_bytes(path.read_bytes()[:-8]),
        r"the file is \d+ bytes, its header says \d+: truncated",
    ),
    "trailing-bytes": (
        lambda path: path.write_bytes(path.read_bytes() + b"\0"),
        "trailing bytes after the last array",
    ),
    "wrong-shape": (_shrink_first_shape, r"header says <f8\[3, 3, 9\]"),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_block_reader_rejects_a_malformed_file_naming_path_and_retrain_command(tmp_path, fault):
    docs, _, _ = planted_two_topic_bows(n_docs=12, doc_len=6, seed=2)
    slices, bows = monthly_slices([docs[:7], [], docs[7:]], 10)
    path = tmp_path / "dtm.newstm"
    train_dtm_to_file(path, slices, bows, HYPER)
    corrupt, reason = FAULTS[fault]
    corrupt(path)
    pattern = (
        f"^{re.escape(str(path))}: not a valid newstm-dtm model file "
        f"\\(.*{reason}.*\\); re-run `{RETRAIN}`$"
    )
    with pytest.raises(ValueError, match=pattern):
        read_trajectories(path, _vocab(10), 2)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*re-run `{RETRAIN}`$"):
        load_dtm(path)


def _rows(*lengths, dtype=np.float64):
    return iter([np.ones((n, 2), dtype=dtype) for n in lengths])


BAD_STREAMS = {
    "short": (Blocks((3, 2), F8, _rows(1, 1)), "the blocks hold 2 rows, not 3"),
    "long": (Blocks((3, 2), F8, _rows(2, 2)), "the blocks hold more than 3 rows"),
    "mis-shaped": (
        Blocks((3, 2), F8, iter([np.ones((3, 4))])),
        r"a block of float64\[3, 4\] does not fit <f8\[3, 2\]",
    ),
    "one-dimensional": (
        Blocks((3, 2), F8, iter([np.ones(6)])),
        r"a block of float64\[6\] does not fit <f8\[3, 2\]",
    ),
    "bool-block": (
        Blocks((3, 2), F8, _rows(1, 2, dtype=bool)),
        r"a block of bool\[1, 2\] does not fit <f8\[3, 2\]",
    ),
    "int-block": (
        Blocks((3, 2), F8, _rows(3, dtype=np.int64)),
        r"a block of int64\[3, 2\] does not fit <f8\[3, 2\]",
    ),
}


@pytest.mark.parametrize("case", list(BAD_STREAMS))
def test_a_bad_block_stream_leaves_no_file(tmp_path, case):
    stream, message = BAD_STREAMS[case]
    path = tmp_path / "model.newstm"
    with pytest.raises(ValueError, match=rf"^array 'a': {message}$"):
        write_model(path, "newstm-test", {}, {"first": np.zeros(2), "a": stream})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint64, np.complex128])
def test_an_array_that_is_neither_float_nor_int_is_rejected_by_name(tmp_path, dtype):
    path = tmp_path / "model.newstm"
    with pytest.raises(ValueError, match=rf"^array 'mask' has dtype {np.dtype(dtype)}, "):
        write_model(path, "newstm-test", {}, {"ok": np.zeros(2), "mask": np.ones(3, dtype=dtype)})
    with pytest.raises(ValueError, match=rf"^array 'mask' has dtype {np.dtype(dtype)}, "):
        write_model(path, "newstm-test", {}, {"mask": Blocks((3,), np.dtype(dtype), iter([]))})
    assert list(tmp_path.iterdir()) == []


def _sparse_slices(n_slices, v):
    """`n_slices` month-long slices from 2020-01-17 of 5 documents, each of
    30 distinct words out of V, and the Bows of them all."""
    rng = np.random.default_rng(8)
    docs, slices = [], []
    for t in range(n_slices):
        part = [
            BowDoc(f"s{t}d{d}", dict.fromkeys(np.unique(rng.integers(0, v, 30)).tolist(), 1))
            for d in range(5)
        ]
        start = datetime.date(2020 + t // 12, 1 + t % 12, 17)
        end = datetime.date(2020 + (t + 1) // 12, 1 + (t + 1) % 12, 17)
        slices.append(TimeSlice(start, end, tuple(b.doc_id for b in part)))
        docs += part
    return slices, Bows.from_docs(docs, v)


def _traced_peak(run):
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def test_train_and_report_peaks_do_not_grow_with_the_number_of_slices(tmp_path):
    """The CLI's DTM train-and-write and report's DTM read hold a fixed
    number of (k, V) slices, whatever the number of slices: the peaks at 3
    and at 12 slices differ by less than one k x V array."""
    k, v = 20, 20_000
    hyper = LdaHyperparams(k=k, iterations=2, burn_in=1, thin=1, seed=3)
    vocab = _vocab(v)
    peaks = {}
    for n_slices in (3, 12):
        slices, bows = _sparse_slices(n_slices, v)
        path = tmp_path / f"dtm{n_slices}.newstm"
        train = _traced_peak(lambda: train_dtm_to_file(path, slices, bows, hyper))
        report = _traced_peak(lambda: read_trajectories(path, vocab, 5))
        peaks[n_slices] = train, report
    (train_3, report_3), (train_12, report_12) = peaks[3], peaks[12]
    assert abs(train_12 - train_3) < k * v * 8
    assert abs(report_12 - report_3) < k * v * 8
