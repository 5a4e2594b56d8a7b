import ast
import datetime
import json
import logging
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.format import write_array_header_1_0, write_array_header_2_0

from helpers import monthly_slices, planted_two_topic_bows
from newstm import _kernels, modelfile
from newstm.cli import Workspace, _sha256, main
from newstm.corpus import (
    Corpus,
    Document,
    read_timeline_csv,
    save_corpus,
    write_timeline_csv,
)
from newstm.dtm import (
    TrajectorySeries,
    _checked_header,
    load_dtm,
    read_trajectories,
    save_dtm,
    train_dtm,
)
from newstm.evaluate import (
    CoherenceReport,
    IntertopicMap,
    write_coherence_json,
    write_overlap_json,
)
from newstm.exports import (
    read_intertopic_csv,
    read_trajectory_csv,
    write_intertopic_csv,
    write_trajectory_csv,
)
from newstm.lda import LdaHyperparams, load_lda, save_lda, train_lda
from newstm.preprocess import (
    BowDoc,
    Bows,
    TokenStream,
    build_vocabulary,
    read_bows,
    write_bows,
    write_vocabulary,
)
from newstm.modelfile import BlockFile, json_fields, read_model, write_model
from newstm.viz import FigureSpec, plot_timeline
from test_cli import write_config

HYPER = LdaHyperparams(k=3, alpha=0.8, eta=0.05, iterations=6, burn_in=2, thin=2, seed=5)


@pytest.fixture(scope="module")
def models():
    docs, _, _ = planted_two_topic_bows(n_docs=12, doc_len=6, seed=2)
    # The empty middle slice gives a zero-row theta that must survive the file.
    slices, bows = monthly_slices([docs[:7], [], docs[7:]], 10)
    lda = train_lda(bows, HYPER)
    dtm = train_dtm(slices, bows, HYPER, kappa=1.0)
    return {"lda": (lda, save_lda, load_lda, "static"), "dtm": (dtm, save_dtm, load_dtm, "dtm")}


def _old_json_model(path, fmt):
    """The start of a model file as the JSON writer of format version 1 laid it out."""
    payload = {"format": fmt, "version": 1, "vocab_size": 10, "beta": [[0.1] * 10] * 3}
    path.write_text(json.dumps(payload), encoding="utf-8")


def _with_header(path, edit):
    header, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + rest)


def _shrink_first_shape(header):
    header["arrays"][0]["shape"][-1] -= 1


def _add_a_topic(header):
    meta = header["meta"]
    (meta["hyper"] if "hyper" in meta else meta["base_hyper"])["k"] += 1


def _hyper_of(header):
    meta = header["meta"]
    return meta["hyper"] if "hyper" in meta else meta["base_hyper"]


# Header fields of the wrong JSON type.
MISTYPED = {
    "float-k": lambda header: _hyper_of(header).update(k=3.0),
    "bool-seed": lambda header: _hyper_of(header).update(seed=True),
    "float-shape": lambda header: header["arrays"][0]["shape"].__setitem__(0, 3.0),
    "null-alpha": lambda header: _hyper_of(header).update(alpha=None),
}

# Each way a model file can be malformed, and what the error says about it.
CASES = {
    "old-json": "version 1, expected 2",
    "other-kind": "format is 'newstm-(lda|dtm)', expected 'newstm-(lda|dtm)'",
    "truncated": r"the file is \d+ bytes, its header says \d+: truncated",
    "trailing-bytes": "trailing bytes after the last array",
    "shape-mismatch": r"header says <f8\[",
    "topic-count": r"beta has shape \((3, )?3, 10\), not \((3, )?4, V\)",
    "float-k": r"field 'k' must be an integer, got 3\.0",
    "bool-seed": "field 'seed' must be an integer, got true",
    "float-shape": r"field 'shape' must be a list of integers, got \[3\.0, ",
    "null-alpha": "field 'alpha' must be a finite number, got null",
}


def _other(kind):
    return "dtm" if kind == "lda" else "lda"


def _corrupt(case, path, models, kind):
    if case == "old-json":
        _old_json_model(path, f"newstm-{kind}")
    elif case == "other-kind":
        model, save, _, _ = models[_other(kind)]
        save(model, path)
    elif case == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
    elif case == "trailing-bytes":
        path.write_bytes(path.read_bytes() + b"\0")
    elif case == "shape-mismatch":
        _with_header(path, _shrink_first_shape)
    elif case == "topic-count":
        _with_header(path, _add_a_topic)
    elif case in MISTYPED:
        _with_header(path, MISTYPED[case])


@pytest.mark.parametrize("kind", ["lda", "dtm"])
@pytest.mark.parametrize("case", list(CASES))
def test_malformed_model_file_names_path_and_retrain_command(tmp_path, models, kind, case):
    model, save, load, mode = models[kind]
    path = tmp_path / "model.newstm"
    save(model, path)
    _corrupt(case, path, models, kind)
    reason = CASES[case].format(kind=kind, other=_other(kind))
    pattern = (
        f"^{re.escape(str(path))}: not a valid newstm-{kind} model file "
        f"\\(.*{reason}.*\\); re-run `newstm train --mode {mode}`$"
    )
    with pytest.raises(ValueError, match=pattern):
        load(path)


def _dtm_file(path, meta, beta, theta):
    write_model(path, "newstm-dtm", meta, {"per_slice_beta": beta, "per_slice_theta": theta})


def test_dtm_theta_rows_come_from_the_header(tmp_path, models):
    # Each slice's θ rows are its doc ids in the header, in order.
    model = models["dtm"][0]
    path = tmp_path / "dtm.newstm"
    save_dtm(model, path)
    assert [t.shape[0] for t in load_dtm(path).per_slice_theta] == [7, 0, 5]
    meta = json.loads(path.read_bytes().split(b"\n", 1)[0])["meta"]
    beta, theta = model.per_slice_beta, np.concatenate(model.per_slice_theta)
    slices = meta["slices"]
    slices[1]["doc_ids"].append(slices[0]["doc_ids"].pop())  # the rows move with the doc id
    _dtm_file(path, meta, beta, theta)
    loaded = load_dtm(path)
    assert [t.shape[0] for t in loaded.per_slice_theta] == [6, 1, 5]
    assert np.array_equal(loaded.per_slice_theta[1], theta[6:7])
    for rows in (theta[:-1], np.concatenate([theta, theta[:1]])):
        _dtm_file(path, meta, beta, rows)
        with pytest.raises(ValueError, match=rf"has shape \({len(rows)}, 3\), not \(12, 3\)"):
            load_dtm(path)


def _swap_first_slices(meta):
    slices = meta["slices"]
    slices[0], slices[1] = slices[1], slices[0]


# Slice entries as `slice_monthly` never builds them; `models` has three
# slices of 7, 0 and 5 documents, a month each from 2020-01-17. Every edit
# keeps the θ rows the doc ids call for.
BAD_SLICES = {
    "doc-ids-string": (
        lambda meta: meta["slices"][0].update(doc_ids="abcdefg"),
        "slice 0: field 'doc_ids' must be a list of strings, got \"abcdefg\"",
    ),
    "out-of-order": (
        _swap_first_slices,
        "slice 1: start 2020-01-17 is not slice 0's end 2020-03-17",
    ),
    "empty-span": (
        lambda meta: meta["slices"][2].update(end="2020-03-17"),
        "slice 2: start 2020-03-17 is not before end 2020-03-17",
    ),
    "gap": (
        lambda meta: meta["slices"][1].update(end="2020-03-01"),
        "slice 2: start 2020-03-17 is not slice 1's end 2020-03-01",
    ),
    "basic-date": (
        lambda meta: meta["slices"][0].update(start="20200117"),
        "slice 0: '20200117' is not a YYYY-MM-DD date",
    ),
    "bool-kappa": (
        lambda meta: meta.update(kappa=True),
        "field 'kappa' must be a finite number, got true",
    ),
}


@pytest.mark.parametrize("case", list(BAD_SLICES))
def test_dtm_header_rejects_a_field_slice_monthly_would_not_write(tmp_path, models, case):
    edit, fault = BAD_SLICES[case]
    model = models["dtm"][0]
    path = tmp_path / "dtm.newstm"
    save_dtm(model, path)
    meta = json.loads(path.read_bytes().split(b"\n", 1)[0])["meta"]
    edit(meta)
    _dtm_file(path, meta, model.per_slice_beta, np.concatenate(model.per_slice_theta))
    with pytest.raises(ValueError) as info:
        load_dtm(path)
    assert f"not a valid newstm-dtm model file ({fault}" in str(info.value)


# DTM headers whose kappa `save_dtm` never writes: it writes kappa >= 0.
BAD_CHAIN = {
    "negative-kappa": (lambda meta: meta.update(kappa=-5.0), "kappa -5.0 is below 0"),
}


def _vocab(size):
    tokens = TokenStream("d", tuple(f"w{i}" for i in range(size)))
    return build_vocabulary([tokens], no_below=1, no_above=1.0)


@pytest.mark.parametrize("read", ["load_dtm", "read_trajectories"])
@pytest.mark.parametrize("case", list(BAD_CHAIN))
def test_dtm_header_rejects_a_kappa_save_dtm_would_not_write(tmp_path, models, case, read):
    edit, fault = BAD_CHAIN[case]
    model = models["dtm"][0]
    path = tmp_path / "dtm.newstm"
    save_dtm(model, path)
    meta = json.loads(path.read_bytes().split(b"\n", 1)[0])["meta"]
    edit(meta)
    _dtm_file(path, meta, model.per_slice_beta, np.concatenate(model.per_slice_theta))
    with pytest.raises(ValueError) as info:
        load_dtm(path) if read == "load_dtm" else read_trajectories(path, _vocab(10), 2)
    message = str(info.value)
    assert message.startswith(f"{path}: not a valid newstm-dtm model file ({fault}")
    assert message.endswith("; re-run `newstm train --mode dtm`")


# Slice seeds and slice indices that files written before these fields were
# dropped may carry, each one a value such a file's reader once rejected.
# The seeds follow from the base seed and T, and an index from its slice's
# position, so the readers ignore them all.
OLD_SEEDS_AND_INDICES = {
    "one-seed": lambda meta: meta.update(slice_seeds=[7]),
    "other-seeds": lambda meta: meta.update(slice_seeds=[1, 2, 3]),
    "base-seed-only": lambda meta: meta.update(slice_seeds=[5]),
    "float-seed": lambda meta: meta.update(slice_seeds=[5, 1.5, 2]),
    "float-index": lambda meta: meta["slices"][0].update(index=0.0),
    "other-index": lambda meta: meta["slices"][2].update(index=5),
}


@pytest.mark.parametrize("read", ["load_dtm", "read_trajectories"])
@pytest.mark.parametrize("case", list(OLD_SEEDS_AND_INDICES))
def test_dtm_header_ignores_old_slice_seeds_and_indices(tmp_path, models, case, read):
    model = models["dtm"][0]
    path = tmp_path / "dtm.newstm"
    save_dtm(model, path)
    want = read_trajectories(path, _vocab(10), 2)
    meta = json.loads(path.read_bytes().split(b"\n", 1)[0])["meta"]
    OLD_SEEDS_AND_INDICES[case](meta)
    _dtm_file(path, meta, model.per_slice_beta, np.concatenate(model.per_slice_theta))
    if read == "load_dtm":
        loaded = load_dtm(path)
        assert [s.index for s in loaded.slices] == [0, 1, 2]
        assert loaded.slice_seeds == model.slice_seeds
        assert np.array_equal(loaded.per_slice_beta, model.per_slice_beta)
        for got, expected in zip(loaded.per_slice_theta, model.per_slice_theta, strict=True):
            assert np.array_equal(got, expected)
    else:
        got = read_trajectories(path, _vocab(10), 2)
        assert [(s.words, s.slice_labels) for s in got] == [(s.words, s.slice_labels) for s in want]
        for g, w in zip(got, want, strict=True):
            assert all(np.array_equal(g.series[word], w.series[word]) for word in w.words)


@pytest.mark.parametrize("read", ["load_dtm", "read_trajectories"])
def test_dtm_file_with_no_slices_is_rejected(tmp_path, models, read):
    # train_dtm needs at least one slice.
    path = tmp_path / "dtm.newstm"
    save_dtm(models["dtm"][0], path)
    meta = json.loads(path.read_bytes().split(b"\n", 1)[0])["meta"]
    meta.update(slices=[])
    _dtm_file(path, meta, np.zeros((0, 3, 10)), np.zeros((0, 3)))
    with pytest.raises(ValueError) as info:
        load_dtm(path) if read == "load_dtm" else read_trajectories(path, _vocab(10), 2)
    assert str(info.value) == (
        f"{path}: not a valid newstm-dtm model file (the model has no time slices); "
        "re-run `newstm train --mode dtm`"
    )


def _with_first_array(path, write_npy_header, fortran_order=False, rows=None):
    """Rewrite the model file at `path` with its first array's `.npy` header
    written by `write_npy_header`, in Fortran order if `fortran_order`, and
    saying `rows` rows (in the JSON header too), if given, with the same
    array bytes after it."""
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    _, arrays = read_model(path, header["format"], "", lambda meta, arrays: (meta, arrays))
    if rows is not None:
        header["arrays"][0]["shape"][0] = rows
    with path.open("wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for i, (entry, array) in enumerate(zip(header["arrays"], arrays.values())):
            fields = {"descr": entry["dtype"], "shape": tuple(entry["shape"])}
            if i == 0:
                write_npy_header(fh, {**fields, "fortran_order": fortran_order})
            else:
                write_array_header_1_0(fh, {**fields, "fortran_order": False})
            fh.write(array.tobytes())


# Array layouts that `write_model` never writes, and what the error says.
BAD_LAYOUTS = {
    "fortran-order": (
        lambda path: _with_first_array(path, write_array_header_1_0, fortran_order=True),
        "is stored in Fortran order",
    ),
    "npy-2.0": (
        lambda path: _with_first_array(path, write_array_header_2_0),
        r"is not in \.npy format 1\.0",
    ),
    "10**11-rows": (
        lambda path: _with_first_array(path, write_array_header_1_0, rows=10**11),
        r"the file is \d+ bytes, its header says \d+: truncated",
    ),
    # Read as a length, it would seek to before the start of the file.
    "negative-rows": (
        lambda path: _with_first_array(path, write_array_header_1_0, rows=-10**6),
        r"has shape \[-1000000.*\], a length below 0",
    ),
}

RETRAIN_DTM = "newstm train --mode dtm"

# Each reader of a model file: how to write a valid file for it, how to
# read one, its format and the command that rewrites the file.
READERS = {
    "read_bows": (
        lambda path, models: write_bows(Bows.from_docs(planted_two_topic_bows(4, 3)[0], 10), path),
        read_bows,
        "newstm-bows",
        "newstm preprocess",
    ),
    "load_lda": (
        lambda path, models: save_lda(models["lda"][0], path),
        load_lda,
        "newstm-lda",
        "newstm train --mode static",
    ),
    "load_dtm": (
        lambda path, models: save_dtm(models["dtm"][0], path),
        load_dtm,
        "newstm-dtm",
        RETRAIN_DTM,
    ),
    "BlockFile": (
        lambda path, models: save_dtm(models["dtm"][0], path),
        lambda path: BlockFile(path, "newstm-dtm", RETRAIN_DTM, _checked_header).close(),
        "newstm-dtm",
        RETRAIN_DTM,
    ),
}


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("layout", list(BAD_LAYOUTS))
def test_every_reader_rejects_an_array_layout_write_model_never_writes(
    tmp_path, models, reader, layout
):
    write, read, fmt, retrain = READERS[reader]
    corrupt, reason = BAD_LAYOUTS[layout]
    path = tmp_path / "model.newstm"
    write(path, models)
    read(path)  # the valid file reads
    corrupt(path)
    pattern = (
        f"^{re.escape(str(path))}: not a valid {fmt} model file "
        f"\\(.*{reason}.*\\); re-run `{re.escape(retrain)}`$"
    )
    with pytest.raises(ValueError, match=pattern):
        read(path)


def test_model_files_that_carry_vocab_size_and_theta_rows_load_to_the_same_arrays(
    tmp_path, models
):
    # Headers once also held `vocab_size` (beta's last axis) and, for the
    # DTM, each slice's θ row count (its number of doc ids), the slice seeds
    # (a function of the base seed and T) and each slice's index (its
    # position). All are ignored, so these wrong values change nothing.
    def add_old_fields(header):
        header["meta"]["vocab_size"] = 10
        if header["format"] == "newstm-dtm":
            header["meta"]["theta_rows"] = [6, 1, 5]  # ignored: rows follow the doc ids
            header["meta"]["slice_seeds"] = [1, 2, 3]
            for t, entry in enumerate(header["meta"]["slices"]):
                entry["index"] = 7 - t

    upgraded = {}
    for kind in ("lda", "dtm"):
        model, save, load, _ = models[kind]
        path = tmp_path / f"{kind}.newstm"
        save(model, path)
        written = path.read_bytes()
        _with_header(path, add_old_fields)
        upgraded[kind] = load(path)
        if kind == "dtm":  # as `report` reads a workspace built before the change
            old = read_trajectories(path, _vocab(10), 2)
        save(upgraded[kind], path)
        assert path.read_bytes() == written, kind  # the same arrays and metadata
    assert upgraded["lda"].vocab_size == 10
    assert [t.shape[0] for t in upgraded["dtm"].per_slice_theta] == [7, 0, 5]
    assert upgraded["dtm"].slice_seeds == models["dtm"][0].slice_seeds
    fresh = read_trajectories(tmp_path / "dtm.newstm", _vocab(10), 2)
    assert [(s.words, s.slice_labels) for s in old] == [(s.words, s.slice_labels) for s in fresh]
    for got, want in zip(old, fresh):
        assert all(np.array_equal(got.series[w], want.series[w]) for w in want.words)
    meta = json.loads(written.split(b"\n", 1)[0])["meta"]
    assert set(meta) == {"kappa", "base_hyper", "slices"}
    assert all(set(entry) == {"start", "end", "doc_ids"} for entry in meta["slices"])


@pytest.mark.parametrize(
    "backend",
    [
        pytest.param("c", marks=pytest.mark.skipif(_kernels.BACKEND != "c", reason="no C kernel")),
        "lists",
    ],
)
def test_training_from_the_bows_file_gives_the_same_model_bytes(tmp_path, monkeypatch, backend):
    if backend == "lists":
        monkeypatch.setattr(_kernels, "c_gibbs_chain", None)
    docs, _, _ = planted_two_topic_bows(n_docs=12, doc_len=6, seed=2)
    docs.insert(5, BowDoc("empty", {}))
    slices, in_memory = monthly_slices([docs[:7], [], docs[7:]], 10)
    write_bows(in_memory, tmp_path / "bows.newstm")
    stored = read_bows(tmp_path / "bows.newstm")
    files = {}
    for name, bows in (("docs", in_memory), ("file", stored)):
        save_lda(train_lda(bows, HYPER), tmp_path / f"lda_{name}.newstm")
        save_dtm(train_dtm(slices, bows, HYPER), tmp_path / f"dtm_{name}.newstm")
        files[name] = [(tmp_path / f"{kind}_{name}.newstm").read_bytes() for kind in ("lda", "dtm")]
    assert files["file"] == files["docs"]


@pytest.mark.parametrize("kind", ["lda", "dtm"])
def test_failed_write_keeps_previous_file(tmp_path, models, monkeypatch, kind):
    model, save, _, _ = models[kind]
    path = tmp_path / "model.newstm"
    save(model, path)
    before = path.read_bytes()
    real_write_array = modelfile.write_array
    calls = []

    def fail_on_second_array(fh, arr, **kwargs):
        calls.append(arr.shape)
        if len(calls) == 2:
            raise OSError("disk full")
        real_write_array(fh, arr, **kwargs)

    monkeypatch.setattr(modelfile, "write_array", fail_on_second_array)
    with pytest.raises(OSError, match="disk full"):
        save(model, path)
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cli_exits_2_on_old_json_model(tmp_path, sample_corpus_path, models, caplog):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    for command in (["ingest"], ["preprocess"], ["train", "--mode", "static"]):
        assert main(["--workspace", str(ws), "--config", str(config), *command]) == 0
    # A workspace written before model files became binary: the manifest names
    # a JSON model file and carries its hash, so only the loader can reject it.
    workspace = Workspace(ws)
    manifest = workspace.load_manifest()
    old = ws / "model_static.newstm"
    _old_json_model(old, "newstm-lda")
    manifest["artifacts"]["model_static"]["sha256"] = _sha256(old)
    workspace.save_manifest(manifest)

    with caplog.at_level(logging.ERROR):
        code = main(["--workspace", str(ws), "--config", str(config), "report"])
    assert code == 2
    assert f"{old}: not a valid newstm-lda model file" in caplog.text
    assert "re-run `newstm train --mode static`" in caplog.text
    assert all(record.exc_info is None for record in caplog.records)
    assert "Traceback" not in caplog.text



DAY = datetime.date(2020, 1, 17)

# Every writer of a workspace file, each writing a small valid artifact to `path`.
WRITERS = {
    "save_corpus": lambda path, models: save_corpus(
        Corpus((Document("a", DAY, "inrikes", "t", "b"),)), path
    ),
    "write_timeline_csv": lambda path, models: write_timeline_csv([(DAY, 1)], path),
    "write_vocabulary": lambda path, models: write_vocabulary(
        build_vocabulary([TokenStream("a", ("x", "y"))], no_below=1, no_above=1.0), path
    ),
    "write_bows": lambda path, models: write_bows(Bows.from_docs([BowDoc("a", {0: 1})], 1), path),
    "write_coherence_json": lambda path, models: write_coherence_json(
        CoherenceReport((0.5,), 0.5, 2, 0), path
    ),
    "write_overlap_json": lambda path, models: write_overlap_json(np.eye(2), 2, path),
    "write_intertopic_csv": lambda path, models: write_intertopic_csv(
        IntertopicMap(np.zeros((2, 2)), np.full(2, 0.5)), path
    ),
    "write_trajectory_csv": lambda path, models: write_trajectory_csv(
        [TrajectorySeries(0, ("x",), {"x": np.ones(1)}, (DAY.isoformat(),))], path
    ),
    "svg": lambda path, models: plot_timeline([(DAY, 1)], FigureSpec("t", path=path)),
    "save_manifest": lambda path, models: Workspace(path.parent).save_manifest(
        {"format": "newstm-workspace", "version": 1, "artifacts": {}}
    ),
    "save_lda": lambda path, models: save_lda(models["lda"][0], path),
    "save_dtm": lambda path, models: save_dtm(models["dtm"][0], path),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_rename_keeps_previous_artifact(tmp_path, models, monkeypatch, writer):
    # Named for the one writer whose file name is fixed; the others take any path.
    path = tmp_path / "manifest.json"
    path.write_bytes(b"old bytes\n")

    def fail(src, dst):
        raise OSError("rename failed")

    with monkeypatch.context() as patch:
        patch.setattr(modelfile.os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            WRITERS[writer](path, models)
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]

    WRITERS[writer](path, models)
    assert path.read_bytes() != b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize(
    "read, lines, fields",
    [
        (read_timeline_csv, ["date,count", "2020-01-17,1", "2020-01-18"], 1),
        (
            read_trajectory_csv,
            ["topic,word,slice_start,probability", "0,x,2020-01-17,0.5", "0,x"],
            2,
        ),
        (read_intertopic_csv, ["topic,x,y,prevalence", "0,0.0,0.0,0.5", "1,0.0"], 2),
    ],
    ids=["timeline", "trajectory", "intertopic"],
)
def test_csv_reader_rejects_short_row(tmp_path, read, lines, fields):
    path = tmp_path / "table.csv"
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    columns = lines[0].count(",") + 1
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == f"{path} line 3: expected {columns} fields, got {fields}"


@pytest.mark.parametrize(
    "read, lines, message",
    [
        (
            read_timeline_csv,
            ["date,count", "2020-01-17,1", "2020-01-18,x"],
            "column 'count': invalid literal for int() with base 10: 'x'",
        ),
        (
            read_trajectory_csv,
            ["topic,word,slice_start,probability", "0,x,2020-01-17,0.5", "0,x,2020-02-17,zz"],
            "column 'probability': could not convert string to float: 'zz'",
        ),
        (
            read_intertopic_csv,
            ["topic,x,y,prevalence", "0,0.0,0.0,0.5", "1,0.0,y,0.5"],
            "column 'y': could not convert string to float: 'y'",
        ),
        (
            read_timeline_csv,
            ["date,count", "2020-01-17,1", "20200118,1"],
            "column 'date': '20200118' is not a YYYY-MM-DD date",
        ),
    ],
    ids=["timeline", "trajectory", "intertopic", "timeline-basic-date"],
)
def test_csv_reader_rejects_bad_value(tmp_path, read, lines, message):
    path = tmp_path / "table.csv"
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == f"{path} line 3: {message}"


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,nan,0.0,0.5", "column 'x': nan is not finite"),
        ("1,0.0,inf,0.5", "column 'y': inf is not finite"),
        ("1,0.0,0.0,-inf", "column 'prevalence': -inf is not finite"),
        ("1,0.0,0.0,-0.5", "column 'prevalence': prevalence -0.5 is negative"),
    ],
    ids=["nan-x", "inf-y", "inf-prevalence", "negative-prevalence"],
)
def test_intertopic_csv_rejects_a_non_finite_or_negative_field(tmp_path, row, message):
    path = tmp_path / "intertopic.csv"
    lines = ["topic,x,y,prevalence", "0,0.0,0.0,0.5", row]
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_intertopic_csv(path)
    assert str(info.value) == f"{path} line 3: {message}"


@pytest.mark.parametrize(
    "topics, line, message",
    [
        ("33", 2, "topic 3 where topic 0 belongs (0..K-1 in row order)"),
        ("00", 3, "topic 0 where topic 1 belongs (0..K-1 in row order)"),
        ("10", 2, "topic 1 where topic 0 belongs (0..K-1 in row order)"),
    ],
    ids=["repeated-3", "repeated-0", "swapped"],
)
def test_intertopic_csv_rejects_topics_out_of_row_order(tmp_path, topics, line, message):
    path = tmp_path / "intertopic.csv"
    lines = ["topic,x,y,prevalence", *(f"{t},0.0,0.0,0.5" for t in topics)]
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_intertopic_csv(path)
    assert str(info.value) == f"{path} line {line}: {message}"


def test_timeline_csv_rejects_a_negative_count(tmp_path):
    path = tmp_path / "timeline.csv"
    path.write_text("date,count\r\n2020-01-17,1\r\n2020-01-18,-3\r\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_timeline_csv(path)
    assert str(info.value) == f"{path} line 3: column 'count': count -3 is negative"


_OS_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_TRUNC", "O_CREAT"}


def _file_writes(source: str) -> list[int]:
    """Line numbers of calls in `source` that open a file for writing, call
    write_text or write_bytes, or rename with os.replace or os.rename."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        on_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
        if name in ("write_text", "write_bytes") or (on_os and name in ("replace", "rename")):
            lines.append(node.lineno)
        elif on_os and name == "open":
            flags = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if flags & _OS_WRITE_FLAGS:
                lines.append(node.lineno)
        elif name == "open":
            # open(path, mode) or path.open(mode); a mode that is not a
            # constant could be a write mode.
            at = 1 if isinstance(func, ast.Name) else 0
            modes = node.args[at : at + 1] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(
                not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                or set(m.value) & set("wax+")
                for m in modes
            ):
                lines.append(node.lineno)
    return lines


def test_only_modelfile_writes_files():
    package = Path(modelfile.__file__).parent
    writes = {
        path.name: _file_writes(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    # The scan finds modelfile's own temp-file open and rename.
    assert len(writes.pop("modelfile.py")) >= 2
    assert {name: lines for name, lines in writes.items() if lines} == {}
    for snippet in (
        "open(p, 'w')",
        "p.open(mode='ab')",
        "p.open(m)",
        "p.write_text(t)",
        "os.replace(a, b)",
        "os.open(p, os.O_CREAT | os.O_EXCL)",
    ):
        assert _file_writes(snippet) == [1], snippet
    for snippet in (
        "open(p)",
        "p.open('rb')",
        "p.open(encoding='utf-8')",
        "os.open(p, os.O_RDONLY)",
    ):
        assert _file_writes(snippet) == [], snippet


def _third_party_imports(source: str) -> list[str]:
    """The modules `source` imports from outside the standard library, numpy
    and newstm; relative imports are newstm's own."""
    allowed = sys.stdlib_module_names | {"numpy", "newstm"}
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in allowed]


def test_package_imports_only_stdlib_and_numpy():
    # pyproject.toml declares numpy as the one dependency.
    package = Path(modelfile.__file__).parent
    imports = {
        path.name: _third_party_imports(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    assert {name: found for name, found in imports.items() if found} == {}
    for snippet in ("import numba", "from numba import njit", "import scipy.sparse as sp"):
        assert _third_party_imports(snippet) == [snippet.split()[1]], snippet
    for snippet in ("import os.path", "from numpy.lib import format", "from . import lda"):
        assert _third_party_imports(snippet) == [], snippet


@pytest.mark.parametrize(
    "obj, kind, fault",
    [
        ({"f": True}, int, "field 'f' must be an integer, got true"),
        ({"f": 2.0}, int, "field 'f' must be an integer, got 2.0"),
        ({"f": 2}, float, None),
        ({"f": 10**400}, float, None),
        ({"f": False}, float, "field 'f' must be a finite number, got false"),
        ({"f": float("nan")}, float, "field 'f' must be a finite number, got NaN"),
        ({"f": ["a", 1]}, list[str], "field 'f' must be a list of strings, got [\"a\", 1]"),
        ({"f": "ab"}, list[str], "field 'f' must be a list of strings, got \"ab\""),
        ({"f": [1, True]}, list[int], "field 'f' must be a list of integers, got [1, true]"),
        (
            {"f": ["w"] * 9_999 + [7]},
            list[str],
            "field 'f' must be a list of strings, got " + '["w", "w", "w", "w", "w", "w", "w", "w",',
        ),
        (
            {"f": list(range(9_999)) + [True]},
            list[int],
            "field 'f' must be a list of integers, got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1",
        ),
        ({"g": 1}, str, "missing fields ['f']"),
        ([{"f": 1}], int, "expected a JSON object, got [{\"f\": 1}]"),
        # A value no JSON parser gives, from a library caller, is shown by its repr.
        ({"f": np.int64(2)}, int, "field 'f' must be an integer, got np.int64(2)"),
        ({"f": np.float64(0.5)}, float, "field 'f' must be a finite number, got np.float64(0.5)"),
    ],
    ids=[
        "bool-as-int",
        "float-as-int",
        "int-as-float",
        "huge-int-as-float",
        "bool-as-float",
        "nan",
        "int-in-list-of-str",
        "string-as-list-of-str",
        "bool-in-list-of-int",
        "int-deep-in-long-list-of-str",
        "bool-deep-in-long-list-of-int",
        "missing",
        "not-an-object",
        "numpy-int",
        "numpy-float",
    ],
)
def test_json_fields_takes_a_field_of_its_exact_type_only(obj, kind, fault):
    if fault is None:
        assert json_fields(obj, {"f": kind}) == (obj["f"],)
    else:
        with pytest.raises(ValueError) as info:
            json_fields(obj, {"f": kind})
        assert str(info.value) == fault


def test_json_fields_returns_the_fields_in_the_order_given_and_names_all_missing():
    obj = {"b": "x", "a": [1, 2], "extra": None}
    assert json_fields(obj, {"a": list[int], "b": str}) == ([1, 2], "x")
    with pytest.raises(ValueError, match=r"^missing fields \['c', 'd'\]$"):
        json_fields(obj, {"a": list[int], "c": str, "d": int})


def test_json_fields_reports_the_first_of_several_wrong_fields():
    obj = {"a": "x", "b": True, "c": float("inf"), "d": [1, "2"]}
    types = {"a": str, "b": int, "c": float, "d": list[int]}
    with pytest.raises(ValueError, match=r"^field 'b' must be an integer, got true$"):
        json_fields(obj, types)
    with pytest.raises(ValueError, match=r"^field 'c' must be a finite number, got Infinity$"):
        json_fields(obj, {name: types[name] for name in "cba"})
