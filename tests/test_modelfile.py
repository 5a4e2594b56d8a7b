import datetime
import json
import logging
import re

import pytest

from helpers import planted_two_topic_bows
from newstm import modelfile
from newstm.cli import Workspace, _sha256, main
from newstm.corpus import TimeSlice
from newstm.dtm import load_dtm, save_dtm, train_dtm
from newstm.lda import LdaHyperparams, load_lda, save_lda, train_lda
from test_cli import write_config

HYPER = LdaHyperparams(k=3, alpha=0.8, eta=0.05, iterations=6, burn_in=2, thin=2, seed=5)


@pytest.fixture(scope="module")
def models():
    bows, _, _ = planted_two_topic_bows(n_docs=12, doc_len=6, seed=2)
    lda = train_lda(bows, 10, HYPER)
    # The empty middle slice gives a zero-row theta that must survive the file.
    sliced = []
    for t, docs in enumerate([bows[:7], [], bows[7:]]):
        start, end = datetime.date(2020, 1 + t, 17), datetime.date(2020, 2 + t, 17)
        sliced.append((TimeSlice(t, start, end, tuple(b.doc_id for b in docs)), docs))
    dtm = train_dtm(sliced, 3, HYPER, kappa=1.0, vocab_size=10)
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


# Each way a model file can be malformed, and what the error says about it.
CASES = {
    "old-json": "version 1, expected 2",
    "other-kind": "format is 'newstm-(lda|dtm)', expected 'newstm-(lda|dtm)'",
    "truncated": "Failed to read all data",
    "trailing-bytes": "trailing bytes after the last array",
    "shape-mismatch": r"header says <f8\[",
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


def test_dtm_theta_rows_come_from_the_header(tmp_path, models):
    model = models["dtm"][0]
    path = tmp_path / "dtm.newstm"
    save_dtm(model, path)
    assert [t.shape[0] for t in load_dtm(path).per_slice_theta] == [7, 0, 5]

    def move_a_row(header):
        header["meta"]["theta_rows"] = [6, 1, 5]

    _with_header(path, move_a_row)
    assert [t.shape[0] for t in load_dtm(path).per_slice_theta] == [6, 1, 5]


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
    entry = manifest["artifacts"]["model_static"]
    old = ws / "model_static.json"
    _old_json_model(old, "newstm-lda")
    (ws / entry["path"]).unlink()
    entry["path"] = old.name
    entry["sha256"] = _sha256(old)
    workspace.save_manifest(manifest)

    with caplog.at_level(logging.ERROR):
        code = main(["--workspace", str(ws), "--config", str(config), "report"])
    assert code == 2
    assert f"{old}: not a valid newstm-lda model file" in caplog.text
    assert "re-run `newstm train --mode static`" in caplog.text
    assert all(record.exc_info is None for record in caplog.records)
    assert "Traceback" not in caplog.text

