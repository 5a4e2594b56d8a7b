import ast
import datetime
import json
import logging
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import planted_two_topic_bows
from newstm import modelfile
from newstm.cli import Workspace, _sha256, main
from newstm.corpus import (
    Corpus,
    Document,
    TimeSlice,
    read_timeline_csv,
    save_corpus,
    write_timeline_csv,
)
from newstm.dtm import (
    TrajectorySeries,
    load_dtm,
    read_trajectory_csv,
    save_dtm,
    train_dtm,
    write_trajectory_csv,
)
from newstm.evaluate import (
    CoherenceReport,
    IntertopicMap,
    read_intertopic_csv,
    write_coherence_json,
    write_intertopic_csv,
    write_overlap_json,
)
from newstm.lda import LdaHyperparams, load_lda, save_lda, train_lda
from newstm.preprocess import BowDoc, TokenStream, build_vocabulary, write_bows, write_vocabulary
from newstm.viz import FigureSpec, plot_timeline
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
    dtm = train_dtm(sliced, HYPER, kappa=1.0, vocab_size=10)
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


def _grow_vocab_size(header):
    header["meta"]["vocab_size"] += 1


# Each way a model file can be malformed, and what the error says about it.
CASES = {
    "old-json": "version 1, expected 2",
    "other-kind": "format is 'newstm-(lda|dtm)', expected 'newstm-(lda|dtm)'",
    "truncated": "Failed to read all data",
    "trailing-bytes": "trailing bytes after the last array",
    "shape-mismatch": r"header says <f8\[",
    "vocab-size": r"beta has shape \(.*10\), expected \(.*11\)",
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
    elif case == "vocab-size":
        _with_header(path, _grow_vocab_size)


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
    "write_bows": lambda path, models: write_bows([BowDoc("a", {0: 1})], path),
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
