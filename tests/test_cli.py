import configparser
import fcntl
import importlib
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import MALFORMED_BOWS
from newstm.cli import (
    _ARTIFACTS,
    _COMMANDS,
    _SCHEMA,
    ValidationError,
    Workspace,
    load_config,
    main,
)
from newstm import __version__, cli
from newstm.corpus import read_documents, slice_monthly
from newstm.modelfile import write_model
from newstm.preprocess import read_bows, read_vocabulary

FAST_SETTINGS = """\
[preprocess]
min_count = 2
threshold = 5.0
no_below = 2
no_above = 0.6

[lda]
k = 4
alpha = 1.0
iterations = 30
burn_in = 10
thin = 5
seed = 3

[report]
top_n = 5
trajectory_words = 3
"""


def write_config(path: Path, corpus_path: Path, extra: str = "") -> Path:
    path.write_text(
        f"[corpus]\npath = {corpus_path}\n" + FAST_SETTINGS + extra, encoding="utf-8"
    )
    return path


@pytest.fixture(scope="module")
def pipeline_ws(tmp_path_factory, sample_corpus_path):
    """One fully populated workspace shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    config = write_config(root / "run.ini", sample_corpus_path)
    ws = root / "ws"
    for command in (
        ["ingest"],
        ["preprocess"],
        ["train", "--mode", "static"],
        ["train", "--mode", "dtm"],
        ["report"],
        ["plot"],
    ):
        code = main(["--workspace", str(ws), "--config", str(config), *command])
        assert code == 0, f"{command} failed"
    return ws, config


def test_config_defaults_and_overrides(tmp_path, sample_corpus_path):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    cfg = load_config(config)
    assert cfg.hyper.k == 4
    assert cfg.keep_categories == ("inrikes", "utrikes")
    cfg = load_config(config, overrides=["lda.k=6", "dtm.kappa=2.5"], seed=99)
    assert cfg.hyper.k == 6
    assert cfg.kappa == 2.5
    assert cfg.hyper.seed == 99


def test_config_with_a_byte_order_mark_gives_an_equal_config(tmp_path, sample_corpus_path):
    plain = write_config(tmp_path / "plain.ini", sample_corpus_path)
    marked = tmp_path / "marked.ini"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_config(marked) == load_config(plain)


def test_config_rejects_unknown_keys(tmp_path, sample_corpus_path):
    config = tmp_path / "bad.ini"
    config.write_text(f"[corpus]\npath = {sample_corpus_path}\ntypo = 1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="unknown key"):
        load_config(config)
    good = write_config(tmp_path / "good.ini", sample_corpus_path)
    with pytest.raises(ValidationError, match="unknown key"):
        load_config(good, overrides=["lda.nope=1"])


def test_config_requires_corpus_path():
    with pytest.raises(ValidationError, match="corpus.path"):
        load_config(None)


def test_config_validates_values(tmp_path, sample_corpus_path):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    with pytest.raises(ValidationError):
        load_config(config, overrides=["lda.k=1"])
    with pytest.raises(ValidationError):
        load_config(config, overrides=["preprocess.no_above=0"])
    with pytest.raises(ValidationError):
        load_config(config, overrides=["corpus.first_start=2020-01-18"])
    for kwargs in ({"overrides": ["lda.seed=-1"]}, {"seed": -1}):
        with pytest.raises(ValidationError, match=r"config \[lda\]: seed must be >= 0, got -1"):
            load_config(config, **kwargs)
    load_config(config, overrides=["corpus.first_start=2020-01-17"])


# Values outside each range check of the config table.
OUT_OF_RANGE = {
    "corpus.keep_categories": ["", " , "],
    "corpus.anchor_day": ["0", "32"],
    "corpus.n_slices": ["0"],
    "preprocess.min_count": ["0"],
    "preprocess.no_below": ["0"],
    "preprocess.no_above": ["0", "1.5"],
    "dtm.kappa": ["-0.5"],
    "report.top_n": ["1"],
    "report.trajectory_words": ["0"],
    "figures.width": ["0"],
    "figures.height": ["-1"],
}
CHECKED_KEYS = [
    f"{section}.{key}"
    for section, keys in _SCHEMA.items()
    for key, (_, _, check) in keys.items()
    if check is not None
]


@pytest.mark.parametrize("name", CHECKED_KEYS)
def test_config_range_checks_name_their_key(name):
    for value in OUT_OF_RANGE[name]:
        with pytest.raises(ValidationError, match=rf"config {name} must .*, got "):
            load_config(None, overrides=["corpus.path=x.jsonl", f"{name}={value}"])
    assert sorted(OUT_OF_RANGE) == sorted(CHECKED_KEYS)


@pytest.mark.parametrize(
    "setting", ["lda.eta=nan", "dtm.kappa=inf", "preprocess.threshold=nan", "lda.alpha=-inf"]
)
def test_config_rejects_non_finite_numbers(setting):
    name = setting.partition("=")[0]
    with pytest.raises(ValidationError, match=rf"config {name}: cannot parse"):
        load_config(None, overrides=["corpus.path=x.jsonl", setting])


@pytest.mark.parametrize("day", ["20200117", "2020-W03-5", "2020W035"])
def test_config_rejects_a_first_start_not_written_yyyy_mm_dd(day):
    message = rf"^config corpus.first_start: cannot parse '{day}' as date$"
    with pytest.raises(ValidationError, match=message):
        load_config(None, overrides=["corpus.path=x.jsonl", f"corpus.first_start={day}"])


def test_config_rejects_a_slice_calendar_past_9999(tmp_path, sample_corpus_path, caplog):
    assert load_config(None, overrides=["corpus.path=x.jsonl", "corpus.n_slices=95759"])
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    args = ["--workspace", str(ws), "--config", str(config), "--set", "corpus.n_slices=100000"]
    with caplog.at_level(logging.ERROR):
        assert main([*args, "ingest"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == ["config corpus.n_slices must be <= 95759 from 2020-01-17, got 100000"]
    assert not ws.exists()


@pytest.mark.parametrize(
    ("text", "lineno"),
    [("k = 4\n[lda]\nk = 6\n", 1), ("[lda]\nk = 4\nthin = 2\nk = 6\n", 4)],
    ids=["no-section-header", "duplicate-key"],
)
def test_malformed_ini_is_a_one_line_validation_error(tmp_path, caplog, text, lineno):
    config = tmp_path / "bad.ini"
    config.write_text(text, encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        code = main(["--workspace", str(tmp_path / "ws"), "--config", str(config), "ingest"])
    assert code == 1
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert f"{config} line {lineno}:" in errors[0]


def test_readme_config_loads_at_the_defaults_and_lists_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "readme.ini"
    config.write_text(block, encoding="utf-8")
    loaded = load_config(config)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    listed = {(section, key) for section in parser.sections() for key in parser[section]}
    assert listed == {(section, key) for section, keys in _SCHEMA.items() for key in keys}
    assert loaded == load_config(None, overrides=[f"corpus.path={loaded.corpus_path}"])


def test_every_newstm_import_shown_in_the_readme_resolves():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # Code blocks and inline code alike: a run of backticks up to the next run of as many.
    code = [span for _, span in re.findall(r"(`+)(.+?)(?<!`)\1(?!`)", readme, re.S)]
    imports = [
        (module, name)
        for span in code
        for module, names in re.findall(
            r"from\s+(newstm[\w.]*)\s+import\s+(\w+(?:\s*,\s*\w+)*)", span
        )
        for name in re.split(r"\s*,\s*", names)
    ]
    assert len(imports) > 10
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_readme_library_example_runs_on_the_sample_corpus(sample_corpus_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    assert block.count('"articles.jsonl"') == 1
    namespace = {}
    exec(block.replace('"articles.jsonl"', repr(str(sample_corpus_path))), namespace)
    summary = namespace["top_words"](namespace["model"], 0, 10, namespace["vocab"])
    assert len(summary.terms) == 10
    assert capsys.readouterr().out == f"{summary}\n"


def test_readme_artifact_table_lists_every_declared_artifact():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| artifact | written by | inputs |\n|---|---|---|\n", 1)[1]
    listed = {}
    for row in table.split("\n\n", 1)[0].splitlines():
        files, producer, inputs = (cell.strip() for cell in row.strip("|").split("|"))
        for file in files.split(", "):
            sources = () if inputs == "none" else tuple(inputs.split(", "))
            listed[file.strip("`")] = (producer.strip("`"), sources)
    assert listed == {path: (producer, inputs) for path, producer, inputs in _ARTIFACTS.values()}


def test_empty_keep_set_fails_before_any_io(tmp_path, sample_corpus_path):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    code = main(
        [
            "--workspace",
            str(ws),
            "--config",
            str(config),
            "--set",
            "corpus.keep_categories=",
            "ingest",
        ]
    )
    assert code == 1
    assert not (ws / "manifest.json").exists()


def test_pipeline_produces_all_artifacts(pipeline_ws):
    ws, _ = pipeline_ws
    manifest = json.loads((ws / "manifest.json").read_text())
    for name in (
        "corpus",
        "timeline",
        "vocab",
        "bows",
        "model_static",
        "model_dtm",
        "coherence",
        "overlap",
        "intertopic",
        "trajectories",
    ):
        assert sorted(manifest["artifacts"][name]) == ["inputs", "sha256"]
        assert (ws / _ARTIFACTS[name][0]).exists()
    assert (ws / "figures" / "timeline.svg").exists()
    assert (ws / "figures" / "intertopic.svg").exists()
    assert (ws / "figures" / "trajectory_topic_0.svg").exists()
    assert not (ws / ".lock").exists()


def test_ingest_logs_counts(tmp_path, sample_corpus_path, caplog):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    with caplog.at_level(logging.INFO):
        assert main(["--workspace", str(ws), "--config", str(config), "ingest"]) == 0
    text = caplog.text
    assert "loaded 200 documents" in text
    assert "retained 180 of 200" in text


def test_missing_prerequisite_names_producer(tmp_path, sample_corpus_path, caplog):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    with caplog.at_level(logging.ERROR):
        code = main(["--workspace", str(ws), "--config", str(config), "preprocess"])
    assert code == 1
    assert "newstm ingest" in caplog.text

    caplog.clear()
    with caplog.at_level(logging.ERROR):
        code = main(["--workspace", str(ws), "--config", str(config), "plot"])
    assert code == 1
    assert "newstm ingest" in caplog.text  # timeline is plot's first prerequisite


def test_report_requires_both_models(tmp_path, sample_corpus_path, caplog):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    for command in (["ingest"], ["preprocess"], ["train", "--mode", "static"]):
        assert main(["--workspace", str(ws), "--config", str(config), *command]) == 0
    with caplog.at_level(logging.ERROR):
        code = main(["--workspace", str(ws), "--config", str(config), "report"])
    assert code == 1
    assert "train --mode dtm" in caplog.text


def test_tampered_artifact_detected(tmp_path, sample_corpus_path, caplog):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    assert main(["--workspace", str(ws), "--config", str(config), "ingest"]) == 0
    with (ws / "corpus.jsonl").open("a", encoding="utf-8") as fh:
        fh.write("\n")
    with caplog.at_level(logging.ERROR):
        code = main(["--workspace", str(ws), "--config", str(config), "preprocess"])
    assert code == 1
    assert "modified outside the pipeline" in caplog.text


def test_stale_downstream_artifact_detected(tmp_path, sample_corpus_path, caplog):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    for command in (["ingest"], ["preprocess"]):
        assert main(["--workspace", str(ws), "--config", str(config), *command]) == 0
    # Re-ingesting with different filtering rewrites the corpus artifact, so
    # the previously built bows must be flagged stale.
    assert (
        main(
            [
                "--workspace",
                str(ws),
                "--config",
                str(config),
                "--set",
                "corpus.keep_categories=inrikes",
                "ingest",
            ]
        )
        == 0
    )
    with caplog.at_level(logging.ERROR):
        code = main(["--workspace", str(ws), "--config", str(config), "train", "--mode", "static"])
    assert code == 1
    assert "stale" in caplog.text
    assert "newstm preprocess" in caplog.text


INPUT_PAIRS = [(name, source) for name, (_, _, inputs) in _ARTIFACTS.items() for source in inputs]


@pytest.mark.parametrize(("name", "source"), INPUT_PAIRS)
def test_changed_declared_input_makes_artifact_stale(pipeline_ws, name, source):
    ws, _ = pipeline_ws
    workspace = Workspace(ws)
    manifest = workspace.load_manifest()
    workspace.require(manifest, name)
    manifest["artifacts"][source]["sha256"] = "0" * 64
    producer = _ARTIFACTS[name][1]
    stale = rf"{name!r} is stale: its input {source!r} changed; re-run `newstm {producer}`"
    with pytest.raises(ValidationError, match=stale):
        workspace.require(manifest, name)


def test_manifest_lists_exactly_the_declared_inputs(pipeline_ws):
    ws, _ = pipeline_ws
    artifacts = Workspace(ws).load_manifest()["artifacts"]
    assert sorted(artifacts) == sorted(_ARTIFACTS)
    for name, (_, _, inputs) in _ARTIFACTS.items():
        assert sorted(artifacts[name]["inputs"]) == sorted(inputs), name


def test_each_command_reads_and_records_what_its_artifacts_declare(
    tmp_path, sample_corpus_path, monkeypatch
):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    manifest_path = ws / "manifest.json"
    require, read = Workspace.require, []

    def logged_require(self, manifest, name):
        read.append(name)
        return require(self, manifest, name)

    monkeypatch.setattr(Workspace, "require", logged_require)
    done = set()
    for producer in _COMMANDS:
        read.clear()
        before = manifest_path.stat() if manifest_path.exists() else None
        assert main(["--workspace", str(ws), "--config", str(config), *producer.split()]) == 0
        outputs = [name for name, (_, by, _) in _ARTIFACTS.items() if by == producer]
        declared = {source for name in outputs for source in _ARTIFACTS[name][2]}
        if producer == "plot":
            declared = {"timeline", "intertopic", "trajectories"}
            after = manifest_path.stat()
            assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert set(read) == declared, producer
        done.add(producer)
        artifacts = json.loads(manifest_path.read_text(encoding="utf-8"))["artifacts"]
        assert sorted(artifacts) == sorted(n for n, (_, by, _) in _ARTIFACTS.items() if by in done)


def test_the_stage_table_is_in_pipeline_order():
    written = set()
    for producer, (_, _, extra) in _COMMANDS.items():
        outputs = [name for name, (_, by, _) in _ARTIFACTS.items() if by == producer]
        # each read is written, per _ARTIFACTS, by an earlier entry
        reads = {source for name in outputs for source in _ARTIFACTS[name][2]} | set(extra)
        assert reads <= written, (producer, reads - written)
        written.update(outputs)
    assert written == set(_ARTIFACTS)


def _truncate(text):
    return text[: len(text) // 2]


def _drop_sha256(text):
    manifest = json.loads(text)
    del manifest["artifacts"]["corpus"]["sha256"]
    return json.dumps(manifest)


@pytest.mark.parametrize(
    "corrupt",
    [
        _truncate,
        lambda text: "[]",
        _drop_sha256,
        lambda text: text.replace('"version": 1', '"version": true'),
    ],
    ids=["truncated", "list", "no-sha256", "bool-version"],
)
def test_corrupt_manifest_is_a_one_line_validation_error(
    tmp_path, sample_corpus_path, caplog, corrupt
):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    assert main(["--workspace", str(ws), "--config", str(config), "ingest"]) == 0
    manifest_path = ws / "manifest.json"
    manifest_path.write_text(corrupt(manifest_path.read_text(encoding="utf-8")), encoding="utf-8")
    for command in (["preprocess"], ["ingest"]):
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            code = main(["--workspace", str(ws), "--config", str(config), *command])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert f"workspace manifest {manifest_path}: " in errors[0]
        assert "delete it and re-run from `newstm ingest`" in errors[0]
        assert all(record.exc_info is None for record in caplog.records)
        assert "Traceback" not in caplog.text


def test_manifest_entries_that_still_hold_a_path_load_and_the_path_is_ignored(
    tmp_path, sample_corpus_path
):
    # Entries once held their file's path too; each name's file is fixed in
    # `_ARTIFACTS`, so even a path outside the workspace is never read.
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    assert main(["--workspace", str(ws), "--config", str(config), "ingest"]) == 0
    manifest_path = ws / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for entry in manifest["artifacts"].values():
        entry["path"] = "../elsewhere"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["--workspace", str(ws), "--config", str(config), "preprocess"]) == 0
    artifacts = json.loads(manifest_path.read_text(encoding="utf-8"))["artifacts"]
    corpus_hash = manifest["artifacts"]["corpus"]["sha256"]
    for name in ("vocab", "bows"):
        assert artifacts[name]["inputs"] == {"corpus": corpus_hash}
        assert sorted(artifacts[name]) == ["inputs", "sha256"]


def test_lock_blocks_concurrent_commands(tmp_path, sample_corpus_path, caplog):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    ws.mkdir()
    fd = os.open(ws, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with caplog.at_level(logging.ERROR):
            code = main(["--workspace", str(ws), "--config", str(config), "ingest"])
        assert code == 2
        assert f"workspace {ws} is locked by another command" in caplog.text
        assert not (ws / "manifest.json").exists()
    finally:
        os.close(fd)
    assert main(["--workspace", str(ws), "--config", str(config), "ingest"]) == 0


_HOLD_LOCK = """
import sys, time
from newstm.cli import Workspace

with Workspace(sys.argv[1]).lock():
    print("locked", flush=True)
    time.sleep(60)
"""


def test_killed_lock_holder_does_not_block_the_next_command(tmp_path, sample_corpus_path):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    args = ["--workspace", str(ws), "--config", str(config), "ingest"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    holder = subprocess.Popen(
        [sys.executable, "-c", _HOLD_LOCK, str(ws)],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert holder.stdout.readline() == "locked\n"
        assert main(args) == 2
        holder.send_signal(signal.SIGKILL)
        assert holder.wait(timeout=30) == -signal.SIGKILL
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()
    assert main(args) == 0


_LIST_MODULES = """
import sys
from newstm.cli import main

code = main(sys.argv[1:])
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""

# Modules each command must not load: it imports only the stages it runs.
_NOT_LOADED = {
    "ingest": {"numpy"},
    "preprocess": {"newstm.lda", "newstm._kernels", "newstm.dtm", "newstm.evaluate", "newstm.viz"},
    "train --mode static": {"newstm.dtm", "newstm.evaluate", "newstm.viz", "newstm.encode"},
    "train --mode dtm": {"newstm.evaluate", "newstm.viz", "newstm.encode"},
    "report": {"numpy.random", "newstm.encode", "newstm.viz"},
    "plot": {
        "numpy", "newstm.lda", "newstm._kernels", "newstm.dtm", "newstm.evaluate",
        "newstm.preprocess", "newstm.encode",
    },
}


def test_each_command_imports_only_the_stages_it_runs(tmp_path, sample_corpus_path):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    args = ["--workspace", str(tmp_path / "ws"), "--config", str(config)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    for command, absent in _NOT_LOADED.items():
        proc = subprocess.run(
            [sys.executable, "-c", _LIST_MODULES, *args, *command.split()],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "newstm.cli" in loaded and not absent & loaded, (command, absent & loaded)


def test_installed_command_runs_console_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["newstm"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.console_entry


# How the installed `newstm` script and `python -m newstm.cli` start a command.
_LAUNCHERS = {
    "script": ["-c", "import sys; from newstm.cli import console_entry; sys.exit(console_entry())"],
    "module": ["-m", "newstm.cli"],
}


@pytest.mark.parametrize("launcher", sorted(_LAUNCHERS))
def test_console_entry_keeps_each_exit_code_and_message(tmp_path, sample_corpus_path, launcher):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    missing = tmp_path / "missing.jsonl"
    cases = (
        (
            ["--set", f"corpus.path={sample_corpus_path}", "report"],
            1,
            "",
            "ERROR newstm.cli: missing artifact 'model_static': "
            "run `newstm train --mode static` first\n",
        ),
        (
            ["--set", f"corpus.path={missing}", "ingest"],
            2,
            "",
            f"ERROR newstm.cli: [Errno 2] No such file or directory: '{missing}'\n",
        ),
        (["--version"], 0, f"newstm {__version__}\n", ""),
    )
    # Files, not pipes to a terminal, so neither stream is line-buffered.
    out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    for args, code, stdout, stderr in cases:
        with out.open("wb") as out_fh, err.open("wb") as err_fh:
            proc = subprocess.run(
                [sys.executable, *_LAUNCHERS[launcher], "--workspace", str(tmp_path / "ws"), *args],
                env=env,
                stdout=out_fh,
                stderr=err_fh,
                timeout=120,
            )
        got = (proc.returncode, out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"))
        assert got == (code, stdout, stderr), args


def test_console_entry_exits_after_flushing_or_through_sys_exit_if_a_flush_fails(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(logging, "shutdown", lambda: calls.append("shutdown"))
    monkeypatch.setattr(os, "_exit", lambda code: calls.append(("_exit", code)))
    cli.console_entry()
    assert calls == ["main", "shutdown", ("_exit", 3)]

    class Closed:
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    calls.clear()
    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(SystemExit) as info:
        cli.console_entry()
    assert info.value.code == 3 and calls == ["main", "shutdown"]


def test_preprocess_exits_2_on_a_stoplist_entry_no_token_can_equal(
    tmp_path, sample_corpus_path, caplog
):
    stoplist = tmp_path / "stop.txt"
    stoplist.write_text("och\nCovid-19\n", encoding="utf-8")
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    args = ["--workspace", str(tmp_path / "ws"), "--config", str(config)]
    assert main([*args, "ingest"]) == 0
    with caplog.at_level(logging.ERROR):
        code = main([*args, "--set", f"preprocess.stoplist={stoplist}", "preprocess"])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert code == 2
    assert errors == [f"stoplist {stoplist} line 2: 'Covid-19' is not one lowercase token"]
    assert not (tmp_path / "ws" / "vocab.json").exists()


def test_runtime_error_exit_code_on_malformed_corpus(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"}\n', encoding="utf-8")
    config = write_config(tmp_path / "run.ini", bad)
    code = main(["--workspace", str(tmp_path / "ws"), "--config", str(config), "ingest"])
    assert code == 2


def test_rerun_reproduces_identical_manifest(pipeline_ws, tmp_path):
    ws, config = pipeline_ws
    ws2 = tmp_path / "ws2"
    for command in (
        ["ingest"],
        ["preprocess"],
        ["train", "--mode", "static"],
        ["train", "--mode", "dtm"],
        ["report"],
        ["plot"],
    ):
        assert main(["--workspace", str(ws2), "--config", str(config), *command]) == 0
    assert (ws / "manifest.json").read_bytes() == (ws2 / "manifest.json").read_bytes()


def test_topic_count_sweep_emits_one_overlap_matrix_each(tmp_path, sample_corpus_path):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    for command in (["ingest"], ["preprocess"], ["train", "--mode", "dtm"]):
        assert main(["--workspace", str(ws), "--config", str(config), *command]) == 0
    for k in (4, 6):
        for command in (["train", "--mode", "static"], ["report"]):
            code = main(
                ["--workspace", str(ws), "--config", str(config), "--set", f"lda.k={k}", *command]
            )
            assert code == 0
        overlap = json.loads((ws / "overlap.json").read_text())
        matrix = overlap["jaccard"]
        assert len(matrix) == k and all(len(row) == k for row in matrix)


def test_seed_flag_changes_model(pipeline_ws, tmp_path):
    ws, config = pipeline_ws
    ws2 = tmp_path / "ws_seeded"
    for command in (["ingest"], ["preprocess"]):
        assert main(["--workspace", str(ws2), "--config", str(config), *command]) == 0
    assert (
        main(
            [
                "--workspace",
                str(ws2),
                "--config",
                str(config),
                "--seed",
                "4242",
                "train",
                "--mode",
                "static",
            ]
        )
        == 0
    )
    a = json.loads((ws / "manifest.json").read_text())["artifacts"]["model_static"]["sha256"]
    b = json.loads((ws2 / "manifest.json").read_text())["artifacts"]["model_static"]["sha256"]
    assert a != b


def test_plot_removes_figures_of_topics_the_model_lacks(pipeline_ws, tmp_path):
    ws, config = tmp_path / "ws", pipeline_ws[1]
    shutil.copytree(pipeline_ws[0], ws)
    stages = (["train", "--mode", "static"], ["train", "--mode", "dtm"], ["report"], ["plot"])
    for command in stages:
        args = ["--workspace", str(ws), "--config", str(config), "--set", "lda.k=2", *command]
        assert main(args) == 0
    assert sorted(p.name for p in (ws / "figures").iterdir()) == [
        "intertopic.svg",
        "timeline.svg",
        "trajectory_topic_0.svg",
        "trajectory_topic_1.svg",
    ]


def test_plot_checks_every_input_before_writing(tmp_path, sample_corpus_path, caplog):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    assert main(["--workspace", str(ws), "--config", str(config), "ingest"]) == 0
    with caplog.at_level(logging.ERROR):
        code = main(["--workspace", str(ws), "--config", str(config), "plot"])
    assert code == 1
    assert "missing artifact 'intertopic'" in caplog.text
    assert not (ws / "figures").exists()


def test_lock_holder_deletes_temp_files_of_killed_writes(tmp_path, sample_corpus_path):
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    (ws / "figures").mkdir(parents=True)
    strays = [ws / ".bows.newstm.4242.tmp", ws / "figures" / ".timeline.svg.4242.tmp"]
    kept = [ws / ".notes.tmp", ws / "figures" / "notes.4242.tmp"]
    for path in strays + kept:
        path.write_bytes(b"partial")
    assert main(["--workspace", str(ws), "--config", str(config), "ingest"]) == 0
    assert [path.exists() for path in strays + kept] == [False, False, True, True]


def test_train_commands_do_not_parse_the_vocabulary(pipeline_ws, tmp_path, monkeypatch):
    ws, config = tmp_path / "ws", pipeline_ws[1]
    shutil.copytree(pipeline_ws[0], ws)
    models = {"static": ws / "model_static.newstm", "dtm": ws / "model_dtm.newstm"}
    before = {mode: path.read_bytes() for mode, path in models.items()}

    def refuse(path):
        raise AssertionError(f"read_vocabulary({path}) called")

    monkeypatch.setattr(cli, "read_vocabulary", refuse)
    for mode, path in models.items():
        path.unlink()
        assert main(["--workspace", str(ws), "--config", str(config), "train", "--mode", mode]) == 0
        assert path.read_bytes() == before[mode]


def test_a_chained_prior_that_overflows_fails_at_slice_one(tmp_path, sample_corpus_path, caplog):
    """kappa * V overflows to inf, so slice 1's prior eta + kappa * V * beta_0
    has an infinite entry: slice 0 trains, slice 1 raises, and no model is
    written."""
    config = write_config(tmp_path / "run.ini", sample_corpus_path)
    ws = tmp_path / "ws"
    for command in (["ingest"], ["preprocess"]):
        assert main(["--workspace", str(ws), "--config", str(config), *command]) == 0
    args = ["--workspace", str(ws), "--config", str(config), "--set", "dtm.kappa=1e308"]
    with caplog.at_level(logging.INFO):
        assert main([*args, "train", "--mode", "dtm"]) == 2
    trained = [r for r in caplog.records if r.getMessage().startswith("trained LDA")]
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(trained) == 1
    assert errors == ["eta_kw has a NaN or infinite entry"]
    assert not (ws / "model_dtm.newstm").exists()


def test_preprocess_and_train_dtm_stream_the_corpus(pipeline_ws, tmp_path, monkeypatch):
    """Both read the workspace corpus one document at a time, never through
    load_corpus, and write the same bytes."""
    ws, config = tmp_path / "ws", pipeline_ws[1]
    shutil.copytree(pipeline_ws[0], ws)
    outputs = [ws / "vocab.json", ws / "bows.newstm", ws / "model_dtm.newstm"]
    before = {path: path.read_bytes() for path in outputs}

    def refuse(path):
        raise AssertionError(f"load_corpus({path}) called")

    monkeypatch.setattr(cli, "load_corpus", refuse)
    for path in outputs:
        path.unlink()
    for command in (["preprocess"], ["train", "--mode", "dtm"]):
        assert main(["--workspace", str(ws), "--config", str(config), *command]) == 0, command
    assert {path: path.read_bytes() for path in outputs} == before


@pytest.mark.parametrize("command", [["preprocess"], ["train", "--mode", "dtm"]])
def test_a_backwards_date_in_the_workspace_corpus_names_its_line(
    pipeline_ws, tmp_path, caplog, command
):
    ws, config = tmp_path / "ws", pipeline_ws[1]
    shutil.copytree(pipeline_ws[0], ws)
    lines = (ws / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0], lines[-1] = lines[-1], lines[0]
    (ws / "corpus.jsonl").write_text("".join(lines), encoding="utf-8")
    workspace = Workspace(ws)
    # as if ingest had written it, and preprocess had read it
    workspace.record(workspace.load_manifest(), "corpus", "vocab", "bows")
    first, second = (json.loads(line)["date"] for line in lines[:2])
    assert second < first
    assert main(["--workspace", str(ws), "--config", str(config), *command]) == 2
    assert f"line 2: date {second} is before line 1's {first}" in caplog.text


@pytest.mark.parametrize("key", ["top_n", "trajectory_words"])
def test_report_setting_beyond_the_vocabulary_names_its_key(pipeline_ws, tmp_path, caplog, key):
    ws, config = tmp_path / "ws", pipeline_ws[1]
    shutil.copytree(pipeline_ws[0], ws)
    outputs = [ws / name for name, producer, _ in _ARTIFACTS.values() if producer == "report"]
    for path in outputs:
        path.unlink()
    manifest = (ws / "manifest.json").read_bytes()
    size = len(read_vocabulary(ws / "vocab.json"))
    args = ["--workspace", str(ws), "--config", str(config), "--set", f"report.{key}={size + 1}"]
    with caplog.at_level(logging.ERROR):
        code = main([*args, "report"])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert code == 1
    assert errors == [f"config report.{key} {size + 1} exceeds the vocabulary size {size}"]
    assert not any(path.exists() for path in outputs)
    assert (ws / "manifest.json").read_bytes() == manifest


def test_report_on_a_version_1_vocabulary_asks_for_preprocess(pipeline_ws, tmp_path, caplog):
    # A workspace from before `vocab.json` held lists: its hashes agree, so
    # only the reader can reject the file.
    ws, config = tmp_path / "ws", pipeline_ws[1]
    shutil.copytree(pipeline_ws[0], ws)
    path = ws / "vocab.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.update(version=1, tokens={tok: i for i, tok in enumerate(payload["tokens"])})
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    workspace = Workspace(ws)
    workspace.record(workspace.load_manifest(), "vocab", "model_static", "model_dtm")
    with caplog.at_level(logging.ERROR):
        code = main(["--workspace", str(ws), "--config", str(config), "report"])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert code == 2
    assert errors == [
        f"{path}: not a valid vocabulary export (not a version 2 newstm-vocab file); "
        "re-run `newstm preprocess`"
    ]


def _zero_count_in_a_later_slice(path, ws, config):
    """Rewrite the bows file with a count of 0 in the last document of the
    first nonempty slice after slice 0."""
    settings = load_config(config)
    slices = slice_monthly(
        read_documents(ws / "corpus.jsonl"),
        settings.anchor_day,
        settings.first_start,
        settings.n_slices,
    )
    bows = read_bows(path)
    row = bows.doc_ids.index(next(s for s in slices[1:] if s.doc_ids).doc_ids[-1])
    counts = bows.counts.copy()
    counts[int(bows.doc_lengths[: row + 1].sum()) - 1] = 0
    meta = {"doc_ids": list(bows.doc_ids), "vocab_size": bows.vocab_size}
    arrays = {"doc_lengths": bows.doc_lengths, "word_ids": bows.word_ids, "counts": counts}
    write_model(path, "newstm-bows", meta, arrays)


@pytest.mark.parametrize("case", [*MALFORMED_BOWS, "row-in-a-slice"])
def test_train_dtm_rejects_a_bows_file_with_read_bows_message(pipeline_ws, tmp_path, caplog, case):
    """A fault in the header or layout fails on opening, a row in no slice
    (the documents d0 and d1 of the shared cases) before the chain, and a
    row in a slice when that slice starts: each with `read_bows`'s message."""
    ws, config = tmp_path / "ws", pipeline_ws[1]
    shutil.copytree(pipeline_ws[0], ws)
    path = ws / "bows.newstm"
    if case in MALFORMED_BOWS:
        path.unlink()
        MALFORMED_BOWS[case][0](path)
    else:
        _zero_count_in_a_later_slice(path, ws, config)
    with pytest.raises(ValueError) as info:
        read_bows(path)
    workspace = Workspace(ws)
    workspace.record(workspace.load_manifest(), "bows")  # as if preprocess had written it
    with caplog.at_level(logging.INFO):
        code = main(["--workspace", str(ws), "--config", str(config), "train", "--mode", "dtm"])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    trained = [r for r in caplog.records if r.getMessage().startswith("trained LDA")]
    assert code == 2
    assert errors == [str(info.value)]
    assert bool(trained) == (case == "row-in-a-slice")
