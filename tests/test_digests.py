"""The fixture pipeline and the sampling entry points give pinned bytes.

`tests/data/fixture_digests.json` is written by
`scripts/make_fixture_digests.py`; a digest that moves is either a bug or
an intended output change that regenerates the file.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "make_fixture_digests", ROOT / "scripts" / "make_fixture_digests.py"
)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

PINNED = json.loads(digests.OUT.read_text(encoding="utf-8"))


def test_fixture_workspace_matches_pinned_digests(tmp_path):
    assert digests.workspace_digests(tmp_path / "ws") == PINNED["workspace"]


# The start of each command's last log line, in `digests.COMMANDS` order.
_LAST_LOG_LINES = (
    "INFO newstm.corpus: retained ",
    "INFO newstm.encode: vocabulary: kept ",
    "INFO newstm.lda: trained LDA: ",
    "INFO newstm.lda: trained LDA: ",
    "INFO newstm.cli: mean UMass coherence ",
    "INFO newstm.cli: figures written to ",
)


def test_fixture_workspace_written_by_cli_processes_matches_pinned_digests(tmp_path):
    # Each command is a `python -m newstm.cli` process, which ends through
    # cli.console_entry without the interpreter's teardown; its output
    # streams are files, not a terminal, and PYTHONUNBUFFERED is unset.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    last_lines = iter(_LAST_LOG_LINES)

    def run(argv: list[str]) -> int:
        out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
        with out.open("wb") as out_fh, err.open("wb") as err_fh:
            code = subprocess.run(
                [sys.executable, "-m", "newstm.cli", *argv],
                env=env,
                stdout=out_fh,
                stderr=err_fh,
                timeout=300,
            ).returncode
        lines = err.read_text(encoding="utf-8").splitlines()
        assert lines and lines[-1].startswith(next(last_lines)), (argv, lines[-1:])
        assert out.read_bytes() == b""
        return code

    assert digests.workspace_digests(tmp_path / "ws", run) == PINNED["workspace"]
    assert next(last_lines, None) is None


def test_inference_and_posterior_samples_match_pinned_digests():
    assert digests.library_digests() == PINNED["library"]


def test_moved_digests_names_changed_new_and_gone_entries():
    old = {"workspace": {"a": "1", "b": "2"}, "library": {"x": "9"}}
    new = {"workspace": {"a": "1", "b": "3", "c": "4"}, "library": {}}
    assert digests.moved_digests(old, new) == [
        "workspace/b changed",
        "workspace/c appeared",
        "library/x disappeared",
    ]
    assert digests.moved_digests({}, {"workspace": {"a": "1"}, "library": {}}) == [
        "workspace/a appeared"
    ]
