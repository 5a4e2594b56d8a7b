"""The fixture pipeline and the sampling entry points give pinned bytes.

`tests/data/fixture_digests.json` is written by
`scripts/make_fixture_digests.py`; a digest that moves is either a bug or
an intended output change that regenerates the file.
"""

import importlib.util
import json
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


def test_inference_and_posterior_samples_match_pinned_digests():
    assert digests.library_digests() == PINNED["library"]
