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
