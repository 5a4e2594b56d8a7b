#!/usr/bin/env python3
"""Regenerate tests/data/fixture_digests.json, the pinned output bytes.

The file holds the sha256 of every file that the six pipeline commands
write for the bundled corpus at K=5 and 20 sweeps (including
`manifest.json` and `figures/*.svg`), plus digests of `infer_theta` and of
`posterior_assignment_samples` at thin=1 on a small planted model.
`tests/test_digests.py` recomputes them with this module's functions and
compares. Regenerate only when an output changes on purpose, and name each
moved digest and its reason in CHANGES.md; the script prints every digest
that changed, appeared or disappeared since the file it replaced. Runs from
a checkout:

    python3 scripts/make_fixture_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "sample_news.jsonl"
OUT = ROOT / "tests" / "data" / "fixture_digests.json"

SETTINGS = ("lda.k=5", "lda.iterations=20", "lda.burn_in=10", "lda.thin=5")
COMMANDS = (
    ["ingest"],
    ["preprocess"],
    ["train", "--mode", "static"],
    ["train", "--mode", "dtm"],
    ["report"],
    ["plot"],
)
NOTE = (
    "intertopic.csv and figures/intertopic.svg come from numpy.linalg.eigh, so "
    "their digests hold for the numpy and LAPACK build that generated this file."
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def workspace_digests(ws: Path, run: Callable[[list[str]], int] | None = None) -> dict[str, str]:
    """Run the six commands into the empty directory `ws`, each as `run(argv)`
    (by default `newstm.cli.main`, in this process); digest every file."""
    if run is None:
        from newstm.cli import main as run

    settings = (f"corpus.path={CORPUS}", *SETTINGS)
    overrides = [arg for setting in settings for arg in ("--set", setting)]
    for command in COMMANDS:
        if run(["--workspace", str(ws), *overrides, *command]) != 0:
            raise RuntimeError(f"`newstm {' '.join(command)}` failed")
    return {
        path.relative_to(ws).as_posix(): _sha256(path.read_bytes())
        for path in sorted(ws.rglob("*"))
        if path.is_file()
    }


def library_digests() -> dict[str, str]:
    """Digests of held-out inference and thin=1 assignment samples under a
    two-topic model planted on disjoint halves of a six-word vocabulary."""
    from newstm.lda import LdaHyperparams, infer_theta, posterior_assignment_samples, train_lda
    from newstm.preprocess import BowDoc, Bows

    rng = np.random.default_rng(0)
    docs = []
    for d in range(12):
        words = rng.integers(0, 3, 8) + 3 * (d % 2)
        docs.append(BowDoc(f"d{d}", dict(sorted(Counter(words.tolist()).items()))))
    hyper = LdaHyperparams(k=2, alpha=0.5, iterations=50, burn_in=10, thin=5, seed=1)
    model = train_lda(Bows.from_docs(docs, 6), hyper)
    theta = infer_theta(model, BowDoc("held-out", {0: 3, 1: 2, 4: 1}), sweeps=50, seed=2)
    samples, _, _ = posterior_assignment_samples(
        Bows.from_docs(docs[:3], 6),
        LdaHyperparams(k=2, alpha=0.5, iterations=40, burn_in=10, thin=1, seed=3),
    )
    return {
        "infer_theta": _sha256(np.ascontiguousarray(theta, dtype="<f8").tobytes()),
        "posterior_assignment_samples": _sha256(
            np.ascontiguousarray(samples, dtype="<i8").tobytes()
        ),
    }


def moved_digests(old: dict, new: dict) -> list[str]:
    """`section/name` of each workspace or library digest that changed,
    appeared or disappeared between two payloads, sorted."""
    moved = []
    for section in ("workspace", "library"):
        before, after = old.get(section, {}), new[section]
        for name in sorted(before.keys() | after.keys()):
            was, now = before.get(name), after.get(name)
            if was != now:
                how = "appeared" if was is None else "disappeared" if now is None else "changed"
                moved.append(f"{section}/{name} {how}")
    return moved


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        workspace = workspace_digests(Path(tmp) / "ws")
    payload = {"note": NOTE, "workspace": workspace, "library": library_digests()}
    old = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(workspace)} workspace and {len(payload['library'])} library digests")
    moved = moved_digests(old, payload)
    print(f"{len(moved)} moved since the file it replaced" + "".join(f"\n  {m}" for m in moved))


if __name__ == "__main__":
    main()
