#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write a summary.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workloads wide,fixture \
        --seeds 1-10 --seconds 10 --out BENCH_<label>.json

Both sides run from exports, made side by side as `parent/` and `change/`
in one temporary directory that is removed afterwards, so neither runs
from a path, a file system or a working directory of its own. The parent
is commit REV, exported with `git archive`; the change is the checkout
this script runs in, as its files stand: the files `git ls-files --cached
--others --exclude-standard` lists, so uncommitted edits and new files come
along and ignored ones, such as `.bench_work/`, do not. An export, unlike a
`git worktree`, leaves nothing in `.git` to prune when the script is
killed, and holds just the source, as a fresh benchmark checkout does.

For each workload and seed, one pair runs `perfbench/run.py --workload W
--seed S --seconds N --trace 0` on both sides; the side that runs first
alternates from pair to pair. The last stdout line of each run is its JSON
result. The summary holds, for each end-to-end metric and side, the
samples in seed order, their median and quartiles, and the number of pairs
in which the change did better, by the metric's `better` direction in
`BENCHMARK.json`. It also records both commits, the backend each side
reported and this command line, and for each failed run its notes and the
last lines of its stderr and of its `.bench_work/W/stderr.log`.

Exit status: 0 if every run is `correct` with `failed` 0, else 1 (the
summary is written either way); 2, before any run, if the checkout holds a
`__pycache__` under `src/` or `perfbench/`. The fresh parent export compiles
its sources in every process when `PYTHONDONTWRITEBYTECODE` is set, as it is
on the benchmark's machine, so such a cache would favour the change if the
checkout's ignore rules let it into the change's export.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
TAIL_LINES = 20  # the lines of a failed run's stderr and stderr.log kept


def _seeds(text: str) -> list[int]:
    """'1-10' or '0,3,7' as a list of seeds."""
    first, dash, last = text.partition("-")
    if dash:
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(root: Path, rev: str, into: Path) -> None:
    """The files of commit `rev` under `into`."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=root, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _export_checkout(root: Path, into: Path) -> None:
    """The checkout's files as they stand, tracked or new but not ignored,
    under `into`; a tracked file deleted from the checkout is left out."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True,
    ).stdout
    for name in listed.decode().split("\0"):
        source = root / name
        if name and source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(source, into / name)


def _tail(text: str) -> list[str]:
    return text.splitlines()[-TAIL_LINES:]


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result, with `record` the JSON line before it.
    A failed run also keeps what tells why: `diagnosis` holds the record's
    notes and the last lines of the run's stderr and of the `stderr.log`
    that `perfbench/run.py` writes its children's stderr to. The tree is
    removed after the runs, so they are read here."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        records = [json.loads(line) for line in lines[:-1] if line.startswith("{")]
    except (IndexError, ValueError):
        result, records = {"correct": False, "failed": None, "metrics": {}}, []
    result["exit_code"] = proc.returncode
    result["record"] = records[-1] if records else {}
    if not _ok(result):
        log = tree / ".bench_work" / workload / "stderr.log"
        result["diagnosis"] = {
            "notes": result["record"].get("notes", []),
            "stderr": _tail(proc.stderr),
            "stderr_log": _tail(log.read_text(errors="replace")) if log.is_file() else [],
        }
    return result


def _ok(result: dict) -> bool:
    return result["exit_code"] == 0 and result.get("correct") is True and result["failed"] == 0


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and end-to-end metric: each side's samples, median and
    quartiles, and how many pairs the change won. `runs` are dicts of
    workload, seed, side, first and result."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["seed"], {})[run["side"]] = run["result"]
        metrics = {}
        for name, direction in better.items():
            values = {side: [] for side in SIDES}
            wins = compared = 0
            for sides in pairs.values():
                found = [sides.get(side, {}).get("metrics", {}).get(name) for side in SIDES]
                if None in found:
                    continue
                parent, change = (metric["value"] for metric in found)
                values["parent"].append(parent)
                values["change"].append(change)
                compared += 1
                wins += change < parent if direction == "lower" else change > parent
            if not compared:
                continue
            entry = {"better": direction, "unit": found[0]["unit"], "pairs": compared}
            for side in SIDES:
                q1, median, q3 = np.percentile(values[side], [25, 50, 75]).tolist()
                entry[side] = {"samples": values[side], "median": median, "q1": q1, "q3": q3}
            entry["change_wins"] = wins
            metrics[name] = entry
        out[workload] = {"metrics": metrics}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="'1-10' or '0,3,7'")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    caches = sorted(
        path for top in ("src", "perfbench") for path in (root / top).rglob("__pycache__")
    )
    if caches:
        print(f"error: {caches[0]} holds bytecode caches; delete it and rerun", file=sys.stderr)
        return 2
    commits = {
        "parent": {"rev": args.parent, "commit": _git(root, "rev-parse", args.parent)},
        "change": {
            "commit": _git(root, "rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git(root, "status", "--porcelain")),
        },
    }
    better = {
        metric["name"]: metric["better"]
        for metric in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    }
    workloads = args.workloads.split(",")
    seeds = _seeds(args.seeds)
    runs = []
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {side: scratch / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        _export(root, commits["parent"]["commit"], trees["parent"])
        _export_checkout(root, trees["change"])
        for workload in workloads:
            for pair, seed in enumerate(seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = _run(trees[side], workload, seed, args.seconds)
                    runs.append(
                        {"workload": workload, "seed": seed, "side": side, "first": order[0],
                         "result": result}
                    )
                    print(
                        f"{workload} seed {seed} {side}: "
                        f"{'ok' if _ok(result) else 'FAILED'} "
                        + " ".join(
                            f"{name}={metric['value']:.4g}"
                            for name, metric in result.get("metrics", {}).items()
                        ),
                        file=sys.stderr,
                    )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    bad = [run for run in runs if not _ok(run["result"])]
    backends = {
        side: sorted(
            {
                run["result"]["record"].get("environment", {}).get("backend")
                for run in runs
                if run["side"] == side and run["result"]["record"]
            }
            - {None}
        )
        for side in SIDES
    }
    summary = {
        "command": ["scripts/bench_pairs.py", *(sys.argv[1:] if argv is None else argv)],
        **commits,
        "backend": backends,
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": summarize(runs, better),
        "runs": [
            {
                "workload": run["workload"],
                "seed": run["seed"],
                "side": run["side"],
                "first": run["first"],
                "exit_code": run["result"]["exit_code"],
                "correct": run["result"].get("correct"),
                "attempted": run["result"].get("attempted"),
                "failed": run["result"]["failed"],
                **run["result"].get("diagnosis", {}),
            }
            for run in runs
        ],
        "all_correct": not bad,
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for run in bad:
        print(
            f"error: {run['workload']} seed {run['seed']} {run['side']}: "
            f"exit {run['result']['exit_code']}, correct {run['result'].get('correct')}, "
            f"failed {run['result']['failed']}",
            file=sys.stderr,
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
