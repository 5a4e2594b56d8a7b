#!/usr/bin/env python3
"""Measure each CLI command of one workload at a parent commit and in the
checkout, and write the medians into a BENCH file.

    python3 scripts/bench_commands.py --parent HEAD~1 --workload wide --seed 3 \
        --runs 8 --out BENCH_<label>.json

Both sides are exported as `scripts/bench_pairs.py` exports them: the
parent is commit REV, the change is the checkout as its files stand. Each
run gives each side a fresh workspace and runs the six commands of
`perfbench/run.py`'s PIPELINE on the workload's corpus:

- `fixture`: the bundled sample, with that file's `fixture` settings;
- `wide`: `perfbench/gen.py --seed S` (default 0), with its `wide`
  settings;
- `paper`: a corpus the size of the paper's, 6,515 articles of about 160
  kept words each from a 16,000-word pool (about 1.04 M kept tokens),
  written by `perfbench/gen.py`'s `wide` generator with the module
  constants of PAPER_CORPUS set on the imported module (seed S, default
  5), with PAPER_SETTINGS: K = 50 and two sweeps. Only the memory and CPU
  of each command are measured; two sweeps say nothing of the sampler's
  speed at this size.

The side that goes first alternates from run to run. Each command is a fresh `python -m
newstm.cli` child, pinned to the highest-numbered CPU this script may use,
with PYTHONDONTWRITEBYTECODE=1; its CPU time (user + system) and peak RSS
come from os.wait4.

The medians, with each command's quartiles q1 and q3 beside them, are
written into the --out JSON file as `<workload>_per_command`, and the
file's other keys are kept. Its `peak` entry names, per side, the
command that sets the peak RSS in most runs, and the median of the runs'
peaks. Exit status: 0, or 1 when a command exits non-zero (nothing is
written then).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, _export, _export_checkout, _git  # noqa: E402


# Runs sys.argv[1:] with stdout on /dev/null and prints its CPU seconds and
# peak RSS in MB. A process's ru_maxrss includes the pages of the process
# that spawned it, as they stood at the exec, so the spawner is this small
# interpreter rather than the caller, whose size depends on how it was run.
_LAUNCHER = """
import os, sys
to_null = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=to_null)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
sys.exit(os.waitstatus_to_exitcode(status))
"""


# The `wide` generator's constants for a corpus of the paper's size, and the
# settings that the six commands run with on it.
PAPER_CORPUS = {
    "WIDE_DOCS": 6_515,
    "WIDE_POOL": 16_000,
    "WIDE_POOL_PER_DOC": 160,
    "WIDE_STOPWORDS_PER_DOC": 5,
    "WIDE_ONE_OFF_PER_DOC": 3,
}
PAPER_SETTINGS = {
    "lda": {"k": "50", "iterations": "2", "burn_in": "0", "thin": "1", "seed": "0"},
    "preprocess": {"no_above": "0.9"},
}
PAPER_SEED = 5


def write_paper_corpus(tree: Path, seed: int, path: Path, docs: int = PAPER_CORPUS["WIDE_DOCS"]):
    """Write the `paper` corpus with `tree`'s perfbench/gen.py, its `wide`
    generator set to PAPER_CORPUS on a module of its own, with `docs`
    articles (a smaller number makes a scaled-down corpus for tests)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", tree / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for name, value in {**PAPER_CORPUS, "WIDE_DOCS": docs}.items():
        if not hasattr(gen, name):  # setting a renamed constant would have no effect
            raise AttributeError(f"perfbench/gen.py has no {name}")
        setattr(gen, name, value)
    gen.write_wide_corpus(seed, path, gen.bundled_stopwords())


def measure(argv: list[str], env: dict[str, str]) -> tuple[float, float]:
    """Run one command, `argv[0]` a path; its CPU seconds and peak RSS in MB.
    A non-zero exit raises RuntimeError with the end of its stderr."""
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *argv], env=env, capture_output=True, text=True
    )
    if done.returncode:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-600:]}")
    cpu, rss = map(float, done.stdout.split())
    return cpu, rss


def _quartiles(name: str, values: list[float], digits: int) -> dict[str, float]:
    """`name`_median, _q1 and _q3 of `values`, as `bench_pairs.py` takes
    them (numpy's linear percentiles), rounded to `digits`."""
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {
        f"{name}_median": round(median, digits),
        f"{name}_q1": round(q1, digits),
        f"{name}_q3": round(q3, digits),
    }


def summarize(runs: dict[str, list[dict[str, tuple[float, float]]]]) -> dict:
    """Each command's median and quartiles of CPU seconds and peak RSS per
    side, each side's median total CPU over a run, and each side's peak: the
    command that sets it and its median. `runs[side]` holds one dict per
    run, command -> (cpu_s, peak_rss_mb)."""
    commands = list(runs[SIDES[0]][0])
    out: dict = {"runs": len(runs[SIDES[0]]), "commands": {}}
    for command in commands:
        out["commands"][command] = {
            side: {
                **_quartiles("cpu_s", [r[command][0] for r in runs[side]], 4),
                **_quartiles("peak_rss_mb", [r[command][1] for r in runs[side]], 2),
            }
            for side in SIDES
        }
    for side in SIDES:
        totals = [sum(cpu for cpu, _ in run.values()) for run in runs[side]]
        out[f"total_cpu_s_median_{side}"] = round(statistics.median(totals), 4)
    # A run's peak is its largest command peak, the first such command in
    # pipeline order setting it; a side's peak is the command that set it in
    # the most runs, and the median of the runs' peaks.
    out["peak"] = {}
    for side in SIDES:
        setters = [max(commands, key=lambda c: run[c][1]) for run in runs[side]]
        command = max(commands, key=setters.count)
        out["peak"][side] = {
            "command": command,
            "runs_set": setters.count(command),
            "peak_rss_mb_median": round(
                statistics.median(max(rss for _, rss in run.values()) for run in runs[side]), 2
            ),
        }
    return out


def _perfbench_run(tree: Path):
    spec = importlib.util.spec_from_file_location("perfbench_run", tree / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True, choices=("fixture", "wide", "paper"))
    parser.add_argument(
        "--seed", type=int, help=f"the generated corpus's seed (wide: 0, paper: {PAPER_SEED})"
    )
    parser.add_argument("--runs", type=int, default=8)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # every command inherits the pin

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    parent_commit = _git(root, "rev-parse", args.parent)
    scratch = Path(tempfile.mkdtemp(prefix="bench_commands_"))
    runs: dict[str, list[dict[str, tuple[float, float]]]] = {side: [] for side in SIDES}
    try:
        trees = {side: scratch / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        _export(root, parent_commit, trees["parent"])
        _export_checkout(root, trees["change"])
        bench = _perfbench_run(trees["change"])
        envs = {
            side: dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
            for side, tree in trees.items()
        }
        if args.workload == "wide":
            seed = 0 if args.seed is None else args.seed
            corpus = scratch / "wide.jsonl"
            gen = [sys.executable, str(trees["change"] / "perfbench" / "gen.py")]
            measure([*gen, "--seed", str(seed), "--out", str(corpus)], envs["change"])
            source = f"the seed-{seed} wide corpus (perfbench/gen.py --seed {seed})"
        elif args.workload == "paper":
            seed = PAPER_SEED if args.seed is None else args.seed
            corpus = scratch / "paper.jsonl"
            write_paper_corpus(trees["change"], seed, corpus)
            source = (
                f"the seed-{seed} paper-size corpus (perfbench/gen.py's wide generator with "
                + ", ".join(f"{name}={value}" for name, value in PAPER_CORPUS.items())
                + ")"
            )
        else:
            corpus = trees["change"] / "tests" / "data" / "sample_news.jsonl"
            source = "the fixture corpus (tests/data/sample_news.jsonl)"
        settings = bench.CLI_SETTINGS.get(args.workload, PAPER_SETTINGS)
        sections = {"corpus": {"path": str(corpus)}, **settings}
        config = scratch / "run.ini"
        config.write_text(
            "".join(
                f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                for section, keys in sections.items()
            ),
            encoding="utf-8",
        )
        for run in range(args.runs):
            for side in SIDES if run % 2 == 0 else SIDES[::-1]:
                workspace = scratch / f"ws-{side}-{run}"
                results = {}
                for _, command in bench.PIPELINE:
                    cli = [sys.executable, "-m", "newstm.cli", "--workspace", str(workspace)]
                    results[" ".join(command)] = measure(
                        [*cli, "--config", str(config), *command], envs[side]
                    )
                runs[side].append(results)
                shutil.rmtree(workspace)
                print(
                    f"run {run} {side}: "
                    + " ".join(f"{c}={cpu:.3f}s/{rss:.2f}MB" for c, (cpu, rss) in results.items()),
                    file=sys.stderr,
                )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    block = {
        "method": (
            f"the six commands on {source} with the settings {json.dumps(settings)}, "
            f"{args.runs} runs per side alternating which side goes first, each run in a fresh "
            "workspace, each command a fresh `python -m newstm.cli` child pinned to one CPU "
            "with PYTHONDONTWRITEBYTECODE=1; CPU is ru_utime + ru_stime and peak RSS "
            "ru_maxrss from os.wait4; values are medians, with each command's quartiles q1 and "
            "q3 (scripts/bench_commands.py)"
        ),
        "parent_commit": parent_commit,
        **summarize(runs),
    }
    summary = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    summary[f"{args.workload}_per_command"] = block
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
