"""`scripts/bench_pairs.py` against a fake `perfbench/run.py` that prints
fixed records; no real benchmark runs here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

# A run.py that prints a record line, then a result whose metrics depend on
# its side and the seed; seed 13 fails one operation.
FAKE_RUN = '''import json, sys
SIDE = {side!r}
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
base = {{"parent": 2.0, "change": 1.0}}[SIDE]
print("== " + args["--workload"])
print(json.dumps({{"workload": args["--workload"], "environment": {{"backend": "fake-" + SIDE}}}}))
metrics = {{
    "pipeline_s": {{"value": base + seed / 100, "unit": "s"}},
    "peak_rss_mb": {{"value": 60.0 if seed % 2 else 70.0, "unit": "MB"}},
}}
failed = 1 if seed == 13 else 0
print(json.dumps({{"correct": failed == 0, "attempted": 6, "failed": failed, "metrics": metrics}}))
'''

BENCHMARK = {
    "end_to_end": [
        {"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.15},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]
}


def _repo(tmp_path):
    root = tmp_path / "repo"
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(side="parent"))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(["git", "init", "-q", str(root)], check=True)
    subprocess.run(git + ["add", "-A"], cwd=root, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "parent"], cwd=root, check=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(side="change"))
    return root


def _bench(root, seeds, out):
    """Run the script; its temporary parent export goes under root/../tmp."""
    argv = [sys.executable, str(SCRIPT), "--parent", "HEAD", "--workloads", "wide,fixture"]
    argv += ["--seeds", seeds, "--seconds", "1", "--out", str(out)]
    tmp = root.parent / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, env=env)


def test_pairs_alternate_and_summarize_each_metric_and_side(tmp_path):
    root = _repo(tmp_path)
    out = tmp_path / "BENCH_test.json"
    proc = _bench(root, "1-4", out)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
    ).stdout.strip()
    assert summary["parent"] == {"rev": "HEAD", "commit": head}
    assert summary["change"] == {"commit": head, "uncommitted_changes": True}
    assert summary["command"][-2:] == ["--out", str(out)]
    assert summary["backend"] == {"parent": ["fake-parent"], "change": ["fake-change"]}
    assert summary["seeds"] == [1, 2, 3, 4]
    runs = [(r["workload"], r["seed"], r["side"]) for r in summary["runs"]]
    assert runs[:4] == [
        ("wide", 1, "parent"), ("wide", 1, "change"), ("wide", 2, "change"), ("wide", 2, "parent")
    ]
    assert len(runs) == 16 and all(r["correct"] and r["failed"] == 0 for r in summary["runs"])
    assert list(summary["workloads"]) == ["wide", "fixture"]
    pipeline = summary["workloads"]["wide"]["metrics"]["pipeline_s"]
    assert pipeline["parent"]["samples"] == [2.01, 2.02, 2.03, 2.04]
    assert pipeline["change"]["samples"] == [1.01, 1.02, 1.03, 1.04]
    assert pipeline["change"]["median"] == pytest.approx(1.025)
    assert (pipeline["change"]["q1"], pipeline["change"]["q3"]) == pytest.approx((1.0175, 1.0325))
    assert (pipeline["pairs"], pipeline["change_wins"], pipeline["better"]) == (4, 4, "lower")
    rss = summary["workloads"]["fixture"]["metrics"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["unit"]) == (0, "MB")  # a tie is not a win
    assert summary["all_correct"] is True
    assert list((tmp_path / "tmp").iterdir()) == []  # the parent export is removed


def test_a_run_that_fails_an_operation_exits_1_after_writing_the_summary(tmp_path):
    root = _repo(tmp_path)
    out = tmp_path / "BENCH_test.json"
    proc = _bench(root, "12,13", out)
    assert proc.returncode == 1
    assert "seed 13 parent: exit 0, correct False, failed 1" in proc.stderr
    summary = json.loads(out.read_text())
    assert summary["all_correct"] is False
    assert [r["failed"] for r in summary["runs"] if r["workload"] == "wide"] == [0, 0, 1, 1]


def test_a_checkout_with_bytecode_caches_is_refused_before_any_run(tmp_path):
    root = _repo(tmp_path)
    cache = root / "src" / "newstm" / "__pycache__"
    cache.mkdir(parents=True)
    out = tmp_path / "BENCH_test.json"
    proc = _bench(root, "1-2", out)
    assert proc.returncode == 2
    assert f"error: {cache} holds bytecode caches" in proc.stderr
    assert "seed" not in proc.stderr and not out.exists()


# A run.py that reports, as its backend, where it runs and what it finds there.
WHERE_RUN = """import json, os
from pathlib import Path
SIDE = "parent"
note = Path("perfbench/note.txt")
where = {"side": SIDE, "tree": os.getcwd(), "bench_work": Path(".bench_work").exists(),
         "note": note.read_text() if note.exists() else None}
print(json.dumps({"environment": {"backend": json.dumps(where)}}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}}))
"""


def test_both_sides_run_from_sibling_exports_and_the_change_holds_the_checkout(tmp_path):
    root = _repo(tmp_path)
    (root / ".gitignore").write_text(".bench_work/\n")
    (root / "perfbench" / "run.py").write_text(WHERE_RUN)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["commit", "-q", "-am", "where"], cwd=root, check=True)
    subprocess.run(git + ["add", ".gitignore"], cwd=root, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "ignore"], cwd=root, check=True)
    # An uncommitted edit, a new file and an ignored work directory.
    (root / "perfbench" / "run.py").write_text(WHERE_RUN.replace('"parent"', '"change"'))
    (root / "perfbench" / "note.txt").write_text("new file")
    (root / ".bench_work").mkdir()
    out = tmp_path / "BENCH_test.json"
    proc = _bench(root, "1", out)
    assert proc.returncode == 0, proc.stderr
    backend = json.loads(out.read_text())["backend"]
    parent, change = (json.loads(backend[side][0]) for side in ("parent", "change"))
    assert (parent["side"], parent["note"], parent["bench_work"]) == ("parent", None, False)
    assert (change["side"], change["note"], change["bench_work"]) == ("change", "new file", False)
    parent_tree, change_tree = Path(parent["tree"]), Path(change["tree"])
    assert (parent_tree.name, change_tree.name) == ("parent", "change")
    assert parent_tree.parent == change_tree.parent != root
    assert parent_tree.parent.parent == tmp_path / "tmp"
    assert list((tmp_path / "tmp").iterdir()) == []  # both exports are removed


# A run.py that logs to stderr and .bench_work/W/stderr.log as perfbench/run.py
# does; seed 13 fails one operation with a note.
FAILING_RUN = """import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
log = Path(".bench_work") / args["--workload"] / "stderr.log"
log.parent.mkdir(parents=True, exist_ok=True)
log.write_text("".join(f"child line {i}\\n" for i in range(30)) + f"crash at seed {seed}\\n")
print(f"run.py stderr {seed}", file=sys.stderr)
failed = int(seed == 13)
print(json.dumps({"notes": ["report exited 1"] if failed else []}))
print(json.dumps({"correct": not failed, "attempted": 6, "failed": failed, "metrics": {}}))
"""


def test_a_failed_run_keeps_its_notes_and_the_tails_of_its_stderr_and_log(tmp_path):
    root = _repo(tmp_path)
    (root / "perfbench" / "run.py").write_text(FAILING_RUN)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["commit", "-q", "-am", "failing"], cwd=root, check=True)
    out = tmp_path / "BENCH_test.json"
    proc = _bench(root, "12,13", out)
    assert proc.returncode == 1
    runs = json.loads(out.read_text())["runs"]
    failed = [run for run in runs if run["failed"]]
    assert sorted((run["workload"], run["side"], run["seed"]) for run in failed) == [
        ("fixture", "change", 13), ("fixture", "parent", 13),
        ("wide", "change", 13), ("wide", "parent", 13),
    ]
    for run in failed:
        assert run["notes"] == ["report exited 1"]
        assert run["stderr"] == ["run.py stderr 13"]
        log = [f"child line {i}" for i in range(11, 30)] + ["crash at seed 13"]
        assert run["stderr_log"] == log  # its last 20 lines
    assert all("notes" not in run and "stderr" not in run for run in runs if not run["failed"])
