"""`scripts/bench_commands.py`'s measurement and summary, on fake commands;
no CLI command runs here."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_commands", ROOT / "scripts" / "bench_commands.py"
)
bench_commands = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_commands)


def _fake(megabytes: int) -> list[str]:
    """A command that holds `megabytes` MB of written memory and exits 0."""
    code = "import sys; block = b'x' * (int(sys.argv[1]) << 20)"
    return [sys.executable, "-c", code, str(megabytes)]


def test_summary_of_a_fake_command_gives_each_sides_medians():
    sizes = {"parent": {"small": 8, "big": 48}, "change": {"small": 48, "big": 8}}
    runs = {
        side: [
            {name: bench_commands.measure(_fake(mb), dict(os.environ)) for name, mb in mbs.items()}
            for _ in range(3)
        ]
        for side, mbs in sizes.items()
    }
    summary = bench_commands.summarize(runs)
    assert summary["runs"] == 3
    assert list(summary["commands"]) == ["small", "big"]
    parent, change = (summary["commands"]["big"][side] for side in ("parent", "change"))
    # the 40 MB more shows in the peak RSS; the interpreter's start-up is the same
    assert 35 <= parent["peak_rss_mb_median"] - change["peak_rss_mb_median"] <= 45
    assert change["peak_rss_mb_median"] >= 8
    assert 0 < parent["cpu_s_median"] < 5 and 0 < change["cpu_s_median"] < 5
    # each side's peak is set by its 48 MB command, in every run
    assert summary["peak"]["parent"]["command"] == "big"
    assert summary["peak"]["change"]["command"] == "small"
    for side, name in (("parent", "big"), ("change", "small")):
        peak = summary["peak"][side]
        assert peak["runs_set"] == 3
        assert peak["peak_rss_mb_median"] == summary["commands"][name][side]["peak_rss_mb_median"]


def test_summary_takes_medians_per_command_and_of_each_runs_total():
    runs = {
        "parent": [{"a": (1.0, 10.0), "b": (2.0, 30.0)}, {"a": (3.0, 12.0), "b": (2.5, 20.0)},
                   {"a": (2.0, 11.0), "b": (0.1, 40.0)}],
        "change": [{"a": (1.0, 5.0), "b": (1.0, 5.0)}] * 3,
    }
    summary = bench_commands.summarize(runs)
    assert summary["commands"]["a"]["parent"] == {
        "cpu_s_median": 2.0, "cpu_s_q1": 1.5, "cpu_s_q3": 2.5,
        "peak_rss_mb_median": 11.0, "peak_rss_mb_q1": 10.5, "peak_rss_mb_q3": 11.5,
    }
    assert summary["commands"]["b"]["parent"] == {
        "cpu_s_median": 2.0, "cpu_s_q1": 1.05, "cpu_s_q3": 2.25,
        "peak_rss_mb_median": 30.0, "peak_rss_mb_q1": 25.0, "peak_rss_mb_q3": 35.0,
    }
    assert summary["commands"]["b"]["change"] == {
        "cpu_s_median": 1.0, "cpu_s_q1": 1.0, "cpu_s_q3": 1.0,
        "peak_rss_mb_median": 5.0, "peak_rss_mb_q1": 5.0, "peak_rss_mb_q3": 5.0,
    }
    # totals 3.0, 5.5 and 2.1: the median of the sums, not the sum of the medians (4.0)
    assert summary["total_cpu_s_median_parent"] == 3.0
    assert summary["total_cpu_s_median_change"] == 2.0
    assert summary["peak"]["parent"] == {"command": "b", "runs_set": 3, "peak_rss_mb_median": 30.0}
    # a tie within a run goes to the earlier command
    assert summary["peak"]["change"] == {"command": "a", "runs_set": 3, "peak_rss_mb_median": 5.0}


def test_quartiles_are_bench_pairs_linear_percentiles_rounded():
    # four runs: q1 and q3 fall between samples, a quarter of the way along
    cpu, rss = [0.1, 0.2, 0.4, 0.8], [40.0, 41.0, 45.5, 46.0]
    runs = dict.fromkeys(("parent", "change"), [{"c": pair} for pair in zip(cpu, rss)])
    entry = bench_commands.summarize(runs)["commands"]["c"]["parent"]
    assert entry == {
        "cpu_s_median": 0.3, "cpu_s_q1": 0.175, "cpu_s_q3": 0.5,
        "peak_rss_mb_median": 43.25, "peak_rss_mb_q1": 40.75, "peak_rss_mb_q3": 45.62,
    }
    assert entry["peak_rss_mb_q1"] <= entry["peak_rss_mb_median"] <= entry["peak_rss_mb_q3"]


def test_the_peak_is_the_median_of_each_runs_largest_command():
    # the runs' peaks are 50 (a), 20 (b) and 30 (b): b sets the peak in two
    # runs, and the peaks' median, 30, is no command's median
    runs = dict.fromkeys(
        ("parent", "change"),
        [{"a": (0.1, 50.0), "b": (0.1, 10.0)}, {"a": (0.1, 5.0), "b": (0.1, 20.0)},
         {"a": (0.1, 6.0), "b": (0.1, 30.0)}],
    )
    summary = bench_commands.summarize(runs)
    assert summary["commands"]["a"]["parent"]["peak_rss_mb_median"] == 6.0
    assert summary["commands"]["b"]["parent"]["peak_rss_mb_median"] == 20.0
    assert summary["peak"]["parent"] == {"command": "b", "runs_set": 2, "peak_rss_mb_median": 30.0}


def test_a_failing_command_raises_with_its_stderr():
    argv = [sys.executable, "-c", "import sys; sys.exit('broken corpus')"]
    with pytest.raises(RuntimeError, match=r"exited 1:\nbroken corpus"):
        bench_commands.measure(argv, dict(os.environ))


def test_paper_workload_is_the_papers_size_at_k_50_and_two_sweeps():
    assert bench_commands.PAPER_CORPUS == {
        "WIDE_DOCS": 6_515,
        "WIDE_POOL": 16_000,
        "WIDE_POOL_PER_DOC": 160,
        "WIDE_STOPWORDS_PER_DOC": 5,
        "WIDE_ONE_OFF_PER_DOC": 3,
    }
    assert bench_commands.PAPER_SETTINGS == {
        "lda": {"k": "50", "iterations": "2", "burn_in": "0", "thin": "1", "seed": "0"},
        "preprocess": {"no_above": "0.9"},
    }
    assert bench_commands.PAPER_SEED == 5


def test_paper_corpus_at_one_percent_scale_follows_its_settings(tmp_path):
    """65 articles, each of 156-164 words from the 16,000-word pool, up to
    10 stopwords and up to 6 one-off words, the same bytes on each write;
    the generator's own module keeps its `wide` constants."""
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (first, second):
        bench_commands.write_paper_corpus(ROOT, bench_commands.PAPER_SEED, path, docs=65)
    assert first.read_bytes() == second.read_bytes()
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    pool = {gen._word("zq", i) for i in range(16_000)}
    stopwords = set(gen.bundled_stopwords())
    records = [json.loads(line) for line in first.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 65
    for record in records:
        tokens = f"{record['title'][:-1]} {record['body'][:-1]}".lower().split()
        in_pool = [t for t in tokens if t in pool]
        one_off = [t for t in tokens if t.startswith("zx")]
        assert 156 <= len(in_pool) <= 164
        assert len(one_off) <= 6
        assert set(tokens) - set(in_pool) - set(one_off) <= stopwords
        assert len(tokens) - len(in_pool) - len(one_off) <= 10
    assert (gen.WIDE_DOCS, gen.WIDE_POOL, gen.WIDE_POOL_PER_DOC) == (3_000, 20_000, 18)
