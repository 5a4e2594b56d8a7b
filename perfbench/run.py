#!/usr/bin/env python3
"""The newstm benchmark: three workloads driven through the public surface.

    python3 perfbench/run.py --workload fixture --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 1 --trace 0

Workloads (one benchmark process each, one child process at a time):

* fixture -- the bundled 200-article acceptance corpus through all six CLI
  commands at K=20 and 50 sweeps. Sampler-bound: the Gibbs kernel is about
  99% of the run, so it shows a kernel gain and no change from an I/O gain.
  Its input is fixed, so --seed only labels the run.
* wide -- a generated 3,000-article corpus (V about 15,000 after
  preprocessing) through all six commands with a single sweep. K x V state
  dominates: model save/load, preprocessing and hashing, not sweeps.
* heldout -- `infer_theta` (200 sweeps) on 100 short documents under a
  planted K=20, V=5,000 model, then `perplexity`: the read-only use of
  `newstm.lda`, where per-call overhead beside the kernel shows.

With --trace 0 the run repeats its workload in child processes for about
--seconds and reports medians of the end-to-end metrics; with --trace 1 it
runs the workload once untraced and once traced in-process, plus the kernel
micro-benchmark, and reports per-layer metrics and the tracing overhead.
Every output is checked; the last line of stdout is the JSON result.

End-to-end metrics, on every workload:

* pipeline_s -- the job: the six commands, or the inferences plus perplexity;
* sampling_s -- its sampling steps: both `train` commands, or the inferences;
* peak_rss_mb -- the largest peak RSS of any process of the job;
* setup_s -- a fresh interpreter importing the modules every command needs.

Times are CPU seconds of the processes, rescaled to the nominal speed of
the reference loop that runs beside them (see reference.py), because on a
shared virtual machine both wall and CPU time drift by a third between
runs. Wall times, raw CPU times, the per-command stages and the output
digests are printed in the table and in the JSON record above the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE_CORPUS = ROOT / "tests" / "data" / "sample_news.jsonl"
WORK = ROOT / ".bench_work"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("fixture", "wide", "heldout")
CLI_SETTINGS = {
    "fixture": {"lda": {"k": "20", "iterations": "50", "burn_in": "10", "thin": "5", "seed": "0"}},
    "wide": {
        "lda": {"k": "20", "iterations": "1", "burn_in": "0", "thin": "1", "seed": "0"},
        "preprocess": {"no_above": "0.9"},
    },
}
PIPELINE = (
    ("ingest", ["ingest"]),
    ("preprocess", ["preprocess"]),
    ("train_static", ["train", "--mode", "static"]),
    ("train_dtm", ["train", "--mode", "dtm"]),
    ("report", ["report"]),
    ("plot", ["plot"]),
)
# User-visible outputs and the command that writes each. Vocabulary, bows and
# model files are left out: their format may change while every sample still
# shows up in coherence.json and the figures.
CHECKED_OUTPUTS = {
    "timeline.csv": "ingest",
    "coherence.json": "report",
    "overlap.json": "report",
    "intertopic.csv": "report",
    "trajectories.csv": "report",
}
SETUP_IMPORT = "import newstm.cli, newstm.viz, newstm.lda, newstm.dtm"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
ROW_SUM_TOLERANCE = 1e-9

END_TO_END = {
    "pipeline_s": "s",
    "sampling_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stdout_path: Path, log) -> tuple[float, float, int, float]:
    """Run one process to completion.

    Returns (wall seconds, CPU seconds, exit code, peak RSS MB). CPU time is
    user plus system time from the child's rusage; it leaves out the time
    the machine gives to other tenants, which wall time includes.
    """
    with stdout_path.open("wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=log, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, proc.returncode, usage.ru_maxrss / 1024.0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    import numpy

    from newstm import _kernels

    return {
        "backend": _kernels.BACKEND,
        "numba_importable": find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


class Run:
    """One benchmark run of one workload: inputs, repetitions and checks."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.children_rss = 0.0
        self.reference = None  # a reference.Reference while measuring
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.log = (work / "stderr.log").open("ab")
        recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
        # Digests are recorded for seeds 0-9; the fixture's input does not depend
        # on the seed, so its one entry covers every seed. At other seeds only
        # the remaining checks apply.
        self.expected = recorded.get("any" if workload == "fixture" else str(seed))
        if workload != "heldout":
            self.config = self._write_cli_inputs()

    def start_reference(self) -> None:
        """Pin this process, and so everything it starts, to one CPU and start
        the reference loop there, so the loop sees the speed the workload gets."""
        import reference

        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.reference = reference.Reference(sys.executable, self.log)

    def close(self) -> None:
        if self.reference is not None:
            self.reference.close()
        self.log.close()

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(why)

    # -- inputs -----------------------------------------------------------
    def _write_cli_inputs(self) -> Path:
        if self.workload == "wide":
            corpus = self.work / "wide.jsonl"
            argv = [sys.executable, str(HERE / "gen.py"), "--seed", str(self.seed)]
            _, _, code, _ = run_child(argv + ["--out", str(corpus)], self.work / "gen.out", self.log)
            if code != 0:
                raise RuntimeError(f"generating the wide corpus exited {code}")
        else:
            corpus = FIXTURE_CORPUS
        sections = {"corpus": {"path": str(corpus)}}
        sections.update(CLI_SETTINGS[self.workload])
        lines = []
        for section, values in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
        config = self.work / "run.ini"
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return config

    def cli_descriptor(self, ws: Path) -> dict:
        """Input descriptors of a finished CLI workspace; empty if it is incomplete."""
        from newstm.cli import load_config
        from newstm.corpus import load_corpus, slice_monthly
        from newstm.preprocess import read_bows, read_vocabulary, tokenize

        if not all((ws / name).is_file() for name in ("corpus.jsonl", "bows.jsonl", "vocab.json")):
            return {}
        config = load_config(self.config)
        corpus = load_corpus(ws / "corpus.jsonl")
        bows = read_bows(ws / "bows.jsonl")
        kept = {b.doc_id: b.total() for b in bows}
        slices = slice_monthly(corpus, config.anchor_day, config.first_start, config.n_slices)
        sliced = sum(kept[i] for s in slices for i in s.doc_ids)
        return {
            "docs": len(corpus),
            "raw_tokens": sum(len(tokenize(d.title + " " + d.body)) for d in corpus),
            "kept_tokens": sum(kept.values()),
            "V": len(read_vocabulary(ws / "vocab.json")),
            "K": config.hyper.k,
            "T": config.n_slices,
            "iterations": config.hyper.iterations,
            "lda.token_updates": config.hyper.iterations * (sum(kept.values()) + sliced),
        }

    # -- set-up -----------------------------------------------------------
    def measure_setup(self) -> tuple[list[tuple[float, float]], float]:
        """(wall, CPU) seconds of fresh interpreters importing the CLI's
        modules, and the speed scale over those imports."""
        import reference

        argv = [sys.executable, "-c", SETUP_IMPORT]
        out = self.work / "setup.out"
        # The first import writes bytecode caches; users pay that once.
        run_child(argv, out, self.log)
        samples = []
        before = self.reference.reading()
        for _ in range(SETUP_SAMPLES):
            wall, cpu, code, _ = run_child(argv, out, self.log)
            self.attempted += 1
            if code != 0:
                self.fail(1, f"set-up import exited {code}")
            samples.append((wall, cpu))
        return samples, reference.scale(before, self.reference.reading())

    # -- one repetition, untraced ------------------------------------------
    def cli_rep(self) -> dict:
        import reference

        ws = self.work / "ws"
        shutil.rmtree(ws, ignore_errors=True)
        wall: dict[str, float] = {}
        cpu: dict[str, float] = {}
        failed_steps: set[str] = set()
        readings = [self.reference.reading()]
        for name, args in PIPELINE:
            argv = [sys.executable, "-m", "newstm.cli", "--workspace", str(ws)]
            wall[name], cpu[name], code, rss = run_child(
                argv + ["--config", str(self.config), *args], self.work / "cmd.out", self.log
            )
            readings.append(self.reference.reading())
            self.attempted += 1
            self.children_rss = max(self.children_rss, rss)
            if code != 0:
                failed_steps.add(name)
                self.notes.append(f"{name} exited {code}")
        scaled = reference.rescale(list(cpu.values()), readings)
        return {
            "wall": wall,
            "cpu": cpu,
            "scaled": dict(zip(cpu, scaled)),
            "failed_steps": failed_steps,
            "digests": cli_digests(ws),
            "ws": ws,
        }

    def heldout_rep(self) -> dict:
        import reference

        out = self.work / "heldout.out"
        argv = [sys.executable, str(HERE / "heldout_job.py"), "--seed", str(self.seed)]
        before = self.reference.reading()
        wall, cpu, code, rss = run_child(argv, out, self.log)
        scale = reference.scale(before, self.reference.reading())
        self.children_rss = max(self.children_rss, rss)
        if code != 0:
            timings = {"job_s": wall, "infer_s": wall, "job_cpu_s": cpu, "infer_cpu_s": cpu}
            return {**timings, "scale": scale, "exit_code": code}
        result = json.loads(out.read_text(encoding="utf-8").strip().splitlines()[-1])
        return {**result, "scale": scale}

    # -- checks -----------------------------------------------------------
    def check_cli(self, reps: list[dict]) -> dict:
        """Count each command that exited non-zero or wrote a wrong output."""
        first = reps[0]["digests"]
        want = self.expected
        k = int(CLI_SETTINGS[self.workload]["lda"]["k"])
        required = set(CHECKED_OUTPUTS) | {"figures/timeline.svg", "figures/intertopic.svg"}
        required |= {f"figures/trajectory_topic_{t}.svg" for t in range(k)}
        for rep in reps:
            bad = set(rep["failed_steps"])
            got = rep["digests"]
            names = set(got) | required | (set(want) if want else set())
            for name in sorted(names):
                if want is not None and got.get(name) != want.get(name):
                    reason = "differs from the recorded digest"
                elif name not in got:
                    reason = "is missing"
                elif got.get(name) != first.get(name):
                    reason = "differs between repetitions"
                else:
                    continue
                producer = CHECKED_OUTPUTS.get(name, "plot")
                if producer not in bad:
                    self.notes.append(f"{name} {reason}")
                bad.add(producer)
            self.failed += len(bad)
        return first

    def check_heldout(self, reps: list[dict]) -> dict[str, str | None]:
        import gen

        digest = None
        for rep in reps:
            self.attempted += gen.HELDOUT_DOCS + 1
            if "exit_code" in rep:
                self.fail(gen.HELDOUT_DOCS + 1, f"heldout job exited {rep['exit_code']}")
                continue
            bad_rows = sum(err > ROW_SUM_TOLERANCE for err in rep["row_sum_error"])
            if bad_rows:
                self.fail(bad_rows, f"{bad_rows} theta rows do not sum to 1")
            digest = digest or rep["digest"]
            value = rep["perplexity"]
            if self.expected and rep["digest"] != self.expected:
                self.fail(1, "theta/perplexity digest differs from the recorded digest")
            elif rep["digest"] != digest:
                self.fail(1, "theta/perplexity digest differs between repetitions")
            elif not (math.isfinite(value) and 1.0 <= value < gen.HELDOUT_V):
                self.fail(1, f"perplexity {value!r} is outside [1, V)")
        return {"theta+perplexity": digest}


def cli_digests(ws: Path) -> dict[str, str]:
    found = {}
    for name in CHECKED_OUTPUTS:
        if (ws / name).is_file():
            found[name] = sha256_file(ws / name)
    figures = ws / "figures"
    if figures.is_dir():
        for svg in sorted(figures.glob("*.svg")):
            found[f"figures/{svg.name}"] = sha256_file(svg)
    return found


def heldout_descriptor(tokens: int) -> dict:
    import gen
    import heldout_job

    return {
        "docs": gen.HELDOUT_DOCS,
        "raw_tokens": tokens,
        "kept_tokens": tokens,
        "V": gen.HELDOUT_V,
        "K": gen.HELDOUT_K,
        "T": 1,
        "iterations": heldout_job.INFER_SWEEPS,
        "lda.token_updates": tokens * heldout_job.INFER_SWEEPS,
    }


def workspace_bytes(ws: Path) -> int:
    return sum(p.stat().st_size for p in ws.rglob("*") if p.is_file())


def repeat(rep, seconds: float) -> list[dict]:
    """Run rep() at least once and again while another fits in `seconds`."""
    reps: list[dict] = []
    durations: list[float] = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(rep())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.median(durations) > seconds:
            return reps


def measure(workload: str, seed: int, seconds: float) -> dict:
    run = Run(workload, seed, WORK / workload)
    try:
        run.start_reference()
        load_before = os.getloadavg()
        setup, setup_scale = run.measure_setup()
        if workload == "heldout":
            reps = repeat(run.heldout_rep, seconds)
            digests = run.check_heldout(reps)
            # Imported only now: a child's peak RSS starts from its parent's at
            # spawn, so nothing heavy may be loaded here while children run.
            import gen

            pipeline = [r["job_cpu_s"] * r["scale"] for r in reps]
            sampling = [r["infer_cpu_s"] * r["scale"] for r in reps]
            cpu = [r["job_cpu_s"] for r in reps]
            wall = statistics.median(r["job_s"] for r in reps)
            stages = {
                "pipeline_wall_s": (wall, "s"),
                "infer_docs_per_s": (gen.HELDOUT_DOCS / wall, "docs/s"),
            }
            descriptor = heldout_descriptor(max(r.get("tokens", 0) for r in reps))
        else:
            reps = repeat(run.cli_rep, seconds)
            digests = run.check_cli(reps)
            med = {name: statistics.median(r["wall"][name] for r in reps) for name, _ in PIPELINE}
            cpu = [sum(r["cpu"].values()) for r in reps]
            pipeline = [sum(r["scaled"].values()) for r in reps]
            sampling = [r["scaled"]["train_static"] + r["scaled"]["train_dtm"] for r in reps]
            stages = {
                "pipeline_wall_s": (statistics.median(sum(r["wall"].values()) for r in reps), "s"),
                "prep_s": (med["ingest"] + med["preprocess"], "s"),
                "train_static_s": (med["train_static"], "s"),
                "train_dtm_s": (med["train_dtm"], "s"),
                "post_s": (med["report"] + med["plot"], "s"),
                "workspace_bytes": (workspace_bytes(reps[-1]["ws"]), "bytes"),
            }
            descriptor = run.cli_descriptor(reps[-1]["ws"])
        metrics = {
            "pipeline_s": statistics.median(pipeline),
            "sampling_s": statistics.median(sampling),
            "peak_rss_mb": run.children_rss,
            "setup_s": statistics.median(c for _, c in setup) * setup_scale,
        }
        stages["pipeline_cpu_s"] = (statistics.median(cpu), "s")
        stages["setup_wall_s"] = (statistics.median(wall for wall, _ in setup), "s")
        record = {
            "workload": workload,
            "seed": seed,
            "trace": 0,
            "repetitions": len(reps),
            "pipeline_s_samples": pipeline,
            "setup_speed_scale": setup_scale,
            "stages": {k: v for k, (v, _) in stages.items()},
            "inputs": descriptor,
            "digests": digests,
            "checked_against_recorded": run.expected is not None,
            "environment": {
                **environment(),
                "loadavg_before": load_before,
                "loadavg_after": os.getloadavg(),
            },
            "notes": run.notes,
        }
        table = [(n, v, END_TO_END[n]) for n, v in metrics.items()]
        table += [(n, v, u) for n, (v, u) in stages.items()]
        return {
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": v, "unit": END_TO_END[n]} for n, v in metrics.items()},
            "record": record,
            "table": table,
        }
    finally:
        run.close()


def trace_run(workload: str, seed: int) -> dict:
    """One untraced and one traced in-process pass, plus the kernel micro-benchmark."""
    import logging

    import micro
    import reference
    import spans
    from newstm import cli

    run = Run(workload, seed, WORK / f"{workload}-trace")
    handler = logging.FileHandler(run.work / "trace.log", encoding="utf-8")
    logging.basicConfig(level=logging.INFO, handlers=[handler])
    try:
        run.start_reference()
        load_before = os.getloadavg()
        if workload == "heldout":
            import heldout_job

            model, bows = heldout_job.build_inputs(seed)

            def one_pass(tracer):
                out = tracer.call("job.heldout", heldout_job.run_job, model, bows)
                return [heldout_job.summary(out, bows)]

        else:

            def one_pass(tracer):
                ws = run.work / "ws"
                shutil.rmtree(ws, ignore_errors=True)
                failed_steps = set()
                for name, args in PIPELINE:
                    argv = ["--workspace", str(ws), "--config", str(run.config), *args]
                    code = tracer.call(f"cmd.{name}", cli.main, argv)
                    run.attempted += 1
                    if code != 0:
                        failed_steps.add(name)
                        run.notes.append(f"{name} exited {code}")
                return [{"failed_steps": failed_steps, "digests": cli_digests(ws), "ws": ws}]

        check = run.check_heldout if workload == "heldout" else run.check_cli

        def timed(tracer):
            """The pass's results, its CPU seconds at nominal speed and that scale."""
            before, started = run.reference.reading(), time.process_time()
            reps = one_pass(tracer)
            cpu = time.process_time() - started
            speed = reference.scale(before, run.reference.reading())
            return reps, cpu * speed, speed

        reps, untraced_s, _ = timed(spans.Tracer("untraced"))
        tracer = spans.Tracer(f"{workload}-{seed}")
        tracer.install()
        try:
            traced, traced_s, speed = timed(tracer)
        finally:
            tracer.uninstall()
        digests = check(reps + traced)
        if workload == "heldout":
            ws, descriptor = None, heldout_descriptor(traced[0]["tokens"])
        else:
            ws = run.work / "ws"
            descriptor = run.cli_descriptor(ws)
        tracer.write(run.work / "spans.jsonl")
        layers = spans.layer_metrics(tracer, ws, speed)
        layers["trace.untraced_s"] = untraced_s
        layers["trace.traced_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.spans"] = len(tracer.spans)
        try:
            before = run.reference.reading()
            rates = micro.metrics()
            speed = reference.scale(before, run.reference.reading())
            layers.update({name: rate / speed for name, rate in rates.items()})
        except AssertionError as exc:
            run.fail(1, f"kernel micro-benchmark: {exc}")
            layers.update({n: 0.0 for n in per_layer_units() if n.startswith("kernels.micro_")})
        run.attempted += 1
        record = {
            "workload": workload,
            "seed": seed,
            "trace": 1,
            "inputs": descriptor,
            "digests": digests,
            "checked_against_recorded": run.expected is not None,
            "environment": {
                **environment(),
                "loadavg_before": load_before,
                "loadavg_after": os.getloadavg(),
            },
            "notes": run.notes,
        }
        units = per_layer_units()
        return {
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": layers[n], "unit": units[n]} for n in units},
            "record": record,
            "table": [(n, layers[n], units[n]) for n in units],
        }
    finally:
        logging.getLogger().removeHandler(handler)
        handler.close()
        run.close()


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def print_table(workload: str, table) -> None:
    print(f"== {workload}")
    for name, value, unit in table:
        print(f"  {name:<40} {value:>16.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "newstm" / "cli.py").is_file() or not FIXTURE_CORPUS.is_file():
        print(f"error: no newstm checkout around {HERE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    if args.trace:
        result = trace_run(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print_table(args.workload, result["table"])
    print(json.dumps(result["record"], sort_keys=True))
    print(f"failed_ops {result['failed']} of attempted_ops {result['attempted']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own benchmark process, so none inherits another's
    memory; prints their tables and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
        *lines, last = out.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
