"""What the benchmark in `perfbench/` looks up in the program.

`perfbench/run.py --trace 1` wraps names through `spans._targets()`, runs
`micro.metrics()` on `benchmarks/bench_gibbs.build_state`, builds the
held-out model through `heldout_job.build_inputs` and records
`_kernels.BACKEND`. A rename of any of these fails here, in the test suite,
before it fails a benchmark run. So does a held-out job that becomes too
short for the reference loop that `--trace 1` times beside it.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import gen  # noqa: E402
import heldout_job  # noqa: E402
import micro  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from newstm import _kernels  # noqa: E402


def test_every_traced_name_resolves():
    targets = spans._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is missing"


def test_micro_benchmark_runs():
    rates = micro.metrics()
    assert set(rates) == {
        "kernels.micro_k2_tokens_per_s",
        "kernels.micro_k20_tokens_per_s",
        "kernels.micro_infer_k20_tokens_per_s",
    }
    assert all(rate > 0 for rate in rates.values())


def test_heldout_inputs_build():
    model, bows = heldout_job.build_inputs(0)
    assert model.beta.shape == (gen.HELDOUT_K, gen.HELDOUT_V)
    assert np.allclose(model.beta.sum(axis=1), 1.0)
    assert bows and all(bow.counts for bow in bows)


def test_environment_reports_the_backend():
    assert run.environment()["backend"] == _kernels.BACKEND


def test_heldout_trace_run_is_correct():
    argv = [sys.executable, str(PERFBENCH / "run.py"), "--workload", "heldout"]
    proc = subprocess.run(
        [*argv, "--seed", "0", "--trace", "1"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
