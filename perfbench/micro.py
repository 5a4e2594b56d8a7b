"""Micro-benchmark of the active sweep kernels, `newstm._kernels.gibbs_sweep`
and `infer_sweep`, whichever backend is selected at import.

The Gibbs state comes from `benchmarks/bench_gibbs.py`'s `build_state`, so
this times the inputs that script times, but through the active kernel
rather than the pure-Python source, at K=2 (the acceptance suite's K) and
K=20 (the pipeline's), on a size the fallback runs in seconds. After the
sweeps it checks the count invariants: n_k sums to the token count and
n_dk / n_kw equal the counts rebuilt from z. Runs from a checkout:

    python3 perfbench/micro.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

N_TOKENS = 4_000
N_DOCS = 100
VOCAB = 1_000
SWEEPS = 2


def gibbs_tokens_per_s(k: int, seed: int = 0) -> float:
    """Tokens/s of the active Gibbs kernel; raises if the counts drift from z."""
    if str(ROOT / "benchmarks") not in sys.path:
        sys.path.insert(0, str(ROOT / "benchmarks"))
    from bench_gibbs import build_state

    from newstm import _kernels

    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = build_state(
        N_TOKENS, N_DOCS, VOCAB, k, seed
    )
    probs = np.empty(k)
    args = (doc_ids, word_ids, z, n_dk, n_kw, n_k, 50.0 / k, eta_kw, eta_sum)
    _kernels.gibbs_sweep(*args, rng.random(N_TOKENS), probs)  # absorbs JIT compilation
    started = time.process_time()
    for _ in range(SWEEPS):
        _kernels.gibbs_sweep(*args, rng.random(N_TOKENS), probs)
    elapsed = time.process_time() - started
    if int(n_k.sum()) != N_TOKENS:
        raise AssertionError(f"K={k}: n_k sums to {int(n_k.sum())}, expected {N_TOKENS}")
    if not ((z >= 0) & (z < k)).all():
        raise AssertionError(f"K={k}: topic assignment out of range")
    want_dk = np.zeros_like(n_dk)
    want_kw = np.zeros_like(n_kw)
    np.add.at(want_dk, (doc_ids, z), 1)
    np.add.at(want_kw, (z, word_ids), 1)
    if not (np.array_equal(n_dk, want_dk) and np.array_equal(n_kw, want_kw)):
        raise AssertionError(f"K={k}: n_dk/n_kw differ from the counts rebuilt from z")
    return N_TOKENS * SWEEPS / elapsed


def infer_tokens_per_s(k: int, seed: int = 0) -> float:
    """Tokens/s of the active held-out kernel; raises if m_k drifts from z."""
    from newstm import _kernels

    rng = np.random.default_rng(seed)
    beta = rng.dirichlet(np.full(VOCAB, 0.05), size=k)
    word_ids = rng.integers(0, VOCAB, N_TOKENS).astype(np.int64)
    z = rng.integers(0, k, N_TOKENS).astype(np.int64)
    m_k = np.bincount(z, minlength=k).astype(np.int64)
    probs = np.empty(k)
    _kernels.infer_sweep(word_ids, z, m_k, beta, 50.0 / k, rng.random(N_TOKENS), probs)
    started = time.process_time()
    for _ in range(SWEEPS):
        _kernels.infer_sweep(word_ids, z, m_k, beta, 50.0 / k, rng.random(N_TOKENS), probs)
    elapsed = time.process_time() - started
    if not np.array_equal(m_k, np.bincount(z, minlength=k)):
        raise AssertionError(f"K={k}: m_k differs from the counts rebuilt from z")
    return N_TOKENS * SWEEPS / elapsed


def metrics() -> dict[str, float]:
    return {
        "kernels.micro_k2_tokens_per_s": gibbs_tokens_per_s(2),
        "kernels.micro_k20_tokens_per_s": gibbs_tokens_per_s(20),
        "kernels.micro_infer_k20_tokens_per_s": infer_tokens_per_s(20),
    }


def main() -> None:
    sys.path.insert(0, str(SRC))
    from newstm import _kernels

    print(f"backend: {_kernels.BACKEND}; {N_TOKENS} tokens, {N_DOCS} docs, V={VOCAB}")
    for name, value in metrics().items():
        print(f"  {name:<40} {value:12.0f} tokens/s")


if __name__ == "__main__":
    main()
