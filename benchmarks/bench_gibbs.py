#!/usr/bin/env python3
"""Benchmark the collapsed-Gibbs chain kernel: numba backend vs numpy fallback.

Each row runs its sweeps as one chain call, as training does between
retained sweeps. The "numpy" row times `_gibbs_chain_lists`, the kernel
newstm runs when numba is absent or NEWSTM_NO_NUMBA=1; the "numba" row
times `gibbs_chain` when the numba backend is active. Both
run on identical inputs and give bitwise-equal outputs (see
newstm._kernels); only throughput differs. Numbers are printed as
tokens/second per full sweep, after a warmup that absorbs JIT compilation.
Runs from a checkout:

    python3 benchmarks/bench_gibbs.py
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


def build_state(n_tokens: int, n_docs: int, vocab_size: int, k: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    doc_ids = np.sort(rng.integers(0, n_docs, n_tokens)).astype(np.int64)
    word_ids = rng.integers(0, vocab_size, n_tokens).astype(np.int64)
    z = rng.integers(0, k, n_tokens).astype(np.int64)
    n_dk = np.zeros((n_docs, k), np.int64)
    n_kw = np.zeros((k, vocab_size), np.int64)
    n_k = np.zeros(k, np.int64)
    np.add.at(n_dk, (doc_ids, z), 1)
    np.add.at(n_kw, (z, word_ids), 1)
    np.add.at(n_k, z, 1)
    eta_kw = np.full((k, vocab_size), 0.01)
    return doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_kw.sum(axis=1), rng


def run_backend(name, chain_fn, n_tokens, n_docs, vocab_size, k, n_sweeps, n_warmup):
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = build_state(
        n_tokens, n_docs, vocab_size, k
    )
    probs = np.empty(k)
    state = (doc_ids, word_ids, z, n_dk, n_kw, n_k, 0.5, eta_kw, eta_sum)
    if n_warmup:
        chain_fn(*state, (rng.random(n_tokens) for _ in range(n_warmup)), probs)
    started = time.perf_counter()
    chain_fn(*state, (rng.random(n_tokens) for _ in range(n_sweeps)), probs)
    elapsed = time.perf_counter() - started
    rate = n_tokens * n_sweeps / elapsed
    print(
        f"  {name:<6} {elapsed:8.3f} s for {n_sweeps} sweeps "
        f"({elapsed / n_sweeps * 1000:8.2f} ms/sweep, {rate / 1e6:7.2f} M tokens/s)"
    )
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tokens", type=int, default=200_000)
    parser.add_argument("--docs", type=int, default=2_000)
    parser.add_argument("--vocab", type=int, default=5_000)
    parser.add_argument("--topics", type=int, default=20)
    parser.add_argument("--sweeps", type=int, default=20)
    parser.add_argument("--numpy-sweeps", type=int, default=2, help="the fallback is slower")
    args = parser.parse_args()

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from newstm import _kernels

    print(
        f"corpus: {args.tokens} tokens, {args.docs} docs, "
        f"V={args.vocab}, K={args.topics}"
    )

    numpy_time = run_backend(
        "numpy",
        _kernels._gibbs_chain_lists,
        args.tokens,
        args.docs,
        args.vocab,
        args.topics,
        args.numpy_sweeps,
        n_warmup=0,
    )
    if _kernels.BACKEND != "numba":
        print("  numba  not installed or NEWSTM_NO_NUMBA=1; fallback only")
        return
    numba_time = run_backend(
        "numba",
        _kernels.gibbs_chain,
        args.tokens,
        args.docs,
        args.vocab,
        args.topics,
        args.sweeps,
        n_warmup=1,
    )
    speedup = (numpy_time / args.numpy_sweeps) / (numba_time / args.sweeps)
    print(f"  speedup: numba is {speedup:.0f}x faster per sweep")


if __name__ == "__main__":
    main()
