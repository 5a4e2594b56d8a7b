"""Random collapsed-Gibbs sampler state for kernel benchmarks.

`perfbench/micro.py` times the kernels on the state `build_state` builds:

    python3 perfbench/micro.py
"""

import numpy as np


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
