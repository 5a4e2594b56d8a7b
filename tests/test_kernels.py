import os
import subprocess
import sys

import numpy as np
import pytest

from newstm import _kernels


def _random_state(seed, n=400, n_docs=12, vocab_size=30, k=6):
    rng = np.random.default_rng(seed)
    doc_ids = np.sort(rng.integers(0, n_docs, n)).astype(np.int64)
    word_ids = rng.integers(0, vocab_size, n).astype(np.int64)
    z = rng.integers(0, k, n).astype(np.int64)
    n_dk = np.zeros((n_docs, k), np.int64)
    n_kw = np.zeros((k, vocab_size), np.int64)
    n_k = np.zeros(k, np.int64)
    np.add.at(n_dk, (doc_ids, z), 1)
    np.add.at(n_kw, (z, word_ids), 1)
    np.add.at(n_k, z, 1)
    eta_kw = np.full((k, vocab_size), 0.01)
    return doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_kw.sum(axis=1), rng


def test_backend_reported():
    assert _kernels.BACKEND in ("numba", "numpy")


def test_gibbs_backends_bitwise_identical():
    numba = pytest.importorskip("numba")
    jit_sweep = numba.njit(_kernels._gibbs_sweep_py)
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(3)
    state_a = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    state_b = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    probs = np.empty(n_kw.shape[0])
    for _ in range(5):
        uniforms = rng.random(doc_ids.size)
        jit_sweep(doc_ids, word_ids, *state_a, 0.3, eta_kw, eta_sum, uniforms, probs)
        _kernels._gibbs_sweep_py(
            doc_ids, word_ids, *state_b, 0.3, eta_kw, eta_sum, uniforms, probs
        )
    for got, want in zip(state_a, state_b):
        assert np.array_equal(got, want)


def test_gibbs_sweep_preserves_count_invariants():
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(11)
    probs = np.empty(n_kw.shape[0])
    for _ in range(3):
        uniforms = rng.random(doc_ids.size)
        _kernels.gibbs_sweep(
            doc_ids, word_ids, z, n_dk, n_kw, n_k, 0.5, eta_kw, eta_sum, uniforms, probs
        )
        want_dk = np.zeros_like(n_dk)
        want_kw = np.zeros_like(n_kw)
        np.add.at(want_dk, (doc_ids, z), 1)
        np.add.at(want_kw, (z, word_ids), 1)
        assert np.array_equal(n_dk, want_dk)
        assert np.array_equal(n_kw, want_kw)
        assert np.array_equal(n_k, np.bincount(z, minlength=n_k.size))


def test_infer_backends_bitwise_identical():
    numba = pytest.importorskip("numba")
    jit_infer = numba.njit(_kernels._infer_sweep_py)
    rng = np.random.default_rng(5)
    k, v, n = 4, 20, 60
    word_ids = rng.integers(0, v, n).astype(np.int64)
    beta = rng.dirichlet(np.ones(v), size=k)
    z0 = rng.integers(0, k, n).astype(np.int64)
    m0 = np.bincount(z0, minlength=k).astype(np.int64)
    za, ma = z0.copy(), m0.copy()
    zb, mb = z0.copy(), m0.copy()
    probs = np.empty(k)
    for _ in range(5):
        uniforms = rng.random(n)
        jit_infer(word_ids, za, ma, beta, 0.2, uniforms, probs)
        _kernels._infer_sweep_py(word_ids, zb, mb, beta, 0.2, uniforms, probs)
    assert np.array_equal(za, zb)
    assert np.array_equal(ma, mb)


@pytest.mark.parametrize("n", [400, 0])
@pytest.mark.parametrize("prior", ["symmetric", "dtm"])
@pytest.mark.parametrize("k", [2, 20])
def test_list_gibbs_kernel_matches_array_kernel(k, prior, n):
    """The no-numba fallback is bitwise equal to the uncompiled array kernel."""
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(7, n=n, k=k)
    if prior == "dtm":
        # eta + kappa * V * beta_prev at kappa = 1, as chained DTM training builds it
        eta_kw = 0.01 + 30 * rng.dirichlet(np.full(30, 0.1), size=k)
        eta_sum = eta_kw.sum(axis=1)
    state_a = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    state_b = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    probs_a, probs_b = np.zeros(k), np.zeros(k)
    for _ in range(5):
        uniforms = rng.random(n)
        _kernels._gibbs_sweep_lists(
            doc_ids, word_ids, *state_a, 0.3, eta_kw, eta_sum, uniforms, probs_a
        )
        _kernels._gibbs_sweep_py(
            doc_ids, word_ids, *state_b, 0.3, eta_kw, eta_sum, uniforms, probs_b
        )
        # probs holds the last token's weights, so it shows a changed float op
        for got, want in zip((*state_a, probs_a), (*state_b, probs_b)):
            assert np.array_equal(got, want)
    if n:
        assert not np.array_equal(state_a[0], z)


@pytest.mark.parametrize("n", [60, 0])
@pytest.mark.parametrize("k", [2, 20])
def test_list_infer_kernel_matches_array_kernel(k, n):
    """Equal on every sweep, including words with zero mass under every topic."""
    rng = np.random.default_rng(9)
    v = 20
    word_ids = rng.integers(0, v, n).astype(np.int64)
    beta = rng.dirichlet(np.ones(v), size=k)
    beta[:, 3] = 0.0
    word_ids[::4] = 3  # takes the uniform-draw branch of the sweep
    z0 = rng.integers(0, k, n).astype(np.int64)
    m0 = np.bincount(z0, minlength=k).astype(np.int64)
    za, ma = z0.copy(), m0.copy()
    zb, mb = z0.copy(), m0.copy()
    probs_a, probs_b = np.zeros(k), np.zeros(k)
    for _ in range(5):
        uniforms = rng.random(n)
        _kernels._infer_sweep_lists(word_ids, za, ma, beta, 0.2, uniforms, probs_a)
        _kernels._infer_sweep_py(word_ids, zb, mb, beta, 0.2, uniforms, probs_b)
        assert np.array_equal(za, zb)
        assert np.array_equal(ma, mb)
        assert np.array_equal(probs_a, probs_b)


@pytest.mark.parametrize("chain", ["_gibbs_chain_lists", "_gibbs_chain_loop"])
@pytest.mark.parametrize("sweeps", [1, 5])
@pytest.mark.parametrize("n", [400, 0])
@pytest.mark.parametrize("prior", ["symmetric", "dtm"])
@pytest.mark.parametrize("k", [2, 20])
def test_gibbs_chain_matches_repeated_array_sweeps(monkeypatch, k, prior, n, sweeps, chain):
    """One chain call equals that many calls of the uncompiled array kernel.

    The loop chain (the numba backend's) runs here over the uncompiled kernel.
    """
    monkeypatch.setattr(_kernels, "gibbs_sweep", _kernels._gibbs_sweep_py)
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(7, n=n, k=k)
    if prior == "dtm":
        # eta + kappa * V * beta_prev at kappa = 1, as chained DTM training builds it
        eta_kw = 0.01 + 30 * rng.dirichlet(np.full(30, 0.1), size=k)
        eta_sum = eta_kw.sum(axis=1)
    uniforms = [rng.random(n) for _ in range(sweeps)]
    state_a = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    state_b = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    probs_a, probs_b = np.zeros(k), np.zeros(k)
    getattr(_kernels, chain)(
        doc_ids, word_ids, *state_a, 0.3, eta_kw, eta_sum, (u for u in uniforms), probs_a
    )
    for u in uniforms:
        _kernels._gibbs_sweep_py(doc_ids, word_ids, *state_b, 0.3, eta_kw, eta_sum, u, probs_b)
    for got, want in zip((*state_a, probs_a), (*state_b, probs_b)):
        assert np.array_equal(got, want)
    if n:
        assert not np.array_equal(state_a[0], z)


@pytest.mark.parametrize("chain", ["_infer_chain_lists", "_infer_chain_loop"])
@pytest.mark.parametrize("sweeps", [1, 5])
@pytest.mark.parametrize("n", [60, 0])
@pytest.mark.parametrize("k", [2, 20])
def test_infer_chain_matches_repeated_array_sweeps(monkeypatch, k, n, sweeps, chain):
    """Equal state, probs and per-sweep theta sums, also for zero-mass words."""
    monkeypatch.setattr(_kernels, "infer_sweep", _kernels._infer_sweep_py)
    rng = np.random.default_rng(9)
    v, alpha = 20, 0.2
    word_ids = rng.integers(0, v, n).astype(np.int64)
    beta = rng.dirichlet(np.ones(v), size=k)
    beta[:, 3] = 0.0
    word_ids[::4] = 3  # takes the uniform-draw branch of the sweep
    z0 = rng.integers(0, k, n).astype(np.int64)
    m0 = np.bincount(z0, minlength=k).astype(np.int64)
    uniforms = [rng.random(n) for _ in range(sweeps)]
    za, ma, probs_a, acc_a = z0.copy(), m0.copy(), np.zeros(k), np.full(k, 0.5)
    zb, mb, probs_b, acc_b = z0.copy(), m0.copy(), np.zeros(k), np.full(k, 0.5)
    getattr(_kernels, chain)(
        word_ids, za, ma, beta, alpha, (u for u in uniforms), probs_a, acc_a
    )
    for u in uniforms:
        _kernels._infer_sweep_py(word_ids, zb, mb, beta, alpha, u, probs_b)
        acc_b += (mb + alpha) / (n + k * alpha)
    for got, want in zip((za, ma, probs_a, acc_a), (zb, mb, probs_b, acc_b)):
        assert np.array_equal(got, want)


def test_env_flag_forces_numpy_backend():
    code = "import newstm._kernels as k; print(k.BACKEND)"
    env = dict(os.environ, NEWSTM_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "numpy"
