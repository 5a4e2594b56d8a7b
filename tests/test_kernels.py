import logging
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from newstm import _kernels
from reference_kernels import (
    _gibbs_sweep_py,
    _infer_sweep_py,
    pinned_gibbs_uniforms,
    pinned_infer_uniforms,
)
from test_digests import PINNED, digests

requires_c = pytest.mark.skipif(_kernels.BACKEND != "c", reason="no compiled C kernel here")


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
    assert _kernels.BACKEND in ("c", "numpy")
    assert (_kernels.BACKEND == "c") == (_kernels.c_gibbs_chain is not None)


def _list_chain(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, uniforms):
    """A chain on a GibbsLists state, one sweep per array that `uniforms`
    yields, written back as the call returns."""
    state = _kernels.GibbsLists(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum)
    state.sweep(uniforms)


def _compiled_chain(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, uniforms):
    """The same chain on the compiled kernel, the uniforms stacked into one block."""
    rows = list(uniforms)
    block = np.stack(rows) if rows else np.empty((0, doc_ids.size))
    state = _kernels.GibbsArrays(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum)
    state.sweep(block)


# Every training chain this machine can run: the list chain, and the compiled one.
GIBBS_CHAINS = [_list_chain] + [_compiled_chain] * (_kernels.BACKEND == "c")


def _pinned_gibbs(doc_ids, word_ids, state, alpha, eta_kw, eta_sum, sweeps, rng):
    """Uniforms whose draws land on the reference's cumulative sums (see
    reference_kernels), so a kernel passes the bitwise tests only if every
    weight and sum it forms has the reference's bits."""
    uniforms, exact = pinned_gibbs_uniforms(
        doc_ids, word_ids, state, alpha, eta_kw, eta_sum, sweeps, rng
    )
    assert exact >= 0.9 * uniforms.size  # a changed weight shows only in pinned draws
    return uniforms


def _pinned_infer(word_ids, z, m_k, beta, alpha, sweeps, rng):
    """As _pinned_gibbs, for held-out sweeps. Only the draws of words with
    mass under some topic can be pinned."""
    uniforms, exact = pinned_infer_uniforms(word_ids, z, m_k, beta, alpha, sweeps, rng)
    pinnable = (beta[:, word_ids].sum(axis=0) > 0).mean() if word_ids.size else 1.0
    assert exact >= 0.9 * pinnable * uniforms.size
    return uniforms


def test_gibbs_sweep_preserves_count_invariants():
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(11)
    for _ in range(3):
        uniforms = rng.random(doc_ids.size)
        # the one-sweep call takes `probs` for the benchmark's sake and never writes it
        _kernels.gibbs_sweep(
            doc_ids, word_ids, z, n_dk, n_kw, n_k, 0.5, eta_kw, eta_sum, uniforms, None
        )
        want_dk = np.zeros_like(n_dk)
        want_kw = np.zeros_like(n_kw)
        np.add.at(want_dk, (doc_ids, z), 1)
        np.add.at(want_kw, (z, word_ids), 1)
        assert np.array_equal(n_dk, want_dk)
        assert np.array_equal(n_kw, want_kw)
        assert np.array_equal(n_k, np.bincount(z, minlength=n_k.size))


def test_pinned_uniforms_expose_a_weight_one_ulp_off(monkeypatch):
    """What the bitwise tests rest on: a list chain whose every product is
    one ulp high makes the reference's draws under random uniforms, and
    other draws under pinned ones."""
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(7, k=6)
    state = (z, n_dk, n_kw, n_k)
    pinned = _pinned_gibbs(doc_ids, word_ids, state, 0.3, eta_kw, eta_sum, 1, rng)
    monkeypatch.setattr(_kernels, "mul", lambda a, b: math.nextafter(a * b, math.inf))
    for uniforms, same in ((rng.random((1, z.size)), True), (pinned, False)):
        state_a = tuple(a.copy() for a in state)
        state_b = tuple(a.copy() for a in state)
        _list_chain(doc_ids, word_ids, *state_a, 0.3, eta_kw, eta_sum, uniforms)
        _gibbs_sweep_py(doc_ids, word_ids, *state_b, 0.3, eta_kw, eta_sum, uniforms[0], np.zeros(6))
        assert np.array_equal(state_a[0], state_b[0]) == same


@pytest.mark.parametrize("n", [400, 0])
@pytest.mark.parametrize("prior", ["symmetric", "dtm"])
@pytest.mark.parametrize("k", [2, 20])
def test_list_gibbs_kernel_matches_array_kernel(k, prior, n):
    """The list kernel is bitwise equal to the array kernel."""
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(7, n=n, k=k)
    if prior == "dtm":
        # eta + kappa * V * beta_prev at kappa = 1, as chained DTM training builds it
        eta_kw = 0.01 + 30 * rng.dirichlet(np.full(30, 0.1), size=k)
        eta_sum = eta_kw.sum(axis=1)
    state_a = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    state_b = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    pinned = _pinned_gibbs(doc_ids, word_ids, state_a, 0.3, eta_kw, eta_sum, 5, rng)
    for uniforms in pinned:
        _kernels.gibbs_sweep(doc_ids, word_ids, *state_a, 0.3, eta_kw, eta_sum, uniforms, None)
        _gibbs_sweep_py(doc_ids, word_ids, *state_b, 0.3, eta_kw, eta_sum, uniforms, np.zeros(k))
        for got, want in zip(state_a, state_b):
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
    for uniforms in _pinned_infer(word_ids, z0, m0, beta, 0.2, 5, rng):
        _kernels.infer_sweep(word_ids, za, ma, beta, 0.2, uniforms, None)
        _infer_sweep_py(word_ids, zb, mb, beta, 0.2, uniforms, np.zeros(k))
        assert np.array_equal(za, zb)
        assert np.array_equal(ma, mb)


@pytest.mark.parametrize(
    "chain",
    [
        pytest.param(_list_chain, id="_gibbs_chain_lists"),
        pytest.param(_compiled_chain, id="_gibbs_chain_c", marks=requires_c),
    ],
)
@pytest.mark.parametrize("sweeps", [1, 5])
@pytest.mark.parametrize("n", [400, 0])
@pytest.mark.parametrize("prior", ["symmetric", "dtm"])
@pytest.mark.parametrize("k", [2, 20])
def test_gibbs_chain_matches_repeated_array_sweeps(k, prior, n, sweeps, chain):
    """One chain call equals that many calls of the array kernel."""
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(7, n=n, k=k)
    if prior == "dtm":
        # eta + kappa * V * beta_prev at kappa = 1, as chained DTM training builds it
        eta_kw = 0.01 + 30 * rng.dirichlet(np.full(30, 0.1), size=k)
        eta_sum = eta_kw.sum(axis=1)
    state = (z, n_dk, n_kw, n_k)
    uniforms = _pinned_gibbs(doc_ids, word_ids, state, 0.3, eta_kw, eta_sum, sweeps, rng)
    state_a = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    state_b = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    chain(doc_ids, word_ids, *state_a, 0.3, eta_kw, eta_sum, (u for u in uniforms))
    for u in uniforms:
        _gibbs_sweep_py(doc_ids, word_ids, *state_b, 0.3, eta_kw, eta_sum, u, np.zeros(k))
    for got, want in zip(state_a, state_b):
        assert np.array_equal(got, want)
    if n:
        assert not np.array_equal(state_a[0], z)


@pytest.mark.parametrize(
    "backend",
    [
        pytest.param(_kernels.GibbsLists, id="lists"),
        pytest.param(_kernels.GibbsArrays, id="c", marks=requires_c),
    ],
)
def test_every_sweep_call_returns_with_the_arrays_written(backend):
    """Two sweep calls on one state: after each, with nothing else called,
    z and every count are bitwise the reference's."""
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(5, k=6)
    state = (z, n_dk, n_kw, n_k)
    uniforms = _pinned_gibbs(doc_ids, word_ids, state, 0.3, eta_kw, eta_sum, 3, rng)
    z0, want = z.copy(), tuple(a.copy() for a in state)
    chain = backend(doc_ids, word_ids, z, n_dk, n_kw, n_k, 0.3, eta_kw, eta_sum)
    for block in (uniforms[:1], uniforms[1:]):
        chain.sweep(block)
        for u in block:
            _gibbs_sweep_py(doc_ids, word_ids, *want, 0.3, eta_kw, eta_sum, u, np.zeros(6))
        assert not np.array_equal(want[0], z0)
        for got, expected in zip(state, want):
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("chain", [pytest.param(_kernels.infer_chain, id="_infer_chain_lists")])
@pytest.mark.parametrize("sweeps", [1, 5])
@pytest.mark.parametrize("n", [60, 0])
@pytest.mark.parametrize("k", [2, 20])
def test_infer_chain_matches_repeated_array_sweeps(k, n, sweeps, chain):
    """Equal state and per-sweep theta sums, also for zero-mass words."""
    rng = np.random.default_rng(9)
    v, alpha = 20, 0.2
    word_ids = rng.integers(0, v, n).astype(np.int64)
    beta = rng.dirichlet(np.ones(v), size=k)
    beta[:, 3] = 0.0
    word_ids[::4] = 3  # takes the uniform-draw branch of the sweep
    z0 = rng.integers(0, k, n).astype(np.int64)
    m0 = np.bincount(z0, minlength=k).astype(np.int64)
    uniforms = _pinned_infer(word_ids, z0, m0, beta, alpha, sweeps, rng)
    za, ma, acc_a = z0.copy(), m0.copy(), np.full(k, 0.5)
    zb, mb, acc_b = z0.copy(), m0.copy(), np.full(k, 0.5)
    chain(word_ids, za, ma, beta, alpha, (u for u in uniforms), acc_a)
    for u in uniforms:
        _infer_sweep_py(word_ids, zb, mb, beta, alpha, u, np.zeros(k))
        acc_b += (mb + alpha) / (n + k * alpha)
    for got, want in zip((za, ma, acc_a), (zb, mb, acc_b)):
        assert np.array_equal(got, want)


def test_gibbs_chain_on_a_sparse_vocabulary_leaves_unused_columns_alone():
    """A few tokens over a wide vocabulary, as in one DTM slice: equal to
    repeated array sweeps, and the n_kw columns of words no token uses keep
    their bytes, nonzero counts included."""
    k, v, n = 20, 5_000, 40
    rng = np.random.default_rng(21)
    doc_ids = np.sort(rng.integers(0, 4, n)).astype(np.int64)
    word_ids = rng.choice(v, 12, replace=False)[rng.integers(0, 12, n)].astype(np.int64)
    z = rng.integers(0, k, n).astype(np.int64)
    n_dk = np.zeros((4, k), np.int64)
    n_kw = np.zeros((k, v), np.int64)
    np.add.at(n_dk, (doc_ids, z), 1)
    np.add.at(n_kw, (z, word_ids), 1)
    unused = np.setdiff1d(np.arange(v), word_ids)
    n_kw[:, unused[::7]] = rng.integers(1, 5, (k, unused[::7].size))
    n_k = n_kw.sum(axis=1)
    # eta + kappa * V * beta_prev at kappa = 1, as chained DTM training builds it
    eta_kw = 0.01 + v * rng.dirichlet(np.full(v, 0.05), size=k)
    eta_sum = eta_kw.sum(axis=1)
    unused_before = n_kw[:, unused].tobytes()
    state = (z, n_dk, n_kw, n_k)
    uniforms = _pinned_gibbs(doc_ids, word_ids, state, 0.3, eta_kw, eta_sum, 4, rng)
    state_a = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    state_b = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    _list_chain(doc_ids, word_ids, *state_a, 0.3, eta_kw, eta_sum, (u for u in uniforms))
    for u in uniforms:
        _gibbs_sweep_py(doc_ids, word_ids, *state_b, 0.3, eta_kw, eta_sum, u, np.zeros(k))
    for got, want in zip(state_a, state_b):
        assert np.array_equal(got, want)
    assert state_a[2][:, unused].tobytes() == unused_before
    assert not np.array_equal(state_a[0], z)


def _counted(doc_ids, word_ids, z, n_docs, k, v):
    n_dk = np.zeros((n_docs, k), np.int64)
    n_kw = np.zeros((k, v), np.int64)
    np.add.at(n_dk, (doc_ids, z), 1)
    np.add.at(n_kw, (z, word_ids), 1)
    return z, n_dk, n_kw, n_kw.sum(axis=1)


def _gibbs_search_edge(case):
    """(doc_ids, word_ids, state, alpha, eta_kw, uniforms) on one edge of the
    topic search."""
    k, v, n, sweeps = 4, 12, 48, 3
    rng = np.random.default_rng(31)
    doc_ids = np.sort(rng.integers(0, 6, n))
    word_ids = rng.integers(0, 8, n)
    z = rng.integers(0, k, n)
    alpha, eta_kw = 0.3, np.full((k, v), 0.05)
    uniforms = [rng.random(n) for _ in range(sweeps)]
    if case == "zero_uniforms":
        uniforms = [np.zeros(n)] * sweeps
    elif case == "top_uniforms":
        uniforms = [np.full(n, np.nextafter(1.0, 0.0))] * sweeps
    elif case == "leading_zero_weights":
        # topics 0 and 1 hold no token and no prior mass on the words used, so
        # both weigh 0; a draw of exactly 0.0 lands on their equal sums
        z = rng.integers(2, k, n)
        eta_kw[:2, :8] = 0.0
        for u in uniforms:
            u[::3] = 0.0
    elif case == "tied_weights":
        # one token: with it removed every topic weighs 0.5 * 0.25 / 1.0, and
        # draws of j/4 land exactly on the cumulative sums
        doc_ids, word_ids, z = np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros(1, np.int64)
        v, alpha, eta_kw = 4, 0.5, np.full((k, 4), 0.25)
        uniforms = [rng.choice([0.0, 0.25, 0.5, 0.75], 1) for _ in range(12)]
    elif case == "subnormal_total":
        # every weight is the smallest subnormal, so u * total rounds up to
        # total and the search falls back to the last topic
        doc_ids, word_ids, z = np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros(1, np.int64)
        v, alpha, eta_kw = 1, float(np.nextafter(0.0, 1.0)), np.ones((k, 1))
        uniforms = [np.full(1, np.nextafter(1.0, 0.0))] * sweeps
    state = _counted(doc_ids, word_ids, z, doc_ids.max() + 1, k, v)
    return doc_ids, word_ids, state, alpha, eta_kw, uniforms


SEARCH_EDGES = [
    "zero_uniforms", "top_uniforms", "leading_zero_weights", "tied_weights", "subnormal_total"
]


@pytest.mark.parametrize("case", SEARCH_EDGES)
def test_gibbs_chain_matches_array_sweeps_on_search_edges(case):
    doc_ids, word_ids, state, alpha, eta_kw, uniforms = _gibbs_search_edge(case)
    eta_sum = eta_kw.sum(axis=1)
    k = eta_kw.shape[0]
    state_b = tuple(a.copy() for a in state)
    for u in uniforms:
        _gibbs_sweep_py(doc_ids, word_ids, *state_b, alpha, eta_kw, eta_sum, u, np.zeros(k))
    for chain in GIBBS_CHAINS:
        state_a = tuple(a.copy() for a in state)
        chain(doc_ids, word_ids, *state_a, alpha, eta_kw, eta_sum, iter(uniforms))
        for got, want in zip(state_a, state_b):
            assert np.array_equal(got, want), chain.__name__
        if case == "leading_zero_weights":
            assert state_a[0].min() >= 2


def _stride_zero_views(eta_kw):
    """Views that repeat each row's first value of the prior `eta_kw`: one
    with column stride 0, and, where every entry is that value, one with
    both strides 0."""
    views = [np.broadcast_to(eta_kw[:, :1], eta_kw.shape)]
    if (eta_kw == eta_kw[0, 0]).all():
        views.append(np.broadcast_to(np.float64(eta_kw[0, 0]), eta_kw.shape))
    return views


@pytest.mark.parametrize("case", [*SEARCH_EDGES, "random"])
def test_stride_zero_prior_equals_the_materialised_prior_bitwise(case):
    """A chain on a stride-0 view of the prior equals the reference on the
    materialised matrix, on every backend, so a symmetric prior needs no
    array of its own. (In `leading_zero_weights` the view differs from the
    matrix only in columns no token uses, which no weight reads.)"""
    if case == "random":
        doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(17, k=20)
        state, alpha = (z, n_dk, n_kw, n_k), 0.3
        uniforms = list(_pinned_gibbs(doc_ids, word_ids, state, alpha, eta_kw, eta_sum, 4, rng))
    else:
        doc_ids, word_ids, state, alpha, eta_kw, uniforms = _gibbs_search_edge(case)
    k, eta_sum = eta_kw.shape[0], eta_kw.sum(axis=1)
    want = tuple(a.copy() for a in state)
    for u in uniforms:
        _gibbs_sweep_py(doc_ids, word_ids, *want, alpha, eta_kw, eta_sum, u, np.zeros(k))
    views = _stride_zero_views(eta_kw)
    assert [view.strides[1] for view in views] == [0] * len(views)
    assert len(views) == 2 or case == "leading_zero_weights"
    for view in views:
        assert (view[:, word_ids] == eta_kw[:, word_ids]).all()
        for chain in GIBBS_CHAINS:
            got = tuple(a.copy() for a in state)
            chain(doc_ids, word_ids, *got, alpha, view, eta_sum, iter(uniforms))
            for array, expected in zip(got, want):
                assert np.array_equal(array, expected), (chain.__name__, view.strides)


def _infer_search_edge(case):
    """(word_ids, z, beta, alpha, uniforms) on one edge of the topic search."""
    k, v, n, sweeps = 4, 10, 24, 3
    rng = np.random.default_rng(37)
    word_ids = rng.integers(0, v, n)
    beta = rng.dirichlet(np.ones(v), size=k)
    alpha = 0.2
    uniforms = [rng.random(n) for _ in range(sweeps)]
    if case == "zero_uniforms":
        uniforms = [np.zeros(n)] * sweeps
    elif case == "top_uniforms":
        uniforms = [np.full(n, np.nextafter(1.0, 0.0))] * sweeps
    elif case == "leading_zero_weights":
        beta[:2, word_ids] = 0.0
        for u in uniforms:
            u[::3] = 0.0
    elif case == "tied_weights":
        # weights are (m_k + 0.5) * 0.25: topics with equal counts tie, and
        # every sum and every u * total is exact
        n, alpha, beta = 7, 0.5, np.full((k, v), 0.25)
        word_ids = word_ids[:n]
        uniforms = [rng.choice([0.0, 0.25, 0.5, 0.75], n) for _ in range(12)]
    elif case == "subnormal_total":
        alpha, beta = 1.0, np.full((k, v), np.nextafter(0.0, 1.0))
        uniforms = [np.full(n, np.nextafter(1.0, 0.0))] * sweeps
    return word_ids, rng.integers(0, k, n), beta, alpha, uniforms


@pytest.mark.parametrize("case", SEARCH_EDGES)
def test_infer_chain_matches_array_sweeps_on_search_edges(case):
    word_ids, z0, beta, alpha, uniforms = _infer_search_edge(case)
    k, n = beta.shape[0], word_ids.size
    m0 = np.bincount(z0, minlength=k)
    za, ma, acc_a = z0.copy(), m0.copy(), np.zeros(k)
    zb, mb, acc_b = z0.copy(), m0.copy(), np.zeros(k)
    _kernels.infer_chain(word_ids, za, ma, beta, alpha, iter(uniforms), acc_a)
    for u in uniforms:
        _infer_sweep_py(word_ids, zb, mb, beta, alpha, u, np.zeros(k))
        acc_b += (mb + alpha) / (n + k * alpha)
    for got, want in zip((za, ma, acc_a), (zb, mb, acc_b)):
        assert np.array_equal(got, want)


def test_chains_without_sweeps_change_nothing():
    """An empty uniforms iterable leaves z, the counts and acc alone."""
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(13, n=50, k=5)
    state = (z, n_dk, n_kw, n_k)
    before = [a.copy() for a in state]
    for chain in GIBBS_CHAINS:
        chain(doc_ids, word_ids, *state, 0.3, eta_kw, eta_sum, ())
        for got, want in zip(state, before):
            assert np.array_equal(got, want), chain.__name__

    beta = rng.dirichlet(np.ones(30), size=5)
    m_k = np.bincount(z, minlength=5)
    m_before, acc = m_k.copy(), np.full(5, 0.5)
    _kernels.infer_chain(word_ids, z, m_k, beta, 0.2, (), acc)
    assert np.array_equal(z, before[0]) and np.array_equal(m_k, m_before)
    assert acc.tolist() == [0.5] * 5


@requires_c
@pytest.mark.parametrize(
    "fault",
    ["float_z", "strided_n_kw", "read_only_n_dk", "doc_id", "word_id", "topic_id", "block"]
    + ["prior_negative_stride", "prior_partial_stride", "prior_float32", "prior_shape"],
)
def test_compiled_state_checks_every_array_it_passes(fault):
    """Wrong dtypes, layouts and ids raise before any address reaches C."""
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(3, n=50, k=5)
    block = rng.random((2, 50))
    if fault == "float_z":
        z = z.astype(np.float64)
    elif fault == "strided_n_kw":
        n_kw = np.asfortranarray(n_kw)
    elif fault == "read_only_n_dk":
        n_dk.flags.writeable = False
    elif fault == "doc_id":
        doc_ids[-1] = n_dk.shape[0]
    elif fault == "word_id":
        word_ids[0] = -1
    elif fault == "topic_id":
        z[7] = n_k.size
    elif fault == "prior_negative_stride":
        eta_kw = eta_kw[:, ::-1]
    elif fault == "prior_partial_stride":  # 4 bytes: half an element
        eta_kw = np.lib.stride_tricks.as_strided(eta_kw, strides=(eta_kw.strides[0], 4))
    elif fault == "prior_float32":
        eta_kw = eta_kw.astype(np.float32)
    elif fault == "prior_shape":
        eta_kw = eta_kw[:, :-1]
    else:
        block = block[:, ::2]
    with pytest.raises(ValueError):
        state = _kernels.GibbsArrays(doc_ids, word_ids, z, n_dk, n_kw, n_k, 0.3, eta_kw, eta_sum)
        state.sweep(block)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no `cc` on PATH")
def test_c_kernel_compiles_clean_under_strict_warnings(tmp_path):
    """The kernel is called through ctypes with no type checks of its own, so
    a warning in it fails here before it can change a sample."""
    strict = ("-std=c99", "-Wall", "-Wextra", "-Wpedantic", "-Wconversion", "-Werror")
    library = tmp_path / "gibbs_chain.so"
    done = subprocess.run(
        ["cc", *_kernels._FLAGS, *strict, "-o", str(library), str(_kernels._SOURCE)],
        capture_output=True,
        text=True,
        timeout=_kernels._BUILD_TIMEOUT,
    )
    assert done.returncode == 0, done.stderr


def test_hung_compiler_is_killed_and_the_list_chain_kept(tmp_path, monkeypatch, caplog):
    """A compiler that runs past _BUILD_TIMEOUT is killed, and the load logs
    one line and caches no library, only the marker of the failed build. The
    fake `cc` execs sleep, so the killed child is the sleep itself."""
    (tmp_path / "cc").write_text("#!/bin/sh\nexec sleep 6\n")
    (tmp_path / "cc").chmod(0o755)
    cache = tmp_path / "cache"
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(_kernels, "_BUILD_TIMEOUT", 0.3)
    with caplog.at_level(logging.WARNING, logger=_kernels.__name__):
        assert _kernels._load_gibbs_chain() is None
    (record,) = caplog.records
    assert "training on the list kernel" in record.getMessage()
    assert "ran past 0.3 s" in record.getMessage()
    assert [path.suffix for path in cache.glob("newstm/*")] == [".failed"]


def test_a_failed_build_is_not_retried_until_its_key_changes(tmp_path, monkeypatch, caplog):
    """A second load after a timed-out build starts no compiler: it logs the
    recorded reason and the marker to delete. A changed compiler file gives
    a new key, and so a fresh attempt."""
    runs, cc = tmp_path / "runs", tmp_path / "cc"
    cc.write_text(f"#!/bin/sh\necho run >> '{runs}'\nexec sleep 6\n")
    cc.chmod(0o755)
    cache = tmp_path / "cache"
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(_kernels, "_BUILD_TIMEOUT", 0.3)
    with caplog.at_level(logging.WARNING, logger=_kernels.__name__):
        assert _kernels._load_gibbs_chain() is None
        start = time.monotonic()
        assert _kernels._load_gibbs_chain() is None
        assert time.monotonic() - start < 0.2
    assert runs.read_text().splitlines() == ["run"]
    (marker,) = cache.glob("newstm/*.failed")
    first, second = (record.getMessage() for record in caplog.records)
    assert "ran past 0.3 s" in first
    assert "ran past 0.3 s" in second and f"delete {marker} to retry" in second

    mtime = cc.stat().st_mtime_ns + 1_000_000_000
    os.utime(cc, ns=(mtime, mtime))
    assert _kernels._load_gibbs_chain() is None
    assert runs.read_text().splitlines() == ["run", "run"]
    assert len(list(cache.glob("newstm/*.failed"))) == 2


_TRAIN = """
import hashlib
from newstm import _kernels
from newstm.lda import LdaHyperparams, train_lda
from newstm.preprocess import BowDoc, Bows

docs = [BowDoc(f"d{d}", {w: 1 + w * d % 3 for w in range(d % 5, 12, 2)}) for d in range(30)]
hyper = LdaHyperparams(k=4, iterations=30, burn_in=10, thin=5, seed=3)
model = train_lda(Bows.from_docs(docs, 12), hyper)
print(_kernels.BACKEND, hashlib.sha256(model.beta.tobytes() + model.theta.tobytes()).hexdigest())
"""


def _import_and_train(cache: Path, path: str | None = None) -> tuple[str, str, list[str]]:
    """(BACKEND, a digest of a trained model, stderr lines) of a fresh
    interpreter with `cache` as XDG_CACHE_HOME and, if given, `path` as PATH."""
    src = str(Path(_kernels.__file__).parent.parent)
    env = {**os.environ, "XDG_CACHE_HOME": str(cache), "PYTHONPATH": src}
    if path is not None:
        env["PATH"] = path
    done = subprocess.run(
        [sys.executable, "-c", _TRAIN], env=env, capture_output=True, text=True, check=True
    )
    backend, digest = done.stdout.split()
    return backend, digest, done.stderr.splitlines()


@requires_c
@pytest.mark.parametrize("case", ["no_compiler", "failing_compiler", "unwritable_cache"])
def test_import_falls_back_to_the_list_chain_with_one_line(tmp_path, case):
    _, want, _ = _import_and_train(tmp_path / "cache")
    path, cache, reason = None, tmp_path / "fresh-cache", None
    if case == "no_compiler":
        path, reason = str(tmp_path), "no `cc` on PATH"
    elif case == "failing_compiler":
        (tmp_path / "cc").write_text("#!/bin/sh\necho 'cc: error: broken' >&2\nexit 3\n")
        (tmp_path / "cc").chmod(0o755)
        path, reason = str(tmp_path), "exited 3: cc: error: broken"
    else:
        (tmp_path / "file").write_text("")
        cache, reason = tmp_path / "file" / "cache", "Not a directory"
    backend, digest, stderr = _import_and_train(cache, path)
    assert backend == "numpy" and digest == want
    assert len(stderr) == 1 and reason in stderr[0], stderr
    assert "training on the list kernel" in stderr[0]
    # only a compiler that ran and failed leaves a marker, and no case a library
    marker = [".failed"] if case == "failing_compiler" else []
    assert [path.suffix for path in cache.glob("newstm/*")] == marker


@requires_c
def test_truncated_library_in_the_cache_is_rebuilt(tmp_path):
    _, want, _ = _import_and_train(tmp_path)
    (library,) = (tmp_path / "newstm").iterdir()
    built = library.read_bytes()
    library.write_bytes(built[: len(built) // 2])  # dlopen of this can raise SIGBUS
    assert _import_and_train(tmp_path) == ("c", want, [])
    assert library.read_bytes() == built


def test_list_fallback_gives_the_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernels, "c_gibbs_chain", None)
    monkeypatch.setattr(_kernels, "BACKEND", "numpy")
    assert digests.workspace_digests(tmp_path / "ws") == PINNED["workspace"]
    assert digests.library_digests() == PINNED["library"]
