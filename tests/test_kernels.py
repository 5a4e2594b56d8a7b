import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from newstm import _kernels
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


def _compiled_chain(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, uniforms, probs):
    """gibbs_chain's call on the compiled kernel, the uniforms stacked into one block."""
    rows = list(uniforms)
    block = np.stack(rows) if rows else np.empty((0, doc_ids.size))
    state = _kernels.GibbsArrays(
        doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, probs
    )
    state.sweep(block)


# Every training chain this machine can run: the list chain, and the compiled one.
GIBBS_CHAINS = [_kernels.gibbs_chain] + [_compiled_chain] * (_kernels.BACKEND == "c")


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
    probs_a, probs_b = np.zeros(k), np.zeros(k)
    for _ in range(5):
        uniforms = rng.random(n)
        _kernels.gibbs_sweep(
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
        _kernels.infer_sweep(word_ids, za, ma, beta, 0.2, uniforms, probs_a)
        _kernels._infer_sweep_py(word_ids, zb, mb, beta, 0.2, uniforms, probs_b)
        assert np.array_equal(za, zb)
        assert np.array_equal(ma, mb)
        assert np.array_equal(probs_a, probs_b)


@pytest.mark.parametrize(
    "chain",
    [
        pytest.param(_kernels.gibbs_chain, id="_gibbs_chain_lists"),
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
    uniforms = [rng.random(n) for _ in range(sweeps)]
    state_a = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    state_b = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    probs_a, probs_b = np.zeros(k), np.zeros(k)
    chain(
        doc_ids, word_ids, *state_a, 0.3, eta_kw, eta_sum, (u for u in uniforms), probs_a
    )
    for u in uniforms:
        _kernels._gibbs_sweep_py(doc_ids, word_ids, *state_b, 0.3, eta_kw, eta_sum, u, probs_b)
    for got, want in zip((*state_a, probs_a), (*state_b, probs_b)):
        assert np.array_equal(got, want)
    if n:
        assert not np.array_equal(state_a[0], z)


@pytest.mark.parametrize("chain", [pytest.param(_kernels.infer_chain, id="_infer_chain_lists")])
@pytest.mark.parametrize("sweeps", [1, 5])
@pytest.mark.parametrize("n", [60, 0])
@pytest.mark.parametrize("k", [2, 20])
def test_infer_chain_matches_repeated_array_sweeps(k, n, sweeps, chain):
    """Equal state, probs and per-sweep theta sums, also for zero-mass words."""
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
    chain(
        word_ids, za, ma, beta, alpha, (u for u in uniforms), probs_a, acc_a
    )
    for u in uniforms:
        _kernels._infer_sweep_py(word_ids, zb, mb, beta, alpha, u, probs_b)
        acc_b += (mb + alpha) / (n + k * alpha)
    for got, want in zip((za, ma, probs_a, acc_a), (zb, mb, probs_b, acc_b)):
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
    uniforms = [rng.random(n) for _ in range(4)]
    state_a = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    state_b = (z.copy(), n_dk.copy(), n_kw.copy(), n_k.copy())
    probs_a, probs_b = np.zeros(k), np.zeros(k)
    _kernels.gibbs_chain(
        doc_ids, word_ids, *state_a, 0.3, eta_kw, eta_sum, (u for u in uniforms), probs_a
    )
    for u in uniforms:
        _kernels._gibbs_sweep_py(doc_ids, word_ids, *state_b, 0.3, eta_kw, eta_sum, u, probs_b)
    for got, want in zip((*state_a, probs_a), (*state_b, probs_b)):
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
    probs_b = np.zeros(k)
    for u in uniforms:
        _kernels._gibbs_sweep_py(doc_ids, word_ids, *state_b, alpha, eta_kw, eta_sum, u, probs_b)
    for chain in GIBBS_CHAINS:
        state_a = tuple(a.copy() for a in state)
        probs_a = np.zeros(k)
        chain(doc_ids, word_ids, *state_a, alpha, eta_kw, eta_sum, iter(uniforms), probs_a)
        for got, want in zip((*state_a, probs_a), (*state_b, probs_b)):
            assert np.array_equal(got, want), chain.__name__
        if case == "leading_zero_weights":
            assert probs_a[:2].tolist() == [0.0, 0.0] and state_a[0].min() >= 2


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
    za, ma, probs_a, acc_a = z0.copy(), m0.copy(), np.zeros(k), np.zeros(k)
    zb, mb, probs_b, acc_b = z0.copy(), m0.copy(), np.zeros(k), np.zeros(k)
    _kernels.infer_chain(word_ids, za, ma, beta, alpha, iter(uniforms), probs_a, acc_a)
    for u in uniforms:
        _kernels._infer_sweep_py(word_ids, zb, mb, beta, alpha, u, probs_b)
        acc_b += (mb + alpha) / (n + k * alpha)
    for got, want in zip((za, ma, probs_a, acc_a), (zb, mb, probs_b, acc_b)):
        assert np.array_equal(got, want)


def test_chains_without_sweeps_change_nothing():
    """An empty uniforms iterable leaves z, the counts, probs and acc alone."""
    doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, rng = _random_state(13, n=50, k=5)
    state = (z, n_dk, n_kw, n_k)
    before = [a.copy() for a in state]
    probs = np.full(5, 7.0)
    for chain in GIBBS_CHAINS:
        chain(doc_ids, word_ids, *state, 0.3, eta_kw, eta_sum, (), probs)
        for got, want in zip(state, before):
            assert np.array_equal(got, want), chain.__name__
        assert probs.tolist() == [7.0] * 5

    beta = rng.dirichlet(np.ones(30), size=5)
    m_k = np.bincount(z, minlength=5)
    m_before, acc = m_k.copy(), np.full(5, 0.5)
    _kernels.infer_chain(word_ids, z, m_k, beta, 0.2, (), probs, acc)
    assert np.array_equal(z, before[0]) and np.array_equal(m_k, m_before)
    assert probs.tolist() == [7.0] * 5 and acc.tolist() == [0.5] * 5


@requires_c
@pytest.mark.parametrize(
    "fault", ["float_z", "strided_n_kw", "read_only_n_dk", "doc_id", "word_id", "topic_id", "block"]
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
    else:
        block = block[:, ::2]
    with pytest.raises(ValueError):
        state = _kernels.GibbsArrays(doc_ids, word_ids, z, n_dk, n_kw, n_k, 0.3, eta_kw, eta_sum)
        state.sweep(block)


_TRAIN = """
import hashlib
from newstm import _kernels
from newstm.lda import LdaHyperparams, train_lda
from newstm.preprocess import BowDoc

bows = [BowDoc(f"d{d}", {w: 1 + w * d % 3 for w in range(d % 5, 12, 2)}) for d in range(30)]
model = train_lda(bows, 12, LdaHyperparams(k=4, iterations=30, burn_in=10, thin=5, seed=3))
arrays = (model.beta, model.theta, *model.assignments)
print(_kernels.BACKEND, hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())
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
    assert not list(cache.glob("newstm/*"))


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
