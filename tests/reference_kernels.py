"""The reference Gibbs kernels, and uniforms that pin their arithmetic.

`_gibbs_sweep_py` and `_infer_sweep_py` are one sweep over NumPy arrays,
indexed one scalar at a time: the oracles that the list kernels and the C
kernel of `newstm._kernels` must match bit for bit. Their `probs` argument
receives each token's weights in turn.

A random uniform almost never lands near a boundary between two topics, so
a kernel whose weights differ from the reference's in the last bit would
still make the same draws. `pinned_gibbs_uniforms` and
`pinned_infer_uniforms` replay the reference one token at a time and pick
each token's uniform so that `u * total` is exactly one of the reference's
own cumulative sums, or the float just below one. With such uniforms, a
kernel whose sum differs by one ulp takes a different topic, and its z and
counts differ from the reference's.
"""

import math

import numpy as np


def _gibbs_sweep_py(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, uniforms, probs):
    # One full collapsed-Gibbs sweep over all tokens; z and the count
    # matrices are updated in place. For each token the full conditional is
    #   p(k) ~ (n_dk[d,k] + alpha) * (n_kw[k,w] + eta_kw[k,w]) / (n_k[k] + eta_sum[k])
    # with the token's own contribution removed from the counts first.
    n_tokens = doc_ids.shape[0]
    n_topics = n_kw.shape[0]
    for i in range(n_tokens):
        d = doc_ids[i]
        w = word_ids[i]
        k_old = z[i]
        n_dk[d, k_old] -= 1
        n_kw[k_old, w] -= 1
        n_k[k_old] -= 1

        total = 0.0
        for k in range(n_topics):
            p = (n_dk[d, k] + alpha) * (n_kw[k, w] + eta_kw[k, w]) / (n_k[k] + eta_sum[k])
            probs[k] = p
            total += p

        # Inverse-CDF draw on the unnormalised weights; the final bucket
        # absorbs any floating-point shortfall.
        r = uniforms[i] * total
        acc = 0.0
        k_new = n_topics - 1
        for k in range(n_topics):
            acc += probs[k]
            if r < acc:
                k_new = k
                break

        z[i] = k_new
        n_dk[d, k_new] += 1
        n_kw[k_new, w] += 1
        n_k[k_new] += 1


def _infer_sweep_py(word_ids, z, m_k, beta, alpha, uniforms, probs):
    # Gibbs sweep for a single held-out document with the topic-word rows
    # frozen: p(k) ~ (m_k[k] + alpha) * beta[k, w].
    n_tokens = word_ids.shape[0]
    n_topics = m_k.shape[0]
    for i in range(n_tokens):
        w = word_ids[i]
        m_k[z[i]] -= 1

        total = 0.0
        for k in range(n_topics):
            p = (m_k[k] + alpha) * beta[k, w]
            probs[k] = p
            total += p

        if total <= 0.0:
            # Word has zero mass under every topic (possible for hand-built
            # beta); fall back to a uniform draw.
            k_new = int(uniforms[i] * n_topics)
            if k_new >= n_topics:
                k_new = n_topics - 1
        else:
            r = uniforms[i] * total
            acc = 0.0
            k_new = n_topics - 1
            for k in range(n_topics):
                acc += probs[k]
                if r < acc:
                    k_new = k
                    break

        z[i] = k_new
        m_k[k_new] += 1


def _pinned(weights, u):
    """(u', True) with `u' * total` on the edge of the bucket that `u` draws
    from: the cumulative sum below it, or the float just below the one above
    it, whichever is nearer to `u * total`. The sums are taken as the
    reference takes them. (u, False) when the weights sum to 0, or when no
    uniform in [0, 1) gives either edge."""
    sums, total = [], 0.0
    for p in weights:
        total += float(p)
        sums.append(total)
    if not total > 0.0:
        return u, False
    r = u * total
    k = next((k for k, s in enumerate(sums) if r < s), len(sums) - 1)
    edges = [math.nextafter(sums[k], 0.0)]
    if k > 0:  # below topic 0 the edge is 0.0, which no weight moves
        edges = sorted((sums[k - 1], edges[0]), key=lambda edge: abs(edge - r))
    for edge in edges:
        guess = edge / total
        for v in (guess, math.nextafter(guess, 0.0), math.nextafter(guess, 1.0)):
            if 0.0 <= v < 1.0 and v * total == edge:
                return v, True
    return u, False


def pinned_gibbs_uniforms(doc_ids, word_ids, state, alpha, eta_kw, eta_sum, sweeps, rng):
    """(uniforms, exact): a (sweeps, n) block of uniforms for training
    sweeps from `state` = (z, n_dk, n_kw, n_k), which is left as it is, and
    the number of draws that landed on an edge.

    Each token's weights come from `_gibbs_sweep_py` run on that one token,
    on a copy of the counts it reads; the token is then sampled for real
    with the pinned uniform, so the next token sees the reference's state.
    """
    z, n_dk, n_kw, n_k = (a.copy() for a in state)
    n = z.size
    uniforms, exact = np.empty((sweeps, n)), 0
    one, zero, weights = np.zeros(1, np.int64), np.zeros(1), np.empty(n_k.size)
    for row in uniforms:
        for i, u in enumerate(rng.random(n)):
            d, w = doc_ids[i], word_ids[i]
            _gibbs_sweep_py(
                one, one, z[i:i + 1].copy(), n_dk[d:d + 1].copy(), n_kw[:, w:w + 1].copy(),
                n_k.copy(), alpha, eta_kw[:, w:w + 1], eta_sum, zero, weights,
            )
            row[i], hit = _pinned(weights, u)
            exact += hit
            _gibbs_sweep_py(
                doc_ids[i:i + 1], word_ids[i:i + 1], z[i:i + 1], n_dk, n_kw, n_k,
                alpha, eta_kw, eta_sum, row[i:i + 1], weights,
            )
    return uniforms, exact


def pinned_infer_uniforms(word_ids, z, m_k, beta, alpha, sweeps, rng):
    """(uniforms, exact) as pinned_gibbs_uniforms, for held-out sweeps of
    `_infer_sweep_py` from z and m_k, which are left as they are. A word
    with no mass under any topic takes the random uniform."""
    z, m_k = z.copy(), m_k.copy()
    n = z.size
    uniforms, exact = np.empty((sweeps, n)), 0
    one, zero, weights = np.zeros(1, np.int64), np.zeros(1), np.empty(m_k.size)
    for row in uniforms:
        for i, u in enumerate(rng.random(n)):
            w = word_ids[i]
            _infer_sweep_py(
                one, z[i:i + 1].copy(), m_k.copy(), beta[:, w:w + 1], alpha, zero, weights
            )
            row[i], hit = _pinned(weights, u)
            exact += hit
            _infer_sweep_py(word_ids[i:i + 1], z[i:i + 1], m_k, beta, alpha, row[i:i + 1], weights)
    return uniforms, exact
