"""Gibbs-sampling inner loops.

`_gibbs_sweep_py` and `_infer_sweep_py` are the reference kernels, written
over NumPy arrays so that numba's @njit can compile them. The entry points
callers use are `gibbs_chain` and `infer_chain`: the same state as one
sweep, but in place of one uniform array an iterable that yields one per
sweep, so a run of sweeps is one call. With numba they loop over the
compiled sweep. Without it, the uncompiled array kernels would index the
arrays one scalar at a time, so the fallback is `_gibbs_chain_lists` and
`_infer_chain_lists`: the same floating-point operations in the same order,
on Python lists converted once per call, not once per sweep, and written
back before returning. `gibbs_sweep` and `infer_sweep` are one-sweep calls of
the active backend. Both backends produce bitwise-identical results. Set
NEWSTM_NO_NUMBA=1 to force the fallback; `BACKEND` reports which path is
active ("numba" or "numpy").
"""

import os
from itertools import accumulate
from operator import add, mul, truediv


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


def _gibbs_chain_lists(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, uniforms, probs):
    # Repeated _gibbs_sweep_py, one sweep per array that `uniforms` yields, on
    # Python lists converted on entry and written back once on return. Each
    # factor of the conditional is kept as a float term (count + prior),
    # refreshed from the integer count whenever that count changes, so every
    # weight is the same float product and quotient as in _gibbs_sweep_py.
    # The running sums of the weights equal both its `total` and its `acc`
    # sequences.
    if doc_ids.shape[0] == 0:
        return  # nothing to write back, no weights for probs, and n_dk may have no rows
    last = n_kw.shape[0] - 1
    tokens = list(zip(doc_ids.tolist(), word_ids.tolist()))
    zs = z.tolist()
    doc_counts = n_dk.tolist()
    word_counts = n_kw.T.tolist()
    topic_counts = n_k.tolist()
    word_eta = eta_kw.T.tolist()
    topic_eta = eta_sum.tolist()
    doc_terms = [[c + alpha for c in row] for row in doc_counts]
    word_terms = [list(map(add, c, e)) for c, e in zip(word_counts, word_eta)]
    topic_terms = list(map(add, topic_counts, topic_eta))
    weights = None
    for sweep_uniforms in uniforms:
        for i, ((d, w), u) in enumerate(zip(tokens, sweep_uniforms.tolist())):
            dc, wc, dt, wt, we = doc_counts[d], word_counts[w], doc_terms[d], word_terms[w], word_eta[w]
            k = zs[i]
            dc[k] -= 1
            wc[k] -= 1
            topic_counts[k] -= 1
            dt[k] = dc[k] + alpha
            wt[k] = wc[k] + we[k]
            topic_terms[k] = topic_counts[k] + topic_eta[k]

            weights = list(map(truediv, map(mul, dt, wt), topic_terms))
            cum = list(accumulate(weights))
            r = u * cum[-1]
            k = last
            for j, acc in enumerate(cum):
                if r < acc:
                    k = j
                    break

            zs[i] = k
            dc[k] += 1
            wc[k] += 1
            topic_counts[k] += 1
            dt[k] = dc[k] + alpha
            wt[k] = wc[k] + we[k]
            topic_terms[k] = topic_counts[k] + topic_eta[k]
    z[:] = zs
    n_dk[:] = doc_counts
    n_kw.T[:] = word_counts
    n_k[:] = topic_counts
    if weights is not None:
        probs[:] = weights


def _infer_chain_lists(word_ids, z, m_k, beta, alpha, uniforms, probs, acc=None):
    # Repeated _infer_sweep_py on Python lists, as _gibbs_chain_lists. Only the
    # beta columns of the document's own words are converted, once per call.
    # After each sweep, acc (if given) gains (m_k + alpha) / (n + K*alpha).
    n_topics = m_k.shape[0]
    denom = word_ids.shape[0] + n_topics * alpha
    zs = z.tolist()
    counts = m_k.tolist()
    terms = [c + alpha for c in counts]
    columns = beta.T[word_ids].tolist()
    sums = None if acc is None else acc.tolist()
    weights = None
    for sweep_uniforms in uniforms:
        for i, (column, u) in enumerate(zip(columns, sweep_uniforms.tolist())):
            k = zs[i]
            counts[k] -= 1
            terms[k] = counts[k] + alpha

            weights = list(map(mul, terms, column))
            cum = list(accumulate(weights))
            total = cum[-1]
            if total <= 0.0:
                k = min(int(u * n_topics), n_topics - 1)
            else:
                r = u * total
                k = n_topics - 1
                for j, c in enumerate(cum):
                    if r < c:
                        k = j
                        break

            zs[i] = k
            counts[k] += 1
            terms[k] = counts[k] + alpha
        if sums is not None:
            sums = [s + t / denom for s, t in zip(sums, terms)]
    z[:] = zs
    m_k[:] = counts
    if weights is not None:
        probs[:] = weights
    if sums is not None:
        acc[:] = sums


def _gibbs_sweep_lists(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, uniforms, probs):
    _gibbs_chain_lists(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, (uniforms,), probs)


def _infer_sweep_lists(word_ids, z, m_k, beta, alpha, uniforms, probs):
    _infer_chain_lists(word_ids, z, m_k, beta, alpha, (uniforms,), probs)


def _gibbs_chain_loop(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, uniforms, probs):
    # gibbs_chain on the numba backend: the compiled sweep once per uniform array.
    for sweep_uniforms in uniforms:
        gibbs_sweep(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, sweep_uniforms, probs)


def _infer_chain_loop(word_ids, z, m_k, beta, alpha, uniforms, probs, acc=None):
    # infer_chain on the numba backend, with the accumulation of _infer_chain_lists.
    denom = word_ids.shape[0] + m_k.shape[0] * alpha
    for sweep_uniforms in uniforms:
        infer_sweep(word_ids, z, m_k, beta, alpha, sweep_uniforms, probs)
        if acc is not None:
            acc += (m_k + alpha) / denom


def _numba_enabled() -> bool:
    return os.environ.get("NEWSTM_NO_NUMBA", "").strip().lower() not in {"1", "true", "yes", "on"}


BACKEND = "numpy"
gibbs_sweep = _gibbs_sweep_lists
infer_sweep = _infer_sweep_lists
gibbs_chain = _gibbs_chain_lists
infer_chain = _infer_chain_lists

if _numba_enabled():
    try:
        import numba
    except ImportError:
        pass
    else:
        gibbs_sweep = numba.njit(cache=True)(_gibbs_sweep_py)
        infer_sweep = numba.njit(cache=True)(_infer_sweep_py)
        gibbs_chain = _gibbs_chain_loop
        infer_chain = _infer_chain_loop
        BACKEND = "numba"
