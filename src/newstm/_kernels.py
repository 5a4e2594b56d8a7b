"""Gibbs-sampling inner loops.

`_gibbs_sweep_py` and `_infer_sweep_py` are the reference kernels: one sweep
over NumPy arrays, indexed one scalar at a time, which tests compare the
kernels below against. They do the same floating-point operations in the
same order, on Python lists converted once, not once per sweep, or in C.

A training chain's state is a `GibbsArrays` when the C `gibbs_chain` of
`_kernels.c` is compiled and loaded, else a `GibbsLists`; `lda` builds one
per chain and passes it blocks of uniforms, one row per sweep. The C file
is compiled on first import with the system `cc` into the user's cache
directory (`$XDG_CACHE_HOME/newstm`, else `~/.cache/newstm`), under a name
that hashes the source, the flags and the compiler's file, so later imports
start no process. Without a compiler, or if the build or load fails, the
import logs one line and the list kernels run; `BACKEND` says which.

`gibbs_chain` and `infer_chain` take the state as arrays and, in place of
one uniform array, an iterable that yields one per sweep, so a run of
sweeps is one call that converts on entry and writes back before
returning. `gibbs_sweep` and `infer_sweep` are one-sweep calls of the
chains. Held-out inference stays on lists.
"""

import ctypes
import hashlib
import logging
import os
import shutil
import tempfile
from bisect import bisect_right
from itertools import accumulate, repeat
from operator import add, mul, truediv
from pathlib import Path

import numpy as np

from newstm.modelfile import replacing

logger = logging.getLogger(__name__)


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


class GibbsLists:
    """A Gibbs chain's state as Python lists, for any number of `sweep` calls.

    The lists are converted once, on construction, and hold only the word
    columns of `n_kw` and `eta_kw` that some token uses, so set-up follows
    the tokens, not K x V. `store_z` and `store_counts` copy the lists back
    into the arrays the state was built from; the columns of words no token
    uses are never read or written.
    """

    def __init__(self, doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum):
        present, local_ids = np.unique(word_ids, return_inverse=True)
        self.arrays = z, n_dk, n_kw, n_k
        self.present = present
        self.alpha = alpha
        self.tokens = list(zip(doc_ids.tolist(), local_ids.tolist()))
        self.zs = z.tolist()
        word_counts, word_eta = n_kw.T[present], eta_kw.T[present]
        self.doc_counts = n_dk.tolist()
        self.word_counts = word_counts.tolist()
        self.topic_counts = n_k.tolist()
        self.word_eta = word_eta.tolist()
        self.topic_eta = eta_sum.tolist()
        # count + prior in float64, the same one rounding as Python's int + float
        self.doc_terms = (n_dk + alpha).tolist()
        self.word_terms = (word_counts + word_eta).tolist()
        self.topic_terms = (n_k + eta_sum).tolist()
        self.last = -1  # index of the last token sampled, -1 before any

    def sweep(self, uniforms):
        """Repeated _gibbs_sweep_py, one sweep per array that `uniforms` yields.

        Each factor of the conditional is kept as a float term (count +
        prior), refreshed from the integer count whenever that count
        changes, so every weight is the same float product and quotient as
        in _gibbs_sweep_py. The running sums of the weights equal both its
        `total` and its `acc` sequences; as every weight is >= 0 they never
        decrease, so the first sum above `r` is `bisect_right`'s index.
        """
        tokens, zs, alpha = self.tokens, self.zs, self.alpha
        doc_counts, word_counts, topic_counts = self.doc_counts, self.word_counts, self.topic_counts
        doc_terms, word_terms, topic_terms = self.doc_terms, self.word_terms, self.topic_terms
        word_eta, topic_eta = self.word_eta, self.topic_eta
        last = len(topic_counts) - 1
        i = self.last
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

                cum = list(accumulate(map(truediv, map(mul, dt, wt), topic_terms)))
                k = bisect_right(cum, u * cum[-1])
                if k > last:
                    k = last  # the final bucket absorbs any shortfall

                zs[i] = k
                dc[k] += 1
                wc[k] += 1
                topic_counts[k] += 1
                dt[k] = dc[k] + alpha
                wt[k] = wc[k] + we[k]
                topic_terms[k] = topic_counts[k] + topic_eta[k]
        self.last = i

    def last_weights(self):
        """The weights that sampled the last token, as _gibbs_sweep_py leaves
        them in `probs`; None before any token is sampled."""
        if self.last < 0:
            return None
        d, w = self.tokens[self.last]
        k = self.zs[self.last]
        # the terms before the token's new topic was counted
        dt, wt, tt = self.doc_terms[d][:], self.word_terms[w][:], self.topic_terms[:]
        dt[k] = (self.doc_counts[d][k] - 1) + self.alpha
        wt[k] = (self.word_counts[w][k] - 1) + self.word_eta[w][k]
        tt[k] = (self.topic_counts[k] - 1) + self.topic_eta[k]
        return list(map(truediv, map(mul, dt, wt), tt))

    def store_z(self) -> None:
        self.arrays[0][:] = self.zs

    def store_counts(self) -> None:
        """Write n_dk, n_k and the present columns of n_kw."""
        if not self.tokens:
            return  # no count has changed, and n_kw.T[present] would be (0, K)
        _, n_dk, n_kw, n_k = self.arrays
        n_dk[:] = self.doc_counts
        n_kw.T[self.present] = self.word_counts
        n_k[:] = self.topic_counts


def _address(arr, dtype, shape, written=False) -> int:
    """The data address of `arr`, checked to be a C-contiguous `dtype` array
    of `shape`, and writeable if the kernel writes it."""
    if not (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.shape == shape
        and arr.flags.c_contiguous
        and (arr.flags.writeable or not written)
    ):
        raise ValueError(
            f"the C kernel needs a C-contiguous{' writeable' if written else ''} "
            f"{np.dtype(dtype)} array of shape {shape}, got {getattr(arr, 'dtype', type(arr))} "
            f"of shape {np.shape(arr)}"
        )
    return arr.ctypes.data


class GibbsArrays:
    """A Gibbs chain's state as its own arrays, swept by the C `gibbs_chain`.

    It has GibbsLists' interface. The arrays are checked once, on
    construction: dtype, shape, C-contiguity, and that every doc, word and
    topic id indexes its matrix, so the kernel never reads or writes outside
    them. The kernel updates them in place, so there is nothing to store.
    `probs` receives the weights of the last token sampled.
    """

    def __init__(self, doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, probs=None):
        (n,), (n_docs, k), (_, v) = z.shape, n_dk.shape, n_kw.shape
        probs = np.empty(k) if probs is None else probs
        i8, f8 = np.int64, np.float64
        addresses = (
            _address(doc_ids, i8, (n,)),
            _address(word_ids, i8, (n,)),
            _address(z, i8, (n,), written=True),
            _address(n_dk, i8, (n_docs, k), written=True),
            _address(n_kw, i8, (k, v), written=True),
            _address(n_k, i8, (k,), written=True),
        )
        for name, ids, bound in (("doc", doc_ids, n_docs), ("word", word_ids, v), ("topic", z, k)):
            if n and (ids.min() < 0 or ids.max() >= bound):
                raise ValueError(f"{name} ids must lie in 0..{bound - 1}")
        self.args = (
            n, k, v, *addresses, float(alpha),
            _address(eta_kw, f8, (k, v)), _address(eta_sum, f8, (k,)),
            _address(probs, f8, (k,), written=True),
        )
        # the kernel holds these addresses, so the arrays must outlive it
        self.arrays = doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, probs

    def sweep(self, uniforms) -> None:
        """Repeated _gibbs_sweep_py, one sweep per row of the (sweeps, n)
        float64 block `uniforms`."""
        address = _address(uniforms, np.float64, (len(uniforms), self.args[0]))
        c_gibbs_chain(len(uniforms), address, *self.args)

    def store_z(self) -> None:
        """Nothing to copy: the kernel writes z itself."""

    def store_counts(self) -> None:
        """Nothing to copy: the kernel writes the counts themselves."""


def gibbs_chain(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, uniforms, probs):
    # Repeated _gibbs_sweep_py, one sweep per array that `uniforms` yields,
    # on a GibbsLists state written back once on return.
    state = GibbsLists(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum)
    state.sweep(uniforms)
    state.store_z()
    state.store_counts()
    weights = state.last_weights()
    if weights is not None:
        probs[:] = weights


def infer_chain(word_ids, z, m_k, beta, alpha, uniforms, probs, acc=None):
    # Repeated _infer_sweep_py on Python lists, as gibbs_chain. Only the
    # beta columns of the document's own words are converted, once per call.
    # After each sweep, acc (if given) gains (m_k + alpha) / (n + K*alpha).
    n_topics = m_k.shape[0]
    last = n_topics - 1
    denom = word_ids.shape[0] + n_topics * alpha
    zs = z.tolist()
    counts = m_k.tolist()
    terms = [c + alpha for c in counts]
    columns = beta.T[word_ids].tolist()
    sums = None if acc is None else acc.tolist()
    i = -1
    for sweep_uniforms in uniforms:
        for i, (column, u) in enumerate(zip(columns, sweep_uniforms.tolist())):
            k = zs[i]
            counts[k] -= 1
            terms[k] = counts[k] + alpha

            cum = list(accumulate(map(mul, terms, column)))
            total = cum[-1]
            if total <= 0.0:
                k = min(int(u * n_topics), last)
            else:
                k = bisect_right(cum, u * total)
                if k > last:
                    k = last

            zs[i] = k
            counts[k] += 1
            terms[k] = counts[k] + alpha
        if sums is not None:
            sums = list(map(add, sums, map(truediv, terms, repeat(denom))))
    z[:] = zs
    m_k[:] = counts
    if i >= 0:
        # the last token's weights, from the terms before its new topic was counted
        k = zs[i]
        terms[k] = (counts[k] - 1) + alpha
        probs[:] = list(map(mul, terms, columns[i]))
    if sums is not None:
        acc[:] = sums


def gibbs_sweep(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, uniforms, probs):
    gibbs_chain(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, (uniforms,), probs)


def infer_sweep(word_ids, z, m_k, beta, alpha, uniforms, probs):
    infer_chain(word_ids, z, m_k, beta, alpha, (uniforms,), probs)


_SOURCE = Path(__file__).with_name("_kernels.c")
# -ffp-contract=off: a contracted multiply-add (gcc does it by default on
# aarch64) rounds once where the Python kernels round twice. No -ffast-math.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_INT, _PTR = ctypes.c_int64, ctypes.c_void_p
_ARGTYPES = (_INT, _PTR, _INT, _INT, _INT) + (_PTR,) * 6 + (ctypes.c_double,) + (_PTR,) * 3


def _cache_dir() -> Path:
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache") / "newstm"


def _intact(library: Path) -> bool:
    """Whether `library` holds a complete build: its bytes end with their own
    sha256. dlopen of a truncated file can kill the process with SIGBUS."""
    try:
        data = library.read_bytes()
    except FileNotFoundError:
        return False
    return hashlib.sha256(data[:-32]).digest() == data[-32:]


def _build(cc: str, library: Path) -> None:
    """Compile _kernels.c into `library`, followed by the sha256 of the build."""
    import subprocess  # only a cache miss pays for it

    library.parent.mkdir(parents=True, exist_ok=True)
    # the cache's temp file opens first, so an unwritable cache starts no compiler
    with replacing(library, "wb") as fh, tempfile.TemporaryDirectory() as tmp:
        built = Path(tmp) / library.name
        done = subprocess.run(
            [cc, *_FLAGS, "-o", str(built), str(_SOURCE)],
            capture_output=True,
            text=True,
            errors="replace",
        )
        if done.returncode != 0:
            why = (done.stderr.strip().splitlines() or [""])[0]
            raise OSError(f"{cc} exited {done.returncode}: {why}")
        data = built.read_bytes()
        fh.write(data + hashlib.sha256(data).digest())


def _load_gibbs_chain():
    """The compiled `gibbs_chain`, built on a cache miss, or None, with one
    logged line that says why."""
    try:
        cc = shutil.which("cc")
        if cc is None:
            raise OSError("no `cc` on PATH")
        resolved = os.path.realpath(cc)
        stat = os.stat(resolved)
        key = hashlib.sha256(_SOURCE.read_bytes())
        key.update(repr((_FLAGS, resolved, stat.st_size, stat.st_mtime_ns)).encode())
        library = _cache_dir() / f"gibbs_chain-{key.hexdigest()}.so"
        if not _intact(library):
            _build(cc, library)
        function = ctypes.CDLL(str(library)).gibbs_chain
    except (OSError, RuntimeError) as exc:  # RuntimeError: Path.home() with no home
        logger.warning("C Gibbs kernel unavailable, training on the list kernel: %s", exc)
        return None
    function.argtypes = _ARGTYPES
    function.restype = None
    return function


# The compiled chain that GibbsArrays calls, or None.
c_gibbs_chain = _load_gibbs_chain()
# The sampler backend in use; perfbench/run.py records it with every run.
BACKEND = "numpy" if c_gibbs_chain is None else "c"
