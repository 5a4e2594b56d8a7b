"""Gibbs-sampling inner loops.

Each kernel does the floating-point operations of the reference sweeps in
`tests/reference_kernels.py` (one sweep over NumPy arrays, indexed one
scalar at a time) in the same order, so it gives their bits: on Python
lists converted once, not once per sweep, or in C.

Every call has one contract: it runs one sweep per row of uniforms it is
given and returns with z and every count written into the caller's arrays.

A training chain's state is a `GibbsArrays` when the C `gibbs_chain` of
`_kernels.c` is compiled and loaded, else a `GibbsLists`; `lda` builds one
per chain and passes it blocks of uniforms, one row per sweep. Both take
the word prior as a (K, P) float64 array that is C-contiguous or a
stride-0 view of one value: `lda` passes the view for a symmetric prior,
so no array of the repeated value is built, and the C kernel reads the
prior through its strides. The C file is compiled on first import with
the system `cc` into the user's cache directory (`$XDG_CACHE_HOME/newstm`,
else `~/.cache/newstm`), under a name that hashes the source, the flags and
the compiler's file, so later imports start no process. Without a
compiler, or if the build or load fails or runs past `_BUILD_TIMEOUT`, the
import logs one line and the list kernels run; `BACKEND` says which. A
compiler that failed or ran past the timeout leaves a `.failed` marker
beside the library's name with its reason, so later imports with the same
key log that reason and start no compiler until the marker is deleted or
the source, flags or compiler change.

`infer_chain` takes a held-out document's state as arrays and, in place of
one uniform array, an iterable that yields one per sweep, so a run of
sweeps is one call that converts on entry and writes back before
returning. Held-out inference stays on lists. `gibbs_sweep` and
`infer_sweep` are one-sweep calls of the list kernels.
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

from newstm.modelfile import replace_text, replacing

logger = logging.getLogger(__name__)


class GibbsLists:
    """A Gibbs chain's state as Python lists, for any number of `sweep` calls.

    The lists are converted once, on construction, from every column of
    `n_kw` and `eta_kw`, which may be a stride-0 view of one value, as
    GibbsArrays takes it; `lda` builds the state on only the word columns
    its tokens use, so set-up follows the tokens, not K x V. Each `sweep`
    call copies z and the counts back into the arrays the state was built
    from before it returns.
    """

    def __init__(self, doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum):
        self.arrays = z, n_dk, n_kw, n_k
        self.alpha = alpha
        self.tokens = list(zip(doc_ids.tolist(), word_ids.tolist()))
        self.zs = z.tolist()
        word_counts, word_eta = n_kw.T, eta_kw.T
        self.doc_counts = n_dk.tolist()
        self.word_counts = word_counts.tolist()
        self.topic_counts = n_k.tolist()
        self.word_eta = word_eta.tolist()
        self.topic_eta = eta_sum.tolist()
        # count + prior in float64, the same one rounding as Python's int + float
        self.doc_terms = (n_dk + alpha).tolist()
        self.word_terms = (word_counts + word_eta).tolist()
        self.topic_terms = (n_k + eta_sum).tolist()

    def sweep(self, uniforms):
        """Repeated reference sweeps, one per array that `uniforms` yields.

        Each factor of the conditional is kept as a float term (count +
        prior), refreshed from the integer count whenever that count
        changes, so every weight is the same float product and quotient as
        in the reference. The running sums of the weights equal both its
        `total` and its `acc` sequences; as every weight is >= 0 they never
        decrease, so the first sum above `r` is `bisect_right`'s index.
        """
        tokens, zs, alpha = self.tokens, self.zs, self.alpha
        doc_counts, word_counts, topic_counts = self.doc_counts, self.word_counts, self.topic_counts
        doc_terms, word_terms, topic_terms = self.doc_terms, self.word_terms, self.topic_terms
        word_eta, topic_eta = self.word_eta, self.topic_eta
        last = len(topic_counts) - 1
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
        if not tokens:
            return  # nothing has changed, and an empty list does not broadcast to (0, K)
        z, n_dk, n_kw, n_k = self.arrays
        z[:] = zs
        n_dk[:] = doc_counts
        n_kw.T[:] = word_counts
        n_k[:] = topic_counts


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


def _prior_address(arr, shape) -> tuple[int, int, int]:
    """The data address of the word prior `arr` and its row and column
    strides in elements, checked to be an aligned float64 array of `shape`
    whose strides are non-negative multiples of 8 bytes: a C-contiguous
    matrix, or a stride-0 view of one value."""
    if not (
        isinstance(arr, np.ndarray)
        and arr.dtype == np.float64
        and arr.shape == shape
        and arr.flags.aligned
        and all(stride >= 0 and stride % 8 == 0 for stride in arr.strides)
    ):
        raise ValueError(
            f"the C kernel needs a float64 prior of shape {shape} with non-negative strides "
            f"in whole elements, got {getattr(arr, 'dtype', type(arr))} of shape {np.shape(arr)} "
            f"and strides {getattr(arr, 'strides', None)}"
        )
    row, col = arr.strides
    return arr.ctypes.data, row // 8, col // 8


class GibbsArrays:
    """A Gibbs chain's state as its own arrays, swept by the C `gibbs_chain`.

    It has GibbsLists' interface. The arrays are checked once, on
    construction: dtype, shape, C-contiguity (for the prior `eta_kw`,
    non-negative strides in whole elements, so a stride-0 view of one value
    serves as a symmetric prior), and that every doc, word and topic id
    indexes its matrix, so the kernel never reads or writes outside them.
    The kernel updates the counts and z in place.
    """

    def __init__(self, doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum):
        (n,), (n_docs, k), (_, v) = z.shape, n_dk.shape, n_kw.shape
        weights = np.empty(k)  # the kernel's scratch row of one token's weights
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
            *_prior_address(eta_kw, (k, v)), _address(eta_sum, f8, (k,)),
            _address(weights, f8, (k,), written=True),
        )
        # the kernel holds these addresses, so the arrays must outlive it
        self.arrays = doc_ids, word_ids, z, n_dk, n_kw, n_k, eta_kw, eta_sum, weights

    def sweep(self, uniforms) -> None:
        """Repeated reference sweeps, one per row of the (sweeps, n) float64
        block `uniforms`."""
        address = _address(uniforms, np.float64, (len(uniforms), self.args[0]))
        c_gibbs_chain(len(uniforms), address, *self.args)


def infer_chain(word_ids, z, m_k, beta, alpha, uniforms, acc):
    # Repeated reference held-out sweeps on Python lists, one per array that
    # `uniforms` yields, with GibbsLists' running sums and search. Only the
    # beta columns of the document's own words are converted, once per call.
    # After each sweep, acc gains (m_k + alpha) / (n + K*alpha).
    n_topics = m_k.shape[0]
    last = n_topics - 1
    denom = word_ids.shape[0] + n_topics * alpha
    zs = z.tolist()
    counts = m_k.tolist()
    terms = [c + alpha for c in counts]
    columns = beta.T[word_ids].tolist()
    sums = acc.tolist()
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
        sums = list(map(add, sums, map(truediv, terms, repeat(denom))))
    z[:] = zs
    m_k[:] = counts
    acc[:] = sums


# The one-sweep calls keep the `probs` argument, unwritten, only because the
# benchmark's perfbench/micro.py passes it.
def gibbs_sweep(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum, uniforms, probs):
    state = GibbsLists(doc_ids, word_ids, z, n_dk, n_kw, n_k, alpha, eta_kw, eta_sum)
    state.sweep((uniforms,))


def infer_sweep(word_ids, z, m_k, beta, alpha, uniforms, probs):
    infer_chain(word_ids, z, m_k, beta, alpha, (uniforms,), np.zeros(m_k.shape[0]))


_SOURCE = Path(__file__).with_name("_kernels.c")
# -ffp-contract=off: a contracted multiply-add (gcc does it by default on
# aarch64) rounds once where the Python kernels round twice. No -ffast-math.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_BUILD_TIMEOUT = 60  # seconds; a hung compiler must not hang every import
_INT, _PTR = ctypes.c_int64, ctypes.c_void_p
_ARGTYPES = (_INT, _PTR, _INT, _INT, _INT) + (_PTR,) * 6 + (ctypes.c_double,)
_ARGTYPES += (_PTR, _INT, _INT, _PTR, _PTR)  # eta_kw, its row and column strides, eta_sum, weights


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
    """Compile _kernels.c into `library`, followed by the sha256 of the build.

    A compiler that exits non-zero or runs past _BUILD_TIMEOUT leaves its
    one-line reason in `library`'s `.failed` marker, which stops later
    imports from starting it again.
    """
    import subprocess  # only a cache miss pays for it

    library.parent.mkdir(parents=True, exist_ok=True)
    # the cache's temp file opens first, so an unwritable cache starts no compiler
    with replacing(library, "wb") as fh, tempfile.TemporaryDirectory() as tmp:
        built = Path(tmp) / library.name
        try:
            done = subprocess.run(
                [cc, *_FLAGS, "-o", str(built), str(_SOURCE)],
                capture_output=True,
                text=True,
                errors="replace",
                timeout=_BUILD_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            why = f"{cc} ran past {_BUILD_TIMEOUT} s and was killed"
        else:
            first_line = (done.stderr.strip().splitlines() or [""])[0]
            why = f"{cc} exited {done.returncode}: {first_line}" if done.returncode else ""
        if why:
            replace_text(library.with_suffix(".failed"), why + "\n")
            raise OSError(why)
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
            failed = library.with_suffix(".failed")
            if failed.exists():
                why = failed.read_text(encoding="utf-8").strip()
                raise OSError(f"{why}, at an earlier import; delete {failed} to retry")
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
