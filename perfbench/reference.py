"""A reference loop that measures how fast the benchmark's CPU runs right now.

On a shared virtual machine the CPU time of the same work drifts by up to
half within seconds, as other tenants load the physical cores. The
benchmark therefore pins itself and everything it starts to one CPU and
runs this loop beside the workload at a low priority, so it gets about
3% of that CPU in short slices spread over the whole run. Its rate, in
reference tokens per CPU second, tracks the speed the workload saw; the
benchmark rescales the workload's CPU seconds by rate / NOMINAL_RATE.

The loop is a frozen copy of the collapsed-Gibbs inner loop's arithmetic on
NumPy scalars, so it slows down the way the program does; it imports
nothing from newstm, so changes to the program never change the reference.

Protocol: started as a script, it prints "ready"; on SIGUSR1 it prints its
cumulative "<tokens> <cpu seconds>"; SIGTERM ends it, and so does the end
of the process that started it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

# Reference tokens per CPU second on an uncontended 2.1 GHz vCPU (Python
# 3.11, NumPy 2.4); only ratios to it matter.
NOMINAL_RATE = 10_000.0
# Weight 36 against the workload's 1024: about 3% of the CPU.
NICENESS = 15
# A step shorter than this much reference CPU time is rescaled by the speed
# over the whole repetition instead of its own.
MIN_REFERENCE_CPU_S = 0.02
_TOKENS = 2_000
_TOPICS = 20
_DOCS = 40
_VOCAB = 500


def _state():
    # Imported here: the benchmark process imports this module and must stay
    # small, because a child's peak RSS includes its parent's at spawn time.
    import numpy as np

    rng = np.random.default_rng(20260917)
    doc_ids = np.sort(rng.integers(0, _DOCS, _TOKENS))
    word_ids = rng.integers(0, _VOCAB, _TOKENS)
    z = rng.integers(0, _TOPICS, _TOKENS)
    n_dk = np.zeros((_DOCS, _TOPICS), np.int64)
    n_kw = np.zeros((_TOPICS, _VOCAB), np.int64)
    n_k = np.zeros(_TOPICS, np.int64)
    np.add.at(n_dk, (doc_ids, z), 1)
    np.add.at(n_kw, (z, word_ids), 1)
    np.add.at(n_k, z, 1)
    return doc_ids, word_ids, z, n_dk, n_kw, n_k, rng.random(_TOKENS), np.empty(_TOPICS)


def serve() -> None:
    os.nice(NICENESS)
    doc_ids, word_ids, z, n_dk, n_kw, n_k, uniforms, probs = _state()
    done = 0
    started = time.process_time()

    def report(signum, frame):
        print(done, time.process_time() - started, flush=True)

    signal.signal(signal.SIGUSR1, report)
    parent = os.getppid()
    print("ready", flush=True)
    while os.getppid() == parent:
        for i in range(_TOKENS):
            d, w, k_old = doc_ids[i], word_ids[i], z[i]
            n_dk[d, k_old] -= 1
            n_kw[k_old, w] -= 1
            n_k[k_old] -= 1
            total = 0.0
            for k in range(_TOPICS):
                p = (n_dk[d, k] + 2.5) * (n_kw[k, w] + 0.01) / (n_k[k] + 5.0)
                probs[k] = p
                total += p
            r = uniforms[i] * total
            acc = 0.0
            k_new = _TOPICS - 1
            for k in range(_TOPICS):
                acc += probs[k]
                if r < acc:
                    k_new = k
                    break
            z[i] = k_new
            n_dk[d, k_new] += 1
            n_kw[k_new, w] += 1
            n_k[k_new] += 1
            done += 1


class Reference:
    """The reference loop as a child process."""

    def __init__(self, python: str, log) -> None:
        self._proc = subprocess.Popen(
            [python, __file__], stdout=subprocess.PIPE, stderr=log, text=True
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("reference loop did not start")

    def reading(self) -> tuple[int, float]:
        """Cumulative (tokens, CPU seconds) of the loop so far."""
        self._proc.send_signal(signal.SIGUSR1)
        tokens, cpu = self._proc.stdout.readline().split()
        return int(tokens), float(cpu)

    def close(self) -> None:
        self._proc.terminate()
        self._proc.wait()
        self._proc.stdout.close()


def rescale(cpu: list[float], readings: list[tuple[int, float]]) -> list[float]:
    """Each step's CPU seconds at the nominal speed.

    readings[i] and readings[i + 1] are the loop's readings around step i.
    """
    overall = scale(readings[0], readings[-1])
    return [
        c * (scale(a, b) if b[1] - a[1] >= MIN_REFERENCE_CPU_S else overall)
        for c, a, b in zip(cpu, readings, readings[1:])
    ]


def scale(before: tuple[int, float], after: tuple[int, float]) -> float:
    """Factor from CPU seconds to seconds at the nominal speed, for one interval."""
    tokens, cpu = after[0] - before[0], after[1] - before[1]
    if tokens <= 0 or cpu <= 0:
        raise RuntimeError("the reference loop got no CPU time in the interval")
    return tokens / cpu / NOMINAL_RATE


if __name__ == "__main__":
    sys.exit(serve())
