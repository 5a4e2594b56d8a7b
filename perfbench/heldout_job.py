"""The `heldout` job: infer topic proportions for short documents under a
frozen planted model through the `newstm.lda` library API.

Run as a script it does one timed job in a fresh process and prints one
JSON line; `run.py` imports it for the traced in-process run.

    PYTHONPATH=src python3 perfbench/heldout_job.py --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import numpy as np

import gen

INFER_SWEEPS = 200


def build_inputs(seed: int):
    """The planted model and held-out BowDocs; built outside the timed region."""
    from newstm import lda
    from newstm.preprocess import BowDoc

    beta, docs = gen.planted_heldout(seed)
    model = lda.LdaModel(
        beta=beta,
        theta=np.full((1, gen.HELDOUT_K), 1.0 / gen.HELDOUT_K),
        assignments=None,
        n_dk=None,
        n_kw=None,
        n_k=None,
        hyper=lda.LdaHyperparams(k=gen.HELDOUT_K),
        vocab_size=gen.HELDOUT_V,
        doc_lengths=np.zeros(1, dtype=np.int64),
    )
    bows = []
    for d, words in enumerate(docs):
        counts: dict[int, int] = {}
        for w in words:
            counts[w] = counts.get(w, 0) + 1
        bows.append(BowDoc(f"heldout-{d:03d}", dict(sorted(counts.items()))))
    return model, bows


def run_job(model, bows) -> dict:
    """Infer every document, then score the set; returns timings and results.

    Module attributes are looked up at call time so that a traced run sees
    its wrappers.
    """
    from newstm import lda

    started, started_cpu = time.perf_counter(), time.process_time()
    theta = np.stack(
        [
            lda.infer_theta(model, bow, sweeps=INFER_SWEEPS, seed=d)
            for d, bow in enumerate(bows)
        ]
    )
    inferred, inferred_cpu = time.perf_counter(), time.process_time()
    value = lda.perplexity(model, bows, theta=theta)
    finished, finished_cpu = time.perf_counter(), time.process_time()
    return {
        "job_s": finished - started,
        "infer_s": inferred - started,
        "job_cpu_s": finished_cpu - started_cpu,
        "infer_cpu_s": inferred_cpu - started_cpu,
        "theta": theta,
        "perplexity": value,
    }


def summary(out: dict, bows) -> dict:
    """The JSON-able part of a job result: timings, checks and the digest."""
    theta = out["theta"]
    h = hashlib.sha256(np.ascontiguousarray(theta, dtype="<f8").tobytes())
    h.update(repr(out["perplexity"]).encode())
    return {
        **{key: out[key] for key in ("job_s", "infer_s", "job_cpu_s", "infer_cpu_s")},
        "perplexity": out["perplexity"],
        "digest": h.hexdigest(),
        "row_sum_error": [float(abs(s - 1.0)) for s in theta.sum(axis=1)],
        "tokens": int(sum(b.total() for b in bows)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    model, bows = build_inputs(args.seed)
    print(json.dumps(summary(run_job(model, bows), bows)))


if __name__ == "__main__":
    main()
