"""Seeded input generators for the `wide` and `heldout` workloads.

Each generator takes the workload seed and nothing else; the program under
test only ever sees what these functions produce. The `wide` corpus is
written by a separate process, so the benchmark process stays small:

    python3 perfbench/gen.py --seed 0 --out wide.jsonl
"""

from __future__ import annotations

import argparse
import datetime
import json
from pathlib import Path

import numpy as np

WIDE_DOCS = 3_000
WIDE_POOL = 20_000
WIDE_STOPWORDS_PER_DOC = 60
WIDE_ONE_OFF_PER_DOC = 15
WIDE_POOL_PER_DOC = 18
# The twelve monthly slices that the default config cuts, [2020-01-17, 2021-01-17).
WIDE_FIRST_DAY = datetime.date(2020, 1, 17)
WIDE_SPAN_DAYS = (datetime.date(2021, 1, 17) - WIDE_FIRST_DAY).days

HELDOUT_K = 20
HELDOUT_V = 5_000
HELDOUT_BETA_CONCENTRATION = 0.05
HELDOUT_DOCS = 100
HELDOUT_MIN_LEN = 2
HELDOUT_MAX_LEN = 12

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _word(prefix: str, index: int) -> str:
    """A letters-only token, so the tokenizer keeps it whole."""
    chars = []
    while True:
        index, digit = divmod(index, 26)
        chars.append(_LETTERS[digit])
        if index == 0:
            break
    return prefix + "".join(reversed(chars))


def bundled_stopwords() -> list[str]:
    path = Path(__file__).resolve().parent.parent / "src" / "newstm" / "data" / "stopwords_sv.txt"
    words = []
    for line in path.read_text("utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            words.append(line)
    return sorted(set(words))


def write_wide_corpus(seed: int, path: Path, stopwords: list[str]) -> None:
    """Write the `wide` JSONL corpus.

    Every article holds about 60 stopwords, 15 tokens used nowhere else and
    18 words drawn uniformly from a 20,000-word pool, so preprocessing keeps
    roughly 50k tokens over a vocabulary near 15,000 words.
    """
    rng = np.random.default_rng([seed, 0x57494445])
    pool = [_word("zq", i) for i in range(WIDE_POOL)]
    days = np.sort(rng.integers(0, WIDE_SPAN_DAYS, WIDE_DOCS))
    one_off = 0
    with path.open("w", encoding="utf-8") as fh:
        for d in range(WIDE_DOCS):
            n_stop = int(rng.integers(WIDE_STOPWORDS_PER_DOC - 5, WIDE_STOPWORDS_PER_DOC + 6))
            n_one = int(rng.integers(WIDE_ONE_OFF_PER_DOC - 3, WIDE_ONE_OFF_PER_DOC + 4))
            n_pool = int(rng.integers(WIDE_POOL_PER_DOC - 4, WIDE_POOL_PER_DOC + 5))
            tokens = [stopwords[i] for i in rng.integers(0, len(stopwords), n_stop)]
            tokens += [_word("zx", one_off + i) for i in range(n_one)]
            one_off += n_one
            tokens += [pool[i] for i in rng.integers(0, WIDE_POOL, n_pool)]
            order = rng.permutation(len(tokens))
            tokens = [tokens[i] for i in order]
            record = {
                "id": f"wide-{d:05d}",
                "date": (WIDE_FIRST_DAY + datetime.timedelta(days=int(days[d]))).isoformat(),
                "category": "inrikes" if rng.random() < 0.5 else "utrikes",
                "title": " ".join(tokens[:6]).capitalize() + ".",
                "body": " ".join(tokens[6:]) + ".",
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def planted_heldout(seed: int):
    """A planted K=20, V=5,000 model and 100 short documents drawn from it.

    Returns (beta, docs): beta rows come from Dirichlet(0.05), and each
    document is a list of word ids drawn from a Dirichlet(1) mixture of the
    planted topics. Document lengths cycle through 2..12 in a seeded order,
    so every seed gives the same 695 tokens and the same amount of work.
    """
    rng = np.random.default_rng([seed, 0x48454C44])
    beta = rng.dirichlet(np.full(HELDOUT_V, HELDOUT_BETA_CONCENTRATION), size=HELDOUT_K)
    lengths = np.resize(np.arange(HELDOUT_MIN_LEN, HELDOUT_MAX_LEN + 1), HELDOUT_DOCS)
    docs = []
    for length in rng.permutation(lengths):
        mix = rng.dirichlet(np.ones(HELDOUT_K))
        topics = rng.choice(HELDOUT_K, size=length, p=mix)
        docs.append([int(rng.choice(HELDOUT_V, p=beta[k])) for k in topics])
    return beta, docs


def main() -> None:
    parser = argparse.ArgumentParser(description="Write the seeded `wide` corpus.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_wide_corpus(args.seed, args.out, bundled_stopwords())


if __name__ == "__main__":
    main()
