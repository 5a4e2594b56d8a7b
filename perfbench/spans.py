"""Span recording around the public functions of each newstm module.

The wrappers live here, not in the program: `Tracer.install` replaces the
names that callers look up at call time (the functions `newstm.cli`
imports, the kernels as `newstm.lda` sees them, `train_lda` as
`newstm.dtm` sees it, the `Workspace` methods and the `newstm.viz` plot
functions) and `uninstall` puts the originals back. Spans stay in memory
until the run ends; self time is derived from them afterwards.

Spans are timed in CPU seconds of this process, which other tenants of a
shared machine do not inflate; `layer_metrics` rescales them to the
reference loop's nominal speed like the end-to-end metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: str
    count: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tokens_in(args, result) -> int:
    return args[0].shape[0]


def _saved_bytes(args, result) -> int:
    return Path(args[1]).stat().st_size


def _targets():
    """(owner, attribute, span name, counter) for every wrapped name.

    A counter maps (args, result) to the units of work the call did.
    """
    from newstm import cli, dtm, lda, viz

    return [
        (lda, "gibbs_sweep", "kernels.gibbs_sweep", _tokens_in),
        (lda, "infer_sweep", "kernels.infer_sweep", _tokens_in),
        (lda, "infer_theta", "lda.infer_theta", None),
        (lda, "perplexity", "lda.perplexity", None),
        (cli, "train_lda", "lda.train_lda", None),
        (dtm, "train_lda", "lda.train_lda", None),
        (cli, "save_lda", "lda.save_lda", _saved_bytes),
        (cli, "load_lda", "lda.load_lda", None),
        (cli, "load_corpus", "corpus.load_corpus", lambda a, r: len(r)),
        (cli, "save_corpus", "corpus.save_corpus", None),
        (cli, "filter_by_category", "corpus.filter_by_category", None),
        (cli, "slice_monthly", "corpus.slice_monthly", None),
        (cli, "articles_per_day", "corpus.articles_per_day", None),
        (cli, "write_timeline_csv", "corpus.write_timeline_csv", None),
        (cli, "read_timeline_csv", "corpus.read_timeline_csv", None),
        (cli, "tokenize", "preprocess.tokenize", lambda a, r: len(r)),
        (cli, "load_stopwords", "preprocess.load_stopwords", None),
        (cli, "remove_stopwords", "preprocess.remove_stopwords", None),
        (cli, "fit_phrases", "preprocess.fit_phrases", None),
        (cli, "apply_phrases", "preprocess.apply_phrases", None),
        (cli, "build_vocabulary", "preprocess.build_vocabulary", lambda a, r: len(r)),
        (cli, "to_bow", "preprocess.to_bow", lambda a, r: r.total()),
        (cli, "write_vocabulary", "preprocess.write_vocabulary", None),
        (cli, "write_bows", "preprocess.write_bows", None),
        (cli, "read_vocabulary", "preprocess.read_vocabulary", None),
        (cli, "read_bows", "preprocess.read_bows", None),
        (cli, "train_dtm", "dtm.train_dtm", lambda a, r: r.n_slices),
        (cli, "save_dtm", "dtm.save_dtm", _saved_bytes),
        (cli, "load_dtm", "dtm.load_dtm", None),
        (cli, "top_words_at", "dtm.top_words_at", None),
        (cli, "trajectory", "dtm.trajectory", None),
        (cli, "write_trajectory_csv", "dtm.write_trajectory_csv", None),
        (cli, "read_trajectory_csv", "dtm.read_trajectory_csv", None),
        (cli, "umass_coherence", "evaluate.umass_coherence", None),
        (cli, "topic_overlap", "evaluate.topic_overlap", None),
        (cli, "intertopic_map", "evaluate.intertopic_map", None),
        (cli, "write_coherence_json", "evaluate.write_coherence_json", None),
        (cli, "write_overlap_json", "evaluate.write_overlap_json", None),
        (cli, "write_intertopic_csv", "evaluate.write_intertopic_csv", None),
        (cli, "read_intertopic_csv", "evaluate.read_intertopic_csv", None),
        (viz, "plot_timeline", "viz.plot_timeline", lambda a, r: len(r.encode())),
        (viz, "plot_intertopic", "viz.plot_intertopic", lambda a, r: len(r.encode())),
        (viz, "plot_trajectories", "viz.plot_trajectories", lambda a, r: len(r.encode())),
        (cli, "load_config", "cli.load_config", None),
        (cli, "_sha256", "cli.sha256", lambda a, r: Path(a[0]).stat().st_size),
        (cli.Workspace, "require", "cli.require", None),
        (cli.Workspace, "record", "cli.record", None),
    ]


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, counter=None):
        """Wrap fn so each call records a span named `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id))
            self._stack.append(index)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                self._stack.pop()
                self.spans[index].start = start
                self.spans[index].end = end
            if counter is not None:
                self.spans[index].count = float(counter(args, result))
            return result

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args) under a root span, e.g. one CLI command."""
        return self.span(name, fn)(*args, **kwargs)

    def install(self) -> None:
        for owner, attr, name, counter in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON object per span, in start order."""
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")

    def self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child_time)]


def layer_metrics(tracer: Tracer, workspace: Path | None, speed: float) -> dict[str, float]:
    """Per-layer totals, self times and counts from one traced run; times are
    multiplied by `speed`, the reference scale over the traced pass."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    count: dict[str, float] = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        total[span.name] = total.get(span.name, 0.0) + span.duration * speed
        own[span.name] = own.get(span.name, 0.0) + self_s * speed
        calls[span.name] = calls.get(span.name, 0) + 1
        count[span.name] = count.get(span.name, 0.0) + span.count

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def per_s(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    gibbs_s, infer_s = t("kernels.gibbs_sweep"), t("kernels.infer_sweep")
    raw = count.get("preprocess.tokenize", 0.0)
    kept = count.get("preprocess.to_bow", 0.0)
    commands = [n for n in total if n.startswith("cmd.")]
    out = {
        "kernels.gibbs_s": gibbs_s,
        "kernels.gibbs_calls": calls.get("kernels.gibbs_sweep", 0),
        "kernels.gibbs_tokens_per_s": per_s(count.get("kernels.gibbs_sweep", 0.0), gibbs_s),
        "kernels.infer_s": infer_s,
        "kernels.infer_calls": calls.get("kernels.infer_sweep", 0),
        "kernels.infer_tokens_per_s": per_s(count.get("kernels.infer_sweep", 0.0), infer_s),
        "lda.train_s": t("lda.train_lda"),
        "lda.train_self_s": own.get("lda.train_lda", 0.0),
        "lda.token_updates": count.get("kernels.gibbs_sweep", 0.0),
        "lda.save_s": t("lda.save_lda"),
        "lda.load_s": t("lda.load_lda"),
        "lda.model_bytes": count.get("lda.save_lda", 0.0),
        "lda.infer_self_s": own.get("lda.infer_theta", 0.0),
        "lda.perplexity_s": t("lda.perplexity"),
        "dtm.train_s": t("dtm.train_dtm"),
        "dtm.train_self_s": own.get("dtm.train_dtm", 0.0),
        "dtm.slices": count.get("dtm.train_dtm", 0.0),
        "dtm.save_s": t("dtm.save_dtm"),
        "dtm.load_s": t("dtm.load_dtm"),
        "dtm.model_bytes": count.get("dtm.save_dtm", 0.0),
        "dtm.trajectory_s": t("dtm.top_words_at", "dtm.trajectory", "dtm.write_trajectory_csv"),
        "preprocess.tokenize_s": t("preprocess.tokenize"),
        "preprocess.stopwords_s": t("preprocess.load_stopwords", "preprocess.remove_stopwords"),
        "preprocess.phrases_s": t("preprocess.fit_phrases", "preprocess.apply_phrases"),
        "preprocess.vocab_s": t("preprocess.build_vocabulary"),
        "preprocess.bow_s": t("preprocess.to_bow"),
        "preprocess.io_s": t(
            "preprocess.write_vocabulary",
            "preprocess.write_bows",
            "preprocess.read_vocabulary",
            "preprocess.read_bows",
        ),
        "preprocess.raw_tokens": raw,
        "preprocess.kept_tokens": kept,
        "preprocess.kept_ratio": kept / raw if raw else 0.0,
        "preprocess.vocab_size": count.get("preprocess.build_vocabulary", 0.0),
        "corpus.load_s": t("corpus.load_corpus"),
        "corpus.load_calls": calls.get("corpus.load_corpus", 0),
        "corpus.docs_per_s": per_s(count.get("corpus.load_corpus", 0.0), t("corpus.load_corpus")),
        "corpus.slice_s": t(
            "corpus.filter_by_category", "corpus.slice_monthly", "corpus.articles_per_day"
        ),
        "corpus.write_s": t(
            "corpus.save_corpus", "corpus.write_timeline_csv", "corpus.read_timeline_csv"
        ),
        "evaluate.umass_s": t("evaluate.umass_coherence"),
        "evaluate.overlap_s": t("evaluate.topic_overlap"),
        "evaluate.intertopic_s": t("evaluate.intertopic_map"),
        "evaluate.io_s": t(
            "evaluate.write_coherence_json",
            "evaluate.write_overlap_json",
            "evaluate.write_intertopic_csv",
            "evaluate.read_intertopic_csv",
        ),
        "viz.plot_s": t("viz.plot_timeline", "viz.plot_intertopic", "viz.plot_trajectories"),
        "viz.svg_bytes": sum(
            count.get(n, 0.0)
            for n in ("viz.plot_timeline", "viz.plot_intertopic", "viz.plot_trajectories")
        ),
        "cli.config_s": t("cli.load_config"),
        "cli.require_s": t("cli.require"),
        "cli.record_s": t("cli.record"),
        "cli.hashed_bytes": count.get("cli.sha256", 0.0),
        "cli.self_s": sum(own[n] for n in commands),
    }
    train = t("cmd.train_static", "cmd.train_dtm")
    out["kernels.gibbs_share_of_train"] = gibbs_s / train if train else 0.0
    job = t("job.heldout")
    out["kernels.infer_share_of_job"] = infer_s / job if job else 0.0
    out["cli.workspace_bytes"] = (
        sum(p.stat().st_size for p in workspace.rglob("*") if p.is_file()) if workspace else 0
    )
    return out
