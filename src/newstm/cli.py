"""Pipeline command line: ingest -> preprocess -> train -> report -> plot.

Every stage reads and writes named artifacts inside a workspace directory.
A manifest records each artifact's content hash plus the hashes of the
inputs it was built from, so stale intermediates are detected instead of
silently reused. One config plus one corpus reruns to byte-identical
artifacts.

Exit codes: 0 success, 1 validation error (bad config or missing/stale
prerequisite), 2 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import hashlib
import json
import logging
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from newstm import __version__
from newstm.corpus import (
    _anchor_in_month,
    articles_per_day,
    filter_by_category,
    load_corpus,
    read_timeline_csv,
    save_corpus,
    slice_monthly,
    write_timeline_csv,
)
from newstm.dtm import (
    load_dtm,
    read_trajectory_csv,
    save_dtm,
    top_words_at,
    train_dtm,
    trajectory,
    write_trajectory_csv,
)
from newstm.evaluate import (
    intertopic_map,
    read_intertopic_csv,
    topic_overlap,
    umass_coherence,
    write_coherence_json,
    write_intertopic_csv,
    write_overlap_json,
)
from newstm.lda import LdaHyperparams, load_lda, save_lda, train_lda
from newstm.modelfile import remove_stray_temps, replace_text
from newstm.preprocess import (
    TokenStream,
    apply_phrases,
    build_vocabulary,
    fit_phrases,
    load_stopwords,
    read_bows,
    read_vocabulary,
    remove_stopwords,
    to_bow,
    tokenize,
    write_bows,
    write_vocabulary,
)

logger = logging.getLogger(__name__)


class ValidationError(ValueError):
    """Bad configuration or an unmet stage precondition; maps to exit code 1."""


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _date(raw: str) -> datetime.date:
    return datetime.date.fromisoformat(raw)


def _categories(raw: str) -> tuple[str, ...]:
    return tuple(tag.strip() for tag in raw.split(",") if tag.strip())


_Check = tuple[Callable[[Any], bool], str]
_AT_LEAST_1: _Check = (lambda v: v >= 1, "must be >= 1")

# section -> key -> (default text, parser, range check or None). A key whose
# default is empty is optional: empty text means None. The [lda] keys are the
# field names of LdaHyperparams, which checks their ranges itself. Every other
# key but corpus.path and [figures] is the name of a RunConfig field.
_SCHEMA: dict[str, dict[str, tuple[str, Callable[[str], Any], _Check | None]]] = {
    "corpus": {
        "path": ("", Path, None),
        "keep_categories": ("inrikes,utrikes", _categories, (bool, "must not be empty")),
        "anchor_day": ("17", int, (lambda v: 1 <= v <= 31, "must be in 1..31")),
        "first_start": ("2020-01-17", _date, None),
        "n_slices": ("12", int, _AT_LEAST_1),
    },
    "preprocess": {
        "stoplist": ("", Path, None),
        "min_count": ("5", int, _AT_LEAST_1),
        "threshold": ("10.0", _finite_float, None),
        "no_below": ("2", int, _AT_LEAST_1),
        "no_above": ("0.5", _finite_float, (lambda v: 0 < v <= 1, "must be in (0, 1]")),
    },
    "lda": {
        "k": ("20", int, None),
        "alpha": ("", _finite_float, None),
        "eta": ("0.01", _finite_float, None),
        "iterations": ("1000", int, None),
        "burn_in": ("200", int, None),
        "thin": ("10", int, None),
        "seed": ("0", int, None),
    },
    "dtm": {"kappa": ("1.0", _finite_float, (lambda v: v >= 0, "must be >= 0"))},
    "report": {
        "top_n": ("10", int, (lambda v: v >= 2, "must be >= 2")),
        "trajectory_words": ("5", int, _AT_LEAST_1),
    },
    "figures": {"width": ("800", int, _AT_LEAST_1), "height": ("480", int, _AT_LEAST_1)},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for every stage; built before any stage runs."""

    corpus_path: Path
    keep_categories: tuple[str, ...]
    anchor_day: int
    first_start: datetime.date
    n_slices: int
    stoplist: Path | None
    min_count: int
    threshold: float
    no_below: int
    no_above: float
    hyper: LdaHyperparams
    kappa: float
    top_n: int
    trajectory_words: int
    fig_width: int
    fig_height: int


def load_config(
    config_path: str | Path | None,
    overrides: list[str] | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Merge defaults, the optional INI file, --set overrides and --seed, then
    validate every stage's parameters up front."""
    settings: list[tuple[str, str, str, str]] = []  # (origin, section, key, text)
    if config_path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(config_path, encoding="utf-8")
        except configparser.Error as exc:
            # configparser's own text spans several lines; name the file and line on one.
            if isinstance(exc, configparser.MissingSectionHeaderError):
                lineno, fault = exc.lineno, "key before the first [section] header"
            elif isinstance(exc, configparser.ParsingError):
                lineno, fault = exc.errors[0][0], "expected [section] or key = value"
            elif isinstance(exc, configparser.DuplicateOptionError):
                lineno, fault = exc.lineno, f"duplicate key {exc.section}.{exc.option}"
            else:  # DuplicateSectionError
                lineno, fault = exc.lineno, f"duplicate section [{exc.section}]"
            raise ValidationError(f"config {config_path} line {lineno}: {fault}") from None
        if not read:
            raise ValidationError(f"config file not found: {config_path}")
        origin = f"config {config_path}"
        settings += [(origin, s, *item) for s in parser.sections() for item in parser.items(s)]
    for item in overrides or []:
        head, sep, text = item.partition("=")
        section, dot, key = head.partition(".")
        if not sep or not dot:
            raise ValidationError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        settings.append(("--set", section, key, text))
    if seed is not None:
        settings.append(("--seed", "lda", "seed", str(seed)))

    raw = {(s, k): spec[0] for s, keys in _SCHEMA.items() for k, spec in keys.items()}
    for origin, section, key, text in settings:
        if (section, key) not in raw:
            raise ValidationError(f"{origin}: unknown key {section}.{key}")
        raw[section, key] = text

    values: dict[str, dict[str, Any]] = {section: {} for section in _SCHEMA}
    for (section, key), text in raw.items():
        default, parse, check = _SCHEMA[section][key]
        name, text = f"{section}.{key}", text.strip()
        try:
            value = parse(text) if text or default else None
        except ValueError as exc:
            kind = parse.__name__.strip("_").replace("_", " ")
            raise ValidationError(f"config {name}: cannot parse {text!r} as {kind}") from exc
        if check is not None and not check[0](value):
            raise ValidationError(f"config {name} {check[1]}, got {value!r}")
        values[section][key] = value

    corpus, figures = values["corpus"], values["figures"]
    corpus_path = corpus.pop("path")
    if corpus_path is None:
        raise ValidationError(
            "corpus.path is required (set it in the config file or with --set corpus.path=...)"
        )
    first_start, anchor_day = corpus["first_start"], corpus["anchor_day"]
    if first_start != _anchor_in_month(first_start.year, first_start.month, anchor_day):
        raise ValidationError(f"corpus.first_start {first_start} is not on anchor day {anchor_day}")
    try:
        hyper = LdaHyperparams(**values["lda"])
    except ValueError as exc:
        raise ValidationError(f"config [lda]: {exc}") from exc
    return RunConfig(
        corpus_path=corpus_path,
        **corpus,
        **values["preprocess"],
        hyper=hyper,
        **values["dtm"],
        **values["report"],
        fig_width=figures["width"],
        fig_height=figures["height"],
    )


# Artifact name -> (workspace-relative path, producing subcommand, names of the
# artifacts it is built from). An artifact is stale once any input's hash moves.
_ARTIFACTS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "corpus": ("corpus.jsonl", "ingest", ()),
    "timeline": ("timeline.csv", "ingest", ()),
    "vocab": ("vocab.json", "preprocess", ("corpus",)),
    "bows": ("bows.jsonl", "preprocess", ("corpus",)),
    "model_static": ("model_static.newstm", "train --mode static", ("vocab", "bows")),
    "model_dtm": ("model_dtm.newstm", "train --mode dtm", ("corpus", "vocab", "bows")),
    "coherence": ("coherence.json", "report", ("model_static", "bows")),
    "overlap": ("overlap.json", "report", ("model_static", "bows")),
    "intertopic": ("intertopic.csv", "report", ("model_static", "bows")),
    "trajectories": ("trajectories.csv", "report", ("model_dtm", "vocab")),
}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_fault(manifest: Any) -> str | None:
    """What is wrong with a parsed manifest, or None if it is well formed."""
    if not isinstance(manifest, dict):
        return f"expected a JSON object, got {type(manifest).__name__}"
    if manifest.get("format") != "newstm-workspace" or manifest.get("version") != 1:
        return "not a version 1 newstm-workspace manifest"
    artifacts = manifest.get("artifacts")
    if not isinstance(artifacts, dict):
        return "no artifacts object"
    for name, entry in artifacts.items():
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("path"), str)
            and isinstance(entry.get("sha256"), str)
            and isinstance(entry.get("inputs"), dict)
        ):
            return f"artifact {name!r} needs a string path, a string sha256 and an inputs object"
        if Path(entry["path"]).is_absolute() or ".." in Path(entry["path"]).parts:
            return f"artifact {name!r} has path {entry['path']!r} outside the workspace"
    return None


class Workspace:
    """Artifact directory with a hashed manifest and a coarse command lock."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.manifest_path = self.root / "manifest.json"
        self.figures_dir = self.root / "figures"

    def load_manifest(self) -> dict:
        """The workspace manifest, checked to be one this version wrote."""
        if not self.manifest_path.exists():
            return {"format": "newstm-workspace", "version": 1, "artifacts": {}}
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except ValueError as exc:  # bad JSON or bad UTF-8
            fault = f"not valid JSON: {exc}"
        else:
            fault = _manifest_fault(manifest)
        if fault is not None:
            raise self._malformed(fault)
        return manifest

    def _malformed(self, fault: str) -> ValidationError:
        # ingest loads the manifest too, so the file itself has to go.
        return ValidationError(
            f"workspace manifest {self.manifest_path}: {fault}; "
            "delete it and re-run from `newstm ingest`"
        )

    def save_manifest(self, manifest: dict) -> None:
        text = json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2)
        replace_text(self.manifest_path, text + "\n")

    def path_for(self, name: str) -> Path:
        return self.root / _ARTIFACTS[name][0]

    def record(self, manifest: dict, *names: str) -> None:
        """Hash the freshly written artifacts, note the current hashes of their
        declared inputs and save the manifest."""
        artifacts = manifest["artifacts"]
        for name in names:
            relpath, _, inputs = _ARTIFACTS[name]
            artifacts[name] = {
                "path": relpath,
                "sha256": _sha256(self.root / relpath),
                "inputs": {source: artifacts[source]["sha256"] for source in inputs},
            }
        self.save_manifest(manifest)

    def require(self, manifest: dict, name: str) -> Path:
        """Path of a prerequisite artifact, verified present, unmodified and not stale."""
        _, producer, _ = _ARTIFACTS[name]
        entry = manifest["artifacts"].get(name)
        if entry is None:
            raise ValidationError(f"missing artifact {name!r}: run `newstm {producer}` first")
        path = self.root / entry["path"]
        if not path.exists():
            raise ValidationError(
                f"artifact file {path} has been removed: re-run `newstm {producer}`"
            )
        if path.is_dir():  # "", "." or a directory's name: no writer records such a path
            raise self._malformed(f"artifact {name!r} has path {entry['path']!r}, a directory")
        if _sha256(path) != entry["sha256"]:
            raise ValidationError(
                f"artifact {name!r} was modified outside the pipeline: re-run `newstm {producer}`"
            )
        for input_name, input_hash in entry["inputs"].items():
            current = manifest["artifacts"].get(input_name, {}).get("sha256")
            if current != input_hash:
                raise ValidationError(
                    f"artifact {name!r} is stale: its input {input_name!r} changed; "
                    f"re-run `newstm {producer}`"
                )
        return path

    @contextmanager
    def lock(self):
        self.root.mkdir(parents=True, exist_ok=True)
        lock_path = self.root / ".lock"
        try:
            lock_path.touch(exist_ok=False)
        except FileExistsError:
            raise RuntimeError(
                f"workspace {self.root} is locked by another command "
                f"(remove {lock_path} if stale)"
            ) from None
        try:
            # Holding the lock, no other command can be writing here.
            remove_stray_temps(self.root)
            remove_stray_temps(self.figures_dir)
            yield
        finally:
            lock_path.unlink(missing_ok=True)


def cmd_ingest(config: RunConfig, ws: Workspace, manifest: dict) -> None:
    corpus = load_corpus(config.corpus_path)
    series = articles_per_day(corpus)  # publication timeline over the full load
    filtered = filter_by_category(corpus, config.keep_categories)
    save_corpus(filtered, ws.path_for("corpus"))
    write_timeline_csv(series, ws.path_for("timeline"))


def cmd_preprocess(config: RunConfig, ws: Workspace, manifest: dict) -> None:
    corpus = load_corpus(ws.require(manifest, "corpus"))
    stopwords = load_stopwords(config.stoplist)
    streams = [
        TokenStream(doc.id, remove_stopwords(tokenize(doc.title + " " + doc.body), stopwords))
        for doc in corpus
    ]
    phrases = fit_phrases(streams, config.min_count, config.threshold)
    merged = [TokenStream(s.doc_id, apply_phrases(phrases, s.tokens)) for s in streams]
    vocab = build_vocabulary(merged, config.no_below, config.no_above)
    bows = [to_bow(s, vocab) for s in merged]
    write_vocabulary(vocab, ws.path_for("vocab"))
    write_bows(bows, ws.path_for("bows"))


def cmd_train_static(config: RunConfig, ws: Workspace, manifest: dict) -> None:
    bows = read_bows(ws.require(manifest, "bows"))
    vocab = read_vocabulary(ws.require(manifest, "vocab"))
    model = train_lda(bows, len(vocab), config.hyper)
    save_lda(model, ws.path_for("model_static"))


def cmd_train_dtm(config: RunConfig, ws: Workspace, manifest: dict) -> None:
    bows = read_bows(ws.require(manifest, "bows"))
    vocab = read_vocabulary(ws.require(manifest, "vocab"))
    corpus = load_corpus(ws.require(manifest, "corpus"))
    slices = slice_monthly(corpus, config.anchor_day, config.first_start, config.n_slices)
    sizes = [len(s) for s in slices]
    logger.info("slice sizes: %s (total %d)", sizes, sum(sizes))
    by_id = {bow.doc_id: bow for bow in bows}
    # require() checked bows against this corpus, and preprocess wrote one per document.
    sliced = [(s, [by_id[doc_id] for doc_id in s.doc_ids]) for s in slices]
    model = train_dtm(sliced, config.hyper, config.kappa, vocab_size=len(vocab))
    save_dtm(model, ws.path_for("model_dtm"))


def cmd_report(config: RunConfig, ws: Workspace, manifest: dict) -> None:
    model = load_lda(ws.require(manifest, "model_static"))
    bows = read_bows(ws.require(manifest, "bows"))
    vocab = read_vocabulary(ws.require(manifest, "vocab"))
    dtm_model = load_dtm(ws.require(manifest, "model_dtm"))

    report = umass_coherence(model, bows, config.top_n)
    logger.info("mean UMass coherence over %d topics: %.4f", model.n_topics, report.mean)
    write_coherence_json(report, ws.path_for("coherence"))
    write_overlap_json(topic_overlap(model, config.top_n), config.top_n, ws.path_for("overlap"))
    write_intertopic_csv(intertopic_map(model), ws.path_for("intertopic"))

    final_slice = dtm_model.n_slices - 1
    all_series = []
    for topic in range(dtm_model.base_hyper.k):
        summary = top_words_at(
            dtm_model, topic, final_slice, config.trajectory_words, vocab
        )
        words = [term for term, _ in summary.terms]
        all_series.append(trajectory(dtm_model, topic, words, vocab))
    write_trajectory_csv(all_series, ws.path_for("trajectories"))


def cmd_plot(config: RunConfig, ws: Workspace, manifest: dict) -> None:
    from newstm.viz import FigureSpec, plot_intertopic, plot_timeline, plot_trajectories

    series = read_timeline_csv(ws.require(manifest, "timeline"))
    topic_map = read_intertopic_csv(ws.require(manifest, "intertopic"))
    trajectories = read_trajectory_csv(ws.require(manifest, "trajectories"))
    figures_dir = ws.figures_dir

    def spec(title: str, stem: str) -> FigureSpec:
        return FigureSpec(title, config.fig_width, config.fig_height, figures_dir / f"{stem}.svg")

    plot_timeline(series, spec("Articles per day", "timeline"))
    plot_intertopic(topic_map, spec("Intertopic distance map", "intertopic"))
    for ts in trajectories:
        title = f"Topic {ts.topic_id} keyword trajectories"
        plot_trajectories(ts, spec(title, f"trajectory_topic_{ts.topic_id}"))
    # An earlier model with more topics leaves figures this one does not write.
    written = {f"trajectory_topic_{ts.topic_id}.svg" for ts in trajectories}
    for stale in figures_dir.glob("trajectory_topic_*.svg"):
        if stale.name not in written:
            stale.unlink()
    logger.info("figures written to %s", figures_dir)


# Producer name, as `_ARTIFACTS` spells it -> the command that writes its artifacts.
_COMMANDS: dict[str, Callable[[RunConfig, Workspace, dict], None]] = {
    "ingest": cmd_ingest,
    "preprocess": cmd_preprocess,
    "train --mode static": cmd_train_static,
    "train --mode dtm": cmd_train_dtm,
    "report": cmd_report,
    "plot": cmd_plot,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--workspace", default=argparse.SUPPRESS, help="workspace directory (default: ./workspace)"
    )
    common.add_argument(
        "--config", default=argparse.SUPPRESS, help="INI config file; flags win over the file"
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="override lda.seed"
    )
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="SECTION.KEY=VALUE",
        default=argparse.SUPPRESS,
        help="override any config key (repeatable)",
    )

    parser = argparse.ArgumentParser(
        prog="newstm",
        description="Topic-modelling pipeline over a dated news corpus.",
        parents=[common],
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[common], help="load, filter and summarise the corpus")
    sub.add_parser("preprocess", parents=[common], help="tokenise and build vocab + bows")
    train = sub.add_parser("train", parents=[common], help="train a topic model")
    train.add_argument("--mode", choices=("static", "dtm"), required=True)
    sub.add_parser("report", parents=[common], help="coherence/overlap/map/trajectory exports")
    sub.add_parser("plot", parents=[common], help="render SVG figures from the exports")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    workspace = Workspace(getattr(args, "workspace", "workspace"))
    try:
        config = load_config(
            getattr(args, "config", None),
            getattr(args, "overrides", None),
            getattr(args, "seed", None),
        )
        command = args.command + (f" --mode {args.mode}" if "mode" in args else "")
        outputs = [name for name, (_, producer, _) in _ARTIFACTS.items() if producer == command]
        with workspace.lock():
            manifest = workspace.load_manifest()
            _COMMANDS[command](config, workspace, manifest)
            if outputs:  # plot writes figures only and leaves manifest.json alone
                workspace.record(manifest, *outputs)
        return 0
    except ValidationError as exc:
        logger.error("%s", exc)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
