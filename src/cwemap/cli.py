"""Batch command-line interface.

Subcommands: ``ingest`` (NVD feed to corpus JSONL), ``train`` (full
pipeline to a model directory), ``classify`` (corpus or stdin to
predictions JSONL), ``eval`` (metric reports, optional model comparison).
Options may come from a JSON config file (--config); explicit flags win.
``classify`` and ``eval`` keep, at each node, the children scoring at least
the model's threshold, or ``--tau``; ``--k N`` keeps the N best-scoring
children instead (giving both exits 2).

Exit codes: 0 success, 2 input/config problem, 3 training failure,
4 model integrity failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation, hierarchy, ingest, modelstore
from .errors import (
    ConfigurationError,
    CwemapError,
    FormatError,
    IntegrityError,
    ParseError,
    TrainingError,
    ValidationError,
    VersionError,
)
from .netcore import TrainConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRAINING = 3
EXIT_INTEGRITY = 4

_INPUT_ERRORS = (ParseError, ValidationError, FormatError, ConfigurationError,
                 FileNotFoundError, NotADirectoryError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwemap",
        description="Classify CVE descriptions to CWE weakness classes "
        "with a hierarchy of TF-IDF-initialized classifiers.",
    )
    parser.add_argument("--config", help="JSON file with defaults for any flag")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="convert an NVD JSON feed to corpus JSONL")
    p_ingest.add_argument("--feed", required=True, help="NVD 1.1 JSON data-feed file")
    p_ingest.add_argument("--out", required=True, help="output corpus JSONL path")

    p_train = sub.add_parser("train", help="train a model and save it to a directory")
    p_train.add_argument("--corpus", help="labeled corpus JSONL")
    p_train.add_argument("--taxonomy", help="taxonomy JSON")
    p_train.add_argument("--stopwords", help="stopword file (default: packaged list)")
    p_train.add_argument("--synonyms", help="synonym table JSON (default: packaged table)")
    p_train.add_argument("--model", help="output model directory")
    p_train.add_argument("--baseline", choices=["flat", "two-layer"])
    p_train.add_argument("--hidden", type=int, default=None,
                         help="hidden width for the two-layer baseline "
                         f"(default {hierarchy.DEFAULT_HIDDEN_SIZE})")
    p_train.add_argument("--init", choices=["tfidf", "random"], default=None,
                         help="weight initialization for the hierarchical model")
    p_train.add_argument("--th", type=int, default=None, help="dictionary min term count")
    p_train.add_argument("--lr", type=float, default=None, help="learning rate")
    p_train.add_argument("--tau", type=float, default=None, help="decision threshold")
    p_train.add_argument("--max-epochs", type=int, default=None)
    p_train.add_argument("--batch-size", type=int, default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--jobs", type=int, default=None,
                         help="deprecated; ignored: node training is serial")
    p_train.add_argument("--split", type=float, default=None,
                         help="train on this seeded fraction of the corpus")
    p_train.add_argument("--log-dir", help="write per-node epoch,loss CSV logs here")

    p_classify = sub.add_parser("classify", help="classify a corpus file or stdin text")
    p_classify.add_argument("--model", required=True, help="model directory")
    p_classify.add_argument("--corpus", help="corpus JSONL; omitted reads one text from stdin")
    p_classify.add_argument("--out", help="predictions JSONL (default: stdout)")

    p_eval = sub.add_parser("eval", help="classify a labeled corpus once and report "
                            "fine- and coarse-grain metrics")
    p_eval.add_argument("--model", required=True, help="model directory")
    p_eval.add_argument("--corpus", required=True, help="labeled corpus JSONL")
    p_eval.add_argument("--out", help="directory for report.json / report.txt")
    p_eval.add_argument("--split", type=float, default=None,
                        help="evaluate on the held-out part of this seeded split")
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--compare", help="second model dir or predictions JSONL to compare")
    for p_descend in (p_classify, p_eval):
        p_descend.add_argument("--tau", type=float, default=None,
                               help="keep the children scoring at least this "
                               "(default: the model's)")
        p_descend.add_argument("--k", type=int, default=None,
                               help="keep the k best-scoring children instead")
    return parser


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser
                       ) -> argparse.Namespace:
    """Fill the flags left unset from --config; explicit flags win.

    Every value must have its flag's type (an integer passes for a float, a
    boolean for nothing) and be one of its choices; else ConfigurationError.
    """
    if not args.config:
        return args
    path = Path(args.config)
    try:
        overrides = json.loads(ingest.read_input_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON ({exc.msg})", path=path, line=exc.lineno) from exc
    if not isinstance(overrides, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {a.dest: a for a in subparsers.choices[args.command]._actions
               if hasattr(args, a.dest)}
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            continue
        kind = action.type or str
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if isinstance(value, bool) or not isinstance(value, kind) or (
            action.choices is not None and value not in action.choices
        ):
            expected = f"one of {list(action.choices)}" if action.choices else f"a {kind.__name__}"
            raise ConfigurationError(f"{path}: {key} must be {expected}, not {value!r}")
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)
    return args


def _check_output_dir(flag: str, path: str) -> None:
    """ConfigurationError unless ``path`` is a directory or could be made one."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigurationError(f"{flag} {path}: {existing} is not a writable directory")


# TrainConfig field of each train flag.
_CONFIG_FLAGS = {"lr": "learning_rate", "tau": "decision_threshold", "max_epochs": "max_epochs",
                 "batch_size": "batch_size", "seed": "seed", "th": "min_term_count",
                 "init": "weight_init"}


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(**{name: getattr(args, flag) for flag, name in _CONFIG_FLAGS.items()
                          if getattr(args, flag) is not None})


def _selection(args: argparse.Namespace):
    """The descent rule: top-k with ``--k``, threshold with ``--tau``, and the
    model's own threshold (None) with neither."""
    if args.k is not None and args.tau is not None:
        raise ConfigurationError("--k and --tau pick different rules; give one of them")
    if args.k is not None:
        return hierarchy.top_k(args.k)
    return None if args.tau is None else hierarchy.threshold(args.tau)


def _load_assets(args: argparse.Namespace) -> hierarchy.PrepAssets:
    stopwords = ingest.load_stopwords(getattr(args, "stopwords", None))
    synonyms = ingest.load_synonyms(getattr(args, "synonyms", None), stopwords)
    return hierarchy.PrepAssets(stopwords=stopwords, synonyms=synonyms)


def cmd_ingest(args: argparse.Namespace) -> int:
    records = ingest.import_nvd_feed(args.feed)
    ingest.write_cve_corpus(records, args.out)
    labeled = sum(1 for r in records if r.cwe_labels)
    print(f"{len(records)} records, {labeled} labeled -> {args.out}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    if not args.corpus or not args.taxonomy or not args.model:
        raise ConfigurationError("train needs --corpus, --taxonomy, and --model")
    _check_output_dir("--model", args.model)
    if args.log_dir is not None:
        try:
            Path(args.log_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"--log-dir {args.log_dir}: {exc.strerror}") from exc
    corpus = ingest.load_cve_corpus(args.corpus)
    taxonomy = ingest.load_taxonomy(args.taxonomy)
    assets = _load_assets(args)
    cfg = _train_config(args)
    if args.split is not None:
        corpus, _ = evaluation.split_corpus(corpus, args.split, cfg.seed)
        print(f"training on seeded split: {len(corpus)} records")
    try:
        model = hierarchy.train_hierarchy(
            corpus, taxonomy, assets, cfg, log_dir=args.log_dir,
            kind=args.baseline or "hierarchical",
            hidden_size=args.hidden if args.hidden is not None else hierarchy.DEFAULT_HIDDEN_SIZE,
        )
    except MemoryError as exc:
        raise TrainingError("out of memory") from exc
    modelstore.save(model, args.model)
    for node_id in sorted(model.epochs_run):
        print(f"{node_id}: {model.epochs_run[node_id]} epochs")
    print(f"model saved to {args.model} (fingerprint {modelstore.fingerprint(model)[:12]})")
    return EXIT_OK


def _classify_records(model, records: list[ingest.CveRecord], selection):
    return hierarchy.classify(model, [r.description for r in records], selection,
                              ids=[r.id for r in records])


def cmd_classify(args: argparse.Namespace) -> int:
    model = modelstore.load(args.model)
    selection = _selection(args)
    if args.corpus:
        predictions = _classify_records(model, ingest.load_cve_corpus(args.corpus), selection)
    else:
        text = sys.stdin.read()
        if not text.strip():
            raise ValidationError("empty description on stdin")
        predictions = hierarchy.classify(model, [text], selection, ids=["stdin"])
    if args.out:
        evaluation.write_predictions(predictions, args.out)
    else:
        for pred in predictions:
            print(json.dumps(pred.to_json_dict(), ensure_ascii=False))
    return EXIT_OK


def _resolved_test_set(records: list[ingest.CveRecord], taxonomy: ingest.Taxonomy
                       ) -> list[ingest.CveRecord]:
    """The records with a label in ``taxonomy``, each keeping only those labels.

    Each missing label and each skipped record is warned about here, once,
    so the evaluations that follow have nothing left to warn about.
    """
    kept = []
    for record, labels in zip(records, hierarchy.resolve_labels(records, taxonomy)):
        if labels:
            kept.append(record if labels == record.cwe_labels
                        else replace(record, cwe_labels=labels))
        else:
            logger.warning("%s: no resolvable labels, record skipped", record.id)
    if not kept:
        raise ValidationError("no test records with resolvable labels")
    return kept


def _evaluate_both(predictions, test_set, taxonomy):
    return (evaluation.evaluate(predictions, test_set, taxonomy, "fine"),
            evaluation.evaluate(predictions, test_set, taxonomy, "coarse"))


def _eval_model(model, test_set, selection):
    """Classify the test set once and evaluate those predictions in both modes."""
    return _evaluate_both(_classify_records(model, test_set, selection), test_set,
                          model.taxonomy)


def cmd_eval(args: argparse.Namespace) -> int:
    if args.out:
        _check_output_dir("--out", args.out)
    model = modelstore.load(args.model)
    corpus = ingest.load_cve_corpus(args.corpus)
    if args.split is not None:
        seed = args.seed if args.seed is not None else model.config.seed
        _, corpus = evaluation.split_corpus(corpus, args.split, seed)
        print(f"evaluating on seeded split: {len(corpus)} records")
    corpus = _resolved_test_set(corpus, model.taxonomy)
    selection = _selection(args)
    fine, coarse = _eval_model(model, corpus, selection)
    print(evaluation.format_report_table(fine, coarse))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        evaluation.write_report(fine, coarse, out / "report.json", out / "report.txt")
        print(f"reports written to {out}")
    if args.compare:
        compare_path = Path(args.compare)
        if compare_path.is_dir():
            other_fine, other_coarse = _eval_model(modelstore.load(compare_path), corpus,
                                                   selection)
        else:
            other_fine, other_coarse = _evaluate_both(
                evaluation.load_predictions(compare_path), corpus, model.taxonomy)
        print()
        print(f"{'Accuracy':<12} {'this model':>12} {'compared':>12}")
        print(f"{'fine-grain':<12} {fine.accuracy:>12.4f} {other_fine.accuracy:>12.4f}")
        print(f"{'coarse-grain':<12} {coarse.accuracy:>12.4f} {other_coarse.accuracy:>12.4f}")
    return EXIT_OK


_COMMANDS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "classify": cmd_classify,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args, parser)
        return _COMMANDS[args.command](args)
    except (IntegrityError, VersionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CwemapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
