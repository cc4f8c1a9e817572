"""Batch command-line interface.

Subcommands: ``ingest`` (NVD feed to corpus JSONL), ``train`` (full
pipeline to a model directory), ``classify`` (corpus or stdin to
predictions JSONL), ``eval`` (metric reports, optional model comparison).
Options may come from a JSON config file (--config); explicit flags win.

Exit codes: 0 success, 2 input/config problem, 3 training failure,
4 model integrity failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
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
    p_train.add_argument("--hidden", type=int, default=hierarchy.DEFAULT_HIDDEN_SIZE,
                         help="hidden width for the two-layer baseline")
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
    p_classify.add_argument("--mode", choices=["threshold", "topk"], default=None)
    p_classify.add_argument("--tau", type=float, default=None)
    p_classify.add_argument("--k", type=int, default=None)

    p_eval = sub.add_parser("eval", help="evaluate a model on a labeled corpus")
    p_eval.add_argument("--model", required=True, help="model directory")
    p_eval.add_argument("--corpus", required=True, help="labeled corpus JSONL")
    p_eval.add_argument("--out", help="directory for report.json / report.txt")
    p_eval.add_argument("--mode", choices=["threshold", "topk"], default=None)
    p_eval.add_argument("--tau", type=float, default=None)
    p_eval.add_argument("--k", type=int, default=None)
    p_eval.add_argument("--split", type=float, default=None,
                        help="evaluate on the held-out part of this seeded split")
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--compare", help="second model dir or predictions JSONL to compare")
    return parser


def _apply_config_file(args: argparse.Namespace) -> argparse.Namespace:
    if not args.config:
        return args
    path = Path(args.config)
    try:
        overrides = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON ({exc.msg})", path=path, line=exc.lineno) from exc
    if not isinstance(overrides, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, value)
    return args


def _train_config(args: argparse.Namespace) -> TrainConfig:
    kwargs = {}
    if args.lr is not None:
        kwargs["learning_rate"] = args.lr
    if args.tau is not None:
        kwargs["decision_threshold"] = args.tau
    if args.max_epochs is not None:
        kwargs["max_epochs"] = args.max_epochs
    if args.batch_size is not None:
        kwargs["batch_size"] = args.batch_size
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.th is not None:
        kwargs["min_term_count"] = args.th
    if getattr(args, "init", None) is not None:
        kwargs["weight_init"] = args.init
    return TrainConfig(**kwargs)


def _selection(args: argparse.Namespace):
    if args.mode == "topk":
        return hierarchy.top_k(args.k if args.k is not None else 1)
    if args.mode == "threshold" or args.tau is not None:
        return hierarchy.threshold(args.tau) if args.tau is not None else None
    return None


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
    corpus = ingest.load_cve_corpus(args.corpus)
    taxonomy = ingest.load_taxonomy(args.taxonomy)
    assets = _load_assets(args)
    cfg = _train_config(args)
    if args.split is not None:
        corpus, _ = evaluation.split_corpus(corpus, args.split, cfg.seed)
        print(f"training on seeded split: {len(corpus)} records")
    try:
        if args.baseline == "flat":
            model = hierarchy.train_flat_baseline(corpus, taxonomy, assets, cfg)
        elif args.baseline == "two-layer":
            model = hierarchy.train_two_layer_baseline(
                corpus, taxonomy, assets, cfg, hidden_size=args.hidden
            )
        else:
            model = hierarchy.train_hierarchy(corpus, taxonomy, assets, cfg, log_dir=args.log_dir)
    except MemoryError as exc:
        raise TrainingError("out of memory") from exc
    modelstore.save(model, args.model)
    for node_id in sorted(model.epochs_run):
        print(f"{node_id}: {model.epochs_run[node_id]} epochs")
    print(f"model saved to {args.model} (fingerprint {modelstore.fingerprint(model)[:12]})")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    model = modelstore.load(args.model)
    selection = _selection(args)
    classify_fn = (
        hierarchy.classify_flat if isinstance(model, hierarchy.FlatModel) else hierarchy.classify
    )
    predictions = []
    if args.corpus:
        for record in ingest.load_cve_corpus(args.corpus):
            predictions.append(
                classify_fn(model, record.description, selection, cve_id=record.id)
            )
    else:
        text = sys.stdin.read()
        if not text.strip():
            raise ValidationError("empty description on stdin")
        predictions.append(classify_fn(model, text, selection, cve_id="stdin"))
    if args.out:
        evaluation.write_predictions(predictions, args.out)
    else:
        for pred in predictions:
            print(json.dumps(pred.to_json_dict(), ensure_ascii=False))
    return EXIT_OK


def _eval_both_modes(model, test_set, selection):
    fine = evaluation.evaluate_model(model, test_set, "fine", selection=selection)
    coarse = evaluation.evaluate_model(model, test_set, "coarse", selection=selection)
    return fine, coarse


def cmd_eval(args: argparse.Namespace) -> int:
    model = modelstore.load(args.model)
    corpus = ingest.load_cve_corpus(args.corpus)
    if args.split is not None:
        seed = args.seed if args.seed is not None else model.config.seed
        _, corpus = evaluation.split_corpus(corpus, args.split, seed)
        print(f"evaluating on seeded split: {len(corpus)} records")
    selection = _selection(args)
    fine, coarse = _eval_both_modes(model, corpus, selection)
    print(evaluation.format_report_table(fine, coarse))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        evaluation.write_report(fine, coarse, out / "report.json", out / "report.txt")
        print(f"reports written to {out}")
    if args.compare:
        compare_path = Path(args.compare)
        if compare_path.is_dir():
            other = modelstore.load(compare_path)
            other_fine, other_coarse = _eval_both_modes(other, corpus, selection)
        else:
            predictions = evaluation.load_predictions(compare_path)
            other_fine = evaluation.evaluate(predictions, corpus, model.taxonomy, "fine")
            other_coarse = evaluation.evaluate(predictions, corpus, model.taxonomy, "coarse")
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
        args = _apply_config_file(args)
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
