"""Child process of the benchmark: one fresh interpreter per measured command.

Usage: ``python3 worker.py '<request JSON>'``.  The request names the
checkout's ``src`` directory, a ``result`` path for this process's JSON
answer, and an ``action``:

* ``cli``: time ``cwemap.cli.main(argv)`` in-process; with ``trace`` set,
  record spans around the program's layer functions while it runs;
* ``load``: time one ``modelstore.load`` of ``model``; with ``verify``,
  also fingerprint the model and evaluate a predictions file.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import spans

# Span name, module, attribute.  Each attribute is the name the program
# calls through, so wrapping it sees every call made by that route.
TARGETS = (
    ("ingest.load_cve_corpus", "cwemap.ingest", "load_cve_corpus"),
    ("ingest.load_taxonomy", "cwemap.ingest", "load_taxonomy"),
    ("textprep.preprocess", "cwemap.hierarchy", "preprocess"),
    ("stemmer.stem", "cwemap.textprep", "stem"),
    ("features.build_dictionary", "cwemap.hierarchy", "build_dictionary"),
    ("features.encode", "cwemap.hierarchy", "encode"),
    ("scoring.init_weights", "cwemap.hierarchy", "init_weights"),
    ("hierarchy.build_class_documents", "cwemap.hierarchy", "build_class_documents"),
    ("hierarchy.assemble_training_sets", "cwemap.hierarchy", "assemble_training_sets"),
    ("hierarchy.classify", "cwemap.hierarchy", "classify"),
    ("netcore.train_node", "cwemap.hierarchy", "train_node"),
    ("netcore.forward_scores", "cwemap.hierarchy", "forward_scores"),
    ("netcore.gradient", "cwemap.netcore", "gradient"),
    ("netcore.batch_loss", "cwemap.netcore", "batch_loss"),
    ("netcore.adam_step", "cwemap.netcore", "adam_step"),
    ("modelstore.save", "cwemap.modelstore", "save"),
    ("modelstore.load", "cwemap.modelstore", "load"),
    ("evaluation.evaluate", "cwemap.evaluation", "evaluate"),
)
# Spans whose distinct first arguments (texts, tokens) are counted.
KEYED = {"textprep.preprocess", "stemmer.stem"}


def peak_rss_mb() -> float:
    """This process's own peak resident memory (VmHWM).

    ``getrusage`` would also count the memory of the parent that spawned it.
    """
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def install(recorder: spans.SpanRecorder) -> None:
    for name, module, attr in TARGETS:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            recorder.absent.append(name)
            continue
        recorder.patch(owner, attr, name, keyed=name in KEYED)


def run_cli(argv: list[str], trace: bool) -> dict:
    from cwemap import cli

    recorder = spans.SpanRecorder() if trace else None
    if recorder is not None:
        install(recorder)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    sys.stdout.flush()
    result = {"exit_code": code, "wall_s": wall, "peak_rss_mb": peak_rss_mb()}
    if recorder is not None:
        recorder.restore()
        recorded = recorder.spans()
        layers = spans.summarize(recorded)
        for name, keys in recorder.distinct.items():
            layers[name]["distinct"] = len(keys)
        result["layers"] = layers
        result["absent"] = recorder.absent
        result["coverage"] = spans.root_coverage(recorded, wall)
    return result


def run_load(model: str, verify: dict | None) -> dict:
    from cwemap import evaluation, ingest, modelstore

    start = time.perf_counter()
    loaded = modelstore.load(model)
    result = {"load_s": time.perf_counter() - start}
    if verify:
        predictions = evaluation.load_predictions(verify["predictions"])
        heldout = ingest.load_cve_corpus(verify["corpus"])
        result.update(
            fingerprint=modelstore.fingerprint(loaded),
            dictionary_size=loaded.dictionary.size,
            fine_acc=evaluation.evaluate(predictions, heldout, loaded.taxonomy, "fine").accuracy,
            coarse_acc=evaluation.evaluate(predictions, heldout, loaded.taxonomy,
                                           "coarse").accuracy,
        )
    return result


def main() -> None:
    request = json.loads(sys.argv[1])
    sys.path.insert(0, request["src"])
    if request["action"] == "cli":
        result = run_cli(request["argv"], request.get("trace", False))
    else:
        result = run_load(request["model"], request.get("verify"))
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
