"""Exit codes of the command-line interface at its input boundaries, and the
output contract the benchmark reads."""

import io
import json
import logging
import re
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import synthdata
from cwemap import cli, evaluation, hierarchy, ingest, modelstore
from cwemap.ingest import save_taxonomy, write_cve_corpus
from cwemap.modelstore import DICTIONARY, MANIFEST, TAXONOMY


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    taxonomy, leaves, pools = synthdata.two_level_taxonomy(pool_size=20, seed=5)
    corpus = synthdata.make_corpus(leaves, pools, per_leaf=8, seed=11)
    write_cve_corpus(corpus, root / "corpus.jsonl")
    save_taxonomy(taxonomy, root / "taxonomy.json")
    return root


def train_argv(inputs, model, *extra):
    return ["train", "--corpus", str(inputs / "corpus.jsonl"),
            "--taxonomy", str(inputs / "taxonomy.json"), "--max-epochs", "3",
            "--th", "1", "--model", str(model), *extra]


@pytest.fixture(scope="module")
def model_dir(inputs, tmp_path_factory):
    model = tmp_path_factory.mktemp("trained") / "model"
    assert cli.main(train_argv(inputs, model)) == cli.EXIT_OK
    return model


@pytest.fixture
def damaged(model_dir, tmp_path):
    copy = tmp_path / "model"
    shutil.copytree(model_dir, copy)
    return copy


def classify(model, inputs):
    return cli.main(["classify", "--model", str(model), "--corpus",
                     str(inputs / "corpus.jsonl"), "--out", str(model.parent / "p.jsonl")])


class TestTrain:
    def test_jobs_flag_still_accepted(self, inputs, tmp_path):
        assert cli.main(train_argv(inputs, tmp_path / "m", "--jobs", "2")) == cli.EXIT_OK

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_is_input_error(self, inputs, tmp_path, lr):
        assert cli.main(train_argv(inputs, tmp_path / "m", "--lr", lr)) == cli.EXIT_INPUT

    def test_diverging_training_exits_3(self, inputs, tmp_path):
        with np.errstate(all="ignore"):
            code = cli.main(train_argv(inputs, tmp_path / "m", "--lr", "1e308"))
        assert code == cli.EXIT_TRAINING
        assert not (tmp_path / "m").exists()

    def test_diverging_two_layer_training_exits_3(self, inputs, tmp_path):
        argv = train_argv(inputs, tmp_path / "m", "--lr", "1e308", "--baseline", "two-layer",
                          "--hidden", "4")
        with np.errstate(all="ignore"):
            code = cli.main(argv)
        assert code == cli.EXIT_TRAINING
        assert not (tmp_path / "m").exists()


class TestModelOutputPath:
    """``train --model`` is checked before any work is done."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was read before --model was checked")

        monkeypatch.setattr(ingest, "load_cve_corpus", refuse)

    def test_existing_file_exits_2(self, inputs, tmp_path, no_work):
        (tmp_path / "m").write_text("keep me", encoding="utf-8")
        assert cli.main(train_argv(inputs, tmp_path / "m")) == cli.EXIT_INPUT
        assert (tmp_path / "m").read_text(encoding="utf-8") == "keep me"

    def test_path_below_a_file_exits_2(self, inputs, tmp_path, no_work):
        (tmp_path / "file").write_text("", encoding="utf-8")
        model = tmp_path / "file" / "sub" / "m"
        assert cli.main(train_argv(inputs, model)) == cli.EXIT_INPUT

    def test_existing_directory_is_reused(self, inputs, tmp_path):
        (tmp_path / "m").mkdir()
        assert cli.main(train_argv(inputs, tmp_path / "m")) == cli.EXIT_OK
        assert modelstore.load(tmp_path / "m").dictionary.size > 0


class TestConfigValues:
    """A ``--config`` value must have the type and choices of its flag."""

    @pytest.mark.parametrize("doc", [
        {"hidden": "3"}, {"lr": "x"}, {"tau": [1]}, {"max_epochs": 2.5},
        {"baseline": "deep"}, {"seed": True}, {"init": 1},
    ], ids=["hidden-string", "lr-string", "tau-list", "max-epochs-float",
            "baseline-choice", "seed-bool", "init-number"])
    def test_mistyped_value_exits_2(self, inputs, tmp_path, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["--config", str(config)] + train_argv(inputs, tmp_path / "m",
                                                      "--baseline", "two-layer")
        if "baseline" in doc:
            argv = ["--config", str(config)] + train_argv(inputs, tmp_path / "m")
        assert cli.main(argv) == cli.EXIT_INPUT
        assert not (tmp_path / "m").exists()

    def test_integer_for_a_float_flag_is_accepted(self, inputs, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"lr": 1, "tau": 0.5, "init": "random"}', encoding="utf-8")
        argv = ["--config", str(config)] + train_argv(inputs, tmp_path / "m")
        assert cli.main(argv) == cli.EXIT_OK
        loaded = modelstore.load(tmp_path / "m").config
        assert (loaded.learning_rate, loaded.decision_threshold) == (1.0, 0.5)
        assert loaded.weight_init == "random"


class TestModelIntegrity:
    def test_intact_model_classifies(self, model_dir, inputs):
        assert classify(model_dir, inputs) == cli.EXIT_OK

    @pytest.mark.parametrize(
        "text",
        ["{", "", "[]", "{}", '"manifest"', '{"format_version": 1, "model_kind": "hierarchical"}'],
        ids=["truncated", "empty", "array", "empty-object", "string", "missing-keys"],
    )
    def test_bad_manifest_exits_4(self, damaged, inputs, text):
        (damaged / MANIFEST).write_text(text, encoding="utf-8")
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    def test_manifest_with_bad_node_entry_exits_4(self, damaged, inputs):
        manifest = (damaged / MANIFEST).read_text(encoding="utf-8")
        (damaged / MANIFEST).write_text(manifest.replace('"files"', '"filez"'),
                                        encoding="utf-8")
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    def test_two_layer_manifest_naming_other_files_exits_4(self, inputs, tmp_path):
        model = tmp_path / "model"
        argv = train_argv(inputs, model, "--baseline", "two-layer", "--hidden", "4")
        assert cli.main(argv) == cli.EXIT_OK
        manifest = (model / MANIFEST).read_text(encoding="utf-8")
        (model / MANIFEST).write_text(manifest.replace(".out.f64le", ".output.f64le"),
                                      encoding="utf-8")
        assert classify(model, inputs) == cli.EXIT_INTEGRITY

    def test_weight_file_that_is_a_directory_exits_4(self, damaged, inputs):
        weight = damaged / "weights" / "ROOT.f64le"
        weight.unlink()
        weight.mkdir()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    def test_manifest_that_is_a_directory_exits_4(self, damaged, inputs):
        (damaged / MANIFEST).unlink()
        (damaged / MANIFEST).mkdir()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    def test_non_utf8_manifest_exits_4(self, damaged, inputs):
        manifest = (damaged / MANIFEST).read_bytes()
        (damaged / MANIFEST).write_bytes(manifest.replace(b'"config"', b'"conf\xffig"'))
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["config"]["assets"].update(stopwords=5),
        lambda doc: doc["config"].update(max_epochs="x"),
        lambda doc: doc.update(format_version=True),
        lambda doc: doc["config"].update(assets=[]),
        lambda doc: doc["nodes"][0].update(child_ids=["CWE-1"]),
    ], ids=["stopwords-number", "max-epochs-string", "format-version-bool", "assets-list",
            "child-count"])
    def test_mistyped_manifest_value_exits_4(self, damaged, inputs, edit):
        doc = json.loads((damaged / MANIFEST).read_text(encoding="utf-8"))
        edit(doc)
        (damaged / MANIFEST).write_text(json.dumps(doc), encoding="utf-8")
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    @pytest.mark.parametrize("code", ["sql inject", "", "sql\tinject"],
                             ids=["space", "empty", "tab"])
    def test_synonym_code_not_one_token_exits_4(self, damaged, inputs, code):
        # Encoding assumes no token holds a space; a code is a token.
        doc = json.loads((damaged / MANIFEST).read_text(encoding="utf-8"))
        doc["config"]["assets"]["synonym_groups"][0]["code"] = code
        (damaged / MANIFEST).write_text(json.dumps(doc), encoding="utf-8")
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    def test_synonym_code_defined_twice_exits_4(self, damaged, inputs):
        doc = json.loads((damaged / MANIFEST).read_text(encoding="utf-8"))
        groups = doc["config"]["assets"]["synonym_groups"]
        groups[1]["code"] = groups[0]["code"]
        (damaged / MANIFEST).write_text(json.dumps(doc), encoding="utf-8")
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    def test_dictionary_position_out_of_range_exits_4(self, damaged, inputs):
        lines = (damaged / DICTIONARY).read_text(encoding="utf-8").splitlines()
        _, term, count = lines[1].split("\t")
        lines[1] = f"999999\t{term}\t{count}"
        (damaged / DICTIONARY).write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    @pytest.mark.parametrize("name", [DICTIONARY, TAXONOMY, MANIFEST])
    def test_missing_file_exits_4(self, damaged, inputs, name):
        (damaged / name).unlink()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    @pytest.mark.parametrize("name", [DICTIONARY, TAXONOMY])
    def test_corrupt_file_exits_4(self, damaged, inputs, name):
        (damaged / name).write_text("0\tonly two", encoding="utf-8")
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY


def _drop_entry(node_id):
    def edit(doc, model):
        doc["nodes"] = [e for e in doc["nodes"] if e["node_id"] != node_id]
    return edit


def _set_child_ids(node_id, child_ids):
    def edit(doc, model):
        next(e for e in doc["nodes"] if e["node_id"] == node_id)["child_ids"] = child_ids
    return edit


def _duplicate_entry(doc, model):
    doc["nodes"].append(next(e for e in doc["nodes"] if e["node_id"] == "CWE-100"))


def _five_weight_rows(doc, model):
    entry = next(e for e in doc["nodes"] if e["node_id"] == "CWE-100")
    entry["files"]["CWE-100.f64le"] = [5, 2]
    (model / "weights" / "CWE-100.f64le").write_bytes(np.zeros((5, 2), dtype="<f8").tobytes())


# Scorer sets that do not match the saved taxonomy and dictionary: the
# taxonomy is ROOT -> CWE-100 -> (CWE-102, CWE-103) and ROOT -> CWE-101.
SCORER_PROBES = {
    "no-root-entry": (_drop_entry("ROOT"), "ROOT"),
    "no-inner-entry": (_drop_entry("CWE-100"), "CWE-100"),
    "child-ids-reversed": (_set_child_ids("CWE-100", ["CWE-103", "CWE-102"]), "CWE-100"),
    "child-id-not-a-child": (_set_child_ids("CWE-100", ["CWE-102", "CWE-104"]), "CWE-100"),
    "weight-rows-not-dictionary-size": (_five_weight_rows, "CWE-100"),
    "duplicate-entry": (_duplicate_entry, "CWE-100"),
}


class TestModelScorers:
    @pytest.mark.parametrize("probe", list(SCORER_PROBES))
    def test_scorers_not_matching_the_taxonomy_exit_4_naming_the_node(
            self, damaged, inputs, capsys, probe):
        edit, node = SCORER_PROBES[probe]
        doc = json.loads((damaged / MANIFEST).read_text(encoding="utf-8"))
        edit(doc, damaged)
        (damaged / MANIFEST).write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY
        assert node in capsys.readouterr().err


GOOD_LINE = '{"id": "CVE-2020-0001", "description": "some text", "cwe_labels": ["CWE-100"]}'
BAD_LINES = {
    "description-number": '{"id": "CVE-2020-0002", "description": 42, "cwe_labels": []}',
    "label-number": '{"id": "CVE-2020-0002", "description": "text", "cwe_labels": [7]}',
    "label-string": '{"id": "CVE-2020-0002", "description": "text", "cwe_labels": "CWE-79"}',
    "label-object": '{"id": "CVE-2020-0002", "description": "text", "cwe_labels": {"CWE-79": 1}}',
    "id-number": '{"id": 42, "description": "text", "cwe_labels": []}',
    "id-list": '{"id": ["CVE-2020-0002"], "description": "text"}',
    "description-null": '{"id": "CVE-2020-0002", "description": null}',
}


class TestCorpusBoundary:
    @pytest.mark.parametrize("line", BAD_LINES.values(), ids=BAD_LINES.keys())
    def test_mistyped_field_exits_2_naming_the_line(self, model_dir, tmp_path, capsys, line):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(GOOD_LINE + "\n" + line + "\n", encoding="utf-8")
        argv = ["classify", "--model", str(model_dir), "--corpus", str(corpus)]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert f"{corpus}:2:" in capsys.readouterr().err

    def test_non_utf8_corpus_exits_2(self, model_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(GOOD_LINE.encode() + b"\n" + GOOD_LINE.encode("utf-16") + b"\n")
        argv = ["classify", "--model", str(model_dir), "--corpus", str(corpus)]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert f"{corpus}:2:" in capsys.readouterr().err

    def test_directory_as_corpus_exits_2(self, model_dir, inputs, tmp_path):
        assert cli.main(["classify", "--model", str(model_dir),
                         "--corpus", str(tmp_path)]) == cli.EXIT_INPUT
        assert cli.main(["train", "--corpus", str(tmp_path), "--taxonomy",
                         str(inputs / "taxonomy.json"), "--model",
                         str(tmp_path / "m")]) == cli.EXIT_INPUT

    def test_directory_or_non_utf8_taxonomy_exits_2(self, inputs, tmp_path):
        bad = tmp_path / "taxonomy.json"
        bad.write_bytes(b'{"nodes": [{"id": "CWE-1", "name": "\xff"}]}')
        for taxonomy in (tmp_path, bad):
            argv = ["train", "--corpus", str(inputs / "corpus.jsonl"),
                    "--taxonomy", str(taxonomy), "--model", str(tmp_path / "m")]
            assert cli.main(argv) == cli.EXIT_INPUT

    def test_mistyped_field_exits_2_in_train(self, inputs, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(BAD_LINES["label-number"] + "\n", encoding="utf-8")
        argv = ["train", "--corpus", str(corpus), "--taxonomy", str(inputs / "taxonomy.json"),
                "--model", str(tmp_path / "m")]
        assert cli.main(argv) == cli.EXIT_INPUT


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
@st.composite
def corpus_lines(draw, good):
    """A corpus file: lines of ``good`` records with generated lines among them.

    A generated line is an object whose fields are each a valid value, any
    JSON value or missing; a JSON value that is not an object; or raw bytes.
    """
    record = draw(st.sampled_from(good))
    fields = {
        "id": st.sampled_from(["CVE-2031-0001", "CVE-2031-0002", record.id]),
        "description": st.sampled_from([record.description, "fresh words here"]),
        "cwe_labels": st.sampled_from([sorted(record.cwe_labels), ["CWE-100"], ["CWE-9999"]]),
    }
    obj = {}
    for name, valid in fields.items():
        kind = draw(st.sampled_from(["valid"] * 3 + ["json", "missing"]))
        if kind != "missing":
            obj[name] = draw(valid if kind == "valid" else JSON_VALUES)
    kind = draw(st.sampled_from(["object"] * 3 + ["json", "bytes"]))
    if kind == "object":
        line = json.dumps(obj).encode()
    elif kind == "json":
        line = json.dumps(draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))).encode()
    else:
        line = draw(st.binary(max_size=24))
    lines = [json.dumps({"id": r.id, "description": r.description,
                         "cwe_labels": sorted(r.cwe_labels)}).encode() for r in good]
    lines.insert(draw(st.integers(0, len(lines))), line)
    return b"\n".join(lines) + b"\n"


class TestCorpusFuzz:
    """Whatever a corpus line holds, ``train`` and ``classify --corpus`` exit 0 or 2."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_generated_corpus_lines_exit_0_or_2(self, inputs, model_dir, data):
        good = ingest.load_cve_corpus(inputs / "corpus.jsonl")[:4]
        content = data.draw(corpus_lines(good))
        with tempfile.TemporaryDirectory() as work:
            corpus = Path(work) / "corpus.jsonl"
            corpus.write_bytes(content)
            train = ["train", "--corpus", str(corpus), "--taxonomy",
                     str(inputs / "taxonomy.json"), "--max-epochs", "1", "--th", "1",
                     "--model", str(Path(work) / "m")]
            classify = ["classify", "--model", str(model_dir), "--corpus", str(corpus),
                        "--out", str(Path(work) / "p.jsonl")]
            assert cli.main(train) in (cli.EXIT_OK, cli.EXIT_INPUT)
            assert cli.main(classify) in (cli.EXIT_OK, cli.EXIT_INPUT)


class TestTrainFlags:
    def test_log_dir_created_with_parents(self, inputs, tmp_path):
        log_dir = tmp_path / "logs" / "nested"
        assert cli.main(train_argv(inputs, tmp_path / "m", "--log-dir", str(log_dir))) == 0
        assert sorted(p.name for p in log_dir.iterdir()) == [
            "CWE-100.csv", "CWE-101.csv", "ROOT.csv"]

    def test_log_dir_that_is_a_file_exits_2(self, inputs, tmp_path):
        (tmp_path / "logs").write_text("", encoding="utf-8")
        argv = train_argv(inputs, tmp_path / "m", "--log-dir", str(tmp_path / "logs"))
        assert cli.main(argv) == cli.EXIT_INPUT
        assert not (tmp_path / "m").exists()

    def test_config_sets_hidden(self, inputs, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"hidden": 3}', encoding="utf-8")
        argv = ["--config", str(config)] + train_argv(inputs, tmp_path / "m",
                                                      "--baseline", "two-layer")
        assert cli.main(argv) == cli.EXIT_OK
        assert modelstore.load(tmp_path / "m").classifiers["ROOT"].hidden_size == 3

    def test_flag_overrides_config_hidden(self, inputs, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"hidden": 3}', encoding="utf-8")
        argv = ["--config", str(config)] + train_argv(inputs, tmp_path / "m",
                                                      "--baseline", "two-layer", "--hidden", "5")
        assert cli.main(argv) == cli.EXIT_OK
        assert modelstore.load(tmp_path / "m").classifiers["ROOT"].hidden_size == 5


class TestBenchContract:
    """What the benchmark reads from the program's output, pinned."""

    def test_train_prints_the_saved_model_fingerprint(self, inputs, tmp_path, capsys):
        assert cli.main(train_argv(inputs, tmp_path / "m")) == cli.EXIT_OK
        printed = re.search(r"fingerprint ([0-9a-f]{12})", capsys.readouterr().out)
        assert printed is not None
        saved = modelstore.fingerprint(modelstore.load(tmp_path / "m"))
        assert printed.group(1) == saved[:12]

    def test_eval_report_matches_classify_predictions(self, model_dir, inputs, tmp_path):
        corpus = str(inputs / "corpus.jsonl")
        predictions, report = tmp_path / "p.jsonl", tmp_path / "report"
        assert cli.main(["classify", "--model", str(model_dir), "--corpus", corpus,
                         "--out", str(predictions)]) == cli.EXIT_OK
        assert cli.main(["eval", "--model", str(model_dir), "--corpus", corpus,
                         "--out", str(report)]) == cli.EXIT_OK
        doc = json.loads((report / "report.json").read_text(encoding="utf-8"))
        loaded = evaluation.load_predictions(predictions)
        records = ingest.load_cve_corpus(corpus)
        taxonomy = modelstore.load(model_dir).taxonomy
        for mode in ("fine", "coarse"):
            expected = evaluation.evaluate(loaded, records, taxonomy, mode).accuracy
            assert doc[mode]["accuracy"] == expected

    def test_every_prediction_row_has_id_candidates_paths(self, model_dir, inputs, tmp_path):
        predictions = tmp_path / "p.jsonl"
        assert cli.main(["classify", "--model", str(model_dir), "--corpus",
                         str(inputs / "corpus.jsonl"), "--out", str(predictions)]) == 0
        rows = [json.loads(line) for line in predictions.read_text(encoding="utf-8").splitlines()]
        ids = [r.id for r in ingest.load_cve_corpus(inputs / "corpus.jsonl")]
        assert [row["id"] for row in rows] == ids
        for row in rows:
            assert {"id", "candidates", "paths"} <= set(row)
            assert all({"cwe", "score"} <= set(c) for c in row["candidates"])


class TestClassifyAndEval:
    def test_eval_classifies_once_per_model(self, model_dir, inputs, monkeypatch, capsys):
        calls = []
        real = hierarchy.classify

        def counting(model, texts, *args, **kwargs):
            calls.append(len(texts))
            return real(model, texts, *args, **kwargs)

        monkeypatch.setattr(hierarchy, "classify", counting)
        argv = ["eval", "--model", str(model_dir), "--corpus", str(inputs / "corpus.jsonl"),
                "--compare", str(model_dir)]
        assert cli.main(argv) == cli.EXIT_OK
        n = len(ingest.load_cve_corpus(inputs / "corpus.jsonl"))
        assert calls == [n, n]
        fine = re.search(r"fine-grain\s+([0-9.]+)\s+([0-9.]+)", capsys.readouterr().out)
        assert fine.group(1) == fine.group(2)

    def test_compare_with_predictions_file(self, model_dir, inputs, tmp_path, capsys):
        corpus = str(inputs / "corpus.jsonl")
        predictions = tmp_path / "p.jsonl"
        assert cli.main(["classify", "--model", str(model_dir), "--corpus", corpus,
                         "--out", str(predictions)]) == cli.EXIT_OK
        assert cli.main(["eval", "--model", str(model_dir), "--corpus", corpus,
                         "--compare", str(predictions)]) == cli.EXIT_OK
        coarse = re.search(r"coarse-grain\s+([0-9.]+)\s+([0-9.]+)", capsys.readouterr().out)
        assert coarse.group(1) == coarse.group(2)

    def test_k_selects_top_k(self, model_dir, inputs, tmp_path):
        predictions = tmp_path / "p.jsonl"
        assert cli.main(["classify", "--model", str(model_dir), "--corpus",
                         str(inputs / "corpus.jsonl"), "--k", "3", "--out",
                         str(predictions)]) == cli.EXIT_OK
        records = ingest.load_cve_corpus(inputs / "corpus.jsonl")
        expected = hierarchy.classify(modelstore.load(model_dir),
                                      [r.description for r in records], hierarchy.top_k(3),
                                      ids=[r.id for r in records])
        rows = [json.loads(line) for line in predictions.read_text(encoding="utf-8").splitlines()]
        assert rows == [p.to_json_dict() for p in expected]
        assert {row["mode"] for row in rows} == {"topk:3"}

    @pytest.mark.parametrize("command", ["classify", "eval"])
    def test_k_and_tau_together_exit_2(self, model_dir, inputs, command):
        assert cli.main([command, "--model", str(model_dir), "--corpus",
                         str(inputs / "corpus.jsonl"), "--k", "1", "--tau", "0.5"]
                        ) == cli.EXIT_INPUT

    def test_stdin_text_gives_one_prediction(self, model_dir, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("some description text"))
        assert cli.main(["classify", "--model", str(model_dir)]) == cli.EXIT_OK
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["id"] == "stdin"

    def test_empty_stdin_exits_2(self, model_dir, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("  \n"))
        assert cli.main(["classify", "--model", str(model_dir)]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("bad_line", ['{"id": "CVE-1", "candidates": [', "[1, 2]",
                                          '{"candidates": 5}', '{"candidates": [{"score": 1}]}'])
    def test_malformed_compare_line_exits_2_naming_the_line(
            self, model_dir, inputs, tmp_path, capsys, bad_line):
        corpus = str(inputs / "corpus.jsonl")
        predictions = tmp_path / "p.jsonl"
        assert cli.main(["classify", "--model", str(model_dir), "--corpus", corpus,
                         "--out", str(predictions)]) == cli.EXIT_OK
        with predictions.open("a", encoding="utf-8") as fh:
            fh.write(bad_line + "\n")
        n = len(predictions.read_text(encoding="utf-8").splitlines())
        capsys.readouterr()
        assert cli.main(["eval", "--model", str(model_dir), "--corpus", corpus,
                         "--compare", str(predictions)]) == cli.EXIT_INPUT
        assert f"p.jsonl:{n}:" in capsys.readouterr().err

    def test_missing_label_warned_once_per_eval(self, model_dir, inputs, tmp_path, caplog):
        record = ingest.load_cve_corpus(inputs / "corpus.jsonl")[0]
        corpus = tmp_path / "one.jsonl"
        write_cve_corpus([replace(record, cwe_labels=record.cwe_labels | {"CWE-77"})], corpus)
        argv = ["eval", "--model", str(model_dir), "--corpus", str(corpus),
                "--compare", str(model_dir)]
        with caplog.at_level(logging.WARNING):
            assert cli.main(argv) == cli.EXIT_OK
        warned = [r.getMessage() for r in caplog.records if "CWE-77" in r.getMessage()]
        assert warned == [f"{record.id}: label CWE-77 not in taxonomy, skipped"]

    def test_eval_out_naming_a_file_exits_2_before_loading(self, model_dir, inputs, tmp_path,
                                                          monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("loaded the model before checking --out")

        monkeypatch.setattr(modelstore, "load", refuse)
        taken = tmp_path / "taken"
        taken.write_text("not a directory", encoding="utf-8")
        for out in (taken, taken / "below"):
            assert cli.main(["eval", "--model", str(model_dir), "--corpus",
                             str(inputs / "corpus.jsonl"), "--out", str(out)]) == cli.EXIT_INPUT
