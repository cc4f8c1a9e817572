"""Exit codes of the command-line interface at its input boundaries, and the
output contract the benchmark reads."""

import hashlib
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
from cwemap.ingest import CveRecord, save_taxonomy, write_cve_corpus
from cwemap.modelstore import MANIFEST


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


def model_file(model, name):
    """The path of ``name`` in a saved model: the manifest, or the data file
    the manifest's sha256 names for it (``dictionary.json`` is
    ``dictionary-<sha12>.json``)."""
    if name == MANIFEST:
        return model / MANIFEST
    doc = json.loads((model / MANIFEST).read_text(encoding="utf-8"))
    key = name.split(".")[0]
    return model / modelstore.file_name(key, doc["files"][key])


def write_manifest(model, doc):
    """Write the manifest ``doc`` with the fingerprint that is its checksum,
    so the load fails only on what its other fields say."""
    doc["fingerprint"] = modelstore.checksum(doc)
    (model / MANIFEST).write_text(json.dumps(doc), encoding="utf-8")


def reseal(model, doc, name, data: bytes):
    """Replace the data file ``name`` with one holding ``data``, under the name
    its sha256 gives, and record that sha256 in the manifest ``doc``."""
    model_file(model, name).unlink()
    key = name.split(".")[0]
    doc["files"][key] = hashlib.sha256(data).hexdigest()
    (model / modelstore.file_name(key, doc["files"][key])).write_bytes(data)


def rewrite(model, name, data: bytes):
    """Reseal the data file ``name`` with ``data`` and write the manifest, so
    the load fails only on what the bytes say."""
    doc = json.loads((model / MANIFEST).read_text(encoding="utf-8"))
    reseal(model, doc, name, data)
    write_manifest(model, doc)


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


    def test_corpus_without_a_taxonomy_label_exits_2(self, inputs, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_cve_corpus([CveRecord(id=f"CVE-2020-{i:04d}", description="a buffer overflow",
                                    cwe_labels=frozenset({"CWE-9999"})) for i in range(5)],
                         corpus)
        argv = ["train", "--corpus", str(corpus), "--taxonomy", str(inputs / "taxonomy.json"),
                "--th", "1", "--model", str(tmp_path / "m")]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert "no training record has a label in the taxonomy" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


def refuse(*args, **kwargs):
    raise AssertionError("work was done before the output path was checked")


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
        {"lr": 10**400}, {"tau": 10**400}, {"seed": -1},
    ], ids=["hidden-string", "lr-string", "tau-list", "max-epochs-float",
            "baseline-choice", "seed-bool", "init-number",
            "lr-past-float", "tau-past-float", "seed-negative"])
    def test_mistyped_value_exits_2(self, inputs, tmp_path, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["--config", str(config)] + train_argv(inputs, tmp_path / "m",
                                                      "--baseline", "two-layer")
        if "baseline" in doc:
            argv = ["--config", str(config)] + train_argv(inputs, tmp_path / "m")
        assert cli.main(argv) == cli.EXIT_INPUT
        assert not (tmp_path / "m").exists()

    def test_5000_digit_integer_exits_2(self, inputs, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"lr": ' + "1" * 5000 + "}", encoding="utf-8")
        argv = ["--config", str(config)] + train_argv(inputs, tmp_path / "m")
        assert cli.main(argv) == cli.EXIT_INPUT
        assert f"{config}: malformed JSON" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_integer_for_a_float_flag_is_accepted(self, inputs, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"lr": 1, "tau": 0.5, "init": "random"}', encoding="utf-8")
        argv = ["--config", str(config)] + train_argv(inputs, tmp_path / "m")
        assert cli.main(argv) == cli.EXIT_OK
        loaded = modelstore.load(tmp_path / "m").config
        assert (loaded.learning_rate, loaded.decision_threshold) == (1.0, 0.5)
        assert loaded.weight_init == "random"


    @pytest.mark.parametrize("doc, mode", [
        ({"k": 2}, ["--tau", "0.5"]), ({"tau": 0.5}, ["--k", "2"]),
    ], ids=["tau-flag-drops-config-k", "k-flag-drops-config-tau"])
    def test_explicit_rule_flag_drops_the_configs_other_rule(self, model_dir, inputs, tmp_path,
                                                             doc, mode):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        predictions = tmp_path / "p.jsonl"
        argv = ["--config", str(config), "classify", "--model", str(model_dir), "--corpus",
                str(inputs / "corpus.jsonl"), "--out", str(predictions), *mode]
        assert cli.main(argv) == cli.EXIT_OK
        rows = [json.loads(line) for line in predictions.read_text(encoding="utf-8").splitlines()]
        want = "threshold:0.5" if "--tau" in mode else "topk:2"
        assert {row["mode"] for row in rows} == {want}

    def test_config_rule_applies_without_a_flag(self, model_dir, inputs, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"k": 2}', encoding="utf-8")
        predictions = tmp_path / "p.jsonl"
        argv = ["--config", str(config), "classify", "--model", str(model_dir), "--corpus",
                str(inputs / "corpus.jsonl"), "--out", str(predictions)]
        assert cli.main(argv) == cli.EXIT_OK
        rows = [json.loads(line) for line in predictions.read_text(encoding="utf-8").splitlines()]
        assert {row["mode"] for row in rows} == {"topk:2"}


class TestNvdFeedBoundary:
    """``ingest --feed`` exits 2 naming the item and field of a mistyped feed,
    or of an item whose id is not a CVE id."""

    @pytest.mark.parametrize("doc, field", [
        ({"CVE_Items": 5}, "CVE_Items is not a JSON array"),
        ({"CVE_Items": [1]}, "CVE_Items[0] is not a JSON object"),
        ({"CVE_Items": [{"cve": {"description": {"description_data": [
            {"lang": "en", "value": 5}]}}}]},
         "CVE_Items[0].cve.description.description_data[0].value is not a JSON string"),
        ({"CVE_Items": [{"cve": {"description": {"description_data": [
            {"lang": "en", "value": "x"}]}}}]},
         "CVE_Items[0].cve.CVE_data_meta.ID: not a CVE identifier: ''"),
        ({"CVE_Items": [{"cve": {"CVE_data_meta": {"ID": cve_id}, "description": {
            "description_data": [{"lang": "en", "value": "x"}]}}}
            for cve_id in ("CVE-2020-0001", "CVE-1")]},
         "CVE_Items[1].cve.CVE_data_meta.ID: not a CVE identifier: 'CVE-1'"),
    ], ids=["items-number", "item-number", "description-value-number", "id-missing",
            "id-not-a-cve-id"])
    def test_mistyped_feed_exits_2(self, tmp_path, capsys, doc, field):
        feed = tmp_path / "feed.json"
        feed.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        assert cli.main(["ingest", "--feed", str(feed), "--out", str(out)]) == cli.EXIT_INPUT
        assert f"{feed}: {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_out_naming_a_directory_exits_2_before_reading(self, tmp_path, monkeypatch):
        feed = tmp_path / "feed.json"
        feed.write_text(json.dumps(VALID_FEED), encoding="utf-8")
        monkeypatch.setattr(ingest, "import_nvd_feed", refuse)
        for out in (tmp_path, tmp_path / "missing" / "corpus.jsonl"):
            assert cli.main(["ingest", "--feed", str(feed), "--out", str(out)]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("link", [False, True], ids=["same-name", "symlink"])
    def test_out_naming_the_feed_exits_2_leaving_it(self, tmp_path, capsys, monkeypatch, link):
        feed = tmp_path / "feed.json"
        feed.write_text(json.dumps(VALID_FEED), encoding="utf-8")
        before = feed.read_bytes()
        out = feed
        if link:
            out = tmp_path / "corpus.jsonl"
            out.symlink_to(feed)
        monkeypatch.setattr(ingest, "import_nvd_feed", refuse)
        assert cli.main(["ingest", "--feed", str(feed), "--out", str(out)]) == cli.EXIT_INPUT
        assert f"--out {out}: is the input file {feed}" in capsys.readouterr().err
        assert feed.read_bytes() == before


# One-node taxonomies whose node has a field of another JSON type.
TAXONOMY_PROBES = {
    "parent-ids-number": ({"parent_ids": 5}, "nodes[0].parent_ids is not a JSON array"),
    "extended-description-number": ({"extended_description": 5},
                                    "nodes[0].extended_description is not a JSON string"),
    "extended-description-list": ({"extended_description": ["a", "b"]},
                                  "nodes[0].extended_description is not a JSON string"),
    "name-number": ({"name": 5}, "nodes[0].name is not a JSON string"),
}


class TestTaxonomyBoundary:
    @pytest.mark.parametrize("probe", list(TAXONOMY_PROBES))
    def test_mistyped_node_field_exits_2_naming_node_and_field(self, tmp_path, capsys, probe):
        fields, message = TAXONOMY_PROBES[probe]
        taxonomy = tmp_path / "taxonomy.json"
        taxonomy.write_text(json.dumps({"nodes": [{"id": "CWE-1", **fields}]}), encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        write_cve_corpus([CveRecord(f"CVE-2000-{n:04d}", f"buffer overflow text {n}",
                                    frozenset({"CWE-1"})) for n in range(3)], corpus)
        argv = ["train", "--corpus", str(corpus), "--taxonomy", str(taxonomy), "--th", "1",
                "--max-epochs", "1", "--model", str(tmp_path / "m")]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert f"{taxonomy}: node CWE-1: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["taxonomy", "corpus"])
    def test_cwe_id_of_non_ascii_digits_exits_2(self, tmp_path, capsys, where):
        """``CWE-١٢`` is no CWE id, though ``int`` reads its digits as 12."""
        arabic = "CWE-\u0661\u0662"
        taxonomy = tmp_path / "taxonomy.json"
        nodes = [{"id": "CWE-12"}, {"id": "CWE-13"}]
        if where == "taxonomy":
            nodes.append({"id": arabic})
        taxonomy.write_text(json.dumps({"nodes": nodes}), encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        write_cve_corpus([CveRecord(f"CVE-2000-{n:04d}", f"buffer overflow text {n}",
                                    frozenset({f"CWE-1{n % 2 + 2}"})) for n in range(4)], corpus)
        if where == "corpus":
            with corpus.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"id": "CVE-2000-0009", "description": "text",
                                     "cwe_labels": [arabic]}) + "\n")
        argv = ["train", "--corpus", str(corpus), "--taxonomy", str(taxonomy), "--th", "1",
                "--max-epochs", "1", "--model", str(tmp_path / "m")]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert "not a CWE identifier" in capsys.readouterr().err

    def test_nodes_nested_100000_deep_exits_2(self, inputs, tmp_path, capsys):
        taxonomy = tmp_path / "taxonomy.json"
        taxonomy.write_text('{"nodes": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        argv = ["train", "--corpus", str(inputs / "corpus.jsonl"), "--taxonomy", str(taxonomy),
                "--th", "1", "--max-epochs", "1", "--model", str(tmp_path / "m")]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert f"{taxonomy}: malformed JSON" in capsys.readouterr().err


# One-group synonym tables holding a value of another JSON type.
SYNONYM_PROBES = {
    "group-number": ({"groups": [5]}, "groups[0] is not a JSON object"),
    "group-bool": ({"groups": [True]}, "groups[0] is not a JSON object"),
    "members-null": ({"groups": [{"code": "xss", "members": None}]},
                     "groups[0].members is not a JSON array"),
    "members-number": ({"groups": [{"code": "xss", "members": 5}]},
                       "groups[0].members is not a JSON array"),
    "code-list": ({"groups": [{"code": [1], "members": ["xss"]}]},
                  "groups[0].code is not a JSON string"),
    "member-list": ({"groups": [{"code": "xss", "members": [["a"]]}]},
                    "groups[0].members[0] is not a JSON string"),
}


class TestSynonymBoundary:
    @pytest.mark.parametrize("probe", list(SYNONYM_PROBES))
    def test_mistyped_synonym_table_exits_2_naming_the_field(self, inputs, tmp_path, capsys,
                                                             probe):
        doc, message = SYNONYM_PROBES[probe]
        synonyms = tmp_path / "synonyms.json"
        synonyms.write_text(json.dumps(doc), encoding="utf-8")
        argv = train_argv(inputs, tmp_path / "m", "--synonyms", str(synonyms))
        assert cli.main(argv) == cli.EXIT_INPUT
        assert f"{synonyms}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


class TestNegativeSeed:
    def test_train_seed_flag_exits_2(self, inputs, tmp_path):
        assert cli.main(train_argv(inputs, tmp_path / "m", "--seed", "-1")) == cli.EXIT_INPUT
        assert not (tmp_path / "m").exists()

    def test_eval_split_seed_flag_exits_2(self, model_dir, inputs):
        argv = ["eval", "--model", str(model_dir), "--corpus", str(inputs / "corpus.jsonl"),
                "--split", "0.5", "--seed", "-1"]
        assert cli.main(argv) == cli.EXIT_INPUT


def _swap_arrays(first, second):
    """An edit that swaps the arrays of two nodes with as many children, so
    each node still finds arrays of the shapes it needs."""
    def edit(doc):
        entries = {e["node_id"]: e for e in doc["nodes"] if e["node_id"] in (first, second)}
        entries[first]["arrays"], entries[second]["arrays"] = (entries[second]["arrays"],
                                                               entries[first]["arrays"])
    return edit


def _shrink_first_arrays(doc):
    """List the first node one stored row short, so that it still reads as a
    scorer but every later array is read from bytes that belong elsewhere."""
    arrays = doc["nodes"][0]["arrays"]
    arrays["rows"] = [arrays["rows"][0] - 1]
    arrays["weights"] = [arrays["weights"][0] - 1, arrays["weights"][1]]


class TestModelIntegrity:
    def test_intact_model_classifies(self, model_dir, inputs):
        assert classify(model_dir, inputs) == cli.EXIT_OK

    @pytest.mark.parametrize("probe", list(TAXONOMY_PROBES))
    def test_mistyped_taxonomy_node_exits_4(self, damaged, inputs, capsys, probe):
        fields, message = TAXONOMY_PROBES[probe]
        doc = json.loads(model_file(damaged, "taxonomy.json").read_text(encoding="utf-8"))
        doc["nodes"][0].update(fields)
        rewrite(damaged, "taxonomy.json", json.dumps(doc).encode("utf-8"))
        capsys.readouterr()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY
        assert message in capsys.readouterr().err

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
        (damaged / MANIFEST).write_text(manifest.replace('"arrays"', '"arrayz"'),
                                        encoding="utf-8")
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    def test_two_layer_manifest_naming_other_files_exits_4(self, inputs, tmp_path):
        model = tmp_path / "model"
        argv = train_argv(inputs, model, "--baseline", "two-layer", "--hidden", "4")
        assert cli.main(argv) == cli.EXIT_OK
        manifest = (model / MANIFEST).read_text(encoding="utf-8")
        write_manifest(model, json.loads(manifest.replace('"w_out"', '"w_output"')))
        assert classify(model, inputs) == cli.EXIT_INTEGRITY

    def test_weight_file_that_is_a_directory_exits_4(self, damaged, inputs):
        weight = model_file(damaged, "weights.bin")
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
        lambda doc: doc["nodes"][0]["arrays"].update(rows=[2**62]),
        _shrink_first_arrays,
        lambda doc: doc["nodes"][0]["arrays"].update(weights={"shape": [1, 2], "dtype": "<f8"}),
        lambda doc: doc["files"].update(weights="../" + doc["files"]["weights"]),
        lambda doc: doc["config"].update(learning_rate=10**400),
        lambda doc: doc["config"].update(adam_epsilon=10**400),
    ], ids=["stopwords-number", "max-epochs-string", "format-version-bool", "assets-list",
            "child-count", "rows-past-the-file", "arrays-shifted", "array-entry-an-object",
            "file-outside-the-directory", "learning-rate-past-float",
            "adam-epsilon-past-float"])
    def test_mistyped_manifest_value_exits_4(self, damaged, inputs, edit):
        doc = json.loads((damaged / MANIFEST).read_text(encoding="utf-8"))
        edit(doc)
        write_manifest(damaged, doc)
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    @pytest.mark.parametrize("sha256", [
        lambda sha256: "../" + sha256[3:], str.upper, lambda sha256: sha256[:12],
    ], ids=["path", "uppercase", "short"])
    def test_sha256_not_64_hex_digits_exits_4_before_naming_a_file(self, damaged, inputs, capsys,
                                                                 sha256):
        doc = json.loads((damaged / MANIFEST).read_text(encoding="utf-8"))
        doc["files"]["taxonomy"] = sha256(doc["files"]["taxonomy"])
        write_manifest(damaged, doc)
        capsys.readouterr()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY
        assert "files.taxonomy is not 64 lowercase hex digits" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["config"].update(decision_threshold=0.05),
        _swap_arrays("ROOT", "CWE-100"),
    ], ids=["decision-threshold", "arrays-of-two-nodes-swapped"])
    def test_edited_manifest_exits_4(self, damaged, inputs, capsys, edit):
        # Each edit leaves a well-formed model that classifies differently.
        doc = json.loads((damaged / MANIFEST).read_text(encoding="utf-8"))
        edit(doc)
        (damaged / MANIFEST).write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY
        assert "not the checksum of the manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("code", ["sql inject", "", "sql\tinject"],
                             ids=["space", "empty", "tab"])
    def test_synonym_code_not_one_token_exits_4(self, damaged, inputs, code):
        # Encoding assumes no token holds a space; a code is a token.
        doc = json.loads((damaged / MANIFEST).read_text(encoding="utf-8"))
        doc["config"]["assets"]["synonym_groups"][0]["code"] = code
        write_manifest(damaged, doc)
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    def test_synonym_code_defined_twice_exits_4(self, damaged, inputs):
        doc = json.loads((damaged / MANIFEST).read_text(encoding="utf-8"))
        groups = doc["config"]["assets"]["synonym_groups"]
        groups[1]["code"] = groups[0]["code"]
        write_manifest(damaged, doc)
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["terms"].__setitem__(1, doc["terms"][0]),
        lambda doc: doc["counts"].pop(),
        lambda doc: doc["counts"].append(3),
    ], ids=["repeated-term", "missing-count", "extra-count"])
    def test_dictionary_not_one_count_per_distinct_term_exits_4(self, damaged, inputs, capsys,
                                                                edit):
        doc = json.loads(model_file(damaged, "dictionary.json").read_text(encoding="utf-8"))
        edit(doc)
        rewrite(damaged, "dictionary.json", json.dumps(doc).encode("utf-8"))
        capsys.readouterr()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY
        err = capsys.readouterr().err
        assert f"{model_file(damaged, 'dictionary.json')}: " in err and "each term" in err

    def test_dictionary_holding_a_5000_digit_integer_exits_4(self, damaged, inputs, capsys):
        doc = json.loads(model_file(damaged, "dictionary.json").read_text(encoding="utf-8"))
        text = json.dumps(doc).replace('"counts": [', '"counts": [' + "1" * 5000 + ", ")
        rewrite(damaged, "dictionary.json", text.encode("utf-8"))
        capsys.readouterr()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY
        assert model_file(damaged, "dictionary.json").name in capsys.readouterr().err

    def test_weights_with_trailing_bytes_exit_4(self, damaged, inputs, capsys):
        blob = model_file(damaged, "weights.bin").read_bytes()
        rewrite(damaged, "weights.bin", blob + bytes(8))
        capsys.readouterr()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY
        assert "8 bytes follow the last array" in capsys.readouterr().err

    def test_last_array_running_past_the_weights_exits_4(self, damaged, inputs, capsys):
        doc = json.loads((damaged / MANIFEST).read_text(encoding="utf-8"))
        weights = doc["nodes"][-1]["arrays"]["weights"]
        weights[1] += 1
        write_manifest(damaged, doc)
        capsys.readouterr()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY
        assert "runs past the end of the weights file" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["dictionary.json", "taxonomy.json", MANIFEST])
    def test_missing_file_exits_4(self, damaged, inputs, name):
        model_file(damaged, name).unlink()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    @pytest.mark.parametrize("name", ["dictionary.json", "taxonomy.json"])
    def test_corrupt_file_exits_4(self, damaged, inputs, name):
        # Caught by the checksum; with the checksum updated, by the parser.
        model_file(damaged, name).write_text("0\tonly two", encoding="utf-8")
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY
        rewrite(damaged, name, b"0\tonly two")
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY


def _node_spans(doc):
    """Each node's (start, end) in the weights blob of a hierarchical model,
    as load's cursor walks it: the node's rows, then its weights."""
    spans, cursor = {}, 0
    for entry in doc["nodes"]:
        (kept,), (_, columns) = entry["arrays"]["rows"], entry["arrays"]["weights"]
        spans[entry["node_id"]] = (cursor, cursor + 8 * kept + 8 * kept * columns)
        cursor = spans[entry["node_id"]][1]
    return spans


def _drop_entry(node_id):
    def edit(doc, model):
        """Drop the node's entry, and its arrays from the weights blob."""
        start, end = _node_spans(doc)[node_id]
        blob = model_file(model, "weights.bin").read_bytes()
        reseal(model, doc, "weights.bin", blob[:start] + blob[end:])
        doc["nodes"] = [e for e in doc["nodes"] if e["node_id"] != node_id]
    return edit


def _set_child_ids(node_id, child_ids):
    def edit(doc, model):
        next(e for e in doc["nodes"] if e["node_id"] == node_id)["child_ids"] = child_ids
    return edit


def _duplicate_entry(doc, model):
    doc["nodes"].append(next(e for e in doc["nodes"] if e["node_id"] == "CWE-100"))


def _row_past_the_dictionary(doc, model):
    """Store CWE-100's last row at a position the dictionary does not have."""
    (kept,) = next(e for e in doc["nodes"] if e["node_id"] == "CWE-100")["arrays"]["rows"]
    end = _node_spans(doc)["CWE-100"][0] + 8 * kept
    blob = bytearray(model_file(model, "weights.bin").read_bytes())
    blob[end - 8:end] = np.array([10**6], dtype="<i8").tobytes()
    reseal(model, doc, "weights.bin", bytes(blob))


# Scorer sets that do not match the saved taxonomy and dictionary: the
# taxonomy is ROOT -> CWE-100 -> (CWE-102, CWE-103) and ROOT -> CWE-101.
SCORER_PROBES = {
    "no-root-entry": (_drop_entry("ROOT"), "ROOT"),
    "no-inner-entry": (_drop_entry("CWE-100"), "CWE-100"),
    "child-ids-reversed": (_set_child_ids("CWE-100", ["CWE-103", "CWE-102"]), "CWE-100"),
    "child-id-not-a-child": (_set_child_ids("CWE-100", ["CWE-102", "CWE-104"]), "CWE-100"),
    "weight-rows-not-dictionary-size": (_row_past_the_dictionary, "CWE-100"),
    "duplicate-entry": (_duplicate_entry, "CWE-100"),
}


class TestModelScorers:
    @pytest.mark.parametrize("probe", list(SCORER_PROBES))
    def test_scorers_not_matching_the_taxonomy_exit_4_naming_the_node(
            self, damaged, inputs, capsys, probe):
        edit, node = SCORER_PROBES[probe]
        doc = json.loads((damaged / MANIFEST).read_text(encoding="utf-8"))
        edit(doc, damaged)
        write_manifest(damaged, doc)
        capsys.readouterr()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY
        assert node in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_exits_4_naming_the_node_and_array(self, damaged, inputs, capsys,
                                                                 value):
        """A NaN weight, resealed, would print ``"score": nan``, which is not JSON."""
        doc = json.loads((damaged / MANIFEST).read_text(encoding="utf-8"))
        (kept,) = next(e for e in doc["nodes"] if e["node_id"] == "ROOT")["arrays"]["rows"]
        first = _node_spans(doc)["ROOT"][0] + 8 * kept
        blob = bytearray(model_file(damaged, "weights.bin").read_bytes())
        blob[first:first + 8] = np.array([value], dtype="<f8").tobytes()
        reseal(damaged, doc, "weights.bin", bytes(blob))
        write_manifest(damaged, doc)
        capsys.readouterr()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY
        assert "node ROOT" in capsys.readouterr().err
        argv = ["eval", "--model", str(damaged), "--corpus", str(inputs / "corpus.jsonl")]
        assert cli.main(argv) == cli.EXIT_INTEGRITY
        err = capsys.readouterr().err
        assert "node ROOT" in err and "arrays.weights" in err


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

    def test_line_holding_a_5000_digit_integer_exits_2(self, model_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        line = '{"id": "CVE-2020-0002", "description": "text", "n": ' + "1" * 5000 + "}"
        corpus.write_text(GOOD_LINE + "\n" + line + "\n", encoding="utf-8")
        argv = ["classify", "--model", str(model_dir), "--corpus", str(corpus)]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert f"{corpus}:2: malformed JSON" in capsys.readouterr().err

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

    def test_directory_or_non_utf8_taxonomy_exits_2(self, inputs, tmp_path, capsys):
        bad = tmp_path / "taxonomy.json"
        bad.write_bytes(b'{"nodes": [\n{"id": "CWE-1", "name": "\xff"}]}')
        for taxonomy, where in [(tmp_path, f"{tmp_path}: "), (bad, f"{bad}:2: ")]:
            argv = ["train", "--corpus", str(inputs / "corpus.jsonl"),
                    "--taxonomy", str(taxonomy), "--model", str(tmp_path / "m")]
            capsys.readouterr()
            assert cli.main(argv) == cli.EXIT_INPUT
            assert where in capsys.readouterr().err

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


def field_paths(doc, path=()):
    """The path of every object member in the JSON value ``doc``."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield path + (key,)
            yield from field_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from field_paths(value, path + (i,))


@st.composite
def mutated(draw, doc):
    """A copy of the JSON document ``doc`` in which one to three fields, each
    at a depth drawn first, are set to any JSON value or dropped."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(field_paths(doc))
        if not paths:
            break
        depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
        *steps, key = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        parent = doc
        for step in steps:
            parent = parent[step]
        if draw(st.booleans()):
            parent[key] = draw(JSON_VALUES)
        else:
            del parent[key]
    return doc


def _nvd_item(cve_id, descriptions, labels):
    return {"cve": {
        "CVE_data_meta": {"ID": cve_id},
        "description": {"description_data": [{"lang": lang, "value": text}
                                             for lang, text in descriptions]},
        "problemtype": {"problemtype_data": [
            {"description": [{"lang": "en", "value": label} for label in labels]}]},
    }}


VALID_FEED = {"CVE_Items": [
    _nvd_item("CVE-2020-0001", [("es", "desbordamiento"), ("en", "a buffer overflow")],
              ["CWE-120", "NVD-CWE-Other"]),
    _nvd_item("CVE-2020-0002", [("en", "an sql injection")], []),
]}
VALID_SYNONYMS = {"groups": [{"code": "xss", "members": ["cross site scripting", "xss"]},
                             {"code": "sqli", "members": ["sql injection"]}]}
# Every train setting of ``--config``; the argv of the fuzz gives max-epochs,
# th, lr and hidden as flags too, so a generated value of one of them is
# type-checked but cannot make a run long, large or diverge.
VALID_CONFIG = {"lr": 0.5, "tau": 0.5, "seed": 3, "batch_size": 8, "init": "random",
                "split": 0.9, "max_epochs": 1, "th": 1, "hidden": 2, "baseline": "two-layer"}


@pytest.fixture(scope="module")
def kind_models(inputs, model_dir, tmp_path_factory):
    """A trained model directory of each kind."""
    models = {"hierarchical": model_dir}
    for kind, extra in [("two-layer", ["--hidden", "2"]), ("flat", [])]:
        models[kind] = tmp_path_factory.mktemp(kind) / "model"
        argv = train_argv(inputs, models[kind], "--baseline", kind, *extra)
        assert cli.main(argv) == cli.EXIT_OK
    return models


fuzz = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def canonical(doc):
    # ``1 == 1.0`` in Python, but the two are written, and hashed, apart.
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class TestJsonBoundaryFuzz:
    """Whatever any field of a valid JSON input holds, the command reading it
    exits only with 0 or the input's documented error code; a manifest that
    reads as anything but the saved one exits 4."""

    @fuzz
    @given(data=st.data())
    def test_nvd_feed_exits_0_or_2(self, data):
        doc = data.draw(mutated(VALID_FEED))
        with tempfile.TemporaryDirectory() as work:
            feed = Path(work) / "feed.json"
            feed.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["ingest", "--feed", str(feed), "--out", str(Path(work) / "c.jsonl")]
            assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_INPUT)

    @fuzz
    @given(data=st.data())
    def test_taxonomy_exits_0_or_2(self, inputs, data):
        valid = json.loads((inputs / "taxonomy.json").read_text(encoding="utf-8"))
        doc = data.draw(mutated(valid))
        with tempfile.TemporaryDirectory() as work:
            taxonomy = Path(work) / "taxonomy.json"
            taxonomy.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["train", "--corpus", str(inputs / "corpus.jsonl"), "--taxonomy",
                    str(taxonomy), "--max-epochs", "1", "--th", "1",
                    "--model", str(Path(work) / "m")]
            assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_INPUT)

    @fuzz
    @given(data=st.data())
    def test_synonym_table_exits_0_or_2(self, inputs, data):
        doc = data.draw(mutated(VALID_SYNONYMS))
        with tempfile.TemporaryDirectory() as work:
            synonyms = Path(work) / "synonyms.json"
            synonyms.write_text(json.dumps(doc), encoding="utf-8")
            argv = train_argv(inputs, Path(work) / "m", "--max-epochs", "1",
                              "--synonyms", str(synonyms))
            assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_INPUT)

    @fuzz
    @given(data=st.data())
    def test_config_exits_0_or_2(self, inputs, data):
        doc = data.draw(mutated(VALID_CONFIG))
        with tempfile.TemporaryDirectory() as work:
            config = Path(work) / "config.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["--config", str(config)] + train_argv(
                inputs, Path(work) / "m", "--max-epochs", "1", "--lr", "0.05", "--hidden", "2")
            assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_INPUT)

    @pytest.mark.parametrize("kind", ["hierarchical", "two-layer", "flat"])
    @fuzz
    @given(data=st.data())
    def test_manifest_exits_0_or_4(self, kind_models, inputs, kind, data):
        valid = json.loads((kind_models[kind] / MANIFEST).read_text(encoding="utf-8"))
        doc = data.draw(mutated(valid))
        with tempfile.TemporaryDirectory() as work:
            model = Path(work) / "model"
            shutil.copytree(kind_models[kind], model)
            (model / MANIFEST).write_text(json.dumps(doc), encoding="utf-8")
            edited = canonical(doc) != canonical(valid)
            assert classify(model, inputs) == (cli.EXIT_INTEGRITY if edited else cli.EXIT_OK)


def value_paths(doc, path=()):
    """The path of every object member and array item in the JSON value ``doc``."""
    if isinstance(doc, dict):
        members = doc.items()
    else:
        members = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in members:
        yield path + (key,)
        yield from value_paths(value, path + (key,))


# The damage ``damaged_bytes`` draws: to any data file, then to a JSON one only.
DAMAGE = ["empty", "truncated", "appended", "flipped"]
JSON_DAMAGE = ["nested", "digits", "not-utf8"]
_MARK = "\u0000mark\u0000"


@st.composite
def damaged_bytes(draw, data: bytes, damage: str) -> bytes:
    """``data`` emptied (which no file mapping takes), cut short, lengthened
    or with one byte flipped; for JSON, one value replaced by a deep nest of
    arrays or a 5,000-digit integer, or bytes that are not UTF-8 inserted."""
    if damage == "empty":
        return b""
    if damage == "truncated":
        return data[:draw(st.integers(1, len(data) - 1))]
    if damage == "appended":
        return data + draw(st.binary(min_size=1, max_size=16))
    at = draw(st.integers(0, len(data) - 1))
    if damage == "flipped":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if damage == "not-utf8":
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    doc = json.loads(data)
    *steps, key = draw(st.sampled_from(list(value_paths(doc))))
    parent = doc
    for step in steps:
        parent = parent[step]
    parent[key] = _MARK
    depth = draw(st.sampled_from([40, 100_000]))
    value = "[" * depth + "]" * depth if damage == "nested" else "1" * 5000
    return json.dumps(doc).replace(json.dumps(_MARK), value).encode("utf-8")


class TestModelDirectoryFuzz:
    """Whatever one data file of a model holds, resealed so that its sha256
    and the manifest's checksum match, ``classify`` exits 0 or 4."""

    @pytest.mark.parametrize("name,damage", [
        (name, damage) for name in ("dictionary.json", "taxonomy.json", "weights.bin")
        for damage in DAMAGE + (JSON_DAMAGE if name.endswith(".json") else [])])
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_resealed_data_file_exits_0_or_4(self, kind_models, inputs, name, damage, data):
        kind = data.draw(st.sampled_from(sorted(kind_models)))
        with tempfile.TemporaryDirectory() as work:
            model = Path(work) / "model"
            shutil.copytree(kind_models[kind], model)
            content = model_file(model, name).read_bytes()
            rewrite(model, name, data.draw(damaged_bytes(content, damage)))
            assert classify(model, inputs) in (cli.EXIT_OK, cli.EXIT_INTEGRITY)


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

    def test_id_with_a_trailing_newline_exits_2(self, model_dir, tmp_path, capsys):
        """Else ``CVE-2020-12345`` and ``CVE-2020-12345\\n`` pass as two records."""
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(json.dumps({"id": cve_id, "description": "a buffer overflow"})
                                  + "\n" for cve_id in ("CVE-2020-12345", "CVE-2020-12345\n")),
                          encoding="utf-8")
        argv = ["classify", "--model", str(model_dir), "--corpus", str(corpus),
                "--out", str(tmp_path / "p.jsonl")]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert f"{corpus}:2: not a CVE identifier" in capsys.readouterr().err

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

    @pytest.mark.parametrize("edit, field", [
        (lambda row: row["candidates"][0].update(cwe=5), "candidates[0].cwe is not a JSON string"),
        (lambda row: row["candidates"][0].update(score="0.9"),
         "candidates[0].score is not a JSON number"),
        (lambda row: row.update(mode=3), "mode is not a JSON string"),
        (lambda row: row.update(paths=["CWE-100"]), "paths[0] is not a JSON array"),
    ], ids=["cwe-number", "score-string", "mode-number", "paths-strings"])
    def test_mistyped_compare_field_exits_2_naming_the_line_and_field(
            self, model_dir, inputs, tmp_path, capsys, edit, field):
        corpus = str(inputs / "corpus.jsonl")
        predictions = tmp_path / "p.jsonl"
        assert cli.main(["classify", "--model", str(model_dir), "--corpus", corpus,
                         "--k", "1", "--out", str(predictions)]) == cli.EXIT_OK
        rows = [json.loads(line) for line in predictions.read_text(encoding="utf-8").splitlines()]
        edit(rows[1])
        predictions.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["eval", "--model", str(model_dir), "--corpus", corpus,
                         "--compare", str(predictions)]) == cli.EXIT_INPUT
        assert f"p.jsonl:2: {field}" in capsys.readouterr().err

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

    def test_classify_out_naming_a_directory_exits_2_before_loading(
            self, model_dir, inputs, tmp_path, monkeypatch):
        monkeypatch.setattr(modelstore, "load", refuse)
        for out in (tmp_path, tmp_path / "missing" / "p.jsonl"):
            assert cli.main(["classify", "--model", str(model_dir), "--corpus",
                             str(inputs / "corpus.jsonl"), "--out", str(out)]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("link", [False, True], ids=["same-name", "symlink"])
    def test_classify_out_naming_the_corpus_exits_2_leaving_it(
            self, model_dir, inputs, tmp_path, capsys, monkeypatch, link):
        corpus = tmp_path / "corpus.jsonl"
        shutil.copy(inputs / "corpus.jsonl", corpus)
        before = corpus.read_bytes()
        out = corpus
        if link:
            out = tmp_path / "p.jsonl"
            out.symlink_to(corpus)
        monkeypatch.setattr(modelstore, "load", refuse)
        assert cli.main(["classify", "--model", str(model_dir), "--corpus", str(corpus),
                         "--out", str(out)]) == cli.EXIT_INPUT
        assert f"--out {out}: is the input file {corpus}" in capsys.readouterr().err
        assert corpus.read_bytes() == before

    def test_classify_stdout_is_the_out_file(self, model_dir, inputs, tmp_path, capsys):
        argv = ["classify", "--model", str(model_dir), "--corpus", str(inputs / "corpus.jsonl")]
        out = tmp_path / "p.jsonl"
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_OK
        written = out.read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == written
        assert len(written.splitlines()) == len(ingest.load_cve_corpus(inputs / "corpus.jsonl"))

    def test_eval_out_naming_a_file_exits_2_before_loading(self, model_dir, inputs, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(modelstore, "load", refuse)
        taken = tmp_path / "taken"
        taken.write_text("not a directory", encoding="utf-8")
        for out in (taken, taken / "below"):
            assert cli.main(["eval", "--model", str(model_dir), "--corpus",
                             str(inputs / "corpus.jsonl"), "--out", str(out)]) == cli.EXIT_INPUT
