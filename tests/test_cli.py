"""Exit codes of the command-line interface at its input boundaries."""

import shutil

import numpy as np
import pytest

import synthdata
from cwemap import cli
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

    @pytest.mark.parametrize("name", [DICTIONARY, TAXONOMY, MANIFEST])
    def test_missing_file_exits_4(self, damaged, inputs, name):
        (damaged / name).unlink()
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY

    @pytest.mark.parametrize("name", [DICTIONARY, TAXONOMY])
    def test_corrupt_file_exits_4(self, damaged, inputs, name):
        (damaged / name).write_text("0\tonly two", encoding="utf-8")
        assert classify(damaged, inputs) == cli.EXIT_INTEGRITY
