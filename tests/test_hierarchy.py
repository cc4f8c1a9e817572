import numpy as np
import pytest

import synthdata
from cwemap import cli, hierarchy
from cwemap.errors import ConfigurationError, ValidationError
from cwemap.hierarchy import (
    PrepAssets,
    assemble_training_sets,
    classify,
    classify_flat,
    flat_class_list,
    threshold,
    top_k,
    train_flat_baseline,
    train_hierarchy,
    train_two_layer_baseline,
)
from cwemap.ingest import CveRecord, save_taxonomy, write_cve_corpus
from cwemap.modelstore import fingerprint, load
from cwemap.netcore import TrainConfig, sigmoid
from cwemap.textprep import SynonymTable

from conftest import make_record

ASSETS = PrepAssets(stopwords=frozenset(), synonyms=SynonymTable.empty())


def quick_cfg(**overrides):
    defaults = dict(max_epochs=40, batch_size=16, seed=3, min_term_count=1,
                    early_stop_patience=5)
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def small_synth():
    taxonomy, leaves, pools = synthdata.two_level_taxonomy(pool_size=20, seed=5)
    corpus = synthdata.make_corpus(leaves, pools, per_leaf=10, seed=11)
    return taxonomy, leaves, pools, corpus


class TestAssembleTrainingSets:
    def test_chain_contributions(self, chain_taxonomy):
        corpus = [make_record(1, "run os command", ["CWE-78"])]
        dictionary = _dictionary_for(corpus, chain_taxonomy)
        sets = assemble_training_sets(corpus, chain_taxonomy, dictionary, ASSETS)
        expected_bits = {
            chain_taxonomy.root_id: "CWE-707",
            "CWE-707": "CWE-74",
            "CWE-74": "CWE-77",
            "CWE-77": "CWE-78",
        }
        assert set(sets) == set(expected_bits)
        for node_id, marked_child in expected_bits.items():
            (fv, targets), = sets[node_id]
            children = chain_taxonomy.children[node_id]
            assert targets.tolist() == [1.0 if c == marked_child else 0.0 for c in children]

    def test_multi_parent_label_marks_both_parents(self, dag_taxonomy):
        corpus = [make_record(1, "path traversal text", ["CWE-22"])]
        dictionary = _dictionary_for(corpus, dag_taxonomy)
        sets = assemble_training_sets(corpus, dag_taxonomy, dictionary, ASSETS)
        root_children = dag_taxonomy.children[dag_taxonomy.root_id]
        (_, root_targets), = sets[dag_taxonomy.root_id]
        assert root_targets.tolist() == [1.0] * len(root_children)  # both 435 and 664
        for parent in ("CWE-435", "CWE-664"):
            (_, targets), = sets[parent]
            assert targets.tolist() == [1.0]

    def test_two_labels_sharing_parent_give_one_example_two_bits(self, small_synth):
        taxonomy, leaves, pools, _ = small_synth
        siblings = taxonomy.children["CWE-100"]  # two leaves under one parent
        corpus = [make_record(1, "words", list(siblings))]
        dictionary = _dictionary_for(corpus, taxonomy)
        sets = assemble_training_sets(corpus, taxonomy, dictionary, ASSETS)
        examples = sets["CWE-100"]
        assert len(examples) == 1
        assert examples[0][1].tolist() == [1.0, 1.0]

    def test_unresolvable_label_skipped(self, chain_taxonomy):
        corpus = [make_record(1, "text", ["CWE-9999"])]
        dictionary = _dictionary_for(corpus, chain_taxonomy)
        assert assemble_training_sets(corpus, chain_taxonomy, dictionary, ASSETS) == {}


def _dictionary_for(corpus, taxonomy):
    from cwemap.features import build_dictionary
    from cwemap.textprep import preprocess

    docs = [preprocess(r.description, frozenset(), SynonymTable.empty()) for r in corpus]
    for node_id, node in taxonomy.nodes.items():
        if node_id != taxonomy.root_id and node.text():
            docs.append(preprocess(node.text(), frozenset(), SynonymTable.empty()))
    return build_dictionary(docs, 1)


class TestTrainHierarchy:
    def test_synthetic_two_level_has_three_classifiers(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        model = train_hierarchy(corpus, taxonomy, ASSETS, quick_cfg())
        assert set(model.classifiers) == {taxonomy.root_id, "CWE-100", "CWE-101"}
        for clf in model.classifiers.values():
            assert clf.dictionary_fingerprint == model.dictionary.fingerprint()

    def test_untouched_subtree_keeps_init_weights(self, small_synth):
        taxonomy, leaves, pools, _ = small_synth
        left_leaves = taxonomy.children["CWE-100"]
        corpus = synthdata.make_corpus(list(left_leaves), pools, per_leaf=6, seed=2)
        model = train_hierarchy(corpus, taxonomy, ASSETS, quick_cfg())
        assert model.epochs_run[taxonomy.root_id] > 0
        assert model.epochs_run["CWE-100"] > 0
        assert model.epochs_run["CWE-101"] == 0

    def test_same_seed_identical_fingerprints(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        cfg = quick_cfg(max_epochs=10)
        m1 = train_hierarchy(corpus, taxonomy, ASSETS, cfg)
        m2 = train_hierarchy(corpus, taxonomy, ASSETS, cfg)
        assert fingerprint(m1) == fingerprint(m2)

    def test_different_seed_differs(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        m1 = train_hierarchy(corpus, taxonomy, ASSETS, quick_cfg(max_epochs=10, seed=1))
        m2 = train_hierarchy(corpus, taxonomy, ASSETS, quick_cfg(max_epochs=10, seed=2))
        assert fingerprint(m1) != fingerprint(m2)

    def test_jobs_do_not_change_result(self, small_synth, tmp_path):
        # --jobs is accepted for old command lines but training is serial.
        taxonomy, leaves, pools, corpus = small_synth
        write_cve_corpus(corpus, tmp_path / "corpus.jsonl")
        save_taxonomy(taxonomy, tmp_path / "taxonomy.json")
        base = ["train", "--corpus", str(tmp_path / "corpus.jsonl"),
                "--taxonomy", str(tmp_path / "taxonomy.json"), "--max-epochs", "10",
                "--th", "1", "--seed", "3"]
        assert cli.main(base + ["--model", str(tmp_path / "serial")]) == 0
        assert cli.main(base + ["--jobs", "4", "--model", str(tmp_path / "jobs4")]) == 0
        assert fingerprint(load(tmp_path / "serial")) == fingerprint(load(tmp_path / "jobs4"))

    def test_pinned_fingerprints(self):
        # Referee for refactors of the training path: these models must stay
        # bit-identical.  One run trains a fixed number of epochs; the other
        # stops on the loss plateau, so it also pins the epoch losses.
        taxonomy, leaves, pools = synthdata.binary_taxonomy(depth=3, pool_size=20, seed=7)
        corpus = synthdata.make_corpus(leaves, pools, per_leaf=12, tokens_per_cve=10,
                                       noise=0.2, seed=3)
        fixed = TrainConfig(max_epochs=6, batch_size=8, seed=5, min_term_count=2,
                            early_stop_patience=0)
        plateau = TrainConfig(learning_rate=0.3, max_epochs=100, batch_size=8, seed=5,
                              min_term_count=2, early_stop_patience=2)
        model = train_hierarchy(corpus, taxonomy, ASSETS, fixed)
        assert fingerprint(model) == (
            "b9dec93ca2ac5bdbc3da7d3d790d2a9837d2ed3983e671c97e6dd9809e4c20ce"
        )
        model = train_hierarchy(corpus, taxonomy, ASSETS, plateau)
        assert sorted(model.epochs_run.items()) == [
            ("CWE-100", 6), ("CWE-101", 5), ("CWE-102", 6), ("CWE-103", 10),
            ("CWE-104", 7), ("CWE-105", 7), ("ROOT", 9),
        ]
        assert fingerprint(model) == (
            "7a1fbb4539a077c3628a7ea3473afdf39730457d47cd4dc2740bc7367220a12b"
        )

    def test_empty_corpus_rejected(self, chain_taxonomy):
        with pytest.raises(ConfigurationError):
            train_hierarchy([], chain_taxonomy, ASSETS, quick_cfg())


@pytest.fixture(scope="module")
def model(small_synth):
    taxonomy, leaves, pools, corpus = small_synth
    return train_hierarchy(corpus, taxonomy, ASSETS, quick_cfg())


class TestClassify:
    def test_leaf_text_descends_to_leaf(self, small_synth, model):
        taxonomy, leaves, pools, _ = small_synth
        leaf = leaves[0]
        parent = next(iter(taxonomy.nodes[leaf].parent_ids))
        text = synthdata.leaf_text(pools, leaf, seed=77)
        pred = classify(model, text)
        assert pred.paths == ((parent, leaf),)
        assert pred.candidates == frozenset({parent, leaf})

    def test_matches_exhaustive_dense_oracle(self, small_synth, model):
        taxonomy, leaves, pools, _ = small_synth
        mode = threshold(0.75)
        for seed, leaf in enumerate(leaves):
            text = synthdata.leaf_text(pools, leaf, seed=100 + seed)
            pred = classify(model, text, mode)
            assert set(pred.paths) == set(_oracle_paths(model, text, mode))

    def test_unattainable_threshold_yields_empty(self, model):
        pred = classify(model, "anything at all", threshold(1.0))
        assert pred.candidates == frozenset()
        assert pred.paths == ()

    def test_empty_text_rejected(self, model):
        with pytest.raises(ValidationError):
            classify(model, "   ")

    def test_top_k_mode_reaches_leaves(self, small_synth, model):
        taxonomy, leaves, pools, _ = small_synth
        text = synthdata.leaf_text(pools, leaves[2], seed=55)
        pred = classify(model, text, top_k(1))
        assert pred.mode == "topk:1"
        assert len(pred.paths) == 1
        assert len(pred.paths[0]) == 2  # descends one child per level to a leaf

    def test_threshold_monotonicity(self, small_synth, model):
        taxonomy, leaves, pools, _ = small_synth
        for seed, leaf in enumerate(leaves):
            text = synthdata.leaf_text(pools, leaf, seed=300 + seed)
            low = classify(model, text, threshold(0.6)).candidates
            high = classify(model, text, threshold(0.9)).candidates
            assert high <= low

    def test_frontier_locality_instrumentation(self, small_synth, model, monkeypatch):
        taxonomy, leaves, pools, _ = small_synth
        calls = []
        real = hierarchy.forward_scores

        def counting(clf, fv):
            calls.append(clf.node_id)
            return real(clf, fv)

        monkeypatch.setattr(hierarchy, "forward_scores", counting)
        text = synthdata.leaf_text(pools, leaves[0], seed=42)
        pred = classify(model, text)
        scored_internal = [
            n for n in pred.candidates | {taxonomy.root_id} if taxonomy.children[n]
        ]
        assert sorted(calls) == sorted(scored_internal)

    def test_path_consistency_invariant(self, small_synth, model):
        taxonomy, leaves, pools, _ = small_synth
        root_children = set(taxonomy.children[taxonomy.root_id])
        for seed, leaf in enumerate(leaves):
            text = synthdata.leaf_text(pools, leaf, seed=500 + seed)
            pred = classify(model, text, threshold(0.6))
            for path in pred.paths:
                assert path[0] in root_children
                for parent, child in zip(path, path[1:]):
                    assert child in taxonomy.children[parent]
                assert all(node in pred.candidates for node in path)


def _oracle_paths(model, text, mode):
    """Exhaustive reimplementation: dense scores + recursive selection."""
    taxonomy = model.taxonomy
    fv = model.encode_text(text)
    dense = np.zeros(model.dictionary.size)
    dense[list(fv.on_positions)] = 1.0

    def node_scores(node_id):
        clf = model.classifiers[node_id]
        return dict(zip(clf.child_ids, sigmoid(dense @ clf.weights)))

    paths = []

    def walk(node_id, prefix):
        children = taxonomy.children.get(node_id, ())
        if not children:
            if prefix:
                paths.append(tuple(prefix))
            return
        scores = node_scores(node_id)
        if mode.kind == "threshold":
            chosen = [c for c in children if scores[c] >= mode.tau]
        else:
            ranked = sorted(children, key=lambda c: (-scores[c], c))
            chosen = ranked[: mode.k]
        if not chosen:
            if prefix:
                paths.append(tuple(prefix))
            return
        for child in chosen:
            walk(child, prefix + [child])

    walk(taxonomy.root_id, [])
    return paths


class TestChainScenario:
    def test_command_injection_text_follows_full_chain(self, chain_taxonomy):
        corpus = [
            make_record(
                n,
                "devices allow authenticated remote os command injection via shell "
                "metacharacters in the parameter",
                ["CWE-78"],
            )
            for n in range(1, 7)
        ]
        model = train_hierarchy(corpus, chain_taxonomy, ASSETS, quick_cfg())
        pred = classify(
            model,
            "remote os command injection via shell metacharacters in a parameter",
        )
        assert pred.paths == (("CWE-707", "CWE-74", "CWE-77", "CWE-78"),)


class TestDagScenario:
    def test_node_under_two_parents_deduped_with_both_paths(self, dag_taxonomy):
        corpus = [
            make_record(n, "upload of file with trailing link extension bypasses check",
                        ["CWE-22"])
            for n in range(1, 9)
        ]
        model = train_hierarchy(corpus, dag_taxonomy, ASSETS, quick_cfg())
        pred = classify(model, "upload file with link extension bypasses the check")
        assert pred.candidates == frozenset({"CWE-435", "CWE-664", "CWE-22"})
        assert set(pred.paths) == {("CWE-435", "CWE-22"), ("CWE-664", "CWE-22")}
        # the shared node appears once in candidates, once per maximal path
        assert sum(1 for p in pred.paths for n in p if n == "CWE-22") == 2


class TestInitializationAsPrior:
    def test_untrained_tfidf_model_selects_correct_child_each_level(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        model = train_hierarchy(corpus, taxonomy, ASSETS, quick_cfg(max_epochs=0))
        for seed, leaf in enumerate(leaves):
            parent = next(iter(taxonomy.nodes[leaf].parent_ids))
            text = synthdata.leaf_text(pools, leaf, seed=900 + seed)
            pred = classify(model, text)
            assert (parent, leaf) in pred.paths


class TestFlatBaseline:
    def test_one_classifier_over_all_classes(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        model = train_flat_baseline(corpus, taxonomy, ASSETS, quick_cfg(max_epochs=5))
        assert len(model.classifier.child_ids) == 6  # 2 internal + 4 leaves
        assert set(model.classifier.child_ids) == set(flat_class_list(corpus, taxonomy))

    def test_reproducible_with_seed(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        cfg = quick_cfg(max_epochs=5)
        m1 = train_flat_baseline(corpus, taxonomy, ASSETS, cfg)
        m2 = train_flat_baseline(corpus, taxonomy, ASSETS, cfg)
        assert fingerprint(m1) == fingerprint(m2)

    def test_prediction_is_path_consistent(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        model = train_flat_baseline(corpus, taxonomy, ASSETS, quick_cfg(max_epochs=60))
        text = synthdata.leaf_text(pools, leaves[1], seed=31)
        pred = classify_flat(model, text, threshold(0.5))
        root_children = set(taxonomy.children[taxonomy.root_id])
        for path in pred.paths:
            assert path[0] in root_children
            for parent, child in zip(path, path[1:]):
                assert child in taxonomy.children[parent]


class TestTwoLayerBaseline:
    def test_trains_and_classifies_end_to_end(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        model = train_two_layer_baseline(
            corpus, taxonomy, ASSETS, quick_cfg(max_epochs=30), hidden_size=8
        )
        assert set(model.classifiers) == {taxonomy.root_id, "CWE-100", "CWE-101"}
        text = synthdata.leaf_text(pools, leaves[0], seed=12)
        pred = classify(model, text, top_k(1))
        assert pred.paths  # descends somewhere without error

    def test_hidden_size_validated(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        with pytest.raises(ConfigurationError):
            train_two_layer_baseline(corpus, taxonomy, ASSETS, quick_cfg(), hidden_size=0)
