import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import synthdata
from cwemap import cli, hierarchy
from cwemap.errors import ConfigurationError, ValidationError
from cwemap.hierarchy import (
    FLAT_NODE_ID,
    PrepAssets,
    _flat_training_set,
    assemble_training_sets,
    build_class_documents,
    classify,
    encode_corpus,
    encode_text,
    threshold,
    top_k,
    train_hierarchy,
)
from cwemap.ingest import CveRecord, CweNode, build_taxonomy, save_taxonomy, write_cve_corpus
from cwemap.scoring import init_weights
from cwemap.modelstore import fingerprint, load
from cwemap.netcore import TrainConfig, sigmoid
from cwemap.textprep import SynonymTable

from conftest import make_record

ASSETS = PrepAssets(stopwords=frozenset(), synonyms=SynonymTable.empty())


def classify_one(model, text, mode=None):
    (pred,) = classify(model, [text], mode)
    return pred


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


def node_batches(encoded, sets):
    """Each node's training set as a batch: its rows of the corpus batch, with
    its targets, as ``train_hierarchy`` takes them before the node's fit."""
    batch = encoded.batch()
    return {node_id: replace(batch.take(rows), targets=targets)
            for node_id, (rows, targets) in sets.items()}


def training_sets(corpus, taxonomy):
    encoded = encode_corpus(corpus, taxonomy, ASSETS, 1)
    return node_batches(encoded, assemble_training_sets(encoded, taxonomy))


class TestAssembleTrainingSets:
    def test_chain_contributions(self, chain_taxonomy):
        corpus = [make_record(1, "run os command", ["CWE-78"])]
        sets = training_sets(corpus, chain_taxonomy)
        expected_bits = {
            chain_taxonomy.root_id: "CWE-707",
            "CWE-707": "CWE-74",
            "CWE-74": "CWE-77",
            "CWE-77": "CWE-78",
        }
        assert set(sets) == set(expected_bits)
        for node_id, marked_child in expected_bits.items():
            (targets,) = sets[node_id].targets
            children = chain_taxonomy.children[node_id]
            assert targets.tolist() == [1.0 if c == marked_child else 0.0 for c in children]

    def test_multi_parent_label_marks_both_parents(self, dag_taxonomy):
        corpus = [make_record(1, "path traversal text", ["CWE-22"])]
        sets = training_sets(corpus, dag_taxonomy)
        root_children = dag_taxonomy.children[dag_taxonomy.root_id]
        (root_targets,) = sets[dag_taxonomy.root_id].targets
        assert root_targets.tolist() == [1.0] * len(root_children)  # both 435 and 664
        for parent in ("CWE-435", "CWE-664"):
            (targets,) = sets[parent].targets
            assert targets.tolist() == [1.0]

    def test_two_labels_sharing_parent_give_one_example_two_bits(self, small_synth):
        taxonomy, leaves, pools, _ = small_synth
        siblings = taxonomy.children["CWE-100"]  # two leaves under one parent
        corpus = [make_record(1, "words", list(siblings))]
        examples = training_sets(corpus, taxonomy)["CWE-100"]
        assert examples.size == 1
        assert examples.targets[0].tolist() == [1.0, 1.0]

    def test_unresolvable_label_skipped(self, chain_taxonomy):
        corpus = [make_record(1, "text", ["CWE-9999"]), make_record(2, "run os", ["CWE-77"])]
        encoded = encode_corpus(corpus, chain_taxonomy, ASSETS, 1)
        assert encoded.labels == [frozenset({"CWE-77"})]
        sets = training_sets(corpus, chain_taxonomy)
        assert sets and all(examples.size == 1 for examples in sets.values())

    def test_corpus_without_resolvable_label_rejected(self, chain_taxonomy):
        # The CWE node texts alone do not make a training set.
        assert any(node.text() for node in chain_taxonomy.nodes.values())
        corpus = [make_record(i, "run os command", ["CWE-9999"]) for i in range(3)]
        with pytest.raises(ConfigurationError, match="no training record has a label"):
            encode_corpus(corpus, chain_taxonomy, ASSETS, 1)


@st.composite
def labeled_dags(draw):
    """A random CWE DAG with node texts, a labeled corpus over it (some
    labels missing from the taxonomy, some records unlabeled, some ids
    shared) and a dictionary threshold that keeps only part of the terms."""
    parents = draw(synthdata.dag_parents(max_nodes=8))
    (words,) = synthdata.make_pools(1, 12, draw(st.integers(0, 2**16)))
    text = st.lists(st.sampled_from(words), min_size=1, max_size=8).map(" ".join)
    taxonomy = build_taxonomy([
        CweNode(id=n, name=draw(text), description=draw(st.one_of(st.just(""), text)),
                parent_ids=frozenset(p))
        for n, p in parents.items()
    ])
    labels = st.lists(st.sampled_from([*parents, "CWE-9999"]), max_size=3, unique=True)
    corpus = [make_record(draw(st.integers(0, 3)), draw(text), draw(labels))
              for _ in range(draw(st.integers(0, 8)))]
    return taxonomy, corpus, draw(st.integers(1, 3))


def resolvable(corpus, taxonomy):
    """Whether some record of ``corpus`` has a label in ``taxonomy``."""
    return any(label in taxonomy for record in corpus for label in record.cwe_labels)


def unpacked(batch):
    """The rows of a batch as (positions, targets) lists."""
    return [(tuple(batch.positions[batch.offsets[r]:batch.offsets[r + 1]].tolist()),
             batch.targets[r].tolist()) for r in range(batch.size)]


class TestTrainingSets:
    """The encoded corpus gives the training sets of the string path."""

    @settings(max_examples=80, deadline=None)
    @given(labeled_dags())
    def test_dictionary_and_training_sets_equal_string_oracle(self, case):
        taxonomy, corpus, min_count = case
        if not resolvable(corpus, taxonomy):
            with pytest.raises(ConfigurationError):
                encode_corpus(corpus, taxonomy, ASSETS, min_count)
            return
        encoded = encode_corpus(corpus, taxonomy, ASSETS, min_count)
        dictionary = encoded.dictionary
        want = oracle.build_dictionary(corpus, taxonomy, ASSETS, min_count)
        assert dictionary == want
        assert dictionary == want
        sets = node_batches(encoded, assemble_training_sets(encoded, taxonomy))
        expected = oracle.assemble_training_sets(corpus, taxonomy, dictionary, ASSETS)
        assert sets.keys() == expected.keys()
        for node_id, examples in expected.items():
            batch = sets[node_id]
            assert batch.dimension == dictionary.size
            assert batch.positions.dtype == batch.offsets.dtype == np.int64
            assert batch.offsets.tolist() == np.cumsum([0] + [len(p) for p, _ in examples]
                                                      ).tolist()
            assert unpacked(batch) == examples
        classes, flat_rows = _flat_training_set(encoded, taxonomy)
        flat = node_batches(encoded, {FLAT_NODE_ID: flat_rows})[FLAT_NODE_ID]
        want_classes, want = oracle.flat_training_set(corpus, taxonomy, dictionary, ASSETS)
        assert classes == want_classes
        assert unpacked(flat) == want

    @pytest.mark.parametrize("kind", ["hierarchical", "flat", "two-layer"])
    def test_each_text_preprocessed_and_counted_once(self, small_synth, monkeypatch, kind):
        taxonomy, leaves, pools, corpus = small_synth
        corpus = corpus + [make_record(999, "an unlabeled text")]
        calls = {"preprocess": [], "build_dictionary": [], "encode": []}

        def counted(name, function):
            def wrapper(arg, *rest):
                calls[name].append(arg)
                return function(arg, *rest)
            return wrapper

        # Training counts every text's n-grams in one build_dictionary call,
        # through the hierarchy global; encode is inference's.
        for name in calls:
            monkeypatch.setattr(hierarchy, name, counted(name, getattr(hierarchy, name)))
        train_hierarchy(corpus, taxonomy, ASSETS, quick_cfg(max_epochs=1), kind=kind,
                        hidden_size=2)
        texts = [r.description for r in corpus if r.cwe_labels]
        texts += [n.text() for n in taxonomy.nodes.values()
                  if n.id != taxonomy.root_id and n.text()]
        assert sorted(calls["preprocess"]) == sorted(texts)
        (token_lists,) = calls["build_dictionary"]
        assert len(token_lists) == len(texts)
        assert calls["encode"] == []


class TestClassDocuments:
    @settings(max_examples=80, deadline=None)
    @given(labeled_dags())
    def test_arrays_and_init_weights_equal_string_oracle(self, case):
        taxonomy, corpus, min_count = case
        if not resolvable(corpus, taxonomy):
            return
        encoded = encode_corpus(corpus, taxonomy, ASSETS, min_count)
        dictionary = encoded.dictionary
        docs = build_class_documents(encoded, taxonomy)
        expected = oracle.build_class_documents(corpus, taxonomy, dictionary, ASSETS)
        assert docs.keys() == expected.keys()
        for node_id, per_child in expected.items():
            assert list(docs[node_id]) == list(per_child)
            for child, want in per_child.items():
                got = docs[node_id][child]
                positions, counts, df = oracle.class_document_arrays(want, dictionary)
                np.testing.assert_array_equal(got.positions, positions)
                np.testing.assert_array_equal(got.counts, counts)
                np.testing.assert_array_equal(got.df, df)
                assert got.source_doc_count == want.source_doc_count
            children = list(taxonomy.children[node_id])
            weights = init_weights(children, dictionary, docs[node_id]).to_dense()
            assert weights.tobytes() == oracle.init_weights(
                children, dictionary, per_child).tobytes()

    def test_child_document_built_once_for_all_parents(self, dag_taxonomy):
        corpus = [make_record(1, "path traversal text", ["CWE-22"])]
        docs = build_class_documents(encode_corpus(corpus, dag_taxonomy, ASSETS, 1), dag_taxonomy)
        assert docs["CWE-435"]["CWE-22"] is docs["CWE-664"]["CWE-22"]
        assert docs["CWE-435"]["CWE-22"].source_doc_count == 2  # CWE text + the CVE


class TestRowSparseWeights:
    """A TF-IDF node stores the rows of its children's class documents, and
    its training touches no other row."""

    @settings(max_examples=80, deadline=None)
    @given(labeled_dags())
    def test_training_support_lies_in_the_stored_rows(self, case):
        # A record reaches a node through a child whose class document holds
        # every term of the record.
        taxonomy, corpus, min_count = case
        if not resolvable(corpus, taxonomy):
            return
        encoded = encode_corpus(corpus, taxonomy, ASSETS, min_count)
        docs = build_class_documents(encoded, taxonomy)
        sets = node_batches(encoded, assemble_training_sets(encoded, taxonomy))
        for node_id, examples in sets.items():
            stored = init_weights(list(taxonomy.children[node_id]), encoded.dictionary,
                                  docs[node_id]).rows
            assert np.isin(np.unique(examples.positions), stored).all(), node_id

    @settings(max_examples=40, deadline=None)
    @given(labeled_dags(), st.sampled_from(["tfidf", "random"]))
    def test_trained_scorers_equal_the_dense_fit(self, case, init):
        taxonomy, corpus, min_count = case
        if not resolvable(corpus, taxonomy):
            return
        cfg = quick_cfg(max_epochs=3, batch_size=2, min_term_count=min_count, weight_init=init)
        model = train_hierarchy(corpus, taxonomy, ASSETS, cfg)
        encoded = encode_corpus(corpus, taxonomy, ASSETS, min_count)
        docs = build_class_documents(encoded, taxonomy) if init == "tfidf" else None
        sets = node_batches(encoded, assemble_training_sets(encoded, taxonomy))
        for node_id, clf in model.classifiers.items():
            expected = hierarchy._initial_scorer("hierarchical", node_id,
                                                 taxonomy.children[node_id],
                                                 encoded.dictionary, docs, cfg, 1)
            if node_id in sets:
                node_cfg = replace(cfg, seed=hierarchy._node_seed(cfg.seed, node_id))
                expected, _ = oracle.train_node(expected, sets[node_id], node_cfg)
            want = oracle.dense_params(expected)["weights"]
            assert clf.weights.to_dense().tobytes() == want.tobytes(), node_id


#: ``modelstore.fingerprint`` of the baseline models of ``test_pinned_baseline_fingerprints``.
PINNED_BASELINE_FINGERPRINTS = {
    "flat": "1fa0a12a1a382253786d801cf0eb5235d5f22933a2aeda2ebc0a0b29d8629e43",
    "two-layer": "cb6210c9c7cb36b173dd3904e7268f51118c6c2d1551632b73e8741620c55c0e",
}


class TestTrainHierarchy:
    @pytest.mark.parametrize("kind", ["hierarchical", "flat", "two-layer"])
    def test_missing_label_warned_once_per_record(self, chain_taxonomy, caplog, kind):
        corpus = [make_record(1, "run os command", ["CWE-78", "CWE-9999"]),
                  make_record(2, "inject command text", ["CWE-9998", "CWE-9999"]),
                  make_record(3, "special elements", ["CWE-77"])]
        with caplog.at_level(logging.WARNING, logger="cwemap.hierarchy"):
            train_hierarchy(corpus, chain_taxonomy, ASSETS, quick_cfg(), kind=kind,
                            hidden_size=2)
        warned = sorted(r.getMessage() for r in caplog.records if "not in taxonomy" in r.message)
        assert warned == [f"{record}: label {label} not in taxonomy, skipped"
                          for record, label in [("CVE-1999-0001", "CWE-9999"),
                                                ("CVE-1999-0002", "CWE-9998"),
                                                ("CVE-1999-0002", "CWE-9999")]]

    @pytest.mark.parametrize("kind", ["hierarchical", "flat"])
    def test_records_sharing_an_id_train_as_distinct_records(self, chain_taxonomy, kind):
        texts = [("apple apple", "CWE-707"), ("banana banana", "CWE-74")]
        shared = [CveRecord("CVE-2020-0001", t, frozenset({label})) for t, label in texts]
        distinct = [make_record(n, t, [label]) for n, (t, label) in enumerate(texts)]
        cfg = quick_cfg(max_epochs=3)
        assert fingerprint(train_hierarchy(shared, chain_taxonomy, ASSETS, cfg, kind=kind)) == \
            fingerprint(train_hierarchy(distinct, chain_taxonomy, ASSETS, cfg, kind=kind))

    def test_synthetic_two_level_has_three_classifiers(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        model = train_hierarchy(corpus, taxonomy, ASSETS, quick_cfg())
        assert set(model.classifiers) == {taxonomy.root_id, "CWE-100", "CWE-101"}
        for node_id, clf in model.classifiers.items():
            assert clf.node_id == node_id
            assert clf.child_ids == taxonomy.children[node_id]
            assert clf.weights.dimension == model.dictionary.size
            assert clf.weights.columns == len(clf.child_ids)

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
        # stops on the loss plateau, so it also pins the epoch losses.  The
        # format-1 hash covers the weights alone, whatever the saved form;
        # the fingerprint also pins that form.
        taxonomy, leaves, pools = synthdata.binary_taxonomy(depth=3, pool_size=20, seed=7)
        corpus = synthdata.make_corpus(leaves, pools, per_leaf=12, tokens_per_cve=10,
                                       noise=0.2, seed=3)
        fixed = TrainConfig(max_epochs=6, batch_size=8, seed=5, min_term_count=2,
                            early_stop_patience=0)
        plateau = TrainConfig(learning_rate=0.3, max_epochs=100, batch_size=8, seed=5,
                              min_term_count=2, early_stop_patience=2)
        model = train_hierarchy(corpus, taxonomy, ASSETS, fixed)
        assert oracle.format1_fingerprint(model) == (
            "b9dec93ca2ac5bdbc3da7d3d790d2a9837d2ed3983e671c97e6dd9809e4c20ce"
        )
        assert fingerprint(model) == (
            "5d145397dc7047ca369ff777f9f236d7c1ebbbcf1d6b848a4ae1b8c26e021eac"
        )
        model = train_hierarchy(corpus, taxonomy, ASSETS, plateau)
        assert sorted(model.epochs_run.items()) == [
            ("CWE-100", 6), ("CWE-101", 5), ("CWE-102", 6), ("CWE-103", 10),
            ("CWE-104", 7), ("CWE-105", 7), ("ROOT", 9),
        ]
        assert oracle.format1_fingerprint(model) == (
            "7a1fbb4539a077c3628a7ea3473afdf39730457d47cd4dc2740bc7367220a12b"
        )
        assert fingerprint(model) == (
            "afe5fe4ebc5c77cfc4539d33a22ef50b34c309e25c9add363bf400a48d4dd34f"
        )

    @pytest.mark.parametrize("baseline, expected", [
        ("flat", "5bc3c814f31a4889026eebfe64145dd80162b0b9e20bb2aea3890b02bb79b050"),
        ("two-layer", "409aba723d4710e12f1397995d762b54ee3de8a7472c8a6f3ea23bc0744b0e21"),
    ])
    def test_pinned_baseline_fingerprints(self, tmp_path, baseline, expected):
        # The same referee for the two ablation baselines, trained through
        # the command line (two-layer at hidden width 4); ``expected`` is the
        # format-1 hash.
        taxonomy, leaves, pools = synthdata.binary_taxonomy(depth=3, pool_size=20, seed=7)
        corpus = synthdata.make_corpus(leaves, pools, per_leaf=12, tokens_per_cve=10,
                                       noise=0.2, seed=3)
        write_cve_corpus(corpus, tmp_path / "corpus.jsonl")
        save_taxonomy(taxonomy, tmp_path / "taxonomy.json")
        argv = ["train", "--corpus", str(tmp_path / "corpus.jsonl"),
                "--taxonomy", str(tmp_path / "taxonomy.json"), "--max-epochs", "6",
                "--batch-size", "8", "--seed", "5", "--th", "2",
                "--baseline", baseline, "--model", str(tmp_path / "m")]
        if baseline == "two-layer":
            argv += ["--hidden", "4"]
        assert cli.main(argv) == 0
        model = load(tmp_path / "m")
        assert oracle.format1_fingerprint(model) == expected
        assert fingerprint(model) == PINNED_BASELINE_FINGERPRINTS[baseline]

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
        pred = classify_one(model, text)
        assert pred.paths == ((parent, leaf),)
        assert pred.candidates == frozenset({parent, leaf})

    def test_matches_exhaustive_dense_oracle(self, small_synth, model):
        taxonomy, leaves, pools, _ = small_synth
        mode = threshold(0.75)
        for seed, leaf in enumerate(leaves):
            text = synthdata.leaf_text(pools, leaf, seed=100 + seed)
            pred = classify_one(model, text, mode)
            assert set(pred.paths) == set(_oracle_paths(model, text, mode))

    def test_unattainable_threshold_yields_empty(self, model):
        pred = classify_one(model, "anything at all", threshold(1.0))
        assert pred.candidates == frozenset()
        assert pred.paths == ()

    def test_empty_text_rejected(self, model):
        with pytest.raises(ValidationError):
            classify_one(model, "   ")

    def test_top_k_mode_reaches_leaves(self, small_synth, model):
        taxonomy, leaves, pools, _ = small_synth
        text = synthdata.leaf_text(pools, leaves[2], seed=55)
        pred = classify_one(model, text, top_k(1))
        assert pred.mode == "topk:1"
        assert len(pred.paths) == 1
        assert len(pred.paths[0]) == 2  # descends one child per level to a leaf

    def test_threshold_monotonicity(self, small_synth, model):
        taxonomy, leaves, pools, _ = small_synth
        for seed, leaf in enumerate(leaves):
            text = synthdata.leaf_text(pools, leaf, seed=300 + seed)
            low = classify_one(model, text, threshold(0.6)).candidates
            high = classify_one(model, text, threshold(0.9)).candidates
            assert high <= low

    def test_frontier_locality_instrumentation(self, small_synth, model):
        # Only the root and the internal nodes a record reached are scored,
        # so scores cover exactly their children.
        taxonomy, leaves, pools, _ = small_synth
        for seed, leaf in enumerate(leaves):
            text = synthdata.leaf_text(pools, leaf, seed=42 + seed)
            pred = classify_one(model, text)
            scored = [n for n in pred.candidates | {taxonomy.root_id} if taxonomy.children[n]]
            assert set(pred.scores) == {c for n in scored for c in taxonomy.children[n]}

    def test_path_consistency_invariant(self, small_synth, model):
        taxonomy, leaves, pools, _ = small_synth
        root_children = set(taxonomy.children[taxonomy.root_id])
        for seed, leaf in enumerate(leaves):
            text = synthdata.leaf_text(pools, leaf, seed=500 + seed)
            pred = classify_one(model, text, threshold(0.6))
            for path in pred.paths:
                assert path[0] in root_children
                for parent, child in zip(path, path[1:]):
                    assert child in taxonomy.children[parent]
                assert all(node in pred.candidates for node in path)


def _oracle_paths(model, text, mode):
    """Exhaustive reimplementation: dense scores + recursive selection."""
    taxonomy = model.taxonomy
    dense = np.zeros(model.dictionary.size)
    dense[encode_text(model, text)] = 1.0

    def node_scores(node_id):
        clf = model.classifiers[node_id]
        return dict(zip(clf.child_ids, sigmoid(dense @ clf.weights.to_dense())))

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
        pred = classify_one(
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
        pred = classify_one(model, "upload file with link extension bypasses the check")
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
            pred = classify_one(model, text)
            assert (parent, leaf) in pred.paths


def train_flat(corpus, taxonomy, cfg):
    return train_hierarchy(corpus, taxonomy, ASSETS, cfg, kind="flat")


class TestFlatBaseline:
    def test_one_classifier_over_all_classes(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        model = train_flat(corpus, taxonomy, quick_cfg(max_epochs=5))
        (clf,) = model.classifiers.values()
        assert model.classifiers == {taxonomy.root_id: clf}
        assert clf.node_id == "FLAT"
        assert len(clf.child_ids) == 6  # 2 internal + 4 leaves
        labels = {label for record in corpus for label in record.cwe_labels}
        assert set(clf.child_ids) == labels.union(*map(taxonomy.ancestors, labels))

    def test_reproducible_with_seed(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        cfg = quick_cfg(max_epochs=5)
        m1 = train_flat(corpus, taxonomy, cfg)
        m2 = train_flat(corpus, taxonomy, cfg)
        assert fingerprint(m1) == fingerprint(m2)

    def test_prediction_is_path_consistent(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        model = train_flat(corpus, taxonomy, quick_cfg(max_epochs=60))
        text = synthdata.leaf_text(pools, leaves[1], seed=31)
        pred = classify_one(model, text, threshold(0.5))
        root_children = set(taxonomy.children[taxonomy.root_id])
        for path in pred.paths:
            assert path[0] in root_children
            for parent, child in zip(path, path[1:]):
                assert child in taxonomy.children[parent]


class TestTwoLayerBaseline:
    def test_trains_and_classifies_end_to_end(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        model = train_hierarchy(corpus, taxonomy, ASSETS, quick_cfg(max_epochs=30),
                                kind="two-layer", hidden_size=8)
        assert set(model.classifiers) == {taxonomy.root_id, "CWE-100", "CWE-101"}
        text = synthdata.leaf_text(pools, leaves[0], seed=12)
        pred = classify_one(model, text, top_k(1))
        assert pred.paths  # descends somewhere without error

    def test_hidden_size_validated(self, small_synth):
        taxonomy, leaves, pools, corpus = small_synth
        with pytest.raises(ConfigurationError):
            train_hierarchy(corpus, taxonomy, ASSETS, quick_cfg(), kind="two-layer",
                            hidden_size=0)
