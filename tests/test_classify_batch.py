"""Batched ``classify`` against the record-at-a-time reference in ``oracle``."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import synthdata
from cwemap import hierarchy, netcore, textprep
from cwemap.errors import ConfigurationError, ValidationError
from cwemap.features import build_dictionary
from cwemap.hierarchy import (
    Model,
    PrepAssets,
    classify,
    threshold,
    top_k,
    train_hierarchy,
)
from cwemap.ingest import CveRecord, CweNode, build_taxonomy
from cwemap.netcore import NodeClassifier, TrainConfig, TwoLayerClassifier
from cwemap.textprep import SynonymTable, preprocess, tokenize

ASSETS = PrepAssets(stopwords=frozenset(), synonyms=SynonymTable.empty())
CFG = TrainConfig(max_epochs=15, batch_size=8, seed=4, min_term_count=1, early_stop_patience=0)

# Every internal node has two or more children; CWE-12 and CWE-13 have two parents.
DAG_PARENTS = {
    "CWE-1": [], "CWE-2": [], "CWE-3": [],
    "CWE-10": ["CWE-1"], "CWE-11": ["CWE-1"], "CWE-12": ["CWE-1", "CWE-2"],
    "CWE-13": ["CWE-2", "CWE-3"], "CWE-14": ["CWE-3"],
    "CWE-20": ["CWE-12"], "CWE-21": ["CWE-12"], "CWE-22": ["CWE-13"], "CWE-23": ["CWE-13"],
}
# CWE-5 and CWE-31 have one child each.
ONE_CHILD_PARENTS = {
    "CWE-5": [], "CWE-6": [], "CWE-30": ["CWE-5"], "CWE-31": ["CWE-6"], "CWE-32": ["CWE-6"],
    "CWE-40": ["CWE-31"],
}


def random_model(parents, seed, two_layer=False, scale=1.5):
    """A model of ``parents`` with random weights over a pseudo-word dictionary."""
    taxonomy = build_taxonomy(
        [CweNode(id=n, name=n, parent_ids=frozenset(p)) for n, p in parents.items()]
    )
    (words,) = synthdata.make_pools(1, 40, seed)
    dictionary, _ = build_dictionary([preprocess(" ".join(words), frozenset(),
                                                 SynonymTable.empty())], 1)
    rng = np.random.default_rng(seed)
    d = dictionary.size
    classifiers = {}
    for node_id in taxonomy.internal_nodes():
        kids = taxonomy.children[node_id]
        if two_layer:
            classifiers[node_id] = TwoLayerClassifier(
                node_id, kids, rng.normal(0, scale, (d, 6)), rng.normal(0, scale, (6, len(kids))))
        else:
            classifiers[node_id] = NodeClassifier(node_id, kids, rng.normal(0, scale, (d, len(kids))))
    return Model(taxonomy=taxonomy, dictionary=dictionary, classifiers=classifiers,
                 config=CFG, assets=ASSETS, kind="two-layer" if two_layer else "hierarchical"
                 ), words


@pytest.fixture(scope="module")
def models():
    taxonomy, leaves, pools = synthdata.two_level_taxonomy(pool_size=20, seed=5)
    corpus = synthdata.make_corpus(leaves, pools, per_leaf=8, seed=11)
    synth_words = sorted({w for pool in pools.values() for w in pool})
    dag, dag_words = random_model(DAG_PARENTS, seed=1)
    dag_two_layer, _ = random_model(DAG_PARENTS, seed=1, two_layer=True)
    return {
        "trained": (train_hierarchy(corpus, taxonomy, ASSETS, CFG), synth_words),
        "two-layer": (train_hierarchy(corpus, taxonomy, ASSETS, CFG, kind="two-layer",
                                      hidden_size=8), synth_words),
        "flat": (train_hierarchy(corpus, taxonomy, ASSETS, CFG, kind="flat"), synth_words),
        "dag": (dag, dag_words),
        "dag-two-layer": (dag_two_layer, dag_words),
    }


modes = st.one_of(
    st.none(),
    st.sampled_from([0.05, 0.3, 0.5, 0.75, 0.9, 1.0]).map(threshold),
    st.integers(1, 4).map(top_k),
)


@st.composite
def texts(draw, words):
    # "qqxv" and "zzkw" lie outside every dictionary: a text of only those
    # encodes to an empty feature vector.
    vocab = words + ["qqxv", "zzkw"]
    return [" ".join(draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=14)))
            for _ in range(draw(st.integers(1, 9)))]


@pytest.mark.parametrize(
    "kind", ["trained", "two-layer", "flat", "dag", "dag-two-layer"]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), mode=modes, chunk=st.sampled_from([1, 2, 3, 512]))
def test_batched_equals_record_at_a_time(models, kind, data, mode, chunk):
    model, words = models[kind]
    batch = data.draw(texts(words))
    ids = [f"CVE-2020-{i:04d}" for i in range(len(batch))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hierarchy, "CHUNK_RECORDS", chunk)
        got = classify(model, batch, mode, ids=ids)
    assert list(got) == [oracle.classify_one(model, t, mode, cve_id=i) for t, i in zip(batch, ids)]


# Ids that JSON must escape (a quote, a backslash, control characters, and
# U+2028, which ``ensure_ascii=False`` keeps), non-ASCII ones, and any text.
ESCAPED_IDS = st.one_of(
    st.text(alphabet=st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028",
                                      "\u00e9", "\u4e2d", "\U0001f600", "C", "-", "1"]),
            max_size=8),
    st.text(max_size=8),
)
# Scores whose text is an edge of ``float.__repr__``; drawn ones also tie.
EDGE_SCORES = np.array([0.0, 1.0, 5e-324, 1e-05, 0.5, 0.75])


@pytest.mark.parametrize(
    "kind", ["trained", "two-layer", "flat", "dag", "dag-two-layer"]
)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), mode=modes, chunk=st.sampled_from([1, 2, 3, 512]),
       seed=st.integers(0, 2**16))
def test_lines_are_json_dumps_of_each_prediction(models, kind, data, mode, chunk, seed):
    model, words = models[kind]
    batch = data.draw(texts(words))
    ids = data.draw(st.lists(ESCAPED_IDS, min_size=len(batch), max_size=len(batch)))
    rng = np.random.default_rng(seed)

    def edge_scores(clf, rows):
        # Half the scores become edge values, so candidates also tie.
        scores = netcore.forward_scores(clf, rows)
        swap = rng.random(scores.shape) < 0.5
        scores[swap] = rng.choice(EDGE_SCORES, size=int(swap.sum()))
        return scores

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hierarchy, "CHUNK_RECORDS", chunk)
        patch.setattr(hierarchy, "forward_scores", edge_scores)
        predictions = classify(model, batch, mode, ids=ids)
    assert list(predictions.lines()) == [json.dumps(oracle.to_json_dict(p), ensure_ascii=False)
                                         for p in predictions]


def test_predictions_index_like_a_list(models):
    model, words = models["dag"]
    batch = [" ".join(words[i:i + 5]) for i in range(0, 35, 5)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hierarchy, "CHUNK_RECORDS", 3)
        predictions = classify(model, batch, top_k(2))
    every = list(predictions)
    assert len(predictions) == len(every) == len(batch)
    assert [predictions[i] for i in range(-len(batch), len(batch))] == every * 2
    for piece in (slice(None), slice(2, 5), slice(-3, None), slice(None, None, -2), slice(9, 20)):
        assert predictions[piece] == every[piece]
    for index in (len(batch), -len(batch) - 1):
        with pytest.raises(IndexError):
            predictions[index]


def test_path_table_holds_every_root_path_in_sorted_order(models):
    taxonomy = models["dag"][0].taxonomy
    table = taxonomy.path_table
    order = taxonomy.order
    assert table.paths == tuple(sorted(table.paths, key=lambda p: (order.index(p[-1]), p)))
    assert [table.paths[p] for p in np.argsort(table.rank)] == sorted(table.paths)
    assert [order[j] for j in np.argsort(table.id_rank)] == sorted(order)
    for j, node_id in enumerate(order):
        ending = table.paths[table.starts[j]:table.starts[j + 1]]
        assert set(ending) == (set() if node_id == taxonomy.root_id
                               else taxonomy._root_paths[node_id])
        for p in range(table.starts[j], table.starts[j + 1]):
            path = table.paths[p]
            assert [order[c] for c in table.columns[p]] == (
                list(path) + [taxonomy.root_id] * (table.columns.shape[1] - len(path)))
    for k, parent in enumerate(table.parents):
        stop = table.child_starts[k + 1] if k + 1 < len(table.parents) else None
        assert tuple(order[c] for c in table.children[table.child_starts[k]:stop]) == (
            taxonomy.children[order[parent]])


def test_corpus_longer_than_one_chunk(models):
    model, words = models["dag"]
    rng = np.random.default_rng(8)
    n = 2 * hierarchy.CHUNK_RECORDS + 37
    batch = [" ".join(rng.choice(words, size=rng.integers(1, 15))) for _ in range(n)]
    got = classify(model, batch, top_k(2))
    assert list(got) == [oracle.classify_one(model, t, top_k(2)) for t in batch]


def test_model_missing_a_scorer_is_rejected(models):
    dag = models["dag"][0]
    with pytest.raises(ConfigurationError, match="node CWE-12 has no scorer"):
        replace(dag, classifiers={k: v for k, v in dag.classifiers.items() if k != "CWE-12"})


def _flat_scorer(model, classes):
    return NodeClassifier("FLAT", classes, np.zeros((model.dictionary.size, len(classes))))


@pytest.mark.parametrize("edit, message", [
    (lambda m: {**m.classifiers, "CWE-20": _flat_scorer(m, ("CWE-1",))},
     "node CWE-20 is not a scoring node"),
    (lambda m: {**m.classifiers, "CWE-13": _flat_scorer(m, ("CWE-23", "CWE-22"))},
     "CWE-13: scorer child ids"),
    (lambda m: {**m.classifiers, "CWE-13": NodeClassifier("CWE-13", ("CWE-22", "CWE-23"),
                                                         np.zeros((3, 2)))},
     "CWE-13: weight rows 3 != dictionary size"),
], ids=["not-a-scoring-node", "children-out-of-order", "dimension"])
def test_model_with_mismatched_scorers_is_rejected(models, edit, message):
    dag = models["dag"][0]
    with pytest.raises(ConfigurationError, match=message):
        replace(dag, classifiers=edit(dag))


@pytest.mark.parametrize("classes", [("CWE-100", "CWE-100"), ("CWE-100", "ROOT"),
                                     ("CWE-100", "CWE-99")],
                         ids=["duplicate", "root", "unknown"])
def test_flat_scorer_over_other_than_distinct_nodes_is_rejected(models, classes):
    flat = models["flat"][0]
    replace(flat, classifiers={"ROOT": _flat_scorer(flat, ("CWE-100", "CWE-102"))})
    with pytest.raises(ConfigurationError, match="ROOT: scorer child ids"):
        replace(flat, classifiers={"ROOT": _flat_scorer(flat, classes)})


class TestOneChildNodes:
    # A one-child node's record-at-a-time logit is a pairwise sum of a
    # one-column slice; the batch adds the rows in order.  The two may
    # differ by rounding, never in what is selected.
    @pytest.mark.parametrize("seed", [2, 3])
    def test_same_selection_scores_within_rounding(self, seed):
        model, words = random_model(ONE_CHILD_PARENTS, seed=seed)
        rng = np.random.default_rng(seed)
        batch = [" ".join(rng.choice(words, size=rng.integers(1, 30))) for _ in range(300)]
        for mode in (threshold(0.5), top_k(1)):
            for got, want in zip(classify(model, batch, mode),
                                 [oracle.classify_one(model, t, mode) for t in batch]):
                assert got.paths == want.paths
                assert got.candidates == want.candidates
                assert got.scores.keys() == want.scores.keys()
                for node, score in got.scores.items():
                    assert abs(score - want.scores[node]) <= 1e-12

    def test_chain_taxonomy_scenario(self, chain_taxonomy):
        corpus = [CveRecord(id=f"CVE-1999-{n:04d}",
                            description="remote os command injection via shell",
                            cwe_labels=frozenset({"CWE-78"})) for n in range(1, 7)]
        model = train_hierarchy(corpus, chain_taxonomy, ASSETS, CFG)
        batch = ["os command injection", "shell", "nothing related at all"]
        for got, want in zip(classify(model, batch), [oracle.classify_one(model, t) for t in batch]):
            assert (got.paths, got.candidates) == (want.paths, want.candidates)
            assert max(abs(s - want.scores[c]) for c, s in got.scores.items()) <= 1e-12


class TestCallCounts:
    """What the traced bench counts on classify: one ``preprocess`` and one
    ``encode`` per text, and one ``stem`` call per token left after the
    stopwords."""

    def test_preprocess_and_encode_once_per_text_stem_once_per_token(self, models,
                                                                      monkeypatch):
        model, words = models["dag"]
        model = replace(model, assets=PrepAssets(frozenset({"the"}), SynonymTable.empty()))
        batch = [" ".join(words[i:i + 7]) + " the qqxv" for i in range(0, 35, 5)] * 2
        calls = {"preprocess": 0, "encode": 0, "stem": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(hierarchy, "preprocess", counted("preprocess", hierarchy.preprocess))
        monkeypatch.setattr(hierarchy, "encode", counted("encode", hierarchy.encode))
        monkeypatch.setattr(textprep, "stem", counted("stem", textprep.stem))
        classify(model, batch)
        tokens = [t for text in batch for t in tokenize(text) if t != "the"]
        assert calls == {"preprocess": len(batch), "encode": len(batch), "stem": len(tokens)}


class TestInputChecks:
    def test_bare_string_rejected(self, models):
        with pytest.raises(ValidationError):
            classify(models["dag"][0], "one description")

    def test_empty_description_rejected_before_classifying(self, models, monkeypatch):
        calls = []
        monkeypatch.setattr(hierarchy, "_classify_chunk", lambda *a: calls.append(a) or [])
        with pytest.raises(ValidationError):
            classify(models["dag"][0], ["fine text", "   "])
        assert calls == []

    @pytest.mark.parametrize("bad", ["", "  \n", None, 7])
    def test_non_text_rejected(self, models, bad):
        with pytest.raises(ValidationError):
            classify(models["dag"][0], ["fine text", bad])

    def test_ids_must_match_texts(self, models):
        with pytest.raises(ValidationError):
            classify(models["dag"][0], ["a", "b"], ids=["CVE-2020-0001"])

    def test_no_texts_no_predictions(self, models):
        assert list(classify(models["dag"][0], [])) == []
