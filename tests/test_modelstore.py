"""Model persistence: save -> load keeps every model kind exactly."""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import synthdata
from cwemap import modelstore
from cwemap.features import build_dictionary, count_terms
from cwemap.hierarchy import FLAT_NODE_ID, Model, PrepAssets, classify
from cwemap.ingest import CweNode, build_taxonomy
from cwemap.netcore import NodeClassifier, TrainConfig, TwoLayerClassifier
from cwemap.textprep import SynonymTable, preprocess

ASSETS = PrepAssets(stopwords=frozenset({"the", "a"}),
                    synonyms=SynonymTable(groups=(("SQLI", (("sql", "injection"),)),)))
KINDS = ("hierarchical", "two-layer", "flat")


def make_model(kind, parents, seed, hidden=3):
    """A model of ``kind`` over the taxonomy ``parents`` with random weights."""
    taxonomy = build_taxonomy(
        [CweNode(id=n, name=n, parent_ids=frozenset(p)) for n, p in parents.items()]
    )
    (words,) = synthdata.make_pools(1, 30, seed)
    dictionary = build_dictionary([count_terms(preprocess(" ".join(words), frozenset(),
                                                          SynonymTable.empty()))], 1)
    rng = np.random.default_rng(seed)
    d = dictionary.size
    cfg = TrainConfig(seed=seed, max_epochs=seed % 7)
    if kind == "flat":
        classes = tuple(sorted(parents))
        classifiers = {taxonomy.root_id: NodeClassifier(FLAT_NODE_ID, classes,
                                                        rng.normal(size=(d, len(classes))))}
    else:
        classifiers = {}
        for node_id in taxonomy.internal_nodes():
            kids = taxonomy.children[node_id]
            if kind == "two-layer":
                classifiers[node_id] = TwoLayerClassifier(
                    node_id, kids, rng.normal(size=(d, hidden)),
                    rng.normal(size=(hidden, len(kids))))
            else:
                classifiers[node_id] = NodeClassifier(node_id, kids,
                                                      rng.normal(size=(d, len(kids))))
    return Model(taxonomy=taxonomy, dictionary=dictionary, classifiers=classifiers, config=cfg,
                 assets=ASSETS, kind=kind)


def files_of(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), parents=synthdata.dag_parents(),
       seed=st.integers(0, 2**16), hidden=st.integers(1, 4))
def test_save_load_fingerprint_is_identity(kind, parents, seed, hidden):
    model = make_model(kind, parents, seed, hidden)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        modelstore.save(model, first)
        loaded = modelstore.load(first)
        assert modelstore.fingerprint(loaded) == modelstore.fingerprint(model)
        assert loaded.dictionary.size == model.dictionary.size
        assert loaded.taxonomy.to_node_list() == model.taxonomy.to_node_list()
        # Saving the loaded model again writes the same bytes.
        modelstore.save(loaded, second)
        assert files_of(second) == files_of(first)


def test_load_leaves_the_slot_tokens_to_the_first_encode(tmp_path):
    model = make_model("hierarchical", {"CWE-1": [], "CWE-2": [], "CWE-3": ["CWE-1"]}, seed=3)
    modelstore.save(model, tmp_path / "model")
    loaded = modelstore.load(tmp_path / "model")
    assert "slot_tokens" not in vars(loaded.dictionary)
    classify(loaded, ["some description"])
    assert "slot_tokens" in vars(loaded.dictionary)


def test_manifest_listing_a_hidden_size_still_loads(tmp_path):
    """Directories saved before the width was read only off the weights
    list it in the config; the key is ignored."""
    model = make_model("two-layer", {"CWE-1": [], "CWE-2": [], "CWE-3": ["CWE-1"]}, seed=3)
    modelstore.save(model, tmp_path / "model")
    manifest = tmp_path / "model" / modelstore.MANIFEST
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    assert "hidden_size" not in doc["config"]
    doc["config"]["hidden_size"] = 3
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    loaded = modelstore.load(tmp_path / "model")
    assert {clf.hidden_size for clf in loaded.classifiers.values()} == {3}
    assert modelstore.fingerprint(loaded) == modelstore.fingerprint(model)
