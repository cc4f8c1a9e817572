"""Model persistence: save -> load keeps every model kind exactly; the
checksums, the commit point and the format version guard the directory."""

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import synthdata
from conftest import make_record
from cwemap import cli, modelstore
from cwemap.errors import IntegrityError
from cwemap.features import Dictionary, build_dictionary
from cwemap.hierarchy import FLAT_NODE_ID, SCORERS, Model, PrepAssets, classify
from cwemap.ingest import CweNode, build_taxonomy, save_taxonomy, write_cve_corpus
from cwemap.netcore import NodeClassifier, RowBlock, TrainConfig, TwoLayerClassifier
from cwemap.textprep import SynonymTable, preprocess

ASSETS = PrepAssets(stopwords=frozenset({"the", "a"}),
                    synonyms=SynonymTable(groups=(("SQLI", (("sql", "injection"),)),)))
KINDS = ("hierarchical", "two-layer", "flat")


def make_model(kind, parents, seed, hidden=3):
    """A model of ``kind`` over the taxonomy ``parents`` with random weights;
    a hierarchical scorer stores a random subset of the rows, as a TF-IDF
    node does."""
    taxonomy = build_taxonomy(
        [CweNode(id=n, name=n, parent_ids=frozenset(p)) for n, p in parents.items()]
    )
    (words,) = synthdata.make_pools(1, 30, seed)
    dictionary, _ = build_dictionary([preprocess(" ".join(words), frozenset(),
                                                 SynonymTable.empty())], 1)
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
                rows = np.flatnonzero(rng.integers(0, 2, size=d))
                classifiers[node_id] = NodeClassifier(node_id, kids, RowBlock(
                    rows, rng.normal(size=(rows.size, len(kids))), d))
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
    """A config key that is not read, such as the hidden width that earlier
    manifests listed, is ignored (though the fingerprint covers it): the
    width is the one of the hidden block the manifest lists."""
    model = make_model("two-layer", {"CWE-1": [], "CWE-2": [], "CWE-3": ["CWE-1"]}, seed=3)
    modelstore.save(model, tmp_path / "model")
    manifest = tmp_path / "model" / modelstore.MANIFEST
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    assert doc["format_version"] == modelstore.FORMAT_VERSION == 4
    assert {tuple(e["arrays"]["w_hidden"][1:]) for e in doc["nodes"]} == {(3,)}
    assert "hidden_size" not in doc["config"]
    doc["config"]["hidden_size"] = 3
    doc["fingerprint"] = modelstore.checksum(doc)
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    loaded = modelstore.load(tmp_path / "model")
    assert {clf.hidden_size for clf in loaded.classifiers.values()} == {3}
    assert modelstore.fingerprint(loaded) == modelstore.fingerprint(model)


@pytest.mark.parametrize("kind", KINDS)
def test_loaded_arrays_are_read_only(tmp_path, kind):
    modelstore.save(make_model(kind, {"CWE-1": [], "CWE-2": [], "CWE-3": ["CWE-1"]}, seed=3),
                    tmp_path)
    for clf in modelstore.load(tmp_path).classifiers.values():
        for array in (getattr(clf, clf.ROW_PARAM).rows, *clf.params().values()):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def model_files(directory: Path) -> set[str]:
    return {p.name for p in directory.iterdir()}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), parents=synthdata.dag_parents(),
       seed=st.integers(0, 2**16), key=st.sampled_from(sorted(modelstore.DATA_FILES)),
       where=st.floats(0.0, 1.0, exclude_max=True), flip=st.integers(1, 255))
def test_one_flipped_byte_in_a_data_file_fails_the_load(kind, parents, seed, key, where, flip):
    model = make_model(kind, parents, seed)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = modelstore.save(model, tmp)
        path = Path(tmp) / modelstore.file_name(key, manifest.files[key])
        data = bytearray(path.read_bytes())
        data[int(where * len(data))] ^= flip
        path.write_bytes(data)
        with pytest.raises(IntegrityError):
            modelstore.load(tmp)


@pytest.mark.parametrize("failing", [0, 1, 2, 3],
                         ids=["dictionary", "taxonomy", "weights", "manifest"])
def test_interrupted_save_leaves_the_previous_model(tmp_path, monkeypatch, failing):
    parents = {"CWE-1": [], "CWE-2": [], "CWE-3": ["CWE-1"]}
    previous = make_model("hierarchical", parents, seed=3)
    modelstore.save(previous, tmp_path)
    before = model_files(tmp_path)
    writes = []
    write_bytes = Path.write_bytes

    def crash_midway(path, data):
        """The ``failing``-th write stops after half of its bytes."""
        writes.append(path)
        if len(writes) - 1 == failing:
            write_bytes(path, bytes(data)[: len(data) // 2])
            raise OSError("disk full")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", crash_midway)
    with pytest.raises(OSError):
        modelstore.save(make_model("hierarchical", {**parents, "CWE-4": ["CWE-3"]}, seed=4),
                        tmp_path)
    monkeypatch.undo()
    assert len(writes) == failing + 1
    assert modelstore.fingerprint(modelstore.load(tmp_path)) == modelstore.fingerprint(previous)
    assert not any(name.endswith(".tmp") for name in model_files(tmp_path))
    assert before <= model_files(tmp_path)


def saved_files(manifest) -> set[str]:
    """The four files a format-4 save writes."""
    named = {modelstore.file_name(key, sha256) for key, sha256 in manifest.files.items()}
    assert len(named) == 3
    return {modelstore.MANIFEST, *named}


def test_resave_of_another_model_leaves_no_stale_file(tmp_path):
    first = make_model("two-layer", {"CWE-1": [], "CWE-2": [], "CWE-3": ["CWE-1"]}, seed=3)
    second = make_model("hierarchical", {"CWE-1": [], "CWE-2": ["CWE-1"]}, seed=5)
    modelstore.save(first, tmp_path)
    manifest = modelstore.save(second, tmp_path)
    assert model_files(tmp_path) == saved_files(manifest)
    assert modelstore.fingerprint(modelstore.load(tmp_path)) == modelstore.fingerprint(second)


def save_format_1(model, directory: Path) -> None:
    """``model`` in the format-1 layout: ``dictionary.tsv``, ``taxonomy.json``
    and one dense little-endian file per parameter under ``weights/``."""
    (directory / "weights").mkdir(parents=True)
    (directory / "dictionary.tsv").write_text(oracle.format1_dictionary_tsv(model),
                                              encoding="utf-8")
    save_taxonomy(model.taxonomy, directory / "taxonomy.json")
    nodes = []
    for clf in sorted(model.classifiers.values(), key=lambda clf: clf.node_id):
        files = {}
        for name, value in oracle.dense_params(clf).items():
            file_name = f"{clf.node_id}{oracle.FORMAT_1_INFIX[name]}.f64le"
            (directory / "weights" / file_name).write_bytes(value.astype("<f8").tobytes())
            files[file_name] = list(value.shape)
        nodes.append({"node_id": clf.node_id, "child_ids": list(clf.child_ids), "files": files})
    config = model.config.to_dict()
    config["assets"] = {"stopwords": sorted(model.assets.stopwords), "synonym_groups": []}
    manifest = {"format_version": 1, "model_kind": model.kind,
                **oracle.format1_file_digests(model), "config": config, "nodes": nodes}
    (directory / modelstore.MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True)
                                                 + "\n", encoding="utf-8")


def test_format_1_directory_exits_4_asking_to_retrain(tmp_path, capsys):
    model = make_model("hierarchical", {"CWE-1": [], "CWE-2": [], "CWE-3": ["CWE-1"]}, seed=3)
    save_format_1(model, tmp_path / "model")
    write_cve_corpus([make_record(1, "some description", ["CWE-3"])], tmp_path / "c.jsonl")
    argv = ["classify", "--model", str(tmp_path / "model"), "--corpus", str(tmp_path / "c.jsonl")]
    assert cli.main(argv) == cli.EXIT_INTEGRITY
    err = capsys.readouterr().err
    assert "format version 1" in err and "retrain" in err


def write_old_manifest(directory: Path, doc: dict) -> None:
    doc["fingerprint"] = modelstore.checksum(doc)
    (directory / modelstore.MANIFEST).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                                 encoding="utf-8")


def save_format_3(model, directory: Path) -> dict:
    """``model`` in the format-3 layout, whose manifest is returned: the
    format-4 files, but with each row-indexed block followed in the weights
    blob by an all-zero row that its listed shape leaves out."""
    manifest = modelstore.save(model, directory)
    path = directory / modelstore.file_name("weights", manifest.files["weights"])
    blob, cursor, chunks = path.read_bytes(), 0, []
    kind = SCORERS[model.kind]
    for entry in manifest.nodes:
        for name in ("rows", *kind.PARAMS):
            shape = entry["arrays"][name]
            chunks.append(blob[cursor:cursor + 8 * math.prod(shape)])
            cursor += 8 * math.prod(shape)
            if name == kind.ROW_PARAM:
                chunks.append(bytes(8 * shape[1]))
    path.unlink()
    blob = b"".join(chunks)
    files = {**manifest.files, "weights": hashlib.sha256(blob).hexdigest()}
    (directory / modelstore.file_name("weights", files["weights"])).write_bytes(blob)
    doc = {"format_version": 3, "model_kind": model.kind, "config": manifest.config,
           "files": files, "nodes": manifest.nodes}
    write_old_manifest(directory, doc)
    return doc


def save_format_2(model, directory: Path) -> None:
    """``model`` in the format-2 layout: the format-3 weights blob, a TSV
    dictionary, and a manifest that names each data file and gives each
    array its offset, dtype and shape."""
    manifest = save_format_3(model, directory)
    (directory / modelstore.file_name("dictionary", manifest["files"]["dictionary"])).unlink()
    tsv = oracle.format1_dictionary_tsv(model).encode("utf-8")
    sha256 = {**manifest["files"], "dictionary": hashlib.sha256(tsv).hexdigest()}
    suffixes = {"dictionary": ".tsv", "taxonomy": ".json", "weights": ".bin"}
    names = {key: f"{key}-{digest[:12]}{suffixes[key]}" for key, digest in sha256.items()}
    (directory / names["dictionary"]).write_bytes(tsv)
    row_param, offset, nodes = SCORERS[model.kind].ROW_PARAM, 0, []
    for entry in manifest["nodes"]:
        arrays = {}
        for name, shape in entry["arrays"].items():
            arrays[name] = {"offset": offset, "shape": shape,
                            "dtype": "<i8" if name == "rows" else "<f8"}
            offset += 8 * math.prod([shape[0] + (name == row_param), *shape[1:]])
        nodes.append({**entry, "arrays": arrays})
    doc = {"format_version": 2, "model_kind": model.kind, "config": manifest["config"],
           "files": {key: {"name": names[key], "sha256": sha256[key]} for key in names},
           "nodes": nodes}
    write_old_manifest(directory, doc)


OLD_FORMATS = {2: save_format_2, 3: save_format_3}


def test_format_2_directory_exits_4_asking_to_retrain(tmp_path, capsys):
    """Format 2, and format 3 with its zero row after each block, alike."""
    model = make_model("hierarchical", {"CWE-1": [], "CWE-2": [], "CWE-3": ["CWE-1"]}, seed=3)
    write_cve_corpus([make_record(1, "some description", ["CWE-3"])], tmp_path / "c.jsonl")
    for version, save_old in OLD_FORMATS.items():
        directory = tmp_path / f"format-{version}"
        save_old(model, directory)
        assert any(p.suffix == ".tsv" for p in directory.iterdir()) == (version == 2)
        argv = ["classify", "--model", str(directory), "--corpus", str(tmp_path / "c.jsonl")]
        assert cli.main(argv) == cli.EXIT_INTEGRITY
        err = capsys.readouterr().err
        assert f"format version {version}" in err and "retrain" in err


def test_save_into_a_format_2_or_3_directory_leaves_the_4_format_4_files(tmp_path):
    parents = {"CWE-1": [], "CWE-2": [], "CWE-3": ["CWE-1"]}
    model = make_model("hierarchical", parents, seed=4)
    for version, save_old in OLD_FORMATS.items():
        directory = tmp_path / f"format-{version}"
        save_old(make_model("hierarchical", parents, seed=3), directory)
        manifest = modelstore.save(model, directory)
        assert model_files(directory) == saved_files(manifest)
        assert modelstore.fingerprint(modelstore.load(directory)) == modelstore.fingerprint(model)


def model_with_dictionary(dictionary: Dictionary) -> Model:
    """A one-scorer hierarchical model over ``dictionary``, storing every
    other row."""
    taxonomy = build_taxonomy([CweNode(id=n, name=n, parent_ids=frozenset())
                               for n in ("CWE-1", "CWE-2")])
    rows = np.arange(0, dictionary.size, 2)
    weights = RowBlock(rows, np.full((rows.size, 2), 0.5), dictionary.size)
    classifiers = {taxonomy.root_id: NodeClassifier(taxonomy.root_id, ("CWE-1", "CWE-2"),
                                                    weights)}
    return Model(taxonomy=taxonomy, dictionary=dictionary, classifiers=classifiers,
                 config=TrainConfig(), assets=ASSETS)


@settings(max_examples=60, deadline=None)
@given(counts=st.dictionaries(st.text(st.characters(max_codepoint=127), max_size=8),
                              st.integers(1, 2**63), max_size=12))
@example(counts={})
@example(counts={"sql inject": 3})
def test_dictionary_round_trips_through_save_and_load(counts):
    dictionary = Dictionary(index={term: pos for pos, term in enumerate(counts)}, counts=counts)
    model = model_with_dictionary(dictionary)
    with tempfile.TemporaryDirectory() as tmp:
        modelstore.save(model, tmp)
        loaded = modelstore.load(tmp)
    assert loaded.dictionary == dictionary
    assert loaded.dictionary.terms() == list(counts)
    assert modelstore.fingerprint(loaded) == modelstore.fingerprint(model)
