"""Deterministic model persistence: one save, load and fingerprint for every kind.

Directory layout: ``manifest.json``, ``dictionary.tsv``, ``taxonomy.json``
and, under ``weights/``, one raw file (row-major float64, little-endian)
per entry of each scorer's ``params()``: ``<node>.f64le`` for single-layer
weights, ``<node>.hidden.f64le`` and ``<node>.out.f64le`` for the two
layers of the two-layer baseline; the flat baseline's one scorer is node
``FLAT``.  The manifest records the model kind, content fingerprints of
the dictionary and taxonomy, the full config snapshot (including the
preprocessing assets; a hidden layer's width is read off its weights) and
the child ids and weight shapes of every scorer, so a model can never be
applied against drifted inputs.  Saving the same model twice produces
byte-identical files.  Anything malformed in a model directory raises
IntegrityError (or VersionError for an unknown format or kind), at load:
besides unreadable files, sizes and fingerprints, a manifest that lists a
node twice, or whose scorers are not exactly one per scoring node, over
that node's taxonomy children in order and the dictionary's dimension
(``hierarchy.Model``), names the offending node.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    CwemapError,
    IntegrityError,
    ValidationError,
    VersionError,
)
from .features import Dictionary
from .hierarchy import SCORERS, Model, PrepAssets, scoring_node
from .ingest import Taxonomy, load_taxonomy, save_taxonomy
from .netcore import Scorer, TrainConfig
from .textprep import SynonymTable

FORMAT_VERSION = 1

MANIFEST = "manifest.json"
DICTIONARY = "dictionary.tsv"
TAXONOMY = "taxonomy.json"
WEIGHTS_DIR = "weights"
#: Weight file name of each scorer parameter: ``<node><infix>.f64le``.
_FILE_INFIX = {"weights": "", "w_hidden": ".hidden", "w_out": ".out"}

# Every manifest field and its JSON type.
_MANIFEST_FIELDS = {
    "format_version": int,
    "model_kind": str,
    "dictionary_fingerprint": str,
    "taxonomy_fingerprint": str,
    "config": dict,
    "nodes": list,
}


def _str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@dataclass(frozen=True)
class ModelManifest:
    format_version: int
    model_kind: str  # "hierarchical" | "flat" | "two-layer"
    dictionary_fingerprint: str
    taxonomy_fingerprint: str
    config: dict
    nodes: list[dict]  # {"node_id", "child_ids", "files": {name: [rows, cols]}}

    def to_json(self) -> str:
        doc = {key: getattr(self, key) for key in _MANIFEST_FIELDS}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ModelManifest":
        """Parse a manifest; IntegrityError unless it has every field, well typed."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise IntegrityError(f"malformed manifest JSON ({exc.msg})") from exc
        if not isinstance(doc, dict):
            raise IntegrityError("manifest is not a JSON object")
        missing = sorted(set(_MANIFEST_FIELDS) - set(doc))
        if missing:
            raise IntegrityError(f"manifest lacks {', '.join(missing)}")
        for key, kind in _MANIFEST_FIELDS.items():
            if isinstance(doc[key], bool) or not isinstance(doc[key], kind):
                raise IntegrityError(f"manifest field {key} is not a {kind.__name__}")
        for entry in doc["nodes"]:
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("node_id"), str)
                and _str_list(entry.get("child_ids"))
                and isinstance(entry.get("files"), dict)
            ):
                raise IntegrityError("manifest node entry lacks node_id, child_ids or files")
        return cls(**{key: doc[key] for key in _MANIFEST_FIELDS})


def taxonomy_fingerprint(taxonomy: Taxonomy) -> str:
    canonical = json.dumps({"nodes": taxonomy.to_node_list()}, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _assets_dict(assets: PrepAssets) -> dict:
    return {
        "stopwords": sorted(assets.stopwords),
        "synonym_groups": [
            {"code": code, "members": [" ".join(p) for p in members]}
            for code, members in assets.synonyms.groups
        ],
    }


def _assets_from_dict(data) -> PrepAssets:
    groups = data.get("synonym_groups", []) if isinstance(data, dict) else None
    stopwords = data.get("stopwords", []) if isinstance(data, dict) else None
    if not (_str_list(stopwords) and isinstance(groups, list) and all(
        isinstance(g, dict) and isinstance(g.get("code"), str) and _str_list(g.get("members"))
        for g in groups
    )):
        raise ConfigurationError("malformed preprocessing assets")
    return PrepAssets(
        stopwords=frozenset(stopwords),
        synonyms=SynonymTable(groups=tuple(
            (g["code"], tuple(tuple(m.split(" ")) for m in g["members"])) for g in groups
        )),
    )


def _config_dict(model: Model) -> dict:
    config = model.config.to_dict()
    config["assets"] = _assets_dict(model.assets)
    return config


def _weight_files(model: Model) -> list[tuple[Scorer, dict[str, np.ndarray]]]:
    """(scorer, {weight file name: matrix}) per scorer, sorted by node id."""
    return [
        (clf, {_weight_file(clf.node_id, name): value for name, value in clf.params().items()})
        for clf in sorted(model.classifiers.values(), key=lambda clf: clf.node_id)
    ]


def _weight_file(node_id: str, param: str) -> str:
    return f"{node_id}{_FILE_INFIX[param]}.f64le"


def _le_bytes(matrix: np.ndarray) -> bytes:
    return np.ascontiguousarray(matrix, dtype="<f8").tobytes()


def save(model: Model, directory: str | Path) -> ModelManifest:
    """Persist a model; returns the manifest that was written."""
    directory = Path(directory)
    (directory / WEIGHTS_DIR).mkdir(parents=True, exist_ok=True)

    model.dictionary.save_tsv(directory / DICTIONARY)
    save_taxonomy(model.taxonomy, directory / TAXONOMY)

    config = _config_dict(model)

    nodes = []
    for clf, files in _weight_files(model):
        for name, matrix in files.items():
            (directory / WEIGHTS_DIR / name).write_bytes(_le_bytes(matrix))
        nodes.append({"node_id": clf.node_id, "child_ids": list(clf.child_ids),
                      "files": {name: list(matrix.shape) for name, matrix in files.items()}})

    manifest = ModelManifest(
        format_version=FORMAT_VERSION,
        model_kind=model.kind,
        dictionary_fingerprint=model.dictionary.fingerprint(),
        taxonomy_fingerprint=taxonomy_fingerprint(model.taxonomy),
        config=config,
        nodes=nodes,
    )
    (directory / MANIFEST).write_text(manifest.to_json(), encoding="utf-8")
    return manifest


def _read_weights(directory: Path, entry: dict, name: str) -> np.ndarray:
    """The matrix in weight file ``name``, shaped as the manifest entry lists it."""
    dims = entry["files"].get(name)
    if not (isinstance(dims, list) and len(dims) == 2
            and all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in dims)):
        raise IntegrityError(f"manifest entry {entry['node_id']} lists no shape for {name}")
    rows, cols = dims
    path = directory / WEIGHTS_DIR / name
    if not path.is_file():
        raise IntegrityError(f"missing weight file: {path}")
    data = path.read_bytes()
    expected = rows * cols * 8
    if len(data) != expected:
        raise IntegrityError(
            f"{path}: expected {expected} bytes for a {rows}x{cols} matrix, got {len(data)}"
        )
    return np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()


def load(directory: str | Path) -> Model:
    """Restore a model, verifying fingerprints and weight-file integrity."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST
    if not manifest_path.is_file():
        raise IntegrityError(f"missing manifest: {manifest_path}")
    try:
        manifest = ModelManifest.from_json(manifest_path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"{manifest_path}: not UTF-8 text") from exc
    if manifest.format_version != FORMAT_VERSION:
        raise VersionError(
            f"unsupported model format version {manifest.format_version} "
            f"(supported: {FORMAT_VERSION})"
        )
    scorer = SCORERS.get(manifest.model_kind)
    if scorer is None:
        raise VersionError(f"unknown model kind {manifest.model_kind!r}")

    for name in (DICTIONARY, TAXONOMY):
        if not (directory / name).is_file():
            raise IntegrityError(f"missing model file: {directory / name}")
    try:
        dictionary = Dictionary.from_tsv((directory / DICTIONARY).read_text(encoding="utf-8"))
        taxonomy = load_taxonomy(directory / TAXONOMY)
    except (CwemapError, ValueError) as exc:
        raise IntegrityError(f"unreadable model file: {exc}") from exc
    if dictionary.fingerprint() != manifest.dictionary_fingerprint:
        raise IntegrityError("dictionary fingerprint mismatch")
    if taxonomy_fingerprint(taxonomy) != manifest.taxonomy_fingerprint:
        raise IntegrityError("taxonomy fingerprint mismatch")

    try:
        config = dict(manifest.config)
        assets = _assets_from_dict(config.pop("assets", {}))
        classifiers = {}
        for entry in manifest.nodes:
            node_id = entry["node_id"]
            scored = scoring_node(taxonomy, node_id)
            if scored in classifiers:
                raise IntegrityError(f"{manifest_path}: node {node_id} is listed twice")
            params = {name: _read_weights(directory, entry, _weight_file(node_id, name))
                      for name in scorer.PARAMS}
            classifiers[scored] = scorer(node_id, tuple(entry["child_ids"]), **params)
        return Model(taxonomy=taxonomy, dictionary=dictionary, classifiers=classifiers,
                     config=TrainConfig.from_dict(config), assets=assets,
                     kind=manifest.model_kind)
    except (ConfigurationError, ValidationError) as exc:
        raise IntegrityError(f"{manifest_path}: {exc}") from exc


def fingerprint(model: Model) -> str:
    """Content hash covering dictionary, taxonomy, config, and all weights."""
    h = hashlib.sha256()
    h.update(model.dictionary.fingerprint().encode())
    h.update(taxonomy_fingerprint(model.taxonomy).encode())
    h.update(json.dumps(_config_dict(model), sort_keys=True, separators=(",", ":")).encode())
    for clf, files in _weight_files(model):
        h.update(clf.node_id.encode())
        h.update(",".join(clf.child_ids).encode())
        for name in sorted(files):
            h.update(name.encode())
            h.update(_le_bytes(files[name]))
    return h.hexdigest()
