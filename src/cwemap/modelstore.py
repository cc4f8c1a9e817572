"""Deterministic model persistence.

Directory layout: ``manifest.json``, ``dictionary.tsv``, ``taxonomy.json``
and one raw weight file per classifier under ``weights/`` (row-major
float64, little-endian).  The manifest records content fingerprints of the
dictionary and taxonomy plus the full config snapshot (including the
preprocessing assets), so a model can never be applied against drifted
inputs.  Saving the same model twice produces byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CwemapError, IntegrityError, VersionError
from .features import Dictionary
from .hierarchy import (
    FLAT_NODE_ID,
    FlatModel,
    HierarchicalModel,
    PrepAssets,
    TwoLayerModel,
)
from .ingest import Taxonomy, load_taxonomy, save_taxonomy
from .netcore import NodeClassifier, TrainConfig, TwoLayerClassifier
from .textprep import SynonymTable

FORMAT_VERSION = 1

MANIFEST = "manifest.json"
DICTIONARY = "dictionary.tsv"
TAXONOMY = "taxonomy.json"
WEIGHTS_DIR = "weights"

# Every manifest field and its JSON type.
_MANIFEST_FIELDS = {
    "format_version": int,
    "model_kind": str,
    "dictionary_fingerprint": str,
    "taxonomy_fingerprint": str,
    "config": dict,
    "nodes": list,
}


@dataclass(frozen=True)
class ModelManifest:
    format_version: int
    model_kind: str  # "hierarchical" | "flat" | "two-layer"
    dictionary_fingerprint: str
    taxonomy_fingerprint: str
    config: dict
    nodes: list[dict]  # {"node_id", "child_ids", "files": {name: [rows, cols]}}

    def to_json(self) -> str:
        doc = {
            "format_version": self.format_version,
            "model_kind": self.model_kind,
            "dictionary_fingerprint": self.dictionary_fingerprint,
            "taxonomy_fingerprint": self.taxonomy_fingerprint,
            "config": self.config,
            "nodes": self.nodes,
        }
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
            if not isinstance(doc[key], kind):
                raise IntegrityError(f"manifest field {key} is not a {kind.__name__}")
        for entry in doc["nodes"]:
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("node_id"), str)
                and isinstance(entry.get("child_ids"), list)
                and isinstance(entry.get("files"), dict)
            ):
                raise IntegrityError("manifest node entry lacks node_id, child_ids or files")
        return cls(**{key: doc[key] for key in _MANIFEST_FIELDS})


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def taxonomy_fingerprint(taxonomy: Taxonomy) -> str:
    canonical = json.dumps({"nodes": taxonomy.to_node_list()}, sort_keys=True,
                           separators=(",", ":"))
    return _sha256(canonical.encode("utf-8"))


def _assets_dict(assets: PrepAssets) -> dict:
    return {
        "stopwords": sorted(assets.stopwords),
        "synonym_groups": [
            {"code": code, "members": [" ".join(p) for p in members]}
            for code, members in assets.synonyms.groups
        ],
    }


def _assets_from_dict(data: dict) -> PrepAssets:
    groups = tuple(
        (g["code"], tuple(tuple(m.split(" ")) for m in g["members"]))
        for g in data.get("synonym_groups", ())
    )
    return PrepAssets(
        stopwords=frozenset(data.get("stopwords", ())),
        synonyms=SynonymTable(groups=groups),
    )


def _classifier_entries(model) -> list[tuple[str, dict[str, np.ndarray], tuple[str, ...]]]:
    """(node_id, {file name: matrix}, child_ids) per classifier, sorted."""
    entries = []
    if isinstance(model, HierarchicalModel):
        for node_id in sorted(model.classifiers):
            clf = model.classifiers[node_id]
            entries.append((node_id, {f"{node_id}.f64le": clf.weights}, clf.child_ids))
    elif isinstance(model, TwoLayerModel):
        for node_id in sorted(model.classifiers):
            clf = model.classifiers[node_id]
            entries.append(
                (
                    node_id,
                    {
                        f"{node_id}.hidden.f64le": clf.w_hidden,
                        f"{node_id}.out.f64le": clf.w_out,
                    },
                    clf.child_ids,
                )
            )
    elif isinstance(model, FlatModel):
        clf = model.classifier
        entries.append((FLAT_NODE_ID, {f"{FLAT_NODE_ID}.f64le": clf.weights}, clf.child_ids))
    else:
        raise IntegrityError(f"cannot persist model of type {type(model).__name__}")
    return entries


def _model_kind(model) -> str:
    return {
        HierarchicalModel: "hierarchical",
        TwoLayerModel: "two-layer",
        FlatModel: "flat",
    }[type(model)]


def save(model, directory: str | Path) -> ModelManifest:
    """Persist a model; returns the manifest that was written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / WEIGHTS_DIR).mkdir(exist_ok=True)

    model.dictionary.save_tsv(directory / DICTIONARY)
    save_taxonomy(model.taxonomy, directory / TAXONOMY)

    config = dict(model.config.to_dict())
    config["assets"] = _assets_dict(model.assets)
    if isinstance(model, TwoLayerModel):
        config["hidden_size"] = model.hidden_size

    nodes = []
    for node_id, files, child_ids in _classifier_entries(model):
        file_dims = {}
        for name, matrix in files.items():
            data = np.ascontiguousarray(matrix, dtype="<f8").tobytes()
            (directory / WEIGHTS_DIR / name).write_bytes(data)
            file_dims[name] = list(matrix.shape)
        nodes.append({"node_id": node_id, "child_ids": list(child_ids), "files": file_dims})

    manifest = ModelManifest(
        format_version=FORMAT_VERSION,
        model_kind=_model_kind(model),
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
    if not (isinstance(dims, list) and len(dims) == 2 and all(isinstance(d, int) for d in dims)):
        raise IntegrityError(f"manifest entry {entry['node_id']} lists no shape for {name}")
    rows, cols = dims
    path = directory / WEIGHTS_DIR / name
    if not path.exists():
        raise IntegrityError(f"missing weight file: {path}")
    data = path.read_bytes()
    expected = rows * cols * 8
    if len(data) != expected:
        raise IntegrityError(
            f"{path}: expected {expected} bytes for a {rows}x{cols} matrix, got {len(data)}"
        )
    return np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()


def load(directory: str | Path):
    """Restore a model, verifying fingerprints and weight-file integrity."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST
    if not manifest_path.exists():
        raise IntegrityError(f"missing manifest: {manifest_path}")
    manifest = ModelManifest.from_json(manifest_path.read_text(encoding="utf-8"))
    if manifest.format_version != FORMAT_VERSION:
        raise VersionError(
            f"unsupported model format version {manifest.format_version} "
            f"(supported: {FORMAT_VERSION})"
        )

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

    config = dict(manifest.config)
    assets = _assets_from_dict(config.pop("assets", {}))
    hidden_size = config.pop("hidden_size", None)
    train_config = TrainConfig.from_dict(config)

    if manifest.model_kind == "hierarchical":
        classifiers = {}
        for entry in manifest.nodes:
            node_id = entry["node_id"]
            weights = _read_weights(directory, entry, f"{node_id}.f64le")
            classifiers[node_id] = NodeClassifier(
                node_id=node_id,
                child_ids=tuple(entry["child_ids"]),
                weights=weights,
                dictionary_fingerprint=manifest.dictionary_fingerprint,
            )
        return HierarchicalModel(
            taxonomy=taxonomy,
            dictionary=dictionary,
            classifiers=classifiers,
            config=train_config,
            assets=assets,
        )
    if manifest.model_kind == "two-layer":
        classifiers = {}
        for entry in manifest.nodes:
            node_id = entry["node_id"]
            w_hidden = _read_weights(directory, entry, f"{node_id}.hidden.f64le")
            w_out = _read_weights(directory, entry, f"{node_id}.out.f64le")
            classifiers[node_id] = TwoLayerClassifier(
                node_id=node_id,
                child_ids=tuple(entry["child_ids"]),
                w_hidden=w_hidden,
                w_out=w_out,
                dictionary_fingerprint=manifest.dictionary_fingerprint,
            )
        return TwoLayerModel(
            taxonomy=taxonomy,
            dictionary=dictionary,
            classifiers=classifiers,
            config=train_config,
            assets=assets,
            hidden_size=hidden_size or (next(iter(classifiers.values())).w_hidden.shape[1]),
        )
    if manifest.model_kind == "flat":
        if len(manifest.nodes) != 1:
            raise IntegrityError("a flat model's manifest must list exactly one node")
        entry = manifest.nodes[0]
        weights = _read_weights(directory, entry, f"{FLAT_NODE_ID}.f64le")
        classifier = NodeClassifier(
            node_id=entry["node_id"],
            child_ids=tuple(entry["child_ids"]),
            weights=weights,
            dictionary_fingerprint=manifest.dictionary_fingerprint,
        )
        return FlatModel(
            taxonomy=taxonomy,
            dictionary=dictionary,
            classifier=classifier,
            config=train_config,
            assets=assets,
        )
    raise VersionError(f"unknown model kind {manifest.model_kind!r}")


def fingerprint(model) -> str:
    """Content hash covering dictionary, taxonomy, config, and all weights."""
    h = hashlib.sha256()
    h.update(model.dictionary.fingerprint().encode())
    h.update(taxonomy_fingerprint(model.taxonomy).encode())
    config = dict(model.config.to_dict())
    config["assets"] = _assets_dict(model.assets)
    h.update(json.dumps(config, sort_keys=True, separators=(",", ":")).encode())
    for node_id, files, child_ids in _classifier_entries(model):
        h.update(node_id.encode())
        h.update(",".join(child_ids).encode())
        for name in sorted(files):
            h.update(name.encode())
            h.update(np.ascontiguousarray(files[name], dtype="<f8").tobytes())
    return h.hexdigest()
