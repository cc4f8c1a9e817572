"""Deterministic model persistence: one save, load and fingerprint for every kind.

Directory layout (format 2): ``manifest.json`` and three data files, each
named by the first 12 hex digits of the sha256 of its bytes:
``dictionary-<sha12>.tsv``, ``taxonomy-<sha12>.json`` and
``weights-<sha12>.bin``.  The weights file is one blob of raw little-endian
arrays, back to back, for every scorer in node-id order (a JSON header
plus raw arrays, as in the safetensors format): the scorer's ``rows``
(int64), then each entry of its ``params()`` (float64, row-major).  The
row-indexed parameter (``ROW_PARAM``) is the block of a ``RowBlock`` and
is followed in the blob by its all-zero sentinel row, so ``load`` makes no
copy of any array.  The flat baseline's one scorer is node ``FLAT``.

The manifest records the model kind, the full config snapshot (including
the preprocessing assets; a hidden layer's width is read off its weights),
the name and sha256 of each data file, per scorer its child ids and the
offset, dtype and shape of each of its arrays, and the fingerprint.

**Fingerprint.**  A model's fingerprint is the checksum of its manifest:
the sha256 of the canonical JSON (sorted keys, no spaces) of every other
manifest field.  Through the sha256 of each data file it covers the
dictionary, the taxonomy and every weight, so two models with the same
fingerprint classify alike.  ``fingerprint`` builds the same manifest that
``save`` writes, from the same data file bytes.  ``load`` computes the
checksum again from the fields it read and checks the raw bytes of every
data file against its sha256, so no edit to the directory goes unnoticed.
Saving the same model twice produces byte-identical files.

**Commit point.**  ``save`` writes each data file through a temporary file
and ``os.replace``, then replaces ``manifest.json`` the same way: until
that rename the directory still holds the previous model, whole.  It then
deletes the data files and temporary files of this store that the new
manifest does not name.  (No file is synced to disk: the renames guard
against an interrupted process, and the sha256 checks catch what a lost
write would leave.)

**Format 1** (``dictionary.tsv``, ``taxonomy.json`` and one dense
``weights/<node>.f64le`` file per parameter) is not read: its manifest
raises VersionError, and the model must be trained again.  ``save`` leaves
format-1 files in a reused directory alone; nothing reads them.

Anything malformed in a model directory raises IntegrityError (or
VersionError for an unknown format or kind), at load: besides unreadable
files, checksums and array extents, a manifest that lists a node twice, or
whose scorers are not exactly one per scoring node, over that node's
taxonomy children in order and the dictionary's dimension
(``hierarchy.Model``), names the offending node.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    CwemapError,
    FormatError,
    IntegrityError,
    ValidationError,
    VersionError,
)
from .features import Dictionary
from .hierarchy import SCORERS, Model, PrepAssets, scoring_node
from .ingest import SYNONYM_GROUP, read_taxonomy, taxonomy_json
from .jsonread import Optional, parse, read
from .netcore import RowBlock, Scorer, TrainConfig
from .textprep import SynonymTable

FORMAT_VERSION = 2

MANIFEST = "manifest.json"
#: Suffix of each data file; its name is ``<key>-<sha12><suffix>``.
DATA_FILES = {"dictionary": ".tsv", "taxonomy": ".json", "weights": ".bin"}
#: Dtype of the row positions and of every parameter in the weights file.
ROWS_DTYPE, PARAM_DTYPE = "<i8", "<f8"

# The manifest's fields; ``config`` is read by ``TrainConfig.from_dict`` and
# ``_ASSETS``, and each entry of a node's ``arrays`` by ``_ARRAY``.
_MANIFEST = {
    "format_version": int,
    "model_kind": str,
    "fingerprint": str,
    "config": dict,
    "files": {key: {"name": str, "sha256": str} for key in DATA_FILES},
    "nodes": [{"node_id": str, "child_ids": [str], "arrays": dict}],
}
_ASSETS = {"assets": Optional({"stopwords": Optional([str], []),
                               "synonym_groups": Optional([SYNONYM_GROUP], [])}, {})}
_ARRAY = {"offset": int, "dtype": str, "shape": [int]}


@dataclass(frozen=True)
class ModelManifest:
    format_version: int
    model_kind: str  # "hierarchical" | "flat" | "two-layer"
    fingerprint: str
    config: dict
    files: dict  # {"dictionary" | "taxonomy" | "weights": {"name", "sha256"}}
    nodes: list[dict]  # {"node_id", "child_ids", "arrays": {name: {"offset", "dtype", "shape"}}}

    def to_json(self) -> str:
        doc = {key: getattr(self, key) for key in _MANIFEST}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ModelManifest":
        """Parse a manifest; VersionError for another format version, else
        IntegrityError unless it has every field, well typed, and its
        fingerprint is the checksum of the other fields."""
        try:
            doc = parse(text, dict, MANIFEST)
            version = read(doc, {"format_version": int}, "manifest")["format_version"]
            if version != FORMAT_VERSION:
                raise VersionError(f"model format version {version} is not supported (this "
                                   f"version reads {FORMAT_VERSION}); retrain the model")
            fields = read(doc, _MANIFEST, "manifest")
        except FormatError as exc:
            raise IntegrityError(str(exc)) from exc
        if fields["fingerprint"] != checksum(fields):
            raise IntegrityError(f"{MANIFEST}: the fingerprint is not the checksum of the "
                                 "manifest; it was edited, or saved by an older version "
                                 "(retrain the model)")
        return cls(**fields)


def checksum(manifest: dict) -> str:
    """The sha256 of the canonical JSON of every manifest field but ``fingerprint``."""
    body = {key: value for key, value in manifest.items() if key != "fingerprint"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _assets_dict(assets: PrepAssets) -> dict:
    return {
        "stopwords": sorted(assets.stopwords),
        "synonym_groups": [
            {"code": code, "members": [" ".join(p) for p in members]}
            for code, members in assets.synonyms.groups
        ],
    }


def _assets_from_dict(config: dict) -> PrepAssets:
    """The preprocessing assets in a manifest's ``config`` (see ``_assets_dict``)."""
    assets = read(config, _ASSETS, "config")["assets"]
    return PrepAssets(
        stopwords=frozenset(assets["stopwords"]),
        synonyms=SynonymTable(groups=tuple(
            (g["code"], tuple(tuple(m.split(" ")) for m in g["members"]))
            for g in assets["synonym_groups"]
        )),
    )


def _config_dict(model: Model) -> dict:
    config = model.config.to_dict()
    config["assets"] = _assets_dict(model.assets)
    return config


def _weights_blob(model: Model) -> tuple[bytes, list[dict]]:
    """The weights file and the manifest's node entries that describe it.

    The row-indexed parameter is written with its sentinel row, which its
    listed shape leaves out.
    """
    chunks, nodes, offset = [], [], 0
    for clf in sorted(model.classifiers.values(), key=lambda clf: clf.node_id):
        matrix = getattr(clf, clf.ROW_PARAM)
        stored = {"rows": (matrix.rows, ROWS_DTYPE, matrix.rows.shape)}
        for name, value in clf.params().items():
            held = matrix.padded if name == clf.ROW_PARAM else value
            stored[name] = (held, PARAM_DTYPE, value.shape)
        arrays = {}
        for name, (held, dtype, shape) in stored.items():
            data = np.ascontiguousarray(held, dtype=dtype).tobytes()
            arrays[name] = {"offset": offset, "dtype": dtype, "shape": list(shape)}
            chunks.append(data)
            offset += len(data)
        nodes.append({"node_id": clf.node_id, "child_ids": list(clf.child_ids),
                      "arrays": arrays})
    return b"".join(chunks), nodes


def _replace_with(path: Path, data: bytes) -> None:
    """Make ``data`` the contents of ``path`` with one rename: a reader sees
    the old file or the new one, never a part."""
    temporary = path.with_name(path.name + ".tmp")
    try:
        temporary.write_bytes(data)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def _contents(model: Model) -> tuple[dict[str, bytes], dict]:
    """The bytes of each data file of ``model``, and the manifest fields
    but ``fingerprint`` that describe them."""
    blob, nodes = _weights_blob(model)
    contents = {
        "dictionary": model.dictionary.to_tsv().encode("utf-8"),
        "taxonomy": taxonomy_json(model.taxonomy).encode("utf-8"),
        "weights": blob,
    }
    files = {}
    for key, data in contents.items():
        digest = hashlib.sha256(data).hexdigest()
        files[key] = {"name": f"{key}-{digest[:12]}{DATA_FILES[key]}", "sha256": digest}
    body = {"format_version": FORMAT_VERSION, "model_kind": model.kind,
            "config": _config_dict(model), "files": files, "nodes": nodes}
    return contents, body


def save(model: Model, directory: str | Path) -> ModelManifest:
    """Persist a model; returns the manifest that was written.

    The rename of ``manifest.json`` commits the save; the files of this
    store that the manifest does not name are deleted after it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    contents, body = _contents(model)
    for key, data in contents.items():
        _replace_with(directory / body["files"][key]["name"], data)
    manifest = ModelManifest(fingerprint=checksum(body), **body)
    _replace_with(directory / MANIFEST, manifest.to_json().encode("utf-8"))
    named = {entry["name"] for entry in body["files"].values()}
    for key in DATA_FILES:
        for path in directory.glob(f"{key}-*"):
            if path.name not in named and path.is_file():
                path.unlink()
    return manifest


def _read_data_file(directory: Path, manifest: ModelManifest, key: str) -> bytes:
    """The bytes of the data file ``key``; IntegrityError unless the manifest
    names a file of this directory whose sha256 it records."""
    entry = manifest.files[key]
    name = entry["name"]
    if name != Path(name).name or name in ("", ".", ".."):
        raise IntegrityError(f"manifest names no {key} file")
    path = directory / name
    if not path.is_file():
        raise IntegrityError(f"missing model file: {path}")
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() != entry["sha256"]:
        raise IntegrityError(f"{path}: sha256 does not match the manifest")
    return data


def _view(blob: bytes, spec: dict, dtype: str, ndim: int, extra_rows: int) -> np.ndarray:
    """The read-only array an ``_ARRAY`` entry places in ``blob``, with
    ``extra_rows`` more rows than its shape lists."""
    shape, offset = spec["shape"], spec["offset"]
    if len(shape) != ndim or min(shape) < 0 or spec["dtype"] != dtype or offset < 0:
        raise IntegrityError(f"no {ndim}-D {dtype} array entry")
    shape = [shape[0] + extra_rows, *shape[1:]]
    count = math.prod(shape)
    if offset % 8 or offset + 8 * count > len(blob):
        raise IntegrityError(f"an array at byte {offset} overruns the weights file")
    return np.frombuffer(blob, dtype=dtype, count=count, offset=offset).reshape(shape)


def _scorer(kind, entry: dict, blob: bytes, dimension: int) -> Scorer:
    """The scorer a manifest node entry describes, its arrays viewing ``blob``."""
    arrays = entry["arrays"]
    if set(arrays) != {"rows", *kind.PARAMS}:
        raise IntegrityError(f"arrays {sorted(arrays)} are not rows and {', '.join(kind.PARAMS)}")
    arrays = read(arrays, dict.fromkeys(arrays, _ARRAY), "arrays")
    params = {name: _view(blob, arrays[name], PARAM_DTYPE, 2, int(name == kind.ROW_PARAM))
              for name in kind.PARAMS}
    rows = _view(blob, arrays["rows"], ROWS_DTYPE, 1, 0)
    params[kind.ROW_PARAM] = RowBlock(rows, params[kind.ROW_PARAM], dimension)
    return kind(entry["node_id"], tuple(entry["child_ids"]), **params)


def load(directory: str | Path) -> Model:
    """Restore a model, verifying the checksum of every data file."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST
    if not manifest_path.is_file():
        raise IntegrityError(f"missing manifest: {manifest_path}")
    try:
        manifest = ModelManifest.from_json(manifest_path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"{manifest_path}: not UTF-8 text") from exc
    kind = SCORERS.get(manifest.model_kind)
    if kind is None:
        raise VersionError(f"unknown model kind {manifest.model_kind!r}")

    data = {key: _read_data_file(directory, manifest, key) for key in DATA_FILES}
    try:
        dictionary = Dictionary.from_tsv(data["dictionary"].decode("utf-8"))
        taxonomy = read_taxonomy(data["taxonomy"].decode("utf-8"),
                                 directory / manifest.files["taxonomy"]["name"])
    except (CwemapError, ValueError) as exc:
        raise IntegrityError(f"unreadable model file: {exc}") from exc

    try:
        config = TrainConfig.from_dict(manifest.config)
        assets = _assets_from_dict(manifest.config)
        classifiers = {}
        for entry in manifest.nodes:
            node_id = entry["node_id"]
            scored = scoring_node(taxonomy, node_id)
            if scored in classifiers:
                raise IntegrityError(f"{manifest_path}: node {node_id} is listed twice")
            try:
                classifiers[scored] = _scorer(kind, entry, data["weights"], dictionary.size)
            except (ConfigurationError, FormatError, IntegrityError) as exc:
                raise IntegrityError(f"{manifest_path}: node {node_id}: {exc}") from exc
        return Model(taxonomy=taxonomy, dictionary=dictionary, classifiers=classifiers,
                     config=config, assets=assets, kind=manifest.model_kind)
    except (ConfigurationError, FormatError, ValidationError) as exc:
        raise IntegrityError(f"{manifest_path}: {exc}") from exc


def fingerprint(model: Model) -> str:
    """The fingerprint ``save`` writes for ``model``: the checksum of its manifest."""
    return checksum(_contents(model)[1])
