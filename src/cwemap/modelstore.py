"""Deterministic model persistence: one save, load and fingerprint for every kind.

Directory layout (format 4): ``manifest.json`` and three data files, each
named ``<key>-<sha12><suffix>`` by the first 12 hex digits of the sha256 of
its bytes (``file_name``): ``dictionary-<sha12>.json``,
``taxonomy-<sha12>.json`` and ``weights-<sha12>.bin``.

* The dictionary file holds the terms and their counts in position order
  (``features.dictionary_json``).  The count a term needed to be kept is the
  config's ``min_term_count``.
* The weights file is one blob of raw little-endian arrays, back to back,
  for every scorer in node-id order (a JSON header plus raw arrays, as in
  the safetensors format): the scorer's ``rows`` (``ROWS_DTYPE``), then each
  of its ``PARAMS`` (``PARAM_DTYPE``, row-major) exactly as ``params()``
  returns it; the row-indexed parameter (``ROW_PARAM``) is the stored block
  of a ``RowBlock``.  ``load`` maps the file read-only, hashes the
  mapping in place and views every array in it, copying none; it requires
  every parameter to be finite.  The flat baseline's one scorer is node
  ``FLAT``.  The trade of mapping: if another process truncates the file
  in place while a loaded model is in use, the next access to the lost
  pages faults (SIGBUS) instead of raising.  ``save`` never writes a file
  in place (see the commit point), and safetensors and
  ``np.load(mmap_mode="r")`` make the same trade.

The manifest records the model kind, the full config snapshot (including
the preprocessing assets; a hidden layer's width is read off its weights),
the sha256 of each data file, per scorer its child ids and the shape of
each of its arrays, and the fingerprint.  It stores nothing the reader can
derive: a file's name follows from its sha256, an array's dtype from its
name, and its place in the blob from the shapes before it.  ``load`` walks
a cursor through the blob in manifest order and requires it to end exactly
at the blob's end.

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

**Older formats** are not read: a format-1, 2 or 3 manifest raises
VersionError, and the model must be trained again.  ``save`` into a reused
directory deletes a format-2 or format-3 model's data files (``<key>-*``,
like its own) and leaves format-1 files (``dictionary.tsv``,
``taxonomy.json`` and ``weights/``) alone; nothing reads them.

Anything malformed in a model directory raises IntegrityError (or
VersionError for an unknown format or kind) at load, naming the file, and
the node, being read: besides unreadable files, checksums, array extents
and non-finite weights, a manifest that lists a node twice, or whose
scorers are not exactly one per scoring node, over that node's taxonomy
children in order and the dictionary's dimension (``hierarchy.Model``).
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CwemapError, FormatError, IntegrityError, VersionError
from .features import dictionary_json, read_dictionary
from .hierarchy import SCORERS, Model, PrepAssets, scoring_node
from .ingest import SYNONYM_GROUP, read_taxonomy, taxonomy_json
from .jsonread import Optional, parse, read
from .netcore import RowBlock, Scorer, TrainConfig
from .textprep import SynonymTable

FORMAT_VERSION = 4

MANIFEST = "manifest.json"
#: Suffix of each data file; its name is ``<key>-<sha12><suffix>`` (``file_name``).
DATA_FILES = {"dictionary": ".json", "taxonomy": ".json", "weights": ".bin"}
#: Dtype of the row positions and of every parameter in the weights file.
ROWS_DTYPE, PARAM_DTYPE = "<i8", "<f8"

# The manifest's fields; ``config`` is read by ``TrainConfig.from_dict`` and
# ``_ASSETS``, and a node's ``arrays`` (array name: shape) by ``_scorer``.
_MANIFEST = {
    "format_version": int,
    "model_kind": str,
    "fingerprint": str,
    "config": dict,
    "files": dict.fromkeys(DATA_FILES, str),
    "nodes": [{"node_id": str, "child_ids": [str], "arrays": dict}],
}
_ASSETS = {"assets": Optional({"stopwords": Optional([str], []),
                               "synonym_groups": Optional([SYNONYM_GROUP], [])}, {})}
_SHA256 = re.compile(r"[0-9a-f]{64}")


def file_name(key: str, sha256: str) -> str:
    """The name of the data file ``key`` whose bytes have this sha256."""
    return f"{key}-{sha256[:12]}{DATA_FILES[key]}"


@dataclass(frozen=True)
class ModelManifest:
    format_version: int
    model_kind: str  # "hierarchical" | "flat" | "two-layer"
    fingerprint: str
    config: dict
    files: dict  # {"dictionary" | "taxonomy" | "weights": sha256}
    nodes: list[dict]  # {"node_id", "child_ids", "arrays": {"rows" | param: shape}}

    def to_json(self) -> str:
        doc = {key: getattr(self, key) for key in _MANIFEST}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ModelManifest":
        """Parse a manifest; VersionError for another format version, else
        FormatError unless it has every field, well typed, and IntegrityError
        unless each sha256 is 64 lowercase hex digits and the fingerprint is
        the checksum of the other fields."""
        doc = parse(text, dict, MANIFEST)
        version = read(doc, {"format_version": int}, "manifest")["format_version"]
        if version != FORMAT_VERSION:
            raise VersionError(f"model format version {version} is not supported (this "
                               f"version reads {FORMAT_VERSION}); retrain the model")
        fields = read(doc, _MANIFEST, "manifest")
        for key, sha256 in fields["files"].items():
            if not _SHA256.fullmatch(sha256):
                raise IntegrityError(f"files.{key} is not 64 lowercase hex digits")
        if fields["fingerprint"] != checksum(fields):
            raise IntegrityError("the fingerprint is not the checksum of the manifest; it was "
                                 "edited, or saved by an older version (retrain the model)")
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
    """The weights file and the manifest's node entries that describe it."""
    chunks, nodes = [], []
    for clf in sorted(model.classifiers.values(), key=lambda clf: clf.node_id):
        rows, params = getattr(clf, clf.ROW_PARAM).rows, clf.params()
        arrays = {"rows": list(rows.shape)}
        chunks.append(np.ascontiguousarray(rows, dtype=ROWS_DTYPE).tobytes())
        for name in clf.PARAMS:
            arrays[name] = list(params[name].shape)
            chunks.append(np.ascontiguousarray(params[name], dtype=PARAM_DTYPE).tobytes())
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
        "dictionary": dictionary_json(model.dictionary).encode("utf-8"),
        "taxonomy": taxonomy_json(model.taxonomy).encode("utf-8"),
        "weights": blob,
    }
    files = {key: hashlib.sha256(data).hexdigest() for key, data in contents.items()}
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
    names = {key: file_name(key, sha256) for key, sha256 in body["files"].items()}
    for key, data in contents.items():
        _replace_with(directory / names[key], data)
    manifest = ModelManifest(fingerprint=checksum(body), **body)
    _replace_with(directory / MANIFEST, manifest.to_json().encode("utf-8"))
    for key, name in names.items():
        for path in directory.glob(f"{key}-*"):
            if path.name != name and path.is_file():
                path.unlink()
    return manifest


def _read_file(path: Path) -> bytes:
    if not path.is_file():
        raise IntegrityError("missing model file")
    return path.read_bytes()


def _map_file(path: Path) -> mmap.mmap | bytes:
    """The bytes of ``path``, mapped read-only: b"" for an empty file, which
    cannot be mapped."""
    if not path.is_file():
        raise IntegrityError("missing model file")
    with path.open("rb") as fh:
        try:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            return b""


def _scorer(kind, entry: dict, blob: mmap.mmap | bytes, cursor: int, dimension: int
            ) -> tuple[Scorer, int]:
    """The scorer a manifest node entry describes, its arrays viewing ``blob``
    from byte ``cursor`` on, and the byte after its last array.
    IntegrityError names an array that does not fit the blob, or a
    parameter that holds a NaN or an infinity."""
    names = ("rows", *kind.PARAMS)
    if sorted(entry["arrays"]) != sorted(names):
        raise IntegrityError(f"arrays {sorted(entry['arrays'])} are not {', '.join(names)}")
    shapes = read(entry["arrays"], dict.fromkeys(names, [int]), "arrays")
    arrays = {}
    for name in names:
        shape, ndim = shapes[name], 1 if name == "rows" else 2
        if len(shape) != ndim or min(shape) < 0:
            raise IntegrityError(f"arrays.{name} is no shape of a {ndim}-D array")
        dtype = np.dtype(ROWS_DTYPE if name == "rows" else PARAM_DTYPE)
        count = math.prod(shape)
        end = cursor + dtype.itemsize * count
        if end > len(blob):
            raise IntegrityError(f"arrays.{name} runs past the end of the weights file")
        arrays[name] = np.frombuffer(blob, dtype, count, cursor).reshape(shape)
        if name != "rows" and not np.isfinite(arrays[name]).all():
            raise IntegrityError(f"arrays.{name} holds a value that is not finite")
        cursor = end
    arrays[kind.ROW_PARAM] = RowBlock(arrays.pop("rows"), arrays[kind.ROW_PARAM], dimension)
    return kind(entry["node_id"], tuple(entry["child_ids"]), **arrays), cursor


def load(directory: str | Path) -> Model:
    """Restore a model, verifying the checksum of every data file.

    Every reader error becomes IntegrityError here, naming the file (and
    the node) being read unless its message names the file already.
    """
    directory = Path(directory)
    where = manifest_path = directory / MANIFEST
    try:
        manifest = ModelManifest.from_json(_read_file(manifest_path).decode("utf-8"))
        kind = SCORERS.get(manifest.model_kind)
        if kind is None:
            raise VersionError(f"unknown model kind {manifest.model_kind!r}")
        paths = {key: directory / file_name(key, sha256) for key, sha256 in manifest.files.items()}
        data = {}
        for key, where in paths.items():
            data[key] = _map_file(where) if key == "weights" else _read_file(where)
            if hashlib.sha256(data[key]).hexdigest() != manifest.files[key]:
                raise IntegrityError("sha256 does not match the manifest")
        where = paths["dictionary"]
        dictionary = read_dictionary(data["dictionary"].decode("utf-8"), where)
        where = paths["taxonomy"]
        taxonomy = read_taxonomy(data["taxonomy"].decode("utf-8"), where)

        where = manifest_path
        config = TrainConfig.from_dict(manifest.config)
        assets = _assets_from_dict(manifest.config)
        classifiers, cursor, blob = {}, 0, data["weights"]
        for entry in manifest.nodes:
            where = f"{manifest_path}: node {entry['node_id']}"
            scored = scoring_node(taxonomy, entry["node_id"])
            if scored in classifiers:
                raise IntegrityError("is listed twice")
            classifiers[scored], cursor = _scorer(kind, entry, blob, cursor, dictionary.size)
        where = paths["weights"]
        if cursor != len(blob):
            raise IntegrityError(f"{len(blob) - cursor} bytes follow the last array")
        where = manifest_path
        return Model(taxonomy=taxonomy, dictionary=dictionary, classifiers=classifiers,
                     config=config, assets=assets, kind=manifest.model_kind)
    except VersionError:
        raise
    except (CwemapError, UnicodeDecodeError) as exc:
        located = isinstance(exc, FormatError) and exc.path is not None
        raise IntegrityError(str(exc) if located else f"{where}: {exc}") from exc


def fingerprint(model: Model) -> str:
    """The fingerprint ``save`` writes for ``model``: the checksum of its manifest."""
    return checksum(_contents(model)[1])
