"""Corpus, taxonomy, and preprocessing-asset loaders.

All loaders are pure read-only functions returning immutable values.
On-disk formats:

* CVE corpus -- UTF-8 JSONL, one object per line:
  ``{"id": str, "description": str, "cwe_labels": [str]}``
* Taxonomy -- UTF-8 JSON: ``{"nodes": [{"id", "name", "description",
  "extended_description", "parent_ids"}]}``
* NVD feed -- the public NVD 1.1 JSON data-feed schema (read-only subset).
* Stopwords -- one token per line, ``#`` comments allowed.
* Synonyms -- ``{"groups": [{"code": str, "members": [str]}]}`` with raw
  phrases; the loader normalizes them to stemmed form.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

from . import textprep
from .errors import FormatError, ParseError, ValidationError

logger = logging.getLogger(__name__)

CVE_ID_RE = re.compile(r"^CVE-\d{4}-\d{4,}$")
CWE_ID_RE = re.compile(r"^CWE-\d+$")

#: Identifier of the synthetic node parenting all top-level weakness classes.
VIRTUAL_ROOT = "ROOT"

# NVD pseudo-labels that mean "no usable weakness class".
_NVD_UNLABELED = {"NVD-CWE-OTHER", "NVD-CWE-NOINFO"}


def normalize_cwe_id(raw: str) -> str:
    """Canonicalize a CWE label to ``CWE-<integer>`` or raise."""
    cleaned = raw.strip().upper() if isinstance(raw, str) else ""
    if not CWE_ID_RE.match(cleaned):
        raise ValidationError(f"not a CWE identifier: {raw!r}")
    return cleaned


@dataclass(frozen=True)
class CveRecord:
    """One vulnerability report: id, free-text description, CWE labels."""

    id: str
    description: str
    cwe_labels: frozenset[str] = frozenset()

    def __post_init__(self):
        if not isinstance(self.id, str) or not CVE_ID_RE.match(self.id):
            raise ValidationError(f"not a CVE identifier: {self.id!r}")
        if not isinstance(self.description, str):
            raise ValidationError(f"{self.id}: description must be a string")
        if not self.description.strip():
            raise ValidationError(f"{self.id}: description is empty")
        if isinstance(self.cwe_labels, str):
            raise ValidationError(f"{self.id}: cwe_labels must be a collection of strings")
        object.__setattr__(
            self, "cwe_labels", frozenset(normalize_cwe_id(l) for l in self.cwe_labels)
        )


@dataclass(frozen=True)
class CweNode:
    """One weakness class with its declared parents."""

    id: str
    name: str = ""
    description: str = ""
    extended_description: str | None = None
    parent_ids: frozenset[str] = frozenset()

    def text(self) -> str:
        """Name plus descriptions, the node's contribution to class documents."""
        parts = [self.name, self.description, self.extended_description or ""]
        return ". ".join(p for p in parts if p)


@dataclass(frozen=True)
class Taxonomy:
    """The CWE DAG under a synthetic virtual root.

    ``children`` is a derived adjacency map ordered by ascending numeric
    CWE id, so iteration order is deterministic across runs.  ``order``
    lists every node once, the virtual root first and each parent before
    its children.  The ancestor and descendant closures and the paths from
    the root are built from it in one pass each, on first use, so loading a
    model pays nothing for them.
    """

    nodes: dict[str, CweNode]
    root_id: str = VIRTUAL_ROOT
    children: dict[str, tuple[str, ...]] = field(default_factory=dict)
    order: tuple[str, ...] = ()

    def _get(self, node_id: str) -> CweNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ValidationError(f"unknown taxonomy node: {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes

    def internal_nodes(self) -> list[str]:
        """Node ids that have children, parents first: a filter of ``order``."""
        return [n for n in self.order if self.children[n]]

    def ancestors(self, node_id: str) -> frozenset[str]:
        """All proper ancestors excluding the virtual root."""
        self._get(node_id)
        return self._ancestor_sets[node_id]

    def descendants(self, node_id: str) -> frozenset[str]:
        """All proper descendants."""
        self._get(node_id)
        return self._descendant_sets[node_id]

    @cached_property
    def _ancestor_sets(self) -> dict[str, frozenset[str]]:
        return _closure(self.order, lambda n: self.nodes[n].parent_ids)

    @cached_property
    def _descendant_sets(self) -> dict[str, frozenset[str]]:
        return _closure(self.order[::-1], self.children.__getitem__)

    @cached_property
    def _root_paths(self) -> dict[str, frozenset[tuple[str, ...]]]:
        paths: dict[str, frozenset[tuple[str, ...]]] = {}
        for node_id in self.order:
            parents = self.nodes[node_id].parent_ids
            prefixes = [path for p in parents for path in paths[p]] if parents else [()]
            paths[node_id] = frozenset(prefix + (node_id,) for prefix in prefixes)
        return paths

    def to_node_list(self) -> list[dict]:
        """Serializable node list (round-trips through load_taxonomy)."""
        out = []
        for node_id in sorted(self.nodes, key=_cwe_sort_key):
            if node_id == self.root_id:
                continue
            node = self.nodes[node_id]
            out.append(
                {
                    "id": node.id,
                    "name": node.name,
                    "description": node.description,
                    "extended_description": node.extended_description,
                    "parent_ids": sorted(node.parent_ids, key=_cwe_sort_key),
                }
            )
        return out


def _closure(order, edges) -> dict[str, frozenset[str]]:
    """Per node, every node reachable from it over ``edges``; ``order`` puts
    each node after all the nodes its edges lead to."""
    closure: dict[str, frozenset[str]] = {}
    for node_id in order:
        near = edges(node_id)
        closure[node_id] = frozenset(near).union(*(closure[n] for n in near))
    return closure


def _cwe_sort_key(node_id: str):
    m = re.match(r"^CWE-(\d+)$", node_id)
    return (0, int(m.group(1)), "") if m else (1, 0, node_id)


def read_input_text(path: str | Path) -> str:
    """The text of a UTF-8 input file.

    A directory or undecodable bytes raise ParseError naming the path; a
    missing file raises FileNotFoundError.
    """
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except IsADirectoryError:
        raise ParseError("is a directory, not a file", path=path) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte {exc.start})", path=path) from None


def _corpus_lines(path: Path):
    """(line number, text) of each line of a UTF-8 file, decoded line by line."""
    try:
        fh = path.open("rb")
    except IsADirectoryError:
        raise ParseError("is a directory, not a file", path=path) from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8 text (byte {exc.start})", path=path,
                                 line=lineno) from None


def load_cve_corpus(path: str | Path) -> list[CveRecord]:
    """Load a JSONL corpus in file order; duplicate ids are rejected.

    A line that is not a JSON object with a string ``id``, a string
    ``description`` and an optional list of strings ``cwe_labels`` raises
    ParseError naming the path and line.
    """
    path = Path(path)
    records: list[CveRecord] = []
    seen: set[str] = set()
    for lineno, line in _corpus_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON ({exc.msg})", path=path, line=lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", path=path, line=lineno)
        labels = obj.get("cwe_labels")
        if labels is None:
            labels = []
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise ParseError("cwe_labels must be a list of strings", path=path, line=lineno)
        try:
            record = CveRecord(
                id=obj.get("id", ""),
                description=obj.get("description", ""),
                cwe_labels=frozenset(labels),
            )
        except ValidationError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from exc
        if record.id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate CVE id {record.id}")
        seen.add(record.id)
        records.append(record)
    return records


def write_cve_corpus(records: list[CveRecord], path: str | Path) -> None:
    """Write records as JSONL (the load_cve_corpus format)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {
                        "id": rec.id,
                        "description": rec.description,
                        "cwe_labels": sorted(rec.cwe_labels, key=_cwe_sort_key),
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def build_taxonomy(nodes: list[CweNode]) -> Taxonomy:
    """Validate nodes and assemble the DAG under the virtual root.

    Node and parent ids are normalized (``cwe-1`` becomes ``CWE-1``) on the
    stored nodes themselves, so ``nodes``, ``children`` and the saved file
    all use the same ids.
    """
    by_id: dict[str, CweNode] = {}
    for node in nodes:
        node_id = normalize_cwe_id(node.id)
        if node_id in by_id:
            raise ValidationError(f"duplicate taxonomy node id {node_id}")
        parent_ids = frozenset(normalize_cwe_id(p) for p in node.parent_ids)
        if node_id != node.id or parent_ids != node.parent_ids:
            node = replace(node, id=node_id, parent_ids=parent_ids)
        by_id[node_id] = node
    for node in by_id.values():
        for parent in node.parent_ids:
            if parent not in by_id:
                raise ValidationError(f"{node.id}: dangling parent id {parent}")

    root = CweNode(id=VIRTUAL_ROOT, name="virtual root")
    all_nodes = dict(by_id)
    all_nodes[VIRTUAL_ROOT] = root

    children: dict[str, list[str]] = {node_id: [] for node_id in all_nodes}
    for node in by_id.values():
        parents = node.parent_ids or frozenset({VIRTUAL_ROOT})
        for parent in parents:
            children[parent].append(node.id)
    ordered = {
        node_id: tuple(sorted(kids, key=_cwe_sort_key)) for node_id, kids in children.items()
    }
    return Taxonomy(nodes=all_nodes, root_id=VIRTUAL_ROOT, children=ordered,
                    order=_topological_order(all_nodes, ordered))


def _topological_order(nodes: dict[str, CweNode], children: dict[str, tuple[str, ...]]
                       ) -> tuple[str, ...]:
    """Every node, parents before children (Kahn's algorithm from the virtual root).

    A node left unordered lies on or below a cycle, and so does one of its
    parents; following such parents until one repeats names a cycle, which
    raises ValidationError.
    """
    waiting = dict.fromkeys(children, 0)
    for kids in children.values():
        for kid in kids:
            waiting[kid] += 1
    order, ready = [], [VIRTUAL_ROOT]
    while ready:
        node_id = ready.pop()
        order.append(node_id)
        for kid in children[node_id]:
            waiting[kid] -= 1
            if waiting[kid] == 0:
                ready.append(kid)
    unordered = {node_id for node_id, count in waiting.items() if count}
    if unordered:
        node_id, trail = min(unordered, key=_cwe_sort_key), []
        while node_id not in trail:
            trail.append(node_id)
            node_id = min(unordered & nodes[node_id].parent_ids, key=_cwe_sort_key)
        cycle = trail[trail.index(node_id):] + [node_id]
        raise ValidationError("cycle detected: " + " -> ".join(cycle))
    return tuple(order)


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Load a taxonomy JSON document and validate the DAG."""
    path = Path(path)
    try:
        doc = json.loads(read_input_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON ({exc.msg})", path=path, line=exc.lineno) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise FormatError(f"{path}: expected an object with a 'nodes' list")
    nodes = []
    for i, raw in enumerate(doc["nodes"]):
        if not isinstance(raw, dict) or "id" not in raw:
            raise FormatError(f"{path}: node #{i} is not an object with an 'id'")
        nodes.append(
            CweNode(
                id=str(raw["id"]),
                name=str(raw.get("name") or ""),
                description=str(raw.get("description") or ""),
                extended_description=raw.get("extended_description"),
                parent_ids=frozenset(str(p) for p in raw.get("parent_ids") or ()),
            )
        )
    return build_taxonomy(nodes)


def save_taxonomy(taxonomy: Taxonomy, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps({"nodes": taxonomy.to_node_list()}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def paths_to_root(taxonomy: Taxonomy, node_id: str) -> set[tuple[str, ...]]:
    """Every distinct root-to-node path, excluding the virtual root itself."""
    if node_id not in taxonomy.nodes or node_id == taxonomy.root_id:
        raise ValidationError(f"unknown taxonomy node: {node_id!r}")
    return set(taxonomy._root_paths[node_id])


def import_nvd_feed(path: str | Path) -> list[CveRecord]:
    """Adapt an NVD 1.1 JSON data feed into CveRecords.

    Items carrying only ``NVD-CWE-Other``/``NVD-CWE-noinfo`` pseudo-labels
    (or no problemtype at all) come back with empty ``cwe_labels``.  Items
    without an English description are skipped with a warning.
    """
    path = Path(path)
    try:
        doc = json.loads(read_input_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON ({exc.msg})", path=path, line=exc.lineno) from exc
    if not isinstance(doc, dict) or "CVE_Items" not in doc:
        raise FormatError(f"{path}: missing CVE_Items key")
    records: list[CveRecord] = []
    for item in doc["CVE_Items"]:
        cve = item.get("cve", {})
        cve_id = cve.get("CVE_data_meta", {}).get("ID", "")
        description = ""
        for entry in cve.get("description", {}).get("description_data", ()):
            if entry.get("lang") == "en" and entry.get("value"):
                description = entry["value"]
                break
        if not description.strip():
            logger.warning("skipping %s: no English description", cve_id or "<no id>")
            continue
        labels: set[str] = set()
        for ptype in cve.get("problemtype", {}).get("problemtype_data", ()):
            for entry in ptype.get("description", ()):
                value = str(entry.get("value", "")).strip()
                if not value or value.upper() in _NVD_UNLABELED:
                    continue
                try:
                    labels.add(normalize_cwe_id(value))
                except ValidationError:
                    logger.warning("%s: ignoring non-CWE problemtype %r", cve_id, value)
        records.append(CveRecord(id=cve_id, description=description, cwe_labels=frozenset(labels)))
    return records


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword file (one token per line); None loads the default."""
    if path is None:
        text = resources.files("cwemap.data").joinpath("stopwords.txt").read_text("utf-8")
    else:
        text = read_input_text(path)
    words = set()
    for line in text.splitlines():
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return frozenset(words)


def load_synonyms(
    path: str | Path | None = None, stopwords: frozenset[str] = frozenset()
) -> textprep.SynonymTable:
    """Load a synonym table, stemming raw phrases; None loads the default."""
    if path is None:
        text = resources.files("cwemap.data").joinpath("synonyms.json").read_text("utf-8")
        source = "<default>"
    else:
        text = read_input_text(path)
        source = str(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON ({exc.msg})", path=source, line=exc.lineno) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("groups"), list):
        raise FormatError(f"{source}: expected an object with a 'groups' list")
    groups = []
    for raw in doc["groups"]:
        code_phrase = textprep.normalize_phrase(str(raw.get("code", "")), stopwords)
        if len(code_phrase) != 1:
            raise ValidationError(f"{source}: group code {raw.get('code')!r} must normalize "
                                  "to a single token")
        code = code_phrase[0]
        members = []
        for member in raw.get("members", ()):
            phrase = textprep.normalize_phrase(str(member), stopwords)
            if phrase and phrase != (code,) and phrase not in members:
                members.append(phrase)
        groups.append((code, tuple(members)))
    return textprep.SynonymTable(groups=tuple(groups))
