"""Corpus, taxonomy, and preprocessing-asset loaders.

All loaders are pure read-only functions returning immutable values.
On-disk formats (each JSON one is defined by its ``jsonread`` spec below,
which is all the checking of its types):

* CVE corpus -- UTF-8 JSONL, one ``CVE_RECORD`` object per line.
* Taxonomy -- UTF-8 JSON ``TAXONOMY``, each node a ``TAXONOMY_NODE``.
* NVD feed -- ``NVD_FEED``, the subset of the public NVD 1.1 JSON data-feed
  schema that is read.
* Stopwords -- one token per line, ``#`` comments allowed.
* Synonyms -- ``SYNONYM_TABLE``, raw phrases; the loader normalizes them to
  stemmed form.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from . import textprep
from .errors import FormatError, ValidationError
from .jsonread import Optional, parse, read

logger = logging.getLogger(__name__)

# Ids are matched whole (``fullmatch``) and their digits are ASCII ones.
CVE_ID_RE = re.compile(r"CVE-[0-9]{4}-[0-9]{4,}")
CWE_ID_RE = re.compile(r"CWE-([0-9]+)")

#: Identifier of the synthetic node parenting all top-level weakness classes.
VIRTUAL_ROOT = "ROOT"

# NVD pseudo-labels that mean "no usable weakness class".
_NVD_UNLABELED = {"NVD-CWE-OTHER", "NVD-CWE-NOINFO"}

CVE_RECORD = {"id": str, "description": str, "cwe_labels": Optional([str], [])}
TAXONOMY_NODE = {"id": str, "name": Optional(str, ""), "description": Optional(str, ""),
                 "extended_description": Optional(str), "parent_ids": Optional([str], [])}
TAXONOMY = {"nodes": [dict]}  # each node is read by TAXONOMY_NODE
_NVD_TEXT = {"lang": Optional(object), "value": Optional(str, "")}
NVD_FEED = {"CVE_Items": [{"cve": Optional({
    "CVE_data_meta": Optional({"ID": Optional(str, "")}, {}),
    "description": Optional({"description_data": Optional([_NVD_TEXT], [])}, {}),
    "problemtype": Optional({"problemtype_data": Optional(
        [{"description": Optional([_NVD_TEXT], [])}], [])}, {}),
}, {})}]}
SYNONYM_GROUP = {"code": str, "members": [str]}
SYNONYM_TABLE = {"groups": [SYNONYM_GROUP]}


def normalize_cwe_id(raw: str) -> str:
    """``raw`` stripped of surrounding whitespace and uppercased, which must
    then be ``CWE-`` and ASCII digits, kept as written (``cwe-012`` becomes
    ``CWE-012``); ValidationError otherwise.  An id already in that form is
    returned as it is."""
    if type(raw) is str and CWE_ID_RE.fullmatch(raw):
        return raw
    cleaned = raw.strip().upper() if isinstance(raw, str) else ""
    if not CWE_ID_RE.fullmatch(cleaned):
        raise ValidationError(f"not a CWE identifier: {raw!r}")
    return cleaned


@dataclass(frozen=True)
class CveRecord:
    """One vulnerability report; its values are checked here, its types on input."""

    id: str
    description: str
    cwe_labels: frozenset[str] = frozenset()

    def __post_init__(self):
        if not CVE_ID_RE.fullmatch(self.id):
            raise ValidationError(f"not a CVE identifier: {self.id!r}")
        if not self.description.strip():
            raise ValidationError(f"{self.id}: description is empty")
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


@dataclass(frozen=True, eq=False)
class PathTable:
    """Every root path of a taxonomy, over the columns of ``Taxonomy.order``,
    as ``hierarchy.classify`` reads them (it alone writes them as output).

    Path p is ``paths[p]``, root child first, and its columns are
    ``columns[p]``, padded after its end with ``root``, the virtual root's
    column.  The paths ending at the node of column j are ``starts[j]`` to
    ``starts[j + 1]``; the virtual root ends none.  ``rank[p]`` is path p's
    place in the sorted list of all paths, ``id_rank[j]`` the place of
    column j's id among the sorted ids.  The children of column
    ``parents[k]`` are ``children[child_starts[k]:child_starts[k + 1]]``.
    """

    root: int
    columns: np.ndarray  # (P, longest path) int64
    starts: np.ndarray  # (N + 1,) int64
    rank: np.ndarray  # (P,) int64
    id_rank: np.ndarray  # (N,) int64
    parents: np.ndarray  # (K,) int64 columns with children
    child_starts: np.ndarray  # (K,) int64
    children: np.ndarray  # (edges,) int64
    paths: tuple[tuple[str, ...], ...]


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

    @cached_property
    def path_table(self) -> PathTable:
        """The root paths and ids of every node as arrays over ``order``'s columns."""
        order = self.order
        column = {node_id: j for j, node_id in enumerate(order)}
        root = column[self.root_id]
        ends = [() if n == self.root_id else sorted(self._root_paths[n]) for n in order]
        paths = tuple(path for group in ends for path in group)
        starts = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum([len(group) for group in ends], out=starts[1:])
        columns = np.full((len(paths), max(map(len, paths), default=0)), root, dtype=np.int64)
        for p, path in enumerate(paths):
            columns[p, :len(path)] = [column[n] for n in path]
        parents = [j for j, n in enumerate(order) if self.children[n]]
        kids = [[column[c] for c in self.children[order[j]]] for j in parents]
        child_starts = np.zeros(len(parents), dtype=np.int64)
        np.cumsum([len(k) for k in kids[:-1]], out=child_starts[1:])
        return PathTable(
            root=root, columns=columns, starts=starts, rank=_sort_ranks(paths),
            id_rank=_sort_ranks(order),
            parents=np.array(parents, dtype=np.int64), child_starts=child_starts,
            children=np.array([c for k in kids for c in k], dtype=np.int64),
            paths=paths,
        )

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


def _sort_ranks(items: tuple) -> np.ndarray:
    """Each item's place in ``sorted(items)``."""
    ranks = np.empty(len(items), dtype=np.int64)
    ranks[sorted(range(len(items)), key=items.__getitem__)] = np.arange(len(items))
    return ranks


def _closure(order, edges) -> dict[str, frozenset[str]]:
    """Per node, every node reachable from it over ``edges``; ``order`` puts
    each node after all the nodes its edges lead to."""
    closure: dict[str, frozenset[str]] = {}
    for node_id in order:
        near = edges(node_id)
        closure[node_id] = frozenset(near).union(*(closure[n] for n in near))
    return closure


def _cwe_sort_key(node_id: str):
    """CWE ids by number, then by id (``CWE-012`` before ``CWE-12``), then
    any other id by itself.  The number is compared as its digits without
    leading zeros, shorter first, so no id is too long to order."""
    m = CWE_ID_RE.fullmatch(node_id)
    if m is None:
        return (1, 0, "", node_id)
    digits = m.group(1).lstrip("0")
    return (0, len(digits), digits, node_id)


def read_input_lines(path: str | Path):
    """(line number, text) of each line of a UTF-8 input file, decoded line
    by line: the one decode path of every input file.

    A directory or undecodable bytes raise FormatError naming the path (and
    the line); a missing file raises FileNotFoundError.
    """
    path = Path(path)
    try:
        fh = path.open("rb")
    except IsADirectoryError:
        raise FormatError("is a directory, not a file", path=path) from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"not UTF-8 text (byte {exc.start})", path=path,
                                  line=lineno) from None


def read_input_text(path: str | Path) -> str:
    """The text of a UTF-8 input file, read by ``read_input_lines``."""
    return "".join(line for _, line in read_input_lines(path))


def load_cve_corpus(path: str | Path) -> list[CveRecord]:
    """Load a JSONL corpus in file order; duplicate ids are rejected.

    A line that is not a ``CVE_RECORD``, or whose record is not valid,
    raises FormatError naming the path and line.
    """
    path = Path(path)
    records: list[CveRecord] = []
    seen: set[str] = set()
    for lineno, line in read_input_lines(path):
        if not line.strip():
            continue
        fields = parse(line, CVE_RECORD, path, lineno)
        try:
            record = CveRecord(**fields)
        except ValidationError as exc:
            raise FormatError(str(exc), path=path, line=lineno) from exc
        if record.id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate CVE id {record.id}")
        seen.add(record.id)
        records.append(record)
    return records


def write_cve_corpus(records: list[CveRecord], path: str | Path) -> None:
    """Write records as JSONL (the load_cve_corpus format), every character
    past ASCII escaped, so that a lone surrogate read from an escape is
    written back as one."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({"id": rec.id, "description": rec.description,
                                 "cwe_labels": sorted(rec.cwe_labels, key=_cwe_sort_key)}) + "\n")


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
        parent_ids = frozenset(map(normalize_cwe_id, node.parent_ids))
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

    # One sort of every id: each node is appended to its parents' lists in
    # id order, so every list of children comes out sorted.
    children: dict[str, list[str]] = {node_id: [] for node_id in all_nodes}
    for node_id in sorted(by_id, key=_cwe_sort_key):
        for parent in by_id[node_id].parent_ids or (VIRTUAL_ROOT,):
            children[parent].append(node_id)
    ordered = {node_id: tuple(kids) for node_id, kids in children.items()}
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
    """Load a taxonomy JSON document and validate the DAG (see ``read_taxonomy``)."""
    path = Path(path)
    return read_taxonomy(read_input_text(path), path)


def read_taxonomy(text: str, path: str | Path) -> Taxonomy:
    """The taxonomy in ``text``, a ``TAXONOMY`` document read from ``path``.

    Malformed JSON raises FormatError naming the path, and a node that is
    not a ``TAXONOMY_NODE`` one naming the path, the node and the field.
    """
    nodes = []
    for i, raw in enumerate(parse(text, TAXONOMY, path)["nodes"]):
        try:
            node = read(raw, TAXONOMY_NODE, "")
        except FormatError as exc:
            # ``raw`` is an object, so the misfit is a field: ``nodes[i].<field> ...``.
            raise FormatError(f"node {raw.get('id', f'#{i}')}: nodes[{i}].{exc}",
                              path=path) from None
        node["parent_ids"] = frozenset(node["parent_ids"])
        nodes.append(CweNode(**node))
    return build_taxonomy(nodes)


def taxonomy_json(taxonomy: Taxonomy) -> str:
    """The saved form of ``taxonomy``, which ``read_taxonomy`` reads back."""
    return json.dumps({"nodes": taxonomy.to_node_list()}, indent=2, sort_keys=True) + "\n"


def save_taxonomy(taxonomy: Taxonomy, path: str | Path) -> None:
    Path(path).write_text(taxonomy_json(taxonomy), encoding="utf-8")


def paths_to_root(taxonomy: Taxonomy, node_id: str) -> set[tuple[str, ...]]:
    """Every distinct root-to-node path, excluding the virtual root itself."""
    if node_id not in taxonomy.nodes or node_id == taxonomy.root_id:
        raise ValidationError(f"unknown taxonomy node: {node_id!r}")
    return set(taxonomy._root_paths[node_id])


def import_nvd_feed(path: str | Path) -> list[CveRecord]:
    """Adapt an NVD 1.1 JSON data feed into CveRecords.

    Items carrying only ``NVD-CWE-Other``/``NVD-CWE-noinfo`` pseudo-labels
    (or no problemtype at all) come back with empty ``cwe_labels``.  Items
    without an English description are skipped with a warning.  A feed
    that is not an ``NVD_FEED`` raises FormatError naming the item and the
    field, such as ``CVE_Items[3].cve.description.description_data[0].value``,
    and so does an item with an English description whose id is not a CVE id.
    """
    path = Path(path)
    records = []
    for i, item in enumerate(parse(read_input_text(path), NVD_FEED, path)["CVE_Items"]):
        try:
            record = _nvd_record(item)
        except ValidationError as exc:  # only the id can fail CveRecord's checks here
            raise FormatError(f"CVE_Items[{i}].cve.CVE_data_meta.ID: {exc}", path=path) from None
        if record is not None:
            records.append(record)
    return records


def _nvd_record(item: dict) -> CveRecord | None:
    """The record of one feed item; None without an English description."""
    cve = item["cve"]
    cve_id = cve["CVE_data_meta"]["ID"]
    description = next((entry["value"] for entry in cve["description"]["description_data"]
                        if entry["lang"] == "en" and entry["value"]), "")
    if not description.strip():
        logger.warning("skipping %s: no English description", cve_id or "<no id>")
        return None
    labels: set[str] = set()
    for ptype in cve["problemtype"]["problemtype_data"]:
        for entry in ptype["description"]:
            value = entry["value"].strip()
            if not value or value.upper() in _NVD_UNLABELED:
                continue
            try:
                labels.add(normalize_cwe_id(value))
            except ValidationError:
                logger.warning("%s: ignoring non-CWE problemtype %r", cve_id, value)
    return CveRecord(id=cve_id, description=description, cwe_labels=frozenset(labels))


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
    groups = []
    for raw in parse(text, SYNONYM_TABLE, source)["groups"]:
        code_phrase = textprep.normalize_phrase(raw["code"], stopwords)
        if len(code_phrase) != 1:
            raise ValidationError(f"{source}: group code {raw['code']!r} must normalize "
                                  "to a single token")
        code = code_phrase[0]
        members = []
        for member in raw["members"]:
            phrase = textprep.normalize_phrase(member, stopwords)
            if phrase and phrase != (code,) and phrase not in members:
                members.append(phrase)
        groups.append((code, tuple(members)))
    return textprep.SynonymTable(groups=tuple(groups))
