"""Correctness gate over the files the program wrote.

Works from the generated taxonomy and the raw predictions JSONL, without
importing the program, so a change to the program cannot change what is
checked.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path


def taxonomy_children(taxonomy_path: str | Path) -> tuple[dict[str, set[str]], set[str]]:
    """Children per node id, and the children of the virtual root (nodes without parents)."""
    nodes = json.loads(Path(taxonomy_path).read_text(encoding="utf-8"))["nodes"]
    children: dict[str, set[str]] = {node["id"]: set() for node in nodes}
    top: set[str] = set()
    for node in nodes:
        for parent in node["parent_ids"]:
            children[parent].add(node["id"])
        if not node["parent_ids"]:
            top.add(node["id"])
    return children, top


def check_predictions(
    rows: list[dict], expected_ids: list[str], children: dict[str, set[str]], top: set[str]
) -> list[str]:
    """Problems with a predictions stream; empty when it is well formed.

    Exactly one prediction per expected id; each path is a parent-to-child
    chain starting at a child of the root; each candidate lies on a path.
    """
    problems = []
    counts = Counter(row.get("id") for row in rows)
    missing = [i for i in expected_ids if i not in counts]
    if missing:
        problems.append(f"{len(missing)} held-out ids without a prediction, e.g. {missing[0]}")
    duplicated = [i for i, n in counts.items() if n > 1]
    if duplicated:
        problems.append(f"{len(duplicated)} ids predicted more than once, e.g. {duplicated[0]}")
    unexpected = set(counts) - set(expected_ids)
    if unexpected:
        problems.append(f"{len(unexpected)} predictions for unknown ids, e.g. {min(unexpected)}")
    for row in rows:
        on_paths: set[str] = set()
        for path in row.get("paths", ()):
            if not path or path[0] not in top:
                problems.append(f"{row.get('id')}: path {path} does not start at a root child")
            for parent, child in zip(path, path[1:]):
                if child not in children.get(parent, ()):
                    problems.append(f"{row.get('id')}: path {path} has no edge {parent}->{child}")
            on_paths.update(path)
        off_path = {c.get("cwe") for c in row.get("candidates", ())} - on_paths
        if off_path:
            problems.append(f"{row.get('id')}: candidates {sorted(off_path)} lie on no path")
    return problems


def read_jsonl(path: str | Path) -> list[dict]:
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
