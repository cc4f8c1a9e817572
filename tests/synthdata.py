"""Synthetic taxonomy/corpus generator for tests.

Builds binary-branching taxonomies whose nodes own disjoint vocabularies
of stem-stable pseudo-words, plus CVE corpora sampled from the leaf
vocabularies with optional cross-leaf noise.  Everything is deterministic
in the seed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from cwemap.ingest import CveRecord, CweNode, Taxonomy, build_taxonomy

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_FINALS = "kmpzxb"


def _word(rng: np.random.Generator) -> str:
    syllables = rng.integers(2, 4)
    out = []
    for _ in range(syllables):
        out.append(_CONSONANTS[rng.integers(len(_CONSONANTS))])
        out.append(_VOWELS[rng.integers(len(_VOWELS))])
    out.append(_FINALS[rng.integers(len(_FINALS))])
    return "".join(out)


def make_pools(n_pools: int, pool_size: int, seed: int) -> list[list[str]]:
    """Disjoint pseudo-word vocabularies, one per taxonomy node."""
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    pools: list[list[str]] = []
    for _ in range(n_pools):
        pool: list[str] = []
        while len(pool) < pool_size:
            word = _word(rng)
            if word not in seen:
                seen.add(word)
                pool.append(word)
        pools.append(pool)
    return pools


def binary_taxonomy(depth: int = 3, pool_size: int = 20, seed: int = 7):
    """Binary tree of the given depth with per-node vocabulary pools.

    Returns (taxonomy, leaves, pools) where pools maps node id -> word list.
    Node ids are assigned level-order starting at CWE-100.
    """
    levels: list[list[str]] = [[]]
    counter = 100
    parents: dict[str, list[str]] = {}
    order: list[str] = []
    prev = [None]
    for _ in range(depth):
        cur = []
        for parent in prev:
            for _ in range(2):
                node_id = f"CWE-{counter}"
                counter += 1
                parents[node_id] = [parent] if parent else []
                cur.append(node_id)
                order.append(node_id)
        levels.append(cur)
        prev = cur
    leaves = levels[-1]

    pools_list = make_pools(len(order), pool_size, seed)
    pools = {node_id: pools_list[i] for i, node_id in enumerate(order)}

    nodes = []
    for node_id in order:
        pool = pools[node_id]
        nodes.append(
            CweNode(
                id=node_id,
                name=" ".join(pool[:2]),
                description=" ".join(pool[2:8]),
                parent_ids=frozenset(parents[node_id]),
            )
        )
    return build_taxonomy(nodes), leaves, pools


def make_corpus(
    leaves: list[str],
    pools: dict[str, list[str]],
    per_leaf: int = 50,
    tokens_per_cve: int = 12,
    noise: float = 0.0,
    seed: int = 11,
    year: int = 2020,
) -> list[CveRecord]:
    """CVE records per leaf, each sampling that leaf's vocabulary.

    With noise > 0, each token is independently replaced with probability
    ``noise`` by a word from a different leaf's pool.
    """
    rng = np.random.default_rng(seed)
    records = []
    counter = 1
    for leaf in leaves:
        pool = pools[leaf]
        others = [w for other in leaves if other != leaf for w in pools[other]]
        for _ in range(per_leaf):
            k = min(tokens_per_cve, len(pool))
            words = list(rng.choice(pool, size=k, replace=False))
            if noise > 0.0:
                for i in range(len(words)):
                    if rng.random() < noise:
                        words[i] = others[rng.integers(len(others))]
            records.append(
                CveRecord(
                    id=f"CVE-{year}-{counter:04d}",
                    description=" ".join(words),
                    cwe_labels=frozenset({leaf}),
                )
            )
            counter += 1
    return records


def leaf_text(pools: dict[str, list[str]], leaf: str, n_tokens: int = 12, seed: int = 99) -> str:
    """A fresh description drawn from one leaf's vocabulary."""
    rng = np.random.default_rng(seed)
    pool = pools[leaf]
    k = min(n_tokens, len(pool))
    return " ".join(rng.choice(pool, size=k, replace=False))


def two_level_taxonomy(pool_size: int = 20, seed: int = 5):
    """root -> {A, B}, A -> {A1, A2}, B -> {B1, B2} with disjoint pools."""
    return binary_taxonomy(depth=2, pool_size=pool_size, seed=seed)


@st.composite
def dag_parents(draw, max_nodes: int = 9):
    """Parent lists of a random CWE DAG: each node's parents come before it."""
    n = draw(st.integers(1, max_nodes))
    ids = [f"CWE-{10 + i}" for i in range(n)]
    parents = {}
    for i, node in enumerate(ids):
        parents[node] = draw(st.lists(st.sampled_from(ids[:i]), max_size=2, unique=True)
                             if i else st.just([]))
    return parents
