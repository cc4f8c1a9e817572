"""Seeded synthetic workloads in the program's own input formats.

A workload is a CWE-like taxonomy plus a labeled training corpus and a
held-out corpus.  The taxonomy is a level-ordered tree (fan-out per level)
with an optional share of nodes given a second parent from the level above,
so it is a DAG.  Every node owns a disjoint vocabulary of stem-stable
pseudo-words; a record's tokens come from its labels' vocabularies (mostly
the label's own, the rest from its ancestors'), with cross-class noise, an
optional share of filler tokens drawn from a shared Zipf-distributed
vocabulary, and optional English inflection suffixes for the stemmer to
strip.

Everything is drawn with NumPy from generators seeded by the workload seed,
in bulk (the Zipf filler is sampled by inverting a precomputed CDF), so the
same seed writes byte-identical files and a corpus of a few hundred
thousand tokens takes well under a second.  The program only ever sees the
files: ``taxonomy.json``, ``train.jsonl``, the held-out ``stream.jsonl`` that
is classified, and ``heldout.jsonl``, the prefix of the stream that is
evaluated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CONSONANTS = list("bdfgklmnprstvz")
_VOWELS = list("aeiou")
_FINALS = list("kmpzxb")  # endings the stemmer leaves alone

# Share of a record's class tokens taken from the label's own vocabulary;
# the rest come from the vocabularies of the label's ancestors.
OWN_SHARE = 0.7
INFLECTIONS = ("s", "ed", "ing", "ation", "ations", "ness", "ment", "er", "ly", "ful",
               "ity", "able", "ize", "ous")
FIRST_CWE_ID = 100


@dataclass(frozen=True)
class Workload:
    """Shape of one generated workload and the training it is run with."""

    name: str
    fanout: tuple[int, ...]
    train_records: int
    stream_records: int  # held-out records classified
    heldout_records: int  # prefix of the stream that is evaluated
    epochs: int
    tokens_per_record: int
    pool_size: int
    noise: float = 0.0
    extra_parent_share: float = 0.0
    labels_at_any_depth: bool = False
    multi_label_share: float = 0.0
    suffixes: tuple[str, ...] = ()
    inflect_share: float = 0.0
    filler_share: float = 0.0
    filler_size: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # Binary tree, short texts: netcore's per-example forward/gradient loops
        # dominate training; text preparation is small.
        Workload(
            name="deep-short",
            fanout=(2, 2, 2, 2, 2),
            train_records=1920,
            stream_records=3000,
            heldout_records=1000,
            epochs=8,
            tokens_per_record=25,
            pool_size=60,
            noise=0.65,
        ),
        # Wide, shallow CWE-like DAG; long inflected texts, half of them Zipf
        # filler: preprocessing and stemming dominate, netcore is small.
        Workload(
            name="wide-long",
            fanout=(10, 10),
            train_records=1000,
            stream_records=2000,
            heldout_records=1000,
            epochs=3,
            tokens_per_record=120,
            pool_size=60,
            noise=0.45,
            extra_parent_share=0.1,
            suffixes=INFLECTIONS,
            inflect_share=0.6,
            filler_share=0.5,
            filler_size=20000,
        ),
        # CWE-sized DAG (~210 internal nodes), labels at any depth, a quarter of
        # the records with two labels: per-node costs dominate (dense Adam, weight
        # init, per-node scans, one weight file per node, multi-path evaluation).
        Workload(
            name="dag-multilabel",
            fanout=(8, 5, 4, 3),
            train_records=1800,
            stream_records=3000,
            heldout_records=1200,
            epochs=5,
            tokens_per_record=30,
            pool_size=15,
            noise=0.65,
            extra_parent_share=0.15,
            labels_at_any_depth=True,
            multi_label_share=0.25,
        ),
    )
}


def _pseudo_words(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct consonant-vowel pseudo-words of 2-3 syllables."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        m = 2 * (n - len(words)) + 16
        syllables = rng.integers(2, 4, size=m).tolist()
        cons = rng.integers(len(_CONSONANTS), size=(m, 3)).tolist()
        vows = rng.integers(len(_VOWELS), size=(m, 3)).tolist()
        fins = rng.integers(len(_FINALS), size=m).tolist()
        for i in range(m):
            word = "".join(
                _CONSONANTS[cons[i][j]] + _VOWELS[vows[i][j]] for j in range(syllables[i])
            ) + _FINALS[fins[i]]
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == n:
                    break
    return words


@dataclass
class _Taxonomy:
    ids: list[str]  # level order
    parents: list[list[int]]  # node index -> parent indices (empty at top level)
    leaves: list[int]
    ancestors: list[list[int]]


def _taxonomy(w: Workload, rng: np.random.Generator) -> _Taxonomy:
    parents: list[list[int]] = []
    levels: list[list[int]] = []
    prev: list[int | None] = [None]
    for fan in w.fanout:
        level = []
        for parent in prev:
            for _ in range(fan):
                level.append(len(parents))
                parents.append([] if parent is None else [parent])
        levels.append(level)
        prev = level
    for upper, level in zip(levels, levels[1:]):
        for node in level:
            if len(upper) > 1 and rng.random() < w.extra_parent_share:
                others = [p for p in upper if p != parents[node][0]]
                parents[node].append(others[int(rng.integers(len(others)))])
    ancestors: list[list[int]] = []
    for node in range(len(parents)):  # parents precede children in level order
        found: set[int] = set()
        for p in parents[node]:
            found.add(p)
            found.update(ancestors[p])
        ancestors.append(sorted(found))
    ids = [f"CWE-{FIRST_CWE_ID + i}" for i in range(len(parents))]
    return _Taxonomy(ids=ids, parents=parents, leaves=levels[-1], ancestors=ancestors)


def _records(
    w: Workload,
    tax: _Taxonomy,
    vocab: list[str],
    filler_cdf: np.ndarray,
    rng: np.random.Generator,
    n_records: int,
    year: int,
) -> list[dict]:
    """Labeled records; class word for node k, pool slot j is vocab[k * pool_size + j]."""
    n_nodes = len(tax.ids)
    n_tok = w.tokens_per_record
    shape = (n_records, n_tok)
    label_pool = np.arange(n_nodes) if w.labels_at_any_depth else np.asarray(tax.leaves)

    first = label_pool[rng.integers(len(label_pool), size=n_records)]
    second = label_pool[rng.integers(len(label_pool), size=n_records)]
    two_labels = (rng.random(n_records) < w.multi_label_share) & (second != first)

    use_second = two_labels[:, None] & (rng.random(shape) < 0.5)
    node = np.where(use_second, second[:, None], first[:, None])
    n_anc = np.array([len(a) for a in tax.ancestors])
    anc_table = np.zeros((n_nodes, max(int(n_anc.max()), 1)), dtype=np.int64)
    for k, anc in enumerate(tax.ancestors):
        anc_table[k, : len(anc)] = anc
    pick = (rng.random(shape) * n_anc[node]).astype(np.int64)
    from_ancestor = (rng.random(shape) >= OWN_SHARE) & (n_anc[node] > 0)
    node = np.where(from_ancestor, anc_table[node, pick], node)
    noisy = rng.random(shape) < w.noise
    node = np.where(noisy, rng.integers(n_nodes, size=shape), node)
    token = node * w.pool_size + rng.integers(w.pool_size, size=shape)

    filler = rng.random(shape) < w.filler_share
    if w.filler_size:
        zipf_rank = np.searchsorted(filler_cdf, rng.random(shape), side="right")
        token = np.where(filler, n_nodes * w.pool_size + np.minimum(zipf_rank, w.filler_size - 1),
                         token)

    suffixes = ("",) + tuple(w.suffixes)
    suffix = np.zeros(shape, dtype=np.int64)
    if w.suffixes:
        inflected = rng.random(shape) < w.inflect_share
        suffix = np.where(inflected, rng.integers(1, len(suffixes), size=shape), 0)

    records = []
    token_rows, suffix_rows = token.tolist(), suffix.tolist()
    for i in range(n_records):
        labels = {tax.ids[int(first[i])]}
        if two_labels[i]:
            labels.add(tax.ids[int(second[i])])
        text = " ".join(vocab[t] + suffixes[s] for t, s in zip(token_rows[i], suffix_rows[i]))
        records.append({
            "id": f"CVE-{year}-{i + 1:05d}",
            "description": text,
            "cwe_labels": sorted(labels, key=lambda c: int(c[4:])),
        })
    return records


def _write_jsonl(records: list[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def generate(w: Workload, seed: int, out_dir: str | Path) -> dict:
    """Write the workload's files; return the realised shape."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0])
    tax = _taxonomy(w, rng)
    vocab = _pseudo_words(rng, len(tax.ids) * w.pool_size + w.filler_size)
    zipf = 1.0 / np.arange(1, w.filler_size + 1)
    filler_cdf = np.cumsum(zipf) / zipf.sum() if w.filler_size else np.zeros(0)

    nodes = []
    for k, cwe in enumerate(tax.ids):
        pool = vocab[k * w.pool_size : (k + 1) * w.pool_size]
        nodes.append({
            "id": cwe,
            "name": " ".join(pool[:2]),
            "description": " ".join(pool[2:8]),
            "extended_description": None,
            "parent_ids": [tax.ids[p] for p in tax.parents[k]],
        })
    (out / "taxonomy.json").write_text(json.dumps({"nodes": nodes}, indent=1) + "\n",
                                       encoding="utf-8")
    train = _records(w, tax, vocab, filler_cdf, np.random.default_rng([seed, 1]),
                     w.train_records, 2020)
    stream = _records(w, tax, vocab, filler_cdf, np.random.default_rng([seed, 2]),
                      w.stream_records, 2021)
    _write_jsonl(train, out / "train.jsonl")
    _write_jsonl(stream, out / "stream.jsonl")
    _write_jsonl(stream[: w.heldout_records], out / "heldout.jsonl")
    return {
        "nodes": len(tax.ids),
        "internal_nodes": 1 + len({p for ps in tax.parents for p in ps}),  # with the root
        "multi_parent_nodes": sum(1 for ps in tax.parents if len(ps) > 1),
        "train_records": len(train),
        "stream_records": len(stream),
        "heldout_records": min(len(stream), w.heldout_records),
        "multi_label_records": sum(1 for r in train + stream if len(r["cwe_labels"]) > 1),
        "train_tokens": len(train) * w.tokens_per_record,
    }
