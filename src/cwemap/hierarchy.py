"""Model kinds, classifier-per-node training and top-down multi-label inference.

A model is one scorer per scoring node over a shared dictionary (Silla &
Freitas's "local classifier per parent node").  Its ``kind`` picks one of
three configurations of that design:

* ``hierarchical``: the paper's model, a single-layer scorer at every
  internal taxonomy node, initialized from TF-IDF class documents;
* ``two-layer``: the same nodes with a random-init hidden layer (ablation);
* ``flat``: one random-init single-layer scorer at the root whose classes
  are every label and its ancestors (the one-shot ablation, node ``FLAT``).

``train_hierarchy`` is the one front half for all three, and every scoring
node is fitted by ``netcore.train_node``; only the initial scorer and the
flat targets depend on the kind.  The front half starts with
``encode_corpus``: it resolves each record's labels once, preprocesses and
counts the 1/2/3-grams of each labeled CVE text and each CWE text once,
builds the dictionary from those counts, and keeps every text as ascending
int64 (positions, counts) arrays over it.  The class documents, the
per-node training sets and the flat training set read only those arrays.

Training sets are assembled per node: a CVE labeled c yields, at every
internal node on any root-to-c path, one example whose multi-hot target
marks the children lying on such a path.  A node's training set is its
rows of the corpus batch and its target matrix; the rows are taken from
the corpus batch just before the node's fit, so one node's copy of them
is alive at a time.

Inference descends from the virtual root, keeping children whose sigmoid
score clears the decision rule, and reports all selected nodes plus the
maximal root-to-deepest paths.  ``classify`` encodes each text once
(``encode_text``), then takes the records ``CHUNK_RECORDS`` at a time and
walks the scoring plan in ``Taxonomy.order``, parents first.  A chunk's
state is two (records x nodes) arrays: each node's best score so far and
whether a parent selected it.  A node's selected rows are the records
that reached it; it scores them in one pass, so the descent makes one
pass per node, not one per (record, node) pair.  The flat baseline is the
one-node case of the same walk.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ValidationError
from .features import Dictionary, build_dictionary, count_terms, encode
from .ingest import CveRecord, Taxonomy, _cwe_sort_key
from .netcore import (
    CsrBatch,
    NodeClassifier,
    Scorer,
    TrainConfig,
    TwoLayerClassifier,
    forward_scores,
    train_node,
)
from .scoring import ClassDocument, init_weights
from .textprep import SynonymTable, preprocess

logger = logging.getLogger(__name__)

FLAT_NODE_ID = "FLAT"
DEFAULT_HIDDEN_SIZE = 64
#: Records ``classify`` scores together at each node; bounds its memory.
CHUNK_RECORDS = 512


@dataclass(frozen=True)
class PrepAssets:
    """Stopword list and synonym table a model was built with."""

    stopwords: frozenset[str]
    synonyms: SynonymTable


@dataclass(frozen=True)
class SelectionMode:
    """Child-selection rule used during descent."""

    kind: str  # "threshold" | "topk"
    tau: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind == "threshold":
            if self.tau is None or not 0.0 < self.tau <= 1.0:
                raise ConfigurationError("threshold mode needs tau in (0, 1]")
        elif self.kind == "topk":
            if self.k is None or self.k < 1:
                raise ConfigurationError("topk mode needs k >= 1")
        else:
            raise ConfigurationError(f"unknown selection mode {self.kind!r}")

    def label(self) -> str:
        return f"threshold:{self.tau}" if self.kind == "threshold" else f"topk:{self.k}"

    def select(self, child_ids: tuple[str, ...], scores: np.ndarray) -> np.ndarray:
        """Boolean ``(records, children)`` mask of the children each row keeps.

        Threshold keeps ``score >= tau``.  Top-k keeps the first k children
        ranked by (-score, child id), so equal scores go to the smaller id.
        """
        if self.kind == "threshold":
            return scores >= self.tau
        id_rank = np.argsort(np.argsort(np.array(child_ids)))
        ranked = np.lexsort((np.broadcast_to(id_rank, scores.shape), -scores), axis=1)
        keep = np.zeros(scores.shape, dtype=bool)
        np.put_along_axis(keep, ranked[:, : self.k], True, axis=1)
        return keep


def threshold(tau: float) -> SelectionMode:
    return SelectionMode(kind="threshold", tau=tau)


def top_k(k: int) -> SelectionMode:
    return SelectionMode(kind="topk", k=k)


@dataclass(frozen=True)
class Prediction:
    """Classification output: selected classes, their scores, maximal paths."""

    cve_id: str
    candidates: frozenset[str]
    paths: tuple[tuple[str, ...], ...]
    scores: dict[str, float]
    mode: str

    def deepest_candidate(self) -> str | None:
        """Terminal of the longest path (ties: lexicographically first)."""
        if not self.paths:
            return None
        depth = max(len(p) for p in self.paths)
        return min(p[-1] for p in self.paths if len(p) == depth)

    def to_json_dict(self) -> dict:
        return {
            "id": self.cve_id,
            "candidates": [
                {"cwe": c, "score": self.scores.get(c, 0.0)}
                for c in sorted(self.candidates, key=lambda c: (-self.scores.get(c, 0.0), c))
            ],
            "paths": [list(p) for p in sorted(self.paths)],
            "mode": self.mode,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Prediction":
        candidates = frozenset(entry["cwe"] for entry in data.get("candidates", ()))
        scores = {entry["cwe"]: float(entry.get("score", 0.0)) for entry in data.get("candidates", ())}
        return cls(
            cve_id=data.get("id", ""),
            candidates=candidates,
            paths=tuple(tuple(p) for p in data.get("paths", ())),
            scores=scores,
            mode=data.get("mode", ""),
        )


#: The scorer class of each model kind.
SCORERS = {"hierarchical": NodeClassifier, "two-layer": TwoLayerClassifier,
           "flat": NodeClassifier}


@dataclass
class Model:
    """One scorer per scoring node, sharing one dictionary.

    ``classifiers`` maps a taxonomy node to the scorer of its children; the
    flat baseline's one scorer sits at the root.  Building a model with a
    scorer missing, extra, over other children (in order; for ``flat``,
    other than distinct non-root nodes) or of another dimension than the
    dictionary's raises ConfigurationError naming the node.
    """

    taxonomy: Taxonomy
    dictionary: Dictionary
    classifiers: dict[str, Scorer]
    config: TrainConfig
    assets: PrepAssets
    kind: str = "hierarchical"
    epochs_run: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SCORERS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        taxonomy, root = self.taxonomy, self.taxonomy.root_id
        scoring = [root] if self.kind == "flat" else taxonomy.internal_nodes()
        wrong = sorted(set(scoring).symmetric_difference(self.classifiers), key=_cwe_sort_key)
        if wrong:
            state = "has no scorer" if wrong[0] in scoring else "is not a scoring node"
            raise ConfigurationError(f"node {wrong[0]} {state} of a {self.kind} model")
        for node_id, clf in self.classifiers.items():
            kids = clf.child_ids
            if self.kind == "flat":
                valid = len(set(kids)) == len(kids) and set(kids) <= taxonomy.nodes.keys() - {root}
            else:
                valid = kids == taxonomy.children[node_id]
            if not valid:
                raise ConfigurationError(f"{node_id}: scorer child ids do not match the taxonomy")
            if clf.dimension != self.dictionary.size:
                raise ConfigurationError(f"{node_id}: weight rows {clf.dimension} != "
                                         f"dictionary size {self.dictionary.size}")


def scoring_node(taxonomy: Taxonomy, node_id: str) -> str:
    """The node a scorer named ``node_id`` scores the children of."""
    return taxonomy.root_id if node_id == FLAT_NODE_ID else node_id


def scoring_plan(model: Model) -> list[tuple[str, Scorer]]:
    """(node, its scorer) for the internal nodes that have one, parents first."""
    return [(n, model.classifiers[n]) for n in model.taxonomy.internal_nodes()
            if n in model.classifiers]


def encode_text(model: Model, text: str) -> np.ndarray:
    """Preprocess ``text`` with the model's assets; its ascending dictionary positions.

    ``encode`` builds only the n-grams whose tokens all occur, each at its
    place, in some dictionary term (``Dictionary.slot_tokens``, built when
    a model encodes its first text, never by ``modelstore.load``).
    """
    tokens = preprocess(text, model.assets.stopwords, model.assets.synonyms)
    return encode(tokens, model.dictionary)


def resolve_labels(corpus: list[CveRecord], taxonomy: Taxonomy) -> list[frozenset[str]]:
    """Per record, its labels found in the taxonomy; each missing label is
    warned about once and skipped."""
    resolved = []
    for record in corpus:
        kept = []
        for label in sorted(record.cwe_labels):
            if label in taxonomy:
                kept.append(label)
            else:
                logger.warning("%s: label %s not in taxonomy, skipped", record.id, label)
        resolved.append(frozenset(kept))
    return resolved


#: A text's dictionary terms: ascending int64 positions and their counts.
TermArrays = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class EncodedCorpus:
    """The training texts, each preprocessed and counted once, over the dictionary.

    ``labels[r]`` and ``record_terms[r]`` are the resolved labels and the
    description terms of the r-th labeled record, in corpus order;
    ``node_terms`` holds the terms of each taxonomy node's own text.
    """

    dictionary: Dictionary
    labels: list[frozenset[str]]
    record_terms: list[TermArrays]
    node_terms: dict[str, TermArrays]

    def batch(self) -> CsrBatch:
        """The labeled records packed one row each, without targets."""
        return CsrBatch.pack([positions for positions, _ in self.record_terms],
                             self.dictionary.size)


def _term_arrays(counts: Counter, dictionary: Dictionary) -> TermArrays:
    """Ascending dictionary positions of the dictionary terms in ``counts``, and their counts."""
    index = dictionary.index
    hits = [(index[term], count) for term, count in counts.items() if term in index]
    table = np.array(hits, dtype=np.int64).reshape(len(hits), 2)
    table = table[np.argsort(table[:, 0])]
    return table[:, 0], table[:, 1]


def encode_corpus(
    corpus: list[CveRecord], taxonomy: Taxonomy, assets: PrepAssets, min_count: int
) -> EncodedCorpus:
    """Count each labeled record's description and each CWE text once, build
    the dictionary from those counts, and encode every text over it.

    Records without a label in the taxonomy are left out (each missing
    label is warned about once).
    """
    labels = resolve_labels(corpus, taxonomy)
    kept = [(record, found) for record, found in zip(corpus, labels) if found]
    node_ids = [n for n, node in taxonomy.nodes.items() if n != taxonomy.root_id and node.text()]
    texts = [record.description for record, _ in kept]
    texts += [taxonomy.nodes[n].text() for n in node_ids]
    if not texts:
        raise ConfigurationError("no labeled records resolvable against the taxonomy")
    # Every text is preprocessed before any is counted, so the stemmer's
    # long-lived cache is not interleaved with the short-lived n-gram strings
    # in memory, and their memory can be returned once the Counters go.
    tokens = [preprocess(text, assets.stopwords, assets.synonyms) for text in texts]
    counts = [count_terms(t) for t in tokens]
    dictionary = build_dictionary(counts, min_count)
    terms = [_term_arrays(c, dictionary) for c in counts]
    return EncodedCorpus(
        dictionary=dictionary,
        labels=[found for _, found in kept],
        record_terms=terms[: len(kept)],
        node_terms=dict(zip(node_ids, terms[len(kept):])),
    )


def _on_path(taxonomy: Taxonomy, labels: frozenset[str]) -> set[str]:
    """Nodes lying on any root-to-label path of ``labels``: the labels and their ancestors."""
    return set(labels).union(*(taxonomy.ancestors(label) for label in labels))


#: A node's training set: its rows of the corpus batch, ascending, and their
#: multi-hot targets.
NodeRows = tuple[np.ndarray, np.ndarray]


def assemble_training_sets(encoded: EncodedCorpus, taxonomy: Taxonomy) -> dict[str, NodeRows]:
    """Per internal node, its training set: one row per record with a label
    below it, whose multi-hot targets mark the children on the record's paths.

    Nodes where a record marks no child are excluded from that record's
    contributions, so no all-zero targets are produced.  Rows keep corpus
    order.  No positions are copied here: ``train_hierarchy`` takes a node's
    rows from the corpus batch just before that node's fit.
    """
    child_index: dict[str, dict[str, int]] = {
        n: {c: i for i, c in enumerate(kids)} for n, kids in taxonomy.children.items() if kids
    }
    picked: dict[str, list[tuple[int, list[int]]]] = {}
    for row, labels in enumerate(encoded.labels):
        on_path = _on_path(taxonomy, labels)
        for node_id in on_path | {taxonomy.root_id}:
            marked = [i for c, i in child_index.get(node_id, {}).items() if c in on_path]
            if marked:
                picked.setdefault(node_id, []).append((row, marked))
    sets: dict[str, NodeRows] = {}
    for node_id, entries in picked.items():
        targets = np.zeros((len(entries), len(child_index[node_id])))
        for i, (_, marked) in enumerate(entries):
            targets[i, marked] = 1.0
        sets[node_id] = (np.array([row for row, _ in entries], dtype=np.int64), targets)
    return sets


def _aggregate(node_id: str, sources: list[TermArrays]) -> ClassDocument:
    """The class document summing ``sources``: per position, the total count
    and the number of sources containing it."""
    if not sources:
        return ClassDocument(node_id, np.empty(0), np.empty(0), np.empty(0))
    positions = np.concatenate([p for p, _ in sources])
    counts = np.concatenate([c for _, c in sources])
    order = np.argsort(positions)
    positions, counts = positions[order], counts[order]
    starts = np.flatnonzero(np.diff(positions, prepend=-1))
    return ClassDocument(
        node_id,
        positions=positions[starts],
        counts=np.add.reduceat(counts, starts) if starts.size else counts,
        df=np.diff(starts, append=positions.size),
        source_doc_count=len(sources),
    )


def build_class_documents(
    encoded: EncodedCorpus, taxonomy: Taxonomy
) -> dict[str, dict[str, ClassDocument]]:
    """Per-node, per-child aggregate documents feeding weight initialization.

    A child's class document concatenates its own CWE text, the CWE texts
    of every node in its subtree, and the descriptions of every training
    CVE labeled inside that subtree (a CVE with two labels there counts
    twice).  Counts are restricted to dictionary terms; each constituent
    text also reports per-term document frequency so initialization can
    compute a non-degenerate IDF.  Each child's document is built once and
    shared by all of its parents.
    """
    # Source texts grouped by the taxonomy node they attach to.
    node_sources: dict[str, list[TermArrays]] = {n: [] for n in taxonomy.nodes}
    for node_id, terms in encoded.node_terms.items():
        node_sources[node_id].append(terms)
    for labels, terms in zip(encoded.labels, encoded.record_terms):
        for label in labels:
            node_sources[label].append(terms)

    child_docs: dict[str, ClassDocument] = {}
    docs: dict[str, dict[str, ClassDocument]] = {}
    for node_id, kids in taxonomy.children.items():
        if not kids:
            continue
        for child in kids:
            if child not in child_docs:
                members = {child, *taxonomy.descendants(child)}
                child_docs[child] = _aggregate(
                    child, [source for member in members for source in node_sources[member]]
                )
        docs[node_id] = {child: child_docs[child] for child in kids}
    return docs


def _node_seed(base_seed: int, node_id: str) -> int:
    digest = 0
    for ch in node_id:
        digest = (digest * 131 + ord(ch)) % (2**31)
    return int(np.random.SeedSequence([base_seed, digest]).generate_state(1)[0])


def _initial_scorer(
    kind: str,
    node_id: str,
    children: tuple[str, ...],
    dictionary: Dictionary,
    class_docs: dict[str, dict[str, ClassDocument]] | None,
    cfg: TrainConfig,
    hidden_size: int,
) -> Scorer:
    """A scorer before training: TF-IDF weights when there are class documents,
    else seeded random ones."""
    if class_docs is not None:
        return NodeClassifier(node_id, children,
                              init_weights(list(children), dictionary, class_docs[node_id]))
    d = dictionary.size
    rng = np.random.default_rng(_node_seed(cfg.seed, node_id))
    if kind == "two-layer":
        return TwoLayerClassifier(
            node_id, children,
            w_hidden=rng.normal(0.0, 1.0 / np.sqrt(max(d, 1)), size=(d, hidden_size)),
            w_out=rng.normal(0.0, 1.0 / np.sqrt(hidden_size), size=(hidden_size, len(children))),
        )
    return NodeClassifier(node_id, children, rng.normal(0.0, 0.01, size=(d, len(children))))


def _flat_training_set(encoded: EncodedCorpus, taxonomy: Taxonomy
                       ) -> tuple[tuple[str, ...], NodeRows]:
    """The flat baseline's classes (every label and its ancestors, in taxonomy
    order) and training set, every labeled record marking its labels and
    their ancestors."""
    on_paths = [_on_path(taxonomy, labels) for labels in encoded.labels]
    classes = tuple(sorted(set().union(*on_paths), key=_cwe_sort_key))
    if not classes:
        raise ConfigurationError("no trainable classes in the corpus")
    class_pos = {c: i for i, c in enumerate(classes)}
    targets = np.zeros((len(on_paths), len(classes)))
    for row, on_path in enumerate(on_paths):
        targets[row, [class_pos[c] for c in on_path]] = 1.0
    return classes, (np.arange(len(on_paths), dtype=np.int64), targets)


def train_hierarchy(
    corpus: list[CveRecord],
    taxonomy: Taxonomy,
    assets: PrepAssets,
    cfg: TrainConfig,
    log_dir: str | Path | None = None,
    kind: str = "hierarchical",
    hidden_size: int = DEFAULT_HIDDEN_SIZE,
) -> Model:
    """Train a model of ``kind``: one scorer per scoring node.

    Each text is preprocessed and counted once (``encode_corpus``), and the
    class documents and the training sets read those counts.  Scorers are
    trained one after another, each from its own seed; a node without a
    single training example keeps its initial weights.  Hierarchical scorers start from
    TF-IDF weights unless ``cfg.weight_init`` is "random"; two-layer scorers
    (``hidden_size`` wide) and the flat one always start from random
    weights.  With ``log_dir``, each trained scorer writes its epoch losses
    to ``<log_dir>/<node id>.csv``.
    """
    if kind not in SCORERS:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    if not corpus:
        raise ConfigurationError("empty training corpus")
    if kind == "two-layer" and hidden_size < 1:
        raise ConfigurationError("hidden_size must be >= 1")
    encoded = encode_corpus(corpus, taxonomy, assets, cfg.min_term_count)
    dictionary = encoded.dictionary
    class_docs = None
    if kind == "flat":
        classes, node_rows = _flat_training_set(encoded, taxonomy)
        nodes, training_sets = {FLAT_NODE_ID: classes}, {FLAT_NODE_ID: node_rows}
    else:
        nodes = {n: kids for n, kids in taxonomy.children.items() if kids}
        if kind == "hierarchical" and cfg.weight_init == "tfidf":
            class_docs = build_class_documents(encoded, taxonomy)
        training_sets = assemble_training_sets(encoded, taxonomy)

    corpus_batch = encoded.batch()
    classifiers: dict[str, Scorer] = {}
    epochs_run: dict[str, int] = {}
    for node_id in sorted(nodes):
        clf = _initial_scorer(kind, node_id, nodes[node_id], dictionary, class_docs, cfg,
                              hidden_size)
        epochs_run[node_id] = 0
        if node_id in training_sets:
            rows, targets = training_sets[node_id]
            # Only this node's copy of its rows' positions is alive during its fit.
            examples = replace(corpus_batch.take(rows), targets=targets)
            node_cfg = replace(cfg, seed=_node_seed(cfg.seed, node_id))
            log_path = Path(log_dir) / f"{node_id}.csv" if log_dir is not None else None
            clf, losses = train_node(clf, examples, node_cfg, log_path)
            epochs_run[node_id] = len(losses)
        classifiers[scoring_node(taxonomy, node_id)] = clf

    return Model(
        taxonomy=taxonomy,
        dictionary=dictionary,
        classifiers=classifiers,
        config=cfg,
        assets=assets,
        kind=kind,
        epochs_run=epochs_run,
    )


def _maximal_paths(taxonomy: Taxonomy, selected: set[str]) -> tuple[tuple[str, ...], ...]:
    """All maximal chains of selected nodes starting at selected root-children."""
    paths: list[tuple[str, ...]] = []

    def extend(path: list[str]) -> None:
        tail = path[-1]
        nxt = [c for c in taxonomy.children.get(tail, ()) if c in selected]
        if not nxt:
            paths.append(tuple(path))
            return
        for child in nxt:
            extend(path + [child])

    for root_child in taxonomy.children.get(taxonomy.root_id, ()):
        if root_child in selected:
            extend([root_child])
    return tuple(sorted(set(paths)))


def classify(
    model: Model,
    texts: list[str],
    mode: SelectionMode | None = None,
    ids: list[str] | None = None,
) -> list[Prediction]:
    """Classify raw descriptions top-down, one prediction per text, in order.

    Every text is checked before any is classified: a bare string or an
    empty description raises ValidationError.  The records are then taken
    ``CHUNK_RECORDS`` at a time, and each chunk makes one walk of the
    scoring plan (``_classify_chunk``).  The flat baseline is the one-node
    case: its classifier at the root selects every class at once.
    Candidates are the nodes on the maximal paths of selected nodes from a
    root child, so every model gives path-consistent output.
    """
    if isinstance(texts, str):
        raise ValidationError("classify takes a list of descriptions, not one string")
    texts = list(texts)
    ids = [""] * len(texts) if ids is None else list(ids)
    if len(ids) != len(texts):
        raise ValidationError(f"{len(ids)} ids for {len(texts)} descriptions")
    for cve_id, text in zip(ids, texts):
        if not isinstance(text, str) or not text.strip():
            raise ValidationError(f"{cve_id}: empty description" if cve_id else "empty description")
    if mode is None:
        mode = threshold(model.config.decision_threshold)
    column = {node_id: j for j, node_id in enumerate(model.taxonomy.order)}
    plan = [(column[node_id], clf, [column[c] for c in clf.child_ids])
            for node_id, clf in scoring_plan(model)]
    predictions: list[Prediction] = []
    for start in range(0, len(texts), CHUNK_RECORDS):
        stop = start + CHUNK_RECORDS
        predictions += _classify_chunk(model, plan, texts[start:stop], ids[start:stop], mode)
    return predictions


def _classify_chunk(model, plan, texts: list[str], ids: list[str], mode: SelectionMode):
    """One walk of ``plan`` (node, scorer, children; parents first, nodes as
    columns of ``taxonomy.order``) over a chunk of records.

    ``best[r, j]`` is the highest score a parent gave node j for record r
    (NaN: none) and ``selected[r, j]`` whether one selected it, so node j's
    selected rows are exactly the records that reached it.
    """
    n = len(texts)
    batch = CsrBatch.pack([encode_text(model, t) for t in texts], model.dictionary.size)
    order = model.taxonomy.order
    best = np.full((n, len(order)), np.nan)
    selected = np.zeros((n, len(order)), dtype=bool)
    selected[:, order.index(model.taxonomy.root_id)] = True
    for node, clf, kids in plan:
        rows = np.flatnonzero(selected[:, node])
        if not rows.size:
            continue
        node_scores = forward_scores(clf, batch.take(rows))
        block = np.ix_(rows, kids)
        best[block] = np.fmax(best[block], node_scores)
        selected[block] |= mode.select(clf.child_ids, node_scores)

    names = np.array(order, dtype=object)
    label = mode.label()
    predictions = []
    for i in range(n):
        scored = ~np.isnan(best[i])
        paths = _maximal_paths(model.taxonomy, set(names[selected[i]].tolist()))
        predictions.append(
            Prediction(
                cve_id=ids[i],
                candidates=frozenset(node for path in paths for node in path),
                paths=paths,
                scores=dict(zip(names[scored].tolist(), best[i, scored].tolist())),
                mode=label,
            )
        )
    return predictions
