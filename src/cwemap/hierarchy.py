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
``encode_corpus``: it resolves each record's labels once (a corpus where no
record keeps a label is refused), preprocesses each labeled CVE text and
each CWE text once, and makes one ``build_dictionary`` call on all their
token lists.  That call counts the 1/2/3-grams as packed integer keys and
returns the dictionary with every text's ascending int64 (positions,
counts) arrays over it.  The class documents, the per-node training sets
and the flat training set read only those arrays.

Training sets are assembled per node: a CVE labeled c yields, at every
internal node on any root-to-c path, one example whose multi-hot target
marks the children lying on such a path.  A node's training set is its
rows of the corpus batch and its target matrix; the rows are taken from
the corpus batch just before the node's fit, so one node's copy of them
is alive at a time.

Inference descends from the virtual root, keeping children whose sigmoid
score clears the decision rule.  ``classify`` encodes each text once
(``encode_text``), then takes the records ``CHUNK_RECORDS`` at a time and
walks the scoring plan in ``Taxonomy.order``, parents first.  A chunk's
state is two (records x nodes) arrays: each node's best score so far and
whether a parent selected it.  A node's selected rows are the records
that reached it; it scores them in one pass, so the descent makes one
pass per node, not one per (record, node) pair.  The flat baseline is the
one-node case of the same walk.

A record's maximal paths are the root paths, every node of them
selected, that end at a terminal: a selected node with no selected child.
Its candidates are the nodes on those paths, not every selected node (the
flat baseline selects nodes whose parents it did not select).  Each chunk
finds them for all its records at once from the taxonomy's ``PathTable``,
as three ``Ragged`` arrays: per record, the candidates in (-score, id)
order with their scores, every scored node with its score, and the paths
in sorted order.  ``classify`` joins the chunks' arrays into one table,
``Predictions``: a sequence that builds a ``Prediction`` per index, and
the one writer of the output line format (``lines``), which writes each
record's JSON line straight from the table, with no ``Prediction`` and no
``json.dumps`` per record.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ValidationError
from .features import Dictionary, TermArrays, build_dictionary, encode
from .ingest import CveRecord, PathTable, Taxonomy, _cwe_sort_key, _sort_ranks
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
        id_rank = _sort_ranks(child_ids)
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
    """One record's classification: selected classes, their scores, maximal
    paths.  ``Predictions`` builds one per index, and
    ``evaluation.load_predictions`` one per line it reads back."""

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


def encode_corpus(
    corpus: list[CveRecord], taxonomy: Taxonomy, assets: PrepAssets, min_count: int
) -> EncodedCorpus:
    """Preprocess each labeled record's description and each CWE text once,
    build the dictionary from them, and encode every text over it.

    Records without a label in the taxonomy are left out (each missing
    label is warned about once); ConfigurationError when no record is left.
    """
    labels = resolve_labels(corpus, taxonomy)
    kept = [(record, found) for record, found in zip(corpus, labels) if found]
    if not kept:
        raise ConfigurationError("no training record has a label in the taxonomy")
    node_ids = [n for n, node in taxonomy.nodes.items() if n != taxonomy.root_id and node.text()]
    texts = [record.description for record, _ in kept]
    texts += [taxonomy.nodes[n].text() for n in node_ids]
    tokens = [preprocess(text, assets.stopwords, assets.synonyms) for text in texts]
    dictionary, terms = build_dictionary(tokens, min_count)
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
    class documents and the training sets read those counts; a corpus where
    no record has a label in the taxonomy raises ConfigurationError.
    Scorers are trained one after another, each from its own seed; a node
    without a single training example keeps its initial weights.
    Hierarchical scorers start from TF-IDF weights unless
    ``cfg.weight_init`` is "random"; two-layer scorers (``hidden_size``
    wide) and the flat one always start from random weights.  With
    ``log_dir``, each trained scorer writes its epoch losses to
    ``<log_dir>/<node id>.csv``.
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


@dataclass(frozen=True)
class Ragged:
    """Entries grouped by record: record r's are ``index[offsets[r]:offsets[r + 1]]``,
    each with its value in ``values`` (when there are values)."""

    offsets: np.ndarray  # (records + 1,) int64
    index: np.ndarray  # (entries,) int64
    values: np.ndarray | None = None  # (entries,) float64

    @classmethod
    def of(cls, rows: np.ndarray, records: int, index: np.ndarray,
           values: np.ndarray | None = None) -> "Ragged":
        """The entries ``index`` (and ``values``) of the records ``rows``, which
        are ascending and below ``records``."""
        offsets = np.zeros(records + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=records), out=offsets[1:])
        return cls(offsets, index, values)

    @classmethod
    def join(cls, parts: Sequence["Ragged"]) -> "Ragged":
        """The records of ``parts`` one after another; each part's offsets are
        shifted by the entries of the parts before it."""
        shifts = np.cumsum([0] + [part.offsets[-1] for part in parts])
        offsets = np.concatenate([[0]] + [part.offsets[1:] + s for part, s in zip(parts, shifts)])
        values = None if parts[0].values is None else np.concatenate([p.values for p in parts])
        return cls(offsets, np.concatenate([part.index for part in parts]), values)

    def at(self, r: int) -> slice:
        return slice(self.offsets[r], self.offsets[r + 1])


#: One line of output; ``lines`` below is its one writer.
_LINE = '{"id": %s, "candidates": [%s], "paths": [%s], "mode": %s}'


@dataclass(frozen=True, eq=False)
class Predictions(Sequence):
    """What ``classify`` returns: one ``Prediction`` per record, in order, held
    as one table over the columns of ``taxonomy.order`` and the paths of
    ``taxonomy.path_table``.

    Indexing builds a ``Prediction``, and a slice a list of them;
    ``lines()`` writes the records' JSON lines straight from the table.
    It is not a list: it never equals one, and ``+`` does not join it to
    one, so call ``list()`` first for either.
    """

    taxonomy: Taxonomy
    mode: str
    ids: list[str]
    candidates: Ragged  # columns in (-score, id) order, with their scores
    scored: Ragged  # every scored column in column order, with its best score
    paths: Ragged  # the maximal paths, in sorted order

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int | slice) -> Prediction | list[Prediction]:
        picked = range(len(self))[index]
        if isinstance(picked, range):
            return [self[r] for r in picked]
        order, paths = self.taxonomy.order, self.taxonomy.path_table.paths
        cand, scored, at = self.candidates, self.scored, self.scored.at(picked)
        return Prediction(
            cve_id=self.ids[picked],
            candidates=frozenset(order[j] for j in cand.index[cand.at(picked)].tolist()),
            paths=tuple(paths[p] for p in self.paths.index[self.paths.at(picked)].tolist()),
            scores=dict(zip([order[j] for j in scored.index[at].tolist()],
                            scored.values[at].tolist())),
            mode=self.mode,
        )

    def lines(self) -> Iterator[str]:
        """Each record's JSON line, without its newline: an object of ``id``,
        ``candidates`` (``cwe`` and ``score`` each, in (-score, id) order),
        ``paths`` (sorted) and ``mode``, in the text ``json.dumps`` gives
        with ``ensure_ascii=False``.

        Strings are quoted by ``encode_basestring``, which is what that call
        quotes them with; scores are finite floats, which it writes with
        ``float.__repr__``.  Each node id and each path is quoted once.
        """
        entry = ['{"cwe": %s, "score": ' % encode_basestring(n) for n in self.taxonomy.order]
        path_json = ["[" + ", ".join(map(encode_basestring, path)) + "]"
                     for path in self.taxonomy.path_table.paths]
        mode = encode_basestring(self.mode)
        cand, paths = self.candidates, self.paths
        c, p = cand.offsets.tolist(), paths.offsets.tolist()
        # One record's entries are taken out at a time, so the text of one
        # record is alive, not that of the whole table.
        for r, cve_id in enumerate(self.ids):
            at = slice(c[r], c[r + 1])
            entries = [entry[j] + float.__repr__(score) + "}"
                       for j, score in zip(cand.index[at].tolist(), cand.values[at].tolist())]
            ends = [path_json[k] for k in paths.index[p[r]:p[r + 1]].tolist()]
            yield _LINE % (encode_basestring(cve_id), ", ".join(entries), ", ".join(ends), mode)


def classify(
    model: Model,
    texts: list[str],
    mode: SelectionMode | None = None,
    ids: list[str] | None = None,
) -> Predictions:
    """Classify raw descriptions top-down, one prediction per text, in order.

    Every text is checked before any is classified: a bare string or an
    empty description raises ValidationError.  The records are then taken
    ``CHUNK_RECORDS`` at a time, and each chunk makes one walk of the
    scoring plan (``_classify_chunk``).  The flat baseline is the one-node
    case: its classifier at the root selects every class at once.
    Candidates are the nodes on the maximal paths of selected nodes from a
    root child, so every model gives path-consistent output.

    The result is a ``Predictions`` table, a sequence but not a list.
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
    # No texts still make one (empty) chunk, so there is a part to join.
    chunks = [_classify_chunk(model, plan, texts[start:start + CHUNK_RECORDS], mode)
              for start in range(0, max(len(texts), 1), CHUNK_RECORDS)]
    return Predictions(model.taxonomy, mode.label(), ids, *map(Ragged.join, zip(*chunks)))


def _classify_chunk(model, plan, texts: list[str], mode: SelectionMode
                    ) -> tuple[Ragged, Ragged, Ragged]:
    """One walk of ``plan`` (node, scorer, children; parents first, nodes as
    columns of ``taxonomy.order``) over a chunk of records.

    ``best[r, j]`` is the highest score a parent gave node j for record r
    (NaN: none) and ``selected[r, j]`` whether one selected it, so node j's
    selected rows are exactly the records that reached it.
    """
    n = len(texts)
    batch = CsrBatch.pack([encode_text(model, t) for t in texts], model.dictionary.size)
    table = model.taxonomy.path_table
    best = np.full((n, len(model.taxonomy.order)), np.nan)
    selected = np.zeros(best.shape, dtype=bool)
    selected[:, table.root] = True
    for node, clf, kids in plan:
        rows = np.flatnonzero(selected[:, node])
        if not rows.size:
            continue
        node_scores = forward_scores(clf, batch.take(rows))
        block = np.ix_(rows, kids)
        best[block] = np.fmax(best[block], node_scores)
        selected[block] |= mode.select(clf.child_ids, node_scores)
    return _chunk_predictions(table, best, selected)


def _chunk_predictions(table: PathTable, best: np.ndarray, selected: np.ndarray
                       ) -> tuple[Ragged, Ragged, Ragged]:
    """The candidates (in (-score, id) order, with their scores), every scored
    node (with its best score) and the maximal paths (in sorted order) of a
    chunk's records.

    A terminal is a selected node, not the root, with no selected child.
    The maximal paths are the root paths of the terminals whose every node
    is selected, and the candidates are the nodes on them.  Not every
    selected node is one: the flat baseline selects nodes whose parents it
    did not select.
    """
    n = len(best)
    terminal = selected.copy()
    terminal[:, table.root] = False
    if table.parents.size:
        terminal[:, table.parents] &= ~np.logical_or.reduceat(
            selected[:, table.children], table.child_starts, axis=1)
    rows, ends = np.nonzero(terminal)
    first = table.starts[ends]
    count = table.starts[ends + 1] - first
    rows = np.repeat(rows, count)
    paths = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(rows.size)
    kept = selected[rows[:, np.newaxis], table.columns[paths]].all(axis=1)
    rows, paths = rows[kept], paths[kept]
    ranked = np.lexsort((table.rank[paths], rows))
    rows, paths = rows[ranked], paths[ranked]

    on_path = np.zeros_like(selected)
    on_path[rows[:, np.newaxis], table.columns[paths]] = True
    on_path[:, table.root] = False  # the padding of shorter paths
    cand_rows, cand_cols = np.nonzero(on_path)
    cand_scores = best[cand_rows, cand_cols]
    ranked = np.lexsort((table.id_rank[cand_cols], -cand_scores, cand_rows))
    scored_rows, scored_cols = np.nonzero(~np.isnan(best))
    return (Ragged.of(cand_rows[ranked], n, cand_cols[ranked], cand_scores[ranked]),
            Ragged.of(scored_rows, n, scored_cols, best[scored_rows, scored_cols]),
            Ragged.of(rows, n, paths))
