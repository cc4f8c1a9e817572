"""Classifier-per-node training and top-down multi-label inference.

Every internal taxonomy node owns an independent single-layer classifier
over its children.  Training sets are assembled per node: a CVE labeled c
yields, at every internal node on any root-to-c path, one example whose
multi-hot target marks the children lying on such a path.  Inference
descends from the virtual root, keeping children whose sigmoid score
clears the decision rule, and reports all selected nodes plus the maximal
root-to-deepest paths.

The flat one-shot baseline and the two-layer baseline used for
architecture comparisons live here as well.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import netcore
from .errors import ConfigurationError, ValidationError
from .features import Dictionary, FeatureVector, build_dictionary, count_terms, encode, ngram_set
from .ingest import CveRecord, Taxonomy, _cwe_sort_key, load_stopwords, load_synonyms
from .netcore import (
    NodeClassifier,
    TrainConfig,
    TwoLayerClassifier,
    forward_scores,
    train_node,
    train_two_layer,
    two_layer_scores,
)
from .scoring import ClassDocument, init_weights
from .textprep import SynonymTable, preprocess

logger = logging.getLogger(__name__)

FLAT_NODE_ID = "FLAT"
DEFAULT_HIDDEN_SIZE = 64


@dataclass(frozen=True)
class PrepAssets:
    """Stopword list and synonym table a model was built with."""

    stopwords: frozenset[str]
    synonyms: SynonymTable

    @classmethod
    def default(cls) -> "PrepAssets":
        stopwords = load_stopwords()
        return cls(stopwords=stopwords, synonyms=load_synonyms(stopwords=stopwords))


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

    def select(self, child_ids: tuple[str, ...], scores: np.ndarray) -> list[str]:
        if self.kind == "threshold":
            return [c for c, s in zip(child_ids, scores) if s >= self.tau]
        ranked = sorted(zip(child_ids, scores), key=lambda cs: (-cs[1], cs[0]))
        return [c for c, _ in ranked[: self.k]]


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
    truncated: frozenset[str] = frozenset()

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


@dataclass
class HierarchicalModel:
    """One trained classifier per internal node, sharing one dictionary."""

    taxonomy: Taxonomy
    dictionary: Dictionary
    classifiers: dict[str, NodeClassifier]
    config: TrainConfig
    assets: PrepAssets
    epochs_run: dict[str, int] = field(default_factory=dict)

    def node_scores(self, node_id: str, fv: FeatureVector):
        clf = self.classifiers.get(node_id)
        if clf is None:
            return None
        return clf.child_ids, forward_scores(clf, fv)

    def encode_text(self, text: str) -> FeatureVector:
        tokens = preprocess(text, self.assets.stopwords, self.assets.synonyms)
        return encode(ngram_set(tokens), self.dictionary)


@dataclass
class TwoLayerModel:
    """Hierarchy of two-layer classifiers (over-fitting baseline)."""

    taxonomy: Taxonomy
    dictionary: Dictionary
    classifiers: dict[str, TwoLayerClassifier]
    config: TrainConfig
    assets: PrepAssets
    hidden_size: int = DEFAULT_HIDDEN_SIZE
    epochs_run: dict[str, int] = field(default_factory=dict)

    def node_scores(self, node_id: str, fv: FeatureVector):
        clf = self.classifiers.get(node_id)
        if clf is None:
            return None
        return clf.child_ids, two_layer_scores(clf, fv)

    def encode_text(self, text: str) -> FeatureVector:
        tokens = preprocess(text, self.assets.stopwords, self.assets.synonyms)
        return encode(ngram_set(tokens), self.dictionary)


@dataclass
class FlatModel:
    """Single one-shot classifier over every class (flat baseline)."""

    taxonomy: Taxonomy
    dictionary: Dictionary
    classifier: NodeClassifier
    config: TrainConfig
    assets: PrepAssets
    epochs_run: dict[str, int] = field(default_factory=dict)

    def encode_text(self, text: str) -> FeatureVector:
        tokens = preprocess(text, self.assets.stopwords, self.assets.synonyms)
        return encode(ngram_set(tokens), self.dictionary)


def _cached_tokens(
    token_cache: dict[str, list[str]], key: str, text: str, assets: PrepAssets
) -> list[str]:
    """Preprocessed ``text``, computed once per ``key`` (``cve:<id>``/``cwe:<id>``)."""
    if key not in token_cache:
        token_cache[key] = preprocess(text, assets.stopwords, assets.synonyms)
    return token_cache[key]


def _resolvable_labels(record: CveRecord, taxonomy: Taxonomy) -> frozenset[str]:
    kept = []
    for label in record.cwe_labels:
        if label in taxonomy:
            kept.append(label)
        else:
            logger.warning("%s: label %s not in taxonomy, skipped", record.id, label)
    return frozenset(kept)


def _path_nodes(taxonomy: Taxonomy, label: str) -> frozenset[str]:
    """Nodes lying on any root-to-label path: the label plus its ancestors."""
    return taxonomy.ancestors(label) | {label}


def assemble_training_sets(
    corpus: list[CveRecord],
    taxonomy: Taxonomy,
    dictionary: Dictionary,
    assets: PrepAssets,
    token_cache: dict[str, list[str]] | None = None,
) -> dict[str, list[netcore.Example]]:
    """Per-node training examples with multi-hot child targets.

    Unlabeled records and labels missing from the taxonomy are skipped (the
    latter with a warning).  Nodes where a CVE marks no child are excluded
    from that CVE's contributions, so no all-zero targets are produced.
    Descriptions already preprocessed into ``token_cache`` (keyed
    ``cve:<id>``) are not preprocessed again.
    """
    token_cache = token_cache if token_cache is not None else {}
    sets: dict[str, list[netcore.Example]] = {}
    child_index: dict[str, dict[str, int]] = {
        n: {c: i for i, c in enumerate(kids)} for n, kids in taxonomy.children.items() if kids
    }
    for record in corpus:
        labels = _resolvable_labels(record, taxonomy)
        if not labels:
            continue
        on_path: set[str] = set()
        for label in labels:
            on_path.update(_path_nodes(taxonomy, label))
        tokens = _cached_tokens(token_cache, f"cve:{record.id}", record.description, assets)
        fv = encode(ngram_set(tokens), dictionary)
        for node_id, index in child_index.items():
            if node_id != taxonomy.root_id and node_id not in on_path:
                continue
            marked = [c for c in index if c in on_path]
            if not marked:
                continue
            targets = np.zeros(len(index), dtype=np.float64)
            for child in marked:
                targets[index[child]] = 1.0
            sets.setdefault(node_id, []).append((fv, targets))
    return sets


def build_class_documents(
    corpus: list[CveRecord],
    taxonomy: Taxonomy,
    dictionary: Dictionary,
    assets: PrepAssets,
    token_cache: dict[str, list[str]] | None = None,
) -> dict[str, dict[str, ClassDocument]]:
    """Per-node, per-child aggregate documents feeding weight initialization.

    A child's class document concatenates its own CWE text, the CWE texts
    of every node in its subtree, and the descriptions of every training
    CVE labeled inside that subtree.  Counts are restricted to dictionary
    terms; each constituent text also reports per-term document frequency
    so initialization can compute a non-degenerate IDF.
    """
    token_cache = token_cache if token_cache is not None else {}

    # Source documents grouped by the taxonomy node they attach to.
    node_sources: dict[str, list[Counter]] = {n: [] for n in taxonomy.nodes}
    for node_id, node in taxonomy.nodes.items():
        if node_id == taxonomy.root_id:
            continue
        text = node.text()
        if text:
            counts = count_terms(_cached_tokens(token_cache, f"cwe:{node_id}", text, assets))
            node_sources[node_id].append(counts)
    for record in corpus:
        labels = _resolvable_labels(record, taxonomy)
        if not labels:
            continue
        tokens = _cached_tokens(token_cache, f"cve:{record.id}", record.description, assets)
        counts = count_terms(tokens)
        for label in labels:
            node_sources[label].append(counts)

    docs: dict[str, dict[str, ClassDocument]] = {}
    for node_id, kids in taxonomy.children.items():
        if not kids:
            continue
        per_child: dict[str, ClassDocument] = {}
        for child in kids:
            members = {child, *taxonomy.descendants(child)}
            term_counts: Counter = Counter()
            term_df: Counter = Counter()
            n_sources = 0
            for member in members:
                for source in node_sources[member]:
                    n_sources += 1
                    for term, count in source.items():
                        if term in dictionary:
                            term_counts[term] += count
                            term_df[term] += 1
            per_child[child] = ClassDocument(
                node_id=child,
                term_counts=dict(term_counts),
                source_doc_count=max(n_sources, 1),
                source_term_df=dict(term_df),
            )
        docs[node_id] = per_child
    return docs


def _node_seed(base_seed: int, node_id: str) -> int:
    digest = 0
    for ch in node_id:
        digest = (digest * 131 + ord(ch)) % (2**31)
    return int(np.random.SeedSequence([base_seed, digest]).generate_state(1)[0])


def _initial_matrix(
    node_id: str,
    children: tuple[str, ...],
    dictionary: Dictionary,
    class_docs: dict[str, dict[str, ClassDocument]],
    cfg: TrainConfig,
) -> np.ndarray:
    if cfg.weight_init == "random":
        rng = np.random.default_rng(_node_seed(cfg.seed, node_id))
        return rng.normal(0.0, 0.01, size=(dictionary.size, len(children)))
    return init_weights(list(children), dictionary, class_docs[node_id])


def _corpus_documents(
    corpus: list[CveRecord],
    taxonomy: Taxonomy,
    assets: PrepAssets,
    token_cache: dict[str, list[str]],
) -> list[list[str]]:
    """Token sequences feeding the dictionary: labeled CVEs plus CWE texts."""
    docs = []
    for record in corpus:
        if not _resolvable_labels(record, taxonomy):
            continue
        docs.append(
            _cached_tokens(token_cache, f"cve:{record.id}", record.description, assets)
        )
    for node_id, node in taxonomy.nodes.items():
        if node_id == taxonomy.root_id or not node.text():
            continue
        docs.append(_cached_tokens(token_cache, f"cwe:{node_id}", node.text(), assets))
    if not docs:
        raise ConfigurationError("no labeled records resolvable against the taxonomy")
    return docs


def train_hierarchy(
    corpus: list[CveRecord],
    taxonomy: Taxonomy,
    assets: PrepAssets,
    cfg: TrainConfig,
    log_dir: str | Path | None = None,
) -> HierarchicalModel:
    """Train one classifier per internal node (TF-IDF init by default).

    Each text is preprocessed once and shared by the dictionary, the class
    documents and the training sets.  Nodes are trained one after another,
    each from its own seed; nodes without a single training example keep
    their initial weights.  With ``log_dir``, each trained node writes its
    epoch losses to ``<log_dir>/<node id>.csv``.
    """
    if not corpus:
        raise ConfigurationError("empty training corpus")
    token_cache: dict[str, list[str]] = {}
    docs = _corpus_documents(corpus, taxonomy, assets, token_cache)
    dictionary = build_dictionary(docs, cfg.min_term_count)
    fingerprint = dictionary.fingerprint()
    class_docs = build_class_documents(corpus, taxonomy, dictionary, assets, token_cache)
    training_sets = assemble_training_sets(corpus, taxonomy, dictionary, assets, token_cache)

    classifiers: dict[str, NodeClassifier] = {}
    epochs_run: dict[str, int] = {}
    for node_id in sorted(taxonomy.children):
        children = taxonomy.children[node_id]
        if not children:
            continue
        clf = NodeClassifier(
            node_id=node_id,
            child_ids=children,
            weights=_initial_matrix(node_id, children, dictionary, class_docs, cfg),
            dictionary_fingerprint=fingerprint,
        )
        examples = training_sets.get(node_id)
        if examples:
            node_cfg = replace(cfg, seed=_node_seed(cfg.seed, node_id))
            log_path = Path(log_dir) / f"{node_id}.csv" if log_dir is not None else None
            clf, losses = train_node(clf, examples, node_cfg, log_path)
            epochs_run[node_id] = len(losses)
        else:
            epochs_run[node_id] = 0
        classifiers[node_id] = clf

    return HierarchicalModel(
        taxonomy=taxonomy,
        dictionary=dictionary,
        classifiers=classifiers,
        config=cfg,
        assets=assets,
        epochs_run=epochs_run,
    )


def _descend(model, fv: FeatureVector, mode: SelectionMode):
    """Shared top-down frontier walk; scores each selected node once."""
    taxonomy: Taxonomy = model.taxonomy
    selected: set[str] = set()
    scores: dict[str, float] = {}
    truncated: set[str] = set()
    queue = [taxonomy.root_id]
    visited: set[str] = set()
    while queue:
        node_id = queue.pop(0)
        if node_id in visited:
            continue
        visited.add(node_id)
        children = taxonomy.children.get(node_id, ())
        if not children:
            continue
        result = model.node_scores(node_id, fv)
        if result is None:
            truncated.add(node_id)
            continue
        child_ids, child_scores = result
        for child, score in zip(child_ids, child_scores):
            scores[child] = max(scores.get(child, 0.0), float(score))
        for child in mode.select(child_ids, np.asarray(child_scores)):
            selected.add(child)
            queue.append(child)
    return selected, scores, truncated


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
    model: HierarchicalModel | TwoLayerModel,
    text: str,
    mode: SelectionMode | None = None,
    cve_id: str = "",
) -> Prediction:
    """Top-down classification of one raw description."""
    if not text.strip():
        raise ValidationError("empty description")
    if mode is None:
        mode = threshold(model.config.decision_threshold)
    fv = model.encode_text(text)
    selected, scores, truncated = _descend(model, fv, mode)
    paths = _maximal_paths(model.taxonomy, selected)
    on_paths = {node for path in paths for node in path}
    return Prediction(
        cve_id=cve_id,
        candidates=frozenset(on_paths),
        paths=paths,
        scores=scores,
        mode=mode.label(),
        truncated=frozenset(truncated),
    )


def flat_class_list(corpus: list[CveRecord], taxonomy: Taxonomy) -> tuple[str, ...]:
    """Union of label classes and their ancestors, in taxonomy order."""
    classes: set[str] = set()
    for record in corpus:
        for label in _resolvable_labels(record, taxonomy):
            classes.add(label)
            classes.update(taxonomy.ancestors(label))
    return tuple(sorted(classes, key=_cwe_sort_key))


def train_flat_baseline(
    corpus: list[CveRecord],
    taxonomy: Taxonomy,
    assets: PrepAssets,
    cfg: TrainConfig,
) -> FlatModel:
    """One-shot single-layer baseline over all classes, random init."""
    if not corpus:
        raise ConfigurationError("empty training corpus")
    token_cache: dict[str, list[str]] = {}
    docs = _corpus_documents(corpus, taxonomy, assets, token_cache)
    dictionary = build_dictionary(docs, cfg.min_term_count)
    classes = flat_class_list(corpus, taxonomy)
    if not classes:
        raise ConfigurationError("no trainable classes in the corpus")
    class_pos = {c: i for i, c in enumerate(classes)}

    examples: list[netcore.Example] = []
    for record in corpus:
        labels = _resolvable_labels(record, taxonomy)
        if not labels:
            continue
        targets = np.zeros(len(classes), dtype=np.float64)
        for label in labels:
            targets[class_pos[label]] = 1.0
            for anc in taxonomy.ancestors(label):
                targets[class_pos[anc]] = 1.0
        fv = encode(ngram_set(token_cache[f"cve:{record.id}"]), dictionary)
        examples.append((fv, targets))

    rng = np.random.default_rng(_node_seed(cfg.seed, FLAT_NODE_ID))
    clf = NodeClassifier(
        node_id=FLAT_NODE_ID,
        child_ids=classes,
        weights=rng.normal(0.0, 0.01, size=(dictionary.size, len(classes))),
        dictionary_fingerprint=dictionary.fingerprint(),
    )
    trained, losses = train_node(clf, examples, replace(cfg, seed=_node_seed(cfg.seed, FLAT_NODE_ID)))
    return FlatModel(
        taxonomy=taxonomy,
        dictionary=dictionary,
        classifier=trained,
        config=cfg,
        assets=assets,
        epochs_run={FLAT_NODE_ID: len(losses)},
    )


def classify_flat(
    model: FlatModel, text: str, mode: SelectionMode | None = None, cve_id: str = ""
) -> Prediction:
    """One-shot selection over every class, reported like a hierarchy result.

    Candidates are restricted to nodes reachable through selected parents
    so the output satisfies the same path-consistency contract as the
    hierarchical classifier.
    """
    if not text.strip():
        raise ValidationError("empty description")
    if mode is None:
        mode = threshold(model.config.decision_threshold)
    fv = model.encode_text(text)
    raw_scores = forward_scores(model.classifier, fv)
    selected = set(mode.select(model.classifier.child_ids, raw_scores))
    scores = {c: float(s) for c, s in zip(model.classifier.child_ids, raw_scores)}
    paths = _maximal_paths(model.taxonomy, selected)
    on_paths = {node for path in paths for node in path}
    return Prediction(
        cve_id=cve_id,
        candidates=frozenset(on_paths),
        paths=paths,
        scores=scores,
        mode=mode.label(),
    )


def train_two_layer_baseline(
    corpus: list[CveRecord],
    taxonomy: Taxonomy,
    assets: PrepAssets,
    cfg: TrainConfig,
    hidden_size: int = DEFAULT_HIDDEN_SIZE,
) -> TwoLayerModel:
    """Hierarchical baseline with one random-init hidden layer per node."""
    if not corpus:
        raise ConfigurationError("empty training corpus")
    if hidden_size < 1:
        raise ConfigurationError("hidden_size must be >= 1")
    token_cache: dict[str, list[str]] = {}
    docs = _corpus_documents(corpus, taxonomy, assets, token_cache)
    dictionary = build_dictionary(docs, cfg.min_term_count)
    fingerprint = dictionary.fingerprint()
    training_sets = assemble_training_sets(corpus, taxonomy, dictionary, assets, token_cache)

    classifiers: dict[str, TwoLayerClassifier] = {}
    epochs_run: dict[str, int] = {}
    for node_id in sorted(taxonomy.children):
        children = taxonomy.children[node_id]
        if not children:
            continue
        rng = np.random.default_rng(_node_seed(cfg.seed, node_id))
        clf = TwoLayerClassifier(
            node_id=node_id,
            child_ids=children,
            w_hidden=rng.normal(0.0, 1.0 / np.sqrt(max(dictionary.size, 1)),
                                size=(dictionary.size, hidden_size)),
            w_out=rng.normal(0.0, 1.0 / np.sqrt(hidden_size), size=(hidden_size, len(children))),
            dictionary_fingerprint=fingerprint,
        )
        examples = training_sets.get(node_id)
        if examples:
            node_cfg = replace(cfg, seed=_node_seed(cfg.seed, node_id))
            clf, losses = train_two_layer(clf, examples, node_cfg)
            epochs_run[node_id] = len(losses)
        else:
            epochs_run[node_id] = 0
        classifiers[node_id] = clf

    return TwoLayerModel(
        taxonomy=taxonomy,
        dictionary=dictionary,
        classifiers=classifiers,
        config=cfg,
        assets=assets,
        hidden_size=hidden_size,
        epochs_run=epochs_run,
    )
