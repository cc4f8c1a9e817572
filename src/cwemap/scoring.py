"""TF-IDF scoring and classifier weight initialization.

Term frequency uses the augmented form 0.5 + 0.5*f/max (absent terms score
0, not the literal 0.5, so weights stay sparse).  Inverse document
frequency is log10(M / (1 + df)) with a zero branch when a term appears in
every document.  Initial weights for a decision node are the TF-IDF scores
of each dictionary term against each child class document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .features import Dictionary


@dataclass(frozen=True)
class ClassDocument:
    """Aggregate term statistics for one class at a decision node.

    ``term_counts`` holds occurrence counts over the concatenated texts
    forming the class (its CWE entry plus the training CVEs in its
    subtree).  For document-frequency purposes the aggregate may expose its
    constituent source documents: ``source_doc_count`` is how many texts
    were folded in and ``source_term_df`` maps each term to the number of
    those texts containing it.  A plain aggregate (the defaults) counts as
    a single document, which reproduces the textbook formula.
    """

    node_id: str
    term_counts: dict[str, int]
    max_count: int = field(init=False)
    source_doc_count: int = 1
    source_term_df: dict[str, int] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "max_count", max(self.term_counts.values()) if self.term_counts else 0
        )
        if self.source_doc_count < 1:
            raise ConfigurationError(f"{self.node_id}: source_doc_count must be >= 1")

    def __contains__(self, term: str) -> bool:
        return term in self.term_counts

    def doc_frequency(self, term: str) -> int:
        """Number of constituent source documents containing the term."""
        if self.source_term_df is not None:
            return self.source_term_df.get(term, 0)
        return 1 if term in self.term_counts else 0


def term_frequency(term: str, doc: ClassDocument) -> float:
    """Augmented TF in [0, 1]; 0 when the term is absent from the document."""
    count = doc.term_counts.get(term, 0)
    if count == 0:
        return 0.0
    return 0.5 + 0.5 * count / doc.max_count


def inverse_document_frequency(term: str, docs: list[ClassDocument]) -> float:
    """log10(M / (1 + df)) over the document list, 0 when df = M."""
    if not docs:
        raise ConfigurationError("document list must be non-empty")
    m = len(docs)
    df = sum(1 for doc in docs if term in doc)
    if df >= m:
        return 0.0
    return math.log10(m / (1 + df))


def tfidf(term: str, doc: ClassDocument, docs: list[ClassDocument]) -> float:
    return term_frequency(term, doc) * inverse_document_frequency(term, docs)


def _dictionary_entries(values: dict[str, int], dictionary: Dictionary):
    """Dictionary positions and values of the dictionary terms among ``values``."""
    pairs = [(dictionary.index[t], v) for t, v in values.items() if t in dictionary.index]
    positions = np.array([p for p, _ in pairs], dtype=np.intp)
    return positions, np.array([v for _, v in pairs], dtype=np.int64)


def init_weights(
    children: list[str],
    dictionary: Dictionary,
    class_docs: dict[str, ClassDocument],
) -> np.ndarray:
    """Initial D x C weight matrix for a decision node.

    Column g holds the TF-IDF score of every dictionary term against child
    g's class document.  Document frequency is taken over the constituent
    source documents of all children (each class document reporting its own
    doc count and per-term df), so a term exclusive to one class scores
    positive in that class's column even at two-child nodes.  With
    single-source class documents this reduces to tfidf() over the child
    aggregates.

    Only each document's own terms are visited.  The IDF comes from a table
    indexed by integer df and built with math.log10, and the TF is computed
    in the order of term_frequency(), so every weight equals the scalar
    formula bit for bit.
    """
    missing = [c for c in children if c not in class_docs]
    if missing:
        raise ConfigurationError(f"no class document for children: {missing}")
    docs = [class_docs[c] for c in children]
    m = sum(doc.source_doc_count for doc in docs)
    weights = np.zeros((dictionary.size, len(children)), dtype=np.float64)

    df = np.zeros(dictionary.size, dtype=np.int64)
    for doc in docs:
        source_df = doc.source_term_df
        if source_df is None:
            source_df = dict.fromkeys(doc.term_counts, 1)
        positions, counts = _dictionary_entries(source_df, dictionary)
        df[positions] += counts
    # idf = log10(M / (1 + df)), zero where df = 0 or the ratio is <= 1.
    idf_of = np.zeros(int(df.max(initial=0)) + 1, dtype=np.float64)
    for k in np.unique(df).tolist():
        if 0 < k < m:
            idf_of[k] = max(math.log10(m / (1 + k)), 0.0)
    idf = idf_of[df]

    for g, doc in enumerate(docs):
        positions, counts = _dictionary_entries(doc.term_counts, dictionary)
        present = counts > 0
        positions = positions[present]
        tf = 0.5 + 0.5 * counts[present] / doc.max_count
        weights[positions, g] = tf * idf[positions]
    return weights
