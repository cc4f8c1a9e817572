"""TF-IDF scoring and classifier weight initialization.

Term frequency uses the augmented form 0.5 + 0.5*f/max (absent terms score
0, not the literal 0.5, so weights stay sparse).  Inverse document
frequency is log10(M / (1 + df)) with a zero branch when a term appears in
every document.  Initial weights for a decision node are the TF-IDF scores
of each dictionary term against each child class document.

A ``ClassDocument`` is integer arrays over dictionary positions: the
sorted positions of the terms it contains, their occurrence counts, and
their document frequency among the source texts folded into it.  Only the
document's own terms are stored, so its size follows its vocabulary, not
the dictionary.  Everything up to the TF and IDF formulas is integer
arithmetic, so the weights do not depend on how the documents were summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .features import Dictionary
from .netcore import RowBlock


@dataclass(frozen=True)
class ClassDocument:
    """Aggregate term statistics for one class at a decision node.

    ``counts[i]`` is how often the dictionary term at ``positions[i]``
    occurs over the concatenated texts forming the class (its CWE entry
    plus the training CVEs in its subtree), and ``df[i]`` is how many of
    those ``source_doc_count`` texts contain it.  A plain aggregate counts
    as a single document: ``source_doc_count`` 1 and every df 1, which
    reproduces the textbook formula.
    """

    node_id: str
    positions: np.ndarray  # (n,) sorted distinct int64 dictionary positions
    counts: np.ndarray  # (n,) int64 occurrence counts, each >= 1
    df: np.ndarray  # (n,) int64 source documents containing the term
    source_doc_count: int = 1
    max_count: int = field(init=False)

    def __post_init__(self):
        for name in ("positions", "counts", "df"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if not self.positions.ndim == 1 or not (
            self.positions.shape == self.counts.shape == self.df.shape
        ):
            raise ConfigurationError(f"{self.node_id}: positions, counts and df differ in shape")
        if self.source_doc_count < 1:
            raise ConfigurationError(f"{self.node_id}: source_doc_count must be >= 1")
        object.__setattr__(self, "max_count", int(self.counts.max(initial=0)))


def init_weights(
    children: list[str],
    dictionary: Dictionary,
    class_docs: dict[str, ClassDocument],
) -> RowBlock:
    """Initial D x C weight matrix for a decision node, stored on its nonzero rows.

    Column g holds the TF-IDF score of every dictionary term against child
    g's class document.  Document frequency is taken over the constituent
    source documents of all children (each class document reporting its own
    doc count and per-term df), so a term exclusive to one class scores
    positive in that class's column even at two-child nodes.  With
    single-source class documents this reduces to the textbook TF-IDF over
    the child aggregates.

    A term in no child's document scores 0 in every column, so the matrix
    stores only the rows of the union of the documents' positions, and
    nothing of size D is allocated.  The IDF comes from a table indexed by
    integer df and built with math.log10, and the TF is computed as
    0.5 + 0.5 * count / max_count, in that order, so every weight equals the
    scalar formula bit for bit.
    """
    missing = [c for c in children if c not in class_docs]
    if missing:
        raise ConfigurationError(f"no class document for children: {missing}")
    docs = [class_docs[c] for c in children]
    m = sum(doc.source_doc_count for doc in docs)
    rows = np.unique(np.concatenate([np.empty(0, dtype=np.int64)]
                                    + [doc.positions for doc in docs]))
    local = [np.searchsorted(rows, doc.positions) for doc in docs]

    df = np.zeros(rows.size, dtype=np.int64)
    for doc, at in zip(docs, local):
        df[at] += doc.df
    # idf = log10(M / (1 + df)), zero where df = 0 or the ratio is <= 1.
    idf_of = np.zeros(int(df.max(initial=0)) + 1, dtype=np.float64)
    for k in np.unique(df).tolist():
        if 0 < k < m:
            idf_of[k] = max(math.log10(m / (1 + k)), 0.0)
    idf = idf_of[df]

    block = np.zeros((rows.size, len(children)), dtype=np.float64)
    for g, (doc, at) in enumerate(zip(docs, local)):
        tf = 0.5 + 0.5 * doc.counts / doc.max_count
        block[at, g] = tf * idf[at]
    return RowBlock(rows, block, dictionary.size)
