import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwemap.errors import ConfigurationError
from cwemap.features import Dictionary
from cwemap.scoring import (
    ClassDocument,
    init_weights,
    inverse_document_frequency,
    term_frequency,
    tfidf,
)

EXACT = 1e-12


def doc(node_id, counts, sources=None, doc_count=1):
    return ClassDocument(
        node_id=node_id,
        term_counts=counts,
        source_doc_count=doc_count,
        source_term_df=sources,
    )


def make_dict(terms):
    return Dictionary(
        index={t: i for i, t in enumerate(terms)},
        counts={t: 1 for t in terms},
        min_count=1,
    )


class TestTermFrequency:
    def test_max_count_term_scores_one(self):
        d = doc("CWE-1", {"a": 4, "b": 2})
        assert term_frequency("a", d) == pytest.approx(1.0, abs=EXACT)

    def test_absent_term_scores_zero(self):
        d = doc("CWE-1", {"a": 4})
        assert term_frequency("missing", d) == 0.0

    def test_augmented_formula(self):
        d = doc("CWE-1", {"a": 4, "b": 2})
        assert term_frequency("b", d) == pytest.approx(0.75, abs=EXACT)

    def test_empty_document(self):
        d = doc("CWE-1", {})
        assert d.max_count == 0
        assert term_frequency("a", d) == 0.0


class TestInverseDocumentFrequency:
    def test_term_in_all_documents_scores_zero(self):
        docs = [doc(f"CWE-{i}", {"shared": 1}) for i in range(5)]
        assert inverse_document_frequency("shared", docs) == 0.0

    def test_one_of_ten(self):
        docs = [doc("CWE-0", {"t": 1})] + [doc(f"CWE-{i}", {"x": 1}) for i in range(1, 10)]
        assert inverse_document_frequency("t", docs) == pytest.approx(
            math.log10(10 / 2), abs=EXACT
        )

    def test_absent_term(self):
        docs = [doc(f"CWE-{i}", {"x": 1}) for i in range(7)]
        assert inverse_document_frequency("t", docs) == pytest.approx(
            math.log10(7), abs=EXACT
        )

    def test_empty_docs_rejected(self):
        with pytest.raises(ConfigurationError):
            inverse_document_frequency("t", [])


class TestTfidf:
    def test_absent_term_zero(self):
        d0 = doc("CWE-0", {"a": 1})
        d1 = doc("CWE-1", {"b": 1})
        assert tfidf("b", d0, [d0, d1]) == 0.0

    def test_ubiquitous_term_zero(self):
        d0 = doc("CWE-0", {"a": 1})
        d1 = doc("CWE-1", {"a": 1})
        assert tfidf("a", d0, [d0, d1]) == 0.0

    def test_product(self):
        # tf = 0.75 (f=2, max=4), idf = log10(10/2)
        target = doc("CWE-0", {"t": 2, "top": 4})
        others = [doc(f"CWE-{i}", {"x": 1}) for i in range(1, 10)]
        value = tfidf("t", target, [target] + others)
        assert value == pytest.approx(0.75 * math.log10(5), abs=EXACT)
        assert value == pytest.approx(0.5242275032520142, abs=1e-12)


class TestInitWeights:
    def test_single_child_single_source_is_zero_matrix(self):
        # With one aggregate source, every present term has df = M = 1.
        d = make_dict(["a", "b"])
        docs = {"CWE-1": doc("CWE-1", {"a": 3})}
        w = init_weights(["CWE-1"], d, docs)
        np.testing.assert_array_equal(w, np.zeros((2, 1)))

    def test_disjoint_vocabulary_scores_own_column_only(self):
        d = make_dict(["alpha", "beta", "gamma", "delta"])
        left = doc(
            "CWE-1",
            {"alpha": 3, "beta": 1},
            sources={"alpha": 3, "beta": 1},
            doc_count=3,
        )
        right = doc(
            "CWE-2",
            {"gamma": 2, "delta": 2},
            sources={"gamma": 2, "delta": 2},
            doc_count=3,
        )
        w = init_weights(["CWE-1", "CWE-2"], d, {"CWE-1": left, "CWE-2": right})
        # column 0 positive exactly on left's terms, column 1 on right's
        assert w[0, 0] > 0 and w[1, 0] > 0
        assert w[2, 0] == 0 and w[3, 0] == 0
        assert w[2, 1] > 0 and w[3, 1] > 0
        assert w[0, 1] == 0 and w[1, 1] == 0

    def test_disjoint_vocabulary_exact_values(self):
        # M = 6 source documents; "alpha" in 3 of them, tf = 1.0 in its column.
        d = make_dict(["alpha", "beta"])
        left = doc("CWE-1", {"alpha": 2}, sources={"alpha": 3}, doc_count=3)
        right = doc("CWE-2", {"beta": 2}, sources={"beta": 3}, doc_count=3)
        w = init_weights(["CWE-1", "CWE-2"], d, {"CWE-1": left, "CWE-2": right})
        expected = 1.0 * math.log10(6 / 4)
        assert w[0, 0] == pytest.approx(expected, abs=EXACT)
        assert w[1, 1] == pytest.approx(expected, abs=EXACT)

    def test_term_in_every_source_document_is_zero_everywhere(self):
        d = make_dict(["shared", "own"])
        left = doc("CWE-1", {"shared": 1, "own": 1},
                   sources={"shared": 2, "own": 2}, doc_count=2)
        right = doc("CWE-2", {"shared": 1}, sources={"shared": 2}, doc_count=2)
        w = init_weights(["CWE-1", "CWE-2"], d, {"CWE-1": left, "CWE-2": right})
        assert w[0, 0] == 0.0 and w[0, 1] == 0.0  # df = M branch
        assert w[1, 0] > 0.0

    def test_missing_class_document_rejected(self):
        d = make_dict(["a"])
        with pytest.raises(ConfigurationError):
            init_weights(["CWE-1", "CWE-2"], d, {"CWE-1": doc("CWE-1", {"a": 1})})

    def test_column_permutation_invariance(self):
        d = make_dict(["alpha", "beta", "gamma"])
        docs = {
            "CWE-1": doc("CWE-1", {"alpha": 2}, sources={"alpha": 2}, doc_count=2),
            "CWE-2": doc("CWE-2", {"beta": 2}, sources={"beta": 2}, doc_count=2),
            "CWE-3": doc("CWE-3", {"gamma": 2}, sources={"gamma": 2}, doc_count=2),
        }
        w = init_weights(["CWE-1", "CWE-2", "CWE-3"], d, docs)
        w_permuted = init_weights(["CWE-3", "CWE-1", "CWE-2"], d, docs)
        np.testing.assert_allclose(w_permuted, w[:, [2, 0, 1]], atol=EXACT)

    def test_weights_are_nonnegative(self):
        d = make_dict(["a", "b", "c"])
        docs = {
            "CWE-1": doc("CWE-1", {"a": 5, "b": 1}, sources={"a": 4, "b": 1}, doc_count=5),
            "CWE-2": doc("CWE-2", {"b": 3, "c": 2}, sources={"b": 2, "c": 2}, doc_count=5),
        }
        w = init_weights(["CWE-1", "CWE-2"], d, docs)
        assert (w >= 0).all()


def reference_init_weights(children, dictionary, class_docs):
    """Scalar loop over every dictionary term and child: the textbook formula."""
    docs = [class_docs[c] for c in children]
    m = sum(d.source_doc_count for d in docs)
    weights = np.zeros((dictionary.size, len(children)))
    for term, k in dictionary.index.items():
        df = sum(d.doc_frequency(term) for d in docs)
        if df == 0 or df >= m:
            continue
        idf = math.log10(m / (1 + df))
        if idf <= 0.0:
            continue
        for g, d in enumerate(docs):
            tf = term_frequency(term, d)
            if tf > 0.0:
                weights[k, g] = tf * idf
    return weights


VOCABULARY = [f"t{i}" for i in range(14)]


@st.composite
def init_cases(draw):
    dict_terms = draw(st.lists(st.sampled_from(VOCABULARY), min_size=1, unique=True))
    n_children = draw(st.integers(1, 4))
    explicit_df = draw(st.booleans())
    class_docs = {}
    for g in range(n_children):
        # Terms outside the dictionary and zero counts are both allowed.
        counts = draw(st.dictionaries(st.sampled_from(VOCABULARY), st.integers(0, 9), max_size=10))
        if explicit_df:
            doc_count = draw(st.integers(1, 12))
            sources = draw(st.dictionaries(st.sampled_from(VOCABULARY),
                                           st.integers(0, doc_count), max_size=10))
        else:
            doc_count, sources = 1, None
        class_docs[f"CWE-{g}"] = doc(f"CWE-{g}", counts, sources=sources, doc_count=doc_count)
    return list(class_docs), make_dict(dict_terms), class_docs


class TestInitWeightsMatchesScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(init_cases())
    def test_bit_identical(self, case):
        children, dictionary, class_docs = case
        np.testing.assert_array_equal(
            init_weights(children, dictionary, class_docs),
            reference_init_weights(children, dictionary, class_docs),
        )

    def test_both_df_sources_covered(self):
        d = make_dict(["a", "b", "c"])
        plain = {"CWE-1": doc("CWE-1", {"a": 3, "b": 1}), "CWE-2": doc("CWE-2", {"c": 2}),
                 "CWE-3": doc("CWE-3", {"c": 1})}
        explicit = {
            "CWE-1": doc("CWE-1", {"a": 5, "b": 1}, sources={"a": 4, "b": 1}, doc_count=5),
            "CWE-2": doc("CWE-2", {"b": 3, "c": 2}, sources={"b": 2, "c": 2}, doc_count=5),
        }
        for docs in (plain, explicit):
            children = list(docs)
            np.testing.assert_array_equal(init_weights(children, d, docs),
                                          reference_init_weights(children, d, docs))
