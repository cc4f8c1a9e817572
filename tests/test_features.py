from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwemap import features
from cwemap.errors import ConfigurationError, ValidationError
import oracle
from cwemap.features import Dictionary, build_dictionary, encode
from oracle import count_terms, ngram_set, ngrams


def dictionary_of(docs, min_count):
    """The dictionary ``build_dictionary`` makes of the token lists ``docs``."""
    return build_dictionary(docs, min_count)[0]


class TestNgrams:
    """The string n-grams of the reference dictionary (``oracle.ngrams``)."""

    def test_bigrams(self):
        assert ngrams(["sql", "inject", "vulner"], 2) == ["sql inject", "inject vulner"]

    def test_unigrams_are_the_tokens(self):
        tokens = ["a", "b", "c"]
        assert ngrams(tokens, 1) == tokens

    def test_too_short_for_window(self):
        assert ngrams(["a", "b"], 3) == []

    def test_duplicates_retained(self):
        assert ngrams(["a", "a", "a"], 2) == ["a a", "a a"]

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            ngrams(["a"], 4)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from("abcde"), max_size=12), st.sampled_from([1, 2, 3]))
    def test_count_identity(self, tokens, n):
        assert len(ngrams(tokens, n)) == max(0, len(tokens) - n + 1)


class TestNgramSet:
    def test_union_of_window_sizes(self):
        assert ngram_set(["a", "b"]) == {"a", "b", "a b"}

    def test_empty(self):
        assert ngram_set([]) == set()

    def test_repeats_collapse(self):
        assert ngram_set(["a", "a"]) == {"a", "a a"}


class TestDictionary:
    @pytest.mark.parametrize("terms, counts", [(["a", "b", "a"], [1, 1, 1]), (["a"], []),
                                               (["a"], [1, 2])],
                             ids=["repeated-term", "missing-count", "extra-count"])
    def test_not_one_count_per_distinct_term_is_rejected(self, terms, counts):
        with pytest.raises(ValidationError, match="each term must occur once, with one count"):
            Dictionary(terms, counts)

    def test_index_holds_each_terms_position(self):
        d = Dictionary(["b", "a b", "a"], [5, 4, 4])
        assert d.index == {"b": 0, "a b": 1, "a": 2} and d.size == 3

    def test_saved_form_is_the_terms_and_counts_in_position_order(self):
        d = Dictionary(["b", "a b"], [5, 4])
        text = features.dictionary_json(d)
        assert text == '{"terms":["b","a b"],"counts":[5,4]}'
        assert features.read_dictionary(text, "d.json") == d

    def test_read_dictionary_keeps_the_parsed_lists(self):
        d = features.read_dictionary('{"terms":["b"],"counts":[5]}', "d.json")
        assert type(d.terms) is list and type(d.counts) is list


class TestBuildDictionary:
    def test_counts_meeting_threshold_exactly(self):
        docs = [["buffer", "overflow"]] * 3
        d = dictionary_of(docs, min_count=3)
        assert set(d.index) == {"buffer", "overflow", "buffer overflow"}
        assert d.counts == [3, 3, 3]

    def test_threshold_above_counts_empties_dictionary(self):
        docs = [["buffer", "overflow"]] * 3
        assert dictionary_of(docs, min_count=4).size == 0

    def test_rare_terms_filtered(self):
        # brute-force oracle: total occurrences over the whole corpus
        docs = [["sql", "inject"]] * 5 + [["libpam-pgsql", "librari"]]
        totals = sum((count_terms(doc) for doc in docs), Counter())
        assert totals["sql inject"] == 5
        assert totals["libpam-pgsql"] == 1
        d = dictionary_of(docs, min_count=3)
        assert "sql inject" in d.index
        assert "libpam-pgsql" not in d.index

    def test_positions_by_count_then_lexicographic(self):
        docs = [["b"], ["b"], ["b"], ["a"], ["a"], ["a"], ["c"], ["c"], ["c"], ["c"]]
        d = dictionary_of(docs, min_count=3)
        assert d.terms == ["c", "a", "b"]  # c:4, then a/b tie at 3

    def test_empty_docs_valid(self):
        dictionary, terms = build_dictionary([], min_count=3)
        assert dictionary.size == 0 and terms == []

    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            build_dictionary([], min_count=0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from("abc"), max_size=6), max_size=8),
        st.integers(min_value=1, max_value=4),
    )
    def test_permutation_invariance(self, docs, th):
        d1 = dictionary_of(docs, th)
        d2 = dictionary_of(list(reversed(docs)), th)
        assert d1 == d2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abc"), max_size=6), max_size=8))
    def test_raising_threshold_never_adds_terms(self, docs):
        previous = None
        for th in (1, 2, 3, 4):
            current = set(dictionary_of(docs, th).index)
            if previous is not None:
                assert current <= previous
            previous = current


# Token lists over a few tokens, so tokens and n-grams repeat, with empty
# texts and texts too short for a trigram.
TOKEN_LISTS = st.lists(st.lists(st.sampled_from(["a", "b", "c", "sql", "x-y", "é"]),
                                max_size=7), max_size=9)


class TestPackedKeys:
    """The dictionary counted as packed integer keys, and each text's terms,
    equal the string n-gram path (``oracle.string_dictionary``)."""

    def assert_equals_oracle(self, docs, min_count):
        dictionary, terms = build_dictionary(docs, min_count)
        want, want_terms = oracle.string_dictionary(docs, min_count)
        assert dictionary == want
        assert dictionary == want
        assert len(terms) == len(docs)
        for (positions, counts), (want_positions, want_counts) in zip(terms, want_terms):
            assert positions.dtype == counts.dtype == np.int64
            assert positions.tolist() == want_positions.tolist()
            assert counts.tolist() == want_counts.tolist()
        return dictionary, terms

    @settings(max_examples=300, deadline=None)
    @given(TOKEN_LISTS, st.integers(1, 4))
    def test_equals_string_oracle(self, docs, min_count):
        self.assert_equals_oracle(docs, min_count)

    @pytest.mark.parametrize("docs, min_count", [
        ([[], [], []], 1),  # only empty texts
        ([["a"], ["a", "b"], []], 1),  # texts shorter than a trigram
        ([["a", "a", "a", "a"]] * 2, 1),  # one token repeated: "a", "a a", "a a a"
        ([["b", "a"], ["a", "b", "c"]], 3),  # no term is frequent enough
    ])
    def test_edge_cases(self, docs, min_count):
        self.assert_equals_oracle(docs, min_count)

    def test_empty_dictionary_leaves_every_text_empty(self):
        dictionary, terms = self.assert_equals_oracle([["b", "a"], ["c"]], 2)
        assert dictionary.size == 0
        assert [p.size for p, _ in terms] == [0, 0]

    def test_terms_counted_per_text(self):
        dictionary, terms = build_dictionary([["a", "b", "a", "b"], ["b"]], 1)
        positions, counts = terms[0]
        got = dict(zip((dictionary.terms[p] for p in positions), counts.tolist()))
        assert got == {"a": 2, "b": 2, "a b": 2, "b a": 1, "a b a": 1, "b a b": 1}
        assert [dictionary.terms[p] for p in terms[1][0]] == ["b"]

    def test_vocabulary_limit(self, monkeypatch):
        monkeypatch.setattr(features, "MAX_VOCABULARY", 3)
        assert dictionary_of([["a", "b"], ["b", "a"]], 1).size == 4
        with pytest.raises(ConfigurationError, match="3 distinct tokens"):
            build_dictionary([["a", "b"], ["c"]], 1)

    def test_limit_is_the_first_vocabulary_whose_keys_overflow_int64(self):
        v = features.MAX_VOCABULARY
        largest_key = (v - 1) + (v - 1) ** 2 + (v - 1) ** 3 - 1
        assert largest_key <= np.iinfo(np.int64).max < v + v**2 + v**3 - 1


class TestEncode:
    def test_empty_terms_give_zero_vector(self):
        d = dictionary_of([["a"], ["a"], ["a"]], 1)
        positions = encode([], d)
        assert positions.dtype == np.int64 and positions.shape == (0,)

    def test_out_of_dictionary_terms_ignored(self):
        d = Dictionary(["sql", "inject"], [3, 3])
        assert encode(["sql", "xss"], d).tolist() == [0]

    def test_cardinality_matches_intersection(self):
        docs = [["a", "b", "c", "d"]] * 3
        d = dictionary_of(docs, 1)
        terms = ngram_set(["a", "c", "z"])
        assert len(encode(["a", "c", "z"], d)) == len(terms & set(d.index))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
                 min_size=1, max_size=10),
        st.lists(st.sampled_from("abcdef"), max_size=8),
    )
    def test_cardinality_oracle(self, docs, probe_tokens):
        d = dictionary_of(docs, 1)
        terms = ngram_set(probe_tokens)
        positions = encode(probe_tokens, d)
        # independent brute-force membership check, in ascending position order
        assert positions.tolist() == sorted(d.index[t] for t in terms if t in d.index)

    def test_slot_tokens_are_the_tokens_at_each_place_of_the_terms(self):
        d = Dictionary(["sql inject", "xss", "a b c", "b a", "p q r s"], [1] * 5)
        assert d.slot_tokens == {2: ({"sql", "b"}, {"inject", "a"}), 3: ({"a"}, {"b"}, {"c"})}

    def test_ngrams_with_a_token_out_of_place_are_skipped(self):
        # Only "a c" has the tokens of a bigram term at their places.
        d = Dictionary(["a", "c", "a c", "c a"], [3] * 4)
        index = LookupLog(d.index)
        object.__setattr__(d, "index", index)
        assert encode(["a", "c", "z", "a"], d).tolist() == [0, 1, 2]
        assert index.looked_up == ["a", "c", "a c", "z", "a"]


class LookupLog(dict):
    """A term index that records the terms ``encode`` looks up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.looked_up = []

    def get(self, term, default=None):
        self.looked_up.append(term)
        return super().get(term, default)


# Small dictionaries drawn over a few tokens, with terms whose tokens never
# occur in the probe texts ("q", "r") and repeated tokens.
TOKENS = st.sampled_from(["a", "b", "c", "d", "q", "r"])
TERMS = st.lists(TOKENS, min_size=1, max_size=3).map(" ".join)


@st.composite
def dictionaries(draw):
    terms = draw(st.lists(TERMS, max_size=12, unique=True))
    return Dictionary(terms, [1] * len(terms))


class TestEncodeOracle:
    """The pruned encoder equals building and looking up every n-gram."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "x"]), max_size=12),
           dictionaries())
    def test_equals_every_ngram_looked_up(self, tokens, dictionary):
        positions = encode(tokens, dictionary)
        assert positions.dtype == np.int64
        assert positions.tolist() == oracle.encode(tokens, dictionary).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=10),
                    min_size=1, max_size=6),
           st.integers(1, 3),
           st.lists(st.sampled_from("abcdefghij"), max_size=15))
    def test_equals_oracle_on_built_dictionaries(self, docs, min_count, tokens):
        dictionary = dictionary_of(docs, min_count)
        assert encode(tokens, dictionary).tolist() == oracle.encode(tokens, dictionary).tolist()
