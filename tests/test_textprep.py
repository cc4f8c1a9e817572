import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from cwemap.errors import ValidationError
from cwemap.ingest import load_stopwords, load_synonyms
from cwemap.textprep import SynonymTable, apply_synonyms, preprocess, stem, tokenize


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("SQL injection, vulnerability!") == ["sql", "injection", "vulnerability"]

    def test_keeps_interior_hyphens(self):
        assert tokenize("cross-site scripting") == ["cross-site", "scripting"]

    def test_strips_edge_hyphens(self):
        assert tokenize("-dash- leading") == ["dash", "leading"]

    def test_drops_tokens_without_letters(self):
        assert tokenize("libpam-pgsql before 0.5.2") == ["libpam-pgsql", "before"]

    def test_empty(self):
        assert tokenize("") == []

    @settings(max_examples=500, deadline=None)
    @given(st.text())
    def test_equals_split_strip_search_oracle(self, text):
        tokens = tokenize(text)
        assert tokens == oracle.tokenize(text)
        assert not any(ch.isspace() for tok in tokens for ch in tok)  # encode relies on it

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="aZ09-_ .,'\t\n\u0130\u212a\u00df", max_size=40))
    def test_equals_oracle_on_run_edges(self, text):
        assert tokenize(text) == oracle.tokenize(text)

    def test_long_run_without_a_letter_takes_linear_time(self):
        # A search that restarted inside the run would take minutes here.
        start = time.perf_counter()
        assert tokenize("7" * 100_000 + " word -" + "-" * 100_000) == ["word"]
        assert time.perf_counter() - start < 2.0


class TestPreprocess:
    def test_empty_text(self, empty_assets):
        assert preprocess("", empty_assets.stopwords, empty_assets.synonyms) == []

    def test_pipeline_order_and_stems(self):
        out = preprocess(
            "allows attackers to execute arbitrary SQL statements.",
            frozenset({"to"}),
            SynonymTable.empty(),
        )
        assert out == ["allow", "attack", "execut", "arbitrari", "sql", "statement"]

    def test_synonym_code_replaces_first_token(self):
        table = SynonymTable(
            groups=(("incorrect", (("improp",), ("insuffici",), ("incorrect",))),)
        )
        out = preprocess("Improper input validation", frozenset(), table)
        assert out[0] == "incorrect"
        assert out == ["incorrect", "input", "valid"]

    def test_case_insensitivity(self, empty_assets):
        a = preprocess("Buffer OVERFLOW Attack", frozenset(), empty_assets.synonyms)
        b = preprocess("buffer overflow attack", frozenset(), empty_assets.synonyms)
        assert a == b

    def test_stopword_difference_is_invisible(self):
        stop = frozenset({"the", "a", "of"})
        a = preprocess("the overflow of a buffer", stop, SynonymTable.empty())
        b = preprocess("overflow buffer", stop, SynonymTable.empty())
        assert a == b

    def test_no_stopwords_uppercase_or_punctuation_in_output(self):
        stop = load_stopwords()
        out = preprocess(
            "The attacker, EXPLOITS; a (remote) buffer-overflow!", stop, SynonymTable.empty()
        )
        assert out
        for token in out:
            assert token not in stop
            assert token == token.lower()
            assert not set(token) & set(string.punctuation.replace("-", ""))
            assert not token.startswith("-") and not token.endswith("-")


class TestApplySynonyms:
    def test_three_token_phrase_collapses_to_code(self):
        table = SynonymTable(
            groups=(
                ("xee", (("xml", "entiti", "expans"), ("billion", "laugh", "attack"))),
            )
        )
        assert apply_synonyms(["xml", "entiti", "expans"], table) == ["xee"]

    def test_empty_table_is_identity(self):
        assert apply_synonyms(["a", "b"], SynonymTable.empty()) == ["a", "b"]

    def test_longest_match_wins(self):
        table = SynonymTable(
            groups=(
                ("short", (("alpha",),)),
                ("long", (("alpha", "beta", "gamma"),)),
            )
        )
        assert apply_synonyms(["alpha", "beta", "gamma"], table) == ["long"]

    def test_tie_broken_by_group_order(self):
        table = SynonymTable(
            groups=(
                ("first", (("alpha", "beta"),)),
                ("second", (("alpha", "gamma"),)),
            )
        )
        assert apply_synonyms(["alpha", "gamma"], table) == ["second"]

    def test_output_not_longer_than_input(self):
        table = SynonymTable(groups=(("code", (("a", "b"), ("c",))),))
        tokens = ["a", "b", "c", "d", "a"]
        assert len(apply_synonyms(tokens, table)) <= len(tokens)

    def test_unmatched_tokens_pass_through(self):
        table = SynonymTable(groups=(("code", (("a", "b"),)),))
        assert apply_synonyms(["x", "a", "b", "y"], table) == ["x", "code", "y"]


class TestSynonymTableInvariants:
    def test_duplicate_code_rejected(self):
        with pytest.raises(ValidationError):
            SynonymTable(groups=(("c", (("a",),)), ("c", (("b",),))))

    def test_duplicate_phrase_rejected(self):
        with pytest.raises(ValidationError):
            SynonymTable(groups=(("c1", (("a", "b"),)), ("c2", (("a", "b"),))))

    def test_code_as_member_of_other_group_rejected(self):
        with pytest.raises(ValidationError):
            SynonymTable(groups=(("alpha", (("x",),)), ("other", (("alpha",),))))

    def test_overlong_phrase_rejected(self):
        with pytest.raises(ValidationError):
            SynonymTable(groups=(("c", (("a", "b", "c", "d", "e"),)),))

    @pytest.mark.parametrize("code", ["", "sql inject", " sql", "sql\n"])
    def test_code_that_is_not_one_token_rejected(self, code):
        with pytest.raises(ValidationError):
            SynonymTable(groups=((code, (("a",),)),))


class TestDefaultAssets:
    def test_default_stopwords_contain_function_words(self):
        stop = load_stopwords()
        assert {"the", "to", "of", "and"} <= stop

    def test_default_synonyms_are_stemmed(self):
        stop = load_stopwords()
        table = load_synonyms(stopwords=stop)
        codes = {code for code, _ in table.groups}
        assert "incorrect" in codes
        assert "xee" in codes
        members = {p for _, phrases in table.groups for p in phrases}
        assert ("improp",) in members
        assert ("xml", "entiti", "expans") in members


# Vocabulary for the idempotence property: common security words whose
# stems are fixed points and are not stopwords.  (Words like "traversal"
# stay out: Snowball re-stems "travers" to "traver".)
_VOCAB = [
    "buffer", "overflow", "attacker", "remote", "injection", "command",
    "arbitrary", "execute", "bypass", "memory", "corruption", "crafted",
    "request", "parameter", "allows", "denial", "service", "crash",
    "cross-site", "scripting", "kernel",
]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_VOCAB), min_size=0, max_size=20))
def test_preprocess_idempotent(words):
    stop = load_stopwords()
    table = load_synonyms(stopwords=stop)
    text = " ".join(words)
    once = preprocess(text, stop, table)
    twice = preprocess(" ".join(once), stop, table)
    assert twice == once


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=12),
    st.sampled_from([str.upper, str.title, str.lower]),
)
def test_case_invariance(words, casing):
    stop = load_stopwords()
    text = " ".join(words)
    assert preprocess(casing(text), stop, SynonymTable.empty()) == preprocess(
        text, stop, SynonymTable.empty()
    )


def test_stem_re_exported():
    assert stem("statements") == "statement"
