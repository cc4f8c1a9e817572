"""N-gram features: term dictionary construction and multi-hot encoding.

The feature space is the set of unique 1/2/3-gram terms found in the
training texts, filtered by a minimum total-occurrence threshold.
``build_dictionary`` reads the per-text term Counters of ``count_terms``,
so a training text is n-grammed once.  A document is a binary vector over
the dictionary, kept as the ascending int64 positions of the dictionary
terms it contains (``encode``).  ``encode`` builds only the n-grams whose
tokens all occur, each at its place, in some dictionary term; no other
n-gram can be a term.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError
from .textprep import TokenSequence

DEFAULT_MIN_COUNT = 3
NGRAM_SIZES = (1, 2, 3)


def ngrams(tokens: TokenSequence, n: int) -> list[str]:
    """Contiguous n-token windows joined with single spaces, in order."""
    if n not in NGRAM_SIZES:
        raise ConfigurationError(f"n must be one of {NGRAM_SIZES}, got {n}")
    if n == 1:
        return list(tokens)
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


@dataclass(frozen=True)
class Dictionary:
    """Immutable term index with deterministic positions.

    Positions are assigned by descending total occurrence count, ties by
    lexicographic term order, so the same corpus always yields the same
    layout regardless of document order.
    """

    index: dict[str, int]
    counts: dict[str, int]
    min_count: int
    size: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "size", len(self.index))

    def __contains__(self, term: str) -> bool:
        return term in self.index

    def __len__(self) -> int:
        return self.size

    @cached_property
    def slot_tokens(self) -> dict[int, tuple[frozenset[str], ...]]:
        """For n = 2 and 3, the tokens found at each position of the n-token
        terms; built on first use (by ``encode``)."""
        slots: dict[int, tuple[set[str], ...]] = {2: (set(), set()), 3: (set(), set(), set())}
        for term in self.index:
            tokens = term.split(" ")
            for slot, token in zip(slots.get(len(tokens), ()), tokens):
                slot.add(token)
        return {n: tuple(map(frozenset, found)) for n, found in slots.items()}

    def terms(self) -> list[str]:
        """Terms in position order."""
        out = [""] * self.size
        for term, pos in self.index.items():
            out[pos] = term
        return out

    def to_tsv(self) -> str:
        lines = [f"{pos}\t{term}\t{self.counts[term]}" for pos, term in enumerate(self.terms())]
        return "\n".join([f"# min_count={self.min_count}"] + lines) + "\n"

    @classmethod
    def from_tsv(cls, text: str) -> "Dictionary":
        index: dict[str, int] = {}
        counts: dict[str, int] = {}
        min_count = DEFAULT_MIN_COUNT
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            if line.startswith("#"):
                if "min_count=" in line:
                    min_count = int(line.split("min_count=", 1)[1].strip())
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError("expected 'position<TAB>term<TAB>count'", line=lineno)
            pos, term, count = int(parts[0]), parts[1], int(parts[2])
            index[term] = pos
            counts[term] = count
        if set(index.values()) != set(range(len(index))):
            raise ParseError("positions are not 0..n-1, one term each")
        return cls(index=index, counts=counts, min_count=min_count)

    def save_tsv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_tsv(), encoding="utf-8")

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_tsv().encode("utf-8")).hexdigest()


def count_terms(tokens: TokenSequence) -> Counter:
    """Occurrence counts of every 1/2/3-gram term in one token sequence."""
    counter: Counter = Counter()
    for n in NGRAM_SIZES:
        counter.update(ngrams(tokens, n))
    return counter


def build_dictionary(term_counts: Iterable[Counter], min_count: int = DEFAULT_MIN_COUNT
                     ) -> Dictionary:
    """Build the term dictionary from the term Counters of the training texts.

    Counts every occurrence across the whole training set (not document
    frequency) and drops terms occurring fewer than ``min_count`` times.
    """
    if min_count < 1:
        raise ConfigurationError(f"min_count must be >= 1, got {min_count}")
    totals: Counter = Counter()
    for counts in term_counts:
        totals.update(counts)
    kept = [(term, count) for term, count in totals.items() if count >= min_count]
    kept.sort(key=lambda item: (-item[1], item[0]))
    index = {term: pos for pos, (term, _) in enumerate(kept)}
    counts = dict(kept)
    return Dictionary(index=index, counts=counts, min_count=min_count)


def encode(tokens: TokenSequence, dictionary: Dictionary) -> np.ndarray:
    """The ascending int64 positions of the dictionary terms among the 1/2/3-grams
    of ``tokens``.

    A bigram or trigram is built and looked up only when each of its tokens
    occurs at the same place in some dictionary term of its length
    (``Dictionary.slot_tokens``).  No token holds a space, so an n-gram
    equals a term only when it splits into the term's tokens; every n-gram
    skipped is no term, and skipping it changes no position.
    """
    slots = dictionary.slot_tokens
    first2, second2 = slots[2]
    first3, second3, third3 = slots[3]
    lookup = dictionary.index.get
    found: set[int] = set()
    before_last = last = None
    for token in tokens:
        position = lookup(token)
        if position is not None:
            found.add(position)
        if last in first2 and token in second2:
            position = lookup(last + " " + token)
            if position is not None:
                found.add(position)
        if before_last in first3 and last in second3 and token in third3:
            position = lookup(before_last + " " + last + " " + token)
            if position is not None:
                found.add(position)
        before_last, last = last, token
    positions = np.fromiter(found, dtype=np.int64, count=len(found))
    positions.sort()
    return positions
