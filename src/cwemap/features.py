"""N-gram features: term dictionary construction and multi-hot encoding.

The feature space is the set of unique 1/2/3-gram terms found in the
training texts, filtered by a minimum total-occurrence threshold.

``build_dictionary`` counts the training n-grams as packed int64 keys, not
strings.  Each distinct token gets an id below ``V``, the number of
distinct tokens, and each n-gram one key in a range of its own: ``a`` for
a unigram, ``V + a*V + b`` for a bigram and ``V + V**2 + (a*V + b)*V + c``
for a trigram.  One ``np.unique`` counts every key of every text; term
strings are built for the kept keys only.  The keys are exact, not hashed,
so the dictionary is the one that counting the n-gram strings gives.  The
same pass returns each text's (positions, counts) over the dictionary.

A ``Dictionary`` holds what its saved file holds: the terms and their
counts, as lists in position order (``dictionary_json`` writes them, and
``read_dictionary`` passes the lists it reads in as they are).  Its term
index is built once, when it is made, which is also where a repeated term
or a count list of another length is refused.

A document is a binary vector over the dictionary, kept as the ascending
int64 positions of the dictionary terms it contains (``encode``).  At
inference ``encode`` builds only the n-grams whose tokens all occur, each
at its place, in some dictionary term; no other n-gram can be a term.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ConfigurationError, FormatError, ValidationError
from .jsonread import parse
from .textprep import TokenSequence

#: The smallest token count ``V`` with ``V + V**2 + V**3 >= 2**63``: from it
#: on, a packed trigram key could overflow int64.
MAX_VOCABULARY = 2_097_152


@dataclass(frozen=True)
class Dictionary:
    """Immutable term list with deterministic positions, as its file stores it.

    ``terms[p]`` is the term at position p and ``counts[p]`` its total
    count.  Positions are assigned by descending total occurrence count,
    ties by lexicographic term order, so the same corpus always yields the
    same layout regardless of document order.  ``index`` maps each term to
    its position; building a dictionary whose terms repeat, or whose counts
    are not one per term, raises ValidationError.
    """

    terms: list[str]
    counts: list[int]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = dict(zip(self.terms, range(len(self.terms))))
        if len(self.counts) != len(self.terms) or len(index) != len(self.terms):
            raise ValidationError(f"{len(self.terms)} terms ({len(index)} distinct) and "
                                  f"{len(self.counts)} counts; each term must occur once, "
                                  "with one count")
        object.__setattr__(self, "index", index)

    @property
    def size(self) -> int:
        return len(self.terms)

    @cached_property
    def slot_tokens(self) -> dict[int, tuple[frozenset[str], ...]]:
        """For n = 2 and 3, the tokens found at each position of the n-token
        terms; built on first use (by ``encode``)."""
        slots: dict[int, tuple[set[str], ...]] = {2: (set(), set()), 3: (set(), set(), set())}
        for term in self.terms:
            tokens = term.split(" ")
            for slot, token in zip(slots.get(len(tokens), ()), tokens):
                slot.add(token)
        return {n: tuple(map(frozenset, found)) for n, found in slots.items()}


#: The saved form of a dictionary: its terms and their counts, in position order.
_DICTIONARY = {"terms": [str], "counts": [int]}


def dictionary_json(dictionary: Dictionary) -> str:
    """The saved form of ``dictionary``, which ``read_dictionary`` reads back."""
    return json.dumps({"terms": dictionary.terms, "counts": dictionary.counts},
                      separators=(",", ":"))


def read_dictionary(text: str, path) -> Dictionary:
    """The dictionary in ``text``, a ``_DICTIONARY`` document read from ``path``;
    FormatError naming ``path`` unless it has one count per term and no term
    twice."""
    doc = parse(text, _DICTIONARY, path)
    try:
        return Dictionary(doc["terms"], doc["counts"])
    except ValidationError as exc:
        raise FormatError(str(exc), path=path) from None


#: A text's dictionary terms: ascending int64 positions and their counts.
TermArrays = tuple[np.ndarray, np.ndarray]


def _key_terms(keys: np.ndarray, tokens: list[str]) -> list[str]:
    """The term string of each packed n-gram key over the token list ``tokens``."""
    v = len(tokens)
    terms = []
    for key in keys.tolist():
        if key < v:
            terms.append(tokens[key])
        elif key < v + v * v:
            a, b = divmod(key - v, v)
            terms.append(f"{tokens[a]} {tokens[b]}")
        else:
            ab, c = divmod(key - v - v * v, v)
            a, b = divmod(ab, v)
            terms.append(f"{tokens[a]} {tokens[b]} {tokens[c]}")
    return terms


def build_dictionary(token_lists: Sequence[TokenSequence], min_count: int
                     ) -> tuple[Dictionary, list[TermArrays]]:
    """The term dictionary of the training texts, and each text's terms over it.

    Counts every occurrence across the whole training set (not document
    frequency) and drops terms occurring fewer than ``min_count`` times.
    The n-grams are counted as packed int64 keys (see the module doc);
    ConfigurationError when there are ``MAX_VOCABULARY`` distinct tokens or
    more, which could overflow a trigram key.  The i-th ``TermArrays`` holds
    the ascending positions of the dictionary terms among the 1/2/3-grams of
    ``token_lists[i]`` and how often each occurs there.
    """
    if min_count < 1:
        raise ConfigurationError(f"min_count must be >= 1, got {min_count}")
    tokens = list(dict.fromkeys(chain.from_iterable(token_lists)))
    v = len(tokens)
    if v >= MAX_VOCABULARY:
        raise ConfigurationError(f"{v} distinct tokens; n-gram keys need fewer than "
                                 f"{MAX_VOCABULARY}")
    token_id = {token: i for i, token in enumerate(tokens)}
    lengths = np.fromiter(map(len, token_lists), np.int64, count=len(token_lists))
    ids = np.fromiter(map(token_id.__getitem__, chain.from_iterable(token_lists)), np.int64,
                      count=int(lengths.sum()))
    text = np.repeat(np.arange(len(token_lists), dtype=np.int64), lengths)
    # A bigram (trigram) starts at i when tokens i and i + 1 (i + 2) share a text.
    bigram = text[1:] == text[:-1]
    trigram = text[2:] == text[:-2]
    keys = np.concatenate([
        ids,
        (v + ids[:-1] * v + ids[1:])[bigram],
        (v + v * v + (ids[:-2] * v + ids[1:-1]) * v + ids[2:])[trigram],
    ])
    key_text = np.concatenate([text, text[:-1][bigram], text[:-2][trigram]])
    unique, key_slot, totals = np.unique(keys, return_inverse=True, return_counts=True)
    kept = np.flatnonzero(totals >= min_count)
    kept_totals = totals[kept].tolist()
    terms = _key_terms(unique[kept], tokens)
    order = sorted(range(len(kept)), key=lambda i: (-kept_totals[i], terms[i]))
    dictionary = Dictionary([terms[i] for i in order], [kept_totals[i] for i in order])

    # Each occurrence of a kept key as (text, position), counted per text.
    unique_position = np.full(len(unique), -1, dtype=np.int64)
    unique_position[kept[order]] = np.arange(len(kept))
    position = unique_position[key_slot]
    hit = position >= 0
    k = max(len(kept), 1)
    pairs, counts = np.unique(key_text[hit] * k + position[hit], return_counts=True)
    owner = pairs // k
    bounds = np.searchsorted(owner, np.arange(len(token_lists) + 1))
    positions, counts = pairs - owner * k, counts.astype(np.int64, copy=False)
    return dictionary, [(positions[start:stop], counts[start:stop])
                        for start, stop in zip(bounds[:-1], bounds[1:])]


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
