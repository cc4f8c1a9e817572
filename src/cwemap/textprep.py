"""Five-stage description preprocessing.

Raw text is lowercased, tokenized, stopword-filtered, cleaned of
punctuation (interior hyphens survive), stemmed, and finally rewritten
through synonym vector coding, in that order.  All functions are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ValidationError
from .stemmer import stem

__all__ = ["SynonymTable", "TokenSequence", "apply_synonyms", "preprocess", "stem", "tokenize"]

# A processed description is just an ordered list of normalized tokens.
TokenSequence = list[str]

# A maximal run of letters, digits and hyphens that holds a letter.  The
# lookbehind lets a match start only where a run starts, so a long run
# without a letter is scanned once, not once per character.
_TOKEN_RE = re.compile(r"(?<![a-z0-9-])[a-z0-9-]*[a-z][a-z0-9-]*")

MAX_PHRASE_TOKENS = 4


def tokenize(text: str) -> TokenSequence:
    """Lowercase and split into candidate tokens.

    Splits on any character that is not a letter, digit, or hyphen;
    leading/trailing hyphens are stripped and tokens without a letter
    (bare numbers, version strings) are dropped.  One regex search finds
    exactly the runs that hold a letter: from the start of such a run the
    greedy pattern takes the whole run, and a run without a letter never
    matches.  A token therefore never contains a space.
    """
    return [run.strip("-") for run in _TOKEN_RE.findall(text.lower())]


@dataclass(frozen=True)
class SynonymTable:
    """Groups of interchangeable phrases, each represented by a code token.

    Codes and member phrases are stored stemmed and lowercased; members are
    phrases of 1..4 tokens.  A code may belong to exactly one group and no
    phrase may appear in two groups (codes count as phrases of their own
    group), which keeps synonym coding idempotent.  A code is one token:
    non-empty and without whitespace, like every token ``tokenize`` makes.
    """

    groups: tuple[tuple[str, tuple[tuple[str, ...], ...]], ...]
    # first token -> [(phrase, code, group order)] sorted longest-phrase first
    _lookup: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        seen_codes: set[str] = set()
        seen_phrases: set[tuple[str, ...]] = set()
        lookup: dict[str, list[tuple[tuple[str, ...], str, int]]] = {}
        for order, (code, members) in enumerate(self.groups):
            if code.split() != [code]:
                raise ValidationError(f"synonym code {code!r} is not one token")
            if code in seen_codes:
                raise ValidationError(f"synonym code {code!r} defined twice")
            seen_codes.add(code)
            for phrase in members:
                if not phrase or len(phrase) > MAX_PHRASE_TOKENS:
                    raise ValidationError(
                        f"synonym phrase {' '.join(phrase)!r} must have 1..{MAX_PHRASE_TOKENS} tokens"
                    )
                if phrase in seen_phrases:
                    raise ValidationError(
                        f"synonym phrase {' '.join(phrase)!r} appears in two groups"
                    )
                seen_phrases.add(phrase)
                lookup.setdefault(phrase[0], []).append((phrase, code, order))
        # A code used as a member of a different group would be re-coded on a
        # second pass; reject it.
        for order, (code, members) in enumerate(self.groups):
            hits = lookup.get(code, [])
            for phrase, other_code, other_order in hits:
                if phrase == (code,) and other_order != order:
                    raise ValidationError(
                        f"code {code!r} is also a member phrase of group {other_code!r}"
                    )
        for candidates in lookup.values():
            candidates.sort(key=lambda item: (-len(item[0]), item[2]))
        object.__setattr__(self, "_lookup", lookup)

    @classmethod
    def empty(cls) -> "SynonymTable":
        return cls(groups=())


def apply_synonyms(tokens: TokenSequence, table: SynonymTable) -> TokenSequence:
    """Replace member phrases with their group code, greedy left to right.

    At each position the longest matching phrase wins; ties go to the group
    listed first.  Expects stemmed tokens (tables are stored stemmed).
    """
    if not table.groups:
        return list(tokens)
    out: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        candidates = table._lookup.get(tokens[i])
        matched = False
        if candidates:
            for phrase, code, _ in candidates:
                end = i + len(phrase)
                if end <= n and tuple(tokens[i:end]) == phrase:
                    out.append(code)
                    i = end
                    matched = True
                    break
        if not matched:
            out.append(tokens[i])
            i += 1
    return out


def normalize_phrase(raw: str, stopwords: frozenset[str]) -> tuple[str, ...]:
    """Run a raw phrase through the pre-coding pipeline (for table loading)."""
    return tuple(stem(tok) for tok in tokenize(raw) if tok not in stopwords)


def preprocess(text: str, stopwords: frozenset[str], synonyms: SynonymTable) -> TokenSequence:
    """Normalize a raw description into its final token sequence."""
    tokens = [tok for tok in tokenize(text) if tok not in stopwords]
    stemmed = [stem(tok) for tok in tokens]
    return apply_synonyms(stemmed, synonyms)
