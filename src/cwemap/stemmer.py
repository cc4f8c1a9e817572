"""English Snowball (Porter2) suffix-stripping stemmer.

Pure-Python, operates on single lowercase tokens.  Non-letter characters
(digits, hyphens) are treated as consonants, so tokens like "cross-site"
stem deterministically.  Uppercase "Y" is used internally to mark
consonant-y and never appears in output.

Steps 2, 3 and 4 dispatch on the word's ending, as Snowball's ``among``
does: the longest suffix of the step's table that ends the word is looked
up in a dict, and only that rule's region condition is then tested.
Steps 1a and 1b dispatch on the word's last letter ("s" or "d"; "d", "g"
or "y").  R1 and R2 both come from one match of one compiled regex (after
an exceptional R1 prefix, R2 from one search), the consonant-y marking
runs only on a word that contains a "y", and the output lowers "Y" only
in a word that holds one.

Every rule of every step needs the word to end in one of
``s d g y l n i m r e t c`` or to contain an apostrophe (step 0).  So a
word that does neither, and holds no "Y" (which the output would turn
into "y"), comes back unchanged without running any step.

``stem`` is pure, so it is memoized in a bounded LRU cache: a corpus
repeats a few thousand word types many times over, and a type stays in
the cache while it is among the 65,536 most recently stemmed.
"""

import functools
import re

_VOWELS = frozenset("aeiouy")
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
_LI_ENDINGS = frozenset("cdeghkmnrt")
# The last characters some rule can match; see the module docstring.
_RULE_ENDINGS = frozenset("sdgylnimretc")
# A region starts after the first vowel followed by a non-vowel: R1 ends
# the first group, R2 the second.
_REGION_RE = re.compile(r"[aeiouy][^aeiouy]")
_REGIONS_RE = re.compile(r"([^aeiouy]*[aeiouy]+[^aeiouy])([^aeiouy]*[aeiouy]+[^aeiouy])?")
# Exceptional prefixes that pin R1 right after them.
_R1_PREFIXES = ("gener", "commun", "arsen")

_EXCEPTIONS = {
    "skis": "ski",
    "skies": "sky",
    "dying": "die",
    "lying": "lie",
    "tying": "tie",
    "idly": "idl",
    "gently": "gentl",
    "ugly": "ugli",
    "early": "earli",
    "only": "onli",
    "singly": "singl",
    "sky": "sky",
    "news": "news",
    "howe": "howe",
    "atlas": "atlas",
    "cosmos": "cosmos",
    "bias": "bias",
    "andes": "andes",
}

# Step 1b: per last letter, the suffixes other than "eed"/"eedly" that can
# end a word there, longest first.
_STEP1B = {"d": ("ed",), "g": ("ing",), "y": ("ingly", "edly")}

# Words left invariant immediately after step 1a.
_POST_1A_INVARIANT = frozenset(
    {"inning", "outing", "canning", "herring", "earring", "proceed", "exceed", "succeed"}
)

# Step 2: suffix -> replacement, in R1.  "ogi" and "li" also need the
# character before them to be one of _STEP2_PRECEDED[suffix].
_STEP2 = {
    "ational": "ate", "fulness": "ful", "iveness": "ive", "ization": "ize",
    "ousness": "ous", "biliti": "ble", "lessli": "less", "tional": "tion",
    "alism": "al", "aliti": "al", "ation": "ate", "entli": "ent", "fulli": "ful",
    "iviti": "ive", "ousli": "ous", "abli": "able", "alli": "al", "anci": "ance",
    "ator": "ate", "enci": "ence", "izer": "ize", "bli": "ble", "ogi": "og", "li": "",
}
_STEP2_PRECEDED = {"ogi": frozenset("l"), "li": _LI_ENDINGS}

# Step 3: suffix -> replacement, in R1 ("ative" in R2).
_STEP3 = {
    "ational": "ate", "tional": "tion", "alize": "al", "icate": "ic", "iciti": "ic",
    "ical": "ic", "ness": "", "ful": "", "ative": "",
}

# Step 4: suffixes deleted in R2 ("ion" only after "s" or "t").
_STEP4 = frozenset({
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ism", "ate",
    "iti", "ous", "ive", "ize", "ion", "al", "er", "ic",
})


def _lengths(table) -> dict[str, tuple[int, ...]]:
    """Per last character, the distinct lengths of the step's suffixes
    ending in it, longest first."""
    lengths: dict[str, set[int]] = {}
    for suffix in table:
        lengths.setdefault(suffix[-1], set()).add(len(suffix))
    return {last: tuple(sorted(found, reverse=True)) for last, found in lengths.items()}


_STEP2_LENGTHS = _lengths(_STEP2)
_STEP3_LENGTHS = _lengths(_STEP3)
_STEP4_LENGTHS = _lengths(_STEP4)


def _region_start(word: str, begin: int) -> int:
    """End of the first vowel-then-non-vowel pair at or after ``begin``."""
    found = _REGION_RE.search(word, begin)
    return found.end() if found else len(word)


def _ends_short_syllable(word: str) -> bool:
    if len(word) == 2:
        return word[0] in _VOWELS and word[1] not in _VOWELS
    if len(word) >= 3:
        return (
            word[-2] in _VOWELS
            and word[-1] not in _VOWELS
            and word[-1] not in "wxY"
            and word[-3] not in _VOWELS
        )
    return False


@functools.lru_cache(maxsize=1 << 16)
def stem(token: str) -> str:
    """Return the Porter2 English stem of a lowercase token."""
    word = token
    if len(word) <= 2:
        return word
    if word[-1] not in _RULE_ENDINGS and "'" not in word and "Y" not in word:
        return word
    if word in _EXCEPTIONS:
        return _EXCEPTIONS[word]

    if word.startswith("'"):
        word = word[1:]
        if len(word) <= 2:
            return word

    # Mark consonant-y: at the start, or following a vowel.
    if "y" in word:
        chars = list(word)
        if chars[0] == "y":
            chars[0] = "Y"
        for i in range(1, len(chars)):
            if chars[i] == "y" and chars[i - 1] in _VOWELS:
                chars[i] = "Y"
        word = "".join(chars)

    if word.startswith(_R1_PREFIXES):
        r1 = next(len(p) for p in _R1_PREFIXES if word.startswith(p))
        r2 = _region_start(word, r1)
    else:
        regions = _REGIONS_RE.match(word)
        r1 = regions.end(1) if regions else len(word)
        r2 = regions.end(2) if regions and regions.end(2) >= 0 else len(word)

    # Step 0: possessive endings.
    if "'" in word:
        for suffix in ("'s'", "'s", "'"):
            if word.endswith(suffix):
                word = word[: -len(suffix)]
                break

    # Step 1a: every rule ends in "s" or "d".
    last = word[-1:]
    if last in ("s", "d"):
        if word.endswith(("ied", "ies")):
            word = word[:-3] + ("i" if len(word) > 4 else "ie")
        elif word.endswith("sses"):
            word = word[:-2]
        elif last == "s" and not word.endswith(("us", "ss")) and not _VOWELS.isdisjoint(word[:-2]):
            word = word[:-1]

    if word in _POST_1A_INVARIANT:
        return word

    # Step 1b: every rule ends in "d", "g" or "y".
    suffixes = _STEP1B.get(word[-1:], ())
    if suffixes and word.endswith(("eedly", "eed")):
        cut = len(word) - (5 if word.endswith("eedly") else 3)
        if cut >= r1:
            word = word[:cut] + "ee"
    else:
        for suffix in suffixes:
            if word.endswith(suffix):
                stemv = word[: -len(suffix)]
                if not _VOWELS.isdisjoint(stemv):
                    word = stemv
                    if word.endswith(("at", "bl", "iz")):
                        word += "e"
                    elif word.endswith(_DOUBLES):
                        word = word[:-1]
                    elif r1 >= len(word) and _ends_short_syllable(word):
                        word += "e"
                break

    # Step 1c: y -> i after a non-vowel that is not word-initial.
    if len(word) > 2 and word[-1] in "yY" and word[-2] not in _VOWELS:
        word = word[:-1] + "i"

    # Steps 2-4: the longest suffix in the step's table that ends the word
    # decides (a slice shorter than the length asked for is the whole word).
    for n in _STEP2_LENGTHS.get(word[-1:], ()):
        suffix = word[-n:]
        repl = _STEP2.get(suffix)
        if repl is not None:
            cut = len(word) - len(suffix)
            preceded = _STEP2_PRECEDED.get(suffix)
            if cut >= r1 and (preceded is None or word[cut - 1] in preceded):
                word = word[:cut] + repl
            break

    for n in _STEP3_LENGTHS.get(word[-1:], ()):
        suffix = word[-n:]
        repl = _STEP3.get(suffix)
        if repl is not None:
            cut = len(word) - len(suffix)
            if cut >= (r2 if suffix == "ative" else r1):
                word = word[:cut] + repl
            break

    for n in _STEP4_LENGTHS.get(word[-1:], ()):
        suffix = word[-n:]
        if suffix in _STEP4:
            cut = len(word) - len(suffix)
            if cut >= r2 and (suffix != "ion" or word[cut - 1] in "st"):
                word = word[:cut]
            break

    # Step 5.
    if word.endswith("e"):
        pos = len(word) - 1
        if pos >= r2 or (pos >= r1 and not _ends_short_syllable(word[:-1])):
            word = word[:-1]
    elif word.endswith("l"):
        if len(word) - 1 >= r2 and len(word) >= 2 and word[-2] == "l":
            word = word[:-1]

    return word.replace("Y", "y") if "Y" in word else word
