"""English Snowball (Porter2) suffix-stripping stemmer.

Pure-Python, operates on single lowercase tokens.  Non-letter characters
(digits, hyphens) are treated as consonants, so tokens like "cross-site"
stem deterministically.  Uppercase "Y" is used internally to mark
consonant-y and never appears in output.

``stem`` is pure, so it is memoized in a bounded LRU cache: a corpus
repeats a few thousand word types many times over, and a type stays in
the cache while it is among the 65,536 most recently stemmed.
"""

import functools

_VOWELS = frozenset("aeiouy")
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
_LI_ENDINGS = frozenset("cdeghkmnrt")

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

# Words left invariant immediately after step 1a.
_POST_1A_INVARIANT = frozenset(
    {"inning", "outing", "canning", "herring", "earring", "proceed", "exceed", "succeed"}
)

_STEP2_RULES = (
    ("ational", "ate"),
    ("fulness", "ful"),
    ("iveness", "ive"),
    ("ization", "ize"),
    ("ousness", "ous"),
    ("biliti", "ble"),
    ("lessli", "less"),
    ("tional", "tion"),
    ("alism", "al"),
    ("aliti", "al"),
    ("ation", "ate"),
    ("entli", "ent"),
    ("fulli", "ful"),
    ("iviti", "ive"),
    ("ousli", "ous"),
    ("abli", "able"),
    ("alli", "al"),
    ("anci", "ance"),
    ("ator", "ate"),
    ("enci", "ence"),
    ("izer", "ize"),
    ("bli", "ble"),
)

_STEP3_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("alize", "al"),
    ("icate", "ic"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ness", ""),
    ("ful", ""),
)

_STEP4_SUFFIXES = (
    "ement",
    "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ism", "ate", "iti", "ous", "ive", "ize", "ion",
    "al", "er", "ic",
)


def _is_vowel(ch: str) -> bool:
    return ch in _VOWELS


def _r1_start(word: str) -> int:
    # Exceptional prefixes pin R1 right after them.
    for prefix in ("gener", "commun", "arsen"):
        if word.startswith(prefix):
            return len(prefix)
    for i in range(1, len(word)):
        if not _is_vowel(word[i]) and _is_vowel(word[i - 1]):
            return i + 1
    return len(word)


def _region_start(word: str, begin: int) -> int:
    for i in range(begin + 1, len(word)):
        if not _is_vowel(word[i]) and _is_vowel(word[i - 1]):
            return i + 1
    return len(word)


def _ends_short_syllable(word: str) -> bool:
    if len(word) == 2:
        return _is_vowel(word[0]) and not _is_vowel(word[1])
    if len(word) >= 3:
        return (
            _is_vowel(word[-2])
            and not _is_vowel(word[-1])
            and word[-1] not in "wxY"
            and not _is_vowel(word[-3])
        )
    return False


def _is_short_word(word: str, r1: int) -> bool:
    return r1 >= len(word) and _ends_short_syllable(word)


@functools.lru_cache(maxsize=1 << 16)
def stem(token: str) -> str:
    """Return the Porter2 English stem of a lowercase token."""
    word = token
    if len(word) <= 2:
        return word
    if word in _EXCEPTIONS:
        return _EXCEPTIONS[word]

    if word.startswith("'"):
        word = word[1:]
        if len(word) <= 2:
            return word

    # Mark consonant-y: at the start, or following a vowel.
    chars = list(word)
    if chars[0] == "y":
        chars[0] = "Y"
    for i in range(1, len(chars)):
        if chars[i] == "y" and chars[i - 1] in _VOWELS:
            chars[i] = "Y"
    word = "".join(chars)

    r1 = _r1_start(word)
    r2 = _region_start(word, r1)

    def in_r1(suffix: str) -> bool:
        return len(word) - len(suffix) >= r1

    def in_r2(suffix: str) -> bool:
        return len(word) - len(suffix) >= r2

    # Step 0: possessive endings.
    for suffix in ("'s'", "'s", "'"):
        if word.endswith(suffix):
            word = word[: -len(suffix)]
            break

    # Step 1a.
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith(("ied", "ies")):
        word = word[:-3] + ("i" if len(word) > 4 else "ie")
    elif word.endswith(("us", "ss")):
        pass
    elif word.endswith("s"):
        if any(_is_vowel(ch) for ch in word[:-2]):
            word = word[:-1]

    if word in _POST_1A_INVARIANT:
        return word

    # Step 1b.
    step1b_done = False
    for suffix in ("eedly", "eed"):
        if word.endswith(suffix):
            if in_r1(suffix):
                word = word[: -len(suffix)] + "ee"
            step1b_done = True
            break
    if not step1b_done:
        for suffix in ("ingly", "edly", "ing", "ed"):
            if word.endswith(suffix):
                stemv = word[: -len(suffix)]
                if any(_is_vowel(ch) for ch in stemv):
                    word = stemv
                    if word.endswith(("at", "bl", "iz")):
                        word += "e"
                    elif word.endswith(_DOUBLES):
                        word = word[:-1]
                    elif _is_short_word(word, r1):
                        word += "e"
                break

    # Step 1c: y -> i after a non-vowel that is not word-initial.
    if len(word) > 2 and word[-1] in "yY" and not _is_vowel(word[-2]):
        word = word[:-1] + "i"

    # Step 2.
    for suffix, repl in _STEP2_RULES:
        if word.endswith(suffix):
            if in_r1(suffix):
                word = word[: -len(suffix)] + repl
            break
    else:
        if word.endswith("ogi"):
            if in_r1("ogi") and len(word) >= 4 and word[-4] == "l":
                word = word[:-1]
        elif word.endswith("li"):
            if in_r1("li") and len(word) >= 3 and word[-3] in _LI_ENDINGS:
                word = word[:-2]

    # Step 3.
    for suffix, repl in _STEP3_RULES:
        if word.endswith(suffix):
            if in_r1(suffix):
                word = word[: -len(suffix)] + repl
            break
    else:
        if word.endswith("ative"):
            if in_r1("ative") and in_r2("ative"):
                word = word[:-5]

    # Step 4.
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            if in_r2(suffix):
                if suffix == "ion":
                    if len(word) >= 4 and word[-4] in "st":
                        word = word[:-3]
                else:
                    word = word[: -len(suffix)]
            break

    # Step 5.
    if word.endswith("e"):
        pos = len(word) - 1
        if pos >= r2 or (pos >= r1 and not _ends_short_syllable(word[:-1])):
            word = word[:-1]
    elif word.endswith("l"):
        if len(word) - 1 >= r2 and len(word) >= 2 and word[-2] == "l":
            word = word[:-1]

    return word.replace("Y", "y")
