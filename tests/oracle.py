"""Reference implementations the tests compare the program against.

* The taxonomy walks before ``build_taxonomy`` ordered the DAG once: a
  depth-first cycle check, Kahn's algorithm run on every
  ``internal_nodes()`` call, and a depth-first search per ``ancestors`` and
  ``descendants`` call.
* The record-at-a-time descent ``cwemap.hierarchy.classify`` ran before it
  scored a batch of records per node: one breadth-first walk per text, one
  forward pass per (record, node) pair, and one-shot selection for the
  flat baseline; each text is encoded by ``encode`` below.
* The per-example two-layer forward pass, the scalar TF-IDF formulas, and
  the per-prediction correctness rule of the evaluation.
* The dense fit: ``train_node`` and an out-of-place ``adam_step`` over the
  full ``D x C`` parameters, as they ran before the fit moved onto each
  node's support rows and Adam updated in place.
* The string class documents: ``build_class_documents`` rescanning each
  source's term Counter once per ancestor and per parent, and
  ``init_weights`` looking every term up in the dictionary.
* The string training sets: each labeled record preprocessed, n-grammed
  and encoded on its own, giving one (positions, targets) example per
  record at each node (and in the flat baseline), and the dictionary
  totalled over the n-grams of every training text.
* The text preparation before it was made fast: the Porter2 stemmer with
  its ordered ``endswith`` chains, the split-strip-search tokenizer, and
  ``encode`` building every 1/2/3-gram of a text (``ngram_set``) and
  looking each one up.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from cwemap.errors import ConfigurationError, TrainingError, ValidationError
from cwemap.evaluation import _label_correct
from cwemap.features import NGRAM_SIZES, Dictionary, count_terms, ngrams
from cwemap.hierarchy import Prediction, _maximal_paths, threshold
from cwemap.ingest import _cwe_sort_key
from cwemap.netcore import LOSS_PLATEAU_DELTA, AdamState, _bce_terms, sigmoid
from cwemap.stemmer import _DOUBLES, _EXCEPTIONS, _LI_ENDINGS, _POST_1A_INVARIANT, _VOWELS
from cwemap.textprep import preprocess

logger = logging.getLogger(__name__)


def bce_with_logits(logits, targets):
    """Mean binary cross-entropy over classes, stable for large |logit|."""
    return float(_bce_terms(np.asarray(logits, float), np.asarray(targets, float)).mean())


def two_layer_logits(clf, positions):
    """One record through a two-layer scorer: sigmoid hidden layer, then ``w_out``."""
    if len(positions):
        pre = clf.w_hidden[positions].sum(axis=0)
    else:
        pre = np.zeros(clf.w_hidden.shape[1], dtype=np.float64)
    return sigmoid(pre) @ clf.w_out


def term_frequency(term, doc):
    """Augmented TF in [0, 1]; 0 when the term is absent from the document."""
    count = doc.term_counts.get(term, 0)
    if count == 0:
        return 0.0
    return 0.5 + 0.5 * count / doc.max_count


def inverse_document_frequency(term, docs):
    """log10(M / (1 + df)) over the document list, 0 when df = M."""
    if not docs:
        raise ConfigurationError("document list must be non-empty")
    m = len(docs)
    df = sum(1 for doc in docs if term in doc)
    if df >= m:
        return 0.0
    return math.log10(m / (1 + df))


def tfidf(term, doc, docs):
    return term_frequency(term, doc) * inverse_document_frequency(term, docs)


def is_correct(pred, labels, taxonomy, mode):
    """Whether the prediction satisfies the mode's rule for any label."""
    resolvable = [label for label in labels if label in taxonomy]
    for label in labels:
        if label not in taxonomy:
            logger.warning("%s: label %s not in taxonomy, skipped", pred.cve_id, label)
    if not resolvable:
        raise ValidationError(f"{pred.cve_id}: no labels resolvable in the taxonomy")
    return any(_label_correct(pred, label, taxonomy, mode) for label in resolvable)


def forward_logits(weights, positions):
    """Sum of the weight rows selected by the on-bits."""
    if not len(positions):
        return np.zeros(weights.shape[1], dtype=np.float64)
    return weights[positions].sum(axis=0)


def node_scores(model, node_id, fv):
    clf = model.classifiers[node_id]
    if model.kind == "two-layer":
        return clf.child_ids, sigmoid(two_layer_logits(clf, fv))
    return clf.child_ids, sigmoid(forward_logits(clf.weights, fv))


def select(mode, child_ids, scores):
    if mode.kind == "threshold":
        return [c for c, s in zip(child_ids, scores) if s >= mode.tau]
    ranked = sorted(zip(child_ids, scores), key=lambda cs: (-cs[1], cs[0]))
    return [c for c, _ in ranked[: mode.k]]


def descend(model, fv, mode):
    """Top-down frontier walk; scores each selected node once."""
    taxonomy = model.taxonomy
    selected: set[str] = set()
    scores: dict[str, float] = {}
    queue = [taxonomy.root_id]
    visited: set[str] = set()
    while queue:
        node_id = queue.pop(0)
        if node_id in visited:
            continue
        visited.add(node_id)
        if not taxonomy.children.get(node_id, ()):
            continue
        child_ids, child_scores = node_scores(model, node_id, fv)
        for child, score in zip(child_ids, child_scores):
            scores[child] = max(scores.get(child, 0.0), float(score))
        for child in select(mode, child_ids, child_scores):
            selected.add(child)
            queue.append(child)
    return selected, scores


def classify_one(model, text, mode=None, cve_id=""):
    """One record through the hierarchy, or one-shot for the flat baseline."""
    if not text.strip():
        raise ValidationError("empty description")
    if mode is None:
        mode = threshold(model.config.decision_threshold)
    fv = encode(preprocess(text, model.assets.stopwords, model.assets.synonyms), model.dictionary)
    if model.kind == "flat":
        flat = model.classifiers[model.taxonomy.root_id]
        raw = sigmoid(forward_logits(flat.weights, fv))
        selected = set(select(mode, flat.child_ids, raw))
        scores = {c: float(s) for c, s in zip(flat.child_ids, raw)}
    else:
        selected, scores = descend(model, fv, mode)
    paths = _maximal_paths(model.taxonomy, selected)
    return Prediction(
        cve_id=cve_id,
        candidates=frozenset(node for path in paths for node in path),
        paths=paths,
        scores=scores,
        mode=mode.label(),
    )


def reject_cycles(nodes):
    """ValidationError naming a cycle of parent edges among ``nodes``
    (``CweNode``s by id): a depth-first search over parent edges, where a
    node still on the stack is a cycle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node_id: WHITE for node_id in nodes}

    def visit(start):
        stack = [(start, list(nodes[start].parent_ids))]
        color[start] = GRAY
        trail = [start]
        while stack:
            node_id, pending = stack[-1]
            if pending:
                nxt = pending.pop()
                if color[nxt] == GRAY:
                    cycle = trail[trail.index(nxt):] + [nxt]
                    raise ValidationError("cycle detected: " + " -> ".join(cycle))
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    trail.append(nxt)
                    stack.append((nxt, list(nodes[nxt].parent_ids)))
            else:
                stack.pop()
                trail.pop()
                color[node_id] = BLACK

    for node_id in nodes:
        if color[node_id] == WHITE:
            visit(node_id)


def internal_nodes(taxonomy):
    """Node ids that have children, by Kahn's algorithm from the virtual root."""
    waiting = {n: 0 for n in taxonomy.children}
    for kids in taxonomy.children.values():
        for kid in kids:
            waiting[kid] += 1
    order, ready = [], [taxonomy.root_id]
    while ready:
        node_id = ready.pop()
        order.append(node_id)
        for kid in taxonomy.children.get(node_id, ()):
            waiting[kid] -= 1
            if waiting[kid] == 0:
                ready.append(kid)
    return [n for n in order if taxonomy.children.get(n)]


def ancestors(taxonomy, node_id):
    """All proper ancestors but the virtual root, by a depth-first search."""
    seen = set()
    stack = list(taxonomy.nodes[node_id].parent_ids)
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(taxonomy.nodes[cur].parent_ids)
    return frozenset(seen)


def descendants(taxonomy, node_id):
    """All proper descendants, by a depth-first search."""
    seen = set()
    stack = list(taxonomy.children.get(node_id, ()))
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(taxonomy.children.get(cur, ()))
    return frozenset(seen)


def adam_step(weights, grads, state, cfg):
    """One bias-corrected Adam update; returns new weights and a new state."""
    t = state.step_count + 1
    m = cfg.adam_beta1 * state.first_moment + (1.0 - cfg.adam_beta1) * grads
    v = cfg.adam_beta2 * state.second_moment + (1.0 - cfg.adam_beta2) * grads**2
    m_hat = m / (1.0 - cfg.adam_beta1**t)
    v_hat = v / (1.0 - cfg.adam_beta2**t)
    new_weights = weights - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon)
    return new_weights, AdamState(first_moment=m, second_moment=v, step_count=t)


def train_node(clf, data, cfg):
    """Mini-batch Adam on the full parameters of ``clf`` over the rows of the
    batch ``data``: the dense fit."""
    if data.size == 0:
        raise ConfigurationError(f"{clf.node_id}: no training examples")
    work = replace(clf)
    states = {name: AdamState.zeros_like(value) for name, value in clf.params().items()}
    rng = np.random.default_rng(cfg.seed)
    n = data.size
    losses = []
    best = np.inf
    stale = 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = data.take(order[start : start + cfg.batch_size])
            loss, grads = work.loss_and_grads(batch)
            total += loss * batch.size
            for name, grad in grads.items():
                value, states[name] = adam_step(getattr(work, name), grad, states[name], cfg)
                setattr(work, name, value)
        epoch_loss = total / n
        if not math.isfinite(epoch_loss) or not all(
            np.isfinite(value).all() for value in work.params().values()
        ):
            raise TrainingError(f"{clf.node_id}: non-finite loss or weights after epoch {epoch}")
        losses.append(epoch_loss)
        if epoch_loss < best - LOSS_PLATEAU_DELTA:
            best = epoch_loss
            stale = 0
        else:
            stale += 1
            if cfg.early_stop_patience > 0 and stale >= cfg.early_stop_patience:
                break
    return work, losses


@dataclass(frozen=True)
class ClassDocument:
    """A class document as term strings: counts and per-term source df."""

    node_id: str
    term_counts: dict[str, int]
    max_count: int = field(init=False)
    source_doc_count: int = 1
    source_term_df: dict[str, int] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "max_count", max(self.term_counts.values()) if self.term_counts else 0
        )

    def __contains__(self, term):
        return term in self.term_counts

    def doc_frequency(self, term):
        if self.source_term_df is not None:
            return self.source_term_df.get(term, 0)
        return 1 if term in self.term_counts else 0


def build_class_documents(corpus, taxonomy, dictionary, assets):
    """Per node, per child, the string class document of its subtree's texts."""

    def tokens(text):
        return preprocess(text, assets.stopwords, assets.synonyms)

    node_sources = {n: [] for n in taxonomy.nodes}
    for node_id, node in taxonomy.nodes.items():
        if node_id != taxonomy.root_id and node.text():
            node_sources[node_id].append(count_terms(tokens(node.text())))
    for record in corpus:
        labels = [label for label in record.cwe_labels if label in taxonomy]
        if labels:
            counts = count_terms(tokens(record.description))
            for label in labels:
                node_sources[label].append(counts)

    docs = {}
    for node_id, kids in taxonomy.children.items():
        if not kids:
            continue
        per_child = {}
        for child in kids:
            term_counts, term_df, n_sources = Counter(), Counter(), 0
            for member in {child, *taxonomy.descendants(child)}:
                for source in node_sources[member]:
                    n_sources += 1
                    for term, count in source.items():
                        if term in dictionary:
                            term_counts[term] += count
                            term_df[term] += 1
            per_child[child] = ClassDocument(child, dict(term_counts),
                                             source_doc_count=max(n_sources, 1),
                                             source_term_df=dict(term_df))
        docs[node_id] = per_child
    return docs


def _dictionary_entries(values, dictionary):
    pairs = [(dictionary.index[t], v) for t, v in values.items() if t in dictionary.index]
    positions = np.array([p for p, _ in pairs], dtype=np.intp)
    return positions, np.array([v for _, v in pairs], dtype=np.int64)


def init_weights(children, dictionary, class_docs):
    """TF-IDF initial weights from string class documents."""
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


def class_document_arrays(doc, dictionary):
    """The (positions, counts, df) arrays of a string class document's
    dictionary terms, in position order."""
    entries = sorted(
        (dictionary.index[t], count, doc.doc_frequency(t))
        for t, count in doc.term_counts.items()
        if t in dictionary.index and count > 0
    )
    table = np.array(entries, dtype=np.int64).reshape(len(entries), 3)
    return table[:, 0], table[:, 1], table[:, 2]


def build_dictionary(corpus, taxonomy, assets, min_count):
    """The dictionary of the training texts, totalled n-gram by n-gram: the
    descriptions of the records with a label in the taxonomy, and the CWE texts."""
    texts = [r.description for r in corpus if any(label in taxonomy for label in r.cwe_labels)]
    texts += [n.text() for n_id, n in taxonomy.nodes.items()
              if n_id != taxonomy.root_id and n.text()]
    totals = Counter()
    for text in texts:
        tokens = preprocess(text, assets.stopwords, assets.synonyms)
        for n in (1, 2, 3):
            for term in ngrams(tokens, n):
                totals[term] += 1
    kept = sorted(((t, c) for t, c in totals.items() if c >= min_count),
                  key=lambda item: (-item[1], item[0]))
    return Dictionary(index={t: i for i, (t, _) in enumerate(kept)}, counts=dict(kept),
                      min_count=min_count)


def _labeled(corpus, taxonomy):
    """(record, labels on any of its root-to-label paths) per record with a resolvable label."""
    out = []
    for record in corpus:
        labels = [label for label in record.cwe_labels if label in taxonomy]
        if labels:
            on_path = set(labels)
            for label in labels:
                on_path |= taxonomy.ancestors(label)
            out.append((record, on_path))
    return out


def _positions(record, dictionary, assets):
    tokens = preprocess(record.description, assets.stopwords, assets.synonyms)
    return tuple(encode(tokens, dictionary).tolist())


def assemble_training_sets(corpus, taxonomy, dictionary, assets):
    """Per internal node, its (positions, targets) examples, one per record
    marking a child of the node on its paths, in corpus order."""
    sets = {}
    for record, on_path in _labeled(corpus, taxonomy):
        positions = _positions(record, dictionary, assets)
        for node_id, kids in taxonomy.children.items():
            if not kids or (node_id != taxonomy.root_id and node_id not in on_path):
                continue
            targets = [1.0 if c in on_path else 0.0 for c in kids]
            if any(targets):
                sets.setdefault(node_id, []).append((positions, targets))
    return sets


def flat_training_set(corpus, taxonomy, dictionary, assets):
    """The flat baseline's classes and (positions, targets) examples."""
    labeled = _labeled(corpus, taxonomy)
    classes = sorted(set().union(*(on_path for _, on_path in labeled)), key=_cwe_sort_key)
    examples = [(_positions(record, dictionary, assets),
                 [1.0 if c in on_path else 0.0 for c in classes])
                for record, on_path in labeled]
    return tuple(classes), examples


_SPLIT_RE = re.compile(r"[^a-z0-9-]+")
_HAS_LETTER_RE = re.compile(r"[a-z]")


def tokenize(text):
    """Split on runs of characters other than letters, digits and hyphens,
    strip edge hyphens, and drop the tokens without a letter."""
    tokens = []
    for raw in _SPLIT_RE.split(text.lower()):
        tok = raw.strip("-")
        if tok and _HAS_LETTER_RE.search(tok):
            tokens.append(tok)
    return tokens


def ngram_set(tokens):
    """Unique terms over all 1-, 2-, and 3-gram windows."""
    terms = set()
    for n in NGRAM_SIZES:
        terms.update(ngrams(tokens, n))
    return terms


def encode(tokens, dictionary):
    """Ascending positions of the dictionary terms among every n-gram of ``tokens``."""
    index = dictionary.index
    positions = np.fromiter((index[t] for t in ngram_set(tokens) if t in index),
                            dtype=np.int64)
    positions.sort()
    return positions


STEP2_RULES = (
    ("ational", "ate"), ("fulness", "ful"), ("iveness", "ive"), ("ization", "ize"),
    ("ousness", "ous"), ("biliti", "ble"), ("lessli", "less"), ("tional", "tion"),
    ("alism", "al"), ("aliti", "al"), ("ation", "ate"), ("entli", "ent"),
    ("fulli", "ful"), ("iviti", "ive"), ("ousli", "ous"), ("abli", "able"),
    ("alli", "al"), ("anci", "ance"), ("ator", "ate"), ("enci", "ence"),
    ("izer", "ize"), ("bli", "ble"),
)
STEP3_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("alize", "al"), ("icate", "ic"),
    ("iciti", "ic"), ("ical", "ic"), ("ness", ""), ("ful", ""),
)
STEP4_SUFFIXES = (
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ism", "ate",
    "iti", "ous", "ive", "ize", "ion", "al", "er", "ic",
)
# Every ending a step of the stemmer matches, for building test words.
STEM_SUFFIXES = tuple(sorted(
    {suffix for suffix, _ in STEP2_RULES + STEP3_RULES} | set(STEP4_SUFFIXES)
    | {repl for _, repl in STEP2_RULES + STEP3_RULES if repl}
    | {"'s'", "'s", "'", "sses", "ied", "ies", "us", "ss", "s", "eedly", "eed", "ingly",
       "edly", "ing", "ed", "y", "ogi", "li", "ative", "e", "l", "ll", "at", "bl", "iz"}
    | set(_DOUBLES)
))


def _is_vowel(ch):
    return ch in _VOWELS


def _r1_start(word):
    for prefix in ("gener", "commun", "arsen"):
        if word.startswith(prefix):
            return len(prefix)
    for i in range(1, len(word)):
        if not _is_vowel(word[i]) and _is_vowel(word[i - 1]):
            return i + 1
    return len(word)


def _region_start(word, begin):
    for i in range(begin + 1, len(word)):
        if not _is_vowel(word[i]) and _is_vowel(word[i - 1]):
            return i + 1
    return len(word)


def _ends_short_syllable(word):
    if len(word) == 2:
        return _is_vowel(word[0]) and not _is_vowel(word[1])
    if len(word) >= 3:
        return (_is_vowel(word[-2]) and not _is_vowel(word[-1]) and word[-1] not in "wxY"
                and not _is_vowel(word[-3]))
    return False


def stem(token):
    """Porter2 with each step an ordered chain of ``endswith`` tests."""
    word = token
    if len(word) <= 2:
        return word
    if word in _EXCEPTIONS:
        return _EXCEPTIONS[word]
    if word.startswith("'"):
        word = word[1:]
        if len(word) <= 2:
            return word

    chars = list(word)
    if chars[0] == "y":
        chars[0] = "Y"
    for i in range(1, len(chars)):
        if chars[i] == "y" and chars[i - 1] in _VOWELS:
            chars[i] = "Y"
    word = "".join(chars)

    r1 = _r1_start(word)
    r2 = _region_start(word, r1)

    def in_r1(suffix):
        return len(word) - len(suffix) >= r1

    def in_r2(suffix):
        return len(word) - len(suffix) >= r2

    for suffix in ("'s'", "'s", "'"):
        if word.endswith(suffix):
            word = word[: -len(suffix)]
            break

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
                    elif r1 >= len(word) and _ends_short_syllable(word):
                        word += "e"
                break

    if len(word) > 2 and word[-1] in "yY" and not _is_vowel(word[-2]):
        word = word[:-1] + "i"

    for suffix, repl in STEP2_RULES:
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

    for suffix, repl in STEP3_RULES:
        if word.endswith(suffix):
            if in_r1(suffix):
                word = word[: -len(suffix)] + repl
            break
    else:
        if word.endswith("ative"):
            if in_r1("ative") and in_r2("ative"):
                word = word[:-5]

    for suffix in STEP4_SUFFIXES:
        if word.endswith(suffix):
            if in_r2(suffix):
                if suffix == "ion":
                    if len(word) >= 4 and word[-4] in "st":
                        word = word[:-3]
                else:
                    word = word[: -len(suffix)]
            break

    if word.endswith("e"):
        pos = len(word) - 1
        if pos >= r2 or (pos >= r1 and not _ends_short_syllable(word[:-1])):
            word = word[:-1]
    elif word.endswith("l"):
        if len(word) - 1 >= r2 and len(word) >= 2 and word[-2] == "l":
            word = word[:-1]

    return word.replace("Y", "y")
