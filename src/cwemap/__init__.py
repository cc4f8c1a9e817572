"""cwemap: hierarchical CVE-to-CWE text classification.

Pipeline: five-stage text preprocessing, 1/2/3-gram dictionary features,
TF-IDF-initialized single-layer classifiers (one per CWE taxonomy node),
top-down multi-label inference, and fine/coarse-grain evaluation.  The
flat and two-layer ablation baselines are other kinds of the same ``Model``.
"""

from .errors import (
    ConfigurationError,
    CwemapError,
    FormatError,
    IntegrityError,
    TrainingError,
    ValidationError,
    VersionError,
)
from .features import Dictionary, build_dictionary, encode
from .hierarchy import (
    Model,
    Prediction,
    Predictions,
    PrepAssets,
    SelectionMode,
    assemble_training_sets,
    classify,
    threshold,
    top_k,
    train_hierarchy,
)
from .ingest import (
    CveRecord,
    CweNode,
    Taxonomy,
    import_nvd_feed,
    load_cve_corpus,
    load_stopwords,
    load_synonyms,
    load_taxonomy,
    paths_to_root,
)
from .netcore import (
    AdamState,
    CsrBatch,
    NodeClassifier,
    RowBlock,
    TrainConfig,
    TwoLayerClassifier,
    adam_step,
    forward_scores,
    gradient,
    train_node,
)
from .scoring import ClassDocument, init_weights
from .evaluation import EvalReport, evaluate, split_corpus
from .modelstore import ModelManifest, fingerprint, load, save
from .textprep import SynonymTable, apply_synonyms, preprocess, stem, tokenize

__version__ = "0.1.0"
