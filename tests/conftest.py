import os

import numpy as np
import pytest
from hypothesis import settings

from cwemap.hierarchy import PrepAssets
from cwemap.ingest import CveRecord, CweNode, build_taxonomy
from cwemap.textprep import SynonymTable

# CI runs with HYPOTHESIS_PROFILE=ci: a failing property prints the blob that
# reproduces it (``@reproduce_failure``), and no example is timed.
settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def empty_assets() -> PrepAssets:
    return PrepAssets(stopwords=frozenset(), synonyms=SynonymTable.empty())


@pytest.fixture(scope="session")
def chain_taxonomy():
    """CWE-707 -> CWE-74 -> CWE-77 -> CWE-78, each node carrying real text."""
    return build_taxonomy(
        [
            CweNode(
                id="CWE-707",
                name="improper neutralization",
                description="the product does not neutralize messages before processing",
            ),
            CweNode(
                id="CWE-74",
                name="injection",
                description="injection of special elements into output used downstream",
                parent_ids=frozenset({"CWE-707"}),
            ),
            CweNode(
                id="CWE-77",
                name="command injection",
                description="special elements could modify the intended command",
                parent_ids=frozenset({"CWE-74"}),
            ),
            CweNode(
                id="CWE-78",
                name="os command injection",
                description="special elements could modify the intended operating system command",
                parent_ids=frozenset({"CWE-77"}),
            ),
        ]
    )


@pytest.fixture(scope="session")
def dag_taxonomy():
    """CWE-22 reachable from both CWE-435 and CWE-664."""
    return build_taxonomy(
        [
            CweNode(id="CWE-435", name="improper interaction",
                    description="interaction between multiple entities"),
            CweNode(id="CWE-664", name="improper control",
                    description="control of a resource through its lifetime"),
            CweNode(
                id="CWE-22",
                name="path traversal",
                description="pathname not limited to the restricted directory",
                parent_ids=frozenset({"CWE-435", "CWE-664"}),
            ),
        ]
    )


def make_record(n: int, description: str, labels=()) -> CveRecord:
    return CveRecord(
        id=f"CVE-1999-{n:04d}", description=description, cwe_labels=frozenset(labels)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(42)
