import json

import numpy as np
import pytest

from cwemap.errors import FormatError, ValidationError
from cwemap.evaluation import (
    evaluate,
    format_report_table,
    load_predictions,
    split_corpus,
)
from cwemap.hierarchy import Prediction
from cwemap.ingest import CveRecord

from conftest import make_record
import oracle
from oracle import is_correct, maximal_paths


def pred(cve_id, paths, mode="threshold:0.75", extra_scores=None):
    paths = tuple(tuple(p) for p in paths)
    candidates = frozenset(n for p in paths for n in p)
    scores = {n: 0.9 for n in candidates}
    scores.update(extra_scores or {})
    return Prediction(
        cve_id=cve_id, candidates=candidates, paths=paths, scores=scores, mode=mode
    )


CHAIN_PATH = ("CWE-707", "CWE-74", "CWE-77", "CWE-78")


class TestIsCorrect:
    def test_full_path_is_fine_and_coarse_correct(self, chain_taxonomy):
        p = pred("CVE-1999-0001", [CHAIN_PATH])
        assert is_correct(p, {"CWE-78"}, chain_taxonomy, "fine")
        assert is_correct(p, {"CWE-78"}, chain_taxonomy, "coarse")

    def test_partial_path_is_coarse_only(self, chain_taxonomy):
        p = pred("CVE-1999-0001", [("CWE-707", "CWE-74")])
        assert not is_correct(p, {"CWE-78"}, chain_taxonomy, "fine")
        assert is_correct(p, {"CWE-78"}, chain_taxonomy, "coarse")

    def test_disjoint_candidates_are_wrong_in_both_modes(self, dag_taxonomy):
        p = pred("CVE-1999-0001", [("CWE-435", "CWE-22")])
        assert not is_correct(p, {"CWE-664"}, dag_taxonomy, "fine") or True
        # CWE-664 is a parent of CWE-22, so use a label with truly disjoint path
        q = pred("CVE-1999-0002", [("CWE-435",)])
        assert not is_correct(q, {"CWE-664"}, dag_taxonomy, "fine")
        assert not is_correct(q, {"CWE-664"}, dag_taxonomy, "coarse")

    def test_prediction_deeper_than_label_counts_as_fine(self, chain_taxonomy):
        p = pred("CVE-1999-0001", [CHAIN_PATH])
        assert is_correct(p, {"CWE-77"}, chain_taxonomy, "fine")

    def test_multi_label_any_satisfies(self, chain_taxonomy):
        p = pred("CVE-1999-0001", [("CWE-707",)])
        assert is_correct(p, {"CWE-707", "CWE-78"}, chain_taxonomy, "coarse")

    def test_label_via_either_parent_path(self, dag_taxonomy):
        p = pred("CVE-1999-0001", [("CWE-664", "CWE-22")])
        assert is_correct(p, {"CWE-22"}, dag_taxonomy, "fine")

    def test_unresolvable_labels_error(self, chain_taxonomy):
        p = pred("CVE-1999-0001", [CHAIN_PATH])
        with pytest.raises(ValidationError):
            is_correct(p, {"CWE-9999"}, chain_taxonomy, "fine")

    def test_fine_implies_coarse(self, chain_taxonomy, dag_taxonomy):
        cases = [
            (chain_taxonomy, pred("CVE-1999-0001", [CHAIN_PATH]), {"CWE-78"}),
            (chain_taxonomy, pred("CVE-1999-0002", [("CWE-707",)]), {"CWE-707"}),
            (dag_taxonomy, pred("CVE-1999-0003", [("CWE-435", "CWE-22")]), {"CWE-22"}),
        ]
        for taxonomy, p, labels in cases:
            if is_correct(p, labels, taxonomy, "fine"):
                assert is_correct(p, labels, taxonomy, "coarse")


class TestEvaluate:
    def records_and_preds(self, chain_taxonomy):
        records = [
            make_record(1, "a", ["CWE-78"]),
            make_record(2, "b", ["CWE-78"]),
            make_record(3, "c", ["CWE-78"]),
            make_record(4, "d", ["CWE-78"]),
        ]
        predictions = [
            pred("CVE-1999-0001", [CHAIN_PATH]),
            pred("CVE-1999-0002", [CHAIN_PATH]),
            pred("CVE-1999-0003", [CHAIN_PATH]),
            pred("CVE-1999-0004", []),
        ]
        return records, predictions

    def test_accuracy_and_error(self, chain_taxonomy):
        records, predictions = self.records_and_preds(chain_taxonomy)
        report = evaluate(predictions, records, chain_taxonomy, "fine")
        assert report.accuracy == pytest.approx(0.75)
        assert report.error == pytest.approx(0.25)
        assert report.error == pytest.approx(1.0 - report.accuracy, abs=1e-12)
        assert report.n_instances == 4

    def test_macro_recall_averages_per_class(self, dag_taxonomy):
        # class CWE-435: 2/2 correct; class CWE-664: 0/2
        records = [
            make_record(1, "a", ["CWE-435"]),
            make_record(2, "b", ["CWE-435"]),
            make_record(3, "c", ["CWE-664"]),
            make_record(4, "d", ["CWE-664"]),
        ]
        predictions = [
            pred("CVE-1999-0001", [("CWE-435",)]),
            pred("CVE-1999-0002", [("CWE-435",)]),
            pred("CVE-1999-0003", [("CWE-435",)]),
            pred("CVE-1999-0004", [("CWE-435",)]),
        ]
        report = evaluate(predictions, records, dag_taxonomy, "fine")
        assert report.recall == pytest.approx(0.5)
        assert report.per_class["CWE-435"].tp == 2
        assert report.per_class["CWE-664"].fn == 2

    def test_fp_charged_to_deepest_candidate(self, chain_taxonomy):
        records = [make_record(1, "a", ["CWE-78"])]
        predictions = [pred("CVE-1999-0001", [("CWE-707", "CWE-74")])]
        report = evaluate(predictions, records, chain_taxonomy, "fine")
        assert report.per_class["CWE-74"].fp == 1

    def test_no_fp_when_nothing_predicted(self, chain_taxonomy):
        records = [make_record(1, "a", ["CWE-78"])]
        predictions = [pred("CVE-1999-0001", [])]
        report = evaluate(predictions, records, chain_taxonomy, "fine")
        assert all(t.fp == 0 for t in report.per_class.values())

    def test_exact_depth_predictions_have_zero_deeper_fraction(self, chain_taxonomy):
        records = [make_record(1, "a", ["CWE-78"]), make_record(2, "b", ["CWE-78"])]
        predictions = [
            pred("CVE-1999-0001", [CHAIN_PATH]),
            pred("CVE-1999-0002", [CHAIN_PATH]),
        ]
        report = evaluate(predictions, records, chain_taxonomy, "fine")
        assert report.deeper_than_label_fraction == 0.0

    def test_deeper_than_label_fraction_counts_descendants(self, chain_taxonomy):
        records = [make_record(1, "a", ["CWE-77"])]
        predictions = [pred("CVE-1999-0001", [CHAIN_PATH])]
        report = evaluate(predictions, records, chain_taxonomy, "fine")
        assert report.accuracy == 1.0
        assert report.deeper_than_label_fraction == 1.0

    def test_f1_identity(self, chain_taxonomy):
        records, predictions = self.records_and_preds(chain_taxonomy)
        report = evaluate(predictions, records, chain_taxonomy, "fine")
        if report.precision + report.recall > 0:
            expected = 2 * report.precision * report.recall / (report.precision + report.recall)
            assert report.f1 == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariance(self, chain_taxonomy):
        records, predictions = self.records_and_preds(chain_taxonomy)
        forward = evaluate(predictions, records, chain_taxonomy, "coarse")
        backward = evaluate(list(reversed(predictions)), list(reversed(records)),
                            chain_taxonomy, "coarse")
        assert forward.to_json_dict() == backward.to_json_dict()

    def test_coarse_accuracy_at_least_fine(self, chain_taxonomy):
        records = [
            make_record(1, "a", ["CWE-78"]),
            make_record(2, "b", ["CWE-78"]),
            make_record(3, "c", ["CWE-78"]),
        ]
        predictions = [
            pred("CVE-1999-0001", [CHAIN_PATH]),
            pred("CVE-1999-0002", [("CWE-707", "CWE-74")]),
            pred("CVE-1999-0003", []),
        ]
        fine = evaluate(predictions, records, chain_taxonomy, "fine")
        coarse = evaluate(predictions, records, chain_taxonomy, "coarse")
        assert coarse.accuracy >= fine.accuracy
        assert fine.accuracy == pytest.approx(1 / 3)
        assert coarse.accuracy == pytest.approx(2 / 3)

    def test_empty_test_set_rejected(self, chain_taxonomy):
        with pytest.raises(ValidationError):
            evaluate([], [], chain_taxonomy, "fine")

    def test_missing_prediction_rejected(self, chain_taxonomy):
        records = [make_record(1, "a", ["CWE-78"])]
        with pytest.raises(ValidationError, match="no prediction"):
            evaluate([], records, chain_taxonomy, "fine")

    def test_all_labels_unresolvable_rejected(self, chain_taxonomy):
        records = [make_record(1, "a", ["CWE-9999"])]
        predictions = [pred("CVE-1999-0001", [CHAIN_PATH])]
        with pytest.raises(ValidationError, match="resolvable"):
            evaluate(predictions, records, chain_taxonomy, "fine")


class TestRandomizedIdentities:
    def test_fine_implies_coarse_on_randomized_predictions(self, dag_taxonomy, chain_taxonomy):
        rng = np.random.default_rng(7)
        taxonomies = [dag_taxonomy, chain_taxonomy]
        for trial in range(300):
            taxonomy = taxonomies[trial % 2]
            ids = [n for n in taxonomy.nodes if n != taxonomy.root_id]
            label = ids[rng.integers(len(ids))]
            # random subset of maximal paths as prediction
            all_nodes = list(ids)
            selected = {n for n in all_nodes if rng.random() < 0.5}
            paths = maximal_paths(taxonomy, selected)
            p = pred("CVE-1999-0001", paths)
            fine = is_correct(p, {label}, taxonomy, "fine")
            coarse = is_correct(p, {label}, taxonomy, "coarse")
            if fine:
                assert coarse


class TestStreamEquivalence:
    def test_report_from_persisted_predictions_matches_live(self, tmp_path, chain_taxonomy):
        records = [
            make_record(1, "a", ["CWE-78"]),
            make_record(2, "b", ["CWE-77"]),
            make_record(3, "c", ["CWE-78"]),
        ]
        predictions = [
            pred("CVE-1999-0001", [CHAIN_PATH]),
            pred("CVE-1999-0002", [("CWE-707", "CWE-74")]),
            pred("CVE-1999-0003", []),
        ]
        live = evaluate(predictions, records, chain_taxonomy, "coarse")
        path = tmp_path / "preds.jsonl"
        # Written as the classify command's lines are specified.
        path.write_text("".join(json.dumps(oracle.to_json_dict(p), ensure_ascii=False) + "\n"
                                for p in predictions), encoding="utf-8")
        reloaded = load_predictions(path)
        replayed = evaluate(reloaded, records, chain_taxonomy, "coarse")
        assert replayed.to_json_dict() == live.to_json_dict()


    def test_repeated_id_rejected_naming_the_line(self, tmp_path):
        line = json.dumps(oracle.to_json_dict(pred("CVE-1999-0001", [CHAIN_PATH])))
        other = json.dumps(oracle.to_json_dict(pred("CVE-1999-0002", [])))
        path = tmp_path / "preds.jsonl"
        path.write_text("\n".join([line, other, "", line]) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"preds\.jsonl:4: duplicate prediction id"):
            load_predictions(path)


class TestSplit:
    def test_deterministic_partition(self):
        records = [make_record(n, f"text {n}") for n in range(1, 101)]
        train1, test1 = split_corpus(records, 0.85, seed=5)
        train2, test2 = split_corpus(records, 0.85, seed=5)
        assert train1 == train2 and test1 == test2
        assert len(train1) == 85 and len(test1) == 15
        assert set(r.id for r in train1).isdisjoint(r.id for r in test1)

    def test_different_seed_different_partition(self):
        records = [make_record(n, f"text {n}") for n in range(1, 101)]
        train1, _ = split_corpus(records, 0.85, seed=5)
        train2, _ = split_corpus(records, 0.85, seed=6)
        assert train1 != train2

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            split_corpus([], 1.5, seed=0)


def test_format_report_table_rows(chain_taxonomy):
    records = [make_record(1, "a", ["CWE-78"])]
    predictions = [pred("CVE-1999-0001", [CHAIN_PATH])]
    fine = evaluate(predictions, records, chain_taxonomy, "fine")
    coarse = evaluate(predictions, records, chain_taxonomy, "coarse")
    table = format_report_table(fine, coarse)
    lines = table.splitlines()
    assert len(lines) == 6
    for row_name in ("Accuracy", "Error rate", "Recall", "Precision", "F1-score"):
        assert any(line.startswith(row_name) for line in lines)
