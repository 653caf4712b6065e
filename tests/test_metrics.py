import json

import pytest

from rexl.corpus import NO_RELATION
from rexl.evalmetrics import (
    EvalError,
    ec_overlap,
    load_annotations,
    plausibility,
    rc_micro,
)


class TestRelationMicro:
    def test_hand_counted_fixture(self):
        # 3 exact hits, 1 positive call on a gold negative, 2 missed positives
        gold = {
            "a": "per:spouse", "b": "per:spouse", "c": "per:children",
            "d": NO_RELATION, "e": "per:spouse", "f": "per:children",
        }
        predicted = {
            "a": "per:spouse", "b": "per:spouse", "c": "per:children",
            "d": "per:spouse", "e": NO_RELATION, "f": NO_RELATION,
        }
        report = rc_micro(predicted, gold)
        assert report.support["tp"] == 3
        assert report.support["fp"] == 1
        assert report.support["fn"] == 2
        assert report.precision == 0.75
        assert report.recall == 0.6
        assert abs(report.f1 - 2 / 3) < 1e-12

    def test_wrong_label_on_positive_counts_twice(self):
        gold = {"a": "per:spouse"}
        predicted = {"a": "per:children"}
        report = rc_micro(predicted, gold)
        assert report.support == {"tp": 0, "fp": 1, "fn": 1, "instances": 1}

    def test_all_negative_predictions_score_zero_not_nan(self):
        gold = {"a": "per:spouse", "b": NO_RELATION}
        predicted = {"a": NO_RELATION, "b": NO_RELATION}
        report = rc_micro(predicted, gold)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_perfect_predictions(self):
        gold = {"a": "per:spouse", "b": NO_RELATION}
        report = rc_micro(dict(gold), gold)
        assert report.f1 == 1.0
        assert report.support["instances"] == 2

    def test_id_mismatch_rejected(self):
        with pytest.raises(EvalError, match="mismatch"):
            rc_micro({"a": NO_RELATION}, {"b": NO_RELATION})


class TestRationaleOverlap:
    def test_macro_average_over_scored_instances(self):
        gold = {"a": [1, 2], "b": [3]}
        predicted = {"a": [1, 2], "b": [4]}
        report = ec_overlap(predicted, gold)
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5
        assert report.support["instances"] == 2

    def test_empty_gold_set_is_skipped(self):
        report = ec_overlap({"a": [1], "b": [2]}, {"a": [1], "b": []})
        assert report.support["instances"] == 1
        assert report.f1 == 1.0

    def test_missing_prediction_scores_zero(self):
        report = ec_overlap({}, {"a": [1, 2]})
        assert report.f1 == 0.0
        assert report.support["instances"] == 1

    def test_missing_predictions_are_counted(self):
        # an empty prediction is present, an absent one is missing; ids with
        # an empty gold set are not scored, so they are never missing
        report = ec_overlap({"a": [], "b": [3]}, {"a": [1], "b": [3], "c": [4], "d": []})
        assert report.support == {"instances": 3, "missing": 1}
        assert report.f1 == 1 / 3
        assert "missing" in report.to_text()
        assert ec_overlap({}, {}).support == {"instances": 0, "missing": 0}

    def test_nothing_to_score(self):
        report = ec_overlap({"a": [1]}, {})
        assert report.support["instances"] == 0
        assert report.f1 == 0.0

    def test_order_and_duplicates_do_not_matter(self):
        a = ec_overlap({"a": [2, 1, 2]}, {"a": [1, 2]})
        b = ec_overlap({"a": [1, 2]}, {"a": [2, 1]})
        assert a.to_dict() == b.to_dict()


class TestPlausibility:
    def test_better_annotator_wins_per_instance(self):
        annotations = {"a": ([1, 2], [7, 8])}
        report = plausibility({"a": [1, 2]}, annotations)
        assert report.f1 == 1.0

    def test_scores_average_across_instances(self):
        annotations = {"a": ([1], [2]), "b": ([3], [9])}
        report = plausibility({"a": [1], "b": [8]}, annotations)
        assert report.f1 == 0.5
        assert report.support["instances"] == 2

    def test_missing_prediction_rejected(self):
        with pytest.raises(EvalError, match="no prediction"):
            plausibility({}, {"a": ([1], [2])})

    def test_single_annotator_rejected(self):
        with pytest.raises(EvalError, match="two annotators"):
            plausibility({"a": [1]}, {"a": ([1],)})


class TestAnnotationFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        rows = [
            {"id": "x", "tokens_a": [1, 2], "tokens_b": [2]},
            {"id": "y", "tokens_a": [], "tokens_b": [0]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = load_annotations(path)
        assert out == {"x": ((1, 2), (2,)), "y": ((), (0,))}

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        row = json.dumps({"id": "x", "tokens_a": [1], "tokens_b": [2]})
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(EvalError, match="duplicate"):
            load_annotations(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"id": "x", "tokens_a": [1]}) + "\n")
        with pytest.raises(EvalError, match="tokens_b"):
            load_annotations(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        good = json.dumps({"id": "x", "tokens_a": [1], "tokens_b": [2]})
        path.write_text(good + "\nnot json\n")
        with pytest.raises(EvalError, match=":2: not valid JSON"):
            load_annotations(path)


class TestReportFormat:
    def test_text_layout_is_stable(self):
        report = rc_micro({"a": "per:spouse"}, {"a": "per:spouse"})
        text = report.to_text()
        assert text.splitlines()[0] == "[relation-micro]"
        assert "precision  1.0000" in text
        assert "f1         1.0000" in text

    def test_dict_sorts_support_keys(self):
        report = rc_micro({"a": "per:spouse"}, {"a": "per:spouse"})
        assert list(report.to_dict()["support"]) == sorted(report.support)
