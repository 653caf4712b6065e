import json

import pytest

from rexl.io import (
    IOFormatError,
    RunManifest,
    load_predictions,
    load_train_config,
    save_predictions,
)
from rexl.neural.model import Prediction
from rexl.trainer import TrainingError


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.jsonl"
        preds = [
            Prediction("a", "per:spouse", (4, 1), 0.9),
            Prediction("b", "no_relation", (), None),
        ]
        save_predictions(path, preds)
        back = load_predictions(path)
        assert back["a"]["rationale"] == [1, 4]  # stored sorted
        assert back["b"]["gate_prob"] is None

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        row = json.dumps({"id": "a", "label": "x", "rationale": []})
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(IOFormatError, match="duplicate"):
            load_predictions(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"id": "a", "label": "x"}) + "\n")
        with pytest.raises(IOFormatError, match="rationale"):
            load_predictions(path)

    @pytest.mark.parametrize("rationale", [
        "3", [1, -2], [1.0], [True], [2, 2], None,
    ], ids=["not a list", "negative", "float", "bool", "repeated", "null"])
    def test_bad_rationale_rejected_with_file_line_and_id(self, tmp_path, rationale):
        path = tmp_path / "p.jsonl"
        good = json.dumps({"id": "a", "label": "x", "rationale": [0, 3]})
        bad = json.dumps({"id": "b", "label": "x", "rationale": rationale})
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(IOFormatError) as err:
            load_predictions(path)
        assert str(err.value).startswith(f"{path}:2: 'b': rationale")

    @pytest.mark.parametrize("line", ["5", "[]", '"a"', "null"])
    def test_line_that_is_not_an_object_rejected(self, tmp_path, line):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"id": "a", "label": "x", "rationale": []}) + "\n" + line + "\n")
        with pytest.raises(IOFormatError, match=":2: record is not an object"):
            load_predictions(path)

    def test_bad_json_reports_the_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(IOFormatError, match=":1:"):
            load_predictions(path)


class TestTrainConfigFile:
    def test_loads_nested_model_settings(self, tmp_path):
        path = tmp_path / "t.yaml"
        path.write_text("total_epochs: 4\nmodel:\n  d_model: 32\n  n_heads: 4\n")
        cfg = load_train_config(path)
        assert cfg.total_epochs == 4
        assert cfg.model.d_model == 32

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "t.yaml"
        path.write_text("")
        assert load_train_config(path).total_epochs == 10

    def test_validation_errors_carry_the_path(self, tmp_path):
        path = tmp_path / "t.yaml"
        path.write_text("burn_in_epochs: 9\ntotal_epochs: 2\n")
        with pytest.raises(TrainingError, match="t.yaml"):
            load_train_config(path)

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "t.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(TrainingError, match="mapping"):
            load_train_config(path)


class TestManifests:
    def test_directory_target_gets_manifest_json(self, tmp_path):
        m = RunManifest(command="gen-data", seed=7)
        out = m.write(tmp_path)
        assert out == tmp_path / "manifest.json"
        payload = json.loads(out.read_text())
        assert payload["command"] == "gen-data"
        assert payload["seed"] == 7
        assert payload["wall_clock_seconds"] >= 0.0

    def test_file_target_gets_sibling_manifest(self, tmp_path):
        target = tmp_path / "model.ckpt"
        target.write_bytes(b"x")
        m = RunManifest(command="train")
        out = m.write(target)
        assert out == tmp_path / "model.ckpt.manifest.json"
