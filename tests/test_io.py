import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rexl
from rexl.corpus import CorpusError, instance_to_record, load_split
from rexl.evalmetrics import EvalError, load_annotations
from rexl.io import (
    IOFormatError,
    RunManifest,
    load_predictions,
    save_predictions,
    write_json,
    write_jsonl,
)
from rexl.neural.model import Prediction
from rexl.synth import GeneratorError, load_generator_spec
from rexl.trainer import TrainingError, load_train_config


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

    @pytest.mark.parametrize("key, value, problem", [
        ("label", None, "'b': label must be a string, got None"),
        ("label", 7, "'b': label must be a string, got 7"),
        ("id", 5, "id must be a string, got 5"),
        ("id", None, "id must be a string, got None"),
    ], ids=["null label", "numeric label", "numeric id", "null id"])
    def test_id_and_label_must_be_strings(self, tmp_path, key, value, problem):
        path = tmp_path / "p.jsonl"
        good = json.dumps({"id": "a", "label": "x", "rationale": [0, 3]})
        bad = json.dumps({"id": "b", "label": "x", "rationale": [], key: value})
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(IOFormatError) as err:
            load_predictions(path)
        assert str(err.value).startswith(f"{path}:2: {problem}")

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


# (file name, loader, error class, record builder) for every JSON-lines loader
_JSONL_LOADERS = {
    "corpus split": ("test.jsonl", lambda path: load_split(path.parent, "test"), CorpusError,
                     instance_to_record),
    "predictions": ("p.jsonl", load_predictions, IOFormatError,
                    lambda inst: {"id": inst.id, "label": "x", "rationale": [0]}),
    "annotations": ("ann.jsonl", load_annotations, EvalError,
                    lambda inst: {"id": inst.id, "tokens_a": [0], "tokens_b": [1]}),
}


@pytest.mark.parametrize("kind", sorted(_JSONL_LOADERS))
def test_every_jsonl_loader_keeps_one_contract(tmp_path, family_instance, kind):
    name, load, error, build = _JSONL_LOADERS[kind]
    path = tmp_path / name
    good = json.dumps(build(family_instance))
    path.write_text("\n" + good + "\n  \n")
    assert len(load(path)) == 1  # blank and whitespace-only lines are skipped
    for bad, message in (("{broken", "not valid JSON"), ("[1, 2]", "record is not an object")):
        path.write_text(good + "\n\n" + bad + "\n")
        with pytest.raises(error) as err:
            load(path)
        assert str(err.value).startswith(f"{path}:3: {message}")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("write", [lambda path, doc: write_jsonl(path, [doc]), write_json],
                         ids=["jsonl", "json"])
def test_writers_refuse_non_finite_floats(tmp_path, write, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        write(tmp_path / "out.json", {"dev_f1": value})


def test_importing_io_loads_no_other_rexl_module():
    code = ("import sys, rexl.io; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'rexl'))")
    src = str(Path(rexl.__file__).parents[1])  # a fresh interpreter finds this same package
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "['rexl', 'rexl.io']"


class TestConfigValueKinds:
    @pytest.mark.parametrize("text, key", [
        ("total_epochs: 10.0\n", "total_epochs"),
        ("total_epochs: ten\n", "total_epochs"),
        ("burn_in_epochs: true\n", "burn_in_epochs"),
        ("t_up: yes\n", "t_up"),
        ("model: 5\n", "model"),
        ("model:\n  learning_rate: 3e-4\n", "learning_rate"),
        ("model:\n  d_model: 32.0\n", "d_model"),
        ("model:\n  batch_size: 0\n", "batch_size"),
        ("model:\n  batch_size: -4\n", "batch_size"),
        ("model:\n  ff_mult: 0\n", "ff_mult"),
        ("model:\n  ff_mult: -1\n", "ff_mult"),
        ("model:\n  learning_rate: -0.001\n", "learning_rate"),
        ("model:\n  learning_rate: 0\n", "learning_rate"),
        ("model:\n  weight_decay: -0.01\n", "weight_decay"),
        ("model:\n  seed: -1\n", "seed"),
    ], ids=["float epochs", "string epochs", "bool epochs", "bool threshold",
            "model not a mapping", "yaml 1.1 exponent", "float width", "zero batch",
            "negative batch", "zero ff_mult", "negative ff_mult", "negative learning rate",
            "zero learning rate", "negative weight decay", "negative seed"])
    def test_train_config_names_file_and_key(self, tmp_path, text, key):
        path = tmp_path / "t.yaml"
        path.write_text(text)
        with pytest.raises(TrainingError) as err:
            load_train_config(path)
        assert str(err.value).startswith(f"{path}: ")
        assert key in str(err.value)

    @pytest.mark.parametrize("text, key", [
        ("train_size: '100'\n", "train_size"),
        ("train_size: 12.5\n", "train_size"),
        ("rule_coverage: true\n", "rule_coverage"),
        ("relations: 2.5\n", "relations"),
    ], ids=["string size", "float size", "bool coverage", "float relations"])
    def test_generator_spec_names_file_and_key(self, tmp_path, text, key):
        path = tmp_path / "gen.yaml"
        path.write_text(text)
        with pytest.raises(GeneratorError) as err:
            load_generator_spec(path)
        assert str(err.value).startswith(f"{path}: ")
        assert key in str(err.value)

    def test_an_int_is_a_valid_float(self, tmp_path):
        path = tmp_path / "t.yaml"
        path.write_text("t_up: 1\nmodel:\n  learning_rate: 0.001\n  dropout: 0\n")
        cfg = load_train_config(path)
        assert (cfg.t_up, cfg.model.learning_rate, cfg.model.dropout) == (1, 0.001, 0)


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
