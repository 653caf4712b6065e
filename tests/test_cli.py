import json

import pytest
import yaml
from click.testing import CliRunner

from rexl.cli import main
from rexl.corpus import load_corpus
from rexl.rulegen import merge_rulesets
from rexl.rules import first_match, load_rules, predict_with_rules


GEN_CONFIG = {
    "relations": 8,
    "train_size": 120,
    "dev_size": 24,
    "test_size": 24,
}

TRAIN_CONFIG = {
    "burn_in_epochs": 1,
    "total_epochs": 2,
    "model": {
        "d_model": 16,
        "n_layers": 1,
        "n_heads": 2,
        "batch_size": 16,
        "max_seq_len": 32,
        "seed": 5,
    },
}


def _invoke(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated corpus plus a trained checkpoint for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    gen_cfg = root / "gen.yaml"
    gen_cfg.write_text(yaml.safe_dump(GEN_CONFIG))
    train_cfg = root / "train.yaml"
    train_cfg.write_text(yaml.safe_dump(TRAIN_CONFIG))
    data = root / "data"
    _invoke(runner, "gen-data", "--out", str(data), "--config", str(gen_cfg),
            "--seed", "11", "--rules-out", str(root / "manual_rules.txt"))
    _invoke(runner, "train", "--data", str(data), "--out", str(root / "model.ckpt"),
            "--rules", str(root / "manual_rules.txt"),
            "--config", str(train_cfg))
    return root, runner


class TestPipeline:
    def test_gen_data_writes_splits_rules_and_manifest(self, workspace):
        root, _ = workspace
        for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "manifest.json"):
            assert (root / "data" / name).exists()
        assert (root / "manual_rules.txt").exists()
        manifest = json.loads((root / "data" / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 11
        assert "wall_clock_seconds" in manifest

    def test_train_writes_checkpoint_log_and_manifest(self, workspace):
        root, _ = workspace
        assert (root / "model.ckpt").exists()
        assert (root / "model.ckpt.log.jsonl").exists()
        assert (root / "model.ckpt.manifest.json").exists()
        log_lines = (root / "model.ckpt.log.jsonl").read_text().splitlines()
        assert len(log_lines) == TRAIN_CONFIG["total_epochs"]

    def test_predict_then_eval_rc(self, workspace):
        root, runner = workspace
        pred = root / "preds.jsonl"
        _invoke(runner, "predict", "--data", str(root / "data"),
                "--split", "test", "--model", str(root / "model.ckpt"),
                "--out", str(pred))
        rows = [json.loads(l) for l in pred.read_text().splitlines()]
        assert len(rows) == GEN_CONFIG["test_size"]
        assert all({"id", "label", "rationale", "gate_prob"} <= set(r) for r in rows)

        out = root / "rc.json"
        result = _invoke(runner, "eval-rc", "--data", str(root / "data"),
                         "--split", "test", "--pred", str(pred),
                         "--out", str(out))
        assert "[relation-micro]" in result.output
        report = json.loads(out.read_text())
        assert {"precision", "recall", "f1"} <= set(report)

    def test_eval_ec_scores_rule_matched_instances(self, workspace):
        root, runner = workspace
        pred = root / "preds.jsonl"
        if not pred.exists():
            _invoke(runner, "predict", "--data", str(root / "data"),
                    "--split", "test", "--model", str(root / "model.ckpt"),
                    "--out", str(pred))
        result = _invoke(runner, "eval-ec", "--data", str(root / "data"),
                         "--split", "test", "--pred", str(pred),
                         "--rules", str(root / "manual_rules.txt"))
        assert "[rationale-overlap]" in result.output

    def test_gen_rules_and_run_rules(self, workspace):
        root, runner = workspace
        gen = root / "gen_train.txt"
        result = _invoke(runner, "gen-rules", "--data", str(root / "data"),
                         "--model", str(root / "model.ckpt"), "--mode", "gold",
                         "--manual", str(root / "manual_rules.txt"),
                         "--out", str(gen))
        # the briefly trained module model may induce nothing; the file
        # must still exist, parse, and be reported
        assert "induced" in result.output
        assert (root / "gen_train.txt.manifest.json").exists()
        load_rules(gen)

        out = root / "rule_preds.jsonl"
        merged = root / "merged.txt"
        _invoke(runner, "run-rules", "--data", str(root / "data"),
                "--split", "test", "--rules", str(root / "manual_rules.txt"),
                "--rules", str(gen), "--out", str(out),
                "--merged-out", str(merged))
        assert out.exists() and merged.exists()
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == GEN_CONFIG["test_size"]

    def test_explain_marks_entities_and_selection(self, workspace):
        root, runner = workspace
        data = root / "data"
        first_id = json.loads(
            (data / "test.jsonl").read_text().splitlines()[0]
        )["id"]
        result = _invoke(runner, "explain", "--data", str(data),
                         "--split", "test", "--id", first_id,
                         "--model", str(root / "model.ckpt"))
        assert "[S:" in result.output
        assert "[O:" in result.output

    def test_explain_baseline_methods_run(self, workspace):
        root, runner = workspace
        data = root / "data"
        first_id = json.loads(
            (data / "test.jsonl").read_text().splitlines()[0]
        )["id"]
        for method in ("attention", "all-between"):
            _invoke(runner, "explain", "--data", str(data), "--split", "test",
                    "--id", first_id, "--model", str(root / "model.ckpt"),
                    "--method", method, "--topn", "3")


class TestMergeOrder:
    def test_rule_file_order_decides_conflicts(self, workspace, tmp_path):
        root, runner = workspace
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        base = (
            "id: {rid}\n"
            "kind: syntactic\n"
            "label: {label}\n"
            "trigger: lemma=work|serve\n"
            "subject: SUBJ_PERSON = >nsubj\n"
            "object: OBJ_ORGANIZATION = >obl\n\n"
        )
        a.write_text(base.format(rid="a-01", label="per:employee_of"))
        b.write_text(base.format(rid="b-01", label="per:schools_attended"))

        def labels(*rule_files):
            out = tmp_path / "preds.jsonl"
            args = ["run-rules", "--data", str(root / "data"), "--split", "test",
                    "--out", str(out)]
            for rf in rule_files:
                args += ["--rules", str(rf)]
            _invoke(runner, *args)
            return {
                json.loads(l)["id"]: json.loads(l)["label"]
                for l in out.read_text().splitlines()
            }

        first = labels(a, b)
        second = labels(b, a)
        flipped = {i for i in first if first[i] != second[i]}
        assert flipped, "expected at least one instance whose label depends on order"
        for i in flipped:
            assert {first[i], second[i]} == {"per:employee_of",
                                             "per:schools_attended"}


class TestRunRules:
    def test_output_agrees_with_predict_with_rules(self, workspace, tmp_path):
        root, runner = workspace
        extra = tmp_path / "extra.txt"
        extra.write_text(
            "id: extra-01\n"
            "kind: syntactic\n"
            "label: per:employee_of\n"
            "trigger: lemma=work|serve\n"
            "subject: SUBJ_PERSON = >nsubj\n"
            "object: OBJ_ORGANIZATION = >obl\n"
        )
        files = [root / "manual_rules.txt", extra]
        out = tmp_path / "preds.jsonl"
        args = ["run-rules", "--data", str(root / "data"), "--split", "test",
                "--out", str(out)]
        for f in files:
            args += ["--rules", str(f)]
        _invoke(runner, *args)
        rows = {r["id"]: r for r in map(json.loads, out.read_text().splitlines())}

        rules = merge_rulesets([load_rules(f) for f in files])
        test = load_corpus(root / "data").test
        assert set(rows) == {inst.id for inst in test}
        matched = 0
        for inst in test:
            row = rows[inst.id]
            assert row["label"] == predict_with_rules(rules, inst), inst.id
            m = first_match(rules, inst)
            assert row["rationale"] == ([] if m is None else sorted(m.trigger_tokens))
            matched += m is not None
        assert matched > 0


class TestFailures:
    def test_unknown_flag_exits_two(self):
        runner = CliRunner()
        result = runner.invoke(main, ["gen-data", "--wat"])
        assert result.exit_code == 2

    def test_missing_data_dir_fails_cleanly(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main, ["predict", "--data", str(tmp_path / "nope"),
                   "--split", "test", "--model", "m.ckpt",
                   "--out", str(tmp_path / "p.jsonl")],
        )
        assert result.exit_code == 2  # click validates the path itself

    def test_bad_generator_config_exits_one(self, tmp_path):
        runner = CliRunner()
        cfg = tmp_path / "gen.yaml"
        cfg.write_text(yaml.safe_dump({"rule_coverage": 2.0}))
        result = runner.invoke(main, ["gen-data", "--out", str(tmp_path / "d"),
                                      "--config", str(cfg)])
        assert result.exit_code == 1
        assert "rule_coverage" in result.output

    def test_bad_train_config_exits_one(self, workspace, tmp_path):
        root, runner = workspace
        cfg = tmp_path / "train.yaml"
        cfg.write_text(yaml.safe_dump({"burn_in_epochs": 9, "total_epochs": 2}))
        result = runner.invoke(
            main, ["train", "--data", str(root / "data"),
                   "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg)],
        )
        assert result.exit_code == 1
        assert "burn_in" in result.output

    def test_corrupt_checkpoint_exits_one(self, workspace, tmp_path):
        root, runner = workspace
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"junk")
        result = runner.invoke(
            main, ["predict", "--data", str(root / "data"), "--split", "test",
                   "--model", str(bad), "--out", str(tmp_path / "p.jsonl")],
        )
        assert result.exit_code == 1

    def test_unknown_instance_id_exits_one(self, workspace):
        root, runner = workspace
        result = runner.invoke(
            main, ["explain", "--data", str(root / "data"), "--split", "test",
                   "--id", "missing-999", "--model", str(root / "model.ckpt")],
        )
        assert result.exit_code == 1
        assert "missing-999" in result.output


class TestAblations:
    @pytest.mark.parametrize("ablate", ["nrc", "ec"])
    def test_ablated_training_runs(self, workspace, tmp_path, ablate):
        root, runner = workspace
        cfg = tmp_path / "train.yaml"
        cfg.write_text(yaml.safe_dump(TRAIN_CONFIG))
        out = tmp_path / f"model-{ablate}.ckpt"
        _invoke(runner, "train", "--data", str(root / "data"), "--out", str(out),
                "--rules", str(root / "manual_rules.txt"),
                "--config", str(cfg), "--ablate", ablate)
        pred = tmp_path / "p.jsonl"
        _invoke(runner, "predict", "--data", str(root / "data"),
                "--split", "test", "--model", str(out), "--out", str(pred))
        rows = [json.loads(l) for l in pred.read_text().splitlines()]
        if ablate == "nrc":
            assert all(r["gate_prob"] is None for r in rows)
        else:
            assert all(r["rationale"] == [] for r in rows)
