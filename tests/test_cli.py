import json

import pytest
import yaml
from click.testing import CliRunner

from rexl.cli import main
from rexl.corpus import NO_RELATION, load_corpus
from rexl.rulegen import merge_rulesets
from rexl.rules import first_match, load_rules


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
    def test_output_agrees_with_first_match(self, workspace, tmp_path):
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
            m = first_match(rules, inst)
            assert row["label"] == (NO_RELATION if m is None else m.label), inst.id
            assert row["rationale"] == ([] if m is None else sorted(m.trigger_tokens))
            matched += m is not None
        assert matched > 0


class TestFailures:
    def test_unknown_flag_exits_two(self):
        runner = CliRunner()
        result = runner.invoke(main, ["gen-data", "--wat"])
        assert result.exit_code == 2

    def test_negative_seed_is_a_usage_error(self, tmp_path):
        out = tmp_path / "d"
        result = CliRunner().invoke(main, ["gen-data", "--out", str(out), "--seed", "-1"])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "--seed" in errors[0], result.output
        assert not out.exists()

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

    def test_zero_batch_size_exits_one_without_a_checkpoint(self, workspace, tmp_path):
        root, runner = workspace
        cfg = tmp_path / "train.yaml"
        cfg.write_text(yaml.safe_dump({"model": {"batch_size": 0}}))
        out = tmp_path / "m.ckpt"
        result = runner.invoke(
            main, ["train", "--data", str(root / "data"), "--out", str(out),
                   "--config", str(cfg)],
        )
        assert result.exit_code == 1, result.output
        assert "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"Error: {cfg}: ")
        assert "batch_size" in lines[0]
        assert not out.exists()

    def test_corrupt_checkpoint_exits_one(self, workspace, tmp_path):
        root, runner = workspace
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"junk")
        result = runner.invoke(
            main, ["predict", "--data", str(root / "data"), "--split", "test",
                   "--model", str(bad), "--out", str(tmp_path / "p.jsonl")],
        )
        assert result.exit_code == 1

    def test_eval_ec_rejects_an_index_past_the_tokens(self, workspace, tmp_path):
        root, runner = workspace
        inst = load_corpus(root / "data").test[3]
        pred = tmp_path / "p.jsonl"
        pred.write_text(json.dumps({"id": inst.id, "label": "x",
                                    "rationale": [len(inst.tokens)]}) + "\n")
        result = runner.invoke(
            main, ["eval-ec", "--data", str(root / "data"), "--split", "test",
                   "--pred", str(pred), "--rules", str(root / "manual_rules.txt")],
        )
        assert result.exit_code == 1
        assert f"{inst.id}: rationale index {len(inst.tokens)} is past" in result.output

    def test_unknown_instance_id_exits_one(self, workspace):
        root, runner = workspace
        result = runner.invoke(
            main, ["explain", "--data", str(root / "data"), "--split", "test",
                   "--id", "missing-999", "--model", str(root / "model.ckpt")],
        )
        assert result.exit_code == 1
        assert "missing-999" in result.output


_EXTRA_RULE = ("id: extra-01\nkind: syntactic\nlabel: per:children\ntrigger: word=daughter\n"
               "subject: SUBJ_PERSON = >nmod:poss\nobject: OBJ_PERSON = >appos\n")


class TestBadRuleFile:
    def _run_rules(self, workspace, tmp_path, text):
        root, runner = workspace
        extra = tmp_path / "extra.txt"
        extra.write_text(text)
        argv = ["run-rules", "--data", str(root / "data"), "--split", "test",
                "--rules", str(root / "manual_rules.txt"), "--rules", str(extra),
                "--out", str(tmp_path / "r.jsonl")]
        return extra, runner.invoke(main, argv)

    def test_the_undamaged_file_runs(self, workspace, tmp_path):
        _, result = self._run_rules(workspace, tmp_path, _EXTRA_RULE)
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("damage,message", [
        (lambda t: t.replace("label: per:children\n", ""),
         "block at line 1: missing key 'label'"),
        (lambda t: t + "label: per:spouse\n", "line 7: duplicate key 'label'"),
        (lambda t: t.replace("kind: syntactic", "kind: regex"), "unknown rule kind 'regex'"),
        (lambda t: t.replace(">appos", "~appos"), "path step '~appos'"),
        (lambda t: t.replace("word=daughter", "word="), "trigger needs at least one alternative"),
        (lambda t: t.replace("per:children", NO_RELATION),
         "block at line 1: rule extra-01: rules must carry a positive label"),
        (lambda t: t + "\n" + t, "block at line 8: duplicate rule id 'extra-01'"),
        (lambda t: t.replace("id: extra-01", "id: "),
         "block at line 1: rule with label 'per:children': id must not be empty"),
        (lambda t: t.replace("label: per:children", "label: "),
         "block at line 1: rule extra-01: label must not be empty"),
    ], ids=["missing-key", "duplicate-key", "unknown-kind", "bad-path-step", "empty-trigger",
            "no-relation-label", "duplicate-id", "empty-id", "empty-label"])
    def test_one_error_line_names_the_file(self, workspace, tmp_path, damage, message):
        extra, result = self._run_rules(workspace, tmp_path, damage(_EXTRA_RULE))
        assert result.exit_code == 1, result.output
        assert "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"Error: {extra}: "), lines
        assert message in lines[0]
        assert not (tmp_path / "r.jsonl").exists()


class TestTrainRuleLabels:
    def test_seed_rules_name_only_relations_of_the_corpus(self, workspace):
        root, _ = workspace
        corpus = load_corpus(root / "data")
        assert {rule.label for rule in load_rules(root / "manual_rules.txt")} <= set(
            corpus.relation_vocab)

    def test_a_label_outside_the_corpus_is_one_error_line(self, workspace, tmp_path):
        root, runner = workspace
        rules = tmp_path / "typo.txt"
        rules.write_text((root / "manual_rules.txt").read_text() + "\n"
                         + _EXTRA_RULE.replace("per:children", "per:chilren"))
        out = tmp_path / "m.ckpt"
        result = runner.invoke(main, ["train", "--data", str(root / "data"), "--out", str(out),
                                      "--rules", str(rules),
                                      "--config", str(root / "train.yaml")])
        assert result.exit_code == 1, result.output
        assert "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert lines == [f"Error: {rules}: rule extra-01: label 'per:chilren' "
                         f"is not a relation of the corpus"]
        assert not out.exists()


class TestEmptyDev:
    def test_train_logs_null_dev_f1(self, tmp_path):
        runner = CliRunner()
        gen_cfg = tmp_path / "gen.yaml"
        gen_cfg.write_text(yaml.safe_dump({**GEN_CONFIG, "dev_size": 0}))
        train_cfg = tmp_path / "train.yaml"
        train_cfg.write_text(yaml.safe_dump(TRAIN_CONFIG))
        data = tmp_path / "data"
        _invoke(runner, "gen-data", "--out", str(data), "--config", str(gen_cfg), "--seed", "11")
        result = _invoke(runner, "train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                         "--rules", str(data / "manual_rules.txt"), "--config", str(train_cfg))
        assert "dev F1 n/a;" in result.output
        lines = (tmp_path / "m.ckpt.log.jsonl").read_text().splitlines()

        def strict(token):
            raise ValueError(f"{token} is not JSON")

        records = [json.loads(line, parse_constant=strict) for line in lines]
        assert [r["dev_f1"] for r in records] == [None, None]


class TestNotUtf8:
    @pytest.mark.parametrize("kind", ["corpus split", "predictions", "annotations", "rules",
                                      "train config", "generator config"])
    def test_input_that_is_not_utf8_fails_naming_the_path(self, workspace, tmp_path, kind):
        root, runner = workspace
        data, rules = str(root / "data"), str(root / "manual_rules.txt")
        bad = tmp_path / ("test.jsonl" if kind == "corpus split" else "input")
        bad.write_bytes(b"\xff\xfe not text \x80\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "a", "label": "x", "rationale": []}) + "\n")
        argv = {
            "corpus split": ["run-rules", "--data", str(tmp_path), "--split", "test",
                             "--rules", rules, "--out", str(tmp_path / "r.jsonl")],
            "predictions": ["eval-rc", "--data", data, "--split", "test", "--pred", str(bad)],
            "annotations": ["eval-plausibility", "--pred", str(pred), "--annotations", str(bad)],
            "rules": ["run-rules", "--data", data, "--split", "test", "--rules", str(bad),
                      "--out", str(tmp_path / "r.jsonl")],
            "train config": ["train", "--data", data, "--out", str(tmp_path / "m.ckpt"),
                             "--config", str(bad)],
            "generator config": ["gen-data", "--out", str(tmp_path / "d"), "--config", str(bad)],
        }[kind]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1, result.output
        assert "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ")
        assert f"{bad}: not valid UTF-8" in lines[0]


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


class TestThreshold:
    @pytest.mark.parametrize("value", ["1.5", "-0.2", "nan"])
    def test_predict_rejects_a_threshold_that_is_not_a_probability(self, workspace, tmp_path,
                                                                   value):
        root, runner = workspace
        result = runner.invoke(
            main, ["predict", "--data", str(root / "data"), "--model", str(root / "model.ckpt"),
                   "--out", str(tmp_path / "p.jsonl"), "--threshold", value],
        )
        assert result.exit_code == 2
        assert "nrc_threshold must be a probability" in result.output
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("value", ["1.5", "-0.2", "nan"])
    def test_gen_rules_rejects_a_threshold_that_is_not_a_probability(self, workspace,
                                                                     tmp_path, value):
        root, runner = workspace
        result = runner.invoke(
            main, ["gen-rules", "--data", str(root / "data"), "--model", str(root / "model.ckpt"),
                   "--mode", "predicted", "--out", str(tmp_path / "r.txt"),
                   "--threshold", value],
        )
        assert result.exit_code == 2
        assert "nrc_threshold must be a probability" in result.output
        assert not (tmp_path / "r.txt").exists()


def _copy_data(root, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for split in ("train", "dev", "test"):
        (data / f"{split}.jsonl").write_bytes((root / "data" / f"{split}.jsonl").read_bytes())
    return data


def _split_command_outputs(runner, root, data, out):
    """Run predict, eval-ec, run-rules and explain on the test split; returns their files."""
    out.mkdir()
    model, rules = str(root / "model.ckpt"), str(root / "manual_rules.txt")
    first_id = json.loads((data / "test.jsonl").read_text().splitlines()[0])["id"]
    _invoke(runner, "predict", "--data", str(data), "--split", "test", "--model", model,
            "--out", str(out / "pred.jsonl"))
    _invoke(runner, "eval-ec", "--data", str(data), "--split", "test",
            "--pred", str(out / "pred.jsonl"), "--rules", rules, "--out", str(out / "ec.json"))
    _invoke(runner, "run-rules", "--data", str(data), "--split", "test", "--rules", rules,
            "--out", str(out / "rules.jsonl"))
    _invoke(runner, "explain", "--data", str(data), "--split", "test", "--id", first_id,
            "--model", model, "--out", str(out / "explain.json"))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if not p.name.endswith(".manifest.json")}


class TestSplitScope:
    def test_split_commands_do_not_read_a_corrupt_train_file(self, workspace, tmp_path):
        root, runner = workspace
        clean = _split_command_outputs(runner, root, root / "data", tmp_path / "clean")
        data = _copy_data(root, tmp_path)
        lines = (data / "train.jsonl").read_text().splitlines()
        lines[5] = "{broken"
        (data / "train.jsonl").write_text("\n".join(lines) + "\n")
        corrupt = _split_command_outputs(runner, root, data, tmp_path / "corrupt")
        assert set(clean) == {"pred.jsonl", "ec.json", "rules.jsonl", "explain.json"}
        assert corrupt == clean

    @pytest.mark.parametrize("damage, message", [
        (lambda rec: "{broken", "test.jsonl:3: not valid JSON"),
        (lambda rec: json.dumps({**rec, "stanford_head": [0] * len(rec["token"])}),
         "expected exactly one root"),
        (lambda rec: json.dumps({**rec, "id": "test-00000"}),
         "duplicate instance id 'test-00000'"),
    ], ids=["bad json", "bad record", "duplicate id"])
    def test_a_bad_test_record_still_fails(self, workspace, tmp_path, damage, message):
        root, runner = workspace
        data = _copy_data(root, tmp_path)
        lines = (data / "test.jsonl").read_text().splitlines()
        lines[2] = damage(json.loads(lines[2]))
        (data / "test.jsonl").write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["run-rules", "--data", str(data), "--split", "test",
                                      "--rules", str(root / "manual_rules.txt"),
                                      "--out", str(tmp_path / "r.jsonl")])
        assert result.exit_code == 1
        assert message in result.output

    def test_train_rejects_an_id_shared_across_splits(self, workspace, tmp_path):
        root, runner = workspace
        data = _copy_data(root, tmp_path)
        shared = (data / "test.jsonl").read_text().splitlines()[0]
        with (data / "train.jsonl").open("a") as fh:
            fh.write(shared + "\n")
        result = runner.invoke(main, ["train", "--data", str(data),
                                      "--out", str(tmp_path / "m.ckpt")])
        assert result.exit_code == 1
        assert f"duplicate instance id {json.loads(shared)['id']!r}" in result.output

    def test_a_split_command_parses_exactly_its_split(self, workspace, tmp_path, monkeypatch):
        import rexl.corpus

        root, runner = workspace
        parsed = []
        parse = rexl.corpus._parse_record
        monkeypatch.setattr(rexl.corpus, "_parse_record",
                            lambda record, where: parsed.append(where) or parse(record, where))
        _invoke(runner, "run-rules", "--data", str(root / "data"), "--split", "dev",
                "--rules", str(root / "manual_rules.txt"), "--out", str(tmp_path / "r.jsonl"))
        assert len(parsed) == GEN_CONFIG["dev_size"]
        assert all("dev.jsonl" in where for where in parsed)
