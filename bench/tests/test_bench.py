"""Tests of the benchmark itself: a tiny run of every workload, and every
correctness check failing on a corrupted output.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def _tiny_run(tmp: Path, name: str, trace: bool) -> workloads.Run:
    """The workload's code path at a size that runs in seconds, with two
    set-ups so that their outputs are compared.  A model trained this
    little cannot meet the quality floors or the merged-rule recall gate,
    so they are off; their checks have tests of their own below."""
    out = tmp / f"{name}-{int(trace)}"
    out.mkdir()
    workload = dataclasses.replace(
        workloads.WORKLOADS[name], train_size=80, dev_size=16, test_size=70,
        burn_in_epochs=1, total_epochs=2, setups=2, quality_floors=False,
    )
    run = workloads.Run(workload, seed=3, seconds=0.0, trace=trace, out=out)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "check_merged_recall", lambda *args: None)
        run.metrics = run.execute()
    return run


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_every_check(tmp_path, name, trace):
    run = _tiny_run(tmp_path, name, trace)
    assert run.r.problems == []
    assert run.r.failed == 0 and run.r.attempted > 0
    expected = PER_LAYER if trace else END_TO_END
    assert set(run.metrics) == set(expected)
    assert all(math.isfinite(v) for v in run.metrics.values())
    if not trace:
        assert all(v > 0 for v in run.metrics.values()), run.metrics
    else:
        assert (tmp_path / f"trace-{name}-s3.json").is_file()


@pytest.mark.parametrize("stage", ["train", "run-rules"])
def test_a_failed_stage_is_counted_and_the_run_still_reports(tmp_path, monkeypatch, stage):
    """The stages after a failed one find their inputs missing; the run
    still ends with metrics, the failure counted and the checks failed."""
    from rexl.cli import main

    def boom(**kwargs):
        raise RuntimeError(f"{stage} made to fail")
    monkeypatch.setattr(main.commands[stage], "callback", boom)
    run = _tiny_run(tmp_path, "serve", False)
    assert run.r.failed >= 1
    assert run.r.problems
    assert set(run.metrics) == set(END_TO_END)


def test_run_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# each check rejects a corrupted output


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Outputs of one tiny serve run, left on disk."""
    return _tiny_run(tmp_path_factory.mktemp("served"), "serve", False)


@pytest.fixture
def outputs(served, tmp_path):
    """A private copy of the run's outputs, safe to corrupt."""
    copy = tmp_path / "out"
    shutil.copytree(served.out, copy)
    return copy


def _test_records(out: Path) -> list[dict]:
    return checks.read_jsonl(out / "setup-0" / "data" / "test.jsonl")


def _rewrite_jsonl(path: Path, edit) -> None:
    rows = checks.read_jsonl(path)
    edit(rows)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))


def _first(rows, pred):
    return next(r for r in rows if pred(r))


def _merged_rules(outputs: Path) -> list:
    """The rule files of the timed merged run-rules call, in argument order."""
    return checks.rules_in_order([outputs / "setup-0" / "manual_rules.txt",
                                  outputs / "round-0" / "gen_train_head.txt",
                                  outputs / "round-0" / "gen_test_head.txt"])


def test_cut_induced_rules_takes_a_fixed_count_from_the_front(outputs, monkeypatch):
    from rexl.rules import load_rules

    round0 = outputs / "round-0"
    train, test = load_rules(round0 / "gen_train.txt"), load_rules(round0 / "gen_test.txt")
    assert len(train) + len(test) >= 4
    for k in (4, len(train) + len(test) + 3):
        monkeypatch.setattr(workloads, "INDUCED_RULES", k)
        workloads.cut_induced_rules(round0)
        heads = [load_rules(round0 / f"gen_{s}_head.txt") for s in ("train", "test")]
        assert sum(map(len, heads)) == min(k, len(train) + len(test))
        for head, full in zip(heads, (train, test)):
            assert head.rules == full.rules[:len(head)]


def test_first_match_rejects_a_swapped_run_rules_label(outputs):
    from rexl.corpus import load_instances

    path = outputs / "round-0" / "rules_merged.jsonl"
    rules = _merged_rules(outputs)
    test = load_instances(outputs / "setup-0" / "data" / "test.jsonl")
    checks.check_first_match(path, rules, test)

    labels = sorted({r.label for r in rules})

    def swap(rows):
        row = _first(rows, lambda r: r["label"] != "no_relation")
        row["label"] = next(lab for lab in labels if lab != row["label"])
    _rewrite_jsonl(path, swap)
    with pytest.raises(CheckError, match="first matching rule"):
        checks.check_first_match(path, rules, test)


def test_first_match_rejects_rules_out_of_argument_order(outputs):
    """A run-rules output is checked against the input files, so a merge
    that put a later file first would be caught."""
    from rexl.corpus import load_instances

    path = outputs / "round-0" / "rules_merged.jsonl"
    rules = _merged_rules(outputs)
    test = load_instances(outputs / "setup-0" / "data" / "test.jsonl")
    checks.check_first_match(path, rules, test)
    with pytest.raises(CheckError, match="first matching rule"):
        checks.check_first_match(path, rules[::-1], test)


def test_first_match_rejects_a_moved_rule_rationale(outputs):
    from rexl.corpus import load_instances

    path = outputs / "round-0" / "rules_manual.jsonl"
    rules = checks.rules_in_order([outputs / "setup-0" / "manual_rules.txt"])
    test = load_instances(outputs / "setup-0" / "data" / "test.jsonl")

    def shift(rows):
        row = _first(rows, lambda r: r["rationale"])
        row["rationale"] = [i + 1 for i in row["rationale"]]
    _rewrite_jsonl(path, shift)
    with pytest.raises(CheckError):
        checks.check_first_match(path, rules, test)


def _entity_index(records, iid):
    rec = _first(records, lambda r: r["id"] == iid)
    return rec["subj_start"]


def test_predictions_reject_a_rationale_on_an_entity_token(outputs):
    path = outputs / "round-0" / "preds.jsonl"
    records = _test_records(outputs)
    checks.check_predictions(path, records)

    def corrupt(rows):
        row = _first(rows, lambda r: r["label"] != "no_relation")
        row["rationale"] = sorted(set(row["rationale"]) | {_entity_index(records, row["id"])})
    _rewrite_jsonl(path, corrupt)
    with pytest.raises(CheckError, match="entity token"):
        checks.check_predictions(path, records)


@pytest.mark.parametrize("corruption, message", [
    (lambda row, n: row.update(label="no_relation", rationale=[n - 1] if n else []),
     "no_relation with rationale"),
    (lambda row, n: row.update(rationale=[n + 3]), "outside"),
    (lambda row, n: row.update(rationale=[n - 1, n - 1]), "repeated token index"),
])
def test_predictions_reject_bad_rationales(outputs, corruption, message):
    path = outputs / "round-0" / "preds.jsonl"
    records = {r["id"]: r for r in _test_records(outputs)}

    def corrupt(rows):
        row = rows[0]
        corruption(row, len(records[row["id"]]["token"]))
    _rewrite_jsonl(path, corrupt)
    with pytest.raises(CheckError, match=message):
        checks.check_predictions(path, list(records.values()))


def test_predictions_reject_a_missing_instance(outputs):
    path = outputs / "round-0" / "preds.jsonl"
    _rewrite_jsonl(path, lambda rows: rows.pop())
    with pytest.raises(CheckError, match="missing"):
        checks.check_predictions(path, _test_records(outputs))


def test_rc_report_rejects_a_score_the_predictions_do_not_give(outputs):
    pred, report = outputs / "round-0" / "preds.jsonl", outputs / "rc-preds.json"
    records = _test_records(outputs)
    checks.check_rc_report(pred, records, report)
    data = json.loads(report.read_text())
    data["f1"] += 0.01
    report.write_text(json.dumps(data))
    with pytest.raises(CheckError, match="f1"):
        checks.check_rc_report(pred, records, report)


def test_same_labels_rejects_a_changed_label(outputs):
    from rexl.neural.model import Prediction

    path = outputs / "round-0" / "preds.jsonl"
    rows = checks.read_jsonl(path)
    same = [Prediction(r["id"], r["label"], tuple(r["rationale"]), r["gate_prob"]) for r in rows]
    checks.check_same_labels(path, same)
    changed = list(same)
    changed[0] = Prediction(rows[0]["id"], rows[0]["label"] + "x", (), None)
    with pytest.raises(CheckError, match="predict_batch says"):
        checks.check_same_labels(path, changed)


def test_explain_rejects_a_selected_entity_token(outputs):
    path = outputs / "round-0" / "explain-test-00007.json"
    record = _first(_test_records(outputs), lambda r: r["id"] == "test-00007")
    checks.check_explain(path, record)
    data = json.loads(path.read_text())
    data["selected"] = sorted(set(data["selected"]) | {record["obj_start"]})
    data["label"] = "per:employee_of"
    path.write_text(json.dumps(data))
    with pytest.raises(CheckError, match="entity token"):
        checks.check_explain(path, record)


def test_attribution_rejects_entity_repeated_and_surplus_tokens():
    record = {"id": "x", "token": list("abcdefgh"), "subj_start": 0, "subj_end": 0,
              "obj_start": 5, "obj_end": 6}
    checks.check_attribution([(record, [3, 1, 2])], n=3)
    for bad in ([0, 1], [1, 1], [1, 2, 3, 4], [8], [2.0]):
        with pytest.raises(CheckError):
            checks.check_attribution([(record, bad)], n=3)


def test_train_log_rejects_non_finite_losses_and_missing_epochs(outputs):
    log = outputs / "setup-0" / "model.ckpt.log.jsonl"
    checks.check_train_log(log, 2, 1)
    with pytest.raises(CheckError, match="epochs"):
        checks.check_train_log(log, 3, 1)
    with pytest.raises(CheckError, match="phase"):
        checks.check_train_log(log, 2, 2)

    def nan(rows):
        rows[-1]["loss_relation"] = float("nan")
    _rewrite_jsonl(log, nan)
    with pytest.raises(CheckError, match="loss_relation"):
        checks.check_train_log(log, 2, 1)


def test_search_oracle_rejects_a_candidate_that_is_not_the_first_argmax(outputs, monkeypatch):
    from rexl import trainer
    from rexl.corpus import NO_RELATION, load_instances
    from rexl.neural import Model

    model = Model.load(outputs / "setup-0" / "model.ckpt")
    train = load_instances(outputs / "setup-0" / "data" / "train.jsonl")
    positives = [i for i in train if i.gold_relation != NO_RELATION][:4]
    # loose thresholds so every instance has several candidates
    assert checks.check_search_oracle(model, positives, 0.0, 1.0, 64) > len(positives)

    real = trainer.select_candidate

    def worst(candidates, inst, gold, model, seq=None):
        probs = model.candidate_scores(inst, candidates, gold, seq=seq)
        return trainer.ExplanationLabels(bits=tuple(candidates[int(probs.argmin())]),
                                         source=real(candidates, inst, gold, model, seq).source)
    monkeypatch.setattr(trainer, "select_candidate", worst)
    with pytest.raises(CheckError, match="first argmax"):
        checks.check_search_oracle(model, positives, 0.0, 1.0, 64)


def test_identical_rejects_a_changed_byte_and_a_missing_file(outputs):
    a, b = outputs / "setup-0", outputs / "setup-1"
    checks.check_identical(a, b)
    rules = b / "manual_rules.txt"
    rules.write_text(rules.read_text() + " ")
    with pytest.raises(CheckError, match="differs"):
        checks.check_identical(a, b)
    rules.unlink()
    with pytest.raises(CheckError, match="manual_rules"):
        checks.check_identical(a, b)


def test_quality_gates_reject_weak_results():
    with pytest.raises(CheckError):
        checks.check_at_least("test F1", 0.89, 0.90)
    checks.check_merged_recall(0.25, 0.5)
    with pytest.raises(CheckError, match="twice manual"):
        checks.check_merged_recall(0.25, 0.49)
    checks.check_rule_f1_gap(0.86, 1.0)
    checks.check_rule_f1_gap(0.95, 0.80)
    with pytest.raises(CheckError, match="from neural F1"):
        checks.check_rule_f1_gap(0.84, 1.0)


def test_micro_scores_match_a_hand_count():
    gold = {"a": "r1", "b": "r2", "c": "no_relation", "d": "r1"}
    pred = {"a": "r1", "b": "r1", "c": "r2", "d": "no_relation"}
    # tp=1 (a); fp=2 (b, c); fn=2 (b, d)
    p, r, f = checks.micro_prf(pred, gold)
    assert (p, r) == (1 / 3, 1 / 3)
    assert abs(f - 1 / 3) < 1e-15
