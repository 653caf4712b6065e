"""Correctness checks on the outputs of one benchmark run.

Each check raises ``CheckError`` on the first violation it finds.  Gold
labels, entity positions and micro scores are read and computed here from
the raw JSON lines, apart from the program; the checks that need rule
matching or the model call the program's public functions one item at a
time, as an oracle for its batched paths.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

NO_RELATION = "no_relation"
# batched and one-row forwards may round differently in the last bits
SCORE_TOLERANCE = 1e-9


class CheckError(Exception):
    pass


def read_jsonl(path: Path) -> list[dict]:
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def entity_positions(record: Mapping) -> set[int]:
    return set(range(record["subj_start"], record["subj_end"] + 1)) | set(
        range(record["obj_start"], record["obj_end"] + 1)
    )


def micro_prf(predicted: Mapping[str, str], gold: Mapping[str, str]) -> tuple[float, float, float]:
    """Micro precision, recall and F1 with no_relation as the negative class."""
    if set(predicted) != set(gold):
        raise CheckError("prediction ids differ from the gold ids")
    tp = fp = fn = 0
    for iid, g in gold.items():
        p = predicted[iid]
        if p != NO_RELATION:
            if p == g:
                tp += 1
            else:
                fp += 1
        if g != NO_RELATION and p != g:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def check_rc_report(pred_path: Path, records: Sequence[Mapping],
                    report_path: Path) -> tuple[float, float, float]:
    """Recompute micro P/R/F1 from the prediction file; it must equal the report."""
    gold = {r["id"]: r["relation"] for r in records}
    predicted = {r["id"]: r["label"] for r in read_jsonl(pred_path)}
    ours = micro_prf(predicted, gold)
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    theirs = (report["precision"], report["recall"], report["f1"])
    for name, a, b in zip(("precision", "recall", "f1"), ours, theirs):
        if abs(a - b) > 1e-12:
            raise CheckError(f"{report_path.name}: {name} {b} but the predictions give {a}")
    return ours


def check_predictions(pred_path: Path, records: Sequence[Mapping]) -> None:
    """One record per instance; rationales are sorted, distinct, in-range,
    non-entity token indices, and empty for no_relation."""
    by_id = {r["id"]: r for r in records}
    seen = set()
    for pred in read_jsonl(pred_path):
        iid = pred["id"]
        if iid not in by_id or iid in seen:
            raise CheckError(f"{pred_path.name}: unexpected or repeated id {iid!r}")
        seen.add(iid)
        rec = by_id[iid]
        rationale = pred["rationale"]
        if pred["label"] == NO_RELATION and rationale:
            raise CheckError(f"{iid}: no_relation with rationale {rationale}")
        _check_indices(iid, rationale, rec, ordered=True)
    if seen != set(by_id):
        raise CheckError(f"{pred_path.name}: {len(by_id) - len(seen)} instances missing")


def _check_indices(iid: str, indices: Sequence, record: Mapping, ordered: bool) -> None:
    n = len(record["token"])
    entity = entity_positions(record)
    if any(not isinstance(i, int) or isinstance(i, bool) for i in indices):
        raise CheckError(f"{iid}: non-integer token index in {list(indices)}")
    if len(set(indices)) != len(indices):
        raise CheckError(f"{iid}: repeated token index in {list(indices)}")
    if ordered and list(indices) != sorted(indices):
        raise CheckError(f"{iid}: token indices {list(indices)} are not sorted")
    for i in indices:
        if not 0 <= i < n:
            raise CheckError(f"{iid}: token index {i} outside 0..{n - 1}")
        if i in entity:
            raise CheckError(f"{iid}: token index {i} is an entity token")


def rules_in_order(paths: Sequence[Path]) -> list:
    """The rules of the files, concatenated in the order given.  Merging
    only drops exact duplicates later in this order, which cannot change
    which rule matches first."""
    from rexl.rules import load_rules

    return [rule for path in paths for rule in load_rules(path)]


def check_first_match(pred_path: Path, rules, instances) -> None:
    """Each label and rationale is that of the first rule, in the given
    order, that ``match_rule`` accepts; no_relation with no rationale otherwise."""
    from rexl.corpus import TokenVocab, mask_entities
    from rexl.rules import match_rule

    predicted = {r["id"]: r for r in read_jsonl(pred_path)}
    for inst in instances:
        seq = mask_entities(inst, TokenVocab.build([inst]))
        label, rationale = NO_RELATION, []
        for rule in rules:
            m = match_rule(rule, inst, seq=seq)
            if m is not None:
                label, rationale = m.label, sorted(m.trigger_tokens)
                break
        got = predicted.get(inst.id)
        if got is None:
            raise CheckError(f"{pred_path.name}: no prediction for {inst.id}")
        if (got["label"], got["rationale"]) != (label, rationale):
            raise CheckError(
                f"{inst.id}: run-rules gave {got['label']} {got['rationale']}, "
                f"first matching rule gives {label} {rationale}"
            )


def check_same_labels(pred_path: Path, predictions) -> None:
    """The prediction file's labels equal those of in-memory predictions."""
    on_disk = {r["id"]: r["label"] for r in read_jsonl(pred_path)}
    for p in predictions:
        if on_disk.get(p.instance_id) != p.label:
            raise CheckError(
                f"{p.instance_id}: file says {on_disk.get(p.instance_id)!r}, "
                f"predict_batch says {p.label!r}"
            )
    if len(on_disk) != len(predictions):
        raise CheckError(f"{pred_path.name}: {len(on_disk)} records, {len(predictions)} predictions")


def check_explain(path: Path, record: Mapping) -> None:
    out = json.loads(Path(path).read_text(encoding="utf-8"))
    if out["id"] != record["id"] or out["tokens"] != record["token"]:
        raise CheckError(f"{path.name}: explains another instance")
    if out["label"] == NO_RELATION and out["selected"]:
        raise CheckError(f"{record['id']}: no_relation with selected tokens")
    _check_indices(record["id"], out["selected"], record, ordered=True)


def check_attribution(results: Iterable[tuple[Mapping, Sequence[int]]], n: int) -> None:
    """At most n distinct, in-range, non-entity token indices per instance."""
    for record, indices in results:
        if len(indices) > n:
            raise CheckError(f"{record['id']}: {len(indices)} tokens, more than {n}")
        _check_indices(record["id"], indices, record, ordered=False)


def check_train_log(log_path: Path, total_epochs: int, burn_in_epochs: int) -> None:
    """One record per epoch, in order, with the right phase and finite losses."""
    records = read_jsonl(log_path)
    if [r["epoch"] for r in records] != list(range(1, total_epochs + 1)):
        raise CheckError(f"{log_path.name}: epochs {[r['epoch'] for r in records]}")
    for r in records:
        phase = "burn_in" if r["epoch"] <= burn_in_epochs else "ssl"
        if r["phase"] != phase:
            raise CheckError(f"{log_path.name}: epoch {r['epoch']} phase {r['phase']!r}")
        for key in ("loss_total", "loss_gate", "loss_rationale", "loss_relation"):
            if not math.isfinite(r[key]):
                raise CheckError(f"{log_path.name}: epoch {r['epoch']} {key} {r[key]}")


def check_search_oracle(model, instances, t_low: float, t_up: float, cap: int) -> int:
    """``select_candidate`` returns the first argmax of p(gold), scoring one
    candidate at a time with ``relation_distribution``.  Returns the number
    of candidates scored."""
    from rexl.trainer import generate_candidates, select_candidate

    scored = 0
    for inst in instances:
        seq = model.masked(inst)
        scores = model.rationale_scores(model.encode(seq), inst)
        candidates = generate_candidates(scores, t_low, t_up, cap=cap)
        chosen = candidates.index(
            select_candidate(candidates, inst, inst.gold_relation, model, seq=seq).bits
        )
        ci = model.class_index(inst.gold_relation)
        probs = [float(model.relation_distribution(inst, c, seq=seq)[ci]) for c in candidates]
        scored += len(candidates)
        best = max(probs)
        if probs[chosen] < best - SCORE_TOLERANCE or any(
            p > probs[chosen] + SCORE_TOLERANCE for p in probs[:chosen]
        ):
            raise CheckError(
                f"{inst.id}: chose candidate {chosen} (p={probs[chosen]:.12f}), "
                f"first argmax is {probs.index(best)} (p={best:.12f})"
            )
    return scored


def check_at_least(what: str, value: float, floor: float) -> None:
    if not value >= floor:
        raise CheckError(f"{what} {value:.4f} is below {floor}")


def check_merged_recall(manual_recall: float, merged_recall: float) -> None:
    """Merged rules at least double the recall of the manual rules."""
    if not merged_recall >= 2 * manual_recall:
        raise CheckError(f"merged recall {merged_recall:.4f} below twice manual {manual_recall:.4f}")


def check_rule_f1_gap(merged_f1: float, neural_f1: float, gap: float = 0.15) -> None:
    """Merged-rule F1 comes within ``gap`` of the neural F1."""
    if not abs(neural_f1 - merged_f1) <= gap:
        raise CheckError(f"merged-rule F1 {merged_f1:.4f} is more than {gap} "
                         f"from neural F1 {neural_f1:.4f}")


def tree_hashes(root: Path) -> dict[str, str]:
    """sha256 of every file under root except manifests, by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }


def check_identical(first: Path, other: Path) -> None:
    a, b = tree_hashes(first), tree_hashes(other)
    if not a:
        raise CheckError(f"{first} holds no outputs to compare")
    if set(a) != set(b):
        raise CheckError(f"{other.name} wrote {sorted(set(a) ^ set(b))} unlike {first.name}")
    for rel in a:
        if a[rel] != b[rel]:
            raise CheckError(f"{rel} differs between {first.name} and {other.name}")
