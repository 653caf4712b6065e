"""Evaluation: micro P/R/F1 for labels, token-overlap scores for rationales.

Label scoring treats NO_RELATION as the negative class: a true positive
needs an exact label match on a positive prediction; predicting a positive
label for a gold-negative or gold-different instance is a false positive;
failing to recover a gold positive is a false negative (so a wrong
positive label on a positive instance counts once in each column).

Rationale scoring compares token-index sets per instance and
macro-averages; instances with an empty gold set are skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import NO_RELATION


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class EvalReport:
    kind: str
    precision: float
    recall: float
    f1: float
    support: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "support": dict(sorted(self.support.items())),
        }

    def to_text(self) -> str:
        rows = [
            ("precision", f"{self.precision:.4f}"),
            ("recall", f"{self.recall:.4f}"),
            ("f1", f"{self.f1:.4f}"),
        ] + [(k, str(v)) for k, v in sorted(self.support.items())]
        width = max(len(name) for name, _ in rows)
        lines = [f"[{self.kind}]"]
        lines += [f"{name.ljust(width)}  {value}" for name, value in rows]
        return "\n".join(lines)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def rc_micro(predicted: Mapping[str, str], gold: Mapping[str, str]) -> EvalReport:
    """Micro-averaged label scores over matching instance ids."""
    if set(predicted) != set(gold):
        missing = sorted(set(gold) - set(predicted))[:3]
        extra = sorted(set(predicted) - set(gold))[:3]
        raise EvalError(
            f"prediction/gold id mismatch (missing {missing}, unexpected {extra})"
        )
    tp = fp = fn = 0
    for iid, gold_label in gold.items():
        pred_label = predicted[iid]
        if pred_label != NO_RELATION:
            if pred_label == gold_label:
                tp += 1
            else:
                fp += 1
        if gold_label != NO_RELATION and pred_label != gold_label:
            fn += 1
    precision, recall, f1 = _prf(tp, fp, fn)
    return EvalReport(
        kind="relation-micro",
        precision=precision,
        recall=recall,
        f1=f1,
        support={"tp": tp, "fp": fp, "fn": fn, "instances": len(gold)},
    )


def _set_prf(pred: frozenset[int] | set[int], gold: frozenset[int] | set[int]):
    tp = len(set(pred) & set(gold))
    fp = len(set(pred) - set(gold))
    fn = len(set(gold) - set(pred))
    return _prf(tp, fp, fn)


def _macro(kind: str, scores: Sequence[tuple[float, float, float]],
           support: dict[str, int]) -> EvalReport:
    """Average per-instance (precision, recall, f1); all zero with no instances."""
    support = {"instances": len(scores), **support}
    if not scores:
        return EvalReport(kind, 0.0, 0.0, 0.0, support)
    precision, recall, f1 = (sum(column) / len(scores) for column in zip(*scores))
    return EvalReport(kind, precision, recall, f1, support)


def ec_overlap(
    predicted: Mapping[str, Iterable[int]],
    gold: Mapping[str, Iterable[int]],
) -> EvalReport:
    """Macro-averaged token overlap between predicted and gold rationales.

    Only instances present in ``gold`` with a non-empty gold set count.
    A missing or empty prediction against a non-empty gold set scores zero;
    ``support["missing"]`` counts the scored instances with no prediction.
    """
    scores = []
    missing = 0
    for iid, gold_tokens in gold.items():
        gset = set(gold_tokens)
        if not gset:
            continue
        missing += iid not in predicted
        scores.append(_set_prf(set(predicted.get(iid, ())), gset))
    return _macro("rationale-overlap", scores, {"missing": missing})


def plausibility(
    predicted: Mapping[str, Iterable[int]],
    annotations: Mapping[str, Sequence[Iterable[int]]],
) -> EvalReport:
    """Agreement with human rationale annotations, taking the better
    annotator per instance (per-instance max F1)."""
    scores = []
    for iid in sorted(annotations):
        annotator_sets = [set(a) for a in annotations[iid]]
        if len(annotator_sets) < 2:
            raise EvalError(f"{iid}: need two annotators, found {len(annotator_sets)}")
        if iid not in predicted:
            raise EvalError(f"{iid}: no prediction for annotated instance")
        pset = set(predicted[iid])
        scores.append(max(
            (_set_prf(pset, aset) for aset in annotator_sets),
            key=lambda prf: prf[2],
        ))
    return _macro("plausibility", scores, {})


def load_annotations(path: str | Path) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Read human rationale annotations: one JSON object per line with an
    ``id`` and two token-index lists ``tokens_a`` and ``tokens_b``."""
    out: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EvalError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
            for key in ("id", "tokens_a", "tokens_b"):
                if key not in record:
                    raise EvalError(f"{path}:{lineno}: missing key {key!r}")
            iid = str(record["id"])
            if iid in out:
                raise EvalError(f"{path}:{lineno}: duplicate annotation for {iid}")
            out[iid] = (
                tuple(int(i) for i in record["tokens_a"]),
                tuple(int(i) for i in record["tokens_b"]),
            )
    return out
