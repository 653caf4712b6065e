"""Semi-supervised training with latent rationale search.

Training runs in two phases.  During burn-in the gate head sees every
instance while the rationale and relation heads see only instances whose
rationale came from a rule.  Afterwards, positive instances without a rule
annotation get a pseudo rationale picked per batch: their current
rationale scores are split at two thresholds into forced-one, forced-zero
and ambiguous tokens, every resolution of the ambiguous tokens becomes a
candidate, and the candidate giving the gold relation the highest
probability wins.  Negative instances never reach the rationale or
relation heads.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import (
    Corpus,
    ExplanationLabels,
    NO_RELATION,
    RelationInstance,
    SOURCE_LATENT,
    mask_entities,
)
from .evalmetrics import rc_micro
from .neural import (
    ABLATE_GATE,
    ABLATE_RATIONALE,
    AdamW,
    InstanceTargets,
    Model,
    ModelConfig,
)


class TrainingError(Exception):
    pass


@dataclass(frozen=True)
class TrainConfig:
    t_up: float = 0.8
    t_low: float = 0.2
    burn_in_epochs: int = 3
    total_epochs: int = 10
    candidate_cap: int = 256
    nrc_threshold: float = 0.5
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self) -> None:
        if not (0.0 <= self.t_low <= self.t_up <= 1.0):
            raise ValueError("need 0 <= t_low <= t_up <= 1")
        if self.burn_in_epochs < 0 or self.total_epochs <= 0:
            raise ValueError("epoch counts must be positive")
        if self.burn_in_epochs > self.total_epochs:
            raise ValueError("burn_in_epochs cannot exceed total_epochs")
        if self.candidate_cap < 1:
            raise ValueError("candidate_cap must be at least 1")
        if not (0.0 <= self.nrc_threshold <= 1.0):
            raise ValueError("nrc_threshold must be a probability")

    def to_dict(self) -> dict:
        out = {
            "t_up": self.t_up,
            "t_low": self.t_low,
            "burn_in_epochs": self.burn_in_epochs,
            "total_epochs": self.total_epochs,
            "candidate_cap": self.candidate_cap,
            "nrc_threshold": self.nrc_threshold,
            "model": self.model.to_dict(),
        }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        model = data.pop("model", {})
        known = {f for f in cls.__dataclass_fields__} - {"model"}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown training config keys: {sorted(unknown)}")
        return cls(model=ModelConfig.from_dict(model), **data)


@dataclass
class EpochRecord:
    epoch: int
    phase: str  # "burn_in" or "ssl"
    loss_total: float
    loss_gate: float
    loss_rationale: float
    loss_relation: float
    dev_f1: float
    mean_candidates: Optional[float]

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "phase": self.phase,
            "loss_total": self.loss_total,
            "loss_gate": self.loss_gate,
            "loss_rationale": self.loss_rationale,
            "loss_relation": self.loss_relation,
            "dev_f1": self.dev_f1,
            "mean_candidates": self.mean_candidates,
        }


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.to_dict(), sort_keys=True))
                fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "TrainLog":
        records = []
        with Path(path).open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(EpochRecord(**json.loads(line)))
        return cls(records)


def generate_candidates(
    scores: Sequence[float],
    t_low: float,
    t_up: float,
    cap: int = 256,
) -> list[tuple[int, ...]]:
    """Enumerate candidate rationales from per-token scores.

    Scores above t_up force a 1, below t_low force a 0, and each ambiguous
    score in between doubles the candidate set.  Candidates come out in
    binary counting order with the lowest-index ambiguous token toggling
    fastest.  When the ambiguous set would exceed the cap, the tokens most
    distant from 0.5 are fixed to their nearer side first.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if not (0.0 <= t_low <= t_up <= 1.0):
        raise ValueError("need 0 <= t_low <= t_up <= 1")
    scores = list(scores)
    base = [0] * len(scores)
    ambiguous = []
    for i, s in enumerate(scores):
        if s > t_up:
            base[i] = 1
        elif s < t_low:
            base[i] = 0
        else:
            ambiguous.append(i)
    if 2 ** len(ambiguous) > cap:
        max_free = int(math.floor(math.log2(cap)))
        by_confidence = sorted(ambiguous, key=lambda i: (-abs(scores[i] - 0.5), i))
        while len(ambiguous) > max_free:
            fix = by_confidence.pop(0)
            base[fix] = 1 if scores[fix] >= 0.5 else 0
            ambiguous.remove(fix)
    out = []
    for c in range(2 ** len(ambiguous)):
        bits = list(base)
        for j, i in enumerate(ambiguous):
            bits[i] = (c >> j) & 1
        out.append(tuple(bits))
    return out


def select_candidate(
    candidates: Sequence[Sequence[int]],
    inst: RelationInstance,
    gold_label: str,
    model: Model,
    seq=None,
) -> ExplanationLabels:
    """Pick the candidate maximising p(gold label); first wins ties."""
    if not candidates:
        raise ValueError(f"{inst.id}: empty candidate list")
    if gold_label == NO_RELATION:
        raise ValueError(f"{inst.id}: latent search needs a positive label")
    probs = model.candidate_scores(inst, candidates, gold_label, seq=seq)
    best = int(np.argmax(probs))
    return ExplanationLabels(bits=tuple(candidates[best]), source=SOURCE_LATENT)


def train(
    corpus: Corpus,
    rule_annotations: dict[str, ExplanationLabels],
    config: TrainConfig,
    ablate: Optional[str] = None,
) -> tuple[Model, TrainLog]:
    """Train a model on the corpus train split; dev steers nothing, it is
    only measured.  Returns the trained model and the epoch log."""
    rng = np.random.default_rng(config.model.seed)
    model = Model.create(
        config.model,
        corpus.token_vocab,
        corpus.relation_vocab,
        ablate=ablate,
        rng=rng,
    )
    instances = list(corpus.train)
    if not instances:
        raise TrainingError("train split is empty")
    if not rule_annotations and ablate != ABLATE_RATIONALE:
        warnings.warn(
            "no rule annotations given: burn-in trains the gate head only, "
            "the relation and rationale heads start cold",
            stacklevel=2,
        )
    model.check_lengths([*instances, *corpus.dev])
    seqs = {inst.id: mask_entities(inst, model.token_vocab) for inst in instances}
    positives = [inst for inst in instances if inst.gold_relation != NO_RELATION]
    for inst in positives:
        if inst.gold_relation not in model.relation_vocab:
            raise TrainingError(f"{inst.id}: label {inst.gold_relation!r} missing from vocab")

    batch_size = config.model.batch_size
    steps_per_epoch = max(1, math.ceil(len(instances) / batch_size))
    optimizer = AdamW(
        model.specs,
        lr=config.model.learning_rate,
        weight_decay=config.model.weight_decay,
        total_steps=config.total_epochs * steps_per_epoch,
    )

    log = TrainLog()
    order = np.arange(len(instances))
    for epoch in range(1, config.total_epochs + 1):
        burn_in = epoch <= config.burn_in_epochs
        phase = "burn_in" if burn_in else "ssl"
        rng.shuffle(order)
        sums = {"gate": 0.0, "rationale": 0.0, "relation": 0.0, "total": 0.0}
        candidate_counts: list[int] = []
        for lo in range(0, len(instances), batch_size):
            batch = [instances[i] for i in order[lo:lo + batch_size]]
            pseudo: dict[str, ExplanationLabels] = {}
            if not burn_in and ablate != ABLATE_RATIONALE:
                pseudo = _pseudo_label_batch(
                    model, batch, seqs, rule_annotations, config, candidate_counts
                )
            items = []
            for inst in batch:
                seq = seqs[inst.id]
                items.append((inst, seq, _targets_for(
                    model, inst, rule_annotations, pseudo, burn_in, ablate,
                )))
            stats, grads = model.loss_and_grads(items, train=True, rng=rng)
            if not np.isfinite(stats["total"]):
                ids = ", ".join(inst.id for inst in batch[:5])
                raise TrainingError(
                    f"non-finite loss {stats['total']} in epoch {epoch} "
                    f"on batch starting at {lo} (instances {ids}, ...)"
                )
            optimizer.step(model.params, grads)
            for key in sums:
                sums[key] += stats[key] * len(batch)
        n = len(instances)
        dev_f1 = _dev_f1(model, corpus, config)
        log.records.append(EpochRecord(
            epoch=epoch,
            phase=phase,
            loss_total=sums["total"] / n,
            loss_gate=sums["gate"] / n,
            loss_rationale=sums["rationale"] / n,
            loss_relation=sums["relation"] / n,
            dev_f1=dev_f1,
            mean_candidates=(
                float(np.mean(candidate_counts)) if candidate_counts else None
            ),
        ))
    return model, log


def _pseudo_label_batch(
    model: Model,
    batch: Sequence[RelationInstance],
    seqs: dict,
    rule_annotations: dict[str, ExplanationLabels],
    config: TrainConfig,
    candidate_counts: list[int],
) -> dict[str, ExplanationLabels]:
    """Latent rationale search for unannotated positives, one scoring pass."""
    need = [
        inst for inst in batch
        if inst.gold_relation != NO_RELATION and inst.id not in rule_annotations
    ]
    out: dict[str, ExplanationLabels] = {}
    for inst in need:
        seq = seqs[inst.id]
        scores = model.rationale_scores(model.encode(seq), inst)
        candidates = generate_candidates(
            scores, config.t_low, config.t_up, cap=config.candidate_cap
        )
        candidate_counts.append(len(candidates))
        out[inst.id] = select_candidate(
            candidates, inst, inst.gold_relation, model, seq=seq
        )
    return out


def _targets_for(
    model: Model,
    inst: RelationInstance,
    rule_annotations: dict[str, ExplanationLabels],
    pseudo: dict[str, ExplanationLabels],
    burn_in: bool,
    ablate: Optional[str],
) -> InstanceTargets:
    positive = inst.gold_relation != NO_RELATION
    if ablate == ABLATE_RATIONALE:
        # no rationale head: the relation head trains on the full context
        # for every positive from the first epoch
        if positive:
            return InstanceTargets(
                has_relation=True,
                relation_index=model.class_index(inst.gold_relation),
                rationale_bits=model.full_rationale_bits(inst),
                train_rationale=False,
                train_relation=True,
            )
        return InstanceTargets(has_relation=False)

    if not positive:
        if ablate == ABLATE_GATE:
            # gateless models learn negatives through the extra class
            return InstanceTargets(
                has_relation=False,
                relation_index=model.class_index(NO_RELATION),
                rationale_bits=(0,) * len(inst.tokens),
                train_rationale=False,
                train_relation=True,
            )
        return InstanceTargets(has_relation=False)

    annotation = rule_annotations.get(inst.id)
    if annotation is not None:
        return InstanceTargets(
            has_relation=True,
            relation_index=model.class_index(inst.gold_relation),
            rationale_bits=annotation.bits,
            train_rationale=True,
            train_relation=True,
        )
    chosen = pseudo.get(inst.id)
    if chosen is None:
        # burn-in: unannotated positives only reach the gate
        return InstanceTargets(has_relation=True)
    return InstanceTargets(
        has_relation=True,
        relation_index=model.class_index(inst.gold_relation),
        rationale_bits=chosen.bits,
        train_rationale=True,
        train_relation=True,
    )


def _dev_f1(model: Model, corpus: Corpus, config: TrainConfig) -> float:
    if not corpus.dev:
        return float("nan")
    preds = model.predict_batch(corpus.dev, nrc_threshold=config.nrc_threshold)
    gold = {inst.id: inst.gold_relation for inst in corpus.dev}
    predicted = {p.instance_id: p.label for p in preds}
    report = rc_micro(predicted, gold)
    return report.f1
