"""Turning rationales into syntactic rules.

For one instance: take the longest contiguous rationale run (nearest to
the subject on ties) as the trigger, anchor on its shallowest token, read
the shortest dependency paths from that anchor to each entity span, and
emit a syntactic rule matching the trigger words with those paths.

Two sources are supported.  ``train_gold`` pairs gold labels with the
model's predicted rationale.  ``test_predicted`` uses the model's own
labels and rationales on unlabelled data, so rule induction also works
transductively.  Both skip instances a manual rule already matches, before
the model sees them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from .corpus import (
    NO_RELATION,
    RelationInstance,
    shortest_dep_path,
    token_depth,
)
from .neural import Model
from .rules import (
    GEN_TEST,
    GEN_TRAIN,
    RuleSet,
    SyntacticRule,
    first_match,
)

TRAIN_GOLD = "train_gold"
TEST_PREDICTED = "test_predicted"
_SOURCES = (TRAIN_GOLD, TEST_PREDICTED)


class RuleGenError(Exception):
    pass


@dataclass(frozen=True)
class GenConfig:
    source: str = TRAIN_GOLD

    def __post_init__(self) -> None:
        if self.source not in _SOURCES:
            raise ValueError(f"source must be one of {_SOURCES}")


def _longest_run(bits: Sequence[int], subj_span: tuple[int, int]) -> Optional[tuple[int, int]]:
    """Longest contiguous run of set bits; ties go to the run whose start
    is closest to the subject span, then leftmost."""
    runs = []
    start = None
    for i, b in enumerate(list(bits) + [0]):
        if b and start is None:
            start = i
        elif not b and start is not None:
            runs.append((start, i - 1))
            start = None
    if not runs:
        return None

    def subj_distance(run: tuple[int, int]) -> int:
        lo, hi = run
        s_lo, s_hi = subj_span
        if hi < s_lo:
            return s_lo - hi
        if lo > s_hi:
            return lo - s_hi
        return 0

    best = min(runs, key=lambda r: (-(r[1] - r[0]), subj_distance(r), r[0]))
    return best


def generate_rule(
    inst: RelationInstance,
    label: str,
    rationale: Sequence[int],
    manual_rules: Optional[RuleSet] = None,
) -> Optional[SyntacticRule]:
    """Induce one syntactic rule, or None when the instance yields nothing.

    Returns None when the label is NO_RELATION, the rationale is empty
    after entity filtering, or a manual rule already matches the instance.
    """
    if label == NO_RELATION:
        return None
    if manual_rules is not None and first_match(manual_rules, inst) is not None:
        return None
    n = len(inst.tokens)
    if len(rationale) != n:
        raise RuleGenError(
            f"{inst.id}: rationale has {len(rationale)} bits for {n} tokens"
        )
    entity = inst.entity_indices
    bits = [1 if (b and i not in entity) else 0 for i, b in enumerate(rationale)]
    run = _longest_run(bits, inst.subj_span)
    if run is None:
        return None
    lo, hi = run
    trigger_words = tuple(inst.tokens[i].form for i in range(lo, hi + 1))
    anchor = min(range(lo, hi + 1), key=lambda i: (token_depth(inst, i), i))
    subj_path, _ = shortest_dep_path(inst, {anchor}, inst.subj_indices)
    obj_path, _ = shortest_dep_path(inst, {anchor}, inst.obj_indices)
    if not subj_path.steps or not obj_path.steps:
        # trigger inside an entity span cannot happen (bits exclude them),
        # so empty paths only arise from degenerate trees; skip those
        return None
    return SyntacticRule(
        id="",
        label=label,
        trigger_field="word",
        trigger_alternatives=(trigger_words,),
        subj_type=inst.subj_type.upper(),
        subj_path=subj_path,
        obj_type=inst.obj_type.upper(),
        obj_path=obj_path,
        provenance=GEN_TRAIN,
    )


def _rule_key(rule: SyntacticRule):
    return (
        rule.label,
        rule.trigger_field,
        rule.trigger_alternatives,
        rule.subj_type,
        tuple(rule.subj_path.steps),
        rule.obj_type,
        tuple(rule.obj_path.steps),
    )


def generate_ruleset(
    model: Model,
    instances: Sequence[RelationInstance],
    manual_rules: Optional[RuleSet],
    config: GenConfig,
    nrc_threshold: float = 0.5,
) -> RuleSet:
    """Induce rules over a partition, in instance order.

    ``train_gold`` keeps gold labels and takes the model's rationale;
    ``test_predicted`` trusts the model for both.  Both predict at
    ``nrc_threshold``, so a rationale is empty where the gate says no
    relation.  Instances a manual rule matches are dropped before predicting.
    """
    provenance = GEN_TRAIN if config.source == TRAIN_GOLD else GEN_TEST
    if config.source == TRAIN_GOLD:
        instances = [i for i in instances if i.gold_relation != NO_RELATION]
    if manual_rules is not None:
        instances = [i for i in instances if first_match(manual_rules, i) is None]
    predictions = model.predict_batch(instances, nrc_threshold=nrc_threshold)
    rules: list[SyntacticRule] = []
    seen = set()
    counter = 0
    for inst, pred in zip(instances, predictions):
        label = inst.gold_relation if config.source == TRAIN_GOLD else pred.label
        if label == NO_RELATION:
            continue
        bits = tuple(1 if i in pred.rationale else 0 for i in range(len(inst.tokens)))
        rule = generate_rule(inst, label, bits)
        if rule is None:
            continue
        rule = replace(rule, provenance=provenance)
        key = _rule_key(rule)
        if key in seen:
            continue
        seen.add(key)
        counter += 1
        rules.append(replace(rule, id=f"{provenance}-{counter:04d}"))
    return RuleSet(rules)


def merge_rulesets(rulesets: Iterable[RuleSet]) -> RuleSet:
    """Concatenate rule sets in order, dropping exact duplicates later in
    the order and renaming on id collisions."""
    merged = []
    seen_keys = set()
    seen_ids = set()
    for ruleset in rulesets:
        for rule in ruleset:
            key = (
                _rule_key(rule)
                if isinstance(rule, SyntacticRule)
                else ("surface", rule.label, rule.elements)
            )
            if key in seen_keys:
                continue
            seen_keys.add(key)
            rid = rule.id
            if rid in seen_ids:
                suffix = 2
                while f"{rid}-{suffix}" in seen_ids:
                    suffix += 1
                rule = replace(rule, id=f"{rid}-{suffix}")
            seen_ids.add(rule.id)
            merged.append(rule)
    return RuleSet(merged)
