"""Turning rationales into syntactic rules.

For one instance: take the longest contiguous rationale run (nearest to
the subject on ties) as the trigger, anchor on it with
``rules.trigger_anchor`` (the anchor the matcher uses), read the shortest
dependency paths from that anchor to each entity span, and emit a
syntactic rule matching the trigger words with those paths.

The source of a rule set is its provenance.  ``gen_train`` pairs gold
labels with the model's predicted rationale.  ``gen_test`` uses the
model's own labels and rationales on unlabelled data, so rule induction
also works transductively.  Both skip instances a manual rule already
matches, before the model sees them.  Generation and merging drop a rule
that repeats an earlier one up to id and provenance (``_rule_key``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Sequence

from .corpus import NO_RELATION, RelationInstance, shortest_dep_path
from .neural import Model
from .rules import (
    GEN_TEST,
    GEN_TRAIN,
    MANUAL,
    Rule,
    RuleSet,
    SyntacticRule,
    first_match,
    trigger_anchor,
)


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
) -> Optional[SyntacticRule]:
    """Induce one syntactic rule, or None when the instance yields nothing.

    Returns None when the label is NO_RELATION or the rationale is empty
    after entity filtering.  The rule has an empty id and ``gen_train``
    provenance; ``generate_ruleset`` sets both.
    """
    if label == NO_RELATION:
        return None
    n = len(inst.tokens)
    if len(rationale) != n:
        raise ValueError(f"{inst.id}: rationale has {len(rationale)} bits for {n} tokens")
    entity = inst.entity_indices
    bits = [1 if (b and i not in entity) else 0 for i, b in enumerate(rationale)]
    run = _longest_run(bits, inst.subj_span)
    if run is None:
        return None
    lo, hi = run
    trigger_words = tuple(inst.tokens[i].form for i in range(lo, hi + 1))
    anchor = trigger_anchor(inst, range(lo, hi + 1))
    subj_path = shortest_dep_path(inst, anchor, inst.subj_indices)
    obj_path = shortest_dep_path(inst, anchor, inst.obj_indices)
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


def _rule_key(rule: Rule) -> Rule:
    """A rule's identity: every field that decides what it matches and
    predicts, so everything but its id and provenance."""
    return replace(rule, id="", provenance=MANUAL)


def generate_ruleset(
    model: Model,
    instances: Sequence[RelationInstance],
    manual_rules: Optional[RuleSet],
    source: str,
    nrc_threshold: float = 0.5,
) -> RuleSet:
    """Induce rules over a partition, in instance order.

    ``source`` is the provenance of the rules: ``GEN_TRAIN`` keeps gold
    labels and takes the model's rationale; ``GEN_TEST`` trusts the model
    for both.  Both predict at ``nrc_threshold``, so a rationale is empty
    where the gate says no relation.  Instances a manual rule matches are
    dropped before predicting.
    """
    if source not in (GEN_TRAIN, GEN_TEST):
        raise ValueError(f"source must be {GEN_TRAIN!r} or {GEN_TEST!r}, got {source!r}")
    if source == GEN_TRAIN:
        instances = [i for i in instances if i.gold_relation != NO_RELATION]
    if manual_rules is not None:
        instances = [i for i in instances if first_match(manual_rules, i) is None]
    predictions = model.predict_batch(instances, nrc_threshold=nrc_threshold)
    rules: list[SyntacticRule] = []
    seen = set()
    for inst, pred in zip(instances, predictions):
        label = inst.gold_relation if source == GEN_TRAIN else pred.label
        if label == NO_RELATION:
            continue
        bits = tuple(1 if i in pred.rationale else 0 for i in range(len(inst.tokens)))
        rule = generate_rule(inst, label, bits)
        if rule is None:
            continue
        key = _rule_key(rule)
        if key in seen:
            continue
        seen.add(key)
        rules.append(replace(rule, id=f"{source}-{len(rules) + 1:04d}", provenance=source))
    return RuleSet(rules)


def merge_rulesets(rulesets: Iterable[RuleSet]) -> RuleSet:
    """Concatenate rule sets in order, dropping a rule whose ``_rule_key``
    an earlier rule shares and renaming on id collisions."""
    merged = []
    seen_keys = set()
    seen_ids = set()
    for ruleset in rulesets:
        for rule in ruleset:
            key = _rule_key(rule)
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
