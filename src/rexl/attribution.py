"""Token attribution baselines for comparing against trained rationales.

All methods rank non-entity tokens for one instance.  Score-based methods
(attention, saliency, occlusion) sort descending with ties broken by token
index and return the top n.  The structural baseline returns every token
strictly between the entity spans.  Greedy search grows a token set while
the probability of the anchor label keeps strictly increasing, then ranks
by insertion order.

Methods that need a label anchor use the model's prediction under full
non-entity context, which is also the context the scores are computed in;
the trained rationale head itself is deliberately not consulted here.
Occlusion and greedy score that head through ``Model.relation_probs``;
saliency is ``Model.embedding_saliency``, which needs the head's backward.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .corpus import RelationInstance
from .neural import Model

ATTENTION = "attention"
SALIENCY = "saliency"
OCCLUSION = "occlusion"
GREEDY = "greedy"
ALL_BETWEEN = "all-between"

METHODS = (ATTENTION, SALIENCY, OCCLUSION, GREEDY, ALL_BETWEEN)


class AttributionError(Exception):
    pass


def _candidates(inst: RelationInstance) -> list[int]:
    entity = inst.entity_indices
    return [i for i in range(len(inst.tokens)) if i not in entity]


def _top_n(scores: np.ndarray, candidates: Sequence[int], n: int) -> list[int]:
    ranked = sorted(candidates, key=lambda i: (-scores[i], i))
    return ranked[: max(n, 0)]


def all_between(inst: RelationInstance) -> list[int]:
    """Every token strictly between the subject and object spans."""
    spans = sorted([inst.subj_span, inst.obj_span])
    lo = spans[0][1] + 1
    hi = spans[1][0]
    return list(range(lo, hi))


def all_context_distribution(model: Model, inst: RelationInstance) -> np.ndarray:
    """The relation head's distribution with every non-entity token kept."""
    return model.relation_distribution(inst, model.full_rationale_bits(inst))


def cls_attention(model: Model, inst: RelationInstance) -> np.ndarray:
    """Last-layer [CLS] attention mass per original token, head-averaged."""
    last = model.encode(model.masked(inst)).attentions[-1]  # [heads, L, L]
    return last[:, 0, 1:len(inst.tokens) + 1].mean(axis=0)


def occlusion_drops(model: Model, inst: RelationInstance, label: Optional[str] = None):
    """Anchor-label probability drop per context token replaced by the unknown symbol."""
    seq = model.masked(inst)
    bits = model.full_rationale_bits(inst)
    base = model.relation_distribution(inst, bits, seq=seq)
    c = int(base.argmax()) if label is None else model.class_index(label)
    targets = _candidates(inst)
    out = np.zeros(len(inst.tokens))  # entity positions stay 0
    if targets:
        probs = model.relation_probs(inst, [bits] * len(targets), seq=seq,
                                     overrides=[{j + 1: model.token_vocab.unk_id} for j in targets])
        out[targets] = base[c] - probs[:, c]
    return out


def greedy_rationale(
    model: Model,
    inst: RelationInstance,
    label: Optional[str] = None,
) -> list[int]:
    """Grow a token set greedily while the anchor label's probability
    strictly increases.  Returns tokens in insertion order."""
    seq = model.masked(inst)
    base = all_context_distribution(model, inst)
    c = int(base.argmax()) if label is None else model.class_index(label)
    n = len(inst.tokens)
    remaining = _candidates(inst)
    chosen: list[int] = []
    bits = [0] * n
    current = float(
        model.relation_distribution(inst, bits, seq=seq)[c]
    )
    while remaining:
        trials = []
        for j in remaining:
            trial = list(bits)
            trial[j] = 1
            trials.append(tuple(trial))
        probs = model.relation_probs(inst, trials, seq=seq)[:, c]
        best_pos = int(np.argmax(probs))
        if float(probs[best_pos]) <= current:
            break
        j = remaining[best_pos]
        bits[j] = 1
        chosen.append(j)
        remaining.remove(j)
        current = float(probs[best_pos])
    return chosen


def attribute(
    method: str,
    model: Model,
    inst: RelationInstance,
    n: int,
    label: Optional[str] = None,
) -> list[int]:
    """Top-n token indices for one instance under the named method.

    ``n`` larger than the candidate pool returns the whole ranking; the
    structural and greedy methods ignore ``n`` beyond truncation.
    """
    if method not in METHODS:
        raise AttributionError(f"unknown attribution method {method!r}")
    if n < 0:
        raise AttributionError("n must be non-negative")
    candidates = _candidates(inst)
    n = min(n, len(candidates))
    if method == ALL_BETWEEN:
        return all_between(inst)[:n]
    if method == GREEDY:
        picked = greedy_rationale(model, inst, label=label)
        return picked[:n]
    if method == ATTENTION:
        scores = cls_attention(model, inst)
    elif method == SALIENCY:
        scores = model.embedding_saliency(inst, label=label)
    else:
        scores = occlusion_drops(model, inst, label=label)
    return _top_n(scores, candidates, n)
