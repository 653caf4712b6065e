"""Three-headed relation model over a shared encoder.

Heads:
  * gate: does this instance carry a relation at all (sigmoid on [CLS]);
  * rationale: per-token importance (sigmoid per position, entity and
    [CLS] positions clamped to zero);
  * relation: label distribution from average-pooled context, subject and
    object segments, concatenated in that order.

The relation head never sees tokens outside its rationale: it re-encodes
only [CLS], the entity spans and the selected context tokens, keeping each
token's original position index.  Tokens left out of the rationale
therefore have exactly zero influence on the label distribution.
``Model.relation_probs`` is the head's one scorer; ``rexl.attribution``
holds the attribution methods but saliency, which needs its backward pass.

Ablations: ``ablate="nrc"`` drops the gate and adds a NO_RELATION class to
the relation head; ``ablate="ec"`` drops the rationale head and pools the
full non-entity context.

``Model.supervision`` is the one place the training table lives: which
head learns from an instance, under each ablation, and on which bits.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from ..corpus import (
    CorpusError,
    ExplanationLabels,
    MaskedSequence,
    NO_RELATION,
    RelationInstance,
    TokenVocab,
    mask_entities,
)
from .config import ModelConfig
from .losses import bce_with_logits, log_softmax, sigmoid
from .net import encoder_backward, encoder_forward, softmax

CHECKPOINT_MAGIC = b"RXF1"
CHECKPOINT_VERSION = 2
_CHECKPOINT_DTYPE = np.dtype("<f8")  # the compute dtype, so a loaded model is the trained one

ABLATE_GATE = "nrc"
ABLATE_RATIONALE = "ec"
_ABLATIONS = (None, ABLATE_GATE, ABLATE_RATIONALE)


class SequenceTooLongError(Exception):
    pass


class CheckpointError(Exception):
    pass


@dataclass(frozen=True)
class EncoderOutput:
    hidden: np.ndarray  # [L, d]
    attentions: tuple[np.ndarray, ...]  # per layer, [heads, L, L]


@dataclass(frozen=True)
class Prediction:
    instance_id: str
    label: str
    rationale: tuple[int, ...]  # original token indices
    gate_prob: Optional[float]


def param_specs(cfg: ModelConfig, vocab_size: int, n_classes: int):
    """Ordered (name, shape, decay, init) parameter declarations.

    The order here defines checkpoint tensor order; never reorder.
    """
    specs: list[tuple[str, tuple[int, ...], bool, str]] = [
        ("tok_emb", (vocab_size, cfg.d_model), True, "normal"),
        ("pos_emb", (cfg.max_seq_len, cfg.d_model), True, "normal"),
    ]
    d = cfg.d_model
    for l in range(cfg.n_layers):
        p = f"l{l}."
        specs += [
            (p + "ln1_g", (d,), False, "ones"),
            (p + "ln1_b", (d,), False, "zeros"),
            (p + "wq", (d, d), True, "normal"),
            (p + "bq", (d,), False, "zeros"),
            (p + "wk", (d, d), True, "normal"),
            (p + "bk", (d,), False, "zeros"),
            (p + "wv", (d, d), True, "normal"),
            (p + "bv", (d,), False, "zeros"),
            (p + "wo", (d, d), True, "normal"),
            (p + "bo", (d,), False, "zeros"),
            (p + "ln2_g", (d,), False, "ones"),
            (p + "ln2_b", (d,), False, "zeros"),
            (p + "w1", (d, cfg.d_ff), True, "normal"),
            (p + "b1", (cfg.d_ff,), False, "zeros"),
            (p + "w2", (cfg.d_ff, d), True, "normal"),
            (p + "b2", (d,), False, "zeros"),
        ]
    specs += [
        ("gate_w", (d,), True, "normal"),
        ("gate_b", (1,), False, "zeros"),
        ("tag_w", (d,), True, "normal"),
        ("tag_b", (1,), False, "zeros"),
        ("rel_w", (3 * d, n_classes), True, "normal"),
        ("rel_b", (n_classes,), False, "zeros"),
    ]
    return specs


def class_labels(relation_vocab: Sequence[str], ablate: Optional[str]) -> tuple[str, ...]:
    """Relation-head classes: the positive labels, plus NO_RELATION without a gate."""
    return tuple(relation_vocab) + ((NO_RELATION,) if ablate == ABLATE_GATE else ())


def init_params(specs, rng: np.random.Generator) -> dict[str, np.ndarray]:
    params = {}
    for name, shape, _decay, init in specs:
        if init == "normal":
            params[name] = rng.normal(0.0, 0.02, size=shape)
        elif init == "ones":
            params[name] = np.ones(shape, dtype=np.float64)
        else:
            params[name] = np.zeros(shape, dtype=np.float64)
    return params


# pooling segment of each kept position of a restricted row; padding reads as [CLS]
_SEG_CLS, _SEG_CTX, _SEG_SUBJ, _SEG_OBJ = range(4)


def _kept_positions(inst: RelationInstance, bits: Sequence[int]):
    """Masked positions a restricted row keeps, in order, with their segments.

    [CLS], both entity spans and the context tokens the rationale selects;
    a rationale bit on an entity token changes nothing.
    """
    s_lo, s_hi = inst.subj_span
    o_lo, o_hi = inst.obj_span
    keep = [0]
    seg = [_SEG_CLS]
    for i in range(len(inst.tokens)):
        if s_lo <= i <= s_hi:
            code = _SEG_SUBJ
        elif o_lo <= i <= o_hi:
            code = _SEG_OBJ
        elif bits[i]:
            code = _SEG_CTX
        else:
            continue
        keep.append(i + 1)
        seg.append(code)
    return keep, seg


def _pad_rows(id_rows, pos_rows):
    n = len(id_rows)
    lmax = max(len(r) for r in id_rows)
    ids = np.zeros((n, lmax), dtype=np.int64)
    pos = np.zeros((n, lmax), dtype=np.int64)
    mask = np.zeros((n, lmax), dtype=np.float64)
    for i, (idr, posr) in enumerate(zip(id_rows, pos_rows)):
        ids[i, : len(idr)] = idr
        pos[i, : len(idr)] = posr
        mask[i, : len(idr)] = 1.0
    return ids, pos, mask


@dataclass
class _RestrictedRow:
    """One relation-head encoding request: an instance plus a rationale."""

    seq: MaskedSequence
    inst: RelationInstance
    bits: tuple[int, ...]
    id_override: Optional[dict[int, int]] = None  # masked position -> symbol id


class Model:
    def __init__(
        self,
        config: ModelConfig,
        token_vocab: TokenVocab,
        relation_vocab: Sequence[str],
        ablate: Optional[str] = None,
        *,
        params: dict[str, np.ndarray],
    ):
        if ablate not in _ABLATIONS:
            raise ValueError(f"unknown ablation {ablate!r}, expected one of {_ABLATIONS}")
        if NO_RELATION in relation_vocab:
            raise ValueError("relation vocabulary must not contain the no-relation label")
        self.config = config
        self.token_vocab = token_vocab
        self.relation_vocab = tuple(relation_vocab)
        self.ablate = ablate
        self.class_labels = class_labels(relation_vocab, ablate)
        self._class_index = {r: i for i, r in enumerate(self.class_labels)}
        self.specs = param_specs(config, len(token_vocab), len(self.class_labels))
        for name, shape, _d, _i in self.specs:
            if name not in params:
                raise ValueError(f"missing parameter {name}")
            if params[name].shape != shape:
                raise ValueError(
                    f"parameter {name} has shape {params[name].shape}, expected {shape}"
                )
        self.params = params

    @classmethod
    def create(
        cls,
        config: ModelConfig,
        token_vocab: TokenVocab,
        relation_vocab: Sequence[str],
        ablate: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "Model":
        if rng is None:
            rng = np.random.default_rng(config.seed)
        n_classes = len(class_labels(relation_vocab, ablate))
        specs = param_specs(config, len(token_vocab), n_classes)
        params = init_params(specs, rng)
        return cls(config, token_vocab, relation_vocab, ablate=ablate, params=params)

    def class_index(self, label: str) -> int:
        if label not in self._class_index:
            raise KeyError(f"label {label!r} is not in the model's label set")
        return self._class_index[label]

    # ------------------------------------------------------------------
    # sequence plumbing

    def check_lengths(self, instances: Iterable[RelationInstance]) -> None:
        """Fail once, naming every instance too long to encode."""
        limit = self.config.max_seq_len
        # the masked sequence is one [CLS] plus one symbol per token
        too_long = [f"{inst.id} ({len(inst.tokens) + 1})"
                    for inst in instances if len(inst.tokens) + 1 > limit]
        if too_long:
            raise SequenceTooLongError(
                f"{len(too_long)} masked sequence(s) exceed max_seq_len={limit}: "
                f"{', '.join(too_long)}; truncate upstream"
            )

    def masked(self, inst: RelationInstance) -> MaskedSequence:
        self.check_lengths((inst,))
        return mask_entities(inst, self.token_vocab)

    def _full_batch(self, seqs: Sequence[MaskedSequence]):
        id_rows = [np.asarray(seq.ids, dtype=np.int64) for seq in seqs]
        pos_rows = [np.arange(len(seq), dtype=np.int64) for seq in seqs]
        return _pad_rows(id_rows, pos_rows)

    def full_rationale_bits(self, inst: RelationInstance) -> tuple[int, ...]:
        entity = inst.entity_indices
        return tuple(0 if i in entity else 1 for i in range(len(inst.tokens)))

    def _restricted_batch(self, rows: Sequence[_RestrictedRow]):
        """Pad restricted rows and build pooling masks.

        Keeps original position indices so the encoder sees each kept token
        exactly where it stood in the full sequence.
        """
        id_rows = []
        pos_rows = []
        seg_rows = []
        for row in rows:
            keep, seg = _kept_positions(row.inst, row.bits)
            ids = [row.seq.ids[p] for p in keep]
            if row.id_override:
                ids = [row.id_override.get(p, i) for p, i in zip(keep, ids)]
            id_rows.append(np.asarray(ids, dtype=np.int64))
            pos_rows.append(np.asarray(keep, dtype=np.int64))
            seg_rows.append(seg)
        ids, pos, mask = _pad_rows(id_rows, pos_rows)
        segments = np.full(ids.shape, _SEG_CLS, dtype=np.int64)
        for i, seg in enumerate(seg_rows):
            segments[i, :len(seg)] = seg
        ctx_mask, subj_mask, obj_mask = (
            (segments == code).astype(np.float64) for code in (_SEG_CTX, _SEG_SUBJ, _SEG_OBJ)
        )
        return ids, pos, mask, ctx_mask, subj_mask, obj_mask

    @staticmethod
    def _pool(h: np.ndarray, pool_mask: np.ndarray):
        counts = pool_mask.sum(axis=1)
        safe = np.maximum(counts, 1.0)
        pooled = (h * pool_mask[:, :, None]).sum(axis=1) / safe[:, None]
        pooled[counts == 0] = 0.0
        return pooled, counts

    def _relation_forward(self, rows, train=False, rng=None):
        ids, pos, mask, ctx_m, subj_m, obj_m = self._restricted_batch(rows)
        h, _, cache = encoder_forward(self.params, self.config, ids, pos, mask,
                                      train=train, rng=rng)
        fctx, nctx = self._pool(h, ctx_m)
        fsub, nsub = self._pool(h, subj_m)
        fobj, nobj = self._pool(h, obj_m)
        feat = np.concatenate([fctx, fsub, fobj], axis=1)
        logits = feat @ self.params["rel_w"] + self.params["rel_b"]
        fwd = {
            "cache": cache, "feat": feat, "h": h,
            "ctx": (ctx_m, nctx), "subj": (subj_m, nsub), "obj": (obj_m, nobj),
        }
        return logits, fwd

    def _relation_backward(self, fwd, dlogits, grads) -> np.ndarray:
        """Accumulate parameter gradients; return the input-embedding gradient."""
        feat = fwd["feat"]
        _accum(grads, "rel_w", feat.T @ dlogits)
        _accum(grads, "rel_b", dlogits.sum(axis=0))
        dfeat = dlogits @ self.params["rel_w"].T
        d = self.config.d_model
        dh = np.zeros_like(fwd["h"])
        for s, (pool_mask, counts) in enumerate((fwd["ctx"], fwd["subj"], fwd["obj"])):
            dpool = dfeat[:, s * d:(s + 1) * d]
            safe = np.maximum(counts, 1.0)
            dh += (dpool / safe[:, None])[:, None, :] * pool_mask[:, :, None]
        enc_grads, dx0 = encoder_backward(self.params, self.config, fwd["cache"], dh)
        for name, g in enc_grads.items():
            _accum(grads, name, g)
        return dx0

    # ------------------------------------------------------------------
    # public single-instance operations

    def encode(self, seq: MaskedSequence) -> EncoderOutput:
        """``encode_batch`` of one sequence: the oracle batched callers are tested against."""
        return self.encode_batch([seq])[0]

    def encode_batch(self, seqs: Sequence[MaskedSequence]) -> list[EncoderOutput]:
        """One eval-mode encoder pass over many sequences, each output trimmed to its
        own length.  A row may differ from the same sequence encoded alone by about
        1e-16, as kernels round per batch shape."""
        if not seqs:
            return []
        ids, pos, mask = self._full_batch(seqs)
        h, attns, _ = encoder_forward(self.params, self.config, ids, pos, mask)
        return [
            EncoderOutput(hidden=h[i, :n], attentions=tuple(a[i, :, :n, :n] for a in attns))
            for i, n in enumerate(len(seq) for seq in seqs)
        ]

    def rationale_scores(self, enc: EncoderOutput, inst: RelationInstance) -> np.ndarray:
        """Per-original-token importance scores; entity positions come back 0."""
        if self.ablate == ABLATE_RATIONALE:
            raise ValueError("rationale head is disabled in this model")
        n = len(inst.tokens)
        z = enc.hidden[1:n + 1] @ self.params["tag_w"] + self.params["tag_b"][0]
        return _token_scores(sigmoid(z), inst)

    def relation_distribution(
        self,
        inst: RelationInstance,
        bits: Sequence[int],
        seq: Optional[MaskedSequence] = None,
        id_override: Optional[dict[int, int]] = None,
    ) -> np.ndarray:
        """``relation_probs`` of one row: the oracle batched callers are tested against."""
        return self.relation_probs(inst, [bits], seq=seq, overrides=[id_override])[0]

    def relation_probs(
        self,
        inst: RelationInstance,
        bit_rows: Sequence[Sequence[int]],
        seq: Optional[MaskedSequence] = None,
        overrides: Optional[Sequence[Optional[dict[int, int]]]] = None,
    ) -> np.ndarray:
        """Label distributions for many rationales of one instance, batched.  ``overrides``
        holds, per row, None or {masked position: symbol id}.  A row may differ from the
        same row scored alone by about 1e-16, as kernels round per batch shape."""
        if seq is None:
            seq = self.masked(inst)
        if overrides is None:
            overrides = [None] * len(bit_rows)
        rows = [_RestrictedRow(seq, inst, tuple(bits), id_override=override)
                for bits, override in zip(bit_rows, overrides, strict=True)]
        logits, _ = self._relation_forward(rows)
        return softmax(logits, axis=-1)

    def candidate_scores(
        self,
        inst: RelationInstance,
        candidates: Sequence[Sequence[int]],
        label: str,
        seq: Optional[MaskedSequence] = None,
    ) -> np.ndarray:
        """p(label | candidate rationale) for every candidate, one batched pass."""
        return self.relation_probs(inst, candidates, seq=seq)[:, self.class_index(label)]

    # ------------------------------------------------------------------
    # training

    def supervision(
        self, inst: RelationInstance, labels: Optional[ExplanationLabels]
    ) -> tuple[Optional[tuple[int, ...]], Optional[tuple[int, ...]]]:
        """``(relation_bits, rationale_bits)`` one instance trains on, None for a
        head that skips it; ``labels`` is its rule annotation or latent pick.

        The gate, when present, trains on every instance.  A negative reaches
        the relation head only in the gateless model, on an all-zero rationale,
        and never the rationale head.  Without a rationale head a positive
        trains the relation head on the full context; otherwise a positive
        with labels trains both heads on them, and one without only the gate.
        """
        if inst.gold_relation == NO_RELATION:
            gateless = self.ablate == ABLATE_GATE
            return ((0,) * len(inst.tokens) if gateless else None), None
        if self.ablate == ABLATE_RATIONALE:
            return self.full_rationale_bits(inst), None
        if labels is None:
            return None, None
        return labels.bits, labels.bits

    def loss_and_grads(
        self,
        items: Sequence[tuple[RelationInstance, MaskedSequence, Optional[ExplanationLabels]]],
        train: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        """Batch loss components plus parameter gradients; each item carries the
        instance's rationale labels or None, and ``supervision`` decides which
        heads they reach.

        The objective is the sum of the three per-batch mean components.
        Gate averages over every instance; rationale averages per token and
        then over participating instances; relation averages over
        participating instances.
        """
        grads: dict[str, np.ndarray] = {}
        stats = {"gate": 0.0, "rationale": 0.0, "relation": 0.0}
        b = len(items)
        seqs = [seq for _, seq, _ in items]
        ids, pos, mask = self._full_batch(seqs)
        h, _, cache = encoder_forward(self.params, self.config, ids, pos, mask,
                                      train=train, rng=rng)
        dh = np.zeros_like(h)
        targets = [self.supervision(inst, labels) for inst, _, labels in items]

        if self.ablate != ABLATE_GATE:
            zg = h[:, 0, :] @ self.params["gate_w"] + self.params["gate_b"][0]
            tg = np.array([float(inst.gold_relation != NO_RELATION) for inst, _, _ in items])
            stats["gate"] = float(bce_with_logits(zg, tg).mean())
            dzg = (sigmoid(zg) - tg) / b
            dh[:, 0, :] += dzg[:, None] * self.params["gate_w"]
            _accum(grads, "gate_w", h[:, 0, :].T @ dzg)
            _accum(grads, "gate_b", np.array([dzg.sum()]))

        rows_i: list[int] = []
        cols: list[int] = []
        tag_targets: list[float] = []
        weights: list[float] = []
        participating = 0
        for i, ((inst, _, _), (_, bits)) in enumerate(zip(items, targets)):
            if bits is None:
                continue
            entity = inst.entity_indices
            eligible = [j for j in range(len(inst.tokens)) if j not in entity]
            if not eligible:
                continue
            participating += 1
            for j in eligible:
                rows_i.append(i)
                cols.append(j + 1)
                tag_targets.append(float(bits[j]))
                weights.append(1.0 / len(eligible))
        if participating:
            ri = np.asarray(rows_i)
            ci = np.asarray(cols)
            tv = np.asarray(tag_targets)
            wv = np.asarray(weights) / participating
            zt = h[ri, ci, :] @ self.params["tag_w"] + self.params["tag_b"][0]
            stats["rationale"] = float((bce_with_logits(zt, tv) * wv).sum())
            dzt = (sigmoid(zt) - tv) * wv
            np.add.at(dh, (ri, ci), dzt[:, None] * self.params["tag_w"])
            _accum(grads, "tag_w", h[ri, ci, :].T @ dzt)
            _accum(grads, "tag_b", np.array([dzt.sum()]))

        rel_rows = [_RestrictedRow(seq, inst, tuple(bits))
                    for (inst, seq, _), (bits, _) in zip(items, targets) if bits is not None]
        if rel_rows:
            logits, fwd = self._relation_forward(rel_rows, train=train, rng=rng)
            logp = log_softmax(logits, axis=-1)
            idx = np.asarray([self.class_index(row.inst.gold_relation) for row in rel_rows])
            rows = np.arange(len(rel_rows))
            stats["relation"] = float(-logp[rows, idx].mean())
            dlogits = softmax(logits, axis=-1)
            dlogits[rows, idx] -= 1.0
            dlogits /= len(rel_rows)
            self._relation_backward(fwd, dlogits, grads)

        enc_grads, _ = encoder_backward(self.params, self.config, cache, dh)
        for name, g in enc_grads.items():
            _accum(grads, name, g)
        for name, _shape, _d, _i in self.specs:
            if name not in grads:
                grads[name] = np.zeros_like(self.params[name])
        stats["total"] = stats["gate"] + stats["rationale"] + stats["relation"]
        return stats, grads

    # ------------------------------------------------------------------
    # inference

    def predict_batch(
        self,
        instances: Sequence[RelationInstance],
        nrc_threshold: float = 0.5,
        batch_size: Optional[int] = None,
    ) -> list[Prediction]:
        if batch_size is None:
            batch_size = self.config.batch_size
        elif batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        self.check_lengths(instances)
        out: list[Prediction] = []
        for lo in range(0, len(instances), batch_size):
            chunk = instances[lo:lo + batch_size]
            out.extend(self._predict_chunk(chunk, nrc_threshold))
        return out

    def _predict_chunk(self, chunk, nrc_threshold):
        seqs = [mask_entities(inst, self.token_vocab) for inst in chunk]
        ids, pos, mask = self._full_batch(seqs)
        h, _, _ = encoder_forward(self.params, self.config, ids, pos, mask)
        gate_probs: list[Optional[float]] = [None] * len(chunk)
        if self.ablate != ABLATE_GATE:
            zg = h[:, 0, :] @ self.params["gate_w"] + self.params["gate_b"][0]
            gp = sigmoid(zg)
            gate_probs = [float(v) for v in gp]

        bit_rows: list[tuple[int, ...]] = []
        if self.ablate == ABLATE_RATIONALE:
            bit_rows = [self.full_rationale_bits(inst) for inst in chunk]
        else:
            zt = h @ self.params["tag_w"] + self.params["tag_b"][0]
            st = sigmoid(zt)
            for i, inst in enumerate(chunk):
                scores = _token_scores(st[i, 1:], inst)
                bit_rows.append(tuple((scores >= 0.5).astype(int).tolist()))

        need_label = []
        for i, inst in enumerate(chunk):
            if self.ablate == ABLATE_GATE or gate_probs[i] >= nrc_threshold:
                need_label.append(i)
        labels = {i: NO_RELATION for i in range(len(chunk))}
        if need_label:
            rows = [_RestrictedRow(seqs[i], chunk[i], bit_rows[i]) for i in need_label]
            logits, _ = self._relation_forward(rows)
            pick = logits.argmax(axis=1)
            for row_pos, i in enumerate(need_label):
                labels[i] = self.class_labels[int(pick[row_pos])]

        out = []
        for i, inst in enumerate(chunk):
            label = labels[i]
            if label == NO_RELATION or self.ablate == ABLATE_RATIONALE:
                rationale: tuple[int, ...] = ()
            else:
                rationale = tuple(j for j, bit in enumerate(bit_rows[i]) if bit)
            out.append(Prediction(inst.id, label, rationale, gate_probs[i]))
        return out

    def predict(self, inst: RelationInstance, nrc_threshold: float = 0.5) -> Prediction:
        return self.predict_batch([inst], nrc_threshold=nrc_threshold)[0]

    # ------------------------------------------------------------------
    # attribution

    def embedding_saliency(self, inst: RelationInstance, label: Optional[str] = None) -> np.ndarray:
        """L1 norm of d p(label) / d input-embedding per original token.

        Runs on the full non-entity context so every token participates.
        """
        seq = self.masked(inst)
        row = _RestrictedRow(seq, inst, self.full_rationale_bits(inst))
        logits, fwd = self._relation_forward([row])
        probs = softmax(logits, axis=-1)[0]
        c = int(probs.argmax()) if label is None else self.class_index(label)
        # gradient of the probability itself, not the loss
        dlogits = (-probs[c] * probs)[None, :]
        dlogits[0, c] += probs[c]
        dx0 = self._relation_backward(fwd, dlogits, grads={})
        n = len(inst.tokens)
        out = np.zeros(n, dtype=np.float64)
        # restricted rows kept every position here, so column j+1 is token j
        for j in range(n):
            out[j] = np.abs(dx0[0, j + 1]).sum()
        return out

    # ------------------------------------------------------------------
    # checkpointing

    def save(self, path: str | Path) -> None:
        header = {
            "format_version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "ablate": self.ablate,
            "relations": list(self.relation_vocab),
            "token_vocab": list(self.token_vocab.symbols),
            "params": [[name, list(shape)] for name, shape, _d, _i in self.specs],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with Path(path).open("wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for name, _shape, _d, _i in self.specs:
                fh.write(self.params[name].astype(_CHECKPOINT_DTYPE).tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "Model":
        raw = Path(path).read_bytes()
        if len(raw) < 8 or raw[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
        (hlen,) = struct.unpack("<I", raw[4:8])
        if len(raw) < 8 + hlen:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(raw[8:8 + hlen].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
        version = header.get("format_version") if isinstance(header, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version!r}, expected {CHECKPOINT_VERSION}"
            )
        try:
            config = ModelConfig.from_dict(header["config"])
            vocab = TokenVocab(header["token_vocab"])
            relations = tuple(header["relations"])
            ablate = header["ablate"]
            n_classes = len(class_labels(relations, ablate))
            specs = param_specs(config, len(vocab), n_classes)
            declared = [(name, tuple(shape)) for name, shape in header["params"]]
        except KeyError as exc:
            raise CheckpointError(f"{path}: header is missing key {exc}") from exc
        except (CorpusError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: bad header ({exc})") from exc
        expected = [(name, shape) for name, shape, _d, _i in specs]
        if declared != expected:
            raise CheckpointError(f"{path}: parameter table does not match the config")
        params = {}
        offset = 8 + hlen
        for name, shape in expected:
            count = int(np.prod(shape))
            nbytes = count * _CHECKPOINT_DTYPE.itemsize
            if offset + nbytes > len(raw):
                raise CheckpointError(f"{path}: truncated tensor data at {name}")
            flat = np.frombuffer(raw, dtype=_CHECKPOINT_DTYPE, count=count, offset=offset)
            # astype copies, so each parameter owns writable memory
            params[name] = flat.reshape(shape).astype(np.float64)
            offset += nbytes
        if offset != len(raw):
            raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
        try:
            return cls(config, vocab, relations, ablate=ablate, params=params)
        except ValueError as exc:  # an unknown ablation or a no-relation class
            raise CheckpointError(f"{path}: bad header ({exc})") from exc


def _token_scores(tag_probs: np.ndarray, inst: RelationInstance) -> np.ndarray:
    """Rationale scores per original token from tag probabilities that start
    at the first token; entity positions come back 0."""
    scores = np.array(tag_probs[:len(inst.tokens)], dtype=np.float64)
    for i in inst.entity_indices:
        scores[i] = 0.0
    return scores


def _accum(grads: dict, name: str, value: np.ndarray) -> None:
    if name in grads:
        grads[name] = grads[name] + value
    else:
        grads[name] = value
