import math

import numpy as np
import pytest

from rexl.corpus import NO_RELATION
from rexl.neural.config import ModelConfig
from rexl.neural.losses import (
    binary_cross_entropy,
    categorical_cross_entropy,
    joint_loss,
)
from rexl.neural.model import (
    ABLATE_GATE,
    ABLATE_RATIONALE,
    CheckpointError,
    InstanceTargets,
    Model,
    SequenceTooLongError,
)
from rexl import synth
from rexl.rules import annotate_explanations


@pytest.fixture(scope="module")
def tiny_corpus():
    spec = synth.GeneratorSpec(train_size=32, dev_size=8, test_size=8)
    return synth.gen_synthetic(spec, 7), spec


@pytest.fixture(scope="module")
def model(tiny_corpus):
    corpus, _ = tiny_corpus
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads=2, max_seq_len=32, seed=3)
    return Model.create(cfg, corpus.token_vocab, corpus.relation_vocab)


def _targets(model, corpus, ann, instances):
    items = []
    for inst in instances:
        pos = inst.gold_relation != NO_RELATION
        a = ann.get(inst.id)
        t = InstanceTargets(
            has_relation=pos,
            relation_index=model.class_index(inst.gold_relation) if pos else None,
            rationale_bits=a.bits if a else None,
            train_rationale=pos and a is not None,
            train_relation=pos and a is not None,
        )
        items.append((inst, model.masked(inst), t))
    return items


class TestLosses:
    def test_binary_closed_form(self):
        v = binary_cross_entropy(np.array([0.5]), np.array([1.0]))
        assert abs(float(v) - math.log(2)) < 1e-9

    def test_categorical_closed_form(self):
        v = categorical_cross_entropy(np.full(4, 0.25), 1)
        assert abs(float(v) - math.log(4)) < 1e-9

    def test_joint_loss_is_exact_sum_of_parts(self):
        total, parts = joint_loss(
            gate_prob=np.array([0.9]),
            has_relation=np.array([1.0]),
            rationale_probs=np.array([0.8, 0.3]),
            rationale_targets=np.array([1.0, 0.0]),
            relation_probs=np.array([0.6, 0.3, 0.1]),
            relation_index=0,
        )
        assert total == parts["gate"] + parts["rationale"] + parts["relation"]

    def test_joint_loss_components_default_to_zero(self):
        total, parts = joint_loss(gate_prob=np.array([0.5]),
                                  has_relation=np.array([0.0]))
        assert parts["rationale"] == 0.0
        assert parts["relation"] == 0.0
        assert total == parts["gate"]

    def test_clamping_keeps_losses_finite(self):
        v = binary_cross_entropy(np.array([0.0]), np.array([1.0]))
        assert np.isfinite(v)


class TestGradients:
    def test_directional_derivative_per_parameter_group(self, tiny_corpus, model):
        corpus, spec = tiny_corpus
        ann = annotate_explanations(synth.seed_rules(spec), corpus.train)
        items = _targets(model, corpus, ann, corpus.train[:8])
        _, grads = model.loss_and_grads(items, train=False)

        rng = np.random.default_rng(0)
        for name in sorted(grads):
            v = rng.standard_normal(model.params[name].shape)
            v /= np.sqrt((v ** 2).sum())
            dot = float((grads[name] * v).sum())
            saved = model.params[name].copy()
            # escalate the step when cancellation noise dominates a tiny
            # directional derivative; real errors persist at every step
            best = 1.0
            for eps in (1e-6, 1e-5, 1e-4, 1e-3):
                model.params[name] = saved + eps * v
                up, _ = model.loss_and_grads(items, train=False)
                model.params[name] = saved - eps * v
                dn, _ = model.loss_and_grads(items, train=False)
                model.params[name] = saved
                num = (up["total"] - dn["total"]) / (2 * eps)
                best = min(best, abs(num - dot) / max(abs(num), abs(dot), 1e-10))
                if best < 1e-4:
                    break
            assert best < 1e-4, name

    def test_gradients_cover_every_parameter(self, tiny_corpus, model):
        corpus, spec = tiny_corpus
        ann = annotate_explanations(synth.seed_rules(spec), corpus.train)
        items = _targets(model, corpus, ann, corpus.train[:4])
        _, grads = model.loss_and_grads(items, train=False)
        assert set(grads) == {name for name, *_ in model.specs}
        for name, shape, _d, _i in model.specs:
            assert grads[name].shape == shape


class TestHeads:
    def test_rationale_scores_clamp_entities_to_zero(self, tiny_corpus, model):
        corpus, _ = tiny_corpus
        inst = corpus.train[0]
        enc = model.encode(model.masked(inst))
        scores = model.rationale_scores(enc, inst)
        assert scores.shape == (len(inst.tokens),)
        for i in inst.entity_indices:
            assert scores[i] == 0.0
        others = [i for i in range(len(inst.tokens)) if i not in inst.entity_indices]
        assert all(0.0 < scores[i] < 1.0 for i in others)

    def test_gate_score_is_probability(self, tiny_corpus, model):
        corpus, _ = tiny_corpus
        enc = model.encode(model.masked(corpus.train[0]))
        assert 0.0 < model.gate_score(enc) < 1.0

    def test_relation_distribution_sums_to_one(self, tiny_corpus, model):
        corpus, _ = tiny_corpus
        inst = corpus.train[0]
        probs = model.relation_distribution(inst, model.full_rationale_bits(inst))
        assert probs.shape == (len(model.class_labels),)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_too_long_sequence_rejected(self, tiny_corpus):
        corpus, _ = tiny_corpus
        cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, max_seq_len=4, seed=3)
        small = Model.create(cfg, corpus.token_vocab, corpus.relation_vocab)
        with pytest.raises(SequenceTooLongError):
            small.predict(corpus.train[0])

    def test_every_too_long_id_is_named_once_before_any_work(self, tiny_corpus, monkeypatch):
        corpus, _ = tiny_corpus
        lengths = sorted(len(inst.tokens) + 1 for inst in corpus.train)
        limit = lengths[-2] - 1  # at least the two longest exceed it
        cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, max_seq_len=limit, seed=3)
        small = Model.create(cfg, corpus.token_vocab, corpus.relation_vocab)
        too_long = [i.id for i in corpus.train if len(i.tokens) + 1 > limit]
        assert len(too_long) >= 2
        monkeypatch.setattr(Model, "_predict_chunk", lambda *a: pytest.fail("encoded"))
        with pytest.raises(SequenceTooLongError) as err:
            small.predict_batch(list(corpus.train))
        message = str(err.value)
        assert message.startswith(f"{len(too_long)} masked sequence(s) exceed")
        for iid in too_long:
            assert f"{iid} (" in message


class TestFaithfulness:
    def test_excluded_token_identity_cannot_move_the_distribution(self, tiny_corpus, model):
        corpus, _ = tiny_corpus
        rng = np.random.default_rng(1)
        checked = 0
        for inst in corpus.train:
            ctx = [i for i in range(len(inst.tokens)) if i not in inst.entity_indices]
            bits = [0] * len(inst.tokens)
            for i in ctx:
                if rng.random() < 0.5:
                    bits[i] = 1
            excluded = [i for i in ctx if not bits[i]]
            if not excluded:
                continue
            base = model.relation_distribution(inst, tuple(bits))
            j = excluded[int(rng.integers(len(excluded)))]
            moved = model.relation_distribution(
                inst, tuple(bits), id_override={j + 1: model.token_vocab.unk_id},
            )
            assert float(np.max(np.abs(base - moved))) == 0.0
            checked += 1
        assert checked >= 10

    def test_excluded_token_embedding_cannot_move_the_distribution(self, tiny_corpus, model):
        corpus, _ = tiny_corpus
        inst = corpus.train[0]
        ctx = [i for i in range(len(inst.tokens)) if i not in inst.entity_indices]
        bits = [0] * len(inst.tokens)
        bits[ctx[0]] = 1
        excluded = ctx[1]
        seq = model.masked(inst)
        excl_id = seq.ids[excluded + 1]
        # the perturbed row must not be shared with any included symbol
        included_ids = {seq.ids[0]} | {seq.ids[ctx[0] + 1]}
        included_ids |= {seq.ids[i + 1] for i in inst.entity_indices}
        assert excl_id not in included_ids
        base = model.relation_distribution(inst, tuple(bits))
        model.params["tok_emb"][excl_id] += 7.0
        try:
            moved = model.relation_distribution(inst, tuple(bits))
        finally:
            model.params["tok_emb"][excl_id] -= 7.0
        assert float(np.max(np.abs(base - moved))) == 0.0

    def test_included_token_does_move_the_distribution(self, tiny_corpus, model):
        corpus, _ = tiny_corpus
        inst = corpus.train[0]
        ctx = [i for i in range(len(inst.tokens)) if i not in inst.entity_indices]
        bits = [0] * len(inst.tokens)
        bits[ctx[0]] = 1
        base = model.relation_distribution(inst, tuple(bits))
        moved = model.relation_distribution(
            inst, tuple(bits), id_override={ctx[0] + 1: model.token_vocab.unk_id},
        )
        assert float(np.max(np.abs(base - moved))) > 0.0


class TestPredict:
    def test_batch_size_does_not_change_results(self, tiny_corpus, model):
        corpus, _ = tiny_corpus
        insts = list(corpus.test)
        a = model.predict_batch(insts)
        b = model.predict_batch(insts, batch_size=3)
        assert a == b

    def test_negative_prediction_has_empty_rationale(self, tiny_corpus, model):
        corpus, _ = tiny_corpus
        preds = model.predict_batch(list(corpus.test), nrc_threshold=1.1)
        # a threshold above 1 closes the gate for every instance
        assert all(p.label == NO_RELATION for p in preds)
        assert all(p.rationale == () for p in preds)

    def test_gate_probability_reported(self, tiny_corpus, model):
        corpus, _ = tiny_corpus
        (pred,) = model.predict_batch([corpus.test[0]])
        assert pred.gate_prob is not None
        assert 0.0 <= pred.gate_prob <= 1.0


class TestAblations:
    def test_gate_ablation_adds_negative_class_last(self, tiny_corpus):
        corpus, _ = tiny_corpus
        cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, max_seq_len=32, seed=3)
        m = Model.create(cfg, corpus.token_vocab, corpus.relation_vocab,
                         ablate=ABLATE_GATE)
        assert m.class_labels[-1] == NO_RELATION
        enc = m.encode(m.masked(corpus.train[0]))
        with pytest.raises(ValueError, match="disabled"):
            m.gate_score(enc)
        preds = m.predict_batch(list(corpus.test))
        assert all(p.gate_prob is None for p in preds)

    def test_rationale_ablation_predicts_empty_rationales(self, tiny_corpus):
        corpus, _ = tiny_corpus
        cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, max_seq_len=32, seed=3)
        m = Model.create(cfg, corpus.token_vocab, corpus.relation_vocab,
                         ablate=ABLATE_RATIONALE)
        enc = m.encode(m.masked(corpus.train[0]))
        with pytest.raises(ValueError, match="disabled"):
            m.rationale_scores(enc, corpus.train[0])
        preds = m.predict_batch(list(corpus.test))
        assert all(p.rationale == () for p in preds)

    def test_unknown_ablation_rejected(self, tiny_corpus):
        corpus, _ = tiny_corpus
        cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, seed=3)
        with pytest.raises(ValueError, match="ablation"):
            Model.create(cfg, corpus.token_vocab, corpus.relation_vocab,
                         ablate="gate")


class TestCheckpoints:
    def test_round_trip_preserves_behaviour(self, tiny_corpus, model, tmp_path):
        corpus, _ = tiny_corpus
        path = tmp_path / "m.ckpt"
        model.save(path)
        back = Model.load(path)
        assert back.relation_vocab == model.relation_vocab
        assert back.token_vocab.symbols == model.token_vocab.symbols
        inst = corpus.test[0]
        a = model.relation_distribution(inst, model.full_rationale_bits(inst))
        b = back.relation_distribution(inst, back.full_rationale_bits(inst))
        # weights travel as float32, so behaviour matches to that precision
        assert np.max(np.abs(a - b)) < 1e-6

    def test_save_is_deterministic(self, model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        model.save(path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            Model.load(path)

    def test_truncated_payload_rejected(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        model.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError):
            Model.load(path)

    def test_version_mismatch_rejected(self, model, tmp_path):
        import json
        import struct
        path = tmp_path / "m.ckpt"
        model.save(path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8:8 + hlen].decode("utf-8"))
        header["format_version"] = 99
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + hlen:])
        with pytest.raises(CheckpointError, match="version"):
            Model.load(path)
