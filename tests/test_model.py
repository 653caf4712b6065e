import math

import numpy as np
import pytest

from conftest import make_instance
from rexl.corpus import NO_RELATION, SOURCE_LATENT, SOURCE_RULE, Corpus, ExplanationLabels
from rexl.neural.config import ModelConfig
from rexl.neural.losses import binary_cross_entropy, categorical_cross_entropy
from rexl.neural.model import (
    ABLATE_GATE,
    ABLATE_RATIONALE,
    CheckpointError,
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


def _items(model, ann, instances):
    return [(inst, model.masked(inst), ann.get(inst.id)) for inst in instances]


class TestLosses:
    def test_binary_closed_form(self):
        v = binary_cross_entropy(np.array([0.5]), np.array([1.0]))
        assert abs(float(v) - math.log(2)) < 1e-9

    def test_categorical_closed_form(self):
        v = categorical_cross_entropy(np.full(4, 0.25), 1)
        assert abs(float(v) - math.log(4)) < 1e-9

    def test_clamping_keeps_losses_finite(self):
        v = binary_cross_entropy(np.array([0.0]), np.array([1.0]))
        assert np.isfinite(v)

    def test_probability_losses_match_the_direct_formulas(self):
        p, t = np.array([0.9, 0.8, 0.3]), np.array([1.0, 1.0, 0.0])
        direct = -np.mean(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
        assert abs(binary_cross_entropy(p, t) - direct) < 1e-12
        probs = np.array([0.6, 0.3, 0.1])
        assert abs(categorical_cross_entropy(probs, 1) + math.log(0.3)) < 1e-12

    def test_total_loss_is_exact_sum_of_parts(self, tiny_corpus, model):
        corpus, spec = tiny_corpus
        ann = annotate_explanations(synth.seed_rules(spec), corpus.train)
        items = _items(model, ann, corpus.train[:8])
        assert any(model.supervision(inst, labels)[1] for inst, _, labels in items)
        stats, _ = model.loss_and_grads(items, train=False)
        assert all(stats[k] > 0.0 for k in ("gate", "rationale", "relation"))
        assert stats["total"] == stats["gate"] + stats["rationale"] + stats["relation"]

    def test_negatives_give_zero_rationale_and_relation_loss(self, tiny_corpus, model):
        corpus, spec = tiny_corpus
        ann = annotate_explanations(synth.seed_rules(spec), corpus.train)
        negatives = [i for i in corpus.train if i.gold_relation == NO_RELATION][:4]
        assert negatives
        stats, _ = model.loss_and_grads(_items(model, ann, negatives), train=False)
        assert stats["rationale"] == 0.0
        assert stats["relation"] == 0.0
        assert stats["total"] == stats["gate"] > 0.0

    @pytest.mark.parametrize("ablate", [None, ABLATE_GATE, ABLATE_RATIONALE])
    def test_each_head_trains_on_what_the_table_gives_it(self, tiny_corpus, ablate):
        corpus, spec = tiny_corpus
        cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, max_seq_len=32, seed=3)
        m = Model.create(cfg, corpus.token_vocab, corpus.relation_vocab, ablate=ablate)
        ann = annotate_explanations(synth.seed_rules(spec), corpus.train)
        positives = [i for i in corpus.train if i.gold_relation != NO_RELATION]
        groups = {
            "negative": [i for i in corpus.train if i.gold_relation == NO_RELATION][:4],
            "annotated": [i for i in positives if i.id in ann][:4],
            "unannotated": [i for i in positives if i.id not in ann][:4],
        }
        trains = {  # (rationale head, relation head) per group
            None: {"negative": (0, 0), "annotated": (1, 1), "unannotated": (0, 0)},
            ABLATE_GATE: {"negative": (0, 1), "annotated": (1, 1), "unannotated": (0, 0)},
            ABLATE_RATIONALE: {"negative": (0, 0), "annotated": (0, 1), "unannotated": (0, 1)},
        }[ablate]
        for group, batch in groups.items():
            assert batch, group
            stats, _ = m.loss_and_grads(_items(m, ann, batch), train=False)
            got = (stats["rationale"] > 0.0, stats["relation"] > 0.0)
            assert got == trains[group], group
            assert (stats["gate"] > 0.0) == (ablate != ABLATE_GATE), group


class TestGradients:
    @pytest.mark.parametrize("ablate", [None, ABLATE_GATE, ABLATE_RATIONALE])
    def test_directional_derivative_per_parameter_group(self, tiny_corpus, ablate):
        corpus, spec = tiny_corpus
        cfg = ModelConfig(d_model=16, n_layers=2, n_heads=2, max_seq_len=32, seed=3)
        model = Model.create(cfg, corpus.token_vocab, corpus.relation_vocab, ablate=ablate)
        ann = annotate_explanations(synth.seed_rules(spec), corpus.train)
        positives = [i for i in corpus.train if i.gold_relation != NO_RELATION]
        batch = [i for i in positives if i.id in ann][:3]
        batch += [i for i in corpus.train if i.gold_relation == NO_RELATION][:3]
        batch += [i for i in positives if i.id not in ann][:2]
        assert len(batch) == 8
        items = _items(model, ann, batch)
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
        items = _items(model, ann, corpus.train[:4])
        _, grads = model.loss_and_grads(items, train=False)
        assert set(grads) == {name for name, *_ in model.specs}
        for name, shape, _d, _i in model.specs:
            assert grads[name].shape == shape


def _table_instance(iid, relation):
    return make_instance(
        forms=["John", "'s", "daughter", ",", "Emma", ",", "likes", "swimming", "."],
        heads=[2, 0, 6, 4, 2, 4, None, 6, 6],
        deprels=["nmod:poss", "case", "nsubj", "punct", "appos", "punct",
                 "root", "xcomp", "punct"],
        subj_span=(0, 0), obj_span=(4, 4), relation=relation, instance_id=iid,
    )


_RULE_BITS = (0, 0, 1, 0, 0, 0, 0, 0, 0)
_PSEUDO_BITS = (0, 1, 0, 0, 0, 0, 1, 0, 0)
_NEG_BITS = (0, 0, 0, 1, 0, 1, 0, 0, 0)
_FULL_BITS = (0, 1, 1, 1, 0, 1, 1, 1, 1)  # every non-entity token
_ZERO_BITS = (0,) * 9
_SKIP = (None, None)

# (relation_bits, rationale_bits) per column: a negative, a rule-annotated
# positive, a pseudo-labelled positive, an unannotated positive (burn-in or
# no rule match) and a negative that carries labels
_SUPERVISION_TABLE = {
    None: (_SKIP, (_RULE_BITS, _RULE_BITS), (_PSEUDO_BITS, _PSEUDO_BITS), _SKIP, _SKIP),
    ABLATE_GATE: ((_ZERO_BITS, None), (_RULE_BITS, _RULE_BITS),
                  (_PSEUDO_BITS, _PSEUDO_BITS), _SKIP, (_ZERO_BITS, None)),
    ABLATE_RATIONALE: (_SKIP, (_FULL_BITS, None), (_FULL_BITS, None), (_FULL_BITS, None),
                       _SKIP),
}


@pytest.mark.parametrize("ablate", list(_SUPERVISION_TABLE))
def test_training_targets_follow_the_table(ablate):
    columns = [
        (_table_instance("neg", NO_RELATION), None),
        (_table_instance("rule", "per:spouse"), ExplanationLabels(_RULE_BITS, SOURCE_RULE)),
        (_table_instance("pseudo", "per:spouse"),
         ExplanationLabels(_PSEUDO_BITS, SOURCE_LATENT)),
        (_table_instance("cold", "per:spouse"), None),
        (_table_instance("neg-rule", NO_RELATION), ExplanationLabels(_NEG_BITS, SOURCE_RULE)),
    ]
    corpus = Corpus.build([inst for inst, _ in columns])
    cfg = ModelConfig(d_model=8, n_layers=1, n_heads=2, max_seq_len=16, seed=1)
    model = Model.create(cfg, corpus.token_vocab, ("per:children", "per:spouse"),
                         ablate=ablate)
    got = tuple(model.supervision(inst, labels) for inst, labels in columns)
    assert got == _SUPERVISION_TABLE[ablate]


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

    def test_relation_distribution_sums_to_one(self, tiny_corpus, model):
        corpus, _ = tiny_corpus
        inst = corpus.train[0]
        probs = model.relation_distribution(inst, model.full_rationale_bits(inst))
        assert probs.shape == (len(model.class_labels),)
        assert abs(probs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("with_overrides", [False, True], ids=["plain", "overrides"])
    def test_batched_rows_match_the_one_row_oracle(self, tiny_corpus, model, with_overrides):
        corpus, _ = tiny_corpus
        rng = np.random.default_rng(5)
        unk = model.token_vocab.unk_id
        for inst in corpus.train[:8]:
            n = len(inst.tokens)
            bit_rows = [tuple(int(b) for b in rng.integers(0, 2, n)) for _ in range(6)]
            overrides = None
            if with_overrides:
                # every other row replaces one random position, [CLS] and entities included
                overrides = [None if r % 2 else {int(rng.integers(0, n + 1)): unk}
                             for r in range(len(bit_rows))]
            batched = model.relation_probs(inst, bit_rows, overrides=overrides)
            assert batched.shape == (len(bit_rows), len(model.class_labels))
            for r, bits in enumerate(bit_rows):
                one = model.relation_distribution(
                    inst, bits, id_override=overrides[r] if overrides else None)
                assert float(np.max(np.abs(batched[r] - one))) <= 1e-9

    def test_overrides_need_one_entry_per_row(self, tiny_corpus, model):
        corpus, _ = tiny_corpus
        inst = corpus.train[0]
        bits = model.full_rationale_bits(inst)
        with pytest.raises(ValueError):
            model.relation_probs(inst, [bits, bits], overrides=[None])

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

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, tiny_corpus, model, batch_size):
        corpus, _ = tiny_corpus
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            model.predict_batch(list(corpus.test), batch_size=batch_size)

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
        # weights travel as float64, the compute dtype, so behaviour is exact
        assert np.array_equal(a, b)

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

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("config"),
        lambda h: h["config"].update(width=8),
        lambda h: h.update(params=5),
        lambda h: h["config"].update(d_model=float(h["config"]["d_model"])),
        lambda h: h.update(ablate="gate"),
        lambda h: h["token_vocab"].append(h["token_vocab"][0]),
    ], ids=["no config", "unknown config key", "params not a list", "float width",
            "unknown ablation", "duplicate vocabulary symbol"])
    def test_bad_header_rejected_naming_the_path(self, model, tmp_path, edit):
        import json
        import struct
        path = tmp_path / "m.ckpt"
        model.save(path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8:8 + hlen].decode("utf-8"))
        edit(header)
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + hlen:])
        with pytest.raises(CheckpointError) as err:
            Model.load(path)
        assert str(err.value).startswith(f"{path}: ")

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
