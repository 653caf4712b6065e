import warnings

import numpy as np
import pytest

from rexl import synth
from rexl.corpus import NO_RELATION, SOURCE_LATENT
from rexl.io import read_jsonl
from rexl.neural import (
    ABLATE_GATE,
    ABLATE_RATIONALE,
    Model,
    ModelConfig,
    SequenceTooLongError,
)
from rexl.rules import annotate_explanations
from rexl.trainer import (
    EpochRecord,
    TrainConfig,
    TrainLog,
    TrainingError,
    _pseudo_label_batch,
    generate_candidates,
    select_candidate,
    train,
)


@pytest.fixture(scope="module")
def small_corpus():
    spec = synth.GeneratorSpec(train_size=24, dev_size=8, test_size=8)
    corpus = synth.gen_synthetic(spec, 7)
    ann = annotate_explanations(synth.seed_rules(spec), corpus.train)
    assert ann, "fixture corpus must carry some rule annotations"
    return corpus, ann


def _config(seed=5, **kw):
    model = ModelConfig(d_model=16, n_layers=1, n_heads=2, batch_size=8,
                        max_seq_len=32, seed=seed)
    return TrainConfig(model=model, burn_in_epochs=1, total_epochs=3, **kw)


class TestLengthCheck:
    def test_too_long_train_and_dev_ids_fail_together_before_training(
            self, small_corpus, monkeypatch):
        corpus, ann = small_corpus
        # at least the two longest train instances and the longest dev one exceed it
        limit = min(sorted(len(i.tokens) + 1 for i in corpus.train)[-2],
                    max(len(i.tokens) + 1 for i in corpus.dev)) - 1
        train_ids = [i.id for i in corpus.train if len(i.tokens) + 1 > limit]
        dev_ids = [i.id for i in corpus.dev if len(i.tokens) + 1 > limit]
        assert len(train_ids) >= 2 and dev_ids
        monkeypatch.setattr(Model, "loss_and_grads", lambda *a, **k: pytest.fail("trained"))
        model = ModelConfig(d_model=16, n_layers=1, n_heads=2, max_seq_len=limit, seed=5)
        with pytest.raises(SequenceTooLongError) as err:
            train(corpus, ann, TrainConfig(model=model, burn_in_epochs=1, total_epochs=1))
        for iid in train_ids + dev_ids:
            assert f"{iid} (" in str(err.value)


class TestConfig:
    def test_burn_in_may_equal_total(self):
        cfg = TrainConfig(burn_in_epochs=4, total_epochs=4)
        assert cfg.burn_in_epochs == cfg.total_epochs

    def test_burn_in_beyond_total_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            TrainConfig(burn_in_epochs=5, total_epochs=4)

    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(t_low=0.9, t_up=0.1)

    def test_round_trip_through_dict(self):
        cfg = _config()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            TrainConfig.from_dict({"warmup": 10})


class TestTraining:
    def test_same_seed_runs_are_identical(self, small_corpus, tmp_path):
        corpus, ann = small_corpus
        m1, l1 = train(corpus, ann, _config())
        m2, l2 = train(corpus, ann, _config())
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        m1.save(p1)
        m2.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert [r.to_dict() for r in l1.records] == [r.to_dict() for r in l2.records]

    def test_log_covers_every_epoch_with_phases(self, small_corpus):
        corpus, ann = small_corpus
        _, log = train(corpus, ann, _config())
        assert [r.epoch for r in log.records] == [1, 2, 3]
        assert [r.phase for r in log.records] == ["burn_in", "ssl", "ssl"]

    def test_candidate_counts_absent_during_burn_in(self, small_corpus):
        corpus, ann = small_corpus
        _, log = train(corpus, ann, _config())
        assert log.records[0].mean_candidates is None
        # unannotated positives exist, so the ssl epochs search candidates
        assert all(r.mean_candidates >= 1.0 for r in log.records[1:])

    def test_burn_in_only_run_never_enters_ssl(self, small_corpus):
        corpus, ann = small_corpus
        model = ModelConfig(d_model=16, n_layers=1, n_heads=2, batch_size=8,
                            max_seq_len=32, seed=5)
        cfg = TrainConfig(model=model, burn_in_epochs=3, total_epochs=3)
        _, log = train(corpus, ann, cfg)
        assert all(r.phase == "burn_in" for r in log.records)
        assert all(r.mean_candidates is None for r in log.records)

    def test_empty_annotations_warn(self, small_corpus):
        corpus, _ = small_corpus
        with pytest.warns(UserWarning, match="no rule annotations"):
            train(corpus, {}, _config())

    def test_empty_train_split_rejected(self, small_corpus):
        corpus, ann = small_corpus
        from rexl.corpus import Corpus
        empty = Corpus.build(train=[], dev=list(corpus.dev), test=list(corpus.test))
        with pytest.raises(TrainingError, match="empty"):
            train(empty, ann, _config())

    def test_loss_moves_and_dev_f1_is_reported(self, small_corpus):
        corpus, ann = small_corpus
        _, log = train(corpus, ann, _config())
        assert log.records[-1].loss_total < log.records[0].loss_total
        assert all(0.0 <= r.dev_f1 <= 1.0 for r in log.records)


class TestCheckpoint:
    def test_loaded_checkpoint_predicts_exactly_what_training_produced(
            self, small_corpus, tmp_path):
        corpus, ann = small_corpus
        model, _ = train(corpus, ann, _config())
        path = tmp_path / "m.ckpt"
        model.save(path)
        back = Model.load(path)
        assert list(back.params) == list(model.params)
        for name, value in model.params.items():
            loaded = back.params[name]
            assert loaded.dtype == value.dtype and np.array_equal(loaded, value), name
            assert loaded.flags.owndata and loaded.flags.writeable, name
        instances = [*corpus.train, *corpus.dev, *corpus.test]
        before = model.predict_batch(instances)
        assert any(p.label != NO_RELATION for p in before)
        assert back.predict_batch(instances) == before


@pytest.fixture(scope="module")
def search_setup():
    """A model after one SSL epoch, on a corpus with a few dozen unannotated positives."""
    spec = synth.GeneratorSpec(train_size=96, dev_size=8, test_size=8)
    corpus = synth.gen_synthetic(spec, 7)
    ann = annotate_explanations(synth.seed_rules(spec), corpus.train)
    model, _ = train(corpus, ann, _config())
    return corpus, ann, model


class TestBatchedSearch:
    """Latent search scores a batch in one encoder pass; the per-instance
    path (one ``encode`` each, then ``select_candidate``) is its oracle."""

    def test_encode_batch_rows_match_one_row_encode(self, search_setup):
        corpus, _, trained = search_setup
        seqs = [trained.masked(inst) for inst in corpus.train]
        assert len({len(seq) for seq in seqs}) > 1, "rows must need padding"
        for seq, enc in zip(seqs, trained.encode_batch(seqs)):
            one = trained.encode(seq)
            assert enc.hidden.shape == one.hidden.shape == (len(seq), 16)
            np.testing.assert_allclose(enc.hidden, one.hidden, rtol=0, atol=1e-12)
            assert len(enc.attentions) == len(one.attentions)
            for a, b in zip(enc.attentions, one.attentions):
                assert a.shape == b.shape == (2, len(seq), len(seq))
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        assert trained.encode_batch([]) == []

    # the defaults, then thresholds wide enough that searches hit a small cap
    @pytest.mark.parametrize("t_low,t_up,cap", [(0.2, 0.8, 256), (0.05, 0.95, 16)])
    def test_pseudo_labels_match_the_per_instance_path(self, search_setup, t_low, t_up, cap):
        corpus, ann, trained = search_setup
        config = TrainConfig(t_low=t_low, t_up=t_up, candidate_cap=cap,
                             model=trained.config)
        seqs = {inst.id: trained.masked(inst) for inst in corpus.train}
        bs = trained.config.batch_size
        compared = 0
        all_counts: list[int] = []
        for lo in range(0, len(corpus.train), bs):
            batch = corpus.train[lo:lo + bs]
            counts: list[int] = []
            got = _pseudo_label_batch(trained, batch, seqs, ann, config, counts)
            all_counts += counts
            need = [inst for inst in batch
                    if inst.gold_relation != NO_RELATION and inst.id not in ann]
            assert sorted(got) == sorted(inst.id for inst in need)
            for inst, count in zip(need, counts, strict=True):
                seq = seqs[inst.id]
                scores = trained.rationale_scores(trained.encode(seq), inst)
                # one-row and batched encodes may round apart by about 1e-16,
                # which can move a score that sits on a threshold
                if np.any(np.abs(scores - t_low) < 1e-9) or np.any(np.abs(scores - t_up) < 1e-9):
                    continue
                candidates = generate_candidates(scores, t_low, t_up, cap=cap)
                want = select_candidate(candidates, inst, inst.gold_relation, trained, seq=seq)
                assert (got[inst.id], count) == (want, len(candidates)), inst.id
                compared += 1
        assert compared >= 20
        if cap < 256:
            assert cap in all_counts


@pytest.mark.parametrize("ablate", [None, ABLATE_RATIONALE])
def test_each_instance_carries_its_rule_labels_then_a_latent_pick(
        small_corpus, monkeypatch, ablate):
    corpus, ann = small_corpus
    seen = []  # per training step, {instance id: labels passed to the model}
    real = Model.loss_and_grads

    def spy(self, items, **kw):
        seen.append({inst.id: labels for inst, _, labels in items})
        return real(self, items, **kw)

    monkeypatch.setattr(Model, "loss_and_grads", spy)
    config = _config()
    train(corpus, ann, config, ablate=ablate)
    steps = -(-len(corpus.train) // config.model.batch_size)
    assert len(seen) == steps * config.total_epochs
    for epoch in range(config.total_epochs):
        labels = {k: v for step in seen[epoch * steps:(epoch + 1) * steps]
                  for k, v in step.items()}
        assert sorted(labels) == sorted(inst.id for inst in corpus.train)
        searched = epoch >= config.burn_in_epochs and ablate != ABLATE_RATIONALE
        for inst in corpus.train:
            got = labels[inst.id]
            if inst.id in ann:
                assert got == ann[inst.id], inst.id
            elif inst.gold_relation != NO_RELATION and searched:
                assert got.source == SOURCE_LATENT, inst.id
            else:
                assert got is None, inst.id


class TestAblations:
    def test_gate_ablation_trains_and_predicts(self, small_corpus):
        corpus, ann = small_corpus
        model, _ = train(corpus, ann, _config(), ablate=ABLATE_GATE)
        assert model.class_labels[-1] == NO_RELATION
        preds = model.predict_batch(list(corpus.test))
        assert all(p.gate_prob is None for p in preds)
        # the extra class lets the model call negatives without a gate
        assert {p.label for p in preds} <= set(model.class_labels)

    def test_rationale_ablation_trains_without_annotations(self, small_corpus):
        corpus, _ = small_corpus
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, log = train(corpus, {}, _config(), ablate=ABLATE_RATIONALE)
        assert all(r.mean_candidates is None for r in log.records)
        preds = model.predict_batch(list(corpus.test))
        assert all(p.rationale == () for p in preds)


class TestLog:
    def test_round_trip(self, tmp_path):
        log = TrainLog([
            EpochRecord(1, "burn_in", 2.0, 0.7, 0.6, 0.7, 0.0, None),
            EpochRecord(2, "ssl", 1.5, 0.5, 0.4, 0.6, 0.25, 3.5),
        ])
        path = tmp_path / "log.jsonl"
        log.save(path)
        assert [record for _, record in read_jsonl(path)] == [r.to_dict() for r in log.records]
