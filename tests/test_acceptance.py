"""System-level guarantees, one test per property.

Run with -v for a one-line pass/fail verdict per property.  The slow
fixtures (six trained models on the generated corpus, two end-to-end
pipeline runs) are module-scoped and shared, so the whole file takes a
few minutes on a laptop CPU.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from rexl import synth
from rexl.attribution import (
    ALL_BETWEEN,
    ATTENTION,
    GREEDY,
    OCCLUSION,
    SALIENCY,
    all_between,
    attribute,
)
from rexl.cli import main as cli_main
from rexl.corpus import NO_RELATION
from rexl.evalmetrics import ec_overlap, rc_micro
from rexl.neural import InstanceTargets, Model, ModelConfig
from rexl.neural.losses import binary_cross_entropy, categorical_cross_entropy
from rexl.rulegen import GenConfig, TEST_PREDICTED, TRAIN_GOLD, generate_rule, \
    generate_ruleset, merge_rulesets
from rexl.rules import RuleSet, annotate_explanations, match_rule, \
    predict_with_rules
from rexl.trainer import TrainConfig, generate_candidates, select_candidate, \
    train

SPEC = synth.GeneratorSpec()  # 8 relations, 2000/400/500, 25% coverage
CORPUS_SEED = 11
MODEL_SEEDS = (5, 6, 7)


@pytest.fixture(scope="module")
def corpus():
    return synth.gen_synthetic(SPEC, CORPUS_SEED)


@pytest.fixture(scope="module")
def manual_rules():
    return synth.seed_rules(SPEC)


@pytest.fixture(scope="module")
def annotations(corpus, manual_rules):
    return annotate_explanations(manual_rules, corpus.train)


def _train_config(seed, burn_in=3, total=10):
    return TrainConfig(burn_in_epochs=burn_in, total_epochs=total,
                       model=ModelConfig(seed=seed))


@pytest.fixture(scope="module")
def full_models(corpus, annotations):
    out = []
    for seed in MODEL_SEEDS:
        start = time.monotonic()
        model, _ = train(corpus, annotations, _train_config(seed))
        out.append((model, time.monotonic() - start))
    return out


@pytest.fixture(scope="module")
def burnin_models(corpus, annotations):
    out = []
    for seed in MODEL_SEEDS:
        model, _ = train(corpus, annotations,
                         _train_config(seed, burn_in=10, total=10))
        out.append(model)
    return out


def _test_f1(model, corpus):
    gold = {i.id: i.gold_relation for i in corpus.test}
    preds = model.predict_batch(list(corpus.test))
    predicted = {p.instance_id: p.label for p in preds}
    return rc_micro(predicted, gold).f1


def test_gradients_match_finite_differences(corpus, annotations):
    started = time.monotonic()
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads=2, seed=3)
    model = Model.create(cfg, corpus.token_vocab, corpus.relation_vocab)

    items = []
    batch = [i for i in corpus.train if i.id in annotations][:4]
    batch += [i for i in corpus.train if i.gold_relation == NO_RELATION][:4]
    for inst in batch:
        ann = annotations.get(inst.id)
        positive = inst.gold_relation != NO_RELATION
        items.append((inst, model.masked(inst), InstanceTargets(
            has_relation=positive,
            relation_index=model.class_index(inst.gold_relation) if positive else None,
            rationale_bits=ann.bits if ann else None,
            train_rationale=positive and ann is not None,
            train_relation=positive and ann is not None,
        )))
    _, grads = model.loss_and_grads(items, train=False)

    rng = np.random.default_rng(0)
    for name in sorted(grads):
        v = rng.standard_normal(model.params[name].shape)
        v /= np.sqrt((v ** 2).sum())
        analytic = float((grads[name] * v).sum())
        saved = model.params[name].copy()
        # central differences hit a cancellation floor when the directional
        # derivative is tiny; a wrong gradient fails at every step size,
        # roundoff clears up as the step grows
        best = math.inf
        for eps in (1e-6, 1e-5, 1e-4, 1e-3):
            model.params[name] = saved + eps * v
            up, _ = model.loss_and_grads(items, train=False)
            model.params[name] = saved - eps * v
            down, _ = model.loss_and_grads(items, train=False)
            model.params[name] = saved
            numeric = (up["total"] - down["total"]) / (2 * eps)
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-10)
            best = min(best, rel)
            if best < 1e-4:
                break
        assert best < 1e-4, f"{name}: relative error {best:.3e}"
    assert time.monotonic() - started < 30.0


def test_candidate_search_matches_brute_force(corpus):
    started = time.monotonic()

    def oracle(scores, t_low, t_up):
        allowed = []
        for s in scores:
            if s > t_up:
                allowed.append((1,))
            elif s < t_low:
                allowed.append((0,))
            else:
                allowed.append((0, 1))
        return [tuple(reversed(t))
                for t in itertools.product(*reversed(allowed))]

    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(0, 13))
        scores = rng.random(n).tolist()
        lo, up = sorted(rng.random(2).tolist())
        assert generate_candidates(scores, lo, up, cap=4096) == oracle(scores, lo, up)

    cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, seed=3)
    model = Model.create(cfg, corpus.token_vocab, corpus.relation_vocab)
    for inst in [i for i in corpus.test if i.gold_relation != NO_RELATION][:10]:
        scores = rng.random(len(inst.tokens)).tolist()
        candidates = generate_candidates(scores, 0.3, 0.7, cap=64)
        chosen = select_candidate(candidates, inst, inst.gold_relation, model)
        ci = model.class_index(inst.gold_relation)
        best_bits, best_p = None, -1.0
        for cand in candidates:
            p = float(model.relation_distribution(inst, cand)[ci])
            if p > best_p:
                best_bits, best_p = cand, p
        assert chosen.bits == best_bits
    assert time.monotonic() - started < 60.0


def test_loss_closed_forms_are_exact():
    half = binary_cross_entropy(np.array([0.5]), np.array([1.0]))
    assert abs(float(half) - (-math.log(0.5))) < 1e-9
    uniform = categorical_cross_entropy(np.full(4, 0.25), 2)
    assert abs(float(uniform) - math.log(4)) < 1e-9


def test_excluded_tokens_cannot_move_the_relation_distribution(corpus, full_models):
    model, _ = full_models[0]
    rng = np.random.default_rng(17)
    pool = list(corpus.train) + list(corpus.dev) + list(corpus.test)
    checked = 0
    worst = 0.0
    for inst in pool:
        if checked >= 100:
            break
        ctx = [i for i in range(len(inst.tokens)) if i not in inst.entity_indices]
        bits = [0] * len(inst.tokens)
        for i in ctx:
            if rng.random() < 0.5:
                bits[i] = 1
        excluded = [i for i in ctx if not bits[i]]
        if not excluded:
            continue
        j = excluded[int(rng.integers(len(excluded)))]
        seq = model.masked(inst)
        base = model.relation_distribution(inst, tuple(bits), seq=seq)

        kept_ids = {seq.ids[0]}
        kept_ids |= {seq.ids[k + 1] for k in range(len(inst.tokens)) if bits[k]}
        kept_ids |= {seq.ids[k + 1] for k in inst.entity_indices}
        row = seq.ids[j + 1]
        if row not in kept_ids:
            saved = model.params["tok_emb"][row].copy()
            model.params["tok_emb"][row] += 3.0
            try:
                moved = model.relation_distribution(inst, tuple(bits), seq=seq)
            finally:
                model.params["tok_emb"][row] = saved
        else:
            # the surface form recurs among kept tokens, so perturb the
            # excluded position alone instead of the shared embedding row
            moved = model.relation_distribution(
                inst, tuple(bits), seq=seq,
                id_override={j + 1: model.token_vocab.unk_id},
            )
        worst = max(worst, float(np.max(np.abs(base - moved))))
        checked += 1
    assert checked == 100
    assert worst < 1e-12, f"max deviation {worst:.3e}"


def test_latent_search_beats_burn_in_only_by_ten_points(corpus, full_models,
                                                        burnin_models):
    for _, seconds in full_models:
        assert seconds < 900.0, f"training took {seconds:.0f}s"
    full = [_test_f1(m, corpus) for m, _ in full_models]
    burn = [_test_f1(m, corpus) for m in burnin_models]
    gap = float(np.mean(full)) - float(np.mean(burn))
    assert gap >= 0.10, (
        f"full {np.mean(full):.4f} vs burn-in {np.mean(burn):.4f} (gap {gap:.4f})"
    )


def test_rationales_recover_rule_tokens_better_than_baselines(corpus,
                                                              manual_rules,
                                                              full_models):
    matched = annotate_explanations(manual_rules, corpus.test)
    assert matched
    instances = [i for i in corpus.test if i.id in matched]
    gold = {iid: ann.ones() for iid, ann in matched.items()}

    ec_scores, baseline_scores = [], {m: [] for m in
                                      (ATTENTION, SALIENCY, OCCLUSION, GREEDY,
                                       ALL_BETWEEN)}
    for model, _ in full_models:
        preds = {p.instance_id: p.rationale
                 for p in model.predict_batch(instances)}
        ec_scores.append(ec_overlap(preds, gold).f1)
        for method in baseline_scores:
            if method == ALL_BETWEEN:
                picked = {i.id: all_between(i) for i in instances}
            else:
                picked = {
                    i.id: attribute(method, model, i, n=len(gold[i.id]))
                    for i in instances
                }
            baseline_scores[method].append(ec_overlap(picked, gold).f1)

    ec = float(np.mean(ec_scores))
    assert ec >= 0.90, f"rationale overlap {ec:.4f}"
    for method, scores in baseline_scores.items():
        score = float(np.mean(scores))
        assert score < ec, f"{method} scored {score:.4f}, not below {ec:.4f}"


def test_generated_rules_rematch_their_source_instances(corpus, manual_rules,
                                                        annotations,
                                                        full_models):
    model, _ = full_models[0]
    checked = 0

    positives = [i for i in corpus.train if i.gold_relation != NO_RELATION]
    predicted = {p.instance_id: p for p in model.predict_batch(positives)}
    for inst in positives:
        ann = annotations.get(inst.id)
        if ann is not None:
            bits = ann.bits
        else:
            rationale = predicted[inst.id].rationale
            bits = tuple(1 if i in rationale else 0
                         for i in range(len(inst.tokens)))
        rule = generate_rule(inst, inst.gold_relation, bits,
                             manual_rules=manual_rules)
        if rule is None:
            continue
        assert match_rule(rule, inst) is not None, inst.id
        assert predict_with_rules(RuleSet([rule]), inst) == inst.gold_relation
        checked += 1

    for inst, pred in zip(corpus.test, model.predict_batch(list(corpus.test))):
        if pred.label == NO_RELATION:
            continue
        bits = tuple(1 if i in pred.rationale else 0
                     for i in range(len(inst.tokens)))
        rule = generate_rule(inst, pred.label, bits)
        if rule is None:
            continue
        assert match_rule(rule, inst) is not None, inst.id
        assert predict_with_rules(RuleSet([rule]), inst) == pred.label
        checked += 1

    assert checked > 0


def test_merged_rules_double_recall_and_approach_neural_f1(corpus,
                                                           manual_rules,
                                                           full_models):
    model, _ = full_models[0]
    gen_train = generate_ruleset(model, list(corpus.train), manual_rules,
                                 GenConfig(source=TRAIN_GOLD))
    gen_test = generate_ruleset(model, list(corpus.test), manual_rules,
                                GenConfig(source=TEST_PREDICTED))
    merged = merge_rulesets([manual_rules, gen_train, gen_test])

    gold = {i.id: i.gold_relation for i in corpus.test}

    def rule_report(rules):
        predicted = {i.id: predict_with_rules(rules, i) for i in corpus.test}
        return rc_micro(predicted, gold)

    manual_recall = rule_report(manual_rules).recall
    merged_report = rule_report(merged)
    assert merged_report.recall >= 2 * manual_recall, (
        f"merged recall {merged_report.recall:.4f} vs manual {manual_recall:.4f}"
    )

    neural_f1 = _test_f1(model, corpus)
    assert abs(neural_f1 - merged_report.f1) <= 0.15, (
        f"rule F1 {merged_report.f1:.4f} vs neural {neural_f1:.4f}"
    )


def test_metric_oracles_match_hand_computed_fixtures():
    gold = {
        "a": "per:spouse", "b": "per:spouse", "c": "per:children",
        "d": NO_RELATION, "e": "per:spouse", "f": "per:children",
    }
    predicted = {
        "a": "per:spouse", "b": "per:spouse", "c": "per:children",
        "d": "per:spouse", "e": NO_RELATION, "f": NO_RELATION,
    }
    report = rc_micro(predicted, gold)
    assert report.support["tp"] == 3
    assert report.support["fp"] == 1
    assert report.support["fn"] == 2
    assert report.precision == 0.75
    assert report.recall == 0.6
    assert abs(report.f1 - 2 / 3) < 1e-12

    overlap = ec_overlap({"a": [1, 2], "b": [4]}, {"a": [1, 2], "b": [3]})
    assert overlap.precision == 0.5
    assert overlap.recall == 0.5
    assert overlap.f1 == 0.5


def test_same_seed_pipelines_are_byte_identical(tmp_path):
    runner = CliRunner()
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "gen.yaml").write_text(yaml.safe_dump({
        "relations": 8, "train_size": 120, "dev_size": 24, "test_size": 24,
    }))
    (configs / "train.yaml").write_text(yaml.safe_dump({
        "burn_in_epochs": 1, "total_epochs": 3,
        "model": {"d_model": 16, "n_layers": 1, "n_heads": 2,
                  "batch_size": 16, "max_seq_len": 32, "seed": 5},
    }))

    def run(root):
        root.mkdir()
        data = root / "data"
        steps = [
            ["gen-data", "--out", str(data), "--config",
             str(configs / "gen.yaml"), "--seed", "23",
             "--rules-out", str(root / "manual_rules.txt")],
            ["train", "--data", str(data), "--out", str(root / "model.ckpt"),
             "--rules", str(root / "manual_rules.txt"),
             "--config", str(configs / "train.yaml")],
            ["predict", "--data", str(data), "--split", "test",
             "--model", str(root / "model.ckpt"),
             "--out", str(root / "preds.jsonl")],
            ["eval-rc", "--data", str(data), "--split", "test",
             "--pred", str(root / "preds.jsonl"),
             "--out", str(root / "rc.json")],
            ["eval-ec", "--data", str(data), "--split", "test",
             "--pred", str(root / "preds.jsonl"),
             "--rules", str(root / "manual_rules.txt"),
             "--out", str(root / "ec.json")],
            ["gen-rules", "--data", str(data), "--model",
             str(root / "model.ckpt"), "--mode", "gold",
             "--manual", str(root / "manual_rules.txt"),
             "--out", str(root / "gen_train.txt")],
            ["gen-rules", "--data", str(data), "--model",
             str(root / "model.ckpt"), "--mode", "predicted",
             "--out", str(root / "gen_test.txt")],
            ["run-rules", "--data", str(data), "--split", "test",
             "--rules", str(root / "manual_rules.txt"),
             "--rules", str(root / "gen_train.txt"),
             "--rules", str(root / "gen_test.txt"),
             "--out", str(root / "rule_preds.jsonl"),
             "--merged-out", str(root / "merged.txt")],
        ]
        for step in steps:
            result = runner.invoke(cli_main, step, catch_exceptions=False)
            assert result.exit_code == 0, result.output

    first, second = tmp_path / "one", tmp_path / "two"
    run(first)
    run(second)

    names = sorted(
        p.relative_to(first)
        for p in first.rglob("*")
        if p.is_file() and not p.name.endswith("manifest.json")
    )
    assert names, "pipeline produced no comparable files"
    for rel in names:
        a, b = first / rel, second / rel
        assert b.exists(), f"second run missing {rel}"
        assert a.read_bytes() == b.read_bytes(), f"{rel} differs between runs"
