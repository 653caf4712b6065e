import pytest
from conftest import make_instance
from hypothesis import given, settings
from hypothesis import strategies as st

from rexl import synth
from rexl.corpus import NO_RELATION
from rexl.neural import Model, ModelConfig, Prediction
from rexl.rulegen import (
    GenConfig,
    RuleGenError,
    TEST_PREDICTED,
    TRAIN_GOLD,
    generate_rule,
    generate_ruleset,
    merge_rulesets,
)
from rexl.rules import (
    GEN_TEST,
    GEN_TRAIN,
    format_path,
    format_rules,
    match_rule,
    parse_rules,
    predict_with_rules,
)


def _bits(inst, *indices):
    return tuple(1 if i in indices else 0 for i in range(len(inst.tokens)))


@pytest.fixture(scope="module")
def setup():
    spec = synth.GeneratorSpec(train_size=40, dev_size=8, test_size=8)
    corpus = synth.gen_synthetic(spec, 7)
    cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, max_seq_len=32, seed=3)
    model = Model.create(cfg, corpus.token_vocab, corpus.relation_vocab)
    return model, corpus, spec


class TestSingleRule:
    def test_possessive_family_walkthrough(self, family_instance):
        rule = generate_rule(family_instance, "per:children",
                             _bits(family_instance, 2))
        assert rule is not None
        assert rule.trigger_alternatives == (("daughter",),)
        assert format_path(rule.subj_path) == ">nmod:poss"
        assert format_path(rule.obj_path) == ">appos"
        assert rule.label == "per:children"
        match = match_rule(rule, family_instance)
        assert match is not None
        assert match.trigger_tokens == frozenset({2})

    def test_longest_run_becomes_the_trigger(self, family_instance):
        rule = generate_rule(family_instance, "per:children",
                             _bits(family_instance, 1, 7, 8))
        assert rule.trigger_alternatives == (("swimming", "."),)

    def test_tied_runs_prefer_the_one_near_the_subject(self, family_instance):
        rule = generate_rule(family_instance, "per:children",
                             _bits(family_instance, 1, 7))
        assert rule.trigger_alternatives == (("'s",),)

    def test_entity_tokens_never_enter_the_trigger(self, family_instance):
        rule = generate_rule(family_instance, "per:children",
                             _bits(family_instance, *range(5)))
        # positions 0 and 4 are entities, so the run collapses to 1..3
        assert rule.trigger_alternatives == (("'s", "daughter", ","),)

    def test_entity_only_rationale_yields_nothing(self, family_instance):
        assert generate_rule(family_instance, "per:children",
                             _bits(family_instance, 0, 4)) is None

    def test_negative_label_yields_nothing(self, family_instance):
        assert generate_rule(family_instance, NO_RELATION,
                             _bits(family_instance, 2)) is None

    def test_empty_rationale_yields_nothing(self, family_instance):
        assert generate_rule(family_instance, "per:children",
                             _bits(family_instance)) is None

    def test_rationale_length_must_match(self, family_instance):
        with pytest.raises(RuleGenError, match="bits"):
            generate_rule(family_instance, "per:children", (1, 0))

    def test_manual_match_suppresses_generation_for_any_label(self, family_instance):
        # the manual rule carries a different label; matching is what counts
        manual = parse_rules(
            "id: manual-01\n"
            "kind: syntactic\n"
            "label: per:spouse\n"
            "trigger: word=daughter\n"
            "subject: SUBJ_PERSON = >nmod:poss\n"
            "object: OBJ_PERSON = >appos\n"
        )
        assert match_rule(manual[0], family_instance) is not None
        bits = _bits(family_instance, 2)
        assert generate_rule(family_instance, "per:children", bits,
                             manual_rules=manual) is None

    def test_non_matching_manual_rules_do_not_suppress(self, family_instance):
        manual = parse_rules(
            "id: manual-01\n"
            "kind: syntactic\n"
            "label: per:spouse\n"
            "trigger: word=wife\n"
            "subject: SUBJ_PERSON = >nmod:poss\n"
            "object: OBJ_PERSON = >appos\n"
        )
        rule = generate_rule(family_instance, "per:children",
                             _bits(family_instance, 2), manual_rules=manual)
        assert rule is not None


class _FixedRationale:
    """Stands in for a model: predicts the gold label with a fixed rationale."""

    def __init__(self, *rationale):
        self.rationale = rationale

    def predict_batch(self, instances, nrc_threshold=0.5):
        return [Prediction(inst.id, inst.gold_relation, self.rationale, gate_prob=None)
                for inst in instances]


class TestRulesetGeneration:
    def test_gold_source_ids_and_dedupe(self, family_instance):
        rules = generate_ruleset(
            _FixedRationale(2), [family_instance, family_instance], None,
            GenConfig(source=TRAIN_GOLD),
        )
        assert len(rules) == 1
        assert rules[0].id == f"{GEN_TRAIN}-0001"
        assert rules[0].provenance == GEN_TRAIN

    def test_predicted_source_uses_model_labels(self, setup):
        model, corpus, _ = setup
        rules = generate_ruleset(
            model, list(corpus.test), None, GenConfig(source=TEST_PREDICTED),
        )
        for rule in rules:
            assert rule.provenance == GEN_TEST
            assert rule.id.startswith(f"{GEN_TEST}-")
            assert rule.label != NO_RELATION
            assert rule.label in model.class_labels

    def test_generated_rules_round_trip_through_text(self, family_instance):
        rules = generate_ruleset(
            _FixedRationale(2), [family_instance], None, GenConfig(source=TRAIN_GOLD),
        )
        back = parse_rules(format_rules(rules))
        assert len(back) == len(rules) == 1
        assert back[0] == rules[0]

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            GenConfig(source="dev_gold")


class TestMerge:
    def _rule_text(self, rid, trigger, label="per:children"):
        return (
            f"id: {rid}\n"
            "kind: syntactic\n"
            f"label: {label}\n"
            f"trigger: word={trigger}\n"
            "subject: SUBJ_PERSON = >nmod:poss\n"
            "object: OBJ_PERSON = >appos\n"
            "\n"
        )

    def test_order_kept_and_duplicates_dropped(self):
        a = parse_rules(self._rule_text("a-01", "daughter"))
        b = parse_rules(self._rule_text("b-01", "daughter")
                        + self._rule_text("b-02", "son"))
        merged = merge_rulesets([a, b])
        assert [r.id for r in merged] == ["a-01", "b-02"]

    def test_id_collision_renames_the_later_rule(self):
        a = parse_rules(self._rule_text("r-01", "daughter"))
        b = parse_rules(self._rule_text("r-01", "son"))
        merged = merge_rulesets([a, b])
        assert [r.id for r in merged] == ["r-01", "r-01-2"]
        assert merged[1].trigger_alternatives == (("son",),)

    def test_merge_is_order_sensitive(self, family_instance):
        a = parse_rules(self._rule_text("a-01", "daughter", "per:children"))
        b = parse_rules(self._rule_text("b-01", "daughter", "per:spouse"))
        first = merge_rulesets([a, b])
        second = merge_rulesets([b, a])
        assert predict_with_rules(first, family_instance) == "per:children"
        assert predict_with_rules(second, family_instance) == "per:spouse"


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_generated_rule_matches_its_source_instance(self, data):
        spec = synth.GeneratorSpec(train_size=30, dev_size=8, test_size=8)
        corpus = synth.gen_synthetic(spec, 7)
        positives = [i for i in corpus.train if i.gold_relation != NO_RELATION]
        inst = data.draw(st.sampled_from(positives))
        n = len(inst.tokens)
        bits = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        rule = generate_rule(inst, inst.gold_relation, bits)
        if rule is not None:
            assert match_rule(rule, inst) is not None
