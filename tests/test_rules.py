import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from rexl import synth
from rexl.attribution import all_between
from rexl.corpus import DOWN, NO_RELATION, TokenVocab, UP, mask_entities
from rexl.rulegen import generate_rule, merge_rulesets
from rexl.rules import (
    GAP,
    LITERAL,
    RuleError,
    RuleSet,
    SurfaceRule,
    SyntacticRule,
    annotate_explanations,
    first_match,
    format_rules,
    match_all,
    match_rule,
    parse_path,
    parse_rules,
    predict_with_rules,
)

from conftest import make_instance


BIRTH_RULE = """\
id: manual-01
kind: surface
label: per:city_of_birth
pattern: SUBJ-PERSON was born in * OBJ-CITY
"""

FAMILY_RULE = """\
id: manual-02
kind: syntactic
label: per:children
trigger: word=daughter|son
subject: SUBJ_PERSON = >nmod:poss
object: OBJ_PERSON = >appos
"""


class TestParsing:
    def test_surface_rule_fields(self):
        (rule,) = parse_rules(BIRTH_RULE)
        assert isinstance(rule, SurfaceRule)
        assert rule.label == "per:city_of_birth"
        kinds = [e.kind for e in rule.elements]
        assert kinds == ["subj", LITERAL, LITERAL, LITERAL, GAP, "obj"]
        assert rule.subj_type == "PERSON"
        assert rule.obj_type == "CITY"

    def test_syntactic_rule_fields(self):
        (rule,) = parse_rules(FAMILY_RULE)
        assert isinstance(rule, SyntacticRule)
        assert rule.trigger_field == "word"
        assert rule.trigger_alternatives == (("daughter",), ("son",))
        assert [(s.direction, s.deprel, s.optional) for s in rule.subj_path.steps] == [
            (DOWN, "nmod:poss", False)
        ]

    def test_multi_word_trigger(self):
        text = FAMILY_RULE.replace("word=daughter|son", "word=step daughter|son")
        (rule,) = parse_rules(text)
        assert rule.trigger_alternatives == (("step", "daughter"), ("son",))

    def test_optional_path_step(self):
        path = parse_path("<acl? <nsubj")
        assert [(s.direction, s.deprel, s.optional) for s in path.steps] == [
            (UP, "acl", True), (UP, "nsubj", False),
        ]

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n" + BIRTH_RULE + "\n# trailing\n\n" + FAMILY_RULE
        rules = parse_rules(text)
        assert [r.id for r in rules] == ["manual-01", "manual-02"]

    def test_format_parse_round_trip(self):
        rules = parse_rules(BIRTH_RULE + "\n" + FAMILY_RULE)
        text = format_rules(rules)
        again = parse_rules(text)
        assert list(again) == list(rules)
        assert format_rules(again) == text

    @pytest.mark.parametrize("mutation,message", [
        (lambda t: t.replace("id: manual-01\n", ""), "missing key 'id'"),
        (lambda t: t + "color: blue\n", "unexpected keys"),
        (lambda t: t.replace("pattern: SUBJ-PERSON was born in * OBJ-CITY",
                             "pattern: SUBJ-PERSON * * OBJ-CITY was"), "adjacent gaps"),
        (lambda t: t.replace("pattern: SUBJ-PERSON was born in * OBJ-CITY",
                             "pattern: SUBJ-PERSON * OBJ-CITY"), "literal"),
        (lambda t: t.replace("was born", "SUBJ-CITY born"), "exactly one SUBJ"),
        (lambda t: t.replace("kind: surface", "kind: regex"), "unknown rule kind"),
        (lambda t: t.replace("label: per:city_of_birth", f"label: {NO_RELATION}"),
         "positive label"),
    ])
    def test_surface_errors(self, mutation, message):
        with pytest.raises(RuleError, match=message):
            parse_rules(mutation(BIRTH_RULE))

    def test_bad_path_direction(self):
        text = FAMILY_RULE.replace(">nmod:poss", "~nmod:poss")
        with pytest.raises(RuleError, match="path step"):
            parse_rules(text)

    def test_duplicate_rule_ids_rejected(self):
        text = BIRTH_RULE + "\n" + BIRTH_RULE
        with pytest.raises(RuleError, match="duplicate rule id"):
            parse_rules(text)

    def test_error_carries_line_number(self):
        text = "\n\nid only garbage\n"
        with pytest.raises(RuleError, match="line 3"):
            parse_rules(text)


class TestSurfaceMatching:
    def test_birth_fixture_triggers(self, birth_instance):
        (rule,) = parse_rules(BIRTH_RULE)
        m = match_rule(rule, birth_instance)
        assert m is not None
        assert m.label == "per:city_of_birth"
        assert sorted(m.trigger_tokens) == [1, 2, 3]

    def test_gap_can_be_empty_or_long(self):
        (rule,) = parse_rules(BIRTH_RULE)
        inst = make_instance(
            forms=["John", "was", "born", "in", "the", "city", "of", "London", "."],
            heads=[2, 2, None, 5, 5, 2, 7, 5, 2],
            deprels=["nsubj", "aux", "root", "case", "det", "obl", "case", "nmod", "punct"],
            subj_span=(0, 0), obj_span=(7, 7),
            subj_type="PERSON", obj_type="CITY",
            relation="per:city_of_birth",
        )
        m = match_rule(rule, inst)
        assert m is not None
        assert sorted(m.trigger_tokens) == [1, 2, 3]

    def test_entity_type_gate(self, birth_instance):
        text = BIRTH_RULE.replace("OBJ-CITY", "OBJ-COUNTRY")
        (rule,) = parse_rules(text)
        assert match_rule(rule, birth_instance) is None

    def test_literal_never_matches_an_entity_position(self):
        # "born" occurs only inside the subject span, so the literal must not see it
        inst = make_instance(
            forms=["born", "Smith", "was", "born", "in", "London"],
            heads=[3, 0, 3, None, 5, 3],
            deprels=["nsubj", "flat", "aux", "root", "case", "obl"],
            subj_span=(0, 1), obj_span=(5, 5),
            subj_type="PERSON", obj_type="CITY",
            relation="per:city_of_birth",
        )
        (rule,) = parse_rules(BIRTH_RULE)
        m = match_rule(rule, inst)
        assert m is not None
        assert sorted(m.trigger_tokens) == [2, 3, 4]

    def test_shortest_gap_wins(self):
        text = (
            "id: r\nkind: surface\nlabel: per:city_of_birth\n"
            "pattern: SUBJ-PERSON * in OBJ-CITY\n"
        )
        (rule,) = parse_rules(text)
        # "in" appears twice; the earlier one yields the shorter gap
        inst = make_instance(
            forms=["John", "stayed", "in", "in", "London"],
            heads=[1, None, 4, 4, 1],
            deprels=["nsubj", "root", "case", "case", "obl"],
            subj_span=(0, 0), obj_span=(4, 4),
            subj_type="PERSON", obj_type="CITY",
            relation="per:city_of_birth",
        )
        m = match_rule(rule, inst)
        assert m is not None
        # gap swallows "stayed" and the first "in" is taken only if the rest
        # still matches; position 2 fails (needs OBJ right after), so 3 wins
        assert sorted(m.trigger_tokens) == [3]

    def test_subject_must_start_the_span(self):
        (rule,) = parse_rules(BIRTH_RULE)
        inst = make_instance(
            forms=["Really", "John", "was", "born", "in", "London"],
            heads=[3, 3, 3, None, 5, 3],
            deprels=["advmod", "nsubj", "aux", "root", "case", "obl"],
            subj_span=(1, 1), obj_span=(5, 5),
            subj_type="PERSON", obj_type="CITY",
            relation="per:city_of_birth",
        )
        m = match_rule(rule, inst)
        assert m is not None
        assert sorted(m.trigger_tokens) == [2, 3, 4]


def _enumerate_surface_matches(symbols, subj_pos, obj_pos, elements):
    """Brute-force oracle: try every gap assignment, return earliest match."""
    n = len(symbols)

    def placements(ei, pos):
        if ei == len(elements):
            yield []
            return
        e = elements[ei]
        if e.kind == "subj":
            if pos == subj_pos:
                for rest in placements(ei + 1, pos + 1):
                    yield [("subj", pos)] + rest
        elif e.kind == "obj":
            if pos == obj_pos:
                for rest in placements(ei + 1, pos + 1):
                    yield [("obj", pos)] + rest
        elif e.kind == GAP:
            for skip in range(n - pos + 1):
                for rest in placements(ei + 1, pos + skip):
                    yield [("gap", pos)] + rest
        else:
            if pos < n and pos not in (subj_pos, obj_pos) and symbols[pos] == e.value:
                for rest in placements(ei + 1, pos + 1):
                    yield [("lit", pos)] + rest

    matches = []
    for start in range(n):
        for placed in placements(0, start):
            lits = tuple(p for kind, p in placed if kind == "lit")
            matches.append(lits)
    if not matches:
        return None
    return min(matches)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_surface_matching_equals_bruteforce(data):
    alphabet = ["a", "b", "c"]
    n = data.draw(st.integers(4, 10))
    subj_pos = data.draw(st.integers(0, n - 1))
    obj_pos = data.draw(st.integers(0, n - 1).filter(lambda x: x != subj_pos))
    words = data.draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))

    pieces = ["SUBJ-PERSON"]
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            pieces.append("*")
        pieces.append(data.draw(st.sampled_from(alphabet)))
    pieces.append("OBJ-PERSON")
    pattern = " ".join(pieces)

    heads = [None] + [0] * (n - 1)
    deprels = ["root"] + ["dep"] * (n - 1)
    lo, hi = min(subj_pos, obj_pos), max(subj_pos, obj_pos)
    inst = make_instance(
        forms=words, heads=heads, deprels=deprels,
        subj_span=(subj_pos, subj_pos), obj_span=(obj_pos, obj_pos),
        relation="per:children", instance_id=f"h-{n}",
    )
    try:
        (rule,) = parse_rules(
            f"id: r\nkind: surface\nlabel: per:children\npattern: {pattern}\n"
        )
    except RuleError:
        return  # adjacent gaps cannot arise; guard anyway

    vocab = TokenVocab.build([inst])
    seq = mask_entities(inst, vocab)
    got = match_rule(rule, inst, seq=seq)
    # oracle works on masked positions shifted by the [CLS] offset
    want = _enumerate_surface_matches(
        seq.symbols, subj_pos + 1, obj_pos + 1, rule.elements,
    )
    if want is None:
        assert got is None
    else:
        assert got is not None
        want_orig = tuple(sorted(seq.token_map[p] for p in want))
        assert tuple(sorted(got.trigger_tokens)) == want_orig


class TestSyntacticMatching:
    def test_family_fixture(self, family_instance):
        (rule,) = parse_rules(FAMILY_RULE)
        m = match_rule(rule, family_instance)
        assert m is not None
        assert sorted(m.trigger_tokens) == [2]
        assert m.label == "per:children"

    def test_word_matching_is_case_sensitive(self, family_instance):
        text = FAMILY_RULE.replace("word=daughter|son", "word=Daughter")
        (rule,) = parse_rules(text)
        assert match_rule(rule, family_instance) is None

    def test_lemma_matching_is_case_insensitive(self, family_instance):
        text = FAMILY_RULE.replace("word=daughter|son", "lemma=DAUGHTER")
        (rule,) = parse_rules(text)
        assert match_rule(rule, family_instance) is not None

    def test_type_gate(self, family_instance):
        text = FAMILY_RULE.replace("SUBJ_PERSON", "SUBJ_ORGANIZATION")
        (rule,) = parse_rules(text)
        assert match_rule(rule, family_instance) is None

    def test_path_direction_matters(self, family_instance):
        text = FAMILY_RULE.replace(">nmod:poss", "<nmod:poss")
        (rule,) = parse_rules(text)
        assert match_rule(rule, family_instance) is None

    def test_optional_step_taken_or_skipped(self):
        # "man who died in London": died -acl:relcl-> man, in London under died
        inst = make_instance(
            forms=["The", "man", "who", "died", "in", "London", "lived", "."],
            heads=[1, 6, 3, 1, 5, 3, None, 6],
            deprels=["det", "nsubj", "nsubj", "acl:relcl", "case", "obl", "root", "punct"],
            subj_span=(1, 1), obj_span=(5, 5),
            subj_type="PERSON", obj_type="CITY",
            relation="per:city_of_death", instance_id="opt-1",
        )
        text = (
            "id: r\nkind: syntactic\nlabel: per:city_of_death\n"
            "trigger: word=died\n"
            "subject: SUBJ_PERSON = <acl:relcl? <nsubj?\n"
            "object: OBJ_PERSON = >obl\n"
        ).replace("OBJ_PERSON", "OBJ_CITY")
        (rule,) = parse_rules(text)
        m = match_rule(rule, inst)
        # subject path is UP acl:relcl (taken) and the optional nsubj skipped
        assert m is not None
        assert sorted(m.trigger_tokens) == [3]

    def test_trigger_never_overlaps_entities(self):
        # trigger word also appears inside the subject span
        inst = make_instance(
            forms=["Son", "Ltd", "hired", "the", "son", "of", "Ann", "."],
            heads=[2, 0, None, 4, 2, 6, 4, 2],
            deprels=["nsubj", "flat", "root", "det", "obj", "case", "nmod", "punct"],
            subj_span=(0, 1), obj_span=(6, 6),
            subj_type="ORGANIZATION", obj_type="PERSON",
            relation="per:children", instance_id="ov-1",
        )
        text = (
            "id: r\nkind: syntactic\nlabel: per:children\n"
            "trigger: word=Son|son\n"
            "subject: SUBJ_ORGANIZATION = <obj <root\n"
            "object: OBJ_PERSON = >nmod\n"
        )
        # the capitalised "Son" sits at position 0 inside the entity span and
        # must be skipped; position 4 is the legitimate trigger
        (rule,) = parse_rules(text)
        occ = match_rule(rule, inst)
        assert occ is None or 0 not in occ.trigger_tokens

    def test_anchor_is_shallowest_then_leftmost(self):
        # "died" occurs twice: depth 1 (acl) and depth 0 (root)
        inst = make_instance(
            forms=["John", "who", "died", "young", "died", "in", "London", "."],
            heads=[4, 2, 0, 2, None, 6, 4, 4],
            deprels=["nsubj", "nsubj", "acl:relcl", "advmod", "root", "case", "obl", "punct"],
            subj_span=(0, 0), obj_span=(6, 6),
            subj_type="PERSON", obj_type="CITY",
            relation="per:city_of_death", instance_id="anchor-1",
        )
        text = (
            "id: r\nkind: syntactic\nlabel: per:city_of_death\n"
            "trigger: word=died\n"
            "subject: SUBJ_PERSON = >nsubj\n"
            "object: OBJ_CITY = >obl\n"
        )
        (rule,) = parse_rules(text)
        m = match_rule(rule, inst)
        assert m is not None
        # anchored at the root occurrence (position 4), not the deeper one
        assert sorted(m.trigger_tokens) == [4]


class TestArbitration:
    def test_first_rule_wins_and_order_flips_prediction(self, birth_instance):
        other = BIRTH_RULE.replace("manual-01", "manual-09").replace(
            "label: per:city_of_birth", "label: per:city_of_death")
        a = parse_rules(BIRTH_RULE + "\n" + other)
        b = parse_rules(other + "\n" + BIRTH_RULE)
        assert predict_with_rules(a, birth_instance) == "per:city_of_birth"
        assert predict_with_rules(b, birth_instance) == "per:city_of_death"

    def test_no_match_predicts_no_relation(self, family_instance):
        (rule,) = parse_rules(BIRTH_RULE)
        assert predict_with_rules(RuleSet([rule]), family_instance) == NO_RELATION

    def test_match_all_preserves_order(self, birth_instance):
        other = BIRTH_RULE.replace("manual-01", "manual-09").replace(
            "label: per:city_of_birth", "label: per:city_of_death")
        rules = parse_rules(BIRTH_RULE + "\n" + other)
        ids = [m.rule_id for m in match_all(rules, birth_instance)]
        assert ids == ["manual-01", "manual-09"]


class TestFirstMatch:
    def test_first_match_is_the_head_of_match_all_without_a_vocabulary(self, monkeypatch):
        spec = synth.GeneratorSpec(train_size=300, dev_size=60, test_size=60)
        corpus = synth.gen_synthetic(spec, 11)
        # induced rules: the tokens between the entities of each train positive
        induced = []
        for inst in corpus.train:
            if inst.gold_relation == NO_RELATION:
                continue
            between = set(all_between(inst))
            bits = tuple(int(i in between) for i in range(len(inst.tokens)))
            rule = generate_rule(inst, inst.gold_relation, bits)
            if rule is not None:
                induced.append(replace(rule, id=f"ind-{len(induced)}"))
        rules = merge_rulesets([synth.seed_rules(spec), RuleSet(induced)])
        assert any(isinstance(r, SurfaceRule) for r in rules)
        assert sum(isinstance(r, SyntacticRule) for r in rules) > 20

        builds = []
        real_build = TokenVocab.build.__func__
        monkeypatch.setattr(TokenVocab, "build", classmethod(
            lambda cls, insts: builds.append(1) or real_build(cls, insts)))
        hits = 0
        for inst in corpus.all_instances():
            every = match_all(rules, inst)
            first = first_match(rules, inst)
            assert first == (every[0] if every else None), inst.id
            assert predict_with_rules(rules, inst) == (
                every[0].label if every else NO_RELATION)
            hits += first is not None
        assert builds == []
        assert 0 < hits < len(corpus.train) + len(corpus.dev) + len(corpus.test)

    def test_surface_match_is_the_same_with_or_without_a_sequence(self, birth_instance):
        (rule,) = parse_rules(BIRTH_RULE)
        seq = mask_entities(birth_instance, TokenVocab.build([birth_instance]))
        assert match_rule(rule, birth_instance) == match_rule(rule, birth_instance, seq=seq)


class TestAnnotation:
    def test_union_of_gold_consistent_triggers(self, birth_instance):
        second = (
            "id: r2\nkind: syntactic\nlabel: per:city_of_birth\n"
            "trigger: word=born\n"
            "subject: SUBJ_PERSON = >nsubj\n"
            "object: OBJ_CITY = >obl\n"
        )
        rules = parse_rules(BIRTH_RULE + "\n" + second)
        ann = annotate_explanations(rules, [birth_instance])
        assert birth_instance.id in ann
        assert sorted(ann[birth_instance.id].ones()) == [1, 2, 3]
        assert ann[birth_instance.id].source == "rule"

    def test_wrong_label_match_is_ignored(self, birth_instance):
        wrong = BIRTH_RULE.replace("label: per:city_of_birth", "label: per:city_of_death")
        ann = annotate_explanations(parse_rules(wrong), [birth_instance])
        assert ann == {}

    def test_negatives_never_annotated(self):
        inst = make_instance(
            forms=["John", "met", "Ann"], heads=[1, None, 1],
            deprels=["nsubj", "root", "obj"],
            subj_span=(0, 0), obj_span=(2, 2), relation=NO_RELATION,
            instance_id="neg-2",
        )
        rules = parse_rules(
            "id: r\nkind: syntactic\nlabel: per:spouse\n"
            "trigger: word=met\nsubject: SUBJ_PERSON = >nsubj\n"
            "object: OBJ_PERSON = >obj\n"
        )
        assert annotate_explanations(rules, [inst]) == {}
