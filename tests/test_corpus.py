import json

import pytest
from hypothesis import given, settings, strategies as st

from rexl.corpus import (
    CLS,
    Corpus,
    CorpusError,
    DOWN,
    NO_RELATION,
    PAD,
    RelationInstance,
    Token,
    TokenVocab,
    UNK,
    UP,
    instance_to_record,
    load_corpus,
    load_instances,
    mask_entities,
    save_corpus,
    save_instances,
    shortest_dep_path,
    token_depth,
)

from conftest import make_instance


class TestValidation:
    def test_round_trip_fixture_validates(self, family_instance):
        family_instance.validate()

    def test_overlapping_spans_rejected(self):
        with pytest.raises(CorpusError, match="overlap"):
            make_instance(
                forms=["a", "b", "c"], heads=[None, 0, 0],
                deprels=["root", "x", "y"],
                subj_span=(0, 1), obj_span=(1, 2),
            )

    def test_span_out_of_range(self):
        with pytest.raises(CorpusError, match="out of range"):
            make_instance(
                forms=["a", "b"], heads=[None, 0], deprels=["root", "x"],
                subj_span=(0, 0), obj_span=(1, 5),
            )

    def test_two_roots_rejected(self):
        with pytest.raises(CorpusError, match="exactly one root"):
            make_instance(
                forms=["a", "b", "c"], heads=[None, None, 0],
                deprels=["root", "root", "x"],
                subj_span=(0, 0), obj_span=(2, 2),
            )

    def test_self_head_rejected(self):
        with pytest.raises(CorpusError, match="own head"):
            make_instance(
                forms=["a", "b", "c"], heads=[None, 1, 0],
                deprels=["root", "x", "y"],
                subj_span=(0, 0), obj_span=(2, 2),
            )

    def test_cycle_rejected(self):
        # 1 and 2 head each other, disconnected from the root
        tokens = tuple(
            Token(f, f, "NN", "O", h, d)
            for f, h, d in [("a", None, "root"), ("b", 2, "x"), ("c", 1, "y")]
        )
        inst = RelationInstance(
            id="bad", tokens=tokens, subj_span=(0, 0), obj_span=(1, 1),
            subj_type="PERSON", obj_type="PERSON", gold_relation=NO_RELATION,
        )
        with pytest.raises(CorpusError, match="cycle"):
            inst.validate()


class TestPaths:
    def test_trigger_to_subject(self, family_instance):
        path, ends = shortest_dep_path(family_instance, {2}, {0})
        assert ends == (2, 0)
        assert [(s.direction, s.deprel) for s in path.steps] == [(DOWN, "nmod:poss")]

    def test_trigger_to_object(self, family_instance):
        path, ends = shortest_dep_path(family_instance, {2}, {4})
        assert ends == (2, 4)
        assert [(s.direction, s.deprel) for s in path.steps] == [(DOWN, "appos")]

    def test_subject_to_object_goes_through_trigger(self, family_instance):
        path, ends = shortest_dep_path(family_instance, {0}, {4})
        assert ends == (0, 4)
        assert [(s.direction, s.deprel) for s in path.steps] == [
            (UP, "nmod:poss"), (DOWN, "appos"),
        ]

    def test_depths(self, family_instance):
        assert token_depth(family_instance, 6) == 0  # root verb
        assert token_depth(family_instance, 2) == 1
        assert token_depth(family_instance, 0) == 2
        assert token_depth(family_instance, 4) == 2

    def test_same_token_yields_empty_path(self, family_instance):
        path, ends = shortest_dep_path(family_instance, {2}, {2})
        assert path.steps == ()
        assert ends == (2, 2)


def _random_tree(heads_seed: list[int]) -> RelationInstance:
    # heads_seed[i] in [0, i) attaches token i+1 under an earlier token,
    # which always produces a valid rooted tree
    n = len(heads_seed) + 1
    heads: list = [None] + [h for h in heads_seed]
    forms = [f"w{i}" for i in range(n)]
    return make_instance(
        forms=forms, heads=heads, deprels=["root"] + [f"d{i}" for i in range(1, n)],
        subj_span=(0, 0), obj_span=(n - 1, n - 1),
        relation=NO_RELATION,
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10).flatmap(
    lambda n: st.tuples(
        st.tuples(*[st.integers(0, i) for i in range(n - 1)]),
        st.integers(0, n - 1),
        st.integers(0, n - 1),
    )
))
def test_path_length_matches_bfs_oracle(args):
    heads_seed, a, b = args
    inst = _random_tree(list(heads_seed))
    n = len(inst.tokens)

    # plain BFS distance oracle over the undirected tree
    adj = [[] for _ in range(n)]
    for i, t in enumerate(inst.tokens):
        if t.head is not None:
            adj[i].append(t.head)
            adj[t.head].append(i)
    dist = [-1] * n
    dist[a] = 0
    queue = [a]
    while queue:
        u = queue.pop(0)
        for v in adj[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)

    path, ends = shortest_dep_path(inst, {a}, {b})
    assert len(path.steps) == dist[b]
    assert ends == (a, b)

    # walking the steps from a must land on b; deprels are unique per
    # dependent here, so each DOWN step names exactly one child
    pos = a
    for step in path.steps:
        if step.direction == UP:
            pos = inst.tokens[pos].head
        else:
            children = [i for i, t in enumerate(inst.tokens)
                        if t.head == pos and t.deprel == step.deprel]
            assert len(children) == 1
            pos = children[0]
    assert pos == b


class TestMasking:
    def test_masked_symbols(self, family_instance):
        vocab = TokenVocab.build([family_instance])
        seq = mask_entities(family_instance, vocab)
        assert seq.symbols[0] == CLS
        assert seq.symbols[1] == "SUBJ-PERSON"
        assert seq.symbols[5] == "OBJ-PERSON"
        assert seq.symbols[3] == "daughter"

    def test_vocab_excludes_entity_forms(self, family_instance):
        vocab = TokenVocab.build([family_instance])
        assert "John" not in vocab
        assert "Emma" not in vocab
        assert "SUBJ-PERSON" in vocab
        assert "daughter" in vocab
        assert vocab.symbols[:3] == (PAD, CLS, UNK)

    def test_unknown_symbol_falls_back_to_unk(self, family_instance):
        vocab = TokenVocab.build([family_instance])
        assert vocab.id("zyzzyva") == vocab.unk_id


class TestFiles:
    def test_jsonl_round_trip(self, tmp_path, family_instance, birth_instance):
        path = tmp_path / "x.jsonl"
        save_instances([family_instance, birth_instance], path)
        back = load_instances(path)
        assert back == [family_instance, birth_instance]

    def test_heads_stored_one_based(self, family_instance):
        record = instance_to_record(family_instance)
        assert record["stanford_head"] == [3, 1, 7, 5, 3, 5, 0, 7, 7]

    def test_missing_key_rejected(self, tmp_path, family_instance):
        record = instance_to_record(family_instance)
        del record["stanford_deprel"]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorpusError, match="stanford_deprel"):
            load_instances(path)

    def test_lemma_defaults_to_lowercased_form(self, tmp_path, family_instance):
        record = instance_to_record(family_instance)
        del record["stanford_lemma"]
        path = tmp_path / "x.jsonl"
        path.write_text(json.dumps(record) + "\n")
        (inst,) = load_instances(path)
        assert inst.tokens[0].lemma == "john"

    def test_ragged_columns_rejected(self, tmp_path, family_instance):
        record = instance_to_record(family_instance)
        record["stanford_pos"] = record["stanford_pos"][:-1]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorpusError, match="stanford_pos"):
            load_instances(path)

    def test_corpus_directory_round_trip(self, tmp_path, family_instance, birth_instance):
        corpus = Corpus.build([family_instance], [], [birth_instance])
        save_corpus(corpus, tmp_path / "corp")
        back = load_corpus(tmp_path / "corp")
        assert back.train == corpus.train
        assert back.test == corpus.test
        assert back.relation_vocab == corpus.relation_vocab
        assert back.token_vocab.symbols == corpus.token_vocab.symbols

    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(CorpusError, match="does not exist"):
            load_corpus(tmp_path / "nope")

    def test_duplicate_ids_rejected(self, family_instance):
        with pytest.raises(CorpusError, match="duplicate"):
            Corpus.build([family_instance, family_instance])

    def test_relation_vocab_sorted_without_negative(self, family_instance, birth_instance):
        neg = make_instance(
            forms=["a", "b", "c"], heads=[None, 0, 0], deprels=["root", "x", "y"],
            subj_span=(0, 0), obj_span=(2, 2), relation=NO_RELATION,
            instance_id="neg-1",
        )
        corpus = Corpus.build([birth_instance, family_instance, neg])
        assert corpus.relation_vocab == ("per:children", "per:city_of_birth")
