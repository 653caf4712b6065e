import dataclasses
import json
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

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
    load_split,
    mask_entities,
    save_corpus,
    save_instances,
    shortest_dep_path,
    token_depth,
)
from rexl.synth import GeneratorSpec, gen_synthetic

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


    def test_token_is_immutable_and_hashable(self):
        tok = Token(form="a", lemma="a", pos="NN", ner="O", head=None, deprel="root")
        with pytest.raises(AttributeError):
            tok.head = 0
        assert hash(tok) == hash(Token("a", "a", "NN", "O", None, "root"))
        assert {tok: 1}[Token("a", "a", "NN", "O", None, "root")] == 1


def _root_walk_validate(inst: RelationInstance) -> None:
    """The per-token root walk that ``validate`` replaced, kept as its oracle."""
    n = len(inst.tokens)
    if n == 0:
        raise CorpusError(f"{inst.id}: empty token list")
    for name, (lo, hi) in (("subj", inst.subj_span), ("obj", inst.obj_span)):
        if not (0 <= lo <= hi < n):
            raise CorpusError(f"{inst.id}: {name} span {(lo, hi)} out of range for {n} tokens")
    if inst.subj_indices & inst.obj_indices:
        raise CorpusError(f"{inst.id}: subject and object spans overlap")
    roots = [i for i, t in enumerate(inst.tokens) if t.head is None]
    if len(roots) != 1:
        raise CorpusError(f"{inst.id}: expected exactly one root, found {len(roots)}")
    for i, t in enumerate(inst.tokens):
        if t.head is None:
            continue
        if not (0 <= t.head < n):
            raise CorpusError(f"{inst.id}: token {i} has head {t.head} out of range")
        if t.head == i:
            raise CorpusError(f"{inst.id}: token {i} is its own head")
    for i in range(n):
        seen = set()
        j: Optional[int] = i
        while j is not None:
            if j in seen:
                raise CorpusError(f"{inst.id}: dependency cycle through token {i}")
            seen.add(j)
            j = inst.tokens[j].head


def _outcome(check, inst):
    try:
        check(inst)
    except Exception as exc:  # the class and the message are compared
        return type(exc), str(exc)
    return None


@st.composite
def _head_arrays(draw):
    """A tree of up to 64 tokens, a few arbitrary head edits, then a relabelling.

    The edits make cycles, self-heads, extra or missing roots and heads out
    of range; with no edit the tree is valid.
    """
    n = draw(st.integers(1, 64))
    heads = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        # mostly in-range heads, which make cycles and self-heads
        heads[draw(index)] = draw(st.one_of(index, index, index, st.none(), st.integers(-1, n)))
    order = draw(st.permutations(range(n)))
    relabelled: list = [None] * n
    for i, h in enumerate(heads):
        relabelled[order[i]] = order[h] if h is not None and 0 <= h < n else h
    subj = draw(index)
    obj = draw(index.filter(lambda i: i != subj)) if n > 1 else subj
    return relabelled, subj, obj


@settings(max_examples=500, deadline=None)
@given(_head_arrays())
@example(([None, 2, 1], 0, 1))        # a cycle cut off from the root
@example(([None, 1, 0], 0, 2))        # a token that is its own head
@example(([None, None, 0], 0, 2))     # two roots
@example(([None, 0, 0], 1, 1))        # overlapping spans
@example(([1, 2, 3, None, 2], 0, 4))  # a chain that later walks join
@example(([3, 0, None, 1], 1, 2))     # a cycle through 0, 1 and 3
@example(([2, 2, None, 4, 3], 0, 4))  # tokens 0 to 2 reach the root, 3 does not
def test_validate_matches_the_root_walk_oracle(args):
    heads, a, b = args
    inst = RelationInstance(
        id="h", tokens=tuple(Token(f"w{i}", f"w{i}", "NN", "O", h, "dep")
                             for i, h in enumerate(heads)),
        subj_span=(a, a), obj_span=(b, b), subj_type="PERSON", obj_type="PERSON",
        gold_relation=NO_RELATION,
    )
    assert _outcome(RelationInstance.validate, inst) == _outcome(_root_walk_validate, inst)


class TestPaths:
    def test_trigger_to_subject(self, family_instance):
        path = shortest_dep_path(family_instance, 2, {0})
        assert [(s.direction, s.deprel) for s in path.steps] == [(DOWN, "nmod:poss")]

    def test_trigger_to_object(self, family_instance):
        path = shortest_dep_path(family_instance, 2, {4})
        assert [(s.direction, s.deprel) for s in path.steps] == [(DOWN, "appos")]

    def test_subject_to_object_goes_through_trigger(self, family_instance):
        path = shortest_dep_path(family_instance, 0, {4})
        assert [(s.direction, s.deprel) for s in path.steps] == [
            (UP, "nmod:poss"), (DOWN, "appos"),
        ]

    def test_depths(self, family_instance):
        assert token_depth(family_instance, 6) == 0  # root verb
        assert token_depth(family_instance, 2) == 1
        assert token_depth(family_instance, 0) == 2
        assert token_depth(family_instance, 4) == 2

    def test_same_token_yields_empty_path(self, family_instance):
        path = shortest_dep_path(family_instance, 2, {2})
        assert path.steps == ()

    @pytest.mark.parametrize("heads, targets, message", [
        ([None, 0, 0], set(), "empty endpoint set for dependency path"),
        ([None, 0, 0], {3}, "path endpoint 3 out of range"),
        ([None, None, 1], {2}, "no dependency path from token 0 to token 2"),
        ([None, 2, 1, 2], {3}, "dependency cycle through token 3"),
    ], ids=["no target", "target out of range", "two roots", "cycle"])
    def test_bad_path_input_names_the_instance(self, heads, targets, message):
        # built without validate(), as a caller holding an unchecked instance would
        inst = RelationInstance(
            id="broken", tokens=tuple(Token(f"w{i}", f"w{i}", "NN", "O", h, "dep")
                                      for i, h in enumerate(heads)),
            subj_span=(0, 0), obj_span=(1, 1), subj_type="PERSON",
            obj_type="PERSON", gold_relation=NO_RELATION,
        )
        with pytest.raises(CorpusError, match=f"^broken: {message}$"):
            shortest_dep_path(inst, 0, targets)
        if "cycle" in message:
            with pytest.raises(CorpusError, match=f"^broken: {message}$"):
                token_depth(inst, 3)


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
        st.sets(st.integers(0, n - 1), min_size=1, max_size=3),
    )
))
def test_path_length_matches_bfs_oracle(args):
    heads_seed, a, targets = args
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

    nearest = min(targets, key=lambda t: (dist[t], t))
    path = shortest_dep_path(inst, a, targets)
    assert len(path.steps) == dist[nearest]

    # walking the steps from a must land on the lowest-index nearest
    # target; deprels are unique per dependent here, so each DOWN step
    # names exactly one child
    pos = a
    for step in path.steps:
        if step.direction == UP:
            pos = inst.tokens[pos].head
        else:
            children = [i for i, t in enumerate(inst.tokens)
                        if t.head == pos and t.deprel == step.deprel]
            assert len(children) == 1
            pos = children[0]
    assert pos == nearest


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

    @pytest.mark.parametrize("key, value, problem", [
        ("subj_start", "x", "subj_start must be an integer, got 'x'"),
        ("subj_start", 0.7, "subj_start must be an integer, got 0.7"),
        ("token", 5, "token must be a list, got 5"),
        ("stanford_pos", None, "stanford_pos must be a list, got None"),
        ("stanford_head", [3, True, 7, 5, 3, 5, 0, 7, 7], "head True at token 1"),
        # a string as long as the sentence, once split into one-letter deprels
        ("stanford_deprel", "abcdefghi", "stanford_deprel must be a list, got 'abcdefghi'"),
        ("id", 5, "id must be a string, got 5"),
        ("relation", None, "relation must be a string, got None"),
        ("subj_type", None, "subj_type must be a string, got None"),
        ("obj_type", 5, "obj_type must be a string, got 5"),
        ("token", ["John", "'s", None, ",", "Emma", ",", "likes", "swimming", "."],
         "token entry 2 must be a string, got None"),
        ("stanford_pos", ["NN"] * 8 + [3], "stanford_pos entry 8 must be a string, got 3"),
        ("stanford_lemma", [1.5] + ["x"] * 8, "stanford_lemma entry 0 must be a string, got 1.5"),
    ], ids=["string span", "float span", "token not a list", "null column", "bool head",
            "string column", "numeric id", "null relation", "null subject type",
            "numeric object type", "null token", "numeric tag", "numeric lemma"])
    def test_malformed_field_rejected_with_file_line_and_id(self, tmp_path, family_instance,
                                                            key, value, problem):
        record = {**instance_to_record(family_instance), key: value}
        (tmp_path / "test.jsonl").write_text("\n" + json.dumps(record) + "\n")
        with pytest.raises(CorpusError) as err:
            load_split(tmp_path, "test")
        ident = "" if key == "id" else "'family-0': "
        assert str(err.value).startswith(f"{tmp_path / 'test.jsonl'}:2: {ident}{problem}")

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

    def test_duplicate_id_within_a_split_rejected(self, tmp_path, family_instance):
        (tmp_path / "test.jsonl").write_text(
            2 * (json.dumps(instance_to_record(family_instance)) + "\n"))
        with pytest.raises(CorpusError, match="duplicate instance id 'family-0'"):
            load_split(tmp_path, "test")

    def test_id_shared_across_splits_rejected(self, tmp_path, family_instance):
        save_instances([family_instance], tmp_path / "train.jsonl")
        save_instances([family_instance], tmp_path / "test.jsonl")
        assert [i.id for i in load_split(tmp_path, "test")] == ["family-0"]
        with pytest.raises(CorpusError, match="duplicate instance id 'family-0'"):
            load_corpus(tmp_path)

    def test_split_loader_reads_no_other_split(self, tmp_path, family_instance):
        save_instances([family_instance], tmp_path / "test.jsonl")
        (tmp_path / "train.jsonl").write_text("{broken\n")
        assert load_split(tmp_path, "test") == [family_instance]
        assert load_split(tmp_path, "dev") == []  # a missing file is an empty split
        with pytest.raises(CorpusError, match="train.jsonl:1: not valid JSON"):
            load_corpus(tmp_path)

    def test_split_loader_rejects_unknown_split_and_directory(self, tmp_path):
        with pytest.raises(CorpusError, match="unknown split 'valid'"):
            load_split(tmp_path, "valid")
        with pytest.raises(CorpusError, match="does not exist"):
            load_split(tmp_path / "nope", "test")

    def test_loading_validates_each_record_once(self, tmp_path, family_instance,
                                                 birth_instance, monkeypatch):
        save_corpus(Corpus.build([family_instance], [], [birth_instance]), tmp_path)
        calls = []
        real = RelationInstance.validate
        monkeypatch.setattr(RelationInstance, "validate",
                            lambda inst: calls.append(inst.id) or real(inst))
        load_corpus(tmp_path)
        assert sorted(calls) == ["birth-0", "family-0"]
        calls.clear()
        load_split(tmp_path, "test")
        assert calls == ["birth-0"]
        calls.clear()
        Corpus.build([family_instance], [], [birth_instance])
        assert sorted(calls) == ["birth-0", "family-0"]

    def test_relation_vocab_sorted_without_negative(self, family_instance, birth_instance):
        neg = make_instance(
            forms=["a", "b", "c"], heads=[None, 0, 0], deprels=["root", "x", "y"],
            subj_span=(0, 0), obj_span=(2, 2), relation=NO_RELATION,
            instance_id="neg-1",
        )
        corpus = Corpus.build([birth_instance, family_instance, neg])
        assert corpus.relation_vocab == ("per:children", "per:city_of_birth")


@pytest.fixture(scope="module")
def acceptance_corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-corpus")
    save_corpus(gen_synthetic(GeneratorSpec(), 11), root)
    return root


@pytest.mark.parametrize("split", ["train", "dev", "test"])
def test_split_loader_equals_load_corpus_on_the_acceptance_corpus(acceptance_corpus_dir,
                                                                   split):
    alone = load_split(acceptance_corpus_dir, split)
    whole = load_corpus(acceptance_corpus_dir).split(split)
    assert len(alone) == len(whole) > 0
    for a, b in zip(alone, whole):
        for f in dataclasses.fields(RelationInstance):
            assert getattr(a, f.name) == getattr(b, f.name), (a.id, f.name)
        assert a.masked_symbols == b.masked_symbols
