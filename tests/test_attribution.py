import pytest
from conftest import make_instance

from rexl import synth
from rexl.attribution import (
    ALL_BETWEEN,
    ATTENTION,
    GREEDY,
    METHODS,
    OCCLUSION,
    SALIENCY,
    AttributionError,
    all_between,
    all_context_distribution,
    attribute,
    greedy_rationale,
    occlusion_drops,
)
from rexl.neural import Model, ModelConfig


@pytest.fixture(scope="module")
def setup():
    spec = synth.GeneratorSpec(train_size=24, dev_size=8, test_size=8)
    corpus = synth.gen_synthetic(spec, 7)
    cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, max_seq_len=32, seed=3)
    model = Model.create(cfg, corpus.token_vocab, corpus.relation_vocab)
    return model, corpus


class TestAllBetween:
    def test_tokens_strictly_between_spans(self, birth_instance):
        assert all_between(birth_instance) == [1, 2, 3]

    def test_span_order_does_not_matter(self):
        forms = ["London", "hosted", "a", "party", "for", "John", "."]
        heads = [1, None, 3, 1, 5, 3, 1]
        deprels = ["nsubj", "root", "det", "obj", "case", "nmod", "punct"]
        inst = make_instance(forms, heads, deprels, subj_span=(5, 5),
                             obj_span=(0, 0), subj_type="PERSON",
                             obj_type="CITY", relation="per:city_of_birth")
        assert all_between(inst) == [1, 2, 3, 4]

    def test_adjacent_spans_yield_nothing(self):
        forms = ["John", "Smith", "spoke", "."]
        heads = [2, 0, None, 2]
        deprels = ["nsubj", "flat", "root", "punct"]
        inst = make_instance(forms, heads, deprels, subj_span=(0, 0),
                             obj_span=(1, 1))
        assert all_between(inst) == []


class TestRanking:
    @pytest.mark.parametrize("method", [ATTENTION, SALIENCY, OCCLUSION])
    def test_scores_rank_only_non_entity_tokens(self, setup, method):
        model, corpus = setup
        inst = corpus.train[0]
        picked = attribute(method, model, inst, n=3)
        assert len(picked) == 3
        assert not set(picked) & inst.entity_indices

    def test_n_truncates_and_larger_n_saturates(self, setup):
        model, corpus = setup
        inst = corpus.train[0]
        pool = [i for i in range(len(inst.tokens)) if i not in inst.entity_indices]
        full = attribute(ATTENTION, model, inst, n=100)
        assert len(full) == len(pool)
        assert attribute(ATTENTION, model, inst, n=2) == full[:2]

    def test_ties_break_towards_lower_index(self, setup):
        model, corpus = setup
        inst = corpus.train[0]
        # a zeroed relation head makes every occlusion drop identical
        saved = model.params["rel_w"].copy(), model.params["rel_b"].copy()
        model.params["rel_w"][:] = 0.0
        model.params["rel_b"][:] = 0.0
        try:
            picked = attribute(OCCLUSION, model, inst, n=4)
        finally:
            model.params["rel_w"][:] = saved[0]
            model.params["rel_b"][:] = saved[1]
        pool = [i for i in range(len(inst.tokens)) if i not in inst.entity_indices]
        assert picked == pool[:4]

    def test_zero_n_gives_empty_list(self, setup):
        model, corpus = setup
        assert attribute(SALIENCY, model, corpus.train[0], n=0) == []


class TestOcclusion:
    @pytest.mark.parametrize("anchor", ["predicted", "least likely"])
    def test_drops_match_the_one_row_oracle(self, setup, anchor):
        model, corpus = setup
        unk = model.token_vocab.unk_id
        for inst in corpus.train[:6]:
            bits = model.full_rationale_bits(inst)
            base = model.relation_distribution(inst, bits)
            if anchor == "predicted":
                c, drops = int(base.argmax()), occlusion_drops(model, inst)
            else:
                c = int(base.argmin())
                drops = occlusion_drops(model, inst, label=model.class_labels[c])
            for j in range(len(inst.tokens)):
                if j in inst.entity_indices:
                    assert drops[j] == 0.0
                else:
                    one = model.relation_distribution(inst, bits, id_override={j + 1: unk})
                    assert abs(drops[j] - (base[c] - one[c])) <= 1e-9


class TestGreedy:
    def test_first_pick_is_the_best_singleton(self, setup):
        model, corpus = setup
        inst = corpus.train[0]
        label = model.class_labels[int(all_context_distribution(model, inst).argmax())]
        chosen = greedy_rationale(model, inst)
        if not chosen:
            pytest.skip("greedy found no improving token for this seed")
        c = model.class_index(label)
        pool = [i for i in range(len(inst.tokens)) if i not in inst.entity_indices]
        n = len(inst.tokens)

        def prob(active):
            bits = [1 if i in active else 0 for i in range(n)]
            return float(model.relation_distribution(inst, bits)[c])

        best = max(pool, key=lambda j: (prob({j}), -j))
        assert chosen[0] == best

    def test_probability_strictly_increases_along_the_path(self, setup):
        model, corpus = setup
        inst = corpus.train[0]
        base = all_context_distribution(model, inst)
        c = int(base.argmax())
        chosen = greedy_rationale(model, inst)
        n = len(inst.tokens)
        active: set[int] = set()
        last = float(model.relation_distribution(inst, [0] * n)[c])
        for j in chosen:
            active.add(j)
            bits = [1 if i in active else 0 for i in range(n)]
            cur = float(model.relation_distribution(inst, bits)[c])
            assert cur > last
            last = cur

    def test_greedy_through_attribute_truncates(self, setup):
        model, corpus = setup
        inst = corpus.train[0]
        full = greedy_rationale(model, inst)
        assert attribute(GREEDY, model, inst, n=1) == full[:1]


class TestErrors:
    def test_unknown_method_rejected(self, setup):
        model, corpus = setup
        with pytest.raises(AttributionError, match="unknown"):
            attribute("lime", model, corpus.train[0], n=3)

    def test_negative_n_rejected(self, setup):
        model, corpus = setup
        with pytest.raises(AttributionError, match="non-negative"):
            attribute(ATTENTION, model, corpus.train[0], n=-1)

    def test_method_registry_is_complete(self):
        assert METHODS == (ATTENTION, SALIENCY, OCCLUSION, GREEDY, ALL_BETWEEN)
