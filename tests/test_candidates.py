import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from rexl import synth
from rexl.corpus import NO_RELATION, SOURCE_LATENT
from rexl.neural import Model
from rexl.trainer import TrainConfig, generate_candidates, select_candidate


def _oracle(scores, t_low, t_up):
    """Threshold-consistent enumeration, lowest index toggling fastest."""
    allowed = []
    for s in scores:
        if s > t_up:
            allowed.append((1,))
        elif s < t_low:
            allowed.append((0,))
        else:
            allowed.append((0, 1))
    return [tuple(reversed(t)) for t in itertools.product(*reversed(allowed))]


class TestEnumeration:
    def test_single_ambiguous_token(self):
        scores = [0.12, 0.14, 0.19, 0.86, 0.25, 0.15, 0.01]
        out = generate_candidates(scores, t_low=0.2, t_up=0.8)
        assert out == [(0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 1, 0, 0)]

    def test_no_ambiguity_yields_one_candidate(self):
        out = generate_candidates([0.9, 0.1, 0.95], t_low=0.2, t_up=0.8)
        assert out == [(1, 0, 1)]

    def test_empty_scores(self):
        assert generate_candidates([], 0.2, 0.8) == [()]

    def test_boundary_scores_count_as_ambiguous(self):
        out = generate_candidates([0.8, 0.2], t_low=0.2, t_up=0.8)
        assert len(out) == 4
        assert set(out) == {(a, b) for a in (0, 1) for b in (0, 1)}

    def test_lowest_index_toggles_fastest(self):
        out = generate_candidates([0.5, 0.9, 0.5], t_low=0.2, t_up=0.8)
        assert out == [(0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)]

    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=8,
        ),
        thresholds=st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
    )
    def test_matches_exhaustive_oracle(self, scores, thresholds):
        t_low, t_up = sorted(thresholds)
        out = generate_candidates(scores, t_low, t_up, cap=256)
        assert out == _oracle(scores, t_low, t_up)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            generate_candidates([0.5], t_low=0.8, t_up=0.2)

    def test_rejects_zero_cap(self):
        with pytest.raises(ValueError):
            generate_candidates([0.5], 0.2, 0.8, cap=0)


class TestCap:
    def test_most_confident_fixed_first(self):
        # 0.7 and 0.3 sit 0.2 from the midpoint, 0.5 sits on it; with room
        # for one free token only the midpoint one stays free
        out = generate_candidates([0.5, 0.7, 0.3], t_low=0.2, t_up=0.8, cap=2)
        assert out == [(0, 1, 0), (1, 1, 0)]

    def test_tied_confidence_fixes_lower_index_first(self):
        out = generate_candidates([0.5] * 5, t_low=0.2, t_up=0.8, cap=8)
        assert len(out) == 8
        # 0.5 rounds up, so the two fixed tokens come out as ones
        assert all(c[0] == 1 and c[1] == 1 for c in out)
        assert out[0] == (1, 1, 0, 0, 0)
        assert out[1] == (1, 1, 1, 0, 0)

    def test_cap_one_forces_a_single_candidate(self):
        out = generate_candidates([0.5, 0.4, 0.6], t_low=0.2, t_up=0.8, cap=1)
        assert out == [(1, 0, 1)]

    def test_cap_respected_for_any_input(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            scores = rng.random(n).tolist()
            cap = int(rng.integers(1, 32))
            out = generate_candidates(scores, 0.2, 0.8, cap=cap)
            assert 1 <= len(out) <= cap

    def test_cap_result_is_prefix_consistent_subset(self):
        # capping must only fix tokens, never invent bits the thresholds forbid
        scores = [0.5, 0.45, 0.55, 0.5, 0.5]
        full = set(generate_candidates(scores, 0.2, 0.8, cap=256))
        capped = generate_candidates(scores, 0.2, 0.8, cap=4)
        assert set(capped) <= full
        assert len(capped) == 4


class _StubModel:
    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)
        self.seen = None

    def candidate_scores(self, inst, candidates, label, seq=None):
        self.seen = [tuple(c) for c in candidates]
        return self.probs


class TestSelection:
    def test_picks_argmax_of_gold_probability(self, family_instance):
        stub = _StubModel([0.1, 0.9, 0.4])
        cands = [(0, 0, 1, 0, 0, 0, 0, 0, 0),
                 (0, 0, 0, 0, 0, 0, 1, 0, 0),
                 (0, 0, 1, 0, 0, 0, 1, 0, 0)]
        chosen = select_candidate(cands, family_instance, "per:children", stub)
        assert chosen.bits == cands[1]
        assert chosen.source == SOURCE_LATENT
        assert stub.seen == cands

    def test_first_candidate_wins_ties(self, family_instance):
        stub = _StubModel([0.5, 0.8, 0.8])
        cands = [(0,) * 9, (1,) + (0,) * 8, (0, 1) + (0,) * 7]
        chosen = select_candidate(cands, family_instance, "per:children", stub)
        assert chosen.bits == cands[1]

    def test_empty_candidate_list_rejected(self, family_instance):
        with pytest.raises(ValueError, match="empty"):
            select_candidate([], family_instance, "per:children", _StubModel([]))

    def test_negative_label_rejected(self, family_instance):
        with pytest.raises(ValueError, match="positive"):
            select_candidate([(0,) * 9], family_instance, NO_RELATION,
                             _StubModel([0.5]))


class _NoForwardModel:
    def candidate_scores(self, inst, candidates, label, seq=None):
        raise AssertionError("scored candidates")


class TestSingleCandidate:
    def test_lone_candidate_returned_without_a_forward(self, family_instance):
        only = (0, 0, 1, 0, 0, 0, 1, 0, 0)
        chosen = select_candidate([only], family_instance, "per:children", _NoForwardModel())
        assert chosen.bits == only
        assert chosen.source == SOURCE_LATENT

    def test_empty_list_still_rejected(self, family_instance):
        with pytest.raises(ValueError, match="empty"):
            select_candidate([], family_instance, "per:children", _NoForwardModel())

    def test_negative_label_still_rejected(self, family_instance):
        with pytest.raises(ValueError, match="positive"):
            select_candidate([(0,) * 9], family_instance, NO_RELATION, _NoForwardModel())


def _longest_instance(n_tokens, relation):
    """A valid positive of ``n_tokens`` tokens: a chain under token 0, entities
    at the first two tokens, every other token context."""
    return make_instance(
        forms=[f"w{i}" for i in range(n_tokens)],
        heads=[None] + list(range(n_tokens - 1)),
        deprels=["root"] + ["dep"] * (n_tokens - 1),
        subj_span=(0, 0),
        obj_span=(1, 1),
        relation=relation,
        instance_id="longest-0",
    )


def test_worst_case_search_at_max_length_hits_the_cap_and_stays_exact():
    spec = synth.GeneratorSpec(train_size=32, dev_size=8, test_size=8)
    corpus = synth.gen_synthetic(spec, 7)
    config = TrainConfig()
    model = Model.create(config.model, corpus.token_vocab, corpus.relation_vocab)
    label = corpus.relation_vocab[0]
    inst = _longest_instance(config.model.max_seq_len - 1, label)
    seq = model.masked(inst)
    assert len(seq) == config.model.max_seq_len
    scores = [0.0 if i in inst.entity_indices else 0.5 for i in range(len(inst.tokens))]
    candidates = generate_candidates(scores, config.t_low, config.t_up, cap=config.candidate_cap)
    assert len(candidates) == config.candidate_cap == 256

    start = time.perf_counter()
    chosen = select_candidate(candidates, inst, label, model, seq=seq)
    assert time.perf_counter() - start < 5.0

    ci = model.class_index(label)
    probs = [float(model.relation_distribution(inst, c, seq=seq)[ci]) for c in candidates]
    assert max(probs) - min(probs) > 1e-6  # the pick is not a tie of everything
    pick = candidates.index(chosen.bits)
    # the batched and one-row forwards may round differently by about 1e-16
    assert probs[pick] >= max(probs) - 1e-9
    assert all(p <= probs[pick] + 1e-9 for p in probs[:pick])
