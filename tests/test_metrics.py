"""Tests for accuracy, BLEU and the parameter/MAC profiler."""

import numpy as np
import pytest

from repro import nn
from repro.metrics import (
    EVALUATION_SETTINGS,
    accuracy,
    bleu_score,
    corpus_bleu,
    profile_model,
    tokenize_13a,
    tokenize_international,
)
from repro.models import CifarResNet
from repro.quadratic import (
    CONV_NEURON_TYPES,
    DENSE_NEURON_TYPES,
    EfficientQuadraticConv2d,
    make_conv,
    make_dense,
    neuron_complexity,
)
from repro.tensor import Tensor


class TestAccuracy:
    def test_perfect_and_zero(self):
        logits = np.eye(4) * 10
        assert accuracy(logits, np.arange(4)) == 1.0
        assert accuracy(logits, (np.arange(4) + 1) % 4) == 0.0

    def test_accepts_tensor(self):
        assert accuracy(Tensor(np.eye(3)), np.arange(3)) == 1.0

    def test_fractional_accuracy(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [2.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1, 1])) == pytest.approx(0.5)

    def test_sequence_logits_use_last_axis(self):
        # (batch, positions, classes): every position is one prediction.
        logits = np.zeros((2, 3, 4))
        logits[..., 1] = 1.0
        targets = np.array([[1, 1, 0], [1, 2, 1]])
        assert accuracy(logits, targets) == pytest.approx(4 / 6)


class TestTokenizers:
    def test_13a_separates_punctuation(self):
        assert tokenize_13a("Anna sieht den Ball.") == ["Anna", "sieht", "den", "Ball", "."]

    def test_13a_empty(self):
        assert tokenize_13a("") == []

    def test_international_splits_on_non_word(self):
        assert tokenize_international("Ball. Haus!") == ["Ball", "Haus"]

    def test_settings_cover_four_configurations(self):
        assert len(EVALUATION_SETTINGS) == 4


class TestBleu:
    def test_perfect_match_scores_100(self):
        hypotheses = ["Anna das rote Haus sieht."] * 3
        assert bleu_score(hypotheses, hypotheses) == pytest.approx(100.0)

    def test_no_overlap_scores_0(self):
        score = bleu_score(["aaa bbb ccc ddd"], ["www xxx yyy zzz"], tokenization="13a")
        assert score == pytest.approx(0.0, abs=1e-6)

    def test_partial_overlap_between_0_and_100(self):
        score = bleu_score(["Anna sieht den Ball heute ."], ["Anna sieht den Ball jetzt ."])
        assert 0.0 < score < 100.0

    def test_case_sensitivity(self):
        hypotheses, references = ["anna sieht den ball ."], ["Anna sieht den Ball ."]
        cased = bleu_score(hypotheses, references, cased=True)
        uncased = bleu_score(hypotheses, references, cased=False)
        assert uncased == pytest.approx(100.0)
        assert cased < uncased

    def test_tokenization_affects_score(self):
        hypotheses, references = ["Anna sieht den Ball"], ["Anna sieht den Ball."]
        assert bleu_score(hypotheses, references, tokenization="international") >= \
            bleu_score(hypotheses, references, tokenization="13a")

    def test_brevity_penalty_punishes_short_hypotheses(self):
        full = ["der grosse alte Hund schlaeft hier sehr gerne"]
        short = ["der grosse alte Hund"]
        reference = ["der grosse alte Hund schlaeft hier sehr gerne"]
        assert bleu_score(short, reference) < bleu_score(full, reference)

    def test_corpus_bleu_length_mismatch(self):
        with pytest.raises(ValueError):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_corpus_bleu_empty(self):
        assert corpus_bleu([], []) == 0.0

    def test_unknown_tokenization(self):
        with pytest.raises(KeyError):
            bleu_score(["a"], ["a"], tokenization="bogus")


class TestProfiler:
    def test_linear_layer_macs(self):
        model = nn.Sequential(nn.Linear(10, 5, rng=np.random.default_rng(0)))
        profile = profile_model(model, Tensor(np.zeros((1, 10), dtype=np.float32)))
        assert profile.total_macs == 50
        assert profile.total_parameters == 55

    def test_conv_layer_macs(self):
        model = nn.Sequential(nn.Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(0)))
        profile = profile_model(model, Tensor(np.zeros((1, 3, 10, 10), dtype=np.float32)))
        assert profile.total_macs == 10 * 10 * 8 * 27

    def test_proposed_conv_macs_use_eq10(self):
        layer = EfficientQuadraticConv2d(3, 2, 3, padding=1, rank=4,
                                         rng=np.random.default_rng(0))
        model = nn.Sequential(layer)
        profile = profile_model(model, Tensor(np.zeros((1, 3, 6, 6), dtype=np.float32)))
        assert profile.total_macs == 36 * 2 * ((4 + 1) * 27 + 8)

    def test_baseline_conv_macs_use_table_i(self):
        layer = make_conv("quad2", 3, 4, 3, padding=1, rng=np.random.default_rng(0))
        profile = profile_model(nn.Sequential(layer),
                                Tensor(np.zeros((1, 3, 5, 5), dtype=np.float32)))
        assert profile.total_macs == 25 * 4 * neuron_complexity("quad2", 27).macs

    def test_whole_resnet_profiles_every_conv(self):
        model = CifarResNet(8, base_width=4, seed=0)
        profile = profile_model(model, Tensor(np.zeros((1, 3, 12, 12), dtype=np.float32)))
        # 7 convs + 2 projection shortcuts + classifier.
        assert len(profile.layers) == 10
        assert profile.total_parameters == model.num_parameters()
        assert profile.total_macs > 0

    def test_proposed_resnet_macs_close_to_linear(self):
        # base_width 10 keeps every stage width a multiple of rank+1 = 10, so the
        # comparison isolates the per-output MAC overhead of Eq. (10).
        example = Tensor(np.zeros((1, 3, 12, 12), dtype=np.float32))
        linear_profile = profile_model(CifarResNet(8, base_width=10, seed=0), example)
        proposed_profile = profile_model(
            CifarResNet(8, neuron_type="proposed", rank=9, base_width=10, seed=0), example)
        assert proposed_profile.total_macs < 1.05 * linear_profile.total_macs

    def test_summary_and_rows(self):
        model = nn.Sequential(nn.Linear(4, 4, rng=np.random.default_rng(0)))
        profile = profile_model(model, Tensor(np.zeros((1, 4), dtype=np.float32)))
        assert "parameters" in profile.summary()
        assert profile.as_rows()[0]["type"] == "Linear"

    def test_hooks_removed_after_profiling(self):
        model = nn.Sequential(nn.Linear(4, 4, rng=np.random.default_rng(0)))
        profile_model(model, Tensor(np.zeros((1, 4), dtype=np.float32)))
        assert model[0]._forward_hooks == []

    def test_callers_hooks_survive_profiling(self):
        model = nn.Sequential(nn.Linear(4, 4, rng=np.random.default_rng(0)))
        calls = []
        model[0].register_forward_hook(lambda *args: calls.append(1))
        example = Tensor(np.zeros((1, 4), dtype=np.float32))
        profile_model(model, example)
        model(example)
        assert calls == [1, 1]

    def test_training_mode_restored(self):
        model = nn.Sequential(nn.Linear(4, 4, rng=np.random.default_rng(0)))
        model.train()
        profile_model(model, Tensor(np.zeros((1, 4), dtype=np.float32)))
        assert model.training


# (total_parameters, total_macs) of one layer per neuron type and rank:
# conv 3 -> 12 channels, kernel 3, stride 2, padding 1 on a 9x9 input (5x5
# output positions); dense 10 -> 8 features on a (2, 5, 10) sequence input.
GOLDEN_CONV_PROFILES = {
    ("factorized", 1): (984, 16500), ("factorized", 3): (2280, 49500),
    ("general", 1): (9084, 234900), ("general", 3): (9084, 234900),
    ("kervolution", 1): (336, 8100), ("kervolution", 3): (336, 8100),
    ("linear", 1): (336, 8100), ("linear", 3): (336, 8100),
    ("proposed", 1): (336, 8400), ("proposed", 3): (336, 8550),
    ("pure", 1): (8748, 226800), ("pure", 3): (8748, 226800),
    ("quad1", 1): (984, 32400), ("quad1", 3): (984, 32400),
    ("quad2", 1): (984, 24300), ("quad2", 3): (984, 24300),
    ("quad_residual", 1): (660, 16200), ("quad_residual", 3): (660, 16200),
}
GOLDEN_DENSE_PROFILES = {
    ("factorized", 1): (248, 840), ("factorized", 3): (568, 2520),
    ("general", 1): (888, 4800), ("general", 3): (888, 4800),
    ("kervolution", 1): (88, 400), ("kervolution", 3): (88, 400),
    ("linear", 1): (88, 400), ("linear", 3): (88, 400),
    ("proposed", 1): (88, 440), ("proposed", 3): (88, 460),
    ("quad1", 1): (248, 1600), ("quad1", 3): (248, 1600),
    ("quad2", 1): (248, 1200), ("quad2", 3): (248, 1200),
    ("quad_residual", 1): (168, 800), ("quad_residual", 3): (168, 800),
}


class TestGoldenProfiles:
    def test_every_neuron_type_is_pinned(self):
        assert {t for t, _ in GOLDEN_CONV_PROFILES} == set(CONV_NEURON_TYPES)
        assert {t for t, _ in GOLDEN_DENSE_PROFILES} == set(DENSE_NEURON_TYPES)

    @pytest.mark.parametrize("neuron_type,rank", sorted(GOLDEN_CONV_PROFILES))
    def test_conv_profile(self, neuron_type, rank):
        layer = make_conv(neuron_type, 3, 12, 3, stride=2, padding=1, rank=rank,
                          rng=np.random.default_rng(0))
        profile = profile_model(nn.Sequential(layer),
                                Tensor(np.zeros((1, 3, 9, 9), dtype=np.float32)))
        assert (profile.total_parameters, profile.total_macs) == \
            GOLDEN_CONV_PROFILES[neuron_type, rank]

    @pytest.mark.parametrize("neuron_type,rank", sorted(GOLDEN_DENSE_PROFILES))
    def test_dense_profile(self, neuron_type, rank):
        layer = make_dense(neuron_type, 10, 8, rank=rank, rng=np.random.default_rng(0))
        profile = profile_model(nn.Sequential(layer),
                                Tensor(np.zeros((2, 5, 10), dtype=np.float32)))
        assert (profile.total_parameters, profile.total_macs) == \
            GOLDEN_DENSE_PROFILES[neuron_type, rank]
