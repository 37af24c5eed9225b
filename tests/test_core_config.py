"""Tests for repro.core.config (SparsifierConfig)."""

import numpy as np
import pytest

from repro.core.config import SparsifierConfig
from repro.exceptions import SparsificationError


class TestValidation:
    def test_defaults_valid(self):
        config = SparsifierConfig()
        assert config.mode == "practical"
        assert config.sampling_probability == 0.25

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            SparsifierConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SparsifierConfig(epsilon=2.0)

    def test_bad_mode(self):
        with pytest.raises(SparsificationError):
            SparsifierConfig(mode="heroic")

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            SparsifierConfig(sampling_probability=1.5)
        with pytest.raises(SparsificationError):
            SparsifierConfig(sampling_probability=0.0)

    def test_bad_constants(self):
        with pytest.raises(SparsificationError):
            SparsifierConfig(bundle_constant=0.0)
        with pytest.raises(SparsificationError):
            SparsifierConfig(practical_scale=-1.0)
        with pytest.raises(SparsificationError):
            SparsifierConfig(bundle_t=0)
        with pytest.raises(SparsificationError):
            SparsifierConfig(spanner_k=0)
        with pytest.raises(SparsificationError):
            SparsifierConfig(min_edges_to_sparsify=-1)

    def test_solver_choices(self):
        assert SparsifierConfig().solver == "cg"
        for choice in ("cg", "chain"):
            assert SparsifierConfig(solver=choice).solver == choice
        for retired in ("auto", "gaussian"):
            with pytest.raises(SparsificationError):
                SparsifierConfig(solver=retired)

    def test_frozen(self):
        with pytest.raises(Exception):
            SparsifierConfig().epsilon = 0.1


class TestBundleSize:
    def test_theory_mode_matches_paper_formula(self):
        config = SparsifierConfig.theory(epsilon=0.5)
        n = 1024
        expected = int(np.ceil(24 * 10 * 10 / 0.25))
        assert config.bundle_size(n) == expected

    def test_theory_mode_epsilon_dependence(self):
        config = SparsifierConfig.theory(epsilon=1.0)
        assert config.bundle_size(1024, epsilon=0.5) == 4 * config.bundle_size(1024, epsilon=1.0)

    def test_practical_mode_scales_with_log_n(self):
        config = SparsifierConfig.practical(practical_scale=1.0)
        assert config.bundle_size(1024) == 10
        assert config.bundle_size(2 ** 20) == 20

    def test_explicit_bundle_t_wins(self):
        config = SparsifierConfig(bundle_t=7, mode="theory")
        assert config.bundle_size(10_000) == 7

    def test_bundle_size_at_least_one(self):
        config = SparsifierConfig.practical(practical_scale=0.01)
        assert config.bundle_size(4) >= 1

    def test_bundle_size_epsilon_validated(self):
        with pytest.raises(ValueError):
            SparsifierConfig().bundle_size(100, epsilon=0.0)


class TestDerivedQuantities:
    def test_weight_multiplier_is_inverse_probability(self):
        assert SparsifierConfig(sampling_probability=0.25).weight_multiplier == 4.0
        assert SparsifierConfig(sampling_probability=0.5).weight_multiplier == 2.0

    def test_num_rounds(self):
        assert SparsifierConfig.num_rounds(1) == 0
        assert SparsifierConfig.num_rounds(2) == 1
        assert SparsifierConfig.num_rounds(4) == 2
        assert SparsifierConfig.num_rounds(5) == 3
        assert SparsifierConfig.num_rounds(16) == 4

    def test_num_rounds_rejects_below_one(self):
        with pytest.raises(SparsificationError):
            SparsifierConfig.num_rounds(0.5)

    def test_per_round_epsilon(self):
        config = SparsifierConfig(epsilon=0.8)
        assert config.per_round_epsilon(4) == pytest.approx(0.4)
        assert config.per_round_epsilon(1) == pytest.approx(0.8)

    def test_with_overrides(self):
        base = SparsifierConfig(epsilon=0.5)
        changed = base.with_overrides(epsilon=0.25, bundle_t=3)
        assert changed.epsilon == 0.25
        assert changed.bundle_t == 3
        assert base.epsilon == 0.5  # original untouched

    def test_classmethod_constructors(self):
        assert SparsifierConfig.theory().mode == "theory"
        assert SparsifierConfig.practical().mode == "practical"
