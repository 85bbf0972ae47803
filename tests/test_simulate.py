"""Synthetic four-group scenario generator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fkspline import (
    ConfigError,
    NonFiniteInputError,
    ScenarioConfig,
    UnknownGroupError,
    benchmark_config,
    generate_scenario,
    mean_function,
)


class TestMeanFunctions:
    def test_spot_values(self):
        # independently computed from the closed forms
        assert mean_function(2, np.array([0.0]))[0] == pytest.approx(
            2.0 * math.log(0.5), abs=1e-12
        )
        assert mean_function(1, np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert mean_function(3, np.array([0.0]))[0] == pytest.approx(-0.5, abs=1e-12)

    def test_groups_are_distinct(self):
        t = np.linspace(0, 5, 101)
        curves = np.column_stack([mean_function(g, t) for g in (1, 2, 3, 4)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.abs(curves[:, i] - curves[:, j]).max() > 0.1

    def test_unknown_group(self):
        with pytest.raises(UnknownGroupError):
            mean_function(5, np.array([0.0]))
        with pytest.raises(UnknownGroupError):
            mean_function(0, np.array([0.0]))


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(curves_per_group=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(points_per_curve=1)
        with pytest.raises(ConfigError):
            ScenarioConfig(noise_sd=-0.1)
        with pytest.raises(ConfigError):
            ScenarioConfig(domain=(-1.0, 5.0))
        with pytest.raises(ConfigError):
            ScenarioConfig(domain=(2.0, 1.0))
        with pytest.raises(ConfigError):
            ScenarioConfig(groups=(1, 7))

    @pytest.mark.parametrize("field, value", [
        ("curves_per_group", 2.5), ("points_per_curve", math.nan), ("seed", 1.5),
        ("points_per_curve", None),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            ScenarioConfig(**{field: value})
        # an integral float is stored as an int, and generates as the int
        small = {"curves_per_group": 3, "points_per_curve": 6}
        config = ScenarioConfig(**{**small, field: 4.0})
        assert type(getattr(config, field)) is int
        plain = ScenarioConfig(**{**small, field: 4})
        assert np.array_equal(generate_scenario(config).dataset.values,
                              generate_scenario(plain).dataset.values)


    @pytest.mark.parametrize("kwargs, message", [
        ({"noise_sd": None}, "noise_sd must be a finite number in [0.0, inf], got None"),
        ({"domain": ("a", "b")}, "domain end must be a finite number, got 'a'"),
        ({"groups": 3}, "groups must be a sequence, got 3"),
        ({"heteroscedastic": "x"}, "heteroscedastic must be a bool, got 'x'"),
    ], ids=["noise_sd-None", "domain-strings", "groups-int", "heteroscedastic-string"])
    def test_non_numeric_fields_are_config_errors(self, kwargs, message):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(**kwargs)
        assert str(exc.value) == message

    def test_an_overflowing_noise_scale_is_a_typed_error(self):
        # 1e308 (1 + |mean|) / 2 overflows; a numpy overflow warning would
        # be an error under this suite's warning filter
        config = ScenarioConfig(noise_sd=1e308)
        with pytest.raises(NonFiniteInputError, match="noise_sd 1e[+]308 overflows the noise scale"):
            generate_scenario(config)


class TestGeneration:
    def test_shapes_labels_and_grid(self):
        sc = generate_scenario(ScenarioConfig(seed=4))
        ds, labels = sc.dataset, sc.labels
        assert ds.values.shape == (50, 200)
        assert ds.t.shape == (50,)
        assert np.all(np.diff(ds.t) > 0)
        assert ds.t[0] >= 0.0 and ds.t[-1] <= 5.0
        counts = np.bincount(labels, minlength=5)[1:]
        assert list(counts) == [50, 50, 50, 50]

    def test_zero_noise_reproduces_means(self):
        sc = generate_scenario(ScenarioConfig(noise_sd=0.0, seed=1))
        truth = sc.truth(sc.dataset.t)
        assert np.abs(sc.dataset.values - truth).max() == 0.0
        for gid in (1, 2, 3, 4):
            cols = sc.labels == gid
            expected = mean_function(gid, sc.dataset.t)
            assert np.abs(sc.dataset.values[:, cols] - expected[:, None]).max() == 0.0

    def test_deterministic_and_seed_sensitive(self):
        a = generate_scenario(ScenarioConfig(seed=7))
        b = generate_scenario(ScenarioConfig(seed=7))
        c = generate_scenario(ScenarioConfig(seed=8))
        assert np.array_equal(a.dataset.values, b.dataset.values)
        assert np.array_equal(a.dataset.t, b.dataset.t)
        assert not np.array_equal(a.dataset.values, c.dataset.values)

    def test_homoscedastic_noise_level(self):
        cfg = ScenarioConfig(
            curves_per_group=200, noise_sd=0.5, heteroscedastic=False, seed=2
        )
        sc = generate_scenario(cfg)
        resid = sc.dataset.values - sc.truth(sc.dataset.t)
        sd = resid.std()
        assert abs(sd - 0.5) / 0.5 < 0.1

    def test_heteroscedastic_noise_tracks_mean_magnitude(self):
        cfg = ScenarioConfig(
            groups=(2,), curves_per_group=4000, noise_sd=0.4, heteroscedastic=True, seed=3
        )
        sc = generate_scenario(cfg)
        resid = sc.dataset.values - sc.truth(sc.dataset.t)
        mean = mean_function(2, sc.dataset.t)
        expected_sd = 0.4 * (1.0 + np.abs(mean)) / 2.0
        # compare per-point empirical sd at the two ends of the magnitude range
        for idx in (np.argmax(np.abs(mean)), np.argmin(np.abs(mean))):
            emp = resid[idx].std()
            assert abs(emp - expected_sd[idx]) / expected_sd[idx] < 0.1

    def test_group_truth_matches_mean_function(self):
        sc = generate_scenario(ScenarioConfig(seed=0))
        t = sc.dataset.t
        for gid in (1, 2, 3, 4):
            assert np.array_equal(sc.group_truth(gid)(t), mean_function(gid, t))


class TestBenchmarkConfig:
    def test_defaults(self):
        cfg = benchmark_config(seed=11)
        assert cfg.noise_sd == pytest.approx(0.3)
        assert cfg.heteroscedastic
        assert cfg.seed == 11
        assert cfg.curves_per_group == 50
        assert cfg.points_per_curve == 50
        assert cfg.domain == (0.0, 5.0)

    def test_overrides(self):
        cfg = benchmark_config(seed=1, noise_sd=0.7, curves_per_group=10)
        assert cfg.noise_sd == pytest.approx(0.7)
        assert cfg.curves_per_group == 10
