"""Synthetic four-group curve scenario with seeded randomness.

All curves are observed on one shared grid of uniform-random points, sorted.
Each group has a fixed smooth mean; observations add Gaussian noise, either
homoscedastic or with the standard deviation scaled along the curve by
(1 + |mean(t)|) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FunctionalDataset
from .errors import (ConfigError, NonFiniteInputError, UnknownGroupError, as_instance, as_integer,
                     as_real, as_reals)

__all__ = [
    "GROUP_IDS",
    "ScenarioConfig",
    "Scenario",
    "mean_function",
    "group_means",
    "generate_scenario",
    "benchmark_config",
]

GROUP_IDS = (1, 2, 3, 4)


def mean_function(group_id: int, t) -> np.ndarray:
    """Noiseless group mean evaluated at t (scalar or array)."""
    t = as_reals(t, "t")
    if group_id == 1:
        return -2.0 * np.sin(t - 1.0) * np.log(t + 0.5)
    if group_id == 2:
        return 2.0 * np.cos(t) * np.log(t + 0.5)
    if group_id == 3:
        return -0.5 - 0.2 * np.cos(0.5 * (t - 1.0)) * t**1.5 * np.sqrt(5.0 * np.sqrt(t) + 0.5)
    if group_id == 4:
        return 1.2 * np.cos(t) * np.log(t + 0.5) * np.sqrt(t + 0.5)
    raise UnknownGroupError(f"group id must be one of {GROUP_IDS}, got {group_id}")


def group_means(labels, t) -> np.ndarray:
    """Noiseless mean of each curve, given its group id, at t: (len(t), n)."""
    labels, t = as_reals(labels, "labels"), as_reals(t, "t")
    if labels.ndim != 1 or t.ndim != 1:
        raise ConfigError("labels and t must be 1-d arrays")
    by_group = {g: mean_function(g, t) for g in set(labels.tolist())}
    return np.stack([by_group[g] for g in labels], axis=1)


@dataclass(frozen=True)
class ScenarioConfig:
    """Generation settings; defaults reproduce the four-group layout."""

    groups: tuple[int, ...] = GROUP_IDS
    curves_per_group: int = 50
    points_per_curve: int = 50
    domain: tuple[float, float] = (0.0, 5.0)
    noise_sd: float = 0.1
    heteroscedastic: bool = True
    seed: int = 0

    def __post_init__(self):
        # counts and the seed are stored as ints, reals as floats, pairs and lists as tuples
        for name, least in (("curves_per_group", 1), ("points_per_curve", 2), ("seed", 0)):
            object.__setattr__(self, name, as_integer(getattr(self, name), least, name))
        object.__setattr__(self, "noise_sd", as_real(self.noise_sd, "noise_sd", 0.0))
        if not isinstance(self.heteroscedastic, bool):
            raise ConfigError(f"heteroscedastic must be a bool, got {self.heteroscedastic!r}")
        domain = _as_tuple(self.domain, "domain")
        if len(domain) != 2:
            raise ConfigError(f"domain must be a pair of numbers, got {self.domain!r}")
        lo, hi = (as_real(end, "domain end") for end in domain)
        object.__setattr__(self, "domain", (lo, hi))
        if not lo < hi:
            raise ConfigError("domain must have positive, finite length")
        if lo < 0:
            raise ConfigError("domain must start at t >= 0 (log(t + 0.5) terms)")
        object.__setattr__(self, "groups", _as_tuple(self.groups, "groups"))
        if not self.groups:
            raise ConfigError("need at least one group")
        for g in self.groups:
            if g not in GROUP_IDS:
                raise UnknownGroupError(f"group id must be one of {GROUP_IDS}, got {g}")


def _as_tuple(value, name: str) -> tuple:
    """The items of a sequence as a tuple, else ConfigError."""
    try:
        return tuple(value)
    except TypeError:
        raise ConfigError(f"{name} must be a sequence, got {value!r}") from None


@dataclass(eq=False)
class Scenario:
    """Generated dataset plus the ground truth behind it."""

    dataset: FunctionalDataset
    labels: np.ndarray  # (n,) group id per curve
    config: ScenarioConfig

    def truth(self, t) -> np.ndarray:
        """Noiseless mean of every curve at the given points, (len(t), n)."""
        return group_means(self.labels, t)

    def group_truth(self, group_id: int):
        """Callable evaluator of one group's mean."""
        return lambda t: mean_function(group_id, t)


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Draw the shared grid and all noisy curves for one seed.

    A noise_sd so large that the noise scale or an observation overflows
    raises NonFiniteInputError, without a numpy overflow warning.
    """
    rng = np.random.default_rng(as_instance(config, ScenarioConfig, "config").seed)
    lo, hi = config.domain
    t = np.sort(rng.uniform(lo, hi, size=config.points_per_curve))
    while np.any(np.diff(t) <= 0):  # duplicates have probability zero, but stay safe
        t = np.sort(rng.uniform(lo, hi, size=config.points_per_curve))
    n = config.curves_per_group * len(config.groups)
    labels = np.repeat(np.asarray(config.groups, dtype=int), config.curves_per_group)
    values = np.empty((config.points_per_curve, n))
    col = 0
    for g in config.groups:
        mean = mean_function(g, t)
        with np.errstate(over="ignore"):  # an overflow is reported below as a typed error
            if config.heteroscedastic:
                scale = config.noise_sd * (1.0 + np.abs(mean)) / 2.0
            else:
                scale = np.full_like(mean, config.noise_sd)
            if not np.all(np.isfinite(scale)):
                raise NonFiniteInputError(
                    f"noise_sd {config.noise_sd!r} overflows the noise scale "
                    "noise_sd * (1 + |mean|) / 2")
            noise = rng.standard_normal((config.points_per_curve, config.curves_per_group))
            values[:, col : col + config.curves_per_group] = mean[:, None] + scale[:, None] * noise
        col += config.curves_per_group
    dataset = FunctionalDataset(t=t, values=values)
    return Scenario(dataset=dataset, labels=labels, config=config)


def benchmark_config(seed: int = 0, **overrides) -> ScenarioConfig:
    """Scenario settings used by the replication benchmark.

    The noise level is calibrated so that four-group clustering of the
    fitted curves lands in the reported accuracy regime; everything else
    matches the plain defaults.
    """
    params = dict(noise_sd=0.3, heteroscedastic=True, seed=seed)
    params.update(overrides)
    return ScenarioConfig(**params)
