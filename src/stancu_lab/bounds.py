"""Error measurement for the operator families.

Centerpiece is the modulus of continuity omega(f; delta): the largest
oscillation of f over pairs of points at distance <= delta. It is
computed exactly on a uniform grid from sliding-window maxima and minima
(numpy, by window doubling). Grid maxima under-estimate true suprema, so
every dominance check in this module carries an explicit slack of
omega(f; grid step).

On top of omega sit the sup-norm experiment quantities: the measured
sup-error of an operator against f, the distance between the shifted and
plain operators (bounded by omega of the maximal node displacement), the
two-term upper estimate

    omega(f; (alpha + beta)/(n + beta)) + c1 * omega(f; n**-0.5)

that must dominate the measured sup-error, and the fixed-degree
growing-beta experiment in which the operator collapses onto the single
value f(alpha/beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nodes import first_failure
from .operators import FunctionSpec, StancuParams, evaluate, uniform_grid

__all__ = [
    "BoundConfig",
    "DEFAULT_CONFIG",
    "RatioFamily",
    "Theorem4Report",
    "corollary2_bound",
    "grid_slack",
    "modulus_of_continuity",
    "operator_distance",
    "sup_error",
    "sup_error_and_distance",
    "theorem4_experiment",
]

# Sharp absolute constant for the classical sup-norm estimate of the plain
# operator at step n**-1/2 (Sikkema's constant); configurable because only
# dominance is asserted, never this particular value.
DEFAULT_C1 = 1.0898873

# t4 noise floor: a constant f has bound 0 while its distance carries rounding
NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class BoundConfig:
    """Grid resolutions and the absolute constant of the two-term estimate."""

    c1: float = DEFAULT_C1
    mod_grid_size: int = 10001
    sup_grid_size: int = 1001

    def __post_init__(self):
        if not (self.c1 > 0.0):
            raise ValueError("c1 must be positive")
        for size in (self.mod_grid_size, self.sup_grid_size):
            uniform_grid(size, 0, 0)  # the one grid-size rule: an integer >= 2
        if self.mod_grid_size < 101 or self.sup_grid_size < 101:
            raise ValueError("grid sizes must be >= 101")

    @property
    def mod_step(self) -> float:
        return 1.0 / (self.mod_grid_size - 1)

    @property
    def sup_step(self) -> float:
        return 1.0 / (self.sup_grid_size - 1)


DEFAULT_CONFIG = BoundConfig()


def _samples(f: FunctionSpec, cfg: BoundConfig) -> np.ndarray:
    """f on the modulus grid: each caller samples once and scans as often as it needs."""
    return np.asarray(f(uniform_grid(cfg.mod_grid_size)), dtype=float)


def _modulus(vals: np.ndarray, delta: float) -> float:
    """``modulus_of_continuity`` for a positive finite delta, from the samples ``vals``."""
    m = vals.size
    w = int(math.floor(delta * (m - 1)))
    if w <= 0:
        return 0.0
    length = min(w, m - 1) + 1
    hi = lo = vals
    span = 1
    # hi[i] and lo[i] hold the max and min of vals[i : i + span]
    while span < length:
        step = min(span, length - span)
        hi = np.maximum(hi[:-step], hi[step:])
        lo = np.minimum(lo[:-step], lo[step:])
        span += step
    return float((hi - lo).max())


def modulus_of_continuity(f: FunctionSpec, delta: float, cfg: BoundConfig = DEFAULT_CONFIG) -> float:
    """omega(f; delta): max |f(x1) - f(x2)| over grid pairs with |x1 - x2| <= delta.

    The answer is the largest (window max - window min) over all windows
    of w + 1 consecutive grid points, where w = floor(delta * (m - 1))
    grid steps fit into delta. Window extremes are built by doubling spans
    in numpy; max and min never round, so the result is exact on the grid.
    Monotone non-decreasing in delta and at most the global oscillation.
    """
    if not (delta > 0.0) or not math.isfinite(delta):
        raise ValueError("delta must be positive")
    return _modulus(_samples(f, cfg), delta)


def grid_slack(f: FunctionSpec, cfg: BoundConfig = DEFAULT_CONFIG) -> float:
    """omega(f; one grid step): the slack grid maxima owe to true suprema."""
    return modulus_of_continuity(f, cfg.mod_step, cfg)


def _max_error(f: FunctionSpec, grid: np.ndarray, values: np.ndarray) -> float:
    return float(np.abs(values - np.asarray(f(grid), dtype=float)).max())


def sup_error(f: FunctionSpec, p: StancuParams, cfg: BoundConfig = DEFAULT_CONFIG) -> float:
    """Grid maximum of |operator value - f|, the uniform-norm proxy."""
    grid = uniform_grid(cfg.sup_grid_size)
    return _max_error(f, grid, evaluate(f, p, grid))


def _scan(f, p, cfg, error: bool) -> tuple[float | None, float]:
    """(sup-error of p, or None unless ``error``, and p's distance from the
    plain operator) over the sup grid; f is sampled there only for the error."""
    grid = uniform_grid(cfg.sup_grid_size)
    shifted, plain = evaluate(f, (p, StancuParams(p.n)), grid).T
    sup = _max_error(f, grid, shifted) if error else None
    return sup, float(np.abs(shifted - plain).max())


def operator_distance(f: FunctionSpec, p: StancuParams, cfg: BoundConfig = DEFAULT_CONFIG) -> float:
    """Grid maximum of |shifted operator - plain operator| at the same degree.

    Every node moves by at most (alpha + beta)/(n + beta), so this is
    bounded by omega(f; (alpha + beta)/(n + beta)) plus grid slack.
    """
    return _scan(f, p, cfg, error=False)[1]


def sup_error_and_distance(
    f: FunctionSpec, p: StancuParams, cfg: BoundConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """``(sup_error(f, p, cfg), operator_distance(f, p, cfg))`` from one evaluation.

    The shifted and plain operators share one basis recurrence, so a
    single batched ``evaluate`` yields both grid maxima, each
    bit-identical to its own function.
    """
    return _scan(f, p, cfg, error=True)


def corollary2_bound(f: FunctionSpec, p: StancuParams, cfg: BoundConfig = DEFAULT_CONFIG) -> float:
    """Two-term upper estimate omega(f; (a+b)/(n+b)) + c1 * omega(f; n**-0.5)."""
    vals = _samples(f, cfg)
    shift = p.displacement_bound()
    term1 = _modulus(vals, shift) if shift > 0.0 else 0.0
    term2 = cfg.c1 * _modulus(vals, p.n ** -0.5)
    return term1 + term2


@dataclass(frozen=True)
class RatioFamily:
    """Shift pairs (s * alpha0, s * beta0) along increasing scale factors.

    Requires 0 < alpha0 < beta0, so every level keeps the same ratio
    m = alpha0/beta0 strictly inside (0, 1) while beta grows without bound.
    """

    alpha0: float
    beta0: float
    scale_factors: tuple[float, ...]

    def __post_init__(self):
        if not (0.0 < self.alpha0 < self.beta0 < math.inf):
            raise ValueError("need 0 < alpha0 < beta0, both finite")
        s = tuple(float(v) for v in self.scale_factors)
        if len(s) == 0 or not all(0.0 < v < math.inf for v in s):
            raise ValueError("scale factors must be positive and finite")
        if any(b <= a for a, b in zip(s, s[1:])):
            raise ValueError("scale factors must be strictly increasing")
        object.__setattr__(self, "scale_factors", s)
        m = self.alpha0 / self.beta0
        for a, b in self.levels():
            if not abs(a / b - m) <= 1e-12 * max(1.0, m):
                raise ValueError("scaled pair drifts off the common ratio")

    @property
    def ratio_m(self) -> float:
        return self.alpha0 / self.beta0

    def levels(self) -> list[tuple[float, float]]:
        return [(s * self.alpha0, s * self.beta0) for s in self.scale_factors]


@dataclass(frozen=True, eq=False)
class Theorem4Report:
    """Per-level distance of the operator from the single value f(m).

    ``distances[j]`` is the grid sup of |operator - f(m)| at level j;
    every node lies within 2n/(n + beta_j) of m, so each distance is
    bounded by omega(f; 2n/(n + beta_j)) plus grid slack, and the
    distances tend to 0 as the scale factors grow. Monotone decrease along
    the levels is reported but NOT guaranteed: compressing the nodes can
    transiently deepen the smoothed oscillation before the collapse wins.
    """

    ratio_m: float
    f_at_m: float
    levels: tuple[tuple[float, float], ...]
    distances: np.ndarray
    bounds: np.ndarray
    failing_index: int | None
    monotone_decreasing: bool

    @property
    def ok(self) -> bool:
        return self.failing_index is None

    @property
    def within_bound(self) -> bool:
        """``ok`` under its older name, which the benchmark workloads still read."""
        return self.ok

    @property
    def final_distance(self) -> float:
        return float(self.distances[-1])


def theorem4_experiment(
    f: FunctionSpec, n: int, fam: RatioFamily, cfg: BoundConfig = DEFAULT_CONFIG
) -> Theorem4Report:
    """Run the fixed-degree, growing-beta collapse experiment."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be a positive integer")
    m = fam.ratio_m
    f_at_m = float(f(m))
    vals = _samples(f, cfg)
    slack = _modulus(vals, cfg.mod_step)
    levels = tuple(fam.levels())
    grid = uniform_grid(cfg.sup_grid_size)
    ps = tuple(StancuParams(int(n), a, b) for a, b in levels)
    d = np.abs(evaluate(f, ps, grid) - f_at_m).max(axis=0)
    bounds = np.array([_modulus(vals, 2.0 * n / (n + b)) + slack for _, b in levels])
    return Theorem4Report(
        ratio_m=m,
        f_at_m=f_at_m,
        levels=levels,
        distances=d,
        bounds=bounds,
        failing_index=first_failure(d <= bounds + NOISE_FLOOR),
        monotone_decreasing=bool((np.diff(d) < 0.0).all()),
    )
