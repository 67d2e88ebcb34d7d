"""Error measurement for the operator families.

Centerpiece is the modulus of continuity omega(f; delta): the largest
oscillation of f over pairs of points at distance <= delta. It is
computed exactly on a uniform grid from sliding-window maxima and minima
(numpy, by window doubling), one doubling pass for every window a call
needs. A function is sampled once per grid and its samples are cached,
read-only, by function and grid size, so f must be hashable and give the
same values on every call (a FunctionSpec hashes by name and samples).
Grid maxima under-estimate true suprema, so every dominance check in
this module carries an explicit slack of omega(f; grid step).

On top of omega sit the sup-norm experiment quantities: the measured
sup-error of an operator against f, the distance between the shifted and
plain operators (bounded by omega of the maximal node displacement), the
two-term upper estimate

    omega(f; (alpha + beta)/(n + beta)) + C1 * omega(f; n**-0.5)

that must dominate the measured sup-error (``check_corollary2``), and the
fixed-degree growing-beta experiment in which the operator collapses onto
the single value f(alpha/beta) (``theorem4_experiment``). Both return the
``nodes.CheckReport`` every check returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .nodes import CheckReport, decide, same_ratio
from .operators import FunctionSpec, StancuParams, evaluate, uniform_grid

__all__ = [
    "DEFAULT_CONFIG",
    "RatioFamily",
    "check_corollary2",
    "corollary2_bound",
    "grid_slack",
    "modulus_of_continuity",
    "operator_distance",
    "sup_error",
    "sup_error_and_distance",
    "theorem4_experiment",
]

# Sharp absolute constant for the classical sup-norm estimate of the plain
# operator at step n**-1/2: Sikkema's (4306 + 837 sqrt 6)/5832 =
# 1.08988733105444445..., rounded up: the smallest double not below it.
C1 = 1.0898873310544446

# t4 noise floor: a constant f has bound 0 while its distance carries rounding
NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class BoundConfig:
    """The fixed grid resolutions of the modulus and sup-norm measurements."""

    mod_grid_size: int = 10001
    sup_grid_size: int = 1001

    @property
    def mod_step(self) -> float:
        return 1.0 / (self.mod_grid_size - 1)


DEFAULT_CONFIG = BoundConfig()


@lru_cache(maxsize=16)
def _plain(n: int, f: FunctionSpec) -> StancuParams:
    """The plain operator of degree n kept for f, so it keeps f's node samples across calls."""
    return StancuParams(n)


@lru_cache(maxsize=16)
def _samples(f: FunctionSpec, size: int) -> np.ndarray:
    """f on the uniform grid of ``size`` points, read-only, sampled once per (f, size)."""
    vals = np.array(f(uniform_grid(size)), dtype=float)
    vals.setflags(write=False)
    return vals


def _moduli(vals: np.ndarray, deltas) -> list[float]:
    """``modulus_of_continuity`` at each delta >= 0, from the samples ``vals``.

    One doubling pass serves every window: hi[i] and lo[i] hold the max
    and min of vals[i : i + span] for span = 1, 2, 4, ..., and a window of
    L points is the union of the two windows of the largest span <= L that
    start at its two ends.
    """
    m = vals.size
    # any delta >= 1 spans the whole grid; clamped, delta * (m - 1) stays finite
    lengths = [math.floor(min(d, 1.0) * (m - 1)) + 1 for d in deltas]
    omega = {1: 0.0}  # a window of one point does not oscillate
    hi = lo = vals
    span = 1
    for length in sorted(set(lengths) - {1}):
        while 2 * span <= length:
            hi = np.maximum(hi[:-span], hi[span:])
            lo = np.minimum(lo[:-span], lo[span:])
            span *= 2
        top, bottom = hi, lo
        off, end = length - span, m - length + 1  # windows start at 0 .. m - length
        if off:
            top, bottom = np.maximum(hi[:end], hi[off:]), np.minimum(lo[:end], lo[off:])
        omega[length] = float((top - bottom).max())
    return [omega[length] for length in lengths]


def modulus_of_continuity(f: FunctionSpec, delta: float) -> float:
    """omega(f; delta): max |f(x1) - f(x2)| over grid pairs with |x1 - x2| <= delta.

    The answer is the largest (window max - window min) over all windows
    of w + 1 consecutive grid points, where w = floor(delta * (m - 1))
    grid steps fit into delta. Window extremes are built by doubling spans
    in numpy; max and min never round, so the result is exact on the grid.
    Monotone non-decreasing in delta and at most the global oscillation,
    which every delta >= 1 gives.
    """
    if not delta > 0.0:  # NaN fails too; inf is clamped like every delta >= 1
        raise ValueError("delta must be positive")
    return _moduli(_samples(f, DEFAULT_CONFIG.mod_grid_size), (delta,))[0]


def grid_slack(f: FunctionSpec) -> float:
    """omega(f; one grid step): the slack grid maxima owe to true suprema."""
    return modulus_of_continuity(f, DEFAULT_CONFIG.mod_step)


def _max_error(f: FunctionSpec, values: np.ndarray) -> float:
    """Grid maximum of |values - f| on the sup grid."""
    return float(np.abs(values - _samples(f, DEFAULT_CONFIG.sup_grid_size)).max())


def sup_error(f: FunctionSpec, p: StancuParams) -> float:
    """Grid maximum of |operator value - f|, the uniform-norm proxy."""
    return _max_error(f, evaluate(f, p, uniform_grid(DEFAULT_CONFIG.sup_grid_size)))


def operator_distance(f: FunctionSpec, p: StancuParams) -> float:
    """Grid maximum of |shifted operator - plain operator| at the same degree.

    Every node moves by at most (alpha + beta)/(n + beta), so this is
    bounded by omega(f; (alpha + beta)/(n + beta)) plus grid slack.
    """
    return sup_error_and_distance(f, p)[1]


def sup_error_and_distance(f: FunctionSpec, p: StancuParams) -> tuple[float, float]:
    """``(sup_error(f, p), operator_distance(f, p))`` from one evaluation.

    The shifted and plain operators share one basis recurrence, so a
    single batched ``evaluate`` yields both grid maxima, each
    bit-identical to its own function.
    """
    shifted, plain = evaluate(f, (p, _plain(p.n, f)), uniform_grid(DEFAULT_CONFIG.sup_grid_size)).T
    return _max_error(f, shifted), float(np.abs(shifted - plain).max())


def corollary2_bound(f: FunctionSpec, p: StancuParams) -> float:
    """Two-term upper estimate omega(f; (a+b)/(n+b)) + C1 * omega(f; n**-0.5)."""
    vals = _samples(f, DEFAULT_CONFIG.mod_grid_size)
    shift, classical = _moduli(vals, (p.displacement_bound(), p.n ** -0.5))
    return shift + C1 * classical


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
        for v, (a, b) in zip(s, self.levels()):
            if b == math.inf:
                raise ValueError(f"scale factor {v!r} overflows the pair to ({a!r}, {b!r})")
            if not same_ratio(self.ratio_m, a / b):
                raise ValueError("scaled pair drifts off the common ratio")

    @property
    def ratio_m(self) -> float:
        return self.alpha0 / self.beta0

    def levels(self) -> list[tuple[float, float]]:
        return [(s * self.alpha0, s * self.beta0) for s in self.scale_factors]


def theorem4_experiment(f: FunctionSpec, n: int, fam: RatioFamily,
                        epsilon: float | None = None) -> CheckReport:
    """Run the fixed-degree, growing-beta collapse experiment.

    Row j of the table is level j: its pair, the grid sup of
    |operator - f(m)| and that distance's bound. Every node lies within
    2n/(n + beta_j) of m, so each distance is bounded by
    omega(f; 2n/(n + beta_j)) plus grid slack, and the distances tend to 0
    as the scale factors grow. They need NOT fall at every level, and the
    tests check a case that rises: compressing the nodes can deepen the
    smoothed oscillation before the collapse wins. With ``epsilon``, the
    last distance must also lie below it.
    """
    levels = tuple(fam.levels())
    ps = tuple(StancuParams(n, a, b) for a, b in levels)
    m = fam.ratio_m
    f_at_m = float(f(m))
    windows = (DEFAULT_CONFIG.mod_step, *(2.0 * n / (n + b) for _, b in levels))
    slack, *omegas = _moduli(_samples(f, DEFAULT_CONFIG.mod_grid_size), windows)
    grid = uniform_grid(DEFAULT_CONFIG.sup_grid_size)
    d = np.abs(evaluate(f, ps, grid) - f_at_m).max(axis=0)
    bounds = np.array([omega + slack for omega in omegas])
    within = d <= bounds + NOISE_FLOOR
    final = float(d[-1])
    flags = within.copy()
    flags[-1] &= epsilon is None or final < epsilon

    def fail(i: int) -> str:
        if within[i]:
            return f"t4: FAIL: final distance {final!r} not below epsilon {epsilon!r}"
        return f"t4: FAIL at level {i}: distance exceeds its bound"

    columns = (range(len(levels)), *zip(*levels), d, bounds)
    ok = f"t4: OK (final distance {final!r} at f(m)={f_at_m!r})"
    return decide("level,alpha,beta,distance,bound", columns, flags, ok, fail)


def check_corollary2(f: FunctionSpec, ps) -> CheckReport:
    """Check that the two-term estimate dominates the measured sup-error, to 1e-9,
    at each operator of ``ps``; the check prints no OK line.

    Row j of the table holds the degree of ps[j], its sup-error, its
    distance to the plain operator, the two-term bound and its node
    displacement bound.
    """
    rows = [(*sup_error_and_distance(f, p), corollary2_bound(f, p), p.displacement_bound())
            for p in ps]
    flags = np.array([sup <= bound + 1e-9 for sup, _, bound, _ in rows])
    return decide("n,sup_error,operator_distance,corollary2_bound,t1_bound",
                  (tuple(p.n for p in ps), *zip(*rows)), flags, None,
                  lambda i: f"converge: FAIL at n={ps[i].n}: sup_error exceeds corollary2_bound")
