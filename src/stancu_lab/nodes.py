"""Node geometry of the two operator families.

For fixed degree n the plain operator samples at k/n while the shifted
family samples at (k + alpha)/(n + beta). The checks below turn the
geometric facts about those two point sets into plain per-index data plus
booleans:

* the displacement of every shifted node from its plain counterpart is at
  most (alpha + beta)/(n + beta), which vanishes as n grows
  (``check_theorem1``);
* the shifted nodes contract toward the ratio m = alpha/beta by the exact
  factor n/(n + beta), and the two families cross at m
  (``check_theorem2``);
* growing beta at fixed ratio m nests the node families strictly closer
  around m, with distance ratio (n + beta1)/(n + beta2)
  (``check_theorem3``).

Reports are data, not prose; harnesses assert on their fields. Each
report answers ``ok`` (its verdict); the t1 and t2 reports also name
their ``failing_index``, the first entry that breaks it (None when ok).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operators import StancuParams

__all__ = [
    "ClusterReport",
    "Theorem1Report",
    "Theorem3Report",
    "check_theorem1",
    "check_theorem2",
    "check_theorem3",
]

# |k/n - m| at or below this is treated as "the node sits at m"; covers the
# float fuzz of non-representable ratios like 4.7/10.
CROSSING_TOL = 1e-12

# 1-ulp cushion for the t1 bound comparison: with alpha = 0 the largest gap
# is mathematically EQUAL to the bound and two float evaluations of the same
# real can land either side of each other.
GAP_CUSHION = 1e-12

# t2 cushion: a node at m has both distances 0, each a few ulps off in float
DIST_CUSHION = 1e-15


def _gaps(p: StancuParams) -> np.ndarray:
    """Displacement (k + alpha)/(n + beta) - k/n of every shifted node."""
    return p.node_values() - StancuParams(p.n).node_values()


def _t1_flags(max_gaps, bounds, degrees, alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """Per degree: the gap is within its float bound, and the exact bound
    (alpha + beta)/(n + beta) falls below the previous one (or is 0, when
    alpha + beta is 0). The fall is decided on rationals: for large beta the
    float bounds of neighbouring degrees round to the same value."""
    within = max_gaps <= bounds + GAP_CUSHION
    a, b = Fraction(alpha), Fraction(beta)
    exact = [(a + b) / (n + b) for n in degrees]
    falling = np.array([e == 0 or e < prev for prev, e in zip([np.inf] + exact, exact)])
    return within, falling


def _closer(stancu_dist, bernstein_dist) -> np.ndarray:
    """Per node: the shifted node is no farther from m than the plain one (t2)."""
    return stancu_dist <= bernstein_dist + DIST_CUSHION


def _between(plain, outer, inner, m) -> np.ndarray:
    """Per index whose plain node k/n is off m: ``inner`` lies strictly
    between m and ``outer`` (t2, t3)."""
    inside = np.where(plain > m, (m < inner) & (inner < outer), (outer < inner) & (inner < m))
    return inside | (np.abs(plain - m) <= CROSSING_TOL)


@dataclass(frozen=True, eq=False)
class Theorem1Report:
    """Per-degree maximal node displacement against the (alpha+beta)/(n+beta) bound."""

    alpha: float
    beta: float
    degrees: tuple[int, ...]
    max_gaps: np.ndarray
    bounds: np.ndarray
    within_bound: bool
    bounds_decreasing: bool

    @property
    def ok(self) -> bool:
        return self.within_bound and self.bounds_decreasing

    @property
    def failing_index(self) -> int | None:
        """The first degree over its bound, else the first whose bound does not
        fall; None when the check passes."""
        within, falling = _t1_flags(self.max_gaps, self.bounds, self.degrees, self.alpha, self.beta)
        flags = falling if self.within_bound else within
        return None if flags.all() else int(np.argmin(flags))


def check_theorem1(p: StancuParams, n_sequence) -> Theorem1Report:
    """Check the even-distribution claim along a strictly increasing degree sweep.

    ``p`` supplies the shift parameters; its own degree is replaced by each
    entry of ``n_sequence`` in turn.
    """
    a, b = p.alpha, p.beta
    params = [StancuParams(n, a, b) for n in n_sequence]
    degrees = tuple(int(q.n) for q in params)
    if len(degrees) == 0:
        raise ValueError("n_sequence must be non-empty")
    if any(d2 <= d1 for d1, d2 in zip(degrees, degrees[1:])):
        raise ValueError("n_sequence must be strictly increasing")
    max_gaps = np.array([np.abs(_gaps(q)).max() for q in params])
    bounds = np.array([q.displacement_bound() for q in params])
    within, falling = _t1_flags(max_gaps, bounds, degrees, a, b)
    return Theorem1Report(
        alpha=a,
        beta=b,
        degrees=degrees,
        max_gaps=max_gaps,
        bounds=bounds,
        within_bound=bool(within.all()),
        bounds_decreasing=bool(falling.all()),
    )


@dataclass(frozen=True, eq=False)
class ClusterReport:
    """How the shifted nodes sit around the ratio m = alpha/beta.

    ``stancu_dist`` equals ``contraction * bernstein_dist`` up to float
    rounding (``identity_error`` is the measured residual); the two node
    families coincide exactly at the ``crossing_indices``.
    """

    params: StancuParams
    ratio_m: float
    bernstein_dist: np.ndarray
    stancu_dist: np.ndarray
    max_gap: float
    crossing_indices: tuple[int, ...]
    contraction: float
    identity_error: float
    inequality_holds: bool
    sign_pattern_holds: bool

    @property
    def ok(self) -> bool:
        return self.inequality_holds and self.sign_pattern_holds

    @property
    def failing_index(self) -> int | None:
        """The first node that breaks the inequality or the sign pattern;
        None when the check passes."""
        firsts = []
        if not self.inequality_holds:
            firsts.append(int(np.argmin(_closer(self.stancu_dist, self.bernstein_dist))))
        if not self.sign_pattern_holds:
            p = self.params
            plain = StancuParams(p.n).node_values()
            between = _between(plain, plain, p.node_values(), self.ratio_m)
            firsts.append(int(np.argmin(between)))
        return min(firsts, default=None)


def check_theorem2(p: StancuParams) -> ClusterReport:
    """Check the contraction of the shifted nodes toward m = alpha/beta (beta > 0)."""
    if p.beta <= 0.0:
        raise ValueError("beta must be positive: the ratio alpha/beta is undefined at 0")
    n, a, b = p.n, p.alpha, p.beta
    m = a / b
    plain = StancuParams(n).node_values()
    shifted = p.node_values()
    gaps = shifted - plain
    contraction = n / (n + b)
    bern_dist = np.abs(plain - m)
    stan_dist = np.abs(shifted - m)
    identity_error = float(np.abs((shifted - m) - contraction * (plain - m)).max())
    crossings = tuple(int(k) for k in np.flatnonzero(np.abs(gaps) <= CROSSING_TOL))
    return ClusterReport(
        params=p,
        ratio_m=m,
        bernstein_dist=bern_dist,
        stancu_dist=stan_dist,
        max_gap=float(np.abs(gaps).max()),
        crossing_indices=crossings,
        contraction=contraction,
        identity_error=identity_error,
        inequality_holds=bool(_closer(stan_dist, bern_dist).all()),
        sign_pattern_holds=bool(_between(plain, plain, shifted, m).all()),
    )


@dataclass(frozen=True, eq=False)
class Theorem3Report:
    """Nesting of two node families sharing the ratio m = alpha/beta.

    With beta2 > beta1 the second family sits strictly between the first
    and m at every index off m; the distances shrink by the exact factor
    ``shrink_factor`` = (n + beta1)/(n + beta2).
    """

    params1: StancuParams
    params2: StancuParams
    ratio_m: float
    dist1: np.ndarray
    dist2: np.ndarray
    shrink_factor: float
    chain_holds: bool
    strictly_closer: bool
    difference_identity_error: float
    distance_identity_error: float

    @property
    def ok(self) -> bool:
        return self.chain_holds and self.strictly_closer


def check_theorem3(p1: StancuParams, p2: StancuParams) -> Theorem3Report:
    """Check nesting for two shift pairs with equal ratio and beta2 >= beta1."""
    if p1.n != p2.n:
        raise ValueError("both parameter sets must share the degree n")
    n = p1.n
    a1, b1, a2, b2 = p1.alpha, p1.beta, p2.alpha, p2.beta
    if b1 <= 0.0:
        raise ValueError("beta1 must be positive")
    if a1 > a2 or b1 > b2:
        raise ValueError("need alpha1 <= alpha2 and beta1 <= beta2")
    m1, m2 = a1 / b1, a2 / b2
    if abs(m1 - m2) > 1e-12 * max(1.0, abs(m1)):
        raise ValueError(f"ratio mismatch: {m1!r} vs {m2!r}")
    m = m1
    plain = StancuParams(n).node_values()
    nodes1 = p1.node_values()
    nodes2 = p2.node_values()
    dist1 = np.abs(nodes1 - m)
    dist2 = np.abs(nodes2 - m)
    factor = (n + b1) / (n + b2)

    diff_identity = float(
        np.abs((nodes1 - nodes2) - (n * (b2 - b1) * (plain - m)) / ((n + b1) * (n + b2))).max()
    )
    dist_identity = float(np.abs(dist2 - factor * dist1).max())

    off = np.abs(plain - m) > CROSSING_TOL
    if b2 > b1:
        chain = bool(_between(plain, nodes1, nodes2, m).all())
        closer = bool((dist2[off] < dist1[off]).all())
    else:
        # identical ratios with equal beta mean identical families
        chain = bool(np.abs(nodes1 - nodes2).max() == 0.0)
        closer = chain
    return Theorem3Report(
        params1=p1,
        params2=p2,
        ratio_m=m,
        dist1=dist1,
        dist2=dist2,
        shrink_factor=factor,
        chain_holds=chain,
        strictly_closer=closer,
        difference_identity_error=diff_identity,
        distance_identity_error=dist_identity,
    )
