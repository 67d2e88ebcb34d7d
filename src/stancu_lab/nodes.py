"""Node geometry of the two operator families.

For fixed degree n the plain operator samples at k/n while the shifted
family samples at (k + alpha)/(n + beta). The checks below turn the
geometric facts about those two point sets into plain per-index data:

* the displacement of every shifted node from its plain counterpart is at
  most (alpha + beta)/(n + beta), which vanishes as n grows
  (``check_theorem1``);
* the shifted nodes contract toward the ratio m = alpha/beta by the exact
  factor n/(n + beta), and the two families cross at m
  (``check_theorem2``);
* growing beta at fixed ratio m nests the node families strictly closer
  around m, with distance ratio (n + beta1)/(n + beta2)
  (``check_theorem3``).

Every check, node CSV and node figure reads ``node_table``: both node
families, their gaps and, given m, their distances to m.

Reports are data, not prose; harnesses assert on their fields. Each check
computes one per-entry flag array, applying its tolerance there and only
there, and stores the first entry that breaks it as ``failing_index``
(None when every entry holds); ``CheckReport.ok`` is ``failing_index is None``.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def node_table(p: StancuParams, m: float | None = None) -> tuple[np.ndarray, ...]:
    """(k/n, (k + alpha)/(n + beta), their gap) over k = 0..n, and, when ``m``
    is given, the distances |k/n - m| and |(k + alpha)/(n + beta) - m|."""
    plain = StancuParams(p.n).node_values()
    shifted = p.node_values()
    table = (plain, shifted, shifted - plain)
    return table if m is None else table + (np.abs(plain - m), np.abs(shifted - m))


def same_ratio(m1: float, m2: float) -> bool:
    """Whether user-given quotients alpha/beta share m: within 1e-12 (relative
    above 1), so 4.7/10 matches 47/100, and NaN matches nothing."""
    return abs(m1 - m2) <= 1e-12 * max(1.0, abs(m1))


def first_failure(flags: np.ndarray) -> int | None:
    """Index of the first False entry of a per-entry flag array, or None."""
    return None if flags.all() else int(np.argmin(flags))


def _between(plain, bern_dist, outer, inner, m) -> np.ndarray:
    """Per index whose plain node k/n is off m (``bern_dist`` = |k/n - m|):
    ``inner`` lies strictly between m and ``outer`` (t2, t3)."""
    inside = np.where(plain > m, (m < inner) & (inner < outer), (outer < inner) & (inner < m))
    return inside | (bern_dist <= CROSSING_TOL)


class CheckReport:
    """The verdict every check report shares; the report stores ``failing_index``."""

    @property
    def ok(self) -> bool:
        return self.failing_index is None


@dataclass(frozen=True, eq=False)
class Theorem1Report(CheckReport):
    """Per-degree maximal node displacement against the (alpha+beta)/(n+beta) bound.

    Only the gaps are checked. The bounds need no verdict of their own:
    ``check_theorem1`` rejects degree sequences that do not strictly
    increase, and along such a sequence the exact (alpha+beta)/(n+beta)
    strictly falls, or is 0 throughout when alpha + beta = 0. For large
    beta the float bounds of neighbouring degrees may still print alike.
    """

    degrees: tuple[int, ...]
    max_gaps: np.ndarray
    bounds: np.ndarray
    failing_index: int | None


def check_theorem1(p: StancuParams, n_sequence) -> Theorem1Report:
    """Check the even-distribution claim along a strictly increasing degree sweep.

    ``p`` supplies the shift parameters; its own degree is replaced by each
    entry of ``n_sequence`` in turn.
    """
    params = [StancuParams(n, p.alpha, p.beta) for n in n_sequence]
    degrees = tuple(q.n for q in params)
    if len(degrees) == 0:
        raise ValueError("n_sequence must be non-empty")
    if any(d2 <= d1 for d1, d2 in zip(degrees, degrees[1:])):
        raise ValueError("n_sequence must be strictly increasing")
    max_gaps = np.array([np.abs(node_table(q)[2]).max() for q in params])
    bounds = np.array([q.displacement_bound() for q in params])
    return Theorem1Report(
        degrees=degrees,
        max_gaps=max_gaps,
        bounds=bounds,
        failing_index=first_failure(max_gaps <= bounds + GAP_CUSHION),
    )


@dataclass(frozen=True, eq=False)
class ClusterReport(CheckReport):
    """How the shifted nodes sit around the ratio m = alpha/beta.

    ``stancu_dist`` equals ``contraction * bernstein_dist`` up to float
    rounding, and the two node families coincide exactly at the
    ``crossing_indices``; the tests check both. A node fails when it is
    farther from m than its plain node, or when, off m, it does not lie
    strictly between its plain node and m.
    """

    ratio_m: float
    bernstein_dist: np.ndarray
    stancu_dist: np.ndarray
    crossing_indices: tuple[int, ...]
    contraction: float
    failing_index: int | None


def check_theorem2(p: StancuParams) -> ClusterReport:
    """Check the contraction of the shifted nodes toward m = alpha/beta (beta > 0)."""
    if p.beta <= 0.0:
        raise ValueError("beta must be positive: the ratio alpha/beta is undefined at 0")
    m = p.alpha / p.beta
    plain, shifted, gaps, bern_dist, stan_dist = node_table(p, m)
    crossings = tuple(int(k) for k in np.flatnonzero(np.abs(gaps) <= CROSSING_TOL))
    flags = (stan_dist <= bern_dist + DIST_CUSHION) & _between(plain, bern_dist, plain, shifted, m)
    return ClusterReport(
        ratio_m=m,
        bernstein_dist=bern_dist,
        stancu_dist=stan_dist,
        crossing_indices=crossings,
        contraction=p.n / (p.n + p.beta),
        failing_index=first_failure(flags),
    )


@dataclass(frozen=True, eq=False)
class Theorem3Report(CheckReport):
    """Nesting of two node families sharing the ratio m = alpha/beta.

    With beta2 > beta1 the second family sits strictly between the first
    and m, and strictly closer to m, at every index off m. The distances
    shrink by the exact factor (n + beta1)/(n + beta2), and the families
    differ by n (beta2 - beta1)(k/n - m)/((n + beta1)(n + beta2)); the
    tests check both identities. With beta2 = beta1 the two families must
    be identical.
    """

    ratio_m: float
    dist1: np.ndarray
    dist2: np.ndarray
    failing_index: int | None


def check_theorem3(p1: StancuParams, p2: StancuParams) -> Theorem3Report:
    """Check nesting for two shift pairs with equal ratio and beta2 >= beta1."""
    if p1.n != p2.n:
        raise ValueError("both parameter sets must share the degree n")
    a1, b1, a2, b2 = p1.alpha, p1.beta, p2.alpha, p2.beta
    if b1 <= 0.0:
        raise ValueError("beta1 must be positive")
    if a1 > a2 or b1 > b2:
        raise ValueError("need alpha1 <= alpha2 and beta1 <= beta2")
    m1, m2 = a1 / b1, a2 / b2
    if not same_ratio(m1, m2):
        raise ValueError(f"ratio mismatch: {m1!r} vs {m2!r}")
    m = m1
    plain, nodes1, _, bern_dist, dist1 = node_table(p1, m)
    _, nodes2, _, _, dist2 = node_table(p2, m)
    if b2 > b1:
        off = bern_dist > CROSSING_TOL
        flags = _between(plain, bern_dist, nodes1, nodes2, m) & ((dist2 < dist1) | ~off)
    else:
        # identical ratios with equal beta mean identical families
        flags = nodes1 == nodes2
    return Theorem3Report(
        ratio_m=m,
        dist1=dist1,
        dist2=dist2,
        failing_index=first_failure(flags),
    )
