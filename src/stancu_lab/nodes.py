"""Node geometry of the two operator families.

For fixed degree n the plain operator samples at k/n while the shifted
family samples at (k + alpha)/(n + beta). The checks below turn the
geometric facts about those two point sets into plain per-index data:

* the displacement of every shifted node from its plain counterpart is at
  most (alpha + beta)/(n + beta), vanishing as n grows (``check_theorem1``);
* the shifted nodes contract toward the ratio m = alpha/beta by the exact
  factor n/(n + beta), and the two families cross at m (``check_theorem2``);
* growing beta at fixed ratio m nests the node families strictly closer
  around m, with distance ratio (n + beta1)/(n + beta2) (``check_theorem3``).

``node_table`` holds both node families, their gaps and, when beta > 0,
their distances to m; t2, the node CSV and the node figures read it.
A check fails only where its floats refute the claim by more than their
own rounding (``_allowance``), so FAIL means the claim is false for the
stored shifts. t2 and t3 are one interval test (``_between``); a plain node
within 1e-12 of m (``same_ratio``) sits at m, where the families cross.

Every check, here and in ``bounds``, returns one ``CheckReport``: the CSV
table it decided, the first entry that breaks its claim and its status
line. ``decide`` builds it from one per-entry flag array, where the check
applies its tolerance and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import StancuParams

__all__ = ["CheckReport", "check_theorem1", "check_theorem2", "check_theorem3"]

U, ETA = 2.0**-53, 2.0**-1074  # float64 unit roundoff and smallest subnormal

NODE_HEADER = "k,bernstein_node,stancu_node,gap,dist_bern_to_m,dist_stancu_to_m"


def node_table(p: StancuParams) -> tuple[np.ndarray, ...]:
    """(k/n, (k + alpha)/(n + beta), their gap) over k = 0..n, and, when
    beta > 0, the distances |k/n - m| and |(k + alpha)/(n + beta) - m| to
    m = alpha/beta."""
    plain, shifted = StancuParams(p.n).node_values(), p.node_values()
    table = (plain, shifted, shifted - plain)
    m = p.alpha / p.beta if p.beta > 0.0 else None
    return table if m is None else table + (np.abs(plain - m), np.abs(shifted - m))


def same_ratio(m1, m2):
    """Whether quotients alpha/beta share m, elementwise for arrays: within
    1e-12 (relative above 1), so 4.7/10 matches 47/100, and NaN matches
    nothing. Also the rule for "the plain node k/n sits at m"."""
    return np.abs(m1 - m2) <= 1e-12 * np.maximum(1.0, np.abs(m1))


def _allowance(count: int, v):
    """How far ``count`` roundings can carry a float of magnitude at most ``v``
    from its exact value x. Each multiplies by (1 + d), |d| <= U, and an
    underflowing product or quotient adds |e| <= ETA/2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2.1, Lemma 3.1): gamma_c |x| + c ETA/2
    in all, gamma_c = cU/(1 - cU), at most c (2U|v| + ETA) while cU <= 1/4;
    the spare factor 2 covers the roundings of this allowance itself."""
    return count * (2.0 * U * v + ETA)


@dataclass(frozen=True, eq=False)
class CheckReport:
    """What a check decided: the CSV table it writes (``header`` and
    ``columns``, an int column first), the first entry of its flag array that
    breaks the claim (``failing_index``, None when every entry holds) and its
    status line: the FAIL line when an entry breaks, else the OK line, None
    where the check prints none."""

    header: str
    columns: tuple
    failing_index: int | None
    status: str | None

    @property
    def ok(self) -> bool:
        return self.failing_index is None

    within_bound = ok  # t4's older name for the verdict; the benchmark reads it


def decide(header: str, columns, flags: np.ndarray, ok: str | None, fail) -> CheckReport:
    """The report of a check whose per-entry ``flags`` are True where its claim
    holds; ``fail(i)`` is the FAIL line of the first entry i that breaks it."""
    i = None if flags.all() else int(np.argmin(flags))
    return CheckReport(header, tuple(columns), i, ok if i is None else fail(i))


def _between(m, outer, inner, count: int) -> np.ndarray:
    """Per index: ``inner`` lies between m and ``outer``, both ends widened by
    ``count`` roundings of the largest value (all lie in [0, 1]); so it is
    also no farther from m than ``outer`` (t2, t3)."""
    lo, hi = np.minimum(m, outer), np.maximum(m, outer)
    slack = _allowance(count, np.maximum(hi, inner))
    return (lo - slack <= inner) & (inner <= hi + slack)


def check_theorem1(p: StancuParams, n_sequence) -> CheckReport:
    """Check the even-distribution claim along a strictly increasing degree sweep.

    ``p`` supplies the shift parameters; its own degree is replaced by each
    entry of ``n_sequence`` in turn. The table holds each degree's maximal
    node displacement and its (alpha+beta)/(n+beta) bound.

    Only the gaps are checked. The bounds need no verdict of their own:
    the degrees must strictly increase, and along such a sequence the exact
    (alpha+beta)/(n+beta) strictly falls, or is 0 throughout when
    alpha + beta = 0. For large beta the float bounds of neighbouring
    degrees may still print alike.
    """
    params = [StancuParams(n, p.alpha, p.beta) for n in n_sequence]
    degrees = tuple(q.n for q in params)
    if len(degrees) == 0:
        raise ValueError("n_sequence must be non-empty")
    if any(d2 <= d1 for d1, d2 in zip(degrees, degrees[1:])):
        raise ValueError("n_sequence must be strictly increasing")
    max_gaps = np.array([np.abs(q.node_values() - StancuParams(q.n).node_values()).max()
                         for q in params])
    bounds = np.array([q.displacement_bound() for q in params])
    # Roundings: shifted node 3, plain node 1, gap 1, bound 3 (n + beta, alpha + beta, the
    # quotient; or n + beta, two quotients, a sum), bound + slack 1; all <= max(1, bound)
    slack = _allowance(9, np.maximum(1.0, bounds))
    return decide("n,max_gap,bound", (degrees, max_gaps, bounds), max_gaps <= bounds + slack,
                  "t1: OK", lambda i: f"t1: FAIL at n={degrees[i]}: max_gap exceeds bound")


def check_theorem2(p: StancuParams) -> CheckReport:
    """Check the contraction of the shifted nodes toward m = alpha/beta (beta > 0).

    The table is the ``nodes`` one. The shifted distances equal n/(n + beta)
    times the plain ones up to float rounding, and the two node families
    coincide exactly at the crossings the OK line names (plain nodes at m);
    the tests check both. A node fails outside the interval between its
    plain node and m, widened by the rounding of the values compared.
    """
    if p.beta <= 0.0:
        raise ValueError("beta must be positive: the ratio alpha/beta is undefined at 0")
    m, table = p.alpha / p.beta, node_table(p)
    crossings = ",".join(map(str, np.flatnonzero(same_ratio(table[0], m)))) or "none"
    # Roundings: shifted node 3 (k + alpha, n + beta, quotient), plain 1, m 1, widened end 1
    flags = _between(m, table[0], table[1], 6)
    ok = f"t2: OK (contraction {p.n / (p.n + p.beta)!r}, crossings at k={crossings})"
    return decide(NODE_HEADER, (range(p.n + 1), *table), flags, ok, "t2: FAIL at k={}".format)


def check_theorem3(*params: StancuParams) -> CheckReport:
    """Check nesting along a chain of shift pairs, each with the next: the
    ratios alpha/beta agree and alpha and beta do not fall.

    With beta2 > beta1 the second family sits strictly between the first
    and m, and strictly closer to m, at every index off m; on m, each lies
    between k/n and its own pair's m (t2's test). A node fails outside its
    interval widened by the rounding of the values compared. The distances
    shrink by the exact factor (n + beta1)/(n + beta2), and the families
    differ by n (beta2 - beta1)(k/n - m)/((n + beta1)(n + beta2)); the tests
    check both identities. With beta2 = beta1 the families must be equal.

    Every pair is validated before any node is compared. The table holds
    each family and its distance to the first pair's m; each link is
    decided at its own first pair's m, so flag entry j is node
    j % (n + 1) of link j // (n + 1).
    """
    if len(params) < 2:
        raise ValueError("need at least two parameter sets")
    links = list(zip(params, params[1:]))
    for p1, p2 in links:
        if p1.n != p2.n:
            raise ValueError("both parameter sets must share the degree n")
        a1, b1, a2, b2 = p1.alpha, p1.beta, p2.alpha, p2.beta
        if b1 <= 0.0:
            raise ValueError("beta1 must be positive")
        if a1 > a2 or b1 > b2:
            raise ValueError("need alpha1 <= alpha2 and beta1 <= beta2")
        if not same_ratio(a1 / b1, a2 / b2):
            raise ValueError(f"ratio mismatch: {a1 / b1!r} vs {a2 / b2!r}")
    n = params[0].n
    plain, *nodes = (q.node_values() for q in (StancuParams(n), *params))
    flags = []
    for (p1, p2), nodes1, nodes2 in zip(links, nodes, nodes[1:]):
        m1, m2 = p1.alpha / p1.beta, p2.alpha / p2.beta
        if p2.beta > p1.beta:
            # Roundings: two shifted nodes 3 each, m 1, interval end 1. Where k/n sits at m, each
            # family sits at its own m: as in t2, between k/n and it (shifted 3, k/n 1, m 1, end 1)
            at_m = _between(m1, plain, nodes1, 6) & _between(m2, plain, nodes2, 6)
            flags.append(np.where(same_ratio(plain, m1), at_m, _between(m1, nodes1, nodes2, 8)))
        else:  # identical ratios with equal beta mean identical families
            flags.append(nodes1 == nodes2)

    def fail(j: int) -> str:
        (p1, p2), k = links[j // (n + 1)], j % (n + 1)
        return f"t3: FAIL for pairs ({p1.alpha},{p1.beta}) -> ({p2.alpha},{p2.beta}) at k={k}"

    m = params[0].alpha / params[0].beta
    header = "k," + ",".join(f"node_{i},dist_{i}" for i in range(len(params)))
    columns = [range(n + 1)] + [c for v in nodes for c in (v, np.abs(v - m))]
    return decide(header, columns, np.array(flags), f"t3: OK (m={m!r})", fail)
