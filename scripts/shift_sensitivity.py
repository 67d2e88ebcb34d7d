#!/usr/bin/env python3
"""Sweep the shift parameters at fixed degree and tabulate the error measures.

First table: for each (alpha, beta) pair, the measured sup-error of the
shifted operator, its distance to the unshifted one, the node-shift
modulus bound on that distance, and the two-term upper estimate that must
dominate the sup-error.

Second table: the fixed-ratio collapse experiment. Scaling (alpha, beta)
up at constant ratio m squeezes every node toward m, so the operator
flattens onto the single value f(m); the per-level distance is printed
next to its modulus bound. Note the distance need not fall monotonically:
compressing the nodes also slows the sampled oscillation per node index,
which can transiently deepen the smoothed dip before the collapse wins.

Usage: python scripts/shift_sensitivity.py [--function sin15] [--n 100]
"""

import argparse

from stancu_lab import (
    FunctionSpec,
    RatioFamily,
    StancuParams,
    corollary2_bound,
    grid_slack,
    modulus_of_continuity,
    sup_error_and_distance,
    theorem4_experiment,
)

PAIRS = [(0.0, 0.0), (4.7, 10.0), (20.0, 30.0), (17.0, 100.0), (47.0, 100.0),
         (77.0, 100.0), (470.0, 1000.0)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--function", default="sin15")
    ap.add_argument("--n", type=int, default=100)
    args = ap.parse_args()
    f = FunctionSpec.builtin(args.function)
    n = args.n
    slack = grid_slack(f)

    print(f"function={args.function} n={n}")
    print(f"{'alpha':>8} {'beta':>8} {'sup_error':>12} {'op_distance':>12} "
          f"{'shift_bound':>12} {'two_term':>12}")
    for a, b in PAIRS:
        p = StancuParams(n, a, b)
        shift = p.displacement_bound()
        shift_bound = (modulus_of_continuity(f, shift) + slack) if shift > 0 else 0.0
        sup, dist = sup_error_and_distance(f, p)
        print(f"{a:8.1f} {b:8.1f} {sup:12.6f} "
              f"{dist:12.6f} {shift_bound:12.6f} "
              f"{corollary2_bound(f, p):12.6f}")

    fam = RatioFamily(4.7, 10.0, (1.0, 10.0, 100.0, 1000.0, 10000.0))
    rep = theorem4_experiment(f, n, fam)
    print(f"\ncollapse onto f(m), m={rep.ratio_m:.4f}, f(m)={rep.f_at_m:.6f}")
    print(f"{'alpha':>10} {'beta':>10} {'distance':>12} {'bound':>12}")
    for (a, b), d, bd in zip(rep.levels, rep.distances, rep.bounds):
        print(f"{a:10.1f} {b:10.1f} {d:12.6f} {bd:12.6f}")
    print(f"within bound at every level: {rep.ok}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
