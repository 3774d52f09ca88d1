"""The closed-form variance chain and its descent property.

Part 1 walks one (gamma, H, w) triple through the update chain and checks
the algebraic identity omega^2 gamma^2 + c = gamma.  Part 2 runs the full
reweighted-l1 alternation on a 10-d convex quadratic with exact inner
solves and prints the surrogate cost per outer iteration: it never goes up.

Usage: python3 demos/update_algebra.py
"""

import sys
from pathlib import Path

import numpy as np

from ardnet import updates

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import cccp_quadratic_reference  # noqa: E402


def main():
    print("-- scalar update chain (a one-member group) --")
    gamma, hess, w = 1.0, 2.0, 0.8
    c = float(updates.update_posterior_variance(gamma, hess))
    def one_member(a):
        return a

    omega = float(updates.group_omega(gamma, hess, one_member))
    s = float(updates.group_switch(w, omega, one_member))
    print(f"gamma={gamma}  H={hess}  w={w}")
    print(f"  c     = gamma/(1+gamma*H)      = {c:.6f}")
    print(f"  omega = sqrt(H/(1+gamma*H))    = {omega:.6f}")
    print(f"  s     = |w|/omega              = {s:.6f}")
    print(f"  identity omega^2 gamma^2 + c - gamma = "
          f"{omega**2 * gamma**2 + c - gamma:+.2e}")

    print("\n-- alternation on a 10-d convex quadratic --")
    rng = np.random.default_rng(0)
    q = rng.normal(size=(10, 10))
    a = q @ q.T / 10.0 + 5.0 * np.eye(10)
    b = np.sign(rng.normal(size=10)) * rng.uniform(0.5, 1.5, 10) * 50.0
    costs = cccp_quadratic_reference(a, b, n_iters=10)
    for i, cost in enumerate(costs, 1):
        drop = "" if i == 1 else f"  (change {costs[i-1] - costs[i-2]:+.3e})"
        print(f"  iter {i:2d}: surrogate cost {cost:.6f}{drop}")
    print(f"  monotone non-increasing: {bool(np.all(np.diff(costs) <= 1e-8))}")

    thr = updates.ENTROPY_PRUNE_THRESHOLD
    print(f"\nentropy prune threshold: 1/(2*pi*e) = {thr:.6f}")


if __name__ == "__main__":
    main()
