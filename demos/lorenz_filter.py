"""Short Lorenz-63 twin experiment comparing the adaptive transport
filter with a stochastic ensemble Kalman baseline.

Both filters assimilate noisy observations of all three states every 0.1
time units; the transport filter fits sparse four-variable maps each
step and adapts their smoothing penalties on the fly.
"""

import argparse

import numpy as np

from pstransport import Lorenz63Params, run_filter


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=50, help="ensemble size")
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = Lorenz63Params(steps=args.steps)
    for method in ("linear-baseline", "transport"):
        res = run_filter(params, args.n, args.seed, method=method)
        status = f"DIVERGED after {res.steps_completed} steps: {res.cause}" \
            if res.diverged else "ok"
        print(f"{method:16s} mean RMSE {res.mean_rmse:8.4f}  [{status}]")
        if method == "transport":
            frac = res.edf_fractions[np.isfinite(res.edf_fractions[:, 0])]
            print("  mean edf fraction per map component:",
                  np.round(frac.mean(axis=0), 3))


if __name__ == "__main__":
    main()
