"""Walk through one simulated path: the variance build-up, both slope
estimates against their limits, and the studentized statistic.
"""

from __future__ import annotations

import argparse
import math

from digar import (
    ModelParams,
    dependence_profile,
    infeasible_estimate,
    simulate_path,
    stationary_sd,
    variance_sequence,
    vbar_limit,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--phi", type=float, default=0.5)
    ap.add_argument("--rho", type=float, default=0.3)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("-T", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args()

    params = ModelParams(args.phi, args.rho, args.sigma)
    prof = dependence_profile(params)
    v_last = variance_sequence(params, args.T)[-1]

    print(f"params: phi={params.phi}, rho={params.rho}, sigma_xi={params.sigma_xi}")
    print(f"classical stationary sd S = {stationary_sd(params):.6f}")
    print(f"variance limit vbar       = {vbar_limit(params):.6f}")
    print(f"V_T at T={args.T:<16} = {v_last:.6f}")
    print(f"slope limit tau_bar       = {prof.tau_bar:.6f} (bias {prof.ols_bias:+.6f})")

    path = simulate_path(params, args.T, args.seed)
    res = infeasible_estimate(path)
    stat = math.sqrt(res.sample_size) * (res.phi_tilde - params.phi) / prof.eta_bar

    print(f"\npath seed {args.seed}, length {path.horizon}")
    print(f"plain slope estimate      = {res.phi_hat:.6f}  -> tau_bar, not phi")
    print(f"corrected estimate        = {res.phi_tilde:.6f}  -> phi")
    print(f"correction term           = {res.correction:.6f}  -> rho*sigma/vbar")
    print(f"studentized statistic     = {stat:+.4f}  (approximately N(0,1))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
