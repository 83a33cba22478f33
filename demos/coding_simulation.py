"""Monte Carlo check that the two-step code delivers what the curve promises.

Three experiments: a scalar quantizer landing on the classic Lloyd-Max
distortion, the sampled-then-lifted code whose total error splits into
weighted quantization error plus the estimation floor, and a universal run
that first estimates which source it is looking at.
"""

import numpy as np

from srdf_kit import (
    CovarianceModel,
    SimConfig,
    fixed_var_corr_family,
    min_distortion,
    two_step_code,
    universal_two_step,
)


def main():
    print("1) scalar quantizer, unit Gaussian, 2 bits")
    rep = two_step_code(CovarianceModel(np.eye(1)), [1], SimConfig(n=1, rate_bits=2.0, eval_blocks=20000, seed=0))
    print(f"   measured {rep.total_mse.mean:.5f} +- {rep.total_mse.half_width_95:.5f}"
          f"  (Lloyd-Max optimum ~0.11747, Shannon bound {rep.analytic_distortion_at_rate:.5f})")

    print("\n2) sample two of three components, quantize, lift")
    sigma = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
    model = CovarianceModel(sigma)
    cfg = SimConfig(n=2, rate_bits=2.0, eval_blocks=10000, seed=1)
    rep = two_step_code(model, [1, 2], cfg)
    dmin = min_distortion(model, [1, 2])
    print(f"   total    {rep.total_mse.mean:.5f} +- {rep.total_mse.half_width_95:.5f}")
    print(f"   weighted {rep.weighted_mse.mean:.5f} + floor {dmin:.5f}"
          f" = {rep.weighted_mse.mean + dmin:.5f}   (identity holds within noise)")
    print(f"   analytic curve at this rate: {rep.analytic_distortion_at_rate:.5f}")

    print("\n3) universal: estimate the correlation atom, then code")
    fam = fixed_var_corr_family(1.0, 0.2, 0.8, prior="uniform", grid_res=9)
    ucfg = SimConfig(n=1, rate_bits=2.0, eval_blocks=500, seed=2, est_length=2048, grid_delta=0.05)
    urep = universal_two_step(fam, [1], ucfg)
    print(f"   estimator hit-rate {urep.estimator_hit_rate:.4f} over {urep.eval_blocks} trials")
    print(f"   measured {urep.total_mse.mean:.5f} +- {urep.total_mse.half_width_95:.5f}"
          f" vs analytic {urep.analytic_distortion_at_rate:.5f}")
    print(f"   rate actually spent: {urep.rate_bits_actual:.6f} bits/slot"
          f" (atom announcement overhead {urep.universal_overhead_bits:.6f})")


if __name__ == "__main__":
    main()
