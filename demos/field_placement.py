"""Where to put sensors on a correlated field.

The field lives on [0, 1] with exponential correlation p^|s-u|.  A single
sensor belongs at the center; with endpoints pinned the optimum spreads the
rest uniformly.  Both facts drop out of the optimizer, and the pinned floor
matches a per-segment accounting of explained variance.
"""

import numpy as np

from srdf_kit import (
    FieldModel,
    FieldSamplingSet,
    GaussMarkovKernel,
    field_min_distortion,
    field_srdf,
    gm_min_distortion_pinned,
    gm_min_distortion_single,
    optimize_placement,
)

P = 0.5


def main():
    field = FieldModel(GaussMarkovKernel(P))

    print(f"single sensor on the p={P} field: floor by position")
    for a in np.linspace(0.1, 0.9, 9):
        bar = "#" * int(60 * gm_min_distortion_single(P, float(a)))
        print(f"  a={a:.1f}  floor={gm_min_distortion_single(P, float(a)):.6f}  {bar}")

    res = optimize_placement(field, 1, "min_delta_min")
    print(f"\noptimizer picks a* = {res.points[0]:.6f} (floor {res.value:.6f})")

    res3 = optimize_placement(field, 3, "min_delta_min", pin_endpoints=True)
    print(f"\nthree sensors, endpoints pinned: {[round(p, 4) for p in res3.points]}")
    floor = field_min_distortion(field, FieldSamplingSet(res3.points))
    seg = gm_min_distortion_pinned(P, res3.points)
    print(f"floor from the cross mass {floor:.8f} vs per-segment identity {seg:.8f}")

    print("\nrate curve with the three optimized sensors:")
    for delta in np.linspace(floor + 0.02, 0.9, 6):
        pt = field_srdf(field, FieldSamplingSet(res3.points), float(delta))
        print(f"  delta={delta:.3f}  rate={pt.rate_bits:.5f} bits/slot")


if __name__ == "__main__":
    main()
