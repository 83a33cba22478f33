"""Choosing which components to observe, and why the target matters.

On this four-component source the subset with the lowest estimation floor is
not the subset with the lowest rate at a moderate distortion target: the
floor rewards raw predictive power, while the rate also cares about how
compressible the observed block is.
"""

import numpy as np

from srdf_kit import CovarianceModel, best_fixed_set

SIGMA = np.array(
    [
        [2.0696282922790417, -2.2720198947190275, -2.821192901708262, -0.835660633798673],
        [-2.2720198947190275, 4.34352149378055, 3.9001218121893246, 1.569748180725658],
        [-2.821192901708262, 3.9001218121893246, 6.283867009197675, 0.6364154270980816],
        [-0.835660633798673, 1.569748180725658, 0.6364154270980816, 2.1545274609676426],
    ]
)
DELTA = 3.472607


def main():
    model = CovarianceModel(SIGMA)

    by_floor = best_fixed_set(model, 2, "min_delta_min")
    by_rate = best_fixed_set(model, 2, ("min_rate_at", DELTA))

    print("subset   floor      rate@delta")
    # both tables list the subsets in the same (lexicographic) order
    for subset, floor, rate in zip(by_floor.subsets.tolist(), by_floor.delta_min, by_rate.rate_bits):
        rate = "inf" if np.isinf(rate) else f"{rate:.6f}"
        print(f"{str(tuple(subset)):8} {floor:9.6f}  {rate}")

    print(f"\nlowest floor:          A = {by_floor.best.indices} (floor {by_floor.value:.6f})")
    print(f"lowest rate at {DELTA}: A = {by_rate.best.indices} (rate {by_rate.value:.6f} bits)")
    print("\nthe two objectives disagree; pick the one that matches the deployment")


if __name__ == "__main__":
    main()
