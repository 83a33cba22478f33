"""Rate curves for a three-component source under partial sampling.

Walks the rate distortion curve of one model three ways: observing a single
component, a pair, and everything.  Fewer observed components raise both the
distortion floor (what estimation alone can reach) and the rate needed at any
feasible distortion.
"""

import numpy as np

from srdf_kit import (
    CovarianceModel,
    max_distortion,
    min_distortion,
    single_site_srdf,
    srdf,
)

SIGMA = np.array(
    [
        [1.0, 0.5, 0.3],
        [0.5, 1.0, 0.2],
        [0.3, 0.2, 1.0],
    ]
)


def main():
    model = CovarianceModel(SIGMA)
    dmax = max_distortion(model)
    print(f"total source power (rate-0 distortion): {dmax:.6f}\n")

    subsets = [(1,), (1, 2), (1, 2, 3)]
    floors = {}
    for s in subsets:
        floors[s] = min_distortion(model, s)
        print(f"A = {s}: estimation floor = {floors[s]:.6f}")

    print("\nrate (bits per slot) at shared distortion targets:")
    grid = np.linspace(max(floors.values()) + 0.05, dmax - 0.05, 8)
    header = "delta".rjust(8) + "".join(str(s).rjust(16) for s in subsets)
    print(header)
    for d in grid:
        row = f"{d:8.3f}"
        for s in subsets:
            row += f"{srdf(model, s, float(d)).rate_bits:16.6f}"
        print(row)

    # single-site curves have a one-line closed form; confirm on one point
    sigmas = np.sqrt(np.diag(SIGMA))
    corr = SIGMA / np.outer(sigmas, sigmas)
    d = float(grid[3])
    got = srdf(model, (1,), d).rate_bits
    want = single_site_srdf(sigmas, corr, 1, d)
    print(f"\nclosed-form check at delta={d:.3f}: solver {got:.9f}, formula {want:.9f}")


if __name__ == "__main__":
    main()
