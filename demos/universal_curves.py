"""Coding a pair when the correlation is unknown.

Both components have unit variance, but the cross-correlation is only known
to lie in [0.2, 0.8].  Observing component 1 alone cannot distinguish the
candidates: they form one ambiguity atom.  The Bayesian curve (uniform prior)
averages over the atom, the worst-case curve must cover its least predictable
member, and the gap between them is the price of pessimism.
"""

import numpy as np

from srdf_kit import bayes_usrdf, fixed_var_corr_family, nonbayes_usrdf, project_family

R_LO, R_HI = 0.2, 0.8


def main():
    fam = fixed_var_corr_family(1.0, R_LO, R_HI, prior="uniform", grid_res=33)
    part = project_family(fam, [1])
    print(f"family grid: {len(fam.nodes)} members, r in [{R_LO}, {R_HI}]")
    print(f"atoms after sampling component 1: {len(part.members)}")
    print(f"  the single atom holds all {len(part.members[0])} members"
          f" (sampled variance is {part.sigma[0, 0, 0]:.1f} for every r)\n")

    print("delta    bayes_rate    worst_case_rate    gap")
    deltas = np.linspace(1.0, 1.8, 9)
    bayes = bayes_usrdf(fam, [1], deltas).rate_bits
    worst = nonbayes_usrdf(fam, [1], deltas).rate_bits
    for delta, b, n in zip(deltas, bayes, worst):
        print(f"{delta:5.2f}  {b:12.6f}  {n:17.6f}  {n - b:7.4f}")

    b = bayes_usrdf(fam, [1], 1.0)
    n = nonbayes_usrdf(fam, [1], 1.0)
    print(f"\nat delta = 1.0: bayes {b.rate_bits:.6f} bits, worst case {n.rate_bits:.6f} bits")
    print(f"feasible range (bayes): ({b.delta_min:.4f}, {b.delta_max:.4f})")
    print("the worst-case floor is higher: the r = 0.2 member explains the least")


if __name__ == "__main__":
    main()
