"""Universal rate distortion over a parametric family of Gaussian sources.

The encoder sees only the sampled block, so two parameters whose sampled
covariance agrees are indistinguishable to it: the family splits into
ambiguity atoms, each holding every member with the same sampled block.
Within an atom the sampled data carries no information about which member is
active, which makes the best reproduction of the unsampled components linear
in the sampled block with prior-averaged cross terms.  The Bayesian curve
spends a common rate across atoms and equalizes their slopes; the
non-Bayesian curve guards the worst member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetOutOfRange,
    DimensionMismatch,
    EmptyAtom,
    EmptyGrid,
    GridTooLarge,
    InfeasibleDistortion,
    NoPrior,
    UnsupportedFamily,
)
from .model import as_sampling_set, validate_covariance
from .srdf import RATE_CAP_BITS, Spectrum, _block_spectrum

GRID_RES_DEFAULT = 33
ATOM_TOL = 1e-8          # max-norm radius for "same sampled block"
NODE_CAP = 100_000


@dataclass(frozen=True)
class ParamFamily:
    """A compact parameter box mapped to covariance matrices, with an optional prior.

    ``cov_at`` maps a parameter vector to an m x m covariance.  The box is
    materialized on a uniform grid of ``grid_res`` nodes per dimension; the
    prior is projected to normalized node weights (trapezoid cells), so a
    callable density should already integrate to one over the box.
    """

    box: tuple[tuple[float, float], ...]
    cov_at: object
    m: int
    prior: object = None          # None | "uniform" | callable density
    grid_res: int = GRID_RES_DEFAULT
    template: tuple = ()          # optional structural tag, e.g. ("fixed_var_corr", sigma2)

    def __post_init__(self) -> None:
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if len(box) == 0:
            raise EmptyGrid("parameter box must have at least one dimension")
        if any(hi < lo for lo, hi in box):
            raise EmptyGrid(f"parameter box has an empty dimension: {box}")
        if self.grid_res < 1:
            raise EmptyGrid(f"grid_res must be >= 1, got {self.grid_res}")
        if self.grid_res ** len(box) > NODE_CAP:
            raise GridTooLarge(
                f"grid_res^dim = {self.grid_res ** len(box)} exceeds the node cap {NODE_CAP}"
            )
        nodes, weights = _materialize(box, self.prior, self.grid_res)
        sigmas = np.stack([validate_covariance(self.cov_at(tuple(t))) for t in nodes])
        if sigmas.shape[1] != self.m:
            raise EmptyGrid(f"cov_at returned {sigmas.shape[1]}x{sigmas.shape[1]}, expected m={self.m}")
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_sigmas", sigmas)

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    @property
    def node_weights(self) -> np.ndarray | None:
        return self._weights

    @property
    def node_sigmas(self) -> np.ndarray:
        return self._sigmas


def _materialize(box, prior, grid_res):
    axes = [np.linspace(lo, hi, grid_res) for lo, hi in box]
    cell = []
    for lo, hi in box:
        w = np.ones(grid_res)
        if grid_res > 1 and hi > lo:
            w *= (hi - lo) / (grid_res - 1)
            w[0] *= 0.5
            w[-1] *= 0.5
        cell.append(w)
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    if prior is None:
        return nodes, None
    # trapezoid cell volumes via the meshed per-axis weights
    vol = np.stack([m.ravel() for m in np.meshgrid(*cell, indexing="ij")], axis=1).prod(axis=1)
    if prior == "uniform":
        raw = vol.copy()
    elif callable(prior):
        dens = np.array([float(prior(tuple(t))) for t in nodes])
        if not (np.isfinite(dens).all() and np.min(dens) >= 0.0):
            raise NoPrior("prior density must be finite and nonnegative")
        raw = dens * vol
    else:
        raise NoPrior(f"prior must be None, 'uniform', or a callable density, got {prior!r}")
    total = float(np.sum(raw))
    if total <= 0.0:
        raise NoPrior("prior mass on the grid is zero")
    return nodes, raw / total


@dataclass(frozen=True)
class AmbiguityAtom:
    """Members of the family sharing one sampled-block covariance."""

    members: tuple[int, ...]          # node indices into the family grid
    tau1: np.ndarray                  # representative k x k sampled block
    weight: float | None              # prior mass of the atom
    member_weights: np.ndarray | None  # prior weights renormalized within the atom


@dataclass(frozen=True)
class AmbiguityPartition:
    atoms: tuple[AmbiguityAtom, ...]


def project_family(family: ParamFamily, sampled) -> AmbiguityPartition:
    """Split the family grid into ambiguity atoms of the sampling set.

    Nodes are first collapsed by rounding each sampled-block entry to a
    quarter of ATOM_TOL (same bucket implies distance well inside it), then
    buckets within ATOM_TOL in max-norm are merged.
    Atoms are ordered by their lowest member node, so the split is
    deterministic.
    """
    ss = as_sampling_set(sampled)
    a = ss.zero_based()
    if len(family.nodes) == 0:
        raise EmptyGrid("family grid is empty")
    blocks = family.node_sigmas[np.ix_(np.arange(len(family.nodes)), a, a)]
    flat = blocks.reshape(len(blocks), -1)
    keys = np.round(flat / (ATOM_TOL / 4.0)).astype(np.int64)
    _, first_idx, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    reps = flat[first_idx]
    n_buckets = len(first_idx)
    parent = list(range(n_buckets))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n_buckets):
        close = np.max(np.abs(reps[i + 1:] - reps[i]), axis=1) <= ATOM_TOL
        for j in np.flatnonzero(close):
            ri, rj = find(i), find(int(i + 1 + j))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    bucket_root = np.array([find(b) for b in range(n_buckets)])
    node_root = bucket_root[inverse]
    weights = family.node_weights
    atoms = []
    for root in sorted(set(node_root.tolist()), key=lambda r: int(np.min(np.flatnonzero(node_root == r)))):
        members = np.flatnonzero(node_root == root)
        if weights is not None:
            w = weights[members]
            wsum = float(np.sum(w))
            member_w = w / wsum if wsum > 0 else np.full(len(members), 1.0 / len(members))
            tau1 = np.tensordot(member_w, blocks[members], axes=(0, 0))
            atom_weight = wsum
        else:
            member_w = None
            tau1 = blocks[members].mean(axis=0)
            atom_weight = None
        atoms.append(
            AmbiguityAtom(
                members=tuple(int(i) for i in members),
                tau1=0.5 * (tau1 + tau1.T),
                weight=atom_weight,
                member_weights=member_w,
            )
        )
    return AmbiguityPartition(atoms=tuple(atoms))


@dataclass(frozen=True)
class BayesAtomData:
    """Per-atom quantities for the Bayesian curve.

    The cross block and unsampled variances are prior-weighted averages over
    the atom's members; within the atom the sampled block is common, so the
    best unsampled estimate is linear, b^T times the sampled block, with
    ``lift`` b = Sigma_A^{-1} times the averaged cross block.
    """

    sigma_a: np.ndarray
    lift: np.ndarray
    g_tau1: np.ndarray
    spectrum: Spectrum
    weight: float


def bayes_atom_data(family: ParamFamily, sampled, atom: AmbiguityAtom) -> BayesAtomData:
    ss = as_sampling_set(sampled)
    a = ss.zero_based()
    ac = ss.complement(family.m)
    if len(atom.members) == 0:
        raise EmptyAtom("atom has no members")
    if family.node_weights is None or atom.member_weights is None:
        raise NoPrior("Bayesian atom data needs a prior on the family")
    members = np.asarray(atom.members)
    w = atom.member_weights
    sig = family.node_sigmas[members]
    sigma_a = np.tensordot(w, sig[:, a[:, None], a[None, :]], axes=(0, 0))
    sigma_a = 0.5 * (sigma_a + sigma_a.T)
    cross = np.tensordot(w, sig[:, a[:, None], ac[None, :]], axes=(0, 0))
    var_ac = np.tensordot(w, sig[:, ac, ac], axes=(0, 0))
    spec, g, b = _block_spectrum(sigma_a, cross, float(np.sum(var_ac)))
    return BayesAtomData(sigma_a=sigma_a, lift=b, g_tau1=g, spectrum=spec, weight=float(atom.weight))


@dataclass(frozen=True)
class UsrdfPoint:
    delta: float
    rate_bits: float
    per_atom_delta: tuple[float, ...]
    delta_min: float
    delta_max: float
    trivial: bool = False


def bayes_curve(data, deltas) -> list[UsrdfPoint]:
    """Bayesian universal curve at each of ``deltas``, from one family's atom data.

    The optimal split gives every atom a the distortion D_a(r) it reaches at a
    shared rate r, so r solves sum_a w_a D_a(r) = delta.  Above its floor an
    atom keeps E_a = j alpha + T, with alpha the water level at rate r, j the
    number of modes cut down to it and T the sum of the modes left whole.
    So E_a' = -2 ln2 alpha is continuous across breakpoints and
    (ln E_a)'' = (2 ln2)^2 alpha T / (j E_a^2) >= 0: each E_a is log-convex,
    and so is their weighted sum.  Hence L(r) = ln sum_a w_a E_a(r) is convex
    and decreasing, and Newton's method on L(r) = ln(delta - delta_min) rises
    from r = 0 to the root without passing it; L is linear, and the step
    exact, once every mode is cut.  A row stops when its iterate no longer
    grows, or clamped at RATE_CAP_BITS, where only the floor is left and
    nothing is evaluated.
    """
    deltas = np.asarray(deltas, dtype=float)
    if not np.all(np.isfinite(deltas)):
        raise BudgetOutOfRange(f"distortion must be finite, got {deltas}")
    floors = np.array([d.spectrum.delta_min for d in data])
    modes = Spectrum(np.zeros(len(data)), np.stack([d.spectrum.lambdas for d in data]))
    w = np.array([d.weight for d in data])
    dmin = sum(d.weight * d.spectrum.delta_min for d in data)
    dmax = sum(d.weight * d.spectrum.delta_max for d in data)
    if np.any(deltas <= dmin):
        raise InfeasibleDistortion(
            f"delta {np.min(deltas)} is at or below the prior-averaged floor {dmin}"
        )
    trivial = deltas >= dmax * (1.0 - 1e-12)
    target = deltas - dmin
    rates = np.zeros(len(deltas))
    live = ~trivial
    while np.any(live):
        r = rates[live]
        excess = modes.distortion(r[:, None])
        e = excess @ w
        step = np.log(e / target[live]) * e / (2.0 * math.log(2.0) * (modes.level(excess) @ w))
        nxt = np.minimum(r + step, RATE_CAP_BITS)
        grew = nxt > r
        rates[live] = np.where(grew, nxt, r)
        live[live] = grew & (nxt < RATE_CAP_BITS)
    alloc = floors + modes.distortion(rates[:, None])
    return [
        UsrdfPoint(float(d), float(r), tuple(float(x) for x in per), dmin, dmax, bool(t))
        for d, r, per, t in zip(deltas, rates, alloc, trivial)
    ]


def bayes_usrdf(family: ParamFamily, sampled, delta: float) -> UsrdfPoint:
    """Bayesian universal curve: prior-average distortion ``delta``, common rate equalized.

    The common rate is the root of sum_a w_a D_a(r) = delta, found by Newton's
    method on the logarithm of the averaged distortion above the floor, which
    is convex in r (see ``bayes_curve``), so the iterates rise to the root.
    """
    part = project_family(family, sampled)
    return bayes_curve([bayes_atom_data(family, sampled, atom) for atom in part.atoms], [delta])[0]


def nonbayes_spectra(family: ParamFamily, sampled, part: AmbiguityPartition) -> Spectrum:
    """One spectrum per atom, stacked; the worst-case curve is their largest rate.

    Supported exactly when every atom is a single member (each atom then has
    its own known spectrum), or for the fixed-variance single correlation
    family, whose worst member is the least correlated one: a single mode
    sigma2 (1 + r_lo^2) above the floor sigma2 (1 - r_lo^2).
    """
    ss = as_sampling_set(sampled)
    if all(len(atom.members) == 1 for atom in part.atoms):
        a = ss.zero_based()
        ac = ss.complement(family.m)
        sigs = [family.node_sigmas[atom.members[0]] for atom in part.atoms]
        specs = [
            _block_spectrum(sig[np.ix_(a, a)], sig[np.ix_(a, ac)], float(np.trace(sig[np.ix_(ac, ac)])))[0]
            for sig in sigs
        ]
        return Spectrum(np.array([s.delta_min for s in specs]), np.stack([s.lambdas for s in specs]))
    if family.template and family.template[0] == "fixed_var_corr":
        sigma2 = float(family.template[1])
        if family.m != 2 or ss.k != 1:
            raise UnsupportedFamily(
                "the fixed-variance correlation family supports m=2 with one sampled component"
            )
        r_lo = family.box[0][0]
        if r_lo <= 0.0:
            raise UnsupportedFamily("the closed form needs strictly positive correlations")
        return Spectrum(np.array([sigma2 * (1.0 - r_lo ** 2)]), np.array([[sigma2 * (1.0 + r_lo ** 2)]]))
    raise UnsupportedFamily(
        "worst-case curve is implemented for all-singleton atoms or the fixed-variance"
        " correlation family only"
    )


def nonbayes_curve(spectra: Spectrum, deltas) -> list[UsrdfPoint]:
    """Worst-case universal curve at each of ``deltas`` over stacked atom spectra."""
    deltas = np.asarray(deltas, dtype=float)
    dmin = float(np.max(spectra.delta_min))
    dmax = float(np.max(spectra.delta_max))
    rates = np.max(spectra.rate(deltas[:, None]), axis=-1)
    atoms = len(spectra.delta_min)
    return [
        UsrdfPoint(float(d), float(r), (float(d),) * atoms, dmin, dmax, bool(r == 0.0 and d >= dmax * (1.0 - 1e-12)))
        for d, r in zip(deltas, rates)
    ]


def nonbayes_usrdf(family: ParamFamily, sampled, delta: float) -> UsrdfPoint:
    """Non-Bayesian universal curve: worst-case rate over ambiguity atoms (see nonbayes_spectra)."""
    part = project_family(family, sampled)
    return nonbayes_curve(nonbayes_spectra(family, sampled, part), [delta])[0]


def fixed_var_corr_family(
    sigma2: float,
    r_lo: float,
    r_hi: float,
    prior="uniform",
    grid_res: int = GRID_RES_DEFAULT,
) -> ParamFamily:
    """Two exchangeable components with fixed variance and correlation in [r_lo, r_hi]."""
    if sigma2 <= 0.0:
        raise UnsupportedFamily(f"variance must be positive, got {sigma2}")

    def cov_at(tau):
        r = tau[0]
        return sigma2 * np.array([[1.0, r], [r, 1.0]])

    return ParamFamily(
        box=((r_lo, r_hi),),
        cov_at=cov_at,
        m=2,
        prior=prior,
        grid_res=grid_res,
        template=("fixed_var_corr", float(sigma2)),
    )


def affine_family(
    base,
    directions,
    box,
    prior=None,
    grid_res: int = GRID_RES_DEFAULT,
) -> ParamFamily:
    """Family sigma(tau) = base + sum_d tau_d * directions[d]; every node must stay PD."""
    base = np.asarray(base, dtype=float)
    dirs = [np.asarray(d, dtype=float) for d in directions]
    if len(dirs) != len(box):
        raise UnsupportedFamily(
            f"got {len(dirs)} direction matrices for a {len(box)}-dimensional box"
        )
    if any(d.shape != base.shape for d in dirs):
        raise DimensionMismatch(f"every direction matrix must have the base's shape {base.shape}")

    def cov_at(tau):
        s = base.copy()
        for t, d in zip(tau, dirs):
            s = s + t * d
        return s

    return ParamFamily(
        box=tuple(box),
        cov_at=cov_at,
        m=base.shape[0],
        prior=prior,
        grid_res=grid_res,
        template=("affine",),
    )
