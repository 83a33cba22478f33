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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetOutOfRange,
    DimensionMismatch,
    EmptyGrid,
    GridTooLarge,
    InfeasibleDistortion,
    NoPrior,
    NotSquare,
    UnboundedBox,
    UnsupportedFamily,
)
from .model import SamplingSet, _blocks, as_sampling_set, validate_covariance
from .srdf import RATE_CAP_BITS, RateCurve, Spectrum, _block_spectrum, _rate_curve

GRID_RES_DEFAULT = 33
NODE_CAP = 100_000


@dataclass(frozen=True, eq=False)
class ParamFamily:
    """The affine family sigma(tau) = base + sum_d tau_d directions[d] over a compact box, with an optional prior.

    ``directions`` is read as a (d, m, m) stack, one direction per box
    dimension, each of the base's shape.  The box is materialized on a
    uniform grid of ``grid_res`` nodes per dimension (``nodes``, an (N, d)
    array, one row each), and ``node_sigmas`` is the (N, m, m) stack of their
    covariances, base + sum_d t_d D_d summed in direction order; an entry
    that overflows, or meets 0 * inf, is left non-finite without a warning,
    and validation refuses its node.  The prior is projected to normalized
    node weights ``node_weights`` (trapezoid cells, None without a prior): a
    callable ``prior(nodes)`` gives the N node densities in one call, and
    should already integrate to one over the box.  Arrays cannot be hashed,
    so two families are equal only when they are the same object.
    """

    base: np.ndarray
    directions: np.ndarray
    box: tuple[tuple[float, float], ...]
    prior: object = None          # None | "uniform" | callable density, (N, d) nodes -> (N,)
    grid_res: int = GRID_RES_DEFAULT
    nodes: np.ndarray = field(init=False, repr=False)
    node_weights: np.ndarray | None = field(init=False, repr=False)
    node_sigmas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        base = np.asarray(self.base, dtype=float)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise NotSquare(f"base must be a square matrix, got shape {base.shape}")
        dirs = [np.asarray(d, dtype=float) for d in self.directions]
        if len(dirs) != len(self.box):
            raise UnsupportedFamily(
                f"got {len(dirs)} direction matrices for a {len(self.box)}-dimensional box"
            )
        if any(d.shape != base.shape for d in dirs):
            raise DimensionMismatch(f"every direction matrix must have the base's shape {base.shape}")
        dirs = np.array(dirs).reshape(len(dirs), *base.shape)
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if len(box) == 0:
            raise EmptyGrid("parameter box must have at least one dimension")
        # a bound or a volume past the float range makes every node weight NaN
        if not all(math.isfinite(lo) and math.isfinite(hi) for lo, hi in box):
            raise UnboundedBox(f"parameter box bounds must be finite, got {box}")
        if not math.isfinite(math.prod(hi - lo for lo, hi in box)):
            raise UnboundedBox(f"parameter box volume overflows the float range: {box}")
        if any(hi < lo for lo, hi in box):
            raise EmptyGrid(f"parameter box has an empty dimension: {box}")
        if self.grid_res < 1:
            raise EmptyGrid(f"grid_res must be >= 1, got {self.grid_res}")
        if self.grid_res ** len(box) > NODE_CAP:
            raise GridTooLarge(
                f"grid_res^dim = {self.grid_res ** len(box)} exceeds the node cap {NODE_CAP}"
            )
        nodes, weights = _materialize(box, self.prior, self.grid_res)
        sigmas = np.repeat(base[None], len(nodes), axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            for t, d in zip(nodes.T, dirs):
                sigmas = sigmas + t[:, None, None] * d
        for name, value in (("base", base), ("directions", dirs), ("box", box), ("nodes", nodes),
                            ("node_weights", weights), ("node_sigmas", validate_covariance(sigmas))):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.node_sigmas.shape[1]


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
        dens = np.asarray(prior(nodes), dtype=float)
        if dens.shape != (len(nodes),):
            raise NoPrior(f"prior density must give one value per node, {len(nodes)}, got shape {dens.shape}")
        if not (np.isfinite(dens).all() and np.min(dens) >= 0.0):
            raise NoPrior("prior density must be finite and nonnegative")
        raw = dens * vol
    else:
        raise NoPrior(f"prior must be None, 'uniform', or a callable density, got {prior!r}")
    total = float(np.sum(raw))
    if not 0.0 < total < math.inf:   # NaN fails too
        raise NoPrior(f"prior mass on the grid must be positive and finite, got {total}")
    return nodes, raw / total


@dataclass(frozen=True)
class AmbiguityPartition:
    """The ambiguity atoms of one sampling set, one row per atom.

    An atom holds the family members whose sampled block agrees; its sampled
    block of ``sigma`` is its representative.
    """

    sampled: SamplingSet              # the sampling set the atoms were found for
    members: tuple[tuple[int, ...], ...]   # each atom's node indices into the family grid, ascending
    sigma: np.ndarray                 # (atoms, m, m): covariance averaged over each atom's members, exactly symmetric
    weights: np.ndarray | None        # (atoms,): prior mass of each atom, None when the family has no prior


def project_family(family: ParamFamily, sampled) -> AmbiguityPartition:
    """Split the family grid into ambiguity atoms of the sampling set.

    A node's sampled block is B_AA + sum_d t_d (D_d)_AA.  A direction is
    *seen* when its sampled block (D_d)_AA has a nonzero entry and the node
    coordinates along it are not all equal, and *hidden* otherwise: a hidden
    direction adds the same block to every node.  When the seen blocks are
    linearly independent, two nodes have the same sampled block exactly when
    their coordinates on the seen axes are equal, so those coordinates name
    the atoms.  When they are dependent (``np.linalg.matrix_rank`` at its
    default tolerance, of the blocks each divided by its largest absolute
    entry, falls short of their count), the sampled block stays fixed along
    oblique fibres of the box, which the grid does not follow, and the family
    is refused.  Each atom carries its members' covariance averaged once,
    prior-weighted or, without a prior, uniformly; the sum runs member by
    member, so every entry is rounded alike, the average is as symmetric as
    the members, and a block of the average is the average of that block.
    Atoms are ordered by their lowest member node, and each atom's members
    ascend, so the split is deterministic.
    """
    ss = as_sampling_set(sampled)
    ss.complement(family.m)   # refuses a label above m before any index is read
    a = ss.zero_based()
    dims = len(family.box)
    blocks = family.directions[np.ix_(np.arange(dims), a, a)].reshape(dims, -1)
    seen = [d for d, (t, block) in enumerate(zip(family.nodes.T, blocks)) if block.any() and t.min() < t.max()]
    unit = blocks[seen] / np.abs(blocks[seen]).max(axis=1, keepdims=True)   # so no block's scale hides another
    if np.linalg.matrix_rank(unit) < len(seen):
        raise UnsupportedFamily(
            f"directions {[d + 1 for d in seen]} move the sampled block of components {list(ss.indices)}"
            " along linearly dependent directions, so its atoms are oblique fibres of the box, which the"
            " grid does not follow; such families are not supported"
        )
    node_root = np.unique(family.nodes[:, seen], axis=0, return_inverse=True)[1].ravel()   # a root per seen point
    by_root = np.argsort(node_root, kind="stable")   # atom by atom, each atom's nodes ascending
    sorted_root = node_root[by_root]
    bounds = np.flatnonzero(sorted_root[1:] != sorted_root[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(by_root)]))
    weights = family.node_weights
    members = []
    sigma = np.empty((len(starts), family.m, family.m))
    atom_weights = None if weights is None else np.empty(len(starts))
    for i, g in enumerate(np.argsort(by_root[starts]).tolist()):   # atoms by their lowest member node
        nodes = by_root[starts[g] : ends[g]]
        members.append(tuple(nodes.tolist()))
        if weights is not None:
            w = weights[nodes]
            wsum = atom_weights[i] = float(np.sum(w))
            member_w = w / wsum if wsum > 0 else np.full(len(nodes), 1.0 / len(nodes))
            sigma[i] = np.sum(member_w[:, None, None] * family.node_sigmas[nodes], axis=0)
        else:
            sigma[i] = family.node_sigmas[nodes].mean(axis=0)
    return AmbiguityPartition(ss, tuple(members), sigma, atom_weights)


def atom_spectra(part: AmbiguityPartition) -> Spectrum:
    """Floor and weighted spectrum of every atom, stacked in atom order, from one reduction.

    Within an atom the sampled data cannot tell the members apart, so the
    unsampled components are estimated linearly with the averaged cross
    terms: each atom is the known-law problem of its averaged ``sigma``.  A
    single-member atom's average is that member, so its row is the member's
    own curve.
    """
    return _block_spectrum(*_blocks(part.sigma, part.sampled.zero_based()))


def bayes_curve(spectra: Spectrum, weights, deltas) -> RateCurve:
    """Bayesian universal curve at ``deltas`` (a float or an array), from stacked atom spectra and masses.

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
    nothing is evaluated.  Atom a's share of the distortion at common rate r
    is entry a of ``spectra.distortion(r)``.
    """
    if weights is None:
        raise NoPrior("the Bayesian curve needs a prior on the family")
    deltas = np.asarray(deltas, dtype=float)
    if not np.all(np.isfinite(deltas)):
        raise BudgetOutOfRange(f"distortion must be finite, got {deltas}")
    w = np.asarray(weights, dtype=float)
    modes = Spectrum(0.0, spectra.lambdas)   # each atom's distortion above its floor
    dmin = float(sum(w * spectra.delta_min))
    dmax = float(sum(w * spectra.delta_max))
    if np.any(deltas <= dmin):
        raise InfeasibleDistortion(
            f"delta {np.min(deltas)} is at or below the prior-averaged floor {dmin}"
        )
    target = deltas.ravel() - dmin
    rates = np.zeros(len(target))
    live = deltas.ravel() < dmax * (1.0 - 1e-12)   # from there on the rate is zero
    while np.any(live):
        r = rates[live]
        excess = modes.distortion(r[:, None])
        e = excess @ w
        step = np.log(e / target[live]) * e / (2.0 * math.log(2.0) * (modes.level(excess) @ w))
        nxt = np.minimum(r + step, RATE_CAP_BITS)
        grew = nxt > r
        rates[live] = np.where(grew, nxt, r)
        live[live] = grew & (nxt < RATE_CAP_BITS)
    return _rate_curve(rates.reshape(deltas.shape), deltas, dmin, dmax)


def bayes_usrdf(family: ParamFamily, sampled, delta) -> RateCurve:
    """Bayesian universal curve at prior-average distortion ``delta`` (a float or an array).

    The common rate is the root of sum_a w_a D_a(r) = delta, found by Newton's
    method on the logarithm of the averaged distortion above the floor, which
    is convex in r (see ``bayes_curve``), so the iterates rise to the root.
    """
    part = project_family(family, sampled)
    return bayes_curve(atom_spectra(part), part.weights, delta)


def nonbayes_spectra(family: ParamFamily, part: AmbiguityPartition) -> Spectrum:
    """One spectrum per atom, stacked; the worst-case curve is their largest rate.

    Supported exactly when every atom is a single member (each atom then has
    its own known spectrum), or for the fixed-variance correlation family,
    recognized from its matrices: one direction, base sigma2 I and direction
    sigma2 off the diagonal, both equal exactly.  Sampled at one component,
    a member of correlation r has the floor sigma2 (1 - r^2) and one mode
    sigma2 (1 + r^2), so its rate at delta < 2 sigma2,
    1/2 log2(sigma2 (1 + r^2) / (delta - sigma2 (1 - r^2))), falls as r^2
    grows: the worst member is the box's correlation nearest 0.
    """
    if all(len(nodes) == 1 for nodes in part.members):
        return atom_spectra(part)
    sigma2 = family.base[0, 0]
    if (len(family.directions) == 1 and np.array_equal(family.base, sigma2 * np.eye(2))
            and np.array_equal(family.directions[0], [[0.0, sigma2], [sigma2, 0.0]])):
        if part.sampled.k != 1:
            raise UnsupportedFamily(
                "the fixed-variance correlation family supports m=2 with one sampled component"
            )
        [(r_lo, r_hi)] = family.box
        r = min(max(0.0, r_lo), r_hi)
        return Spectrum(np.array([sigma2 * (1.0 - r ** 2)]), np.array([[sigma2 * (1.0 + r ** 2)]]))
    raise UnsupportedFamily(
        "worst-case curve is implemented for all-singleton atoms or the fixed-variance"
        " correlation family only"
    )


def nonbayes_curve(spectra: Spectrum, deltas) -> RateCurve:
    """Worst-case universal curve at ``deltas`` (a float or an array) over stacked atom spectra."""
    deltas = np.asarray(deltas, dtype=float)
    rates = np.max(spectra.rate(deltas[..., None]), axis=-1)
    return _rate_curve(rates, deltas, float(np.max(spectra.delta_min)), float(np.max(spectra.delta_max)))


def nonbayes_usrdf(family: ParamFamily, sampled, delta) -> RateCurve:
    """Non-Bayesian universal curve: worst-case rate over ambiguity atoms (see nonbayes_spectra)."""
    part = project_family(family, sampled)
    return nonbayes_curve(nonbayes_spectra(family, part), delta)


def fixed_var_corr_family(
    sigma2: float,
    r_lo: float,
    r_hi: float,
    prior="uniform",
    grid_res: int = GRID_RES_DEFAULT,
) -> ParamFamily:
    """Two exchangeable components with fixed variance and correlation in [r_lo, r_hi]:
    base sigma2 I and one direction with sigma2 off the diagonal."""
    if sigma2 <= 0.0:
        raise UnsupportedFamily(f"variance must be positive, got {sigma2}")
    s = float(sigma2)
    return ParamFamily(np.array([[s, 0.0], [0.0, s]]), [np.array([[0.0, s], [s, 0.0]])], ((r_lo, r_hi),),
                       prior, grid_res)


def affine_family(
    base,
    directions,
    box,
    prior=None,
    grid_res: int = GRID_RES_DEFAULT,
) -> ParamFamily:
    """Family sigma(tau) = base + sum_d tau_d * directions[d]; every node must stay PD."""
    return ParamFamily(base, directions, box, prior, grid_res)
