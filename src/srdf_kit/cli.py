"""Command line front end.

Every task reads one YAML config and writes its artifacts into the output
directory: curves as CSV (comma separated, 9 significant digits, LF, UTF-8)
and a JSON summary carrying the feasible range, spectrum, and tool/seed
metadata.  Numbers in configs and outputs use 1-based component labels.
A family's ``box`` is a list of [lo, hi] pairs under either template (one
pair for ``fixed-var-corr``); a ``sim`` block takes the fields of SimConfig.

Exit codes: 0 on success; on a package error, 3 when it is numerical (a
procedure failed on valid inputs) and 2 for any other.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import operator
import os
import stat
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ConfigParse, GridTooLarge, InfeasibleDistortion, NumericalError, SrdfKitError, ValidationError
from .model import CovarianceModel, SamplingSet
from .srdf import _rate_curve, max_distortion, srdf_spectrum

# Each front end (field, setopt, universal, simulate) is imported by the parse helpers and runners
# that use it, so a task compiles only its own.

GRID_CAP = 100_000  # most points a curve's grid may hold; checked before the grid is built
CSV_BLOCK_ROWS = 512   # rows formatted by one "%"; bounds the Python objects and text one block holds


@contextlib.contextmanager
def _create(path: Path):
    """``path`` opened for writing as UTF-8 text with LF line ends; a path that cannot be opened is a
    ValidationError naming it.

    An existing file is written over in place and then cut to the bytes written, so it ends as a fresh
    file would, even when the write fails midway.  Truncating it on open instead would free its blocks
    first, which costs several times the write on a filesystem that discards freed blocks.  A file that
    is not regular, such as a link to /dev/null, is never cut.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc
    with open(fd, "w", newline="\n", encoding="utf-8") as fh:
        try:
            yield fh
        finally:
            try:
                fh.flush()
            finally:   # a flush that fails still leaves only what reached the file
                st = os.fstat(fd)
                if stat.S_ISREG(st.st_mode) and st.st_size > (end := os.lseek(fd, 0, os.SEEK_CUR)):
                    os.ftruncate(fd, end)


def _write_csv(path: Path, header: list[str], template: str, columns) -> None:
    """Write ``columns`` under ``header``, row i formatted by ``template`` from row i of every column.

    A column is 1-D, one cell per row, or 2-D, a run of cells per row (a
    subset's labels).  Each block of CSV_BLOCK_ROWS rows is turned into
    Python ints, floats and strings column by column ("%d" of an int formats
    faster than of a float, and "%.9g" writes what ``f"{x:.9g}"`` does) and
    formatted by one ``%``, so no Python object is built per row.
    """
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    row = template + "\n"
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = np.hstack([c[lo : lo + CSV_BLOCK_ROWS].astype(object) for c in columns])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_json(path: Path, payload: dict) -> None:
    with _create(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def _need(cfg: dict, key: str) -> object:
    if key not in cfg:
        raise ConfigParse(f"config is missing the '{key}' block")
    return cfg[key]


def _scalar(block: dict, key: str, kind, default=None):
    """``block[key]``, or ``default`` when given and the key is absent, as a float
    (``kind`` float), an integer (``kind`` int, whole numbers only) or a bool."""
    if key not in block and default is None:
        raise ConfigParse(f"config is missing '{key}'")
    value = block.get(key, default)
    what = {bool: "true or false", int: "an integer"}.get(kind, "a number")
    if isinstance(value, bool) != (kind is bool):   # YAML true/false are not numbers here
        raise ConfigParse(f"'{key}' must be {what}, got {value!r}")
    if kind is bool:
        return value
    try:
        return operator.index(value) if kind is int else float(value)
    except (TypeError, ValueError, OverflowError) as exc:   # OverflowError: an integer past the float range
        raise ConfigParse(f"'{key}' must be {what}, got {value!r}") from exc


def _seed(value):
    """A seed from the config or the command line, which must be an integer >= 0."""
    if value is None or value < 0:
        raise ConfigParse(f"a seed must be a nonnegative integer, got {value}")
    return value


def _holds(values, kind) -> bool:
    return isinstance(values, kind) or isinstance(values, list) and any(_holds(v, kind) for v in values)


def _floats(values, what: str, ndim: int | None = None) -> np.ndarray:
    """A config list as a float array, with ``ndim`` axes when given.  YAML true/false and null are
    not numbers here."""
    if _holds(values, bool):
        raise ConfigParse(f"{what} must be numeric, got true or false")
    if _holds(values, type(None)):
        raise ConfigParse(f"{what} must be numeric, got null")
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigParse(f"{what} must be numeric and rectangular: {exc}") from exc
    if ndim is not None and array.ndim != ndim:
        raise ConfigParse(f"{what} must be a list nested {ndim} deep, got shape {array.shape}")
    return array


def _load_config(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            # libyaml's parser when pyyaml was built with it, else the pure-Python
            # one; both build values with the same safe constructor and resolver
            cfg = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigParse(f"config {path} is not valid YAML: {exc}") from exc
    except ValueError as exc:   # an integer past Python's digit limit for int(str)
        raise ConfigParse(f"config {path} holds a value that cannot be read: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigParse(f"config {path} must be a mapping at the top level")
    return cfg


def _load_matrix(block: dict, base: Path, inline_key: str, csv_key: str) -> np.ndarray:
    if inline_key in block:
        return _floats(block[inline_key], f"'{inline_key}'")
    if csv_key in block:
        path = base / str(block[csv_key])
        try:
            return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
        except (OSError, ValueError) as exc:
            raise ConfigParse(f"cannot read matrix from {path}: {exc}") from exc
    raise ConfigParse(f"matrix block needs '{inline_key}' or '{csv_key}'")


def _parse_model(cfg: dict, base: Path) -> CovarianceModel:
    block = _need(cfg, "model")
    if not isinstance(block, dict):
        raise ConfigParse("'model' must be a mapping")
    return CovarianceModel(_load_matrix(block, base, "sigma", "sigma_csv"))


def _parse_sampling(cfg: dict) -> SamplingSet:
    block = _need(cfg, "sampling")
    if not isinstance(block, (list, tuple)):
        raise ConfigParse("'sampling' must be a list of 1-based component labels")
    return SamplingSet(block)


def _parse_grid(cfg: dict, key: str = "grid") -> np.ndarray:
    block = _need(cfg, key)
    if not isinstance(block, dict):
        raise ConfigParse(f"'{key}' must be a mapping with min, max, count")
    lo, hi = _scalar(block, "min", float), _scalar(block, "max", float)
    count = _scalar(block, "count", int)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigParse(f"'{key}' needs finite min and max, got {lo} and {hi}")
    if count < 1 or hi < lo:
        raise ConfigParse(f"'{key}' must have count >= 1 and max >= min")
    if not math.isfinite(hi - lo):   # np.linspace would step by inf and hand on NaN points
        raise ConfigParse(f"'{key}' spans max - min = {hi - lo}, which must be finite")
    if count > GRID_CAP:
        raise GridTooLarge(f"'{key}' count {count} exceeds the cap {GRID_CAP}")
    return np.linspace(lo, hi, count)


def _parse_field(cfg: dict, base: Path):
    from .field import QUAD_POINTS_DEFAULT, FieldModel, GaussMarkovKernel, TabulatedKernel

    block = _need(cfg, "field")
    if not isinstance(block, dict) or "kernel" not in block:
        raise ConfigParse("'field' must be a mapping with a 'kernel' block")
    kb = block["kernel"]
    if not isinstance(kb, dict) or "type" not in kb:
        raise ConfigParse("'field.kernel' needs a 'type'")
    ktype = str(kb["type"])
    if ktype == "gauss-markov":
        kernel = GaussMarkovKernel(p=_scalar(kb, "p", float))
    elif ktype == "tabulated":
        if "mesh_csv" not in kb:
            raise ConfigParse("tabulated kernel needs 'mesh_csv'")
        kernel = TabulatedKernel.from_mesh_csv(base / str(kb["mesh_csv"]))
    else:
        raise ConfigParse(f"unknown kernel type {ktype!r}")
    return FieldModel(kernel=kernel, quad_points=_scalar(block, "quad_points", int, QUAD_POINTS_DEFAULT))


def _parse_points(cfg: dict):
    from .field import FieldSamplingSet

    return FieldSamplingSet(_floats(_need(cfg, "points"), "'points'", 1).tolist())


def _parse_family(cfg: dict, base: Path):
    from .universal import GRID_RES_DEFAULT, affine_family, fixed_var_corr_family

    block = _need(cfg, "family")
    if not isinstance(block, dict) or "template" not in block:
        raise ConfigParse("'family' must be a mapping with a 'template'")
    template = str(block["template"])
    prior = block.get("prior")
    if prior is not None and prior != "uniform":
        raise ConfigParse("config priors support 'uniform' or omit for none")
    grid_res = _scalar(block, "grid_res", int, GRID_RES_DEFAULT)
    if template not in ("fixed-var-corr", "affine"):
        raise ConfigParse(f"unknown family template {template!r}")
    if "box" not in block:
        raise ConfigParse(f"{template} family needs 'box' as a list of [lo, hi] pairs")
    # an empty box reaches the family, which refuses it by its count of directions
    box = np.empty((0, 2)) if block["box"] == [] else _floats(block["box"], "'box'", 2)
    if box.shape[1] != 2:
        raise ConfigParse(f"'box' must be a list of [lo, hi] pairs, got shape {box.shape}")
    if template == "fixed-var-corr":
        if len(box) != 1:
            raise ConfigParse(f"fixed-var-corr family has one parameter, so 'box' must be one pair, got {len(box)}")
        [[r_lo, r_hi]] = box.tolist()
        return fixed_var_corr_family(
            sigma2=_scalar(block, "sigma2", float), r_lo=r_lo, r_hi=r_hi, prior=prior, grid_res=grid_res
        )
    base_mat = _load_matrix(block, base, "base", "base_csv")
    dirs = block.get("directions")
    if not isinstance(dirs, list) or not dirs:
        raise ConfigParse("affine family needs a list of 'directions' matrices")
    return affine_family(
        base=base_mat,
        directions=[_floats(d, "affine 'directions'") for d in dirs],
        box=box.tolist(),
        prior=prior,
        grid_res=grid_res,
    )


def _parse_objective(block: dict):
    name = str(block.get("objective", "min_delta_min")).replace("-", "_")
    if name == "min_delta_min":
        return "min_delta_min"
    if name == "min_rate_at":
        if "delta" not in block:
            raise ConfigParse("objective min_rate_at needs 'delta'")
        delta = _scalar(block, "delta", float)
        if not math.isfinite(delta):
            raise ConfigParse(f"objective min_rate_at needs a finite 'delta', got {delta}")
        return ("min_rate_at", delta)
    raise ConfigParse(f"unknown objective {name!r}")


def _parse_sim(cfg: dict, seed_override: int | None):
    from .simulate import _FIELD_KINDS, SimConfig

    block = _need(cfg, "sim")
    if not isinstance(block, dict):
        raise ConfigParse("'sim' must be a mapping")
    unknown = set(block) - set(_FIELD_KINDS)
    if unknown:
        raise ConfigParse(f"unknown sim keys: {sorted(unknown)}")
    for key, kind in _FIELD_KINDS.items():
        if kind is float and isinstance(block.get(key), bool):   # a float is kept as written, so a report echoes it
            raise ConfigParse(f"'{key}' must be a number, got {block[key]!r}")
    merged = {
        key: value if value is None or _FIELD_KINDS[key] is float else _scalar(block, key, _FIELD_KINDS[key])
        for key, value in block.items()
    }
    if seed_override is not None:
        merged["seed"] = seed_override
    _seed(merged.get("seed", 0))
    try:
        return SimConfig(**merged)
    except TypeError as exc:
        raise ConfigParse(f"bad sim block: {exc}") from exc


def _meta(task: str, seed) -> dict:
    return {"task": task, "tool": "srdf-kit", "version": __version__, "seed": seed}


def _run_curve(cfg, base, out, args):
    """``srdf``, ``distrate`` and ``gmf-srdf``: one spectrum, then the whole grid through it."""
    if args.task == "gmf-srdf":
        from .field import field_gram, field_max_distortion, field_srdf_spectrum

        fm = _parse_field(cfg, base)
        pts = _parse_points(cfg)
        grid = _parse_grid(cfg)
        spec, delta_max = field_srdf_spectrum(fm, pts), field_max_distortion(fm)
        summary = {"points_sampled": list(pts.points), "gram": field_gram(fm, pts).tolist(),
                   "integrals": fm.integrals}
    else:
        model = _parse_model(cfg, base)
        ss = _parse_sampling(cfg)
        grid = _parse_grid(cfg)
        spec, delta_max = srdf_spectrum(model, ss), max_distortion(model)
        summary = {"m": model.m, "sampling": list(ss.indices), "points": len(grid)}
    if args.task == "distrate":
        _write_csv(out / "curve.csv", ["rate_bits", "delta"], "%.9g,%.9g", [grid, spec.distortion(grid)])
    else:
        rates = _rate_curve(spec.rate(grid), grid, spec.delta_min, delta_max).rate_bits
        _write_csv(out / "curve.csv", ["delta", "rate_bits"], "%.9g,%.9g", [grid, rates])
    summary.update(
        _meta(args.task, args.seed),
        delta_min=spec.delta_min,
        delta_max=delta_max,
        eigenvalues=[float(x) for x in spec.lambdas],
    )
    _write_json(out / "summary.json", summary)


def _run_optimize_set(cfg, base, out, args):
    from .setopt import best_fixed_set

    model = _parse_model(cfg, base)
    block = _need(cfg, "search")
    if not isinstance(block, dict) or "k" not in block:
        raise ConfigParse("'search' must be a mapping with 'k'")
    objective = _parse_objective(block)
    result = best_fixed_set(model, _scalar(block, "k", int), objective)
    if math.isinf(result.value):
        raise InfeasibleDistortion(f"no subset meets the objective {result.objective}")
    columns = [result.subsets, result.delta_min]
    template = " ".join(["%d"] * result.best.k) + ",%.9g,"
    if result.rate_bits is not None:
        columns.append(result.rate_bits)
        template += "%.9g"
    _write_csv(out / "table.csv", ["subset", "delta_min", "rate_bits"], template, columns)
    summary = _meta("optimize-set", args.seed)
    summary.update(
        {
            "m": model.m,
            "objective": result.objective,
            "best_subset": list(result.best.indices),
            "best_value": result.value,
            "subsets": len(result.subsets),
        }
    )
    _write_json(out / "summary.json", summary)


def _run_place(cfg, base, out, args):
    from .field import optimize_placement

    fm = _parse_field(cfg, base)
    block = _need(cfg, "placement")
    if not isinstance(block, dict) or "k" not in block:
        raise ConfigParse("'placement' must be a mapping with 'k'")
    objective = _parse_objective(block)
    k = _scalar(block, "k", int)
    restarts = _scalar(block, "restarts", int, 16)
    pin_endpoints = _scalar(block, "pin_endpoints", bool, False)
    seed = args.seed if args.seed is not None else _seed(_scalar(block, "seed", int, 0))
    result = optimize_placement(fm, k, objective, restarts=restarts, pin_endpoints=pin_endpoints, seed=seed)
    if math.isinf(result.value):
        raise InfeasibleDistortion(f"no placement meets the objective {result.objective}")
    pts = result.points
    _write_csv(out / "points.csv", ["index", "position"], "%d,%.9g", [np.arange(len(pts)), pts])
    # the exact solver draws nothing, so only the search records the seed it ran from
    summary = _meta("place", seed if result.solver == "search" else args.seed)
    summary.update(
        {
            "objective": result.objective,
            "points": [float(p) for p in result.points],
            "value": result.value,
            "solver": result.solver,
            **({"restarts": result.restarts,
                "objective_calls": result.objective_calls,
                # an infeasible restart is written as null, as is its gradient norm
                "restart_values": [v if math.isfinite(v) else None for v in result.restart_values],
                "restart_iterations": list(result.restart_iterations),
                "restart_gradient_norms": [g if math.isfinite(g) else None for g in result.restart_gradient_norms]}
               if result.solver == "search" else {}),
            "integrals": fm.integrals,
        }
    )
    _write_json(out / "summary.json", summary)


def _run_usrdf(cfg, base, out, args):
    from .universal import atom_spectra, bayes_curve, nonbayes_curve, nonbayes_spectra, project_family

    family = _parse_family(cfg, base)
    ss = _parse_sampling(cfg)
    deltas = _parse_grid(cfg)
    part = project_family(family, ss)
    bayes = args.task == "usrdf-bayes"
    if bayes:
        spectra = atom_spectra(part)
        curve = bayes_curve(spectra, part.weights, deltas)
    else:
        curve = nonbayes_curve(nonbayes_spectra(family, part), deltas)
    _write_csv(out / "curve.csv", ["delta", "rate_bits"], "%.9g,%.9g", [deltas, curve.rate_bits])
    if bayes:
        alloc = spectra.distortion(curve.rate_bits[:, None])   # one row per delta, one column per atom
        _write_csv(
            out / "allocation.csv",
            ["delta", "atom", "delta_atom"],
            "%.9g,%d,%.9g",
            [np.repeat(deltas, alloc.shape[1]), np.tile(np.arange(alloc.shape[1]), len(deltas)), alloc.ravel()],
        )
    summary = _meta(args.task, args.seed)
    summary.update(
        {
            "sampling": list(ss.indices),
            "atoms": len(part.members),
            "atom_weights": None if part.weights is None else part.weights.tolist(),
            "grid_nodes": len(family.nodes),
            "delta_min": curve.delta_min,
            "delta_max": curve.delta_max,
        }
    )
    _write_json(out / "summary.json", summary)


def _run_sim(cfg, base, out, args):
    """``simulate`` and ``usim``: the two-step scheme on a known law or on a family."""
    from .simulate import two_step_code, universal_two_step

    parse, scheme = (_parse_model, two_step_code) if args.task == "simulate" else (_parse_family, universal_two_step)
    source = parse(cfg, base)
    ss = _parse_sampling(cfg)
    sim = _parse_sim(cfg, args.seed)
    report = scheme(source, ss, sim)
    _write_json(out / "report.json", {**_meta(args.task, sim.seed), "report": report.to_dict()})
    trace = report.block_trace
    if trace is not None:
        _write_csv(
            out / "trace.csv",
            ["block", "total_mse", "weighted_mse", "lift_mse"],
            "%d,%.9g,%.9g,%.9g",
            [np.arange(len(trace)), trace],
        )


_HANDLERS = {
    "srdf": _run_curve,
    "distrate": _run_curve,
    "gmf-srdf": _run_curve,
    "optimize-set": _run_optimize_set,
    "place": _run_place,
    "usrdf-bayes": _run_usrdf,
    "usrdf-nonbayes": _run_usrdf,
    "simulate": _run_sim,
    "usim": _run_sim,
}
TASKS = tuple(_HANDLERS)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept for the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="srdf-kit",
        description="Rate distortion curves and coding experiments for sampled Gaussian sources.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="YAML config file")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.seed is not None:
            _seed(args.seed)
        config_path = Path(args.config)
        cfg = _load_config(config_path)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:   # a file at the path or above it
            raise ValidationError(f"cannot create the output directory {out}: {exc.strerror}") from exc
        _HANDLERS[args.task](cfg, config_path.parent, out, args)
    except SrdfKitError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2
    print(f"wrote {out.absolute()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
