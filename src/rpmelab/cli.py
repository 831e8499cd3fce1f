"""Experiment driver: flat-file configuration, six subcommands, and bit-exact
artifact output (binary snapshot records, CSV estimate reports, a manifest
with content digests).

Exit codes: 0 all hard-bound reports passed, 1 at least one failed, 2 missing
input file, 3 config schema violation (the offending key is named; every
stepping subcommand first resolves its step plan and checks it, see
``_preflight``), 4 numerical abort (a non-finite c or y, named with its step
and path, or a value derived from them; or a floating-point overflow while
stepping, also as the ``RuntimeWarning`` raised under ``-W error``), 5
unexpected internal error (the traceback is printed).  Outputs are staged in
a scratch directory next to the target and renamed into place only on
completion, so a failed run never leaves partial artifacts.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    EnergySums,
    EstimateReport,
    Frame,
    WeakSums,
    bump_time_profile,
    cauchy_refinement,
    epsilon_sweep,
    holder_report,
    linf_check,
    malliavin_report,
    malliavin_report_steps,
    sweep_plan,
    transform_report,
)
from .grid import BoundaryKind, build_grid, free_node_count
from .malliavin import propagate_path, seed_index
from .model import (
    initial_preset,
    make_coefficients,
    pme_beta,
    preset_coefficients,
    regularize_beta,
)
from .pathfile import MAX_FRAMES, DerivativePair, RecordWriter, record_bytes
from .simulate import (
    NumericalAbort,
    SchemaError,
    SimConfig,
    gen_wiener,
    interior_v_mass,
    path_bytes,
    prepare_initial,
    simulate_ensemble,
)
from .transform import build_transform_pair, degeneracy_weight


# ---------------------------------------------------------------------------
# configuration

Params = tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; equality is field-wise, so a config
    echoed through a manifest re-parses to an equal value."""

    dim: int = 1
    cells: int = 16
    t_final: float = 0.1
    theta: float = 0.5
    dt: float | None = None
    bc: str = "neumann"
    beta_kind: str = "pme"
    beta_m: float = 2.0
    beta_eps: float | None = None
    f_name: str = "zero"
    f_params: Params = ()
    a_name: str = "zero"
    a_params: Params = ()
    b_name: str = "zero"
    b_params: Params = ()
    initial_name: str = "cosine"
    initial_params: Params = ()
    y0: float = 0.0
    n_paths: int = 1
    seed: int = 0
    snapshot_stride: int = 0  # 0: pick max(1, n_steps // 256)
    workers: int = 1
    quad_refine: int = 4
    malliavin_fractions: tuple[float, ...] = (0.25, 0.5)
    lags: tuple[int, ...] = (8, 16, 32, 64, 128)
    levels: tuple[int, ...] = (16, 32, 64)
    eps_values: tuple[float, ...] = (1e-1, 2.5e-2, 6.25e-3)
    k_max: float = 2.0
    d_max: float = 2.0
    table_n: int = 200
    weight_cap: float = 1.0
    out: str = "rpmelab_out"


def _int(lo: int, hi: float = math.inf):
    def parse(key: str, text: str) -> int:
        try:
            val = int(text, 10)
        except ValueError:
            raise SchemaError(key, f"expected an integer, got {text!r}") from None
        if not lo <= val <= hi:
            raise SchemaError(key, f"{val} outside [{lo}, {hi}]")
        return val

    return parse


def _number(check=None):
    def parse(key: str, text: str) -> float:
        try:
            val = float(text)
        except ValueError:
            raise SchemaError(key, f"expected a number, got {text!r}") from None
        if not math.isfinite(val):
            raise SchemaError(key, "must be finite")
        if check is not None and not check(val):
            raise SchemaError(key, f"{val} out of range")
        return val

    return parse


def _choice(allowed):
    def parse(key: str, text: str) -> str:
        if text not in allowed:
            raise SchemaError(key, f"{text!r} not one of {sorted(allowed)}")
        return text

    return parse


def _path(key: str, text: str) -> str:
    if not text:
        raise SchemaError(key, "empty path")
    return text


def _list(one, order=lambda a, b: True, rule: str = "", at_least: int = 1):
    """Comma-separated ``one`` values; each neighbouring pair must satisfy
    ``order``, else ``rule`` is the error."""

    def parse(key: str, text: str) -> tuple:
        vals = tuple(one(key, s.strip()) for s in text.split(",") if s.strip())
        if len(vals) < at_least:
            raise SchemaError(key, f"{len(vals)} entries, needs at least {at_least}")
        if not all(order(a, b) for a, b in zip(vals, vals[1:])):
            raise SchemaError(key, rule)
        return vals

    return parse


_finite = _number()
_positive = _number(lambda v: v > 0.0)
_fraction = _number(lambda v: 0.0 < v < 1.0)

# preset namespace -> (name field, params field, config name -> library
# preset).  Parameters are the keys under the namespace, as in
# ``coeff.f.lambda``.
_PRESETS = {
    "coeff.f": ("f_name", "f_params", {"zero": "zero", "logistic": "logistic_f"}),
    "coeff.a": (
        "a_name", "a_params", {"zero": "zero", "linear": "linear_a", "saturating": "saturating_a"}
    ),
    "coeff.b": ("b_name", "b_params", {"zero": "zero", "coupling": "coupling_b"}),
    "initial.c": (
        "initial_name",
        "initial_params",
        {name: name for name in ("constant", "sine", "cosine", "bump", "barenblatt")},
    ),
}

# config key -> (RunConfig field, parser).  A parser takes (key, text) and
# returns the field value or raises a SchemaError naming the key.  The echo is
# the field's value as text, so a key is written only here or in _PRESETS.
_KEYS = {
    "dim": ("dim", _int(1, 3)),
    "cells": ("cells", _int(2, 1024)),
    "t_final": ("t_final", _positive),
    "theta": ("theta", _number(lambda v: 0.0 < v <= 1.0)),
    "dt": ("dt", _positive),
    "bc": ("bc", _choice(("dirichlet", "neumann"))),
    "initial.y": ("y0", _number(lambda v: v >= 0.0)),
    "n_paths": ("n_paths", _int(1)),
    # the .rpme1 header and the Philox key both hold the seed as a u64
    "seed": ("seed", _int(0, 2**64 - 1)),
    "snapshot_stride": ("snapshot_stride", _int(0)),
    "workers": ("workers", _int(1)),
    "quad_refine": ("quad_refine", _int(1)),
    "malliavin.fractions": ("malliavin_fractions", _list(_fraction)),
    "stats.lags": ("lags", _list(_int(1), lambda a, b: b > a, "must increase")),
    "converge.levels": ("levels", _list(_int(2), lambda a, b: b == 2 * a, "must double", 2)),
    "sweep.eps": ("eps_values", _list(_fraction, lambda a, b: b < a, "must strictly decrease")),
    "transform.k_max": ("k_max", _positive),
    "transform.d_max": ("d_max", _positive),
    "transform.n": ("table_n", _int(8)),
    "transform.cap": ("weight_cap", _positive),
    "out": ("out", _path),
    # a namespace's own key names its preset
    **{ns: (field, _choice(names)) for ns, (field, _, names) in _PRESETS.items()},
}


def _parse_beta(text: str) -> tuple[str, float, float | None]:
    kind, *nums = text.split(":")
    if (kind, len(nums)) not in (("pme", 1), ("regularized", 2)):
        raise SchemaError("beta", f"expected 'pme:m' or 'regularized:m:eps', got {text!r}")
    m = _number(lambda v: v > 1.0)("beta", nums[0])
    return kind, m, _fraction("beta", nums[1]) if kind == "regularized" else None


def config_from_mapping(mapping: dict[str, str]) -> RunConfig:
    """Build and validate a RunConfig from flat key -> string pairs."""
    kw: dict = {}
    params: dict[str, dict[str, float]] = {ns: {} for ns in _PRESETS}
    for key, raw in mapping.items():
        ns, _, name = key.rpartition(".")
        if key in _KEYS:
            field, parse = _KEYS[key]
            kw[field] = parse(key, raw)
        elif key == "beta":
            kw["beta_kind"], kw["beta_m"], kw["beta_eps"] = _parse_beta(raw)
        elif ns in _PRESETS:
            params[ns][name] = _finite(key, raw)
        else:
            raise SchemaError(key, "unknown key")
    for ns, (_, params_field, _) in _PRESETS.items():
        kw[params_field] = tuple(sorted(params[ns].items()))

    cfg = RunConfig(**kw)
    # construct every referenced preset once, so bad parameters surface at
    # load time with the namespace that carried them
    _coefficients(cfg)
    _initial(cfg)
    return cfg


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, val in pairs:
        if key in doc:
            raise SchemaError(key, "duplicate key")
        doc[key] = val
    return doc


def load_config(path: str | os.PathLike) -> RunConfig:
    """Parse a flat key=value file ('#' comments) or a JSON object."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise SchemaError("<json>", f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise SchemaError("<json>", "top level must be an object")
        mapping = {}
        for key, val in doc.items():
            if isinstance(val, bool) or val is None:
                raise SchemaError(str(key), "booleans and nulls are not config values")
            if isinstance(val, list):
                mapping[str(key)] = ",".join(_text(v) for v in val)
            else:
                mapping[str(key)] = _text(val)
        return config_from_mapping(mapping)
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(line.split()[0], f"line {lineno} is not key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in mapping:
            raise SchemaError(key, f"duplicate key at line {lineno}")
        mapping[key] = value
    return config_from_mapping(mapping)


def _text(v) -> str:
    """Config text of a value: floats by repr, tuples comma-joined."""
    if isinstance(v, tuple):
        return ",".join(_text(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def config_echo(cfg: RunConfig) -> dict[str, str]:
    """Flat key -> string form re-parsing to an equal RunConfig."""
    values = {key: getattr(cfg, field) for key, (field, _) in _KEYS.items()}
    out = {key: _text(v) for key, v in values.items() if v is not None}
    beta = (cfg.beta_kind, cfg.beta_m, cfg.beta_eps)
    out["beta"] = ":".join(_text(v) for v in beta if v is not None)
    for ns, (_, params_field, _) in _PRESETS.items():
        for name, value in getattr(cfg, params_field):
            out[f"{ns}.{name}"] = _text(value)
    return out


# ---------------------------------------------------------------------------
# config -> model objects


def _beta_family(cfg: RunConfig):
    if cfg.beta_kind == "pme":
        return pme_beta(cfg.beta_m)
    return regularize_beta(cfg.beta_m, cfg.beta_eps)


def _preset(cfg: RunConfig, ns: str, build):
    """``build(library preset, params)`` for the preset ``cfg`` names in
    namespace ``ns``; bad parameters raise a SchemaError naming ``ns``."""
    name_field, params_field, presets = _PRESETS[ns]
    try:
        return build(presets[getattr(cfg, name_field)], dict(getattr(cfg, params_field)))
    except ValueError as exc:
        raise SchemaError(ns, str(exc)) from None


def _coefficients(cfg: RunConfig):
    """The coefficient set of a config; ``coeff.f`` fills the slot ``f``."""
    terms = {
        ns.removeprefix("coeff."): _preset(cfg, ns, preset_coefficients)
        for ns in _PRESETS
        if ns.startswith("coeff.")
    }
    return make_coefficients(_beta_family(cfg), **terms)


def _initial(cfg: RunConfig):
    return _preset(cfg, "initial.c", lambda name, pars: initial_preset(name, cfg.dim, pars))


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _free_disk(path) -> int:
    return shutil.disk_usage(path).free


def _preflight(cfg: RunConfig, floats: int = 0, key: str = "cells", *, radius: bool = False,
               stride: bool = False, record: bool = False, plan_of=SimConfig.plan):
    """(SimConfig, initial c preset, step plan ``plan_of(config, c0_max)`` at the initial c's max, frames of
    a path's record) of a run on the grid of ``key`` (``converge.levels``: its finest entry), before anything
    is allocated.  Refused naming ``key`` when one path's step state exceeds physical memory; naming t_final
    for a growth radius the run reads (``radius``) that overflows; naming the plan's key for a record of a
    frame a step (``record``) beyond its header, and for ``floats`` more a step that push it past memory;
    naming ``converge.levels`` when those and the frames the ladder holds of the two levels below its finest
    do; for ``stride``'s records (a frame every ``snapshot_stride`` or n_steps // 256 steps, streamed to disk,
    not held), naming snapshot_stride for more frames than a header counts, and out beyond the free disk."""
    grid = build_grid(cfg.dim, cfg.levels[-1] if key == "converge.levels" else cfg.cells)
    config = SimConfig(grid, _coefficients(cfg), BoundaryKind(cfg.bc), cfg.t_final, theta=cfg.theta, dt=cfg.dt)

    def fit(key: str, floats: int = 0) -> None:
        need = path_bytes(grid) + 8 * floats
        if need > _physical_memory():
            raise SchemaError(key, f"step state and {floats:.4g} floats ({need:.4g} bytes) exceed physical memory")

    fit(key)
    c0_fn = _initial(cfg)
    plan = plan_of(config, float(np.max(prepare_initial(config, c0_fn, cfg.y0)[0])))
    n = plan.n_steps
    if radius and not math.isfinite(plan.radius):
        raise SchemaError("t_final", f"the growth radius over {cfg.t_final!r} overflows")
    if record and n + 1 > MAX_FRAMES:
        raise SchemaError(plan.key, f"{n:.4g} steps, a record holds {MAX_FRAMES - 1}")
    if floats:
        fit(plan.key, (n + 1) * floats)
    if key == "converge.levels":
        # and the ladder's 5 + 1 frames of y a path, and of c (one row when the paths share it), on the two
        # grids below its finest: while the second-finest level runs, the level below it is held too
        rows = cfg.n_paths + (cfg.n_paths if config.coeffs.source.reads_y else 1)
        held = sum(build_grid(cfg.dim, m).n_nodes for m in cfg.levels[-3:-1])
        fit(key, (n + 1) * floats + 6 * rows * held)
    frames = 0
    if stride:
        # the steps are rounded up to a multiple of ceil(n / stride) snapshots: from n to n + stride - 1
        frames = 1 + -(-n // (cfg.snapshot_stride or max(1, n // 256)))
        if frames > MAX_FRAMES:
            raise SchemaError("snapshot_stride", f"{frames:.4g} frames, a record holds {MAX_FRAMES}")
        need = cfg.n_paths * record_bytes(grid, frames)
        if need > _free_disk(Path(cfg.out).absolute().parent):
            raise SchemaError("out", f"{cfg.n_paths} records of {frames} frames ({need:.4g} bytes) "
                                     "exceed the free disk space")
    return config, c0_fn, plan, frames


def _require_finite(*arrays) -> None:
    # NaN propagates through the max and the min, +inf shows in the max and -inf in the min (so no
    # boolean array is made); the engine checks the primal c and y
    for arr in arrays:
        if arr.size and not (math.isfinite(np.maximum.reduce(arr, axis=None))
                             and math.isfinite(np.minimum.reduce(arr, axis=None))):
            raise NumericalAbort("non-finite state encountered")


def _contraction(name: str, values, i: int) -> EstimateReport:
    """``values[i] / values[i - 1]`` (0 when the earlier one is not positive) against the bound 1."""
    prev = values[i - 1]
    return EstimateReport(name, values[i] / prev if prev > 0.0 else 0.0, 1.0)


def _keep_mass(kept: np.ndarray, k: int, mass) -> None:
    """Keeps frame k's interior v-masses ``mass`` in ``kept``, (3, paths), as those of frame 0, of the frame
    farthest from it so far (ties keep the earlier) and of the last frame: all that ``_mass_report`` reads."""
    kept[2 if k else slice(None)] = mass
    np.copyto(kept[1], kept[2], where=np.abs(kept[2] - kept[0]) > np.abs(kept[1] - kept[0]))


def _mass_report(masses: np.ndarray, cfg: RunConfig) -> EstimateReport:
    """Largest drift of the interior v-mass over its frames, relative to
    the initial mass."""
    m0 = float(masses[0])
    drift = float(np.max(np.abs(masses - m0))) / max(abs(m0), 1e-300)
    conserved = cfg.bc == "neumann" and cfg.f_name == "zero"
    return EstimateReport(
        "mass_drift",
        drift,
        1e-12 if conserved else None,
        {"initial_mass": m0, "final_mass": float(masses[-1])},
    )


# ---------------------------------------------------------------------------
# subcommand runners; each returns (csv sections, manifest extras), the
# extras' "digests" those of the files their writers hashed

Sections = dict[str, list[EstimateReport]]


def _run_simulate(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    config, c0_fn, plan, frames = _preflight(cfg, radius=True, stride=True)
    grid, tags = config.grid, [f"path_{pid:04d}" for pid in range(cfg.n_paths)]

    (staging / "paths").mkdir()
    masses = np.empty((3, cfg.n_paths))  # interior v-masses of frame 0, the frame farthest from it, the last
    digests: dict[str, str] = {}

    def records(part):  # a chunk's records, written as its lane takes each frame
        ids, names = part.path_ids, [f"paths/{tags[pid]}.rpme1" for pid in part.path_ids]
        kept = masses[:, ids[0] : ids[0] + len(ids)]
        out = RecordWriter([staging / name for name in names], grid, cfg.seed, ids, part.dt, frames)

        def frame(k, c, y):
            _keep_mass(kept, k, interior_v_mass(c, grid, config.coeffs))
            out.frame(part.times[k], c, y)
            if k == frames - 1:
                out.finish()
                digests.update(zip(names, out.digests))

        return frame

    ens = simulate_ensemble(config, c0_fn, cfg.y0, n_paths=cfg.n_paths, seed=cfg.seed, n_workers=cfg.workers,
                            n_snapshots=frames - 1, on_frames=records)
    reports: list[EstimateReport] = []
    for pid, tag in enumerate(tags):
        reports.append(linf_check(float(ens.c_sup[pid]), plan.radius, f"{tag}_sup"))
        reports.append(replace(_mass_report(masses[:, pid], cfg), name=f"{tag}_mass_drift"))
        reports.append(EstimateReport(f"{tag}_clamped_mass", float(ens.clamp_mass[pid]), None))
    reports.append(linf_check(float(np.max(ens.c_sup)), plan.radius, "ensemble_sup"))
    reports.append(EstimateReport("ensemble_min", float(np.min(ens.c_min)), None))
    reports.append(EstimateReport("ensemble_clamped_mass", float(np.max(ens.clamp_mass)), None))
    return {"simulate": reports}, {"dt": ens.dt, "r2_bound": plan.radius, "digests": digests}


def _run_verify(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    config, c0_fn, plan, _ = _preflight(cfg, 4, radius=True)
    grid, coeffs, r2, dt, n = config.grid, config.coeffs, plan.radius, plan.dt, plan.n_steps

    # one run of every path; the chunk that holds path 0 hands each of its states to the report sums as its
    # lane takes it, the other chunks take no frame: memory holds the step state and O(steps) floats, never
    # the frames; the times are those a dense run stores
    times = np.arange(n + 1) * dt
    center = np.ravel_multi_index(tuple(s // 2 for s in grid.shape), grid.shape)
    # a source that ignores y: y is stepped at the center alone, and f gets c for a y it does not read
    nodes = None if coeffs.source.reads_y else [center]
    at = center if nodes is None else 0  # the center in a path's row of y
    kept, series = np.empty((3, 1)), np.empty(n + 1)
    n_free = free_node_count(grid)
    v = np.random.default_rng(cfg.seed).uniform(0.5, 1.0, size=n_free)
    energy = EnergySums(grid, coeffs, times)
    weak = WeakSums(grid, v, n) if n_free else None

    def frame(k, c, y):
        fr = Frame(grid, coeffs, c[0], c[0] if nodes else y[0])
        _keep_mass(kept, k, grid.spacing**grid.dim * fr.beta.reshape(-1).sum(axis=-1))  # interior_v_mass
        series[k] = y[0].reshape(-1)[at]
        energy.add(k, fr)
        if weak is not None:
            weak.add(k, fr)

    ens = simulate_ensemble(config, c0_fn, cfg.y0, n_paths=cfg.n_paths, seed=cfg.seed, n_workers=cfg.workers,
                            n_snapshots=n, on_frames=lambda part: frame if part.path_ids[0] == 0 else None,
                            nodes=nodes)
    sup = float(ens.c_sup[0])
    reports = [linf_check(sup, r2), _mass_report(kept[:, 0], cfg)]
    reports.extend(energy.reports(cfg.theta, sup, float(ens.clamp_mass[0])))
    if weak is not None:
        ones = lambda t: np.ones_like(np.asarray(t, dtype=np.float64))
        zeros = lambda t: np.zeros_like(np.asarray(t, dtype=np.float64))
        _, scaled = weak.residual(times, dt, ones, zeros)
        reports.append(EstimateReport("weak_residual_constant_window", scaled, 1e-10))
        _, scaled_bump = weak.residual(times, dt, *bump_time_profile(cfg.t_final))
        reports.append(EstimateReport("weak_residual_bump_window", scaled_bump, None))

    usable = tuple(lag for lag in cfg.lags if lag < n)
    if len(usable) >= 2:
        reports.append(holder_report(series, dt, usable, "y_holder_exponent"))

    reports.append(linf_check(float(np.max(ens.c_sup)), r2, "ensemble_sup_vs_growth_bound"))
    y_term = ens.y_final.reshape(cfg.n_paths, -1)[:, at]
    reports.append(EstimateReport("terminal_y_second_moment", float(np.mean(y_term**2)), None, {"n": cfg.n_paths}))
    return {"verify": reports}, {"dt": dt, "r2_bound": r2}


def _run_malliavin(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    config, c0_fn, plan, _ = _preflight(cfg, 1, record=True)
    dt, n = plan.dt, plan.n_steps

    # one run carries every seed; each seed's report steps end at n, so its
    # last slice is the terminal pair for the record
    r_indices = [seed_index(frac, n) for frac in cfg.malliavin_fractions]
    strides = [max(1, (n - r) // 8) for r in r_indices]
    steps = [malliavin_report_steps(n, r, st) for r, st in zip(r_indices, strides)]

    (staging / "paths").mkdir()
    path = staging / "paths" / "malliavin_path.rpme1"
    record = RecordWriter([path], config.grid, cfg.seed, [0], dt, n + 1)
    wiener = gen_wiener(n, dt, cfg.seed, 0)
    run, seeds = propagate_path(config, c0_fn, cfg.y0, wiener, r_indices, steps,
                                on_frame=lambda k, c, y: record.frame(k * dt, c, y))

    # autonomous linear state derivative: the propagated value must
    # reproduce a(y(T)) = sigma * y(T) node for node
    closed = config.coeffs.a(run.y_final[0]) if cfg.a_name == "linear" and cfg.b_name == "zero" else None

    # a dry that overflowed and was zeroed by a clamp: an earlier slice is not finite
    _require_finite(*(a for slices in seeds for sl in slices for a in (sl.z, sl.dry)))
    reports: list[EstimateReport] = []
    pairs = []
    for r_index, stride, slices in zip(r_indices, strides, seeds):
        sl = slices[-1]
        pairs.append(DerivativePair(r_index * dt, sl.t, sl.drc, sl.dry))
        for rep in malliavin_report(slices, config.grid, r_index, stride):
            reports.append(replace(rep, name=f"r{r_index}_{rep.name}"))
        if closed is not None:
            rel = float(np.max(np.abs(sl.dry - closed)) / max(np.max(np.abs(closed)), 1e-300))
            reports.append(EstimateReport(f"r{r_index}_closed_form_rel_error", rel, 5e-2))
    record.finish(pairs)
    digests = {"paths/malliavin_path.rpme1": record.digests[0]}
    return {"malliavin": reports}, {"dt": dt, "r2_bound": None, "digests": digests}


def _run_converge(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    levels = cfg.levels
    config, c0_fn, *_ = _preflight(cfg, cfg.n_paths, "converge.levels")
    out = cauchy_refinement(config, c0_fn, cfg.y0, levels=levels, n_paths=cfg.n_paths, seed=cfg.seed,
                            n_snapshots=5, n_workers=cfg.workers)
    _require_finite(np.asarray(out.c_distances), np.asarray(out.y_distances))
    reports: list[EstimateReport] = []
    for tag, dists in (("c", out.c_distances), ("y", out.y_distances)):
        for i, d in enumerate(dists):
            pair = f"{levels[i]}_{levels[i + 1]}"
            reports.append(EstimateReport(f"{tag}_distance_{pair}", d, None))
        reports += [_contraction(f"{tag}_contraction_{levels[i]}_{levels[i + 1]}", dists, i)
                    for i in range(1, len(dists))]
    return {"converge": reports}, {"dt": out.levels[-1].dt, "r2_bound": None}


def _run_sweep_eps(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    config, c0_fn, *_ = _preflight(
        cfg, cfg.n_paths, plan_of=lambda config, c0_max: sweep_plan(config, cfg.eps_values, c0_max)[1])
    out = epsilon_sweep(config, cfg.eps_values, c0_fn, cfg.y0, n_paths=cfg.n_paths, seed=cfg.seed,
                        n_workers=cfg.workers)
    _require_finite(np.asarray(out.c_distances), np.asarray(out.gaps))
    reports: list[EstimateReport] = []
    for i, (eps, gap) in enumerate(zip(out.eps, out.gaps)):
        reports.append(EstimateReport(f"beta_gap_{i}", gap, None, {"eps": eps}))
        if i:
            reports.append(_contraction(f"beta_gap_contraction_{i}", out.gaps, i))
    for i, d in enumerate(out.c_distances):
        reports.append(
            EstimateReport(f"c_distance_{i}", d, None, {"eps_from": out.eps[i], "eps_to": out.eps[i + 1]})
        )
        if i:
            reports.append(_contraction(f"c_distance_contraction_{i}", out.c_distances, i))
    return {"sweep_eps": reports}, {"dt": out.dt, "r2_bound": None}


def _run_transform_demo(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    family = _beta_family(cfg)
    phi = degeneracy_weight(family, cap=cfg.weight_cap)
    big_phi, psi = build_transform_pair(phi, family, cfg.k_max, cfg.d_max, n_k=cfg.table_n, n_d=cfg.table_n,
                                        quad_refine=cfg.quad_refine)
    (staging / "transforms").mkdir()
    for name, table in (("big_phi", big_phi), ("psi", psi)):
        # the rows csv.writer writes: a float's repr needs no quoting
        k_text = [repr(k) for k in table.k_grid.tolist()]
        d_text = [repr(d) for d in table.d_grid.tolist()]
        with open(staging / "transforms" / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("k,d,value\r\n")
            for k, row in zip(k_text, table.table.tolist()):
                fh.write("".join(f"{k},{d},{v!r}\r\n" for d, v in zip(d_text, row)))
    return {"transform": transform_report(big_phi, psi)}, {"dt": None, "r2_bound": None}


_RUNNERS = {
    "simulate": _run_simulate,
    "verify": _run_verify,
    "malliavin": _run_malliavin,
    "converge": _run_converge,
    "sweep-eps": _run_sweep_eps,
    "transform-demo": _run_transform_demo,
}


# ---------------------------------------------------------------------------
# artifact output

# bytes of an artifact hashed at a time, so a large record is never read whole
_DIGEST_BLOCK = 2**20


def _write_csv(path: Path, reports: list[EstimateReport]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "measured", "bound", "passed", "detail"])
        for r in reports:
            writer.writerow([r.name, repr(float(r.measured)), "" if r.bound is None else repr(float(r.bound)),
                             "true" if r.passed else "false", json.dumps(r.detail, sort_keys=True, default=float)])


def _digest_tree(staging: Path, hashed: dict[str, str] | None = None) -> dict[str, str]:
    """SHA-256 of every file under ``staging`` by relative path; a file in
    ``hashed``, with the digest its writer took, is not read back."""
    out = {}
    for p in sorted(staging.rglob("*")):
        name = p.relative_to(staging).as_posix()
        if hashed and name in hashed:
            out[name] = hashed[name]
        elif p.is_file():
            digest = hashlib.sha256()
            with open(p, "rb") as fh:
                while block := fh.read(_DIGEST_BLOCK):
                    digest.update(block)
            out[name] = digest.hexdigest()
    return out


def run_command(command: str, cfg: RunConfig) -> int:
    target = Path(cfg.out)
    if target.exists() and any(target.iterdir()):
        print(f"error: output directory {target} is not empty", file=sys.stderr)
        return 3
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = target.parent / f".{target.name}.staging.{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    started = time.perf_counter()
    try:
        sections, extras = _RUNNERS[command](cfg, staging)
        (staging / "reports").mkdir(exist_ok=True)
        all_reports: list[tuple[str, EstimateReport]] = []
        for name, reports in sections.items():
            _write_csv(staging / "reports" / f"{name}.csv", reports)
            all_reports.extend((f"{name}/{r.name}", r) for r in reports)
        manifest = {
            "subcommand": command,
            "version": __version__,
            "config": config_echo(cfg),
            "dt": extras.get("dt"),
            "r2_bound": extras.get("r2_bound"),
            "reports": {name: r.passed for name, r in all_reports},
            "digests": _digest_tree(staging, extras.get("digests")),
            "wall_time_s": time.perf_counter() - started,
        }
        with open(staging / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except SchemaError as exc:
        shutil.rmtree(staging)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalAbort, OverflowError, RuntimeWarning) as exc:  # the last under -W error::RuntimeWarning
        shutil.rmtree(staging)
        print(f"error: numerical abort: {exc}", file=sys.stderr)
        return 4
    except Exception:
        shutil.rmtree(staging, ignore_errors=True)
        traceback.print_exc()
        print("error: internal failure (exit 5)", file=sys.stderr)
        return 5
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if target.exists():
        target.rmdir()  # known empty from the check above
    os.replace(staging, target)
    failed = [name for name, r in all_reports if not r.passed]
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rpmelab",
        description="experiment driver for the degenerate-diffusion laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("config", help="flat key=value or JSON config file")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except FileNotFoundError:
        print(f"error: config file {args.config!r} not found", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return run_command(args.command, cfg)


if __name__ == "__main__":
    sys.exit(main())
