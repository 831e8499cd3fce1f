"""Experiment driver: flat-file configuration, six subcommands, and bit-exact
artifact output (binary snapshot records, CSV estimate reports, a manifest
with content digests).

Exit codes: 0 all hard-bound reports passed, 1 at least one failed, 2 missing
input file, 3 config schema violation (the offending key is named), 4
numerical abort (non-finite state, or floating-point overflow such as a
growth bound too large to represent), 5 unexpected internal error (the
traceback is printed).  Outputs are staged in a scratch directory next to the
target and renamed into place only on completion, so a failed run never
leaves partial artifacts.
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
    EstimateReport,
    bump_time_profile,
    cauchy_refinement,
    energy_report,
    epsilon_sweep,
    holder_report,
    linf_check,
    malliavin_report,
    malliavin_report_steps,
    transform_report,
    weak_residual,
)
from .grid import BoundaryKind, build_grid, free_node_count
from .malliavin import propagate_path, seed_index
from .model import (
    initial_preset,
    make_coefficients,
    pme_beta,
    preset_coefficients,
    r2_bound,
    regularize_beta,
)
from .pathfile import DerivativePair, PathRecord, RecordWriter, write_record
from .simulate import (
    NumericalAbort,
    SimConfig,
    _state_bytes,
    gen_wiener,
    interior_v_mass,
    prepare_initial,
    simulate_ensemble,
    simulate_path,
)
from .transform import build_transform_pair, degeneracy_weight


class SchemaError(ValueError):
    """Configuration rejected; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


# ---------------------------------------------------------------------------
# configuration

_PRESET_NAMESPACES = ("coeff.f", "coeff.a", "coeff.b", "initial.c")

_F_PRESETS = {"zero": None, "logistic": "logistic_f"}
_A_PRESETS = {"zero": None, "linear": "linear_a", "saturating": "saturating_a"}
_B_PRESETS = {"zero": None, "coupling": "coupling_b"}
_INITIAL_PRESETS = ("constant", "sine", "cosine", "bump", "barenblatt")

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


def _parse_int(key: str, text: str, lo: int, hi: int | None) -> int:
    try:
        val = int(text, 10)
    except ValueError:
        raise SchemaError(key, f"expected an integer, got {text!r}") from None
    if val < lo or (hi is not None and val > hi):
        raise SchemaError(key, f"{val} outside [{lo}, {hi if hi is not None else 'inf'}]")
    return val


def _parse_float(key: str, text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise SchemaError(key, f"expected a number, got {text!r}") from None
    if not math.isfinite(val):
        raise SchemaError(key, "must be finite")
    return val


def _parse_list(key: str, text: str, one) -> tuple:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise SchemaError(key, "empty list")
    return tuple(one(key, s) for s in items)


def _parse_beta(text: str) -> tuple[str, float, float | None]:
    parts = text.split(":")
    if parts[0] == "pme" and len(parts) == 2:
        m = _parse_float("beta", parts[1])
        if m <= 1.0:
            raise SchemaError("beta", "exponent must exceed 1")
        return "pme", m, None
    if parts[0] == "regularized" and len(parts) == 3:
        m = _parse_float("beta", parts[1])
        eps = _parse_float("beta", parts[2])
        if m <= 1.0:
            raise SchemaError("beta", "exponent must exceed 1")
        if not 0.0 < eps < 1.0:
            raise SchemaError("beta", "eps must lie in (0, 1)")
        return "regularized", m, eps
    raise SchemaError("beta", f"expected 'pme:m' or 'regularized:m:eps', got {text!r}")


def _enum(key: str, text: str, allowed) -> str:
    if text not in allowed:
        raise SchemaError(key, f"{text!r} not one of {sorted(allowed)}")
    return text


def config_from_mapping(mapping: dict[str, str]) -> RunConfig:
    """Build and validate a RunConfig from flat key -> string pairs."""
    pending = dict(mapping)
    params: dict[str, dict[str, float]] = {ns: {} for ns in _PRESET_NAMESPACES}
    for key in list(pending):
        for ns in _PRESET_NAMESPACES:
            if key.startswith(ns + "."):
                params[ns][key[len(ns) + 1 :]] = _parse_float(key, pending.pop(key))
                break

    def take(key: str) -> str | None:
        return pending.pop(key, None)

    kw: dict = {}

    def put_int(key: str, field: str, lo: int, hi: int | None = None):
        raw = take(key)
        if raw is not None:
            kw[field] = _parse_int(key, raw, lo, hi)

    def put_float(key: str, field: str, check=None):
        raw = take(key)
        if raw is not None:
            val = _parse_float(key, raw)
            if check is not None and not check(val):
                raise SchemaError(key, f"{val} out of range")
            kw[field] = val

    put_int("dim", "dim", 1, 3)
    put_int("cells", "cells", 2, 1024)
    put_int("n_paths", "n_paths", 1)
    put_int("seed", "seed", 0)
    put_int("snapshot_stride", "snapshot_stride", 0)
    put_int("workers", "workers", 1)
    put_int("quad_refine", "quad_refine", 1)
    put_int("transform.n", "table_n", 8)
    put_float("t_final", "t_final", lambda v: v > 0.0)
    put_float("theta", "theta", lambda v: 0.0 < v <= 1.0)
    put_float("dt", "dt", lambda v: v > 0.0)
    put_float("initial.y", "y0", lambda v: v >= 0.0)
    put_float("transform.k_max", "k_max", lambda v: v > 0.0)
    put_float("transform.d_max", "d_max", lambda v: v > 0.0)
    put_float("transform.cap", "weight_cap", lambda v: v > 0.0)

    raw = take("bc")
    if raw is not None:
        kw["bc"] = _enum("bc", raw, ("dirichlet", "neumann"))
    raw = take("beta")
    if raw is not None:
        kw["beta_kind"], kw["beta_m"], kw["beta_eps"] = _parse_beta(raw)
    raw = take("coeff.f")
    if raw is not None:
        kw["f_name"] = _enum("coeff.f", raw, _F_PRESETS)
    raw = take("coeff.a")
    if raw is not None:
        kw["a_name"] = _enum("coeff.a", raw, _A_PRESETS)
    raw = take("coeff.b")
    if raw is not None:
        kw["b_name"] = _enum("coeff.b", raw, _B_PRESETS)
    raw = take("initial.c")
    if raw is not None:
        kw["initial_name"] = _enum("initial.c", raw, _INITIAL_PRESETS)
    raw = take("out")
    if raw is not None:
        if not raw:
            raise SchemaError("out", "empty path")
        kw["out"] = raw

    raw = take("malliavin.fractions")
    if raw is not None:
        fracs = _parse_list("malliavin.fractions", raw, _parse_float)
        if any(not 0.0 < v < 1.0 for v in fracs):
            raise SchemaError("malliavin.fractions", "fractions must lie in (0, 1)")
        kw["malliavin_fractions"] = fracs
    raw = take("stats.lags")
    if raw is not None:
        lags = _parse_list("stats.lags", raw, lambda k, s: _parse_int(k, s, 1, None))
        if any(b <= a for a, b in zip(lags, lags[1:])):
            raise SchemaError("stats.lags", "lags must increase")
        kw["lags"] = lags
    raw = take("converge.levels")
    if raw is not None:
        kw["levels"] = _parse_list(
            "converge.levels", raw, lambda k, s: _parse_int(k, s, 2, None)
        )
    raw = take("sweep.eps")
    if raw is not None:
        eps = _parse_list("sweep.eps", raw, _parse_float)
        if any(not 0.0 < v < 1.0 for v in eps):
            raise SchemaError("sweep.eps", "eps values must lie in (0, 1)")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise SchemaError("sweep.eps", "eps values must strictly decrease")
        kw["eps_values"] = eps

    if pending:
        raise SchemaError(sorted(pending)[0], "unknown key")

    for ns, field in (
        ("coeff.f", "f_params"),
        ("coeff.a", "a_params"),
        ("coeff.b", "b_params"),
        ("initial.c", "initial_params"),
    ):
        if params[ns]:
            kw[field] = tuple(sorted(params[ns].items()))

    cfg = RunConfig(**kw)
    _validate_builds(cfg)
    return cfg


def _validate_builds(cfg: RunConfig) -> None:
    """Construct every referenced preset once so bad parameters surface at
    load time with the namespace that carried them."""
    _coefficients(cfg)
    _initial(cfg)


def load_config(path: str | os.PathLike) -> RunConfig:
    """Parse a flat key=value file ('#' comments) or a JSON object."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("<json>", f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise SchemaError("<json>", "top level must be an object")
        mapping = {}
        for key, val in doc.items():
            if isinstance(val, bool) or val is None:
                raise SchemaError(str(key), "booleans and nulls are not config values")
            if isinstance(val, list):
                mapping[str(key)] = ",".join(_scalar_text(v) for v in val)
            else:
                mapping[str(key)] = _scalar_text(val)
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


def _scalar_text(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def config_echo(cfg: RunConfig) -> dict[str, str]:
    """Flat key -> string form re-parsing to an equal RunConfig."""
    out = {
        "dim": str(cfg.dim),
        "cells": str(cfg.cells),
        "t_final": repr(cfg.t_final),
        "theta": repr(cfg.theta),
        "bc": cfg.bc,
        "coeff.f": cfg.f_name,
        "coeff.a": cfg.a_name,
        "coeff.b": cfg.b_name,
        "initial.c": cfg.initial_name,
        "initial.y": repr(cfg.y0),
        "n_paths": str(cfg.n_paths),
        "seed": str(cfg.seed),
        "snapshot_stride": str(cfg.snapshot_stride),
        "workers": str(cfg.workers),
        "quad_refine": str(cfg.quad_refine),
        "malliavin.fractions": ",".join(repr(v) for v in cfg.malliavin_fractions),
        "stats.lags": ",".join(str(v) for v in cfg.lags),
        "converge.levels": ",".join(str(v) for v in cfg.levels),
        "sweep.eps": ",".join(repr(v) for v in cfg.eps_values),
        "transform.k_max": repr(cfg.k_max),
        "transform.d_max": repr(cfg.d_max),
        "transform.n": str(cfg.table_n),
        "transform.cap": repr(cfg.weight_cap),
        "out": cfg.out,
    }
    if cfg.beta_kind == "pme":
        out["beta"] = f"pme:{cfg.beta_m!r}"
    else:
        out["beta"] = f"regularized:{cfg.beta_m!r}:{cfg.beta_eps!r}"
    if cfg.dt is not None:
        out["dt"] = repr(cfg.dt)
    for ns, pars in (
        ("coeff.f", cfg.f_params),
        ("coeff.a", cfg.a_params),
        ("coeff.b", cfg.b_params),
        ("initial.c", cfg.initial_params),
    ):
        for name, value in pars:
            out[f"{ns}.{name}"] = repr(value)
    return out


# ---------------------------------------------------------------------------
# config -> model objects


def _beta_family(cfg: RunConfig):
    if cfg.beta_kind == "pme":
        return pme_beta(cfg.beta_m)
    return regularize_beta(cfg.beta_m, cfg.beta_eps)


def _coefficients(cfg: RunConfig):
    """The coefficient set of a config; a bad preset raises a SchemaError
    naming its namespace."""

    def build(ns, table, name, pars):
        if table[name] is None:
            if pars:
                raise SchemaError(f"{ns}.{pars[0][0]}", "zero preset takes no parameters")
            return None
        try:
            return preset_coefficients(table[name], dict(pars))
        except ValueError as exc:
            raise SchemaError(ns, str(exc)) from None

    return make_coefficients(
        _beta_family(cfg),
        f=build("coeff.f", _F_PRESETS, cfg.f_name, cfg.f_params),
        a=build("coeff.a", _A_PRESETS, cfg.a_name, cfg.a_params),
        b=build("coeff.b", _B_PRESETS, cfg.b_name, cfg.b_params),
    )


def _initial(cfg: RunConfig):
    try:
        return initial_preset(cfg.initial_name, cfg.dim, dict(cfg.initial_params))
    except ValueError as exc:
        raise SchemaError("initial.c", str(exc)) from None


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _sim_config(cfg: RunConfig, key: str = "cells") -> SimConfig:
    """The run description on the grid of ``cells``, or of the finest
    ``converge.levels`` entry.  A grid whose step state for one path does
    not fit in physical memory is rejected, naming that key, before any
    array is allocated."""
    grid = build_grid(cfg.dim, cfg.levels[-1] if key == "converge.levels" else cfg.cells)
    need = _state_bytes(grid)
    if need > _physical_memory():
        raise SchemaError(key, f"one path's step state ({need} bytes) exceeds physical memory")
    return SimConfig(
        grid, _coefficients(cfg), BoundaryKind(cfg.bc), cfg.t_final, theta=cfg.theta, dt=cfg.dt
    )


def _require_finite(*arrays) -> None:
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NumericalAbort("non-finite state encountered")


def _growth_radius(config: SimConfig, c0_fn, y0: float) -> tuple[float, float]:
    """Sup of the boundary-applied initial concentration, the state the
    library steps from, and the growth bound r2 over the horizon."""
    c, _ = prepare_initial(config, c0_fn, y0)
    c0_max = float(np.max(c))
    return c0_max, r2_bound(config.t_final, c0_max, config.coeffs.beta_family)


def _mass_report(c_frames, config: SimConfig, cfg: RunConfig) -> EstimateReport:
    masses = interior_v_mass(c_frames, config.grid, config.coeffs)
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
# subcommand runners; each returns (csv sections, manifest extras)

Sections = dict[str, list[EstimateReport]]


def _run_simulate(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    config = _sim_config(cfg)
    c0_fn = _initial(cfg)
    c0_max, r2 = _growth_radius(config, c0_fn, cfg.y0)
    _, n0 = config.resolve_steps(c0_max)
    stride = cfg.snapshot_stride or max(1, n0 // 256)
    n_snap = max(1, n0 // stride)

    (staging / "paths").mkdir()
    reports: list[EstimateReport] = []

    def write_chunk(chunk) -> None:
        _require_finite(chunk.c, chunk.y)
        for j, pid in enumerate(int(p) for p in chunk.path_ids):
            tag = f"path_{pid:04d}"
            c, y = chunk.c[:, j], chunk.y[:, j]
            write_record(
                staging / "paths" / f"{tag}.rpme1",
                PathRecord(config.grid, cfg.seed, pid, chunk.dt, chunk.times, c, y, ()),
            )
            reports.append(linf_check(float(chunk.c_sup[j]), r2, f"{tag}_sup"))
            reports.append(replace(_mass_report(c, config, cfg), name=f"{tag}_mass_drift"))
            reports.append(EstimateReport(f"{tag}_clamped_mass", float(chunk.clamp_mass[j]), None))

    ens = simulate_ensemble(
        config,
        c0_fn,
        cfg.y0,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
        n_workers=cfg.workers,
        n_snapshots=n_snap,
        on_chunk=write_chunk,
    )
    reports.append(linf_check(float(np.max(ens.c_sup)), r2, "ensemble_sup"))
    reports.append(EstimateReport("ensemble_min", float(np.min(ens.c_min)), None))
    reports.append(
        EstimateReport("ensemble_clamped_mass", float(np.max(ens.clamp_mass)), None)
    )
    return {"simulate": reports}, {"dt": ens.dt, "r2_bound": r2}


def _run_verify(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    config = _sim_config(cfg)
    c0_fn = _initial(cfg)
    _, r2 = _growth_radius(config, c0_fn, cfg.y0)

    traj = simulate_path(config, c0_fn, cfg.y0, seed=cfg.seed, path_id=0, store_dense=True)
    _require_finite(traj.c, traj.y)
    reports = [linf_check(float(np.max(traj.c)), r2), _mass_report(traj.c, config, cfg)]
    reports.extend(energy_report(traj, config.coeffs, cfg.theta))

    rng = np.random.default_rng(cfg.seed)
    n_free = free_node_count(config.grid)
    if n_free:
        v = rng.uniform(0.5, 1.0, size=n_free)
        ones = lambda t: np.ones_like(np.asarray(t, dtype=np.float64))
        zeros = lambda t: np.zeros_like(np.asarray(t, dtype=np.float64))
        _, scaled = weak_residual(traj, config.coeffs, v, ones, zeros)
        reports.append(EstimateReport("weak_residual_constant_window", scaled, 1e-10))
        xi, xi_p = bump_time_profile(cfg.t_final)
        _, scaled_bump = weak_residual(traj, config.coeffs, v, xi, xi_p)
        reports.append(EstimateReport("weak_residual_bump_window", scaled_bump, None))

    center = tuple(s // 2 for s in config.grid.shape)
    series = traj.y[(slice(None),) + center]
    usable = tuple(lag for lag in cfg.lags if lag < traj.n_steps)
    if len(usable) >= 2:
        reports.append(holder_report(series, traj.dt, usable, "y_holder_exponent"))

    ens = simulate_ensemble(
        config,
        c0_fn,
        cfg.y0,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
        n_workers=cfg.workers,
    )
    _require_finite(ens.c_final, ens.y_final)
    reports.append(linf_check(float(np.max(ens.c_sup)), r2, "ensemble_sup_vs_growth_bound"))
    y_term = ens.y_final[(slice(None),) + center]
    reports.append(
        EstimateReport(
            "terminal_y_second_moment", float(np.mean(y_term**2)), None, {"n": cfg.n_paths}
        )
    )
    return {"verify": reports}, {"dt": traj.dt, "r2_bound": r2}


def _run_malliavin(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    config = _sim_config(cfg)
    c0_fn = _initial(cfg)
    c_init, y_init = prepare_initial(config, c0_fn, cfg.y0)
    dt, n = config.resolve_steps(float(np.max(c_init)))

    # one run carries every seed; each seed's report steps end at n, so its
    # last slice is the terminal pair for the record
    r_indices = [seed_index(frac, n) for frac in cfg.malliavin_fractions]
    strides = [max(1, (n - r) // 8) for r in r_indices]
    steps = [malliavin_report_steps(n, r, st) for r, st in zip(r_indices, strides)]

    (staging / "paths").mkdir()
    path = staging / "paths" / "malliavin_path.rpme1"
    with RecordWriter(path, config.grid, cfg.seed, 0, dt, n + 1) as record:

        def frame(k, c, y):  # every frame is checked as it is written
            _require_finite(c, y)
            record.frame(k * dt, c, y)

        frame(0, c_init, y_init)
        wiener = gen_wiener(n, dt, cfg.seed, 0)
        run, seeds = propagate_path(config, c0_fn, cfg.y0, wiener, r_indices, steps, on_frame=frame)

        # autonomous linear state derivative: the propagated value must
        # reproduce a(y(T)) = sigma * y(T) node for node
        closed = None
        if cfg.a_name == "linear" and cfg.b_name == "zero":
            closed = config.coeffs.a(run.y_final[0])

        reports: list[EstimateReport] = []
        pairs = []
        for r_index, stride, slices in zip(r_indices, strides, seeds):
            sl = slices[-1]
            _require_finite(sl.z, sl.dry)
            pairs.append(DerivativePair(r_index * dt, sl.t, sl.drc, sl.dry))
            for rep in malliavin_report(slices, config.grid, r_index, stride):
                reports.append(replace(rep, name=f"r{r_index}_{rep.name}"))
            if closed is not None:
                rel = float(
                    np.max(np.abs(sl.dry - closed)) / max(np.max(np.abs(closed)), 1e-300)
                )
                reports.append(EstimateReport(f"r{r_index}_closed_form_rel_error", rel, 5e-2))
        record.finish(pairs)
    return {"malliavin": reports}, {"dt": dt, "r2_bound": None}


def _run_converge(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    levels = cfg.levels
    if len(levels) < 2 or any(b != 2 * a for a, b in zip(levels, levels[1:])):
        raise SchemaError("converge.levels", "levels must double at every step")
    out = cauchy_refinement(
        _sim_config(cfg, "converge.levels"),
        _initial(cfg),
        cfg.y0,
        levels=levels,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
        n_snapshots=5,
        n_workers=cfg.workers,
    )
    _require_finite(np.asarray(out.c_distances), np.asarray(out.y_distances))
    reports: list[EstimateReport] = []
    for tag, dists in (("c", out.c_distances), ("y", out.y_distances)):
        for i, d in enumerate(dists):
            pair = f"{levels[i]}_{levels[i + 1]}"
            reports.append(EstimateReport(f"{tag}_distance_{pair}", d, None))
        for i in range(len(dists) - 1):
            ratio = dists[i + 1] / dists[i] if dists[i] > 0.0 else 0.0
            reports.append(
                EstimateReport(
                    f"{tag}_contraction_{levels[i + 1]}_{levels[i + 2]}", ratio, 1.0
                )
            )
    return {"converge": reports}, {"dt": out.levels[-1].dt, "r2_bound": None}


def _run_sweep_eps(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    out = epsilon_sweep(
        _sim_config(cfg), cfg.eps_values, _initial(cfg), cfg.y0,
        n_paths=cfg.n_paths, seed=cfg.seed, n_workers=cfg.workers,
    )
    _require_finite(np.asarray(out.c_distances), np.asarray(out.gaps))
    reports: list[EstimateReport] = []
    for i, (eps, gap) in enumerate(zip(out.eps, out.gaps)):
        reports.append(EstimateReport(f"beta_gap_{i}", gap, None, {"eps": eps}))
        if i:
            ratio = gap / out.gaps[i - 1] if out.gaps[i - 1] > 0.0 else 0.0
            reports.append(EstimateReport(f"beta_gap_contraction_{i}", ratio, 1.0))
    for i, d in enumerate(out.c_distances):
        reports.append(
            EstimateReport(f"c_distance_{i}", d, None, {"eps_from": out.eps[i], "eps_to": out.eps[i + 1]})
        )
        if i:
            ratio = d / out.c_distances[i - 1] if out.c_distances[i - 1] > 0.0 else 0.0
            reports.append(EstimateReport(f"c_distance_contraction_{i}", ratio, 1.0))
    return {"sweep_eps": reports}, {"dt": out.dt, "r2_bound": None}


def _run_transform_demo(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    family = _beta_family(cfg)
    phi = degeneracy_weight(family, cap=cfg.weight_cap)
    big_phi, psi = build_transform_pair(
        phi,
        family,
        cfg.k_max,
        cfg.d_max,
        n_k=cfg.table_n,
        n_d=cfg.table_n,
        quad_refine=cfg.quad_refine,
    )
    (staging / "transforms").mkdir()
    for name, table in (("big_phi", big_phi), ("psi", psi)):
        with open(staging / "transforms" / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "d", "value"])
            for i, k in enumerate(table.k_grid):
                for j, d in enumerate(table.d_grid):
                    writer.writerow([repr(float(k)), repr(float(d)), repr(float(table.table[i, j]))])
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
            writer.writerow(
                [
                    r.name,
                    repr(float(r.measured)),
                    "" if r.bound is None else repr(float(r.bound)),
                    "true" if r.passed else "false",
                    json.dumps(r.detail, sort_keys=True, default=float),
                ]
            )


def _digest_tree(staging: Path) -> dict[str, str]:
    out = {}
    for p in sorted(staging.rglob("*")):
        if p.is_file():
            digest = hashlib.sha256()
            with open(p, "rb") as fh:
                while block := fh.read(_DIGEST_BLOCK):
                    digest.update(block)
            out[p.relative_to(staging).as_posix()] = digest.hexdigest()
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
            "digests": _digest_tree(staging),
            "wall_time_s": time.perf_counter() - started,
        }
        with open(staging / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except SchemaError as exc:
        shutil.rmtree(staging)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalAbort, OverflowError) as exc:
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
