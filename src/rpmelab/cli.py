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
import itertools
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
    transform_report,
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
    gen_wiener,
    interior_v_mass,
    path_bytes,
    prepare_initial,
    simulate_ensemble,
)
from .transform import build_transform_pair, degeneracy_weight


class SchemaError(ValueError):
    """Configuration rejected; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


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


def _fit_memory(grid, frames: int = 0, key: str = "cells") -> None:
    """Reject, naming ``key``, a run whose one path does not fit in
    physical memory, before its step state or frames are allocated."""
    need = path_bytes(grid, frames)
    if need > _physical_memory():
        raise SchemaError(key, f"step state and {frames} stored frames ({need} bytes) exceed physical memory")


def _sim_config(cfg: RunConfig, key: str = "cells") -> SimConfig:
    """The run description on the grid of ``cells``, or of the finest
    ``converge.levels`` entry, once one path's step state fits in memory;
    runs that store frames check them as well (``_fit_memory``)."""
    grid = build_grid(cfg.dim, cfg.levels[-1] if key == "converge.levels" else cfg.cells)
    _fit_memory(grid, 0, key)
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
# subcommand runners; each returns (csv sections, manifest extras)

Sections = dict[str, list[EstimateReport]]


def _run_simulate(cfg: RunConfig, staging: Path) -> tuple[Sections, dict]:
    config = _sim_config(cfg)
    c0_fn = _initial(cfg)
    c0_max, r2 = _growth_radius(config, c0_fn, cfg.y0)
    _, n0 = config.resolve_steps(c0_max)
    stride = cfg.snapshot_stride or max(1, n0 // 256)
    n_snap = max(1, n0 // stride)
    _fit_memory(config.grid, n_snap + 1)

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
            masses = interior_v_mass(c, config.grid, config.coeffs)
            reports.append(replace(_mass_report(masses, cfg), name=f"{tag}_mass_drift"))
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
    grid, coeffs = config.grid, config.coeffs
    c0_fn = _initial(cfg)
    c0_max, r2 = _growth_radius(config, c0_fn, cfg.y0)
    dt, n = config.resolve_steps(c0_max)

    # path 0 of the ensemble goes through the report sums frame by frame as
    # the loop reaches it, so memory holds the step state and O(steps)
    # floats, never the frames; the times are those a dense run stores
    times = np.arange(n + 1) * dt
    center = tuple(s // 2 for s in grid.shape)
    masses, series = np.empty(n + 1), np.empty(n + 1)
    n_free = free_node_count(grid)
    v = np.random.default_rng(cfg.seed).uniform(0.5, 1.0, size=n_free)
    energy = EnergySums(grid, coeffs, times)
    weak = WeakSums(grid, v, n) if n_free else None

    def frame(k, c, y):  # every frame is checked before it is read
        _require_finite(c, y)
        fr = Frame(grid, coeffs, c, y)
        masses[k] = grid.spacing**grid.dim * fr.beta.reshape(-1).sum(axis=-1)  # interior_v_mass
        series[k] = y[center]
        energy.add(k, fr)
        if weak is not None:
            weak.add(k, fr)

    # each step hands over the state it starts from: frames 0 to n - 1
    starts = itertools.count()
    ens = simulate_ensemble(
        config, c0_fn, cfg.y0, n_paths=cfg.n_paths, seed=cfg.seed, n_workers=cfg.workers,
        on_step=lambda res, c, y, *_: frame(next(starts), c[0], y[0]),
    )
    frame(n, ens.c_final[0], ens.y_final[0])
    sup = float(ens.c_sup[0])
    reports = [linf_check(sup, r2), _mass_report(masses, cfg)]
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

    _require_finite(ens.c_final, ens.y_final)
    reports.append(linf_check(float(np.max(ens.c_sup)), r2, "ensemble_sup_vs_growth_bound"))
    y_term = ens.y_final[(slice(None),) + center]
    reports.append(
        EstimateReport(
            "terminal_y_second_moment", float(np.mean(y_term**2)), None, {"n": cfg.n_paths}
        )
    )
    return {"verify": reports}, {"dt": dt, "r2_bound": r2}


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
