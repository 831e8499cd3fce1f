import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rpmelab import cli
from rpmelab.cli import (
    RunConfig,
    SchemaError,
    config_echo,
    config_from_mapping,
    load_config,
    main,
)
from rpmelab.pathfile import read_record
from rpmelab.simulate import path_bytes


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# config parsing


def test_minimal_file_fills_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "# nothing but a comment\n"))
    assert cfg == RunConfig()
    assert cfg.theta == 0.5 and cfg.quad_refine == 4 and cfg.snapshot_stride == 0
    assert cfg.levels == (16, 32, 64)


def test_flat_keys_parse(tmp_path):
    text = """
    dim = 1
    cells = 8
    t_final = 0.02
    beta = regularized:3:0.25
    bc = dirichlet
    coeff.f = logistic
    coeff.f.lambda = 1.5
    coeff.f.K = 4.0
    initial.c = sine
    initial.c.amplitude = 0.25
    sweep.eps = 1e-1, 2.5e-2
    stats.lags = 4,8,16
    """
    cfg = load_config(write(tmp_path, text))
    assert cfg.cells == 8 and cfg.bc == "dirichlet"
    assert cfg.beta_kind == "regularized" and cfg.beta_m == 3.0 and cfg.beta_eps == 0.25
    assert cfg.f_name == "logistic" and dict(cfg.f_params) == {"lambda": 1.5, "K": 4.0}
    assert dict(cfg.initial_params) == {"amplitude": 0.25}
    assert cfg.eps_values == (0.1, 0.025) and cfg.lags == (4, 8, 16)


def test_json_config_equivalent(tmp_path):
    flat = load_config(write(tmp_path, "cells = 8\ncoeff.a = linear\ncoeff.a.sigma = 0.4\n"))
    doc = {"cells": 8, "coeff.a": "linear", "coeff.a.sigma": 0.4}
    as_json = load_config(write(tmp_path, json.dumps(doc), name="run.json"))
    assert flat == as_json


@pytest.mark.parametrize(
    "line,key",
    [
        ("mm = 3", "mm"),
        ("theta = 1.5", "theta"),
        ("cells = 1", "cells"),
        ("cells = eight", "cells"),
        ("dim = 4", "dim"),
        ("q = 2.0", "q"),
        ("beta = pme:0.5", "beta"),
        ("beta = linear", "beta"),
        ("bc = periodic", "bc"),
        ("sweep.eps = 1e-2,1e-1", "sweep.eps"),
        ("stats.lags = 8,8", "stats.lags"),
        ("malliavin.fractions = 0.5,1.5", "malliavin.fractions"),
        ("coeff.f = logistic\ncoeff.f.bogus = 1", "coeff.f"),
        ("coeff.a.sigma = 0.4", "coeff.a"),  # param for the zero preset
        ("initial.c = barenblatt\ndim = 2", "initial.c"),
        ("cells = 8\ncells = 9", "cells"),
        ('{"cells": 8, "t_final": 0.1, "cells": 9}', "cells"),
        ("converge.levels = 16,24", "converge.levels"),
        ("converge.levels = 16", "converge.levels"),
        (f"seed = {2**64}", "seed"),
    ],
)
def test_schema_violations_name_the_key(tmp_path, line, key):
    with pytest.raises(SchemaError) as err:
        load_config(write(tmp_path, line + "\n"))
    assert err.value.key.startswith(key)


def test_echo_round_trips_to_equal_config(tmp_path):
    text = (
        "dim=1\ncells=12\nt_final=0.03\ntheta=0.75\ndt=1e-4\nbc=dirichlet\n"
        "beta=regularized:2.5:0.125\ncoeff.f=logistic\ncoeff.f.lambda=0.7\n"
        "coeff.a=saturating\ncoeff.a.sigma=0.2\ncoeff.b=coupling\ncoeff.b.kappa=0.3\n"
        "initial.c=bump\ninitial.y=0.5\nn_paths=3\nseed=11\nworkers=2\n"
        "malliavin.fractions=0.1,0.9\nstats.lags=2,4,8\nconverge.levels=8,16\n"
        "sweep.eps=0.5,0.25,0.125\ntransform.n=32\nout=somewhere\n"
    )
    cfg = load_config(write(tmp_path, text))
    assert cfg != RunConfig()
    assert config_from_mapping(config_echo(cfg)) == cfg
    # defaults echo back to themselves too
    assert config_from_mapping(config_echo(RunConfig())) == RunConfig()
    # the manifest's config block, string for string
    assert config_echo(cfg) == {
        "dim": "1", "cells": "12", "t_final": "0.03", "theta": "0.75", "bc": "dirichlet",
        "coeff.f": "logistic", "coeff.a": "saturating", "coeff.b": "coupling",
        "initial.c": "bump", "initial.y": "0.5", "n_paths": "3", "seed": "11",
        "snapshot_stride": "0", "workers": "2", "quad_refine": "4",
        "malliavin.fractions": "0.1,0.9", "stats.lags": "2,4,8", "converge.levels": "8,16",
        "sweep.eps": "0.5,0.25,0.125", "transform.k_max": "2.0", "transform.d_max": "2.0",
        "transform.n": "32", "transform.cap": "1.0", "out": "somewhere",
        "beta": "regularized:2.5:0.125", "dt": "0.0001",
        "coeff.f.lambda": "0.7", "coeff.a.sigma": "0.2", "coeff.b.kappa": "0.3",
    }


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("Config keys (all have defaults)")
    paragraph = readme[start : readme.index("\n\n", start)]
    for key in [*cli._KEYS, "beta", *cli._PRESETS]:
        assert f"`{key}`" in paragraph, key


# ---------------------------------------------------------------------------
# config properties: per-key strategies of valid and invalid text


def floats(lo, hi, open_lo=False):
    return st.floats(lo, hi, exclude_min=open_lo).map(repr)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def joined(values):
    return ",".join(str(v) for v in values)


UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

VALID_TEXT = {
    "cells": ints(2, 1024),
    "t_final": floats(0.0, 1e6, open_lo=True),
    "theta": floats(0.0, 1.0, open_lo=True),
    "dt": floats(0.0, 1.0, open_lo=True),
    "bc": st.sampled_from(["neumann", "dirichlet"]),
    "beta": st.one_of(
        floats(1.0, 8.0, open_lo=True).map(lambda m: f"pme:{m}"),
        st.tuples(floats(1.0, 8.0, open_lo=True), UNIT.map(repr)).map(
            lambda t: f"regularized:{t[0]}:{t[1]}"
        ),
    ),
    "initial.y": floats(0.0, 1e3),
    "n_paths": ints(1, 10**6),
    "seed": ints(0, 2**64 - 1),
    "snapshot_stride": ints(0, 10**6),
    "workers": ints(1, 64),
    "quad_refine": ints(1, 64),
    "malliavin.fractions": st.lists(UNIT.map(repr), min_size=1, max_size=5).map(joined),
    "stats.lags": st.lists(st.integers(1, 10**4), min_size=1, max_size=6, unique=True).map(
        lambda v: joined(sorted(v))
    ),
    "converge.levels": st.tuples(st.integers(2, 64), st.integers(2, 5)).map(
        lambda t: joined(t[0] * 2**i for i in range(t[1]))
    ),
    "sweep.eps": st.lists(UNIT, min_size=1, max_size=5, unique=True).map(
        lambda v: joined(repr(x) for x in sorted(v, reverse=True))
    ),
    "transform.k_max": floats(0.0, 1e3, open_lo=True),
    "transform.d_max": floats(0.0, 1e3, open_lo=True),
    "transform.n": ints(8, 4096),
    "transform.cap": floats(0.0, 1e3, open_lo=True),
    "out": st.text("abcxyz019_-./", min_size=1, max_size=12),
}


def params(ns, **strategies):
    return st.fixed_dictionaries({}, optional={f"{ns}.{k}": v for k, v in strategies.items()})


NONNEG = floats(0.0, 10.0)
PRESET_PARAMS = {
    "coeff.f": {
        "zero": st.just({}),
        "logistic": params(
            "coeff.f", **{"lambda": NONNEG, "K": floats(0.0, 10.0, open_lo=True), "mu_y": NONNEG}
        ),
    },
    "coeff.a": {
        "zero": st.just({}),
        "linear": params("coeff.a", sigma=floats(-5.0, 5.0)),
        "saturating": params("coeff.a", sigma=floats(-5.0, 5.0)),
    },
    "coeff.b": {"zero": st.just({}), "coupling": params("coeff.b", kappa=NONNEG, rho=NONNEG)},
    "initial.c": {
        "constant": params("initial.c", value=NONNEG),
        "sine": params("initial.c", amplitude=NONNEG),
        # offset >= 0.5 >= |amplitude| whichever of the two is left at its default
        "cosine": params("initial.c", offset=floats(0.5, 10.0), amplitude=floats(-0.5, 0.5)),
        "bump": params("initial.c", amplitude=NONNEG),
        "barenblatt": params(
            "initial.c", m=floats(1.5, 4.0), t0=floats(0.01, 1.0), mass=floats(0.01, 1.0)
        ),
    },
}


@st.composite
def valid_mappings(draw):
    mapping = draw(st.fixed_dictionaries({}, optional=VALID_TEXT))
    dim = draw(st.sampled_from([None, 1, 2, 3]))
    if dim is not None:
        mapping["dim"] = str(dim)
    for ns, presets in PRESET_PARAMS.items():
        # barenblatt data is one-dimensional
        names = [n for n in presets if n != "barenblatt" or dim in (None, 1)]
        name = draw(st.sampled_from([None, *names]))
        if name is not None:
            mapping[ns] = name
            mapping.update(draw(presets[name]))
    return draw(st.permutations(list(mapping.items())).map(dict))


NOT_A_NUMBER = ["x", "1..2", "nan", "inf", ""]
# number-valued keys: out of range, and also not a finite number
OUT_OF_RANGE = {
    "dim": ["0", "4", "1.0"],
    "cells": ["1", "1025", "8.5"],
    "t_final": ["0", "-0.1"],
    "theta": ["0", "1.5", "-1"],
    "dt": ["0", "-1e-3"],
    "initial.y": ["-0.5"],
    "n_paths": ["0", "-3"],
    "seed": ["-1", str(2**64), str(2**70)],
    "snapshot_stride": ["-1"],
    "workers": ["0"],
    "quad_refine": ["0"],
    "malliavin.fractions": ["0.5,1.5", "0", "0.25,1"],
    "stats.lags": ["8,8", "16,8", "0,4"],
    "converge.levels": ["16,24", "16", "16,32,48", "1,2"],
    "sweep.eps": ["1e-2,1e-1", "0.5,0.5", "1.5"],
    "transform.k_max": ["0"],
    "transform.d_max": ["-2"],
    "transform.n": ["7"],
    "transform.cap": ["0"],
}
INVALID_TEXT = {
    **{key: bad + NOT_A_NUMBER for key, bad in OUT_OF_RANGE.items()},
    "bc": ["periodic", "Neumann", ""],
    "beta": ["pme:1.0", "pme:0.5", "pme", "regularized:2:0", "regularized:2:1.5", "linear:2"],
    "out": [""],
    "coeff.f": ["logistic_f", "linear", "bogus"],
    "coeff.a": ["linear_a", "coupling"],
    "coeff.b": ["coupling_b", "logistic"],
    "initial.c": ["cos", "gaussian"],
}


@st.composite
def corrupted_mappings(draw):
    """A valid mapping with one key, a table key or a preset parameter it
    carries, set to text that key refuses."""
    mapping = draw(valid_mappings())
    param_keys = [k for k in mapping if k.count(".") == 2]
    key = draw(st.sampled_from(sorted(INVALID_TEXT) + param_keys))
    mapping[key] = draw(st.sampled_from(INVALID_TEXT.get(key, NOT_A_NUMBER)))
    return mapping, key


def flat_text(mapping):
    return "".join(f"{k} = {v}\n" for k, v in mapping.items())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mapping=valid_mappings())
def test_any_valid_mapping_round_trips_through_its_echo(tmp_path, mapping):
    cfg = config_from_mapping(mapping)
    echo = config_echo(cfg)
    assert config_from_mapping(echo) == cfg
    assert load_config(write(tmp_path, flat_text(echo))) == cfg
    assert load_config(write(tmp_path, json.dumps(echo), name="run.json")) == cfg
    # the input file itself parses to the same config
    assert load_config(write(tmp_path, flat_text(mapping))) == cfg


@settings(max_examples=300, deadline=None)
@given(case=corrupted_mappings())
def test_corrupting_one_key_names_that_key(case):
    mapping, key = case
    with pytest.raises(SchemaError) as err:
        config_from_mapping(mapping)
    assert err.value.key == key


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=corrupted_mappings(), command=st.sampled_from(sorted(cli._RUNNERS)))
def test_corrupt_config_exits_3_and_writes_nothing(tmp_path, capsys, case, command):
    mapping, key = case
    out = tmp_path / "never"
    assert main([command, write(tmp_path, flat_text(mapping)), "--out", str(out)]) == 3
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# subcommand runs


def run_cli(command, tmp_path, text, out_name):
    cfg_path = write(tmp_path, text, name=f"{out_name}.cfg")
    out = tmp_path / out_name
    code = main([command, cfg_path, "--out", str(out)])
    return code, out


SMALL_SIM = (
    "cells = 8\nt_final = 0.02\nn_paths = 2\n"
    "initial.c = sine\ninitial.c.amplitude = 0.5\n"
)


def test_missing_config_exits_2(tmp_path):
    assert main(["simulate", str(tmp_path / "absent.cfg")]) == 2


def test_bad_key_exits_3(tmp_path):
    cfg_path = write(tmp_path, "mm = 3\n")
    assert main(["simulate", cfg_path]) == 3


def test_simulate_writes_verified_artifacts(tmp_path):
    code, out = run_cli("simulate", tmp_path, SMALL_SIM, "sim")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] and manifest["dt"] > 0.0
    assert all(manifest["reports"].values())
    # digests cover every emitted file and match the bytes on disk
    for rel, digest in manifest["digests"].items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
    assert "reports/simulate.csv" in manifest["digests"]
    rec = read_record(out / "paths" / "path_0001.rpme1")
    assert rec.grid.cells_per_axis == 8 and rec.path_id == 1
    assert rec.pairs == ()
    # the config echo in the manifest reproduces the run configuration
    echoed = config_from_mapping(manifest["config"])
    assert echoed.cells == 8 and echoed.n_paths == 2


def test_seed_beyond_u64_exits_3(tmp_path, capsys):
    code, out = run_cli("simulate", tmp_path, SMALL_SIM + f"seed = {2**64}\n", "wide")
    assert code == 3
    assert "config key 'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_largest_u64_seed_runs_and_is_recorded(tmp_path):
    code, out = run_cli("simulate", tmp_path, SMALL_SIM + f"seed = {2**64 - 1}\n", "widest")
    assert code == 0
    assert read_record(out / "paths" / "path_0001.rpme1").seed == 2**64 - 1


def test_refuses_nonempty_output_dir(tmp_path):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    cfg_path = write(tmp_path, SMALL_SIM)
    assert main(["simulate", cfg_path, "--out", str(out)]) == 3
    assert (out / "keep.txt").read_text() == "x"


def test_verify_zero_equilibrium_all_measured_zero(tmp_path):
    text = "cells = 16\nt_final = 0.1\ninitial.c = constant\n"
    code, out = run_cli("verify", tmp_path, text, "zero")
    assert code == 0
    with open(out / "reports" / "verify.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 6
    assert all(float(row["measured"]) == 0.0 for row in rows)
    assert all(row["passed"] == "true" for row in rows)


def test_verify_coupled_run_passes(tmp_path):
    text = (
        "cells = 10\nt_final = 0.02\nn_paths = 8\n"
        "initial.c = cosine\ninitial.c.offset = 1.0\ninitial.c.amplitude = 0.5\n"
        "initial.y = 1.0\ncoeff.f = logistic\ncoeff.a = linear\ncoeff.a.sigma = 0.4\n"
        "coeff.b = coupling\n"
    )
    code, out = run_cli("verify", tmp_path, text, "coupled")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["r2_bound"] > 1.5
    names = set(manifest["reports"])
    assert "verify/weak_residual_constant_window" in names
    assert "verify/y_holder_exponent" in names


def test_numerical_abort_leaves_no_outputs(tmp_path):
    # forcing the step size far above the parabolic bound drives the
    # explicit update to overflow
    text = (
        "cells = 8\nt_final = 1.0\ndt = 0.05\nbc = dirichlet\n"
        "initial.c = sine\ninitial.c.amplitude = 1.0\n"
    )
    cfg_path = write(tmp_path, text)
    for command in ("simulate", "verify"):
        out = tmp_path / f"blowup_{command}"
        with np.errstate(all="ignore"):
            code = main([command, cfg_path, "--out", str(out)])
        assert code == 4, command
        assert not out.exists()
        assert list(tmp_path.glob(".*staging*")) == []


def test_growth_bound_overflow_exits_4(tmp_path, capsys):
    text = "cells = 8\nt_final = 100\ninitial.c = constant\ninitial.c.value = 20\n"
    code, out = run_cli("simulate", tmp_path, text, "overflow")
    assert code == 4
    assert not out.exists()
    assert list(tmp_path.glob(".*staging*")) == []
    assert "numerical abort" in capsys.readouterr().err


def test_unexpected_error_exits_5(tmp_path, monkeypatch, capsys):
    from rpmelab import cli

    def broken_runner(cfg, staging):
        (staging / "half_written.txt").write_text("x")
        raise KeyError("internal bug")

    monkeypatch.setitem(cli._RUNNERS, "simulate", broken_runner)
    code, out = run_cli("simulate", tmp_path, SMALL_SIM, "broken")
    assert code == 5
    assert not out.exists()
    assert list(tmp_path.glob(".*staging*")) == []
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal bug" in err


def scipy_modules_after(probe):
    """Names of the scipy modules loaded once ``probe`` has run in a fresh
    interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    listing = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{probe}\n{listing}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_out():
    assert scipy_modules_after("import rpmelab.cli") == "[]"


SMALL_MALLIAVIN = (
    "cells = 8\nt_final = 0.02\ninitial.c = cosine\ninitial.y = 1.0\n"
    "coeff.f = logistic\ncoeff.a = linear\ncoeff.b = coupling\n"
)


@pytest.mark.parametrize("mu_y", [0.0, 0.5])
def test_malliavin_imports_scipy_only_for_a_nonzero_z(tmp_path, mu_y):
    # f ignores y at mu_y = 0: z and its time slope are zero with no solve;
    # at mu_y > 0 the slope is a real H^-2 solve
    cfg = write(tmp_path, SMALL_MALLIAVIN + f"coeff.f.mu_y = {mu_y}\n")
    out = tmp_path / "out"
    run = f"from rpmelab.cli import main\nassert main(['malliavin', {cfg!r}, '--out', {str(out)!r}]) == 0"
    loaded = scipy_modules_after(run)
    with open(out / "reports" / "malliavin.csv", newline="") as fh:
        slopes = [float(r["measured"]) for r in csv.DictReader(fh) if r["name"].endswith("z_time_slope_hm2")]
    assert len(slopes) == 2
    if mu_y == 0.0:
        assert loaded == "[]" and slopes == [0.0, 0.0]
    else:
        assert "'scipy.sparse.linalg'" in loaded and min(slopes) > 0.0


def test_simulate_chunks_write_single_path_records(tmp_path, monkeypatch):
    # 2D frames of 20 paths exceed one chunk's frame budget
    from rpmelab import cli
    from rpmelab.simulate import _FRAME_BYTES, simulate_path

    text = (
        "dim = 2\ncells = 16\nt_final = 0.02\nn_paths = 20\nseed = 3\nworkers = 2\n"
        "initial.c = cosine\ninitial.c.amplitude = 0.5\ninitial.y = 1.0\n"
        "coeff.f = logistic\ncoeff.a = linear\ncoeff.a.sigma = 0.3\ncoeff.b = coupling\n"
    )
    chunk_ids = []
    real = cli.simulate_ensemble

    def spy(*args, on_chunk, **kwargs):
        def record(chunk):
            assert chunk.c.nbytes + chunk.y.nbytes <= _FRAME_BYTES
            chunk_ids.append([int(p) for p in chunk.path_ids])
            on_chunk(chunk)

        return real(*args, on_chunk=record, **kwargs)

    monkeypatch.setattr(cli, "simulate_ensemble", spy)
    code, out = run_cli("simulate", tmp_path, text, "chunks")
    assert code == 0
    assert len(chunk_ids) > 1
    assert [p for ids in chunk_ids for p in ids] == list(range(20))

    cfg = load_config(tmp_path / "chunks.cfg")
    config, c0 = cli._sim_config(cfg), cli._initial(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    for pid in range(20):
        rec = read_record(out / "paths" / f"path_{pid:04d}.rpme1")
        run = simulate_path(
            config, c0, cfg.y0, seed=3, path_id=pid, n_snapshots=len(rec.times) - 1
        )
        assert rec.dt == run.dt == manifest["dt"]
        assert np.array_equal(rec.times, run.times)
        assert np.array_equal(rec.c, run.c[:, 0]) and np.array_equal(rec.y, run.y[:, 0])


def test_failed_hard_report_exits_1(tmp_path, monkeypatch):
    from rpmelab import cli
    from rpmelab.analysis import EstimateReport

    def red_runner(cfg, staging):
        return {"probe": [EstimateReport("too_big", 2.0, 1.0)]}, {"dt": None, "r2_bound": None}

    monkeypatch.setitem(cli._RUNNERS, "simulate", red_runner)
    code, out = run_cli("simulate", tmp_path, SMALL_SIM, "red")
    assert code == 1
    # completed run: the failure is recorded, not discarded
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["reports"] == {"probe/too_big": False}


def test_malliavin_subcommand_closed_form(tmp_path):
    text = (
        "cells = 8\nt_final = 0.02\ninitial.c = cosine\ninitial.y = 1.0\n"
        "coeff.f = logistic\ncoeff.f.mu_y = 0.5\ncoeff.a = linear\ncoeff.a.sigma = 0.4\n"
        "malliavin.fractions = 0.25,0.5\n"
    )
    code, out = run_cli("malliavin", tmp_path, text, "mall")
    assert code == 0
    rec = read_record(out / "paths" / "malliavin_path.rpme1")
    assert len(rec.pairs) == 2
    assert rec.pairs[0].r < rec.pairs[1].r
    assert all(p.t == pytest.approx(0.02) for p in rec.pairs)
    manifest = json.loads((out / "manifest.json").read_text())
    closed = [k for k in manifest["reports"] if "closed_form" in k]
    assert len(closed) == 2 and all(manifest["reports"][k] for k in closed)


@pytest.mark.parametrize("sigma_line, sigma", [("", 0.5), ("coeff.a.sigma = 0.7\n", 0.7)])
def test_malliavin_closed_form_reads_sigma_from_the_model(tmp_path, sigma_line, sigma):
    text = (
        "cells = 8\nt_final = 0.02\ninitial.c = cosine\ninitial.y = 1.0\n"
        "coeff.f = logistic\ncoeff.a = linear\n" + sigma_line
        + "malliavin.fractions = 0.25,0.5\n"
    )
    code, out = run_cli("malliavin", tmp_path, text, "sigma")
    assert code == 0
    rec = read_record(out / "paths" / "malliavin_path.rpme1")
    for pair in rec.pairs:
        assert np.max(np.abs(pair.dry - sigma * rec.y[-1])) <= 1e-13 * np.max(rec.y[-1])
    with open(out / "reports" / "malliavin.csv", newline="") as fh:
        closed = [r for r in csv.DictReader(fh) if r["name"].endswith("closed_form_rel_error")]
    assert len(closed) == 2
    assert all(float(r["measured"]) <= 1e-13 for r in closed)


def test_malliavin_propagates_every_seed_in_one_sweep(tmp_path, monkeypatch):
    from rpmelab import malliavin
    from rpmelab.malliavin import seed_index

    seeds_per_call = []
    real = malliavin.step_malliavin

    def counting(mstate, *args):
        seeds_per_call.append(mstate.z.shape[0])
        return real(mstate, *args)

    monkeypatch.setattr(malliavin, "step_malliavin", counting)
    fractions = (0.5, 0.1, 0.75, 0.1)
    text = (
        "cells = 8\nt_final = 0.02\ninitial.c = cosine\ninitial.y = 1.0\n"
        "coeff.f = logistic\ncoeff.a = linear\ncoeff.b = coupling\n"
        "malliavin.fractions = 0.5,0.1,0.75,0.1\n"
    )
    code, out = run_cli("malliavin", tmp_path, text, "sweep")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    n = round(0.02 / manifest["dt"])
    r_indices = [seed_index(f, n) for f in fractions]
    # one call per step from the earliest seed, each seed stepped once
    assert len(seeds_per_call) == n - min(r_indices)
    assert sum(seeds_per_call) == sum(n - r for r in r_indices)
    assert max(seeds_per_call) == len(fractions)
    assert len(read_record(out / "paths" / "malliavin_path.rpme1").pairs) == len(fractions)


def test_simulate_path_sup_covers_every_step(tmp_path):
    # Dirichlet data under logistic growth: the sup rises for a few steps and
    # then decays, so with a stride above 1 it peaks between stored frames
    from rpmelab import cli
    from rpmelab.simulate import gen_wiener, simulate_path

    text = (
        "cells = 8\nt_final = 0.2\nbc = dirichlet\nn_paths = 3\nseed = 2\n"
        "snapshot_stride = 4\ninitial.c = constant\ninitial.c.value = 0.5\n"
        "initial.y = 1.0\ncoeff.f = logistic\ncoeff.f.lambda = 5\ncoeff.a = linear\n"
    )
    code, out = run_cli("simulate", tmp_path, text, "sup")
    assert code == 0
    with open(out / "reports" / "simulate.csv", newline="") as fh:
        measured = {r["name"]: float(r["measured"]) for r in csv.DictReader(fh)}
    cfg = load_config(tmp_path / "sup.cfg")
    config, c0 = cli._sim_config(cfg), cli._initial(cfg)
    between_frames = 0
    for pid in range(3):
        rec = read_record(out / "paths" / f"path_{pid:04d}.rpme1")
        n_steps = round(float(rec.times[-1]) / rec.dt)
        assert n_steps > len(rec.times) - 1  # frames skip steps
        wiener = gen_wiener(n_steps, rec.dt, 2, pid)
        dense = simulate_path(config, c0, cfg.y0, wiener=wiener, store_dense=True)
        assert measured[f"path_{pid:04d}_sup"] == float(np.max(dense.c))
        between_frames += float(np.max(dense.c)) > float(np.max(rec.c))
    assert between_frames
    assert measured["ensemble_sup"] == max(measured[f"path_{p:04d}_sup"] for p in range(3))


def test_converge_rejects_non_doubling_levels(tmp_path):
    text = "converge.levels = 16,24\n"
    code, out = run_cli("converge", tmp_path, text, "badlevels")
    assert code == 3
    assert not out.exists()


def test_converge_small_ladder(tmp_path):
    text = (
        "converge.levels = 4,8,16\nt_final = 0.01\nn_paths = 4\n"
        "initial.c = cosine\ninitial.y = 1.0\ncoeff.a = linear\ncoeff.b = coupling\n"
    )
    code, out = run_cli("converge", tmp_path, text, "ladder")
    manifest = json.loads((out / "manifest.json").read_text())
    assert "converge/c_distance_4_8" in manifest["reports"]
    assert "converge/c_contraction_8_16" in manifest["reports"]
    assert code == 0, manifest["reports"]


def test_sweep_eps_subcommand(tmp_path):
    text = (
        "cells = 8\nt_final = 0.01\nn_paths = 2\nsweep.eps = 1e-1,2.5e-2,6.25e-3\n"
        "initial.c = cosine\ninitial.y = 1.0\ncoeff.a = linear\n"
    )
    code, out = run_cli("sweep-eps", tmp_path, text, "sweep")
    manifest = json.loads((out / "manifest.json").read_text())
    assert code == 0, manifest["reports"]
    gaps = [k for k in manifest["reports"] if k.startswith("sweep_eps/beta_gap_contraction")]
    assert len(gaps) == 2


STEP_RUN = "cells = 8\nt_final = 0.02\nn_paths = 2\nconverge.levels = 4,8\n"


def test_sweep_eps_honours_theta(tmp_path):
    dts = {}
    for theta in ("0.5", "0.25"):
        text = STEP_RUN + f"theta = {theta}\n"
        code, out = run_cli("sweep-eps", tmp_path, text, f"sweep_theta_{theta}")
        assert code == 0
        dts[theta] = json.loads((out / "manifest.json").read_text())["dt"]
    assert dts["0.25"] < dts["0.5"]


@pytest.mark.parametrize("command", ["converge", "sweep-eps"])
def test_step_override_reaches_ladders(tmp_path, command):
    code, out = run_cli(command, tmp_path, STEP_RUN + "dt = 1e-4\n", "override")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dt"] == 0.02 / math.ceil(0.02 / 1e-4)


def test_transform_demo_tables(tmp_path):
    text = "transform.n = 40\nbeta = pme:2\n"
    code, out = run_cli("transform-demo", tmp_path, text, "tables")
    assert code == 0
    for name in ("big_phi", "psi"):
        with open(out / "transforms" / f"{name}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "d", "value"]
        assert len(rows) == 1 + 40 * 40
        assert float(rows[1][2]) == 0.0  # table corner at the origin


# ---------------------------------------------------------------------------
# determinism contract


def _normalized_manifest(out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    manifest.pop("wall_time_s")
    manifest["config"].pop("out")  # location metadata, differs per run by design
    return manifest


def _file_bytes(out: Path) -> dict[str, bytes]:
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


NOISY_SIM = (
    "cells = 8\nt_final = 0.02\nn_paths = 5\nseed = 42\n"
    "initial.c = cosine\ninitial.y = 1.0\n"
    "coeff.f = logistic\ncoeff.a = linear\ncoeff.a.sigma = 0.4\ncoeff.b = coupling\n"
)


def test_reruns_and_worker_counts_are_byte_identical(tmp_path):
    code1, out1 = run_cli("simulate", tmp_path, NOISY_SIM, "rep1")
    code2, out2 = run_cli("simulate", tmp_path, NOISY_SIM, "rep2")
    code3, out3 = run_cli("simulate", tmp_path, NOISY_SIM + "workers = 3\n", "rep3")
    assert code1 == code2 == code3 == 0

    assert _file_bytes(out1) == _file_bytes(out2)
    assert _normalized_manifest(out1) == _normalized_manifest(out2)

    m1, m3 = _normalized_manifest(out1), _normalized_manifest(out3)
    assert m1["digests"] == m3["digests"]  # worker count is invisible in artifacts
    assert m1["reports"] == m3["reports"]
    assert _file_bytes(out1) == _file_bytes(out3)


LADDER = (
    "cells = 8\nt_final = 0.01\nn_paths = 130\nseed = 5\nconverge.levels = 4,8\n"
    "sweep.eps = 1e-1,2.5e-2\ninitial.c = cosine\ninitial.y = 1.0\n"
    "coeff.f = logistic\ncoeff.a = linear\ncoeff.b = coupling\n"
)


@pytest.mark.parametrize("command", ["converge", "sweep-eps"])
def test_ladders_are_byte_identical_across_worker_counts(tmp_path, monkeypatch, command):
    from rpmelab import analysis

    workers = []
    real = analysis.simulate_ensemble

    def spy(*args, n_workers, **kwargs):
        workers.append(n_workers)
        return real(*args, n_workers=n_workers, **kwargs)

    monkeypatch.setattr(analysis, "simulate_ensemble", spy)
    # 130 paths run as two chunks
    code1, out1 = run_cli(command, tmp_path, LADDER, "w1")
    code3, out3 = run_cli(command, tmp_path, LADDER + "workers = 3\n", "w3")
    assert code1 == code3 == 0
    assert set(workers) == {1, 3}
    assert _normalized_manifest(out1)["digests"] == _normalized_manifest(out3)["digests"]
    assert _file_bytes(out1) == _file_bytes(out3)


@pytest.mark.parametrize(
    "command,text,cells,key",
    [
        ("simulate", "dim = 2\ncells = 16\nt_final = 0.001\n", 16, "cells"),
        ("verify", "dim = 2\ncells = 16\nt_final = 0.001\n", 16, "cells"),
        ("malliavin", "dim = 2\ncells = 16\nt_final = 0.001\n", 16, "cells"),
        ("sweep-eps", "dim = 2\ncells = 16\nt_final = 0.001\n", 16, "cells"),
        # cells is not converge's grid: only its finest level counts
        ("converge", "dim = 2\ncells = 64\nt_final = 0.001\nconverge.levels = 4,8\n", 8,
         "converge.levels"),
    ],
)
def test_step_state_beyond_physical_memory_exits_3(
    tmp_path, monkeypatch, capsys, command, text, cells, key
):
    from rpmelab import cli
    from rpmelab.grid import build_grid

    # simulate stores a frame per step here (fewer than 256 steps); verify
    # streams its path and the other subcommands store no frame
    frames = 0
    if command == "simulate":
        cfg = config_from_mapping(dict(line.split(" = ") for line in text.splitlines()))
        config = cli._sim_config(cfg)
        n = config.resolve_steps(cli._growth_radius(config, cli._initial(cfg), cfg.y0)[0])[1]
        assert n < 256
        frames = n + 1
    need = path_bytes(build_grid(2, cells), frames)
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    code, out = run_cli(command, tmp_path, text, "over")
    assert code == 3
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setattr(cli, "_physical_memory", lambda: need)
    assert run_cli(command, tmp_path, text, "fits")[0] == 0


def test_verify_preflight_counts_no_frames(tmp_path, monkeypatch):
    # memory for the step state but not for every step of path 0, which
    # verify no longer holds
    from rpmelab.grid import build_grid

    text = "dim = 2\ncells = 16\nt_final = 0.001\n"
    cfg = config_from_mapping(dict(line.split(" = ") for line in text.splitlines()))
    config = cli._sim_config(cfg)
    n = config.resolve_steps(cli._growth_radius(config, cli._initial(cfg), cfg.y0)[0])[1]
    grid = build_grid(2, 16)
    assert path_bytes(grid, 0) < path_bytes(grid, n + 1) - 1
    monkeypatch.setattr(cli, "_physical_memory", lambda: path_bytes(grid, n + 1) - 1)
    assert run_cli("verify", tmp_path, text, "streamed")[0] == 0


README_COEFFICIENTS = (
    "beta = pme:2.0\ninitial.c = cosine\ninitial.c.amplitude = 0.5\ninitial.y = 1.0\n"
    "coeff.f = logistic\ncoeff.f.lambda = 0.5\ncoeff.a = linear\ncoeff.a.sigma = 0.3\n"
    "coeff.b = coupling\n"
)


def test_verify_at_128_squared_passes_the_preflight(tmp_path, monkeypatch):
    # README coefficients on a 128^2 grid: 42,192 steps, whose frames (11.4 GB)
    # an 8 GiB machine cannot hold; the run is stopped where stepping starts
    class Stepping(Exception):
        pass

    def stop(*args, **kwargs):
        raise Stepping

    text = "dim = 2\ncells = 128\nt_final = 0.1\n" + README_COEFFICIENTS
    cfg = load_config(write(tmp_path, text))
    monkeypatch.setattr(cli, "_physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(cli, "simulate_ensemble", stop)
    with pytest.raises(Stepping):
        cli._run_verify(cfg, tmp_path)


def _verify_peak_bytes(tmp_path, t_final, name):
    import tracemalloc

    text = (
        "dim = 2\ncells = 16\nn_paths = 4\nworkers = 1\nseed = 4711\n"
        f"t_final = {t_final}\n" + README_COEFFICIENTS
    )
    tracemalloc.start()
    try:
        code, _ = run_cli("verify", tmp_path, text, name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_verify_memory_does_not_grow_with_its_step_count(tmp_path):
    # four times the steps: the frames of path 0 made the peaks 2.3 MiB and
    # 12.8 MiB when verify held them; streamed, only O(steps) floats grow.  The first
    # run also holds what is made once per process (imports, caches).
    _verify_peak_bytes(tmp_path, 0.05, "warm")
    short = _verify_peak_bytes(tmp_path, 0.05, "short")
    long = _verify_peak_bytes(tmp_path, 0.2, "long")
    assert long <= 1.1 * short, (short, long)


@pytest.mark.parametrize("n_paths", [1, 5])
def test_verify_steps_each_path_once(tmp_path, monkeypatch, n_paths):
    # path 0 is read from the ensemble's first chunk, not stepped again alone
    from rpmelab import simulate

    c_rows, y_rows, c_half, y_half = [], [], simulate._c_half, simulate._y_half
    monkeypatch.setattr(simulate, "_c_half", lambda src, *a: c_rows.append(len(src[0])) or c_half(src, *a))
    monkeypatch.setattr(simulate, "_y_half", lambda c, y, *a: y_rows.append(len(y)) or y_half(c, y, *a))
    text = f"dim = 1\ncells = 8\nn_paths = {n_paths}\nworkers = 1\nt_final = 0.01\n" + README_COEFFICIENTS
    cfg = config_from_mapping(dict(line.split(" = ") for line in text.splitlines()))
    _, extras = cli._run_verify(cfg, tmp_path)
    n = round(0.01 / extras["dt"])
    # the README source ignores y: one shared c row per step
    assert y_rows == [n_paths] * n and c_rows == [1] * n


def _report_rows(reports):
    """Reports as the CSV writes them."""
    return [(r.name, repr(float(r.measured)), repr(r.bound), json.dumps(r.detail, sort_keys=True, default=float))
            for r in reports]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    dim=st.integers(1, 3),
    bc=st.sampled_from(["neumann", "dirichlet"]),
    theta=st.floats(0.1, 1.0),
    mu_y=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_streamed_verify_reports_are_the_dense_ones(tmp_path, dim, bc, theta, mu_y, seed, data):
    # verify streams path 0 through its report sums; the reports computed
    # from the dense frames of the same path must agree to the bit
    from rpmelab.analysis import (
        EstimateReport, bump_time_profile, energy_report, holder_report, linf_check,
        weak_residual,
    )
    from rpmelab.grid import free_node_count
    from rpmelab.simulate import interior_v_mass, simulate_path

    cells = data.draw(st.integers(*{1: (4, 16), 2: (2, 8), 3: (2, 4)}[dim]), label="cells")
    n_paths, workers = data.draw(st.integers(1, 5), label="n_paths"), data.draw(st.sampled_from([1, 3]))
    text = (
        f"dim = {dim}\ncells = {cells}\nbc = {bc}\ntheta = {theta!r}\nt_final = 0.01\n"
        f"n_paths = {n_paths}\nworkers = {workers}\nseed = {seed}\nstats.lags = 2,4,8\n"
        f"coeff.f.mu_y = {mu_y!r}\n" + README_COEFFICIENTS
    )
    cfg = config_from_mapping(dict(line.split(" = ") for line in text.splitlines()))
    sections, extras = cli._run_verify(cfg, tmp_path)

    config, c0 = cli._sim_config(cfg), cli._initial(cfg)
    coeffs, grid = config.coeffs, config.grid
    r2 = cli._growth_radius(config, c0, cfg.y0)[1]
    run = simulate_path(config, c0, cfg.y0, seed=seed, store_dense=True)
    dense = [
        linf_check(float(np.max(run.c)), r2),
        cli._mass_report(interior_v_mass(run.c[:, 0], grid, coeffs), cfg),
        *energy_report(run, coeffs, cfg.theta),
    ]
    n_free = free_node_count(grid)
    if n_free:
        v = np.random.default_rng(seed).uniform(0.5, 1.0, size=n_free)
        ones = lambda t: np.ones_like(np.asarray(t, dtype=np.float64))
        zeros = lambda t: np.zeros_like(np.asarray(t, dtype=np.float64))
        windows = (("constant", (ones, zeros), 1e-10), ("bump", bump_time_profile(0.01), None))
        for name, window, bound in windows:
            scaled = weak_residual(run, coeffs, v, *window)[1]
            dense.append(EstimateReport(f"weak_residual_{name}_window", scaled, bound))
    center = (slice(None), 0) + tuple(s // 2 for s in grid.shape)
    lags = tuple(lag for lag in cfg.lags if lag < run.n_steps)
    if len(lags) >= 2:
        dense.append(holder_report(run.y[center], run.dt, lags, "y_holder_exponent"))

    streamed = sections["verify"]
    assert _report_rows(streamed[: len(dense)]) == _report_rows(dense)
    assert [r.name for r in streamed[len(dense):]] == [
        "ensemble_sup_vs_growth_bound", "terminal_y_second_moment"
    ]
    assert extras["dt"] == run.dt


@pytest.mark.parametrize("block", [None, 1000])
def test_artifacts_are_hashed_in_blocks(tmp_path, monkeypatch, block):
    from rpmelab import cli

    if block is not None:
        monkeypatch.setattr(cli, "_DIGEST_BLOCK", block)
    data = np.random.default_rng(0).bytes(2 * cli._DIGEST_BLOCK + 12345)
    (tmp_path / "paths").mkdir()
    (tmp_path / "paths" / "big.rpme1").write_bytes(data)
    (tmp_path / "empty.csv").write_bytes(b"")
    assert cli._digest_tree(tmp_path) == {
        "empty.csv": hashlib.sha256(b"").hexdigest(),
        "paths/big.rpme1": hashlib.sha256(data).hexdigest(),
    }


DERIVATIVE_2D = (
    "dim = 2\ncells = 32\nt_final = 0.05\nmalliavin.fractions = 0.1,0.25,0.5,0.75\n"
    "beta = pme:2.0\ninitial.c = cosine\ninitial.c.amplitude = 0.5\ninitial.y = 1.0\n"
    "coeff.f = logistic\ncoeff.f.lambda = 0.5\ncoeff.a = linear\ncoeff.a.sigma = 0.3\n"
    "coeff.b = coupling\n"
)


def test_malliavin_streams_its_record_in_bounded_memory(tmp_path):
    # the record holds every step of the primal, over 20 MiB; the run keeps
    # O(state) of it (the frames were held whole before, a 22.9 MiB peak)
    import tracemalloc

    tracemalloc.start()
    try:
        code, out = run_cli("malliavin", tmp_path, DERIVATIVE_2D, "deriv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (out / "paths" / "malliavin_path.rpme1").stat().st_size > 20 * 2**20
    assert peak < 4 * 2**20
