"""Benchmark harness for the rpmelab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S      # every workload

Each workload is one pinned CLI config.  A run repeats it in a closed loop
with one client: every sample is a fresh child interpreter (``child.py``)
that imports ``rpmelab.cli``, calls ``load_config`` and then ``run_command``,
and children run strictly one after another until the next one would end
after ``--seconds``.  The seed becomes the config's ``seed``, so the same seed
gives the same inputs, and every child of a run must write byte-identical
artifacts.  Every child's artifacts go through ``check.check_run``; a child
with a failed check, a wrong exit code or a timeout counts as failed.

End-to-end metrics (``--trace 0``), each the median over the passing
children of the run:

- ``setup_s``: from spawning the child until ``load_config`` returns
  (interpreter start, ``import rpmelab.cli``, config parsing);
- ``run_s``: until ``run_command`` returns, artifacts renamed into place;
- ``node_steps_per_s``: useful node-steps / ``run_s``.  Useful node-steps
  are computed here from the config and the manifest ``dt``: paths x steps x
  (M+2)^dim, once per path and level, plus for ``malliavin`` the derivative
  node-steps once per fraction.  Work the program repeats is not counted;
- ``peak_rss_mb``: the child's ``ru_maxrss`` in MiB.

The share of failed children is printed with them and given by the
``failed`` and ``attempted`` fields of the result line.

Per-layer metrics (``--trace 1``) come from children that run with
``tracer.Tracer`` installed, alternating with untraced children; names are
``<module>.<function>.<stat>``, summed over threads and taken as the median
over the traced children.  ``trace.overhead_frac`` is the traced median
``run_s`` over the untraced one, minus 1.  ``setup.import_*_s`` come from
``python -X importtime -c "import rpmelab.cli"``.  Layers a workload does
not reach read 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
the environment block (git sha, nproc, versions, BLAS threads, seed, src/
line count) and every sample goes to ``bench/out/results/``.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One BLAS thread per child: with the default pool on two cores the dense
# H^-2 factorization varied twentyfold between processes, and workers=2
# already occupies both cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0  # no child starts after this, so a run ends well within 180 s
MIN_SAMPLES = 3
IMPORTTIME_SAMPLES = 3

# README coefficients shared by every workload
BASE = {
    "beta": "pme:2.0",
    "initial.c": "cosine",
    "initial.c.amplitude": "0.5",
    "initial.y": "1.0",
    "coeff.f": "logistic",
    "coeff.f.lambda": "0.5",
    "coeff.a": "linear",
    "coeff.a.sigma": "0.3",
    "coeff.b": "coupling",
}


@dataclass(frozen=True)
class Workload:
    command: str
    keys: dict[str, str]
    tiny: dict[str, str]  # overrides for the smoke test


# Sizes keep one child near 2-3 s so a run takes several samples.
# transform-demo is not a workload: its tabulation takes about 0.05 s, below
# the noise in setup_s.  sweep-eps is not one either: it runs the same
# simulate_batch path as refine-2d.
WORKLOADS = {
    "paths-1d": Workload(
        "simulate",
        {"dim": "1", "cells": "32", "n_paths": "32", "t_final": "0.1", "workers": "2"},
        {"cells": "8", "n_paths": "3", "t_final": "0.01"},
    ),
    "ensemble-2d": Workload(
        "verify",
        {"dim": "2", "cells": "32", "n_paths": "256", "t_final": "0.01", "workers": "2"},
        {"cells": "8", "n_paths": "130", "t_final": "0.01"},
    ),
    "refine-2d": Workload(
        "converge",
        {"dim": "2", "converge.levels": "8,16,32", "n_paths": "64", "t_final": "0.025"},
        {"converge.levels": "4,8", "n_paths": "4", "t_final": "0.01"},
    ),
    "derivative-2d": Workload(
        "malliavin",
        {
            "dim": "2",
            "cells": "32",
            "t_final": "0.05",
            "malliavin.fractions": "0.1,0.25,0.5,0.75",
        },
        {"cells": "8", "t_final": "0.01"},
    ),
}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("node_steps_per_s", "node-steps/s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("simulate.step.calls", "count"),
    ("simulate.step.self_s", "s"),
    ("simulate.step.us_per_call", "us"),
    ("simulate.apply_bc.self_s", "s"),
    ("simulate.step.node_steps", "count"),
    ("grid.laplacian_core.self_s", "s"),
    ("simulate.simulate_ensemble.total_s", "s"),
    ("simulate.simulate_ensemble.parallelism", "ratio"),
    ("simulate.simulate_batch.total_s", "s"),
    ("analysis.cauchy_refinement.self_s", "s"),
    ("simulate.work_ratio", "ratio"),
    ("malliavin.step_malliavin.calls", "count"),
    ("malliavin.step_malliavin.self_s", "s"),
    ("malliavin.propagate.calls", "count"),
    ("malliavin.work_ratio", "ratio"),
    ("grid.hminus2_norm.calls", "count"),
    ("grid.hminus2_norm.self_s", "s"),
    ("pathfile.write_record.calls", "count"),
    ("pathfile.write_record.self_s", "s"),
    ("pathfile.write_record.mb", "MB"),
    ("cli.run_command.self_s", "s"),
    ("setup.import_numpy_s", "s"),
    ("setup.import_scipy_s", "s"),
    ("setup.import_rpmelab_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def config_keys(name: str, seed: int, tiny: bool = False) -> dict[str, str]:
    wl = WORKLOADS[name]
    keys = {**BASE, **wl.keys, "seed": str(seed)}
    if tiny:
        keys.update(wl.tiny)
    return keys


# ---------------------------------------------------------------------------
# useful work


def useful_node_steps(command: str, keys: dict[str, str], dt: float) -> tuple[int, int]:
    """(primal, derivative) node-steps the run needs, each path, level and
    derivative fraction counted once."""
    dim = int(keys["dim"])
    n = round(float(keys["t_final"]) / dt)
    n_paths = int(keys.get("n_paths", "1"))
    if command == "converge":
        # cauchy_refinement steps level l with a power-of-two multiple of the
        # finest dt, the largest not above (h_l / h_fine)^2
        levels = [int(v) for v in keys["converge.levels"].split(",")]
        total = 0
        for m in levels:
            ratio = ((levels[-1] + 1) / (m + 1)) ** 2
            factor = 2 ** int(math.floor(math.log2(ratio))) if ratio >= 2.0 else 1
            total += n_paths * (n // factor) * (m + 2) ** dim
        return total, 0
    nodes = (int(keys["cells"]) + 2) ** dim
    if command != "malliavin":
        return n_paths * n * nodes, 0
    deriv = 0
    for frac in keys["malliavin.fractions"].split(","):
        r_index = min(n - 1, max(0, int(round(float(frac) * n))))
        deriv += (n - r_index) * nodes
    return n * nodes, deriv


# ---------------------------------------------------------------------------
# child runs


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def write_config(path: Path, keys: dict[str, str]) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")


def run_child(
    name: str, keys: dict[str, str], work: Path, trace: bool, reference, start_cpu: int = 0
) -> dict:
    """One CLI run in a fresh interpreter started on ``start_cpu``, checked;
    returns the sample."""
    from check import check_run

    command = WORKLOADS[name].command
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "out"
    cfg_path = work / "run.cfg"
    write_config(cfg_path, {**keys, "out": str(out)})
    result_path = work / "result.json"
    trace_path = work / "trace.json"
    argv = [sys.executable, str(BENCH / "child.py"), str(start_cpu), command]
    argv += [str(cfg_path), str(result_path)]
    if trace:
        argv.append(str(trace_path))

    sample: dict = {"traced": trace}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sample["wall_s"] = time.monotonic() - t_spawn
        sample["failures"] = [f"timeout after {CHILD_TIMEOUT_S} s"]
        shutil.rmtree(work, ignore_errors=True)
        return sample
    sample["wall_s"] = time.monotonic() - t_spawn
    sample["exit_code"] = proc.returncode
    failures = []
    if result_path.exists():
        res = json.loads(result_path.read_text(encoding="utf-8"))
        sample["setup_s"] = res["t_config"] - t_spawn
        sample["run_s"] = res["run_s"]
        sample["peak_rss_mb"] = res["peak_rss_mb"]
    else:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
        failures.append("child wrote no result: " + " | ".join(tail))
    failures += check_run(out, proc.returncode, command, keys, reference)
    manifest = out / "manifest.json"
    if not failures:
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        sample["digests"] = doc["digests"]
        primal, deriv = useful_node_steps(command, keys, doc["dt"])
        sample["useful_primal"] = primal
        sample["useful_derivative"] = deriv
        sample["node_steps_per_s"] = (primal + deriv) / sample["run_s"]
        if trace:
            sample["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
    sample["failures"] = failures
    shutil.rmtree(work, ignore_errors=True)
    return sample


def import_times() -> dict[str, float]:
    """Cumulative import seconds of the outermost numpy, scipy and rpmelab
    modules under ``python -X importtime -c 'import rpmelab.cli'``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import rpmelab.cli"],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    entries = []  # (depth, module, cumulative us), children before parents
    for line in proc.stderr.decode().splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cum)))
    totals = {"numpy": 0, "scipy": 0, "rpmelab": 0}
    stack: list[tuple[int, str]] = []  # ancestors, walking parents first
    for depth, mod, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = mod.split(".")[0]
        if root in totals and all(a.split(".")[0] != root for _, a in stack):
            totals[root] += cum
        stack.append((depth, mod))
    return {f"setup.import_{k}_s": v * 1e-6 for k, v in totals.items()}


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(samples: list[dict]) -> dict[str, float]:
    good = [s for s in samples if not s["failures"] and not s["traced"]]
    return {name: _median([s[name] for s in good]) for name, _ in END_TO_END}


def layer_values(sample: dict) -> dict[str, float]:
    """Per-layer values of one traced sample (zeros for layers not reached)."""
    summary = sample["trace"]["summary"]

    def get(fn: str, stat: str) -> float:
        return summary.get(fn, {}).get(stat, 0)

    out = {}
    for name, _ in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if fn in ("setup", "trace"):
            continue
        if stat == "us_per_call":
            calls = get(fn, "calls")
            out[name] = get(fn, "total_s") / calls * 1e6 if calls else 0.0
        elif stat == "node_steps":
            out[name] = get(fn, "nodes")
        elif stat == "mb":
            out[name] = get(fn, "bytes") / 2**20
        elif stat == "work_ratio":
            step = {"simulate": "simulate.step", "malliavin": "malliavin.step_malliavin"}[fn]
            useful = sample["useful_primal" if fn == "simulate" else "useful_derivative"]
            out[name] = get(step, "nodes") / useful if useful else 0.0
        else:
            out[name] = get(fn, stat)
    return out


def per_layer_metrics(samples: list[dict], imports: list[dict]) -> dict[str, float]:
    traced = [s for s in samples if not s["failures"] and s["traced"]]
    plain = [s for s in samples if not s["failures"] and not s["traced"]]
    per = [layer_values(s) for s in traced]
    out = {name: _median([p[name] for p in per]) for name, _ in PER_LAYER if per and name in per[0]}
    for key in imports[0] if imports else ():
        out[key] = _median([imp[key] for imp in imports])
    if traced and plain:
        out["trace.overhead_frac"] = (
            _median([s["run_s"] for s in traced]) / _median([s["run_s"] for s in plain]) - 1.0
        )
    return out


# ---------------------------------------------------------------------------
# environment block


def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "blas_threads": BLAS_ENV,
        "seed": seed,
        "src_lines": src_lines,  # metadata for code size, not a metric
    }


# ---------------------------------------------------------------------------
# entry point


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    keys = config_keys(name, seed)
    reference = load_reference().get(name)
    start = time.monotonic()
    deadline = start + seconds
    imports = []
    if trace:
        imports = [import_times() for _ in range(IMPORTTIME_SAMPLES)]
    work = OUT / "work" / name
    cpus = sorted(os.sched_getaffinity(0))
    samples: list[dict] = []
    while True:
        traced = trace and len(samples) % 2 == 1
        # CPUs of a shared host change speed independently for seconds at a
        # time; starting children (traced/untraced pairs) on each CPU in turn
        # samples all of them
        start_cpu = cpus[(len(samples) // 2 if trace else len(samples)) % len(cpus)]
        sample = run_child(name, keys, work, traced, reference, start_cpu)
        good = [s for s in samples if "digests" in s]
        if "digests" in sample and good and sample["digests"] != good[0]["digests"]:
            sample["failures"].append("artifacts differ from the run's first child")
        samples.append(sample)
        now = time.monotonic()
        per_child = statistics.median(s["wall_s"] for s in samples)
        enough = len(samples) >= (2 * MIN_SAMPLES if trace else MIN_SAMPLES)
        if (enough and now + per_child > deadline) or now - start + per_child > RUN_LIMIT_S:
            break
    failed = sum(1 for s in samples if s["failures"])
    metrics = per_layer_metrics(samples, imports) if trace else end_to_end_metrics(samples)
    return {
        "workload": name,
        "command": WORKLOADS[name].command,
        "config": keys,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
        "imports": imports,
        "samples": samples,
    }


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def report(result: dict) -> None:
    """Human-readable lines for one workload run."""
    name = result["workload"]
    units = dict(PER_LAYER if result["trace"] else END_TO_END)
    used = [s for s in result["samples"] if not s["failures"] and s["traced"] == result["trace"]]
    for metric, value in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:14s} {metric:40s} {shown:>14s} {units[metric]:13s} n={len(used)}")
    frac = result["failed"] / result["attempted"]
    print(f"{name:14s} {'failed_frac':40s} {frac:>14.6g} {'fraction':13s} n={result['attempted']}")
    for i, s in enumerate(result["samples"]):
        for f in s["failures"]:
            print(f"{name:14s} child {i} FAILED: {f}", file=sys.stderr)


def save(result: dict) -> None:
    res_dir = OUT / "results"
    res_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{result['workload']}-seed{result['environment']['seed']}-trace{int(result['trace'])}"
    (res_dir / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rpmelab" / "cli.py").is_file():
        print(f"error: no rpmelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # compile the package once and fail fast if it cannot be imported
    warm = subprocess.run(
        [sys.executable, "-c", "import rpmelab.cli"],
        cwd=ROOT,
        env=child_env(),
        stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
    )
    if warm.returncode != 0:
        print(warm.stderr.decode("utf-8", "replace"), file=sys.stderr)
        print("error: rpmelab.cli does not import", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        save(result)
        report(result)
        results.append(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "/"
        for metric, value in r["metrics"].items():
            if value is not None:
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
