"""Smoke test of the benchmark harness on tiny configs of the four workloads.

    python3 -m pytest bench/test_smoke.py -q
"""
import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

from check import check_run  # noqa: E402  (needs rpmelab on the path)


@pytest.fixture
def tmp_path(request):
    """A scratch directory inside the benchmark's ignored output tree."""
    path = run.OUT / "smoke" / request.node.name.replace("[", "-").rstrip("]")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    keys = run.config_keys(name, seed=3, tiny=True)
    sample = run.run_child(name, keys, tmp_path / "work", trace=name == "derivative-2d", reference=None)
    assert sample["failures"] == []
    assert sample["exit_code"] == 0
    assert sample["setup_s"] > 0.0 and sample["run_s"] > 0.0 and sample["peak_rss_mb"] > 0.0
    assert sample["useful_primal"] > 0
    if sample["traced"]:
        layers = run.layer_values(sample)
        # every seed is propagated twice: once for the record, once for the report
        assert layers["malliavin.work_ratio"] == 2.0
        assert layers["malliavin.step_malliavin.calls"] > 0
        assert layers["pathfile.write_record.calls"] == 1


def test_traced_ensemble_attributes_worker_threads(tmp_path):
    keys = run.config_keys("ensemble-2d", seed=3, tiny=True)  # 130 paths: two chunks
    sample = run.run_child("ensemble-2d", keys, tmp_path / "work", trace=True, reference=None)
    assert sample["failures"] == []
    summary = sample["trace"]["summary"]
    assert summary["simulate.simulate_ensemble"]["parallelism"] > 0.0
    threads = {c["thread"] for c in sample["trace"]["counters"] if c["name"] == "simulate.step"}
    assert len(threads) >= 2
    assert all(e["self_s"] >= 0.0 for e in summary.values())


def _cli_run(tmp_path, name):
    keys = run.config_keys(name, seed=5, tiny=True)
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    run.write_config(cfg, {**keys, "out": str(out)})
    proc = subprocess.run(
        [sys.executable, "-m", "rpmelab.cli", run.WORKLOADS[name].command, str(cfg)],
        env=run.child_env(),
        capture_output=True,
        timeout=120,
    )
    return keys, out, proc.returncode


def _redigest(d, rel):
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["digests"][rel] = hashlib.sha256((d / rel).read_bytes()).hexdigest()
    (d / "manifest.json").write_text(json.dumps(manifest))


def test_checker_counts_corrupted_artifacts(tmp_path):
    keys, out, code = _cli_run(tmp_path, "paths-1d")
    assert check_run(out, code, "simulate", keys, None) == []
    assert check_run(out, 1, "simulate", keys, None) == ["exit code 1"]

    def corrupted(mutate):
        copy = tmp_path / f"copy{len(list(tmp_path.iterdir()))}"
        shutil.copytree(out, copy)
        mutate(copy)
        return check_run(copy, 0, "simulate", keys, None)

    def flip_byte(d):
        p = d / "paths" / "path_0001.rpme1"
        raw = bytearray(p.read_bytes())
        raw[-1] ^= 0xFF
        p.write_bytes(bytes(raw))

    assert any("digest mismatch" in f for f in corrupted(flip_byte))

    def truncate(d):
        p = d / "paths" / "path_0000.rpme1"
        p.write_bytes(p.read_bytes()[:-8])
        _redigest(d, "paths/path_0000.rpme1")

    assert any("unreadable" in f for f in corrupted(truncate))

    def fail_a_bound(d):
        p = d / "reports" / "simulate.csv"
        lines = p.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("path_0000_sup,"))
        lines[row] = lines[row].replace(",true,", ",false,")
        p.write_text("".join(lines))
        _redigest(d, "reports/simulate.csv")

    assert any("failed its bound" in f for f in corrupted(fail_a_bound))

    reference = {"simulate/ensemble_sup": {"value": 1.0, "rel_tol": 1e-9}}
    assert any("reference" in f for f in check_run(out, 0, "simulate", keys, reference))


def test_useful_node_steps_counts_each_path_level_and_fraction_once():
    keys = run.config_keys("refine-2d", seed=0)
    n_fine = 40
    primal, deriv = run.useful_node_steps("converge", keys, 0.025 / n_fine)
    # levels 8, 16, 32 step with 8x, 2x and 1x the finest dt
    assert primal == 64 * (5 * 10**2 + 20 * 18**2 + 40 * 34**2) and deriv == 0
    keys = run.config_keys("derivative-2d", seed=0)
    primal, deriv = run.useful_node_steps("malliavin", keys, 0.05 / 100)
    assert primal == 100 * 34**2
    assert deriv == (90 + 75 + 50 + 25) * 34**2
