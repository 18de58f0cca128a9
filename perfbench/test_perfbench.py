"""Tests of the benchmark itself: every workload runs at its smallest size,
and every output check rejects a corrupted output.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from krflow import flow  # noqa: E402
from workloads import Generic16, Octagon64, Separable32  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["generic16", "separable32", "octagon64"])
def test_tiny_run_completes(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert (result["attempted"], result["failed"]) == (1, 0)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert set(metrics) == {"wall_s", "setup_s", "cpu_s", "peak_rss_mb"}
        assert all(v > 0 for v in metrics.values())
    elif workload == "generic16":
        assert metrics["analysis.records"] == 30
        assert metrics["analysis.record_fft_calls"] == 47
        assert metrics["flow.steps"] == 960
        assert metrics["flow.sample_rhs_calls"] == 30
        assert metrics["persistence.write_mb"] > 0
        assert 0 < metrics["cli.self_s"] < metrics["cli.simulate_s"]
    elif workload == "separable32":
        assert metrics["flow.steps"] == 20
        # 6 transforms per step plus the 5 of the start-up rhs
        assert metrics["flow.fft_per_step"] == (6 * 20 + 5) / 20
        assert metrics["analysis.records"] == 0
    else:
        steps = metrics["octagon.steps"]
        samples = round(Octagon64.T_END / 0.5)  # run_base_flow's default interval
        # 4 rhs per RK4 step, one fill per sample and two for the curvature
        assert metrics["octagon.ghost_fill_calls"] == 4 * steps + samples + 2
        assert metrics["octagon.dd_bar_calls"] == 4 * steps + samples + 2
        assert metrics["discretization.rfft_calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "octagon64", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the checks reject corrupted outputs -----------------------------------


@pytest.fixture(scope="module")
def generic(tmp_path_factory):
    w = Generic16(ROOT, str(tmp_path_factory.mktemp("out")), seed=5, tiny=True)
    cfg = w.setup()
    assert w.operation(cfg) == 0
    return w, cfg, w.read_outputs(cfg)


def _changed_row(out, index, field, change):
    out = copy.deepcopy(out)
    rec = out["records"][index]
    out["records"][index] = dataclasses.replace(
        rec, **{field: change(getattr(rec, field))})
    return out


def test_generic_outputs_pass(generic):
    w, cfg, out = generic
    assert w.check_outputs(cfg, out) == []


@pytest.mark.parametrize("field", ["s_max", "rm2_max", "grad2_max"])
def test_generic_path_rejects_monitor_off_by_1e_6(generic, field):
    w, cfg, out = generic
    bad = w.check_outputs(cfg, _changed_row(out, -1, field, lambda v: v * (1 + 1e-6)))
    assert any(field in msg and "generic path" in msg for msg in bad)


@pytest.mark.parametrize("index, field, change, expect", [
    (-1, "sup_phi", lambda v: v * (1 + 1e-15), "snapshot sup|phi|"),
    (20, "sup_phi", lambda v: v * 10, "envelope"),
    (3, "rel_eig_max", lambda v: 2.0, "relative eigenvalues"),
    (3, "delta_psi_residual", lambda v: 1e-8, "delta_psi_residual"),
    (25, "s_max", lambda v: 1e6, "bounded_monitor_check"),
    (7, "trace_min", lambda v: float("nan"), "non-finite"),
])
def test_generic_checks_reject(generic, index, field, change, expect):
    w, cfg, out = generic
    bad = w.check_outputs(cfg, _changed_row(out, index, field, change))
    assert any(expect in msg for msg in bad), bad


def test_generic_rejects_failed_oracle_and_missing_rows(generic):
    w, cfg, out = generic
    broken = copy.deepcopy(out)
    broken["oracle_rows"][0]["passed"] = "False"
    assert any("oracle row failed" in m for m in w.check_outputs(cfg, broken))
    short = copy.deepcopy(out)
    del short["records"][4]
    assert any("expected 30 records" in m for m in w.check_outputs(cfg, short))
    assert w.check(cfg, 1) == ["cmd_simulate returned 1"]


@pytest.fixture(scope="module")
def separable():
    w = Separable32(ROOT, None, seed=7, tiny=True)
    inputs = w.setup()
    res = w.operation(inputs)
    ref = flow.product_reduced_run(inputs["problem"].geometry, inputs["psi_b"],
                                   inputs["psi_f"], w.T_END, dt=w.REF_DT)
    return w, res, ref


def test_separable_passes_and_rejects_offset_beyond_dt2_bound(separable):
    w, res, ref = separable
    assert w.check_result(res, ref) == []
    bound = w.GAP_PER_DT2 * w.opts.dt_max ** 2
    shifted = dataclasses.replace(res, final_phi=ref + 1.01 * bound)
    assert any("reduced reference" in m for m in w.check_result(shifted, ref))
    early = dataclasses.replace(res, final_t=w.T_END - w.opts.dt_max)
    assert any("final_t" in m for m in w.check_result(early, ref))


def test_digests_tell_repeated_outputs_apart(separable, octagon_result):
    w, res, _ = separable
    phi = res.final_phi.copy()
    phi[1, 2, 3, 4] = np.nextafter(phi[1, 2, 3, 4], np.inf)
    assert w.digest(res) == w.digest(dataclasses.replace(res))
    assert w.digest(res) != w.digest(dataclasses.replace(res, final_phi=phi))
    w, res = octagon_result
    moved = dataclasses.replace(res, rel_dev=res.rel_dev[:-1] + [res.rel_dev[-1] * 2])
    assert w.digest(res) != w.digest(moved)


def test_separable_inputs_follow_the_seed():
    a, b = (Separable32(ROOT, None, seed=s, tiny=True) for s in (1, 2))
    ia, ia2, ib = a.setup(), a.setup(), b.setup()
    assert np.array_equal(ia["psi_b"], ia2["psi_b"])
    assert np.array_equal(ia["psi_f"], ia2["psi_f"])
    assert not np.array_equal(ia["psi_b"], ib["psi_b"])


@pytest.fixture(scope="module")
def octagon_result():
    w = Octagon64(ROOT, None, seed=1, tiny=True)
    return w, w.operation(w.setup())


@pytest.mark.parametrize("field, delta, expect", [
    ("curvature_mean", 2e-3, "curvature mean"),
    ("curvature_spread", 2e-3, "curvature spread"),
    ("final_rel_dev", 2e-3, "relative deviation"),
])
def test_octagon_checks_reject(octagon_result, field, delta, expect):
    w, res = octagon_result
    assert w.check_result(res) == []
    broken = dataclasses.replace(res, **{field: getattr(res, field) + delta})
    assert any(expect in m for m in w.check_result(broken))
