"""End-to-end tests for the command-line driver and config parser."""

import math
import os

import numpy as np
import pytest

from krflow import cli
from krflow.analysis import MonitorRecord
from krflow.errors import ConfigInvalid
from krflow.persistence import read_monitor_csv, read_snapshot, read_summary

# ---------------------------------------------------------------- parser


class TestConfigParsing:
    def test_empty_config_gives_defaults(self):
        cfg = cli.parse_config("")
        assert cfg[("geometry", "base_backend")] == "torus_surrogate"
        assert cfg[("geometry", "base_grid")] == 32
        assert cfg[("geometry", "fiber_grid")] == 32
        assert cfg[("geometry", "fiber_modulus")] == 1j
        assert cfg[("flow", "t_end")] == 8.0
        assert cfg[("flow", "dt_sample")] == 0.05
        assert cfg[("analysis", "fit_t_min")] == 2.0
        assert cfg[("analysis", "fit_t_max")] == 6.0
        assert cfg[("analysis", "fiber_stride")] == 8
        assert cfg[("output", "snapshot_interval")] == 2.0

    def test_full_config_echoes_values(self):
        text = """
        # full config exercising every key
        [geometry]
        base_backend = torus_surrogate
        fiber_modulus = 0.5+2j
        twist_level = 1.5
        twist_amplitude = 0.01
        base_scale = 2.0
        fiber_scale = 3.0
        initial_potential = mixed
        initial_amplitude = 0.04
        base_grid = 16
        fiber_grid = 16

        [flow]
        t_end = 4.0
        dt_max = 0.0125
        dt_sample = 0.2
        positivity_threshold = 1e-6
        max_halvings = 10

        [analysis]
        fit_t_min = 1.5
        fit_t_max = 3.5
        fiber_stride = 4

        [output]
        directory = /tmp/somewhere
        snapshot_interval = 1.0
        """
        cfg = cli.parse_config(text)
        assert cfg[("geometry", "base_backend")] == "torus_surrogate"
        assert cfg[("geometry", "fiber_modulus")] == 0.5 + 2j
        assert cfg[("geometry", "fiber_scale")] == 3.0
        assert cfg[("analysis", "fiber_stride")] == 4
        assert cfg[("output", "directory")] == "/tmp/somewhere"
        spec = cfg.geometry_spec()
        assert spec.base_level == 1.5 and spec.psi0_preset == "mixed"
        opts = cfg.flow_options()
        assert opts.t_end == 4.0 and opts.sample_interval == 0.2
        assert opts.dt_max == 0.0125 and opts.positivity_floor == 1e-6
        assert opts.max_halvings == 10

    def test_octagon_rejects_keys_it_does_not_read(self):
        # The octagon run reads base_backend, base_grid, t_end, dt_sample and
        # the output directory; any other key set explicitly is an error.
        head = "[geometry]\nbase_backend = bolza_octagon\n"
        read = {("geometry", "base_backend"), ("geometry", "base_grid"),
                ("flow", "t_end"), ("flow", "dt_sample"), ("output", "directory")}
        for section, keys in cli._SCHEMA.items():
            for key, (_, default) in keys.items():
                if (section, key) in read:
                    continue
                text = f"{head}[{section}]\n{key} = {default}\n"
                with pytest.raises(ConfigInvalid,
                                   match=rf"line 4: key '{key}' .*bolza_octagon"):
                    cli.parse_config(text)
        cfg = cli.parse_config(head + "base_grid = 48\n[flow]\nt_end = 0.5\n"
                               "dt_sample = 0.1\n[output]\ndirectory = o\n")
        assert cfg[("flow", "dt_sample")] == 0.1
        # the same keys stay legal on the torus backend
        assert cli.parse_config("[flow]\ndt_max = 0.001\n")[("flow", "dt_max")] == 0.001

    def test_readme_ini_block_matches_schema(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
        listed, section = [], None
        for raw in block.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line.strip("[]")
            elif line:
                key, _, value = (part.strip() for part in line.partition("="))
                converter, default = cli._SCHEMA[section][key]
                assert converter(value) == default, (section, key, value)
                listed.append((section, key))
        assert listed == [(sec, key) for sec, keys in cli._SCHEMA.items() for key in keys]

    def test_comments_and_blanks_ignored(self):
        cfg = cli.parse_config("# top\n\n[flow]\nt_end = 2.0  # trailing\n\n")
        assert cfg[("flow", "t_end")] == 2.0

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigInvalid, match=r"line 2.*'who'"):
            cli.parse_config("[geometry]\nwho = 3\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigInvalid, match=r"line 1.*\[mystery\]"):
            cli.parse_config("[mystery]\nx = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigInvalid, match="duplicate"):
            cli.parse_config("[flow]\nt_end = 1\nt_end = 2\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigInvalid, match="outside"):
            cli.parse_config("t_end = 1\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigInvalid, match="key = value"):
            cli.parse_config("[flow]\nt_end 1\n")

    def test_unparseable_value(self):
        with pytest.raises(ConfigInvalid, match=r"line 2.*'twelve'"):
            cli.parse_config("[geometry]\nbase_grid = twelve\n")

    def test_negative_ripple_rejected(self):
        with pytest.raises(ConfigInvalid, match="twist_amplitude"):
            cli.parse_config("[geometry]\ntwist_amplitude = -1\n")

    def test_dimensions_pinned(self, tmp_path, capsys):
        # m = n = 1 is the only case: the keys that would set the dimensions
        # are rejected like any unknown key, not accepted and checked.
        for line in ("m = 1", "n = 1", "m = 2"):
            key = line.split()[0]
            with pytest.raises(ConfigInvalid, match=rf"line 2: unknown key '{key}'"):
                cli.parse_config(f"[geometry]\n{line}\n")
        ini = _write(tmp_path, "m.ini", "[geometry]\nm = 1\n")
        assert cli.main(["--config", ini, "simulate"]) == 2
        assert "unknown key 'm'" in capsys.readouterr().err

    def test_modulus_needs_positive_imag(self):
        with pytest.raises(ConfigInvalid, match="fiber_modulus"):
            cli.parse_config("[geometry]\nfiber_modulus = 2.0\n")

    def test_unknown_preset(self):
        with pytest.raises(ConfigInvalid, match="initial_potential"):
            cli.parse_config("[geometry]\ninitial_potential = spiral\n")

    def test_bad_backend(self):
        with pytest.raises(ConfigInvalid, match="base_backend"):
            cli.parse_config("[geometry]\nbase_backend = sphere\n")

    def test_fit_window_must_start_past_one(self):
        with pytest.raises(ConfigInvalid, match="fit window"):
            cli.parse_config("[analysis]\nfit_t_min = 0.5\n")

    def test_grid_must_be_power_of_two(self):
        with pytest.raises(ConfigInvalid, match="power of two"):
            cli.parse_config("[geometry]\nbase_grid = 12\n")

    def test_stepper_choice_keys_are_unknown(self):
        # imex2 is the only stepper: the keys that chose another one are
        # rejected like any unknown key, not accepted and ignored.
        for line in ("scheme = imex2", "c_cfl = 0.2"):
            key = line.split()[0]
            with pytest.raises(ConfigInvalid, match=rf"line 3: unknown key '{key}'"):
                cli.parse_config(f"[flow]\nt_end = 1.0\n{line}\n")

    def test_missing_file(self):
        with pytest.raises(ConfigInvalid, match="cannot read"):
            cli.load_config("/nonexistent/path.ini")


# ---------------------------------------------------------------- commands


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = """
[geometry]
base_grid = 8
fiber_grid = 8
initial_potential = mixed
initial_amplitude = 0.03

[flow]
t_end = {t_end}
dt_max = 0.0125
dt_sample = {dt_sample}

[output]
directory = {out}
snapshot_interval = {snap}
"""


class TestAnalysisSummary:
    def test_summary_reports_residual_but_no_fiber_slopes(self):
        # On the fit window the fiber monitors are the stepper's O(dt^2)
        # error, so the summary carries no log-slope of them.
        records = []
        for k in range(1, 31):
            t = 0.2 * k
            vals = dict.fromkeys(MonitorRecord.field_names(), 1e-3)
            vals.update(t=t, sup_phi=(1.0 + t) * math.exp(-t),
                        fiber_dev0=math.exp(-2.0 * t), fiber_dev1=math.exp(-2.0 * t),
                        fiber_dev2=math.exp(-2.0 * t), delta_psi_residual=1e-9 * k)
            records.append(MonitorRecord(**vals))
        summary = cli._analysis_summary(cli.parse_config(""), records)
        assert not [key for key in summary if key.startswith("fiber_slope")]
        assert summary["delta_psi_residual_max"] == pytest.approx(1e-9 * 30)
        assert summary["fit_passed"] is True


class TestSimulate:
    def test_end_to_end_artifacts(self, tmp_path):
        out = tmp_path / "run"
        ini = _write(tmp_path, "run.ini", SMALL.format(
            t_end=0.6, dt_sample=0.2, out=out, snap=0.3))
        rc = cli.main(["--config", ini, "--quiet", "simulate"])
        assert rc == 0

        records = read_monitor_csv(out / "monitors.csv")
        assert len(records) == 3  # t_end / dt_sample
        assert [r.t for r in records] == pytest.approx([0.2, 0.4, 0.6])
        for rec in records:
            assert all(math.isfinite(v) for v in rec.row())

        snaps = sorted(p.name for p in out.glob("*.krfl"))
        assert snaps == ["snapshot_0000300.krfl", "snapshot_0000600.krfl"]
        snap = read_snapshot(out / snaps[0])
        assert snap.t == pytest.approx(0.3)
        assert snap.phi.shape == (8, 8, 8, 8)

        summary = read_summary(out / "decay_summary.txt")
        assert summary["invariants_ok"] == "True"
        assert summary["oracles_ok"] == "True"
        assert summary["n_records"] == 3
        assert summary["sup_phi_max"] > 0

        with open(out / "oracles.csv") as fh:
            rows = fh.read().strip().splitlines()
        assert rows[0].startswith("name,passed,")
        assert len(rows) == 8  # header + five battery checks + stationarity + fold
        assert all(",True," in row for row in rows[1:])

    def test_out_flag_overrides_directory(self, tmp_path):
        ini = _write(tmp_path, "run.ini", SMALL.format(
            t_end=0.2, dt_sample=0.2, out=tmp_path / "ignored", snap=0))
        target = tmp_path / "chosen"
        rc = cli.main(["--config", ini, "--quiet", "--out", str(target), "simulate"])
        assert rc == 0
        assert (target / "monitors.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_stationary_run_keeps_phi_at_zero(self, tmp_path):
        out = tmp_path / "flat"
        ini = _write(tmp_path, "flat.ini", """
        [geometry]
        base_grid = 8
        fiber_grid = 8
        initial_potential = zero
        [flow]
        t_end = 1.0
        dt_sample = 0.5
        [output]
        directory = %s
        snapshot_interval = 0
        """ % out)
        rc = cli.main(["--config", ini, "--quiet", "simulate"])
        assert rc == 0
        summary = read_summary(out / "decay_summary.txt")
        assert summary["sup_phi_max"] < 1e-8
        assert list(out.glob("*.krfl")) == []

    def test_singular_initial_data_fails_cleanly(self, tmp_path, capsys):
        ini = _write(tmp_path, "bad.ini", """
        [geometry]
        base_grid = 8
        fiber_grid = 8
        initial_potential = product
        initial_amplitude = 0.05
        [output]
        directory = %s
        """ % (tmp_path / "x"))
        rc = cli.main(["--config", ini, "--quiet", "simulate"])
        assert rc == 1
        assert "failure_reason" in capsys.readouterr().out

    def test_bad_config_exits_two(self, tmp_path, capsys):
        ini = _write(tmp_path, "bad.ini", "[geometry]\nnope = 1\n")
        rc = cli.main(["--config", ini, "simulate"])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("line, name", [
        ("max_halvings = -1", "max_halvings"),
        ("dt_max = nan", "dt_max"),
        ("dt_sample = nan", "sample_interval"),
        ("t_end = nan", "t_end"),
        ("t_end = inf", "t_end"),
        ("positivity_threshold = nan", "positivity_floor"),
    ])
    def test_flow_options_outside_their_contract_exit_two(self, tmp_path, capsys, line, name):
        # Each of these once ended in a traceback, never ended (t_end = inf)
        # or silently turned the eigenvalue floor off (a NaN threshold).
        out = tmp_path / "o"
        ini = _write(tmp_path, "flow.ini", "[geometry]\nbase_grid = 8\nfiber_grid = 8\n"
                     f"[flow]\n{line}\n[output]\ndirectory = {out}\n")
        assert cli.main(["--config", ini, "--quiet", "simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and name in err
        assert not out.exists()

    @pytest.mark.parametrize("section, line, name", [
        ("geometry", "fiber_modulus = nan+1j", "tau"),
        ("geometry", "twist_level = nan", "base_level"),
        ("geometry", "twist_amplitude = nan", "base_ripple"),
        ("geometry", "base_scale = nan", "base_scale"),
        ("geometry", "initial_amplitude = nan", "psi0_amplitude"),
        ("geometry", "fiber_scale = inf", "fiber_scale"),
        ("output", "snapshot_interval = nan", "snapshot_interval"),
    ])
    def test_non_finite_geometry_and_output_values_exit_two(self, tmp_path, capsys, section,
                                                            line, name):
        # These once ended in a LinAlgError traceback (fiber_modulus), in a
        # NonFiniteValue after the preflight (exit 1), or in a run that wrote
        # no snapshot and exited 0 (snapshot_interval).
        out = tmp_path / "o"
        ini = _write(tmp_path, "bad.ini", "[geometry]\nbase_grid = 8\nfiber_grid = 8\n"
                     f"[{section}]\n{line}\n[output]\ndirectory = {out}\n")
        assert cli.main(["--config", ini, "--quiet", "simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and name in err
        assert not out.exists()

    def test_octagon_mesh_is_not_held_to_the_torus_grid_rule(self, tmp_path, capsys):
        # base_grid = 48 is the documented smallest octagon mesh, though not
        # a power of two; below 48 the octagon grid itself rejects it.
        text = ("[geometry]\nbase_backend = bolza_octagon\nbase_grid = {n}\n"
                "[flow]\nt_end = 0.1\n[output]\ndirectory = {out}\n")
        out = tmp_path / "oct"
        ini = _write(tmp_path, "oct.ini", text.format(n=48, out=out))
        assert cli.main(["--config", ini, "--quiet", "simulate"]) == 0
        assert (out / "octagon_series.csv").exists()
        ini = _write(tmp_path, "small.ini", text.format(n=40, out=out))
        assert cli.main(["--config", ini, "--quiet", "simulate"]) == 2
        assert "n >= 48" in capsys.readouterr().err

    def test_octagon_config_setting_dt_max_exits_two(self, tmp_path, capsys):
        # The octagon run steps at its own dt; a dt_max it would ignore is
        # a config error, not a silent no-op.
        out = tmp_path / "oct"
        ini = _write(tmp_path, "oct.ini",
                     "[geometry]\nbase_backend = bolza_octagon\nbase_grid = 48\n"
                     f"[flow]\nt_end = 0.1\ndt_max = 0.001\n[output]\ndirectory = {out}\n")
        assert cli.main(["--config", ini, "--quiet", "simulate"]) == 2
        assert "line 6: key 'dt_max'" in capsys.readouterr().err
        assert not out.exists()


class TestOracleCheckAndFit:
    def test_oracle_check_passes(self, tmp_path, capsys):
        ini = _write(tmp_path, "o.ini",
                     "[geometry]\nbase_grid = 8\nfiber_grid = 8\n")
        rc = cli.main(["--config", ini, "oracle-check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[PASS]") == 7
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("n", [48, 64])
    def test_oracle_check_rejects_octagon_config(self, tmp_path, capsys, n):
        # The battery checks torus operators only; on an octagon config it
        # would check a grid the run never uses (64) or fail the torus grid
        # rule (48).
        ini = _write(tmp_path, "oct.ini",
                     f"[geometry]\nbase_backend = bolza_octagon\nbase_grid = {n}\n")
        rc = cli.main(["--config", ini, "oracle-check"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "bolza_octagon" in captured.err
        assert "[PASS]" not in captured.out

    def test_fault_injection_is_caught(self, tmp_path, capsys):
        ini = _write(tmp_path, "o.ini",
                     "[geometry]\nbase_grid = 8\nfiber_grid = 8\n")
        rc = cli.main(["--config", ini, "oracle-check",
                       "--inject-omega-scale", "1.01"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL]" in out and "failure_reason" in out
        # the corrupted density shifts the residual by exactly log(1.01)
        fail = [l for l in out.splitlines() if "[FAIL]" in l][0]
        measured = float(fail.split("measured=")[1].split()[0])
        assert measured == pytest.approx(math.log(1.01), rel=1e-3)

    def test_fit_round_trip(self, tmp_path, capsys):
        # Long enough run that the fit window [2, 6] holds >= 20 samples.
        out = tmp_path / "long"
        ini = _write(tmp_path, "long.ini", SMALL.format(
            t_end=6.5, dt_sample=0.1, out=out, snap=0))
        rc = cli.main(["--config", ini, "--quiet", "simulate"])
        assert rc == 0
        records = read_monitor_csv(out / "monitors.csv")
        assert len(records) == 65

        rc = cli.main(["--config", ini, "fit", str(out / "monitors.csv")])
        text = capsys.readouterr().out
        assert rc == 0
        lines = dict(l.split(" = ") for l in text.strip().splitlines())
        assert lines["fit_passed"] == "True"
        assert float(lines["fit_ratio_max"]) <= 4 * float(lines["fit_ratio_min"])
        # envelope constant should be order one for this seed amplitude
        assert 1e-4 < float(lines["fit_constant"]) < 10.0

    def test_fit_without_enough_samples_fails(self, tmp_path, capsys):
        out = tmp_path / "short"
        ini = _write(tmp_path, "short.ini", SMALL.format(
            t_end=0.4, dt_sample=0.2, out=out, snap=0))
        assert cli.main(["--config", ini, "--quiet", "simulate"]) == 0
        rc = cli.main(["--config", ini, "fit", str(out / "monitors.csv")])
        assert rc == 1
        assert "not_enough_samples" in capsys.readouterr().out

    @pytest.mark.parametrize("case", ["missing", "short_row", "non_numeric"])
    def test_fit_on_bad_csv_reports_failure_reason(self, tmp_path, capsys, case):
        names = MonitorRecord.field_names()
        row = ["0.5"] * len(names)
        if case == "short_row":
            row = row[:-1]
        elif case == "non_numeric":
            row[3] = "abc"
        path = tmp_path / "monitors.csv"
        if case != "missing":
            path.write_text(",".join(names) + "\n" + ",".join(row) + "\n")
        rc = cli.main(["fit", str(path)])
        assert rc == 1
        assert "failure_reason = SnapshotCorrupt: " in capsys.readouterr().out


def test_single_valued_and_dead_options_are_gone():
    # Each parameter below had one value in use, or was never read; the
    # octagon run entry lives in the CLI, the one reader of a RunConfig.
    import dataclasses
    import inspect

    from krflow import analysis, discretization, octagon, oracle

    gone = {
        analysis.bounded_monitor_check: ("fields", "factor", "split_t", "atol"),
        analysis.decay_fit: ("ratio_bound",),
        analysis.log_slope_fit: ("min_points",),
        oracle.refinement_order: ("ratio",),
        oracle.ode_coefficient_oracle: ("t_end", "dt"),
        oracle.stationarity_oracle: ("ts",),
        octagon.reduce_to_fundamental: ("max_steps",),
        octagon.OctagonGrid: ("margin",),
        octagon.OctagonGrid.invariant_bump: ("eps",),
        cli.cmd_oracle_check: ("quiet",),
        cli.cmd_fit: ("quiet",),
    }
    for fn, names in gone.items():
        params = inspect.signature(fn).parameters
        assert not set(names) & set(params), (fn.__qualname__, list(params))
    # the sampler's first argument, the problem, was never read
    assert list(inspect.signature(analysis.MonitorEngine.record).parameters) == [
        "self", "t", "phi", "rhs", "g"]
    assert not hasattr(octagon, "run_octagon_simulation")
    assert callable(cli.run_octagon_simulation)
    fit_fields = {f.name for f in dataclasses.fields(analysis.DecayFit)}
    assert not fit_fields & {"t0", "t1", "n_points"}
    assert not hasattr(discretization.HermitianField, "copy")
