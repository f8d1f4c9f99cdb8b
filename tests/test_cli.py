import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcwgprobe import cli
from pcwgprobe import config as cfgmod
from pcwgprobe.bands import thinning_shift
from pcwgprobe.cli import main


def run(args, capsys=None):
    code = main([str(a) for a in args])
    return code


class TestFiberCommand:
    def test_dispersion_csv_columns_and_anchor(self, tmp_path):
        assert run(["--out", tmp_path, "fiber", "--d-um", "4.0"]) == 0
        with open(tmp_path / "fiber_dispersion.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {
            "lambda_nm",
            "d_um",
            "n_eff",
            "beta_rad_per_um",
            "dbeta_dd_omega_over_c_per_um",
        }
        at_1600 = min(rows, key=lambda r: abs(float(r["lambda_nm"]) - 1600.0))
        assert float(at_1600["n_eff"]) == pytest.approx(1.40, abs=0.02)

    def test_empty_wavelength_range_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("grids: {lambda_start_nm: 1600.0, lambda_stop_nm: 1500.0}\n")
        assert run(["--config", cfg, "--out", tmp_path, "fiber", "--d-um", "1.0"]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("grids: {lambda_step_um: 1.0}\n")
        assert run(["--config", cfg, "fiber"]) == 2

    @pytest.mark.parametrize("yaml_text, command, key", [
        ("lattice: {supercell_rows: 16}\n", "bands", "supercell_rows"),
        ("fiber: {d_um: -1}\n", "fiber", "fiber diameter"),
        # the key no longer sizes anything; an old config that sets it is rejected
        ("lattice: {num_bands: 42}\n", "bands", "'lattice.num_bands'"),
        # grid sizes are capped before anything is allocated
        ("grids: {lambda_step_nm: 1.0e-12}\n", "fiber", "lambda_start_nm/stop_nm/step_nm"),
        ("lattice: {k_points: 100000000000}\n", "bands", "lattice.k_points"),
        ("lattice: {k_points: .inf}\n", "bands", "lattice.k_points"),
        ("grids: {lc_points: 100000000000}\n", "map synth", "grids.lc_points"),
        ("grids: {dx_points: 100000000000}\n", "couple --sweep lateral", "grids.dx_points"),
        ("grids: {gap_step_nm: 1.0e-12}\n", "couple --sweep gap", "gap_start_nm/stop_nm/step_nm"),
        # the lateral offset is the lateral sweep's own grid, not a coupler key
        ("coupler: {dx_um: 1.5}\n", "map synth", "'coupler.dx_um'"),
        ("coupler: {scatter_g_scale_nm: 0.0}\n", "map synth", "scatter_g_scale_nm"),
        ("coupler: {scatter_d_scale_um: 0.0}\n", "couple --sweep gap", "scatter_d_scale_um"),
        ("coupler: {l_c_um: .inf}\n", "couple --sweep gap", "l_c_um"),
        ("grids: {lateral_gap_nm: -1.0}\n", "couple --sweep lateral", "grids.lateral_gap_nm"),
        # the map noise is a finite number >= 0
        ("grids: {noise_sigma: abc}\n", "map synth", "'grids.noise_sigma'"),
        ("grids: {noise_sigma: -1}\n", "map synth", "'grids.noise_sigma'"),
        ("grids: {noise_sigma: .nan}\n", "map synth", "'grids.noise_sigma'"),
        # non-finite fiber geometry is an input error, not a failed solve
        ("", "fiber --d-um inf", "fiber diameter"),
        ("fiber: {clad_index: .nan}\n", "fiber", "cladding index"),
        ("fiber: {core_index: .inf}\n", "fiber", "core index"),
        # a switch is a YAML boolean, a count a whole number
        ("coupler: {include_loss: 'false'}\n", "couple --sweep gap", "'coupler.include_loss'"),
        ("coupler: {include_loss: 0}\n", "map synth", "'coupler.include_loss'"),
        ("lattice: {dispersive: 'false'}\n", "bands", "'lattice.dispersive'"),
        ("io: {cache: 'false'}\n", "fiber", "'io.cache'"),
        ("lattice: {pw_per_cell: 7.5}\n", "bands", "'lattice.pw_per_cell'"),
        ("lattice: {supercell_rows: true}\n", "bands", "'lattice.supercell_rows'"),
        ("grids: {dx_points: 81.9}\n", "couple --sweep lateral", "'grids.dx_points'"),
        ("grids: {lc_points: '50'}\n", "map synth", "'grids.lc_points'"),
    ])
    def test_invalid_config_value_exits_2(self, cli_out, capsys, yaml_text, command, key):
        cfg = cli_out / "cfg.yaml"
        cfg.write_text(yaml_text)
        assert run(["--config", cfg, "--out", cli_out] + command.split()) == 2
        err = capsys.readouterr().err
        assert "config" in err and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, sweep", [("lateral_d_um", "lateral"),
                                            ("gap_sweep_d_um", "gap")])
    def test_sweep_diameter_is_checked_before_the_bands_solve(self, tmp_path, capsys, key,
                                                              sweep):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"grids: {{{key}: -1.0}}\n")
        assert run(["--config", cfg, "--out", tmp_path, "couple", "--sweep", sweep]) == 2
        err = capsys.readouterr().err
        assert f"'grids.{key}'" in err and "Traceback" not in err
        assert not (tmp_path / ".cache").exists()

    @pytest.mark.parametrize("d_um", [0.8, 1.0, 1.2, 1.5, 1.9, 2.4])
    def test_columns_equal_the_solver_from_one_solve(self, tmp_path, monkeypatch, d_um):
        from pcwgprobe import fiber as fibermod

        solves, roots = [], fibermod._he11_roots
        monkeypatch.setattr(fibermod, "_he11_roots", lambda *a: solves.append(a) or roots(*a))
        assert run(["--out", tmp_path, "fiber", "--d-um", d_um]) == 0
        assert len(solves) == 1  # d and d +- dd together
        monkeypatch.undo()
        with open(tmp_path / "fiber_dispersion.csv") as fh:
            rows = list(csv.DictReader(fh))
        lam_um = cfgmod.build_lambda_grid(cfgmod.load_config(None)) * 1e-3
        spec = fibermod.FiberSpec(d_um)
        assert [float(r["n_eff"]) for r in rows] == list(fibermod.he11_neff(spec, lam_um))
        assert ([float(r["dbeta_dd_omega_over_c_per_um"]) for r in rows]
                == list(fibermod.dbeta_dd(spec, lam_um)))

    def test_profile_input(self, tmp_path):
        taper = tmp_path / "taper.csv"
        taper.write_text("l_c_mm,d_um\n0.0,0.6\n1.0,1.2\n2.0,2.2\n")
        assert run(
            ["--out", tmp_path, "fiber", "--profile", taper, "--lc-mm", "1.0"]
        ) == 0
        with open(tmp_path / "fiber_dispersion.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["d_um"]) == pytest.approx(1.2)

    @pytest.mark.parametrize("text", [
        "a,b\n0.0,0.6\n1.0,1.2\n",  # wrong header
        "l_c_mm,d_um\n0.0,0.6\n1.0,x\n",  # non-numeric cell
        "l_c_mm,d_um\n",  # header and no rows
    ])
    def test_malformed_profile_exits_2(self, tmp_path, capsys, text):
        taper = tmp_path / "taper.csv"
        taper.write_text(text)
        assert run(["--out", tmp_path, "fiber", "--profile", taper, "--lc-mm", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "taper profile" in err and "Traceback" not in err

    def test_lc_mm_outside_the_profile_exits_2(self, tmp_path, capsys):
        taper = tmp_path / "taper.csv"
        taper.write_text("l_c_mm,d_um\n0,2.0\n1,1.0\n")
        assert run(["--out", tmp_path, "fiber", "--profile", taper, "--lc-mm", "3.0"]) == 2
        err = capsys.readouterr().err
        assert "outside sampled range" in err and "Traceback" not in err

    def test_nan_lc_mm_exits_2_naming_l_c(self, tmp_path, capsys):
        taper = tmp_path / "taper.csv"
        taper.write_text("l_c_mm,d_um\n0,2.0\n1,1.0\n")
        assert run(["--out", tmp_path, "fiber", "--profile", taper, "--lc-mm", "nan"]) == 2
        err = capsys.readouterr().err
        assert "l_c outside" in err and "Traceback" not in err

    def test_lc_mm_is_checked_before_the_profile_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert run(["--out", tmp_path, "fiber", "--profile", missing]) == 2
        assert "--lc-mm" in capsys.readouterr().err


class TestBandsCommand:
    def test_bands_json_and_determinism(self, cli_out):
        assert run(["--out", cli_out, "bands"]) == 0
        first = (cli_out / "bands.json").read_bytes()
        assert run(["--out", cli_out, "bands"]) == 0
        assert (cli_out / "bands.json").read_bytes() == first
        payload = json.loads(first)
        labels = [c["label"] for c in payload["curves"]]
        assert "TE-1" in labels
        sample = payload["curves"][0]["samples"][0]
        assert set(sample) == {"beta_rad_per_um", "omega_norm", "lambda_nm", "n_g"}
        assert payload["phase_match"]["lambda_nm"] == pytest.approx(1600.0, rel=0.05)

    def test_thinned_reports_positive_shifts(self, cli_out, capsys):
        assert run(["--out", cli_out, "bands", "--thinned", "300"]) == 0
        payload = json.loads((cli_out / "bands.json").read_text())
        shifts = payload["thinning"]["d_omega_norm"]
        assert shifts["TE-2"] > shifts["TE-1"] > 0

    @pytest.mark.parametrize("t_nm", ["-5", "0", "nan", "inf"])
    def test_invalid_thinned_thickness_exits_2_before_the_bands_solve(self, tmp_path, capsys,
                                                                      t_nm):
        assert run(["--out", tmp_path, "bands", "--thinned", t_nm]) == 2
        err = capsys.readouterr().err
        assert "--thinned" in err and "Traceback" not in err
        assert not (tmp_path / ".cache").exists()

    def test_thinned_shifts_use_the_configured_reference_wavelength(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("lattice: {lam_ref_um: 1.55}\n")
        assert run(["--config", cfg, "--out", tmp_path, "bands", "--thinned", "300"]) == 0
        shifts = json.loads((tmp_path / "bands.json").read_text())["thinning"]["d_omega_norm"]
        config = cfgmod.load_config(cfg)
        spec, _ = cfgmod.build_lattice(config)
        expected = thinning_shift(spec, cfgmod.build_slab(config), 300.0, 1.55).d_omega_norm
        assert shifts == expected
        assert shifts["TE-1"] == pytest.approx(0.006502, abs=1e-6)


class TestCoupleCommand:
    def test_gap_sweep_table(self, cli_out):
        assert run(["--out", cli_out, "couple", "--sweep", "gap"]) == 0
        with open(cli_out / "gap_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert any(float(r["t_min"]) < 0.01 for r in rows)
        gammas = [float(r["gamma"]) for r in rows]
        assert max(gammas) >= 0.95

    def test_lateral_profile_symmetric(self, cli_out):
        assert run(["--out", cli_out, "couple", "--sweep", "lateral"]) == 0
        with open(cli_out / "lateral_profile.csv") as fh:
            rows = list(csv.DictReader(fh))
        values = np.array([float(r["one_minus_tmin"]) for r in rows])
        np.testing.assert_allclose(values, values[::-1], rtol=0, atol=1e-10)
        summary = json.loads((cli_out / "lateral_summary.json").read_text())
        assert summary["fwhm_um"] == pytest.approx(2.08, rel=0.25)

    def test_lateral_sweep_evaluates_the_tail_once_per_distance(self, cli_out, monkeypatch):
        from pcwgprobe.fiber import ModeField

        sizes, radial = [], ModeField.radial
        monkeypatch.setattr(ModeField, "radial",
                            lambda self, r: sizes.append(np.size(r)) or radial(self, r))
        assert run(["--out", cli_out, "couple", "--sweep", "lateral"]) == 0
        # 81 offsets x 272 grid points share 1,521 distances |x - dx|
        assert 0 < sum(sizes) <= 1521 * 9

    @pytest.mark.parametrize("yaml_text, sweep, code", [
        # no half-maximum crossing: a dip saturated over the sweep, an all-zero one
        ("coupler: {kappa_ref_l: 599.0}\n", "lateral", 3),
        ("coupler: {d_kappa_um: 0.001953125}\n", "lateral", 3),
        # sinh(sL)^2 past the float range: T = 0 and C = 1 inside the stop band
        ("coupler: {kappa_ref_l: 356.0}\n", "gap", 0),
        # sigma L past the float range: sin^2 takes its mean, no NaN row
        ("coupler: {l_c_um: 1.0e+300}\n", "gap", 0),
    ])
    def test_extreme_coupling_keeps_the_contract(self, cli_out, capsys, yaml_text, sweep,
                                                 code):
        cfg = cli_out / "cfg.yaml"
        cfg.write_text(yaml_text)
        assert run(["--config", cfg, "--out", cli_out, "couple", "--sweep", sweep]) == code
        if code:
            assert "half maximum" in capsys.readouterr().err
        else:
            with open(cli_out / "gap_sweep.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert np.all(np.isfinite([[float(v) for v in r.values()] for r in rows]))


class TestMapCommand:
    def test_synth_analyze_round_trip(self, cli_out):
        assert run(["--out", cli_out, "--seed", "9", "map", "synth"]) == 0
        assert (cli_out / "map.meta.json").exists()
        assert run(["--out", cli_out, "map", "analyze", "--in", cli_out / "map.csv"]) == 0
        points = json.loads((cli_out / "resonances.json").read_text())
        bandpoints = json.loads((cli_out / "bandpoints.json").read_text())
        assert len(points) == len(bandpoints) >= 45
        assert {p["label"] for p in points} >= {"TE-1"}

    def test_map_cell_count_is_capped_before_synthesis(self, cli_out, capsys, monkeypatch):
        # each grid passes its own cap, but the map would be 100000 x 99984 cells
        monkeypatch.setattr(cli, "synthesize_map", lambda *a, **k: pytest.fail("synthesized"))
        cfg = cli_out / "cfg.yaml"
        cfg.write_text("grids: {lc_points: 100000, lambda_step_nm: 0.0006001}\n")
        assert run(["--config", cfg, "--out", cli_out, "map", "synth"]) == 2
        err = capsys.readouterr().err
        assert "'grids.lc_points'" in err and "'grids.lambda_start_nm/stop_nm/step_nm'" in err
        assert "Traceback" not in err

    def test_negative_seed_exits_2_before_any_solve(self, tmp_path, capsys):
        assert run(["--out", tmp_path, "--seed", "-5", "map", "synth"]) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not (tmp_path / ".cache").exists()

    def test_seed_controls_noise(self, cli_out):
        assert run(["--out", cli_out, "--seed", "1", "map", "synth"]) == 0
        first = (cli_out / "map.csv").read_bytes()
        assert run(["--out", cli_out, "--seed", "1", "map", "synth"]) == 0
        assert (cli_out / "map.csv").read_bytes() == first
        assert run(["--out", cli_out, "--seed", "2", "map", "synth"]) == 0
        assert (cli_out / "map.csv").read_bytes() != first

    def test_analyze_constant_map_empty_result(self, cli_out):
        lam = np.arange(1565.0, 1575.0, 0.5)
        path = cli_out / "flat.csv"
        header = "lc_mm\\lambda_nm," + ",".join(repr(float(v)) for v in lam)
        rows = [
            repr(0.2 + 0.01 * i) + "," + ",".join(["0.95"] * lam.size)
            for i in range(5)
        ]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        assert run(["--out", cli_out, "map", "analyze", "--in", path]) == 0
        assert json.loads((cli_out / "resonances.json").read_text()) == []

    def test_analyze_truncated_csv_exits_2(self, cli_out, capsys):
        path = cli_out / "trunc.csv"
        path.write_text(
            "lc_mm\\lambda_nm,1565.0,1565.5\n0.2,0.9,0.9\n0.3,0.9\n"
        )
        assert run(["--out", cli_out, "map", "analyze", "--in", path]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_analyze_nan_cell_exits_2(self, cli_out, capsys):
        path = cli_out / "nan.csv"
        path.write_text(
            "lc_mm\\lambda_nm,1565.0,1565.5,1566.0\n0.2,0.9,0.9,0.9\n0.3,0.9,nan,0.9\n"
        )
        assert run(["--out", cli_out, "map", "analyze", "--in", path]) == 2
        assert "line 3, column 3" in capsys.readouterr().err
        assert not (cli_out / "resonances.json").exists()

    def test_analyze_lc_outside_the_taper_exits_2(self, cli_out, capsys):
        # one clear dip per row, drifting in wavelength; the default taper
        # spans l_c 0 ... 5.5 mm
        lam = np.arange(1565.0, 1580.0, 0.5)
        rows = ["lc_mm\\lambda_nm," + ",".join(repr(float(v)) for v in lam)]
        for i in range(4):
            t = np.full(lam.size, 0.95)
            t[9 + i: 12 + i] = (0.5, 0.1, 0.5)
            rows.append(repr(6.0 + 0.02 * i) + "," + ",".join(repr(float(v)) for v in t))
        path = cli_out / "beyond.csv"
        path.write_text("\n".join(rows) + "\n")
        assert run(["--out", cli_out, "map", "analyze", "--in", path]) == 2
        err = capsys.readouterr().err
        assert "outside sampled range" in err and "Traceback" not in err

    def test_analyze_missing_input_exits_2(self, cli_out):
        assert run(["--out", cli_out, "map", "analyze", "--in", cli_out / "nope.csv"]) == 2


class TestBandsCache:
    @pytest.mark.parametrize("garbage", ["{\"curves\": [", "[]", "\xff\xfe"])
    def test_corrupt_cache_is_recomputed(self, cli_out, bands_payload, monkeypatch,
                                         garbage, capsys):
        from pcwgprobe import cli

        cache = next((cli_out / ".cache").iterdir())
        cache.write_text(garbage, encoding="latin-1")
        solves = []

        def payload(cfg):
            solves.append(cfg)
            return bands_payload

        monkeypatch.setattr(cli, "_bands_payload", payload)
        assert run(["--out", cli_out, "couple", "--sweep", "gap"]) == 0
        assert len(solves) == 1
        assert "corrupt" in capsys.readouterr().err
        assert json.loads(cache.read_text()) == json.loads(json.dumps(bands_payload))
        assert run(["--out", cli_out, "couple", "--sweep", "gap"]) == 0
        assert len(solves) == 1  # the rewritten cache is read back

    def test_unversioned_cache_is_not_read(self, cli_out, bands_payload, default_cfg,
                                           monkeypatch):
        # a cache keyed by the slab and lattice sections alone was written by
        # an earlier solver whose bands differ
        keyed = {s: default_cfg[s] for s in ("slab", "lattice")}
        self.check_old_cache_is_not_read(cli_out, bands_payload, default_cfg, monkeypatch, keyed)

    def test_version_2_cache_is_not_read(self, cli_out, bands_payload, default_cfg,
                                         monkeypatch):
        # version 2 caches hold dispersive samples of the per-sample brentq solve
        keyed = {"version": 2, "slab": default_cfg["slab"], "lattice": default_cfg["lattice"]}
        self.check_old_cache_is_not_read(cli_out, bands_payload, default_cfg, monkeypatch, keyed)

    def test_valid_typed_values_keep_the_cache_key(self, tmp_path, default_cfg):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("lattice: {pw_per_cell: 7, supercell_rows: 17, dispersive: true}\n"
                       "io: {cache: true}\n")
        loaded = cfgmod.load_config(cfg)
        assert cfgmod.bands_cache_key(loaded) == cfgmod.bands_cache_key(default_cfg)
        assert cfgmod.bands_cache_key(default_cfg) == "288ba8a5bcde68ed"
        assert cfgmod.build_lattice(loaded) is not None

    def test_bands_without_te1(self, tmp_path, bands_payload, default_cfg, capsys):
        payload = dict(bands_payload, curves=[c for c in bands_payload["curves"]
                                              if c["label"] != "TE-1"])
        (tmp_path / ".cache").mkdir()
        key = cfgmod.bands_cache_key(default_cfg)
        (tmp_path / ".cache" / f"bands_{key}.json").write_text(json.dumps(payload))
        assert run(["--out", tmp_path, "bands"]) == 0
        assert json.loads((tmp_path / "bands.json").read_text())["phase_match"] is None
        assert "no TE-1 branch" in capsys.readouterr().err
        for command in ("couple --sweep gap", "map synth"):
            assert run(["--out", tmp_path] + command.split()) == 3
            err = capsys.readouterr().err
            assert "no TE-1 branch" in err and "Traceback" not in err

    @staticmethod
    def check_old_cache_is_not_read(cli_out, bands_payload, default_cfg, monkeypatch, keyed):
        import hashlib

        from pcwgprobe import cli

        cache_dir = cli_out / ".cache"
        for f in cache_dir.iterdir():
            f.unlink()
        old_key = hashlib.sha256(json.dumps(keyed, sort_keys=True).encode()).hexdigest()[:16]
        assert old_key != cfgmod.bands_cache_key(default_cfg)
        (cache_dir / f"bands_{old_key}.json").write_text(json.dumps(bands_payload))
        solves = []

        def payload(cfg):
            solves.append(cfg)
            return bands_payload

        monkeypatch.setattr(cli, "_bands_payload", payload)
        assert run(["--out", cli_out, "couple", "--sweep", "gap"]) == 0
        assert len(solves) == 1
        assert (cache_dir / f"bands_{cfgmod.bands_cache_key(default_cfg)}.json").exists()

class TestGlobalFlags:
    def test_threads_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "fiber"])
        assert exc.value.code == 2

    def test_print_effective_config(self, capsys):
        assert run(["--print-effective-config"]) == 0
        out = capsys.readouterr().out
        assert "lam_z_nm: 500.0" in out
        assert "gap_nm: 700.0" in out

    def test_start_up_leaves_optimize_interpolate_and_linalg_unimported(self, cli_out):
        script = (
            "import sys\n"
            "import pcwgprobe.cli as cli\n"
            "heavy = ('scipy.optimize', 'scipy.interpolate', 'scipy.linalg')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            f"assert cli.main(['--out', {str(cli_out)!r}, 'bands']) == 0\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "[]"  # after the import
        assert lines[-1] == "[]"  # after a warm bands run
        assert any(line.startswith("TE-1 crosses") for line in lines)

    def test_map_and_profile_commands_leave_interpolate_unimported(self, cli_out):
        profile = cli_out / "taper.csv"
        profile.write_text("l_c_mm,d_um\n0.0,0.6\n1.0,1.2\n2.0,2.0\n")
        out = str(cli_out)
        script = (
            "import sys\n"
            "import pcwgprobe.cli as cli\n"
            f"assert cli.main(['--out', {out!r}, 'map', 'synth']) == 0\n"
            f"assert cli.main(['--out', {out!r}, 'map', 'analyze', '--in',"
            f" {out + '/map.csv'!r}]) == 0\n"
            f"assert cli.main(['--out', {out!r}, 'fiber', '--profile', {str(profile)!r},"
            " '--lc-mm', '1.5']) == 0\n"
            "print('scipy.interpolate' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        assert (cli_out / "bandpoints.json").exists()
        assert (cli_out / "fiber_dispersion.csv").exists()

    def test_outputs_end_with_single_newline(self, tmp_path):
        assert run(["--out", tmp_path, "fiber", "--d-um", "1.0"]) == 0
        data = (tmp_path / "fiber_dispersion.csv").read_bytes()
        assert data.endswith(b"\n") and not data.endswith(b"\n\n")
