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


def _glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, TypeError, ValueError):  # no confstr, or no such name
        return False


_GLIBC = _glibc()


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
        # a branch is kept only with at least 3 samples
        ("lattice: {k_points: 0}\n", "bands", "'lattice.k_points'"),
        ("lattice: {k_points: 1}\n", "bands", "'lattice.k_points'"),
        ("lattice: {k_points: 2}\n", "bands", "'lattice.k_points'"),
        ("grids: {lc_points: 100000000000}\n", "map synth", "grids.lc_points"),
        ("grids: {dx_points: 100000000000}\n", "couple --sweep lateral", "grids.dx_points"),
        ("grids: {gap_step_nm: 1.0e-12}\n", "couple --sweep gap", "gap_start_nm/stop_nm/step_nm"),
        # counts past the float range
        pytest.param("lattice: {k_points: 1" + "0" * 400 + "}\n", "bands", "'lattice.k_points'",
                     id="k_points-401-digits"),
        pytest.param("grids: {lc_points: 1" + "0" * 400 + "}\n", "map synth", "'grids.lc_points'",
                     id="lc_points-401-digits"),
        pytest.param("grids: {dx_points: 1" + "0" * 400 + "}\n", "couple --sweep lateral",
                     "'grids.dx_points'", id="dx_points-401-digits"),
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
        # a path is a string: a boolean or a number would be opened as a file descriptor
        ("fiber: {taper_csv: false}\n", "map synth", "'fiber.taper_csv'"),
        ("fiber: {taper_csv: [a]}\n", "map synth", "'fiber.taper_csv'"),
        # kinds are checked at load: a date and a circular alias, which JSON cannot
        # encode for the bands cache key, and a quoted element or optional real
        ("lattice: {lam_z_nm: 2001-01-01}\n", "bands", "'lattice.lam_z_nm'"),
        ("lattice: {grading: &a [*a]}\n", "bands", "'lattice.grading'"),
        ("lattice: {grading: [0.31, '0.325', 0.34]}\n", "bands", "'lattice.grading'"),
        ("coupler: {g0_nm: '300'}\n", "couple --sweep gap", "'coupler.g0_nm'"),
        # no graded row: no waveguide; equal k ends: every k-point the same
        ("lattice: {grading: []}\n", "bands", "'lattice.grading'"),
        ("lattice: {grading: []}\n", "bands --thinned 300", "'lattice.grading'"),
        ("lattice: {k_start: 0.4, k_stop: 0.4}\n", "bands", "'lattice.k_start/k_stop/k_points'"),
        # 26 distinct k-points one ulp apart share betas
        ("lattice: {k_start: 0.4, k_stop: 0.4000000000000014}\n", "bands",
         "'lattice.k_start/k_stop/k_points'"),
        # an integer past the float range
        pytest.param("slab: {t_nm: 1" + "0" * 400 + "}\n", "bands", "'slab.t_nm'",
                     id="t_nm-401-digits"),
        # scalars PyYAML cannot construct
        ("lattice: {lam_z_nm: 2001-13-01}\n", "bands", "malformed YAML"),
        pytest.param("slab: {t_nm: " + "1" * 5000 + "}\n", "bands", "malformed YAML",
                     id="t_nm-5000-digits"),
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

    @pytest.mark.parametrize("yaml_text, command, key", [
        ("slab: {t_nm: '340'}\n", "couple --sweep lateral", "'slab.t_nm'"),
        ("fiber: {d_um: true}\n", "fiber", "'fiber.d_um'"),
        ("lattice: {lam_z_nm: '500'}\n", "bands", "'lattice.lam_z_nm'"),
        # a key the command never reads
        ("fiber: {taper_csv: false}\n", "bands", "'fiber.taper_csv'"),
    ])
    def test_each_value_kind_is_checked_at_load(self, tmp_path, capsys, yaml_text, command, key):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml_text)
        assert run(["--config", cfg, "--out", tmp_path] + command.split()) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
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
                == list(fibermod.neff_and_dbeta_dd(spec, lam_um)[1]))

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

    def test_three_k_points_hold_a_branch(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("lattice: {k_points: 3}\n")
        assert run(["--config", cfg, "--out", tmp_path, "--no-cache", "bands"]) == 0
        curves = json.loads((tmp_path / "bands.json").read_text())["curves"]
        assert "TE-1" in [c["label"] for c in curves]

    def test_index_override_turns_the_dispersive_correction_off(self, tmp_path):
        written = []
        for dispersive in ("true", "false"):
            out = tmp_path / dispersive
            cfg = tmp_path / f"{dispersive}.yaml"
            cfg.write_text(f"lattice: {{n_eff_override: 2.6, dispersive: {dispersive}}}\n")
            assert run(["--config", cfg, "--out", out, "--no-cache", "bands"]) == 0
            written.append((out / "bands.json").read_bytes())
        assert written[0] == written[1]

    def test_descending_k_path_is_accepted(self):
        # the k-points need only be distinct, in either order
        cfg = cfgmod.load_config(None)
        cfg["lattice"].update(k_start=0.5, k_stop=0.3)
        np.testing.assert_array_equal(cfgmod.build_kpath(cfg), np.linspace(0.5, 0.3, 26))

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
        expected = thinning_shift(spec, cfgmod.build_slab(config), 300.0, 1.55)
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

    def test_lateral_sweep_solves_the_fiber_once(self, cli_out, monkeypatch):
        # kappa at the centre takes gamma from the mode field's own solve
        from pcwgprobe import fiber as fibermod

        solves, roots = [], fibermod._he11_roots
        monkeypatch.setattr(fibermod, "_he11_roots", lambda *a: solves.append(a) or roots(*a))
        assert run(["--out", cli_out, "couple", "--sweep", "lateral"]) == 0
        assert [np.size(a[2]) for a in solves].count(1) == 1  # the probe point

    @pytest.mark.parametrize("yaml_text, sweep, code", [
        # no half-maximum crossing: a dip saturated over the sweep, an all-zero one
        ("coupler: {kappa_ref_l: 5990.0}\n", "lateral", 3),
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

    @pytest.mark.parametrize("name", ["map", "run.v2"])
    def test_analyze_reads_the_sidecar_of_its_own_stem(self, cli_out, capsys, name):
        # <stem>.meta.json: run.v2.csv reads run.v2.meta.json, never run.meta.json
        assert run(["--out", cli_out, "--seed", "9", "map", "synth"]) == 0
        csv_path = cli_out / f"{name}.csv"
        if name != "map":
            (cli_out / "map.csv").rename(csv_path)
        (cli_out / "map.meta.json").unlink()
        (cli_out / "run.meta.json").write_text("not json")  # another map's, malformed
        assert run(["--out", cli_out, "map", "analyze", "--in", csv_path]) == 0
        (cli_out / f"{name}.meta.json").write_text("not json")
        assert run(["--out", cli_out, "map", "analyze", "--in", csv_path]) == 2
        assert f"{name}.meta.json: not a JSON sidecar" in capsys.readouterr().err

    def test_map_cell_count_is_capped_before_synthesis(self, cli_out, capsys, monkeypatch):
        # each grid passes its own cap, but the map would be 100000 x 99984 cells
        monkeypatch.setattr("pcwgprobe.pipeline.synthesize_map",
                            lambda *a, **k: pytest.fail("synthesized"))
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

    @pytest.mark.parametrize("dip", [False, True], ids=["flat", "dip"])
    def test_analyze_one_row_outside_the_taper_exits_2(self, cli_out, capsys, dip):
        # rows inside the default taper's 0 ... 5.5 mm, then one at 99 mm
        # that is flat or holds a dip: either way no output is written
        lam = np.arange(1565.0, 1580.0, 0.5)
        rows = ["lc_mm\\lambda_nm," + ",".join(repr(float(v)) for v in lam)]
        for lc in (0.2, 0.3, 99.0):
            t = np.full(lam.size, 0.95)
            if dip or lc < 99.0:
                t[9:12] = (0.5, 0.1, 0.5)
            rows.append(repr(lc) + "," + ",".join(repr(float(v)) for v in t))
        path = cli_out / "beyond.csv"
        path.write_text("\n".join(rows) + "\n")
        assert run(["--out", cli_out, "map", "analyze", "--in", path]) == 2
        err = capsys.readouterr().err
        assert "l_c outside sampled range [0.0, 5.5] mm" in err and "Traceback" not in err
        assert not (cli_out / "resonances.json").exists()
        assert not (cli_out / "bandpoints.json").exists()

    def test_analyze_missing_input_exits_2(self, cli_out):
        assert run(["--out", cli_out, "map", "analyze", "--in", cli_out / "nope.csv"]) == 2


class TestBandsCache:
    # raw text, or keys that replace those of a valid payload: JSON with the
    # four keys whose values do not rebuild
    @pytest.mark.parametrize("garbage", ["{\"curves\": [", "[]", "\xff\xfe", {"curves": 5},
                                         {"curves": [{"label": "TE-1"}]}, {"lam_z_nm": "x"},
                                         {"gap_norm": [0.3]}, {"lam_z_nm": 10**400},
                                         "[" * 100_000 + "]" * 100_000,
                                         pytest.param(lambda p: {"curves": [
                                             {k: v for k, v in c.items() if k != "parity"}
                                             for c in p["curves"]]}, id="no-parity"),
                                         pytest.param(lambda p: {"curves": [
                                             dict(c, parity="sideways") if c["label"] == "TE-1"
                                             else c for c in p["curves"]]}, id="unknown-parity"),
                                         {"n_eff": "abc"}, {"n_eff": True}, {"lam_z_nm": True},
                                         pytest.param(lambda p: {"curves": [
                                             dict(c, label=5) if c["label"] == "TE-1"
                                             else c for c in p["curves"]]}, id="numeric-label"),
                                         pytest.param(lambda p: {"curves": [
                                             dict(c, samples=[dict(c["samples"][0],
                                                                   omega_norm=float("nan")),
                                                              *c["samples"][1:]])
                                             if c["label"] == "TE-1" else c
                                             for c in p["curves"]]}, id="nan-omega"),
                                         pytest.param({"lam_z_nm": -1.0}, id="negative-lam-z"),
                                         pytest.param({"n_eff": 0.5}, id="n-eff-below-1")])
    def test_corrupt_cache_is_recomputed(self, cli_out, bands_payload, monkeypatch,
                                         garbage, capsys):
        from pcwgprobe import cli

        if callable(garbage):
            garbage = garbage(bands_payload)
        if isinstance(garbage, dict):
            garbage = json.dumps({**bands_payload, **garbage})
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
        cfg.write_text("lattice: {pw_per_cell: 7, supercell_rows: 17, dispersive: true, "
                       "k_points: 26.0}\n"
                       "slab: {t_nm: 340}\n"
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

    def test_thinned_bands_without_te1_exit_3(self, tmp_path, capsys):
        # a valid lattice whose bands and thinning solves hold 'defect-1' but no TE-1
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("lattice: {r_frac: 0.336, supercell_rows: 11, pw_per_cell: 3, "
                       "lam_x_nm: 449.2, grading: [0.372, 0.426], k_points: 51, "
                       "dispersive: true}\n")
        assert run(["--config", cfg, "--out", tmp_path, "bands", "--thinned", "300"]) == 3
        err = capsys.readouterr().err
        assert "computation failed: no TE-1 branch" in err and "Traceback" not in err

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


class TestConfigSchema:
    def test_every_key_has_one_kind(self):
        # a key takes its default's kind; only the null defaults declare one
        nulls = {f"{section}.{key}" for section, keys in cfgmod.DEFAULTS.items()
                 for key, value in keys.items() if value is None}
        assert set(cfgmod.OPTIONAL_KINDS) == nulls
        kinds = {type(value) for keys in cfgmod.DEFAULTS.values() for value in keys.values()}
        assert kinds - {type(None)} <= {float, int, bool, str, list}
        assert set(cfgmod.OPTIONAL_KINDS.values()) <= {float, int, bool, str, list}

    @pytest.mark.parametrize("yaml_text", ["", "slab: {t_nm: 340}\nlattice: {k_points: 26.0}\n"],
                             ids=["defaults", "yaml-integer-real"])
    def test_effective_config_loads_back_to_the_same_config(self, tmp_path, capsys, yaml_text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml_text)
        assert run(["--config", cfg, "--print-effective-config"]) == 0
        echo = capsys.readouterr().out
        assert "t_nm: 340.0\n" in echo and "k_points: 26\n" in echo
        (tmp_path / "echo.yaml").write_text(echo)
        loaded, reloaded = cfgmod.load_config(cfg), cfgmod.load_config(tmp_path / "echo.yaml")
        assert reloaded == loaded == cfgmod.DEFAULTS
        assert cfgmod.effective_config_yaml(reloaded) == echo
        assert cfgmod.bands_cache_key(reloaded) == cfgmod.bands_cache_key(loaded) == \
            "288ba8a5bcde68ed"


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

    def test_config_that_is_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_bytes(b"fiber:\n  d_um: 1.2 \xff\xfe\n")
        assert run(["--config", cfg, "--out", tmp_path, "fiber"]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["5", "null", "[a]", '"a\\0b"'])
    def test_out_dir_that_is_not_a_path_exits_2(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.yaml").write_text(f"io: {{out_dir: {value}}}\n")
        assert run(["--config", "cfg.yaml", "fiber"]) == 2
        err = capsys.readouterr().err
        assert "'io.out_dir'" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    # the physics modules: the import and --print-effective-config load none of them
    PHYSICS = {f"pcwgprobe.{m}" for m in ("bands", "fiber", "slab", "roots", "coupling",
                                          "pipeline")}

    @pytest.mark.parametrize("argv, unloaded, loaded", [
        (None, PHYSICS | {"yaml"}, set()),
        (["--print-effective-config"], PHYSICS | {"hashlib"}, {"yaml"}),
        (["fiber"], {"pcwgprobe.bands", "pcwgprobe.slab", "pcwgprobe.coupling",
                     "pcwgprobe.pipeline", "yaml", "hashlib"}, {"pcwgprobe.fiber"}),
        (["bands"], {"pcwgprobe.coupling", "pcwgprobe.pipeline", "pcwgprobe.slab", "yaml",
                     "concurrent.futures"}, {"pcwgprobe.bands"}),
        (["--no-cache", "bands"], set(), {"pcwgprobe.slab"}),
        (["--no-cache", "bands", "--thinned", "300"], set(), {"pcwgprobe.slab"}),
        (["couple", "--sweep", "lateral"], set(), {"pcwgprobe.coupling"}),
    ], ids=["import", "print-effective-config", "fiber", "warm-bands", "cold-bands",
            "thinned-bands", "couple-lateral"])
    def test_each_command_loads_only_the_modules_it_runs(self, cli_out, argv, unloaded, loaded):
        # no command loads scipy: the eigensolves call numpy's own LAPACK
        script = (
            "import contextlib, io, json, sys\n"
            "import pcwgprobe.cli as cli\n"
            f"argv = {argv!r}\n"
            "if argv is not None:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert cli.main(['--out', {str(cli_out)!r}, *argv]) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        modules = set(json.loads(proc.stdout))
        assert sorted(unloaded & modules) == []
        assert loaded <= modules
        assert sorted(m for m in modules if m.split(".")[0] == "scipy") == []

    def test_start_up_leaves_optimize_interpolate_and_linalg_unimported(self, cli_out):
        script = (
            "import sys\n"
            "import pcwgprobe.cli as cli\n"
            "heavy = ('scipy.optimize', 'scipy.interpolate', 'scipy.linalg')\n"
            "def scipy_loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "print(scipy_loaded())\n"
            "assert cli.main(['--print-effective-config']) == 0\n"
            f"assert cli.main(['--out', {str(cli_out)!r}, 'bands']) == 0\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "print(scipy_loaded())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "[]"  # after the import
        assert lines[1] == "[]"  # no scipy module at all after the import
        assert lines[-2] == "[]"  # after a warm bands run
        assert lines[-1] == "[]"  # no scipy after --print-effective-config and a warm bands run
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
            "interpolate = 'scipy.interpolate' in sys.modules\n"
            f"assert cli.main(['--out', {out!r}, 'fiber']) == 0\n"
            f"assert cli.main(['--out', {out!r}, 'couple', '--sweep', 'gap']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print(interpolate)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        # map synth/analyze, fiber (with and without --profile) and the gap
        # sweep make no eigensolve, so they load no scipy module at all
        assert proc.stdout.splitlines()[-2] == "[]"
        assert (cli_out / "bandpoints.json").exists()
        assert (cli_out / "fiber_dispersion.csv").exists()

    @pytest.mark.skipif(not _GLIBC, reason="the C library has no mallopt")
    def test_repeated_passes_fault_in_no_heap(self, cli_out):
        # glibc keeps freed array temporaries in the heap for the next call:
        # a second cold bands pass and a second map synth in one process touch
        # no new pages (about 25,000 and 6,400 minor faults when glibc trims)
        script = (
            "import contextlib, io, resource, sys\n"
            "import pcwgprobe.cli as cli\n"
            "def faults(*commands):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    for argv in commands:\n"
            f"        assert cli.main(['--out', {str(cli_out)!r}, *argv]) == 0\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "bands = (['--no-cache', 'bands'], ['--no-cache', 'bands', '--thinned', '300'])\n"
            "synth = (['--seed', '1', 'map', 'synth'],)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    counts = [faults(*bands), faults(*bands), faults(*synth), faults(*synth)]\n"
            "print(*counts)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        _, bands, _, synth = map(int, proc.stdout.split())
        assert bands < 1000 and synth < 1000

    @pytest.mark.skipif(not _GLIBC, reason="the C library has no mallopt")
    def test_glibc_takes_both_heap_settings(self):
        assert cli.keep_heap() is True

    @pytest.mark.parametrize("lookup", ["no confstr name", "no mallopt symbol"])
    def test_without_mallopt_the_heap_is_left_alone(self, monkeypatch, tmp_path, lookup):
        import ctypes

        def unknown_name(name):
            raise ValueError("unrecognized configuration name")

        if lookup == "no confstr name":
            monkeypatch.setattr(os, "confstr", unknown_name)
        else:
            monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert cli.keep_heap() is False
        assert run(["--out", tmp_path, "fiber", "--d-um", "1.0"]) == 0

    def test_outputs_end_with_single_newline(self, tmp_path):
        assert run(["--out", tmp_path, "fiber", "--d-um", "1.0"]) == 0
        data = (tmp_path / "fiber_dispersion.csv").read_bytes()
        assert data.endswith(b"\n") and not data.endswith(b"\n\n")
