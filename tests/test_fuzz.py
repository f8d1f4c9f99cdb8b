"""Property tests of the CLI's exit-code contract: whatever the config
file's bytes or values or the cells of a map CSV, ``main`` ends in exit
0, 2 or 3 and prints no traceback.

The examples are derandomized, so the suite stays deterministic; raise
``max_examples`` locally to search further.  Grids stay small: the
wavelength and gap steps default to coarse values and their fuzzed ends
are bounded; a fuzzed step or point count is either small or past the
config's grid cap, never a large grid that is still allowed, and a pair of
map grids under that cap is drawn only with a cell count past the map's
cap.  Any RuntimeWarning (an overflow or invalid value inside a kernel)
fails a test.  One test draws valid lattice, slab and fiber values instead
and runs every command that reads the bands on them.
"""

import contextlib
import csv
import io
import json
import math

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pcwgprobe.cli import main
from pcwgprobe.config import DEFAULTS, MAX_GRID_POINTS, MAX_MAP_CELLS

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FUZZ = settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,  # the same examples on every run: a gate, not a search
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

ODD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
)
BOUNDED = st.one_of(
    st.floats(-2000.0, 2500.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
    st.text(max_size=3),
    st.none(),
)
STEP = st.one_of(
    st.floats(1e-300, 1e-9),  # past the cap on any range the ends can give
    st.floats(10.0, 2500.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -25.0]),
    st.text(max_size=3),
    st.none(),
)
COUNT = st.one_of(
    st.integers(-3, 9),
    st.integers(MAX_GRID_POINTS + 1, 10**15),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 2.5]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
# a map past the cell cap whose two grids each pass the grid cap; its
# wavelength grid stays a few hundred points
MAP_PAST_CAP = st.integers(MAX_GRID_POINTS // 2, MAX_GRID_POINTS).flatmap(
    lambda n: st.integers(MAX_MAP_CELLS // n + 1, MAX_MAP_CELLS // n + 100).map(
        lambda m: {"lc_points": n, "lambda_start_nm": 1500.0, "lambda_stop_nm": 1600.0,
                   "lambda_step_nm": 100.0 / (m - 1)}
    )
)
CONFIG_KEYS = {
    ("fiber", "d_um"): ODD,
    ("fiber", "core_index"): ODD,
    ("fiber", "clad_index"): ODD,
    ("coupler", "gap_nm"): ODD,
    ("coupler", "l_c_um"): ODD,
    ("coupler", "kappa_ref_l"): ODD,
    ("coupler", "g_ref_nm"): ODD,
    ("coupler", "d_ref_um"): ODD,
    ("coupler", "g0_nm"): ODD,
    ("coupler", "d_kappa_um"): ODD,
    ("coupler", "scatter_loss_ref"): ODD,
    ("coupler", "scatter_g_scale_nm"): ODD,
    ("coupler", "scatter_d_scale_um"): ODD,
    ("coupler", "include_loss"): ODD,
    ("grids", "gap_sweep_d_um"): ODD,
    ("grids", "lateral_gap_nm"): ODD,
    ("grids", "lateral_d_um"): ODD,
    ("grids", "noise_sigma"): ODD,
    ("grids", "lambda_start_nm"): BOUNDED,
    ("grids", "lambda_stop_nm"): BOUNDED,
    ("grids", "gap_start_nm"): BOUNDED,
    ("grids", "gap_stop_nm"): BOUNDED,
    ("grids", "lambda_step_nm"): STEP,
    ("grids", "gap_step_nm"): STEP,
    ("grids", "lc_points"): COUNT,
    ("grids", "dx_points"): COUNT,
    ("lattice", "k_points"): COUNT,
    ("grids", "lc_points x lambda_step_nm"): MAP_PAST_CAP,  # the two map grids at once
    ("fiber", "taper_waist_um"): ODD,
    ("fiber", "taper_pull_mm"): ODD,
    ("fiber", "taper_csv"): ODD,
    ("slab", "t_nm"): ODD,
    ("slab", "n_si"): ODD,
    ("slab", "n_clad"): ODD,
    ("slab", "effective_hole_fill"): ODD,
    ("lattice", "lam_z_nm"): ODD,
    ("lattice", "lam_x_nm"): ODD,
    ("lattice", "r_frac"): ODD,
    ("lattice", "grading"): ODD,
    ("lattice", "supercell_rows"): ODD,
    ("lattice", "pw_per_cell"): ODD,
    ("lattice", "n_eff_override"): ODD,
    ("lattice", "lam_ref_um"): ODD,
    ("lattice", "dispersive"): ODD,
    ("lattice", "k_start"): ODD,
    ("lattice", "k_stop"): ODD,
    ("grids", "lc_start_mm"): ODD,
    ("grids", "lc_stop_mm"): ODD,
    ("grids", "dx_span_um"): ODD,
    ("io", "out_dir"): ODD,
    ("io", "cache"): ODD,
}
COMMANDS = [["fiber"], ["couple", "--sweep", "gap"], ["couple", "--sweep", "lateral"],
            ["map", "synth"]]
SMALL_GRIDS = {"lambda_step_nm": 25.0, "gap_step_nm": 100.0}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue() + err.getvalue()


@st.composite
def configs(draw):
    cfg = {"grids": dict(SMALL_GRIDS)}
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), min_size=1, max_size=3))
    for section, key in keys:
        value = draw(CONFIG_KEYS[section, key])
        if isinstance(value, dict):
            cfg[section].update(value)
        else:
            cfg.setdefault(section, {})[key] = value
    return cfg


def test_config_keys_cover_every_default_key():
    assert {(section, key) for section, keys in DEFAULTS.items() for key in keys} <= set(CONFIG_KEYS)


@FUZZ
@given(cfg=configs(), command=st.sampled_from(COMMANDS))
# a cladding index whose square overflows (a RuntimeWarning in the HE11 kernel)
@example(cfg={"grids": SMALL_GRIDS, "fiber": {"clad_index": 1.3407807929942597e154}},
         command=["fiber"])
# the two map grids, each under the grid cap, past the map's cell cap together
@example(cfg={"grids": {**SMALL_GRIDS, "lc_points": 50_000, "lambda_start_nm": 1500.0,
                        "lambda_stop_nm": 1600.0, "lambda_step_nm": 0.5}},
         command=["map", "synth"])
# a finite reference gap whose kappa overflows (exit 3, no RuntimeWarning)
@example(cfg={"grids": SMALL_GRIDS, "coupler": {"g_ref_nm": 1.0e154}},
         command=["couple", "--sweep", "gap"])
# a tiny scattering scale at gaps below 400 nm: the loss saturates at its clip
@example(cfg={"grids": SMALL_GRIDS, "coupler": {"scatter_g_scale_nm": 1.0e-300}},
         command=["couple", "--sweep", "gap"])
# wider draws found: a one-wavelength map grid, and a wavelength below the
# silica Sellmeier expansion's UV resonance (n^2 < 0)
@example(cfg={"grids": {**SMALL_GRIDS, "lambda_step_nm": 61.0}}, command=["map", "synth"])
@example(cfg={"grids": {**SMALL_GRIDS, "lambda_start_nm": 2.0}}, command=["fiber"])
def test_config_values_keep_the_exit_code_contract(cli_out, cfg, command):
    path = cli_out / "fuzz.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, text = run_main(["--config", path, "--out", cli_out] + command)
    assert code in (0, 2, 3), text
    assert "Traceback" not in text


# heads that lead raw bytes into the sections that the two commands read
CONFIG_HEADS = [b"", b"fiber:\n  d_um: ", b"fiber: {clad_index: ", b"grids:\n  lambda_step_nm: ",
                b"io:\n  cache: ", b"lattice:\n  "]


@FUZZ
@given(head=st.sampled_from(CONFIG_HEADS), tail=st.binary(max_size=24))
@example(head=b"fiber:\n  d_um: ", tail=b"1.2 \xff\xfe\n")  # not UTF-8
@example(head=b"io: {out_dir: ", tail=b"5}\n")  # an output directory that is not a path
@example(head=b"io: {out_dir: ", tail=b"null}\n")
@example(head=b"io: {out_dir: ", tail=b"[a]}\n")
@example(head=b"", tail=b"[" * 1000)  # deeper than PyYAML can compose
@example(head=b"fiber: {core_index: ", tail=b"[" * 400 + b"]" * 400 + b"}")  # or echo
def test_config_bytes_keep_the_exit_code_contract(tmp_path, monkeypatch, head, tail):
    monkeypatch.chdir(tmp_path)  # without --out, fiber writes under io.out_dir
    path = tmp_path / "fuzz.yaml"
    path.write_bytes(head + tail)
    for command in (["--print-effective-config"], ["fiber"]):
        code, text = run_main(["--config", path] + command)
        assert code in (0, 2, 3), text
        assert "Traceback" not in text


# each grid-sizing key with a command that builds its grid
GRID_KEYS = {
    ("grids", "lambda_step_nm"): (STEP, ["fiber"]),
    ("grids", "gap_step_nm"): (STEP, ["couple", "--sweep", "gap"]),
    ("grids", "lc_points"): (COUNT, ["map", "synth"]),
    ("grids", "dx_points"): (COUNT, ["couple", "--sweep", "lateral"]),
    ("lattice", "k_points"): (COUNT, ["bands"]),
    ("grids", "lc_points x lambda_step_nm"): (MAP_PAST_CAP, ["map", "synth"]),
}


@settings(FUZZ, max_examples=30)
@given(data=st.data(), key=st.sampled_from(sorted(GRID_KEYS)))
def test_grid_sizes_keep_the_exit_code_contract(cli_out, data, key):
    strategy, command = GRID_KEYS[key]
    cfg = {"grids": dict(SMALL_GRIDS)}
    value = data.draw(strategy)
    if isinstance(value, dict):  # the two map grids at once
        cfg["grids"].update(value)
    else:
        cfg.setdefault(key[0], {})[key[1]] = value
    path = cli_out / "fuzz.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, text = run_main(["--config", path, "--out", cli_out] + command)
    assert code in (0, 2, 3), text
    assert "Traceback" not in text


CELL = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=4),
    st.sampled_from(["", "nan", "-inf", "1e999", "0.35", "1565.0", "lc_mm\\lambda_nm"]),
)


def base_map():
    lam = [1565.0 + 0.5 * j for j in range(8)]
    rows = [["lc_mm\\lambda_nm"] + [repr(v) for v in lam]]
    for i in range(4):
        rows.append([repr(0.3 + 0.02 * i)] + [repr(0.95 - 0.5 * (j == 3 + i % 2)) for j in range(8)])
    return rows


@FUZZ
@given(
    edits=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9), CELL), max_size=4),
    truncate=st.one_of(st.none(), st.integers(0, 4)),
    raw=st.one_of(st.none(), st.binary(max_size=8)),
    sidecar=st.one_of(st.none(), st.text(max_size=6)),
)
def test_map_cells_keep_the_exit_code_contract(cli_out, edits, truncate, raw, sidecar):
    rows = base_map()
    for i, j, cell in edits:
        row = rows[i]
        if j < len(row):
            row[j] = cell
        else:
            row.append(cell)
    if truncate is not None:
        rows[truncate] = rows[truncate][: len(rows[truncate]) // 2]
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    data = buf.getvalue().encode()
    if raw is not None:
        data += raw  # bytes that need not decode
    path = cli_out / "fuzz.csv"
    path.write_bytes(data)
    meta = cli_out / "fuzz.meta.json"
    if sidecar is None:
        meta.unlink(missing_ok=True)
    else:
        meta.write_text(sidecar)
    code, text = run_main(["--out", cli_out, "map", "analyze", "--in", path])
    assert code in (0, 2, 3), text
    assert "Traceback" not in text


# valid physics in the ranges of the ROADMAP's random-config survey, kept to
# pw <= 5 and <= 13 k-points so each example takes a fraction of a second
RADIUS = st.floats(0.2, 0.45)
PHYSICS = st.fixed_dictionaries(
    {"lattice": st.fixed_dictionaries({
        "r_frac": RADIUS,
        "supercell_rows": st.sampled_from([9, 11, 13, 15, 17, 19]),
        "pw_per_cell": st.sampled_from([3, 5]),
        "lam_x_nm": st.floats(340.0, 460.0),
        "grading": st.lists(RADIUS, min_size=1, max_size=3),
        "k_points": st.integers(8, 13),
        "dispersive": st.booleans(),
    })},
    optional={"slab": st.fixed_dictionaries({"t_nm": st.floats(200.0, 400.0)}),
              "fiber": st.fixed_dictionaries({"d_um": st.floats(0.8, 3.0)})},
)
# each command and the files it writes
PHYSICS_COMMANDS = [
    (["bands"], ["bands.json"]),
    (["bands", "--thinned", "300"], ["bands.json"]),
    (["couple", "--sweep", "gap"], ["gap_sweep.csv"]),
    (["couple", "--sweep", "lateral"],
     ["lateral_profile.csv", "lateral_kappa.csv", "lateral_summary.json"]),
    (["map", "synth"], ["map.csv", "map.meta.json"]),
]


def parse_output(path):
    """A JSON output's value, or a CSV output's body rows as floats."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    return [[float(cell) for cell in row] for row in list(csv.reader(io.StringIO(text)))[1:]]


@settings(FUZZ, max_examples=4)
@given(physics=PHYSICS)
# the default lattice at pw 5 and 13 k: every command exits 0
@example(physics={"lattice": {"pw_per_cell": 5, "k_points": 13}})
# a lattice whose bands hold 'defect-1' but no TE-1: bands --thinned 300
# ended in a KeyError traceback, exit 1
@example(physics={"lattice": {"r_frac": 0.336, "supercell_rows": 11, "pw_per_cell": 3,
                              "lam_x_nm": 449.2, "grading": [0.372, 0.426], "k_points": 51,
                              "dispersive": True}})
def test_valid_physics_keeps_the_exit_code_contract(tmp_path_factory, physics):
    out = tmp_path_factory.mktemp("physics")
    path = out / "physics.yaml"
    path.write_text(yaml.safe_dump({"grids": dict(SMALL_GRIDS), **physics}))
    for command, outputs in PHYSICS_COMMANDS:
        for name in outputs:
            (out / name).unlink(missing_ok=True)
        code, text = run_main(["--config", path, "--out", out] + command)
        assert code in (0, 2, 3), text
        assert "Traceback" not in text
        if code == 0:
            for name in outputs:
                assert parse_output(out / name), (command, name)
