"""Property tests of the CLI's exit-code contract: whatever the config
values or the cells of a map CSV, ``main`` ends in exit 0, 2 or 3 and
prints no traceback.

The examples are derandomized, so the suite stays deterministic; raise
``max_examples`` locally to search further.  Grids stay small: the
wavelength and gap steps default to coarse values and their fuzzed ends
are bounded; a fuzzed step or point count is either small or past the
config's grid cap, never a large grid that is still allowed, and a pair of
map grids under that cap is drawn only with a cell count past the map's
cap.  Any RuntimeWarning (an overflow or invalid value inside a kernel)
fails a test.
"""

import contextlib
import csv
import io
import math

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pcwgprobe.cli import main
from pcwgprobe.config import MAX_GRID_POINTS, MAX_MAP_CELLS

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
