"""Property tests of the CLI's exit-code contract: whatever the config
values or the cells of a map CSV, ``main`` ends in exit 0, 2 or 3 and
prints no traceback.

The examples are derandomized, so the suite stays deterministic; raise
``max_examples`` locally to search further.  Grids stay small: the wavelength and gap steps are fixed and their
fuzzed ends bounded, so no example solves more than a few hundred roots.
"""

import contextlib
import csv
import io
import math

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcwgprobe.cli import main

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
CONFIG_KEYS = {
    ("fiber", "d_um"): ODD,
    ("fiber", "core_index"): ODD,
    ("fiber", "clad_index"): ODD,
    ("coupler", "gap_nm"): ODD,
    ("coupler", "l_c_um"): ODD,
    ("coupler", "kappa_ref_l"): ODD,
    ("coupler", "g0_nm"): ODD,
    ("coupler", "d_kappa_um"): ODD,
    ("coupler", "scatter_loss_ref"): ODD,
    ("coupler", "include_loss"): ODD,
    ("grids", "gap_sweep_d_um"): ODD,
    ("grids", "lambda_start_nm"): BOUNDED,
    ("grids", "lambda_stop_nm"): BOUNDED,
    ("grids", "gap_start_nm"): BOUNDED,
    ("grids", "gap_stop_nm"): BOUNDED,
}
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
        cfg.setdefault(section, {})[key] = draw(CONFIG_KEYS[section, key])
    return cfg


@FUZZ
@given(cfg=configs(), command=st.sampled_from([["fiber"], ["couple", "--sweep", "gap"]]))
def test_config_values_keep_the_exit_code_contract(cli_out, cfg, command):
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
