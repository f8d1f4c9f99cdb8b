"""Shared fixtures: the default bandstructure and thinning shifts are
expensive, so each is computed once per session and reused; the bands'
wall time feeds the runtime acceptance criterion.  CLI tests get a work
directory with the bands cache pre-seeded from the same computation.
"""

import json
import time

import numpy as np
import pytest

from pcwgprobe import config as cfgmod
from pcwgprobe.bands import find_branch, thinning_shift, waveguide_bands
from pcwgprobe.fiber import TaperProfile
from pcwgprobe.slab import SlabSpec


@pytest.fixture(scope="session")
def default_cfg():
    return cfgmod.load_config(None)


@pytest.fixture(scope="session")
def bands_result(default_cfg):
    """(WaveguideBandsResult, elapsed_seconds) for the default lattice."""
    spec, dispersive = cfgmod.build_lattice(default_cfg)
    kpath = cfgmod.build_kpath(default_cfg)
    t0 = time.perf_counter()
    res = waveguide_bands(spec, kpath_norm=kpath, dispersive=dispersive)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="session")
def te1(bands_result):
    return find_branch(bands_result[0].curves, "TE-1")


@pytest.fixture(scope="session")
def te1_odd(bands_result):
    return find_branch(bands_result[0].curves, "TE-1-odd")


@pytest.fixture(scope="session")
def default_spec(default_cfg):
    spec, _ = cfgmod.build_lattice(default_cfg)
    return spec


@pytest.fixture(scope="session")
def default_dispersive(default_cfg):
    """The default membrane (a SlabSpec), whose index the default bands follow."""
    return cfgmod.build_lattice(default_cfg)[1]


@pytest.fixture(scope="session")
def default_thinning(default_spec, default_cfg):
    """Thinning shifts of the default lattice from 340 to 300 nm at the
    reference wavelength (criterion 06's inputs)."""
    return thinning_shift(default_spec, SlabSpec(340.0), 300.0,
                          default_cfg["lattice"]["lam_ref_um"])


@pytest.fixture(scope="session")
def default_taper():
    return TaperProfile.exponential(0.6, 5.5)


@pytest.fixture(scope="session")
def bands_payload(bands_result, default_spec):
    res, _ = bands_result
    return {
        "lam_z_nm": default_spec.lam_z_nm,
        "n_eff": default_spec.n_eff,
        "gap_norm": list(res.gap_norm) if res.gap_norm else None,
        "curves": [c.to_dict() for c in res.curves],
    }


@pytest.fixture
def cli_out(tmp_path, bands_payload, default_cfg):
    """Output dir with the bands cache pre-seeded (CLI tests stay fast)."""
    key = cfgmod.bands_cache_key(default_cfg)
    cache = tmp_path / ".cache"
    cache.mkdir()
    with open(cache / f"bands_{key}.json", "w") as fh:
        json.dump(bands_payload, fh)
    return tmp_path


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
