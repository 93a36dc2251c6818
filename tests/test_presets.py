"""Named initial-data families."""

import itertools

import numpy as np
import pytest

from msmlab.errors import ChartUndefinedError, ConfigError
from msmlab.maps import MapField
from msmlab.msm import MSMState
from msmlab.presets import (MAP_PRESETS, MSM_PRESETS, _random_chart, map_preset, msm_preset,
                            preset_params)
from msmlab.spectral import Grid1D, Grid2D
from msmlab.xsb import SpaceTimeField, check_band


def loop_chart(grid, band, amplitude, seed):
    """Reference for the random chart: one scalar draw per part, mode by mode."""
    rng = np.random.default_rng(seed)
    coef = np.zeros(grid.shape, dtype=complex)
    for m in itertools.product(range(-band, band + 1), repeat=grid.dim):
        coef[m] = rng.standard_normal() + 1j * rng.standard_normal()
    w = grid.ifft(coef)
    return w * (amplitude / float(np.max(np.abs(w))))


class TestMapPresets:
    def test_zero_is_the_south_pole(self):
        mf = map_preset(Grid2D(n=16, length=1.0), "zero")
        np.testing.assert_array_equal(mf.s3[..., 2], -1.0)
        assert mf.normalization_error() < 1e-12

    def test_single_mode_chart_roundtrip(self):
        g = Grid2D(n=32, length=2.0)
        mf = map_preset(g, "single_mode", {"k": [2, -1], "amplitude": 0.25})
        expected = 0.25 * np.exp(2j * np.pi * (2 * g.x - g.y) / g.length)
        np.testing.assert_allclose(mf.stereo(), expected, atol=1e-12)

    def test_single_mode_on_a_line(self):
        g = Grid1D(n=32, length=2 * np.pi)
        mf = map_preset(g, "single_mode", {"k": 3, "amplitude": 0.2})
        np.testing.assert_allclose(mf.stereo(), 0.2 * np.exp(3j * g.x), atol=1e-12)

    def test_smooth_bump_matches_closed_form(self):
        g = Grid2D(n=64, length=1.0)
        mf = map_preset(g, "smooth_bump", {"amplitude": 0.5, "width": 0.08})
        c = g.length / 2
        z = ((g.x - c) + 1j * (g.y - c)) / (0.08 * g.length)
        w = 0.5 * z * np.exp(-0.5 * np.abs(z) ** 2) * np.exp(0.7j * np.real(z))
        np.testing.assert_allclose(mf.stereo(), w, atol=1e-10)

    def test_near_north_pole_height(self):
        mf = map_preset(Grid2D(n=16, length=1.0), "near_north_pole", {"distance": 0.05})
        # chart height: 1 - x3 = 2 / (1 + |w|^2) with |w|^2 = 2/d - 1 at
        # the unmodulated points, so max(x3) sits just below 1 - d/(1+amp)^2.
        assert np.max(mf.s3[..., 2]) > 1 - 2 * 0.05
        assert np.max(mf.s3[..., 2]) < 1.0

    def test_near_north_pole_can_leave_the_chart(self):
        mf = map_preset(Grid2D(n=16, length=1.0), "near_north_pole", {"distance": 1e-9})
        with pytest.raises(ChartUndefinedError):
            mf.stereo()

    def test_random_seeded_reproducible(self):
        g = Grid2D(n=16, length=1.0)
        a = map_preset(g, "random_seeded", {"band": 2}, seed=5)
        b = map_preset(g, "random_seeded", {"band": 2}, seed=5)
        c = map_preset(g, "random_seeded", {"band": 2}, seed=6)
        np.testing.assert_array_equal(a.s3, b.s3)
        assert np.max(np.abs(a.s3 - c.s3)) > 1e-3

    def test_random_seeded_real_chart(self):
        g = Grid1D(n=64, length=2 * np.pi)
        mf = map_preset(g, "random_seeded", {"band": 2, "amplitude": 0.4, "real": True}, seed=1)
        w = mf.stereo()
        assert np.max(np.abs(w.imag)) < 1e-12
        assert np.max(np.abs(w)) == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize("real", [False, True])
    def test_zero_amplitude_random_chart_is_the_constant_map(self, real):
        g = Grid2D(n=16, length=1.0)
        mf = map_preset(g, "random_seeded", {"amplitude": 0.0, "real": real}, seed=3)
        np.testing.assert_array_equal(mf.s3, MapField.constant(g).s3)

    @pytest.mark.parametrize("grid", [Grid1D(n=64, length=2.0), Grid2D(n=16, length=1.0)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_chart_matches_scalar_loop(self, grid, seed):
        np.testing.assert_array_equal(_random_chart(grid, 3, 0.4, seed),
                                      loop_chart(grid, 3, 0.4, seed))

    def test_amplitude_is_the_chart_sup(self):
        g = Grid2D(n=16, length=1.0)
        mf = map_preset(g, "random_seeded", {"band": 3, "amplitude": 0.3}, seed=9)
        assert np.max(np.abs(mf.stereo())) == pytest.approx(0.3, rel=1e-10)

    def test_unknown_name_and_parameter_rejected(self):
        g = Grid2D(n=16, length=1.0)
        with pytest.raises(ConfigError, match="sombrero"):
            map_preset(g, "sombrero")
        with pytest.raises(ConfigError, match="sigma"):
            map_preset(g, "smooth_bump", {"sigma": 0.1})
        for name in MAP_PRESETS:
            assert isinstance(map_preset(g, name), MapField)


    @pytest.mark.parametrize("grid", [Grid1D(n=16, length=2.0), Grid2D(n=16, length=1.0)],
                             ids=["1d", "2d"])
    def test_band_must_fit_the_grid(self, grid):
        # band <= n/2 - 1 keeps every mode of the box distinct from the others.
        assert np.any(_random_chart(grid, 7, 0.4, 0))
        with pytest.raises(ConfigError, match="'band' = 8.*n = 16"):
            _random_chart(grid, 8, 0.4, 0)
        with pytest.raises(ConfigError, match="'band' = 300"):
            map_preset(grid, "random_seeded", {"band": 300})

    @pytest.mark.parametrize("name,params", [
        ("smooth_bump", {"width": 0}),
        ("smooth_bump", {"width": -0.5}),
        ("smooth_bump", {"width": float("inf")}),
        ("near_north_pole", {"distance": -1}),
        ("near_north_pole", {"distance": 0.0}),
        ("near_north_pole", {"distance": 2.5}),
        ("single_mode", {"amplitude": float("nan")}),
        ("random_seeded", {"amplitude": -float("inf")}),
        ("smooth_bump", {"amplitude": 10**400}),
    ])
    def test_out_of_range_values_rejected(self, name, params):
        key = next(iter(params))
        with pytest.raises(ConfigError, match=f"{key!r} of preset {name!r}"):
            map_preset(Grid2D(n=16, length=1.0), name, params)

    def test_range_edges_accepted(self):
        g = Grid1D(n=16, length=1.0)
        south = map_preset(g, "near_north_pole", {"distance": 2, "amplitude": 0.0})
        np.testing.assert_allclose(south.s3[..., 2], -1.0)
        assert map_preset(g, "smooth_bump", {"width": 3, "amplitude": -1}).normalization_error() < 1e-12


class TestMsmPresets:
    def test_zero(self):
        st = msm_preset(Grid2D(n=16, length=1.0), "zero")
        assert not np.any(st.u1) and not np.any(st.u2)

    def test_single_mode_pair(self):
        g = Grid2D(n=16, length=1.0)
        st = msm_preset(g, "single_mode", {"k": [1, 0], "amplitude": 0.5})
        phase = np.exp(2j * np.pi * g.x / g.length)
        np.testing.assert_allclose(st.u1, 0.5 * phase, atol=1e-13)
        np.testing.assert_allclose(st.u2, 0.4 * np.conj(phase), atol=1e-13)

    def test_smooth_bump_envelope_decays_at_seam(self):
        st = msm_preset(Grid2D(n=64, length=1.0), "smooth_bump", {"width": 0.06})
        edge = max(np.max(np.abs(st.u1[0, :])), np.max(np.abs(st.u1[:, 0])))
        assert edge < 1e-8 * np.max(np.abs(st.u1))

    def test_random_seeded_reproducible(self):
        g = Grid2D(n=16, length=1.0)
        a = msm_preset(g, "random_seeded", seed=3)
        b = msm_preset(g, "random_seeded", seed=3)
        np.testing.assert_array_equal(a.u1, b.u1)
        assert np.max(np.abs(a.u1 - a.u2)) > 1e-6

    def test_validation(self):
        g = Grid2D(n=16, length=1.0)
        with pytest.raises(ConfigError, match="plane_wave"):
            msm_preset(g, "plane_wave")
        with pytest.raises(ConfigError, match="winding"):
            msm_preset(g, "single_mode", {"winding": 2})
        with pytest.raises(ConfigError, match="'width'"):
            msm_preset(g, "smooth_bump", {"width": 0.0})
        with pytest.raises(ConfigError, match="'band' = 8"):
            msm_preset(g, "random_seeded", {"band": 8})
        for name in MSM_PRESETS:
            assert isinstance(msm_preset(g, name), MSMState)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_every_band_rule_refuses_half_the_grid(n):
    # The preset band, a field's columns and the trial bands share one rule,
    # xsb.check_band: band n/2 - 1 fits an n-point grid and band n/2 does not.
    g = Grid2D(n=n, length=1.0)
    for band in (n // 2 - 1, n // 2):
        columns = np.zeros((2 * band + 1, 2 * band + 1, 8), complex)
        calls = {
            "check_band": lambda: check_band(band, n),
            "columns": lambda: SpaceTimeField(grid=g, t_window=1.0, columns=columns),
            "preset": lambda: preset_params(MSM_PRESETS, "random_seeded", {"band": band}, 2, n),
        }
        for name, call in calls.items():
            if band < n // 2:
                call()
                continue
            error = ConfigError if name == "preset" else ValueError
            with pytest.raises(error, match=f"band {band} does not fit inside the grid"):
                call()
