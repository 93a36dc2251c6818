"""Space-time norms, ratio experiments, and multiplier brackets."""

import csv
from collections import Counter

import numpy as np
import pytest

from msmlab.errors import TooLargeError
from msmlab.spectral import Grid2D
from msmlab.storage import format_value
from msmlab.xsb import (
    DELTA_FRAC,
    FLAVORS,
    MultiplierSpec,
    RatioReport,
    SpaceTimeField,
    Trial,
    TrialEnsemble,
    bilinear_embedding_test,
    counting_bound,
    duality_pairing,
    exact_norm_k2,
    free_solution_field,
    free_solution_norm_check,
    free_solution_slope,
    indicator_pair_multiplier,
    mixed_norm,
    multiplier_norm_bounds,
    multiplier_suite,
    paraboloid_mode_dict,
    ratio_test_cubic,
    ratio_test_nullform,
    ratio_test_quintic,
    realize_mode_field,
    sample_trials,
    shell_mode_dict,
    unit_window,
    white_mode_dict,
    write_ratio_csv,
    xsb_norm,
    _unaliased,
)
from memtrace import traced_peak
from reference_ops import grad_inverse_laplacian

LENGTH = 4 * np.pi
TWIN = 4.0


def grid(n=32):
    return Grid2D(n=n, length=LENGTH)


def white_field(seed, n=32, nt=64, sb=4, tb=8):
    return realize_mode_field(grid(n), nt, TWIN, white_mode_dict(sb, tb, seed))


def scaled(f, factor):
    """The field factor * f, built from its columns like any realized field."""
    return SpaceTimeField(grid=f.grid, t_window=f.t_window, columns=factor * f.columns)


def sample_times(f):
    return np.arange(f.nt) * (f.t_window / f.nt)


def window(f):
    """The time cutoff a realized field is built with: psi((t - T/2) / (DELTA_FRAC T))."""
    return unit_window((sample_times(f) - f.t_window / 2) / (DELTA_FRAC * f.t_window))


def box_spectrum(f):
    """The full space-time spectrum a field's box stands for, zero outside the box."""
    out = np.zeros(f.grid.shape + (f.nt,), dtype=np.complex128)
    idx = np.arange(-f.band, f.band + 1) % f.grid.n
    out[np.ix_(idx, idx)] = np.fft.fft(f.columns, axis=2) / f.nt
    return out


def time_frequencies(f):
    """tau of each time index, signed so e^{-i tau t} sits at tau."""
    return -2 * np.pi * np.fft.fftfreq(f.nt, d=f.t_window / f.nt)


def symmetric_gap(taus, nt, xi2, sign=+1):
    """Weight argument tau -+ |xi|^2 with the unpaired Nyquist plane symmetrized."""
    gap = taus - sign * xi2
    gap[nt // 2] = abs(taus[nt // 2]) + xi2
    return gap


def cell_weight_sq(xi2, taus, s, b, sign):
    """Squared weight <tau -+ |xi|^2>^2b <xi>^2s at one |xi|^2."""
    gap = symmetric_gap(taus, len(taus), xi2, sign)
    # <xi> is raised as an array, as the library raises it: numpy's power of
    # a scalar and of an array may differ in the last bit.
    bracket_xi = np.sqrt(1 + np.full_like(taus, xi2))
    return (np.sqrt(1 + gap**2) ** b * bracket_xi**s) ** 2


def windowed_mode_norm(f, cut, mode, amp, s, b):
    """One-mode weighted norm, summed explicitly over the spectrum of the window cut.

    ``cut`` is sampled on the time axis of f, which is all that f supplies.
    """
    xi2 = (2 * np.pi / LENGTH) ** 2 * (mode[0] ** 2 + mode[1] ** 2)
    tau_mode = 2 * np.pi * mode[2] / TWIN
    shifted = np.fft.fft(cut * np.exp(-1j * tau_mode * sample_times(f))) / f.nt
    gap = symmetric_gap(time_frequencies(f), f.nt, xi2)
    weight_sq = (1 + gap**2) ** b * (1 + xi2) ** s
    total = np.sum(np.abs(amp * shifted) ** 2 * weight_sq)
    return np.sqrt(LENGTH**2 * TWIN * total)


class TestSpaceTimeField:
    def test_time_axis_must_be_power_of_two(self):
        g = grid(16)
        with pytest.raises(ValueError, match="power of two"):
            SpaceTimeField(grid=g, t_window=TWIN, values=np.zeros((16, 16, 48), complex))

    def test_shape_validation(self):
        g = grid(16)
        with pytest.raises(ValueError, match="shape"):
            SpaceTimeField(grid=g, t_window=TWIN, values=np.zeros((8, 16, 32), complex))

    def test_boundary_decay_enforced(self):
        g = grid(16)
        with pytest.raises(ValueError, match="vanish"):
            SpaceTimeField(grid=g, t_window=TWIN, values=np.ones((16, 16, 32), complex))

    def test_tau_spacing_and_sign(self):
        # The time mode e^{-i 2 pi 3 t / T} peaks in the spectrum at tau = 2 pi 3 / T.
        f = realize_mode_field(grid(16), 64, TWIN, {(0, 0, 3): 1.0})
        spectrum = np.fft.fftn(f.values) / f.values.size
        peak = int(np.argmax(np.abs(spectrum[0, 0])))
        assert peak == 64 - 3
        assert time_frequencies(f)[peak] == pytest.approx(2 * np.pi * 3 / TWIN)
        assert f.dt == pytest.approx(TWIN / f.nt)

    def test_parseval(self):
        f = white_field(1)
        direct = np.sqrt(f.grid.spacing**2 * f.dt * np.sum(np.abs(f.values) ** 2))
        assert xsb_norm(f, 0.0, 0.0, +1) == pytest.approx(direct, rel=1e-12)

    def test_norm_is_homogeneous(self):
        f = white_field(2)
        assert xsb_norm(scaled(f, 3 - 4j), 0.7, 0.55, +1) == pytest.approx(
            5 * xsb_norm(f, 0.7, 0.55, +1), rel=1e-12
        )

    @pytest.mark.parametrize("s,b", [(1000.0, 0.5), (-1000.0, 0.5), (1.0, 400.0)])
    def test_weights_that_overflow_or_underflow_refused(self, s, b):
        # At the corner of n = 32, <xi>^2s reaches e^(+-4860) and <tau - |xi|^2>^2b e^4150.
        with pytest.raises(ValueError, match="overflow"):
            xsb_norm(white_field(2), s, b, +1)

    def test_single_mode_weighted_norm(self):
        mode, amp = (2, -1, 3), 1.5 + 0.5j
        f = realize_mode_field(grid(), 64, TWIN, {mode: amp})
        expected = windowed_mode_norm(f, window(f), mode, amp, s=1.0, b=0.51)
        assert xsb_norm(f, 1.0, 0.51, +1) == pytest.approx(expected, rel=1e-12)

    def test_conjugation_is_exact_isometry(self):
        # Holds bin by bin, including the unpaired Nyquist plane, so it is
        # exact even for full-spectrum data, not just synthesized bands.
        f = white_field(3)
        assert xsb_norm(f.conjugate(), 0.7, 0.55, -1) == pytest.approx(
            xsb_norm(f, 0.7, 0.55, +1), rel=1e-13
        )
        rng = np.random.default_rng(9)
        noise = rng.standard_normal((32, 32, 64)) + 1j * rng.standard_normal((32, 32, 64))
        full = SpaceTimeField(grid=grid(), t_window=TWIN, values=noise * window(f))
        assert xsb_norm(full.conjugate(), 0.3, 0.6, -1) == pytest.approx(
            xsb_norm(full, 0.3, 0.6, +1), rel=1e-13
        )


class TestDualityPairing:
    def test_self_pairing_recovers_l2(self):
        f = white_field(4)
        pair = duality_pairing(f, f.conjugate())
        assert pair.imag == pytest.approx(0.0, abs=1e-9)
        assert pair.real == pytest.approx(xsb_norm(f, 0, 0, +1) ** 2, rel=1e-12)

    @pytest.mark.parametrize("s,b", [(0.3, 0.51), (0.7, 0.55)])
    def test_cauchy_schwarz_against_mirror_space(self, s, b):
        for seed in range(20):
            u = white_field(100 + seed)
            w = white_field(200 + seed)
            pair = abs(duality_pairing(u, w))
            bound = xsb_norm(u, s, b, +1) * xsb_norm(w, -s, -b, -1)
            assert pair <= bound * (1 + 1e-12)

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError, match="grids"):
            duality_pairing(white_field(0, n=32), white_field(0, n=16))

    def test_streamed_pairing_matches_whole_sum(self):
        from msmlab.xsb import _synthesize

        # 64^2 points a slice and 128 slices span several time blocks.
        u, w = white_field(31, n=64, nt=128), white_field(32, n=64, nt=128)
        whole = np.sum(_synthesize(u.columns, 64) * _synthesize(w.columns, 64))
        measure = u.grid.spacing**2 * u.dt
        assert duality_pairing(u, w) == pytest.approx(measure * whole, rel=1e-13)
        # Neither field caches its samples.
        assert "values" not in vars(u) and "values" not in vars(w)


class TestMixedNorm:
    def test_two_two_is_spacetime_l2(self):
        f = white_field(5)
        assert mixed_norm(f, 2, 2) == pytest.approx(xsb_norm(f, 0, 0, +1), rel=1e-12)

    @pytest.mark.parametrize("p,q", [(1, 1), (3, 1.5), (np.inf, 2), (2, np.inf), (np.inf, np.inf)])
    def test_against_straightforward_sums(self, p, q):
        f = white_field(6)
        absu = np.abs(f.values)
        h2 = f.grid.spacing**2
        per_t = np.max(absu, axis=(0, 1)) if np.isinf(q) else (h2 * np.sum(absu**q, axis=(0, 1))) ** (1 / q)
        expect = np.max(per_t) if np.isinf(p) else (f.dt * np.sum(per_t**p)) ** (1 / p)
        assert mixed_norm(f, p, q) == pytest.approx(expect, rel=1e-12)

    def test_separable_gaussian_quadrature(self):
        # Product of a spatial and a temporal Gaussian: both factors have
        # closed-form Lebesgue norms and negligible periodization tails.
        g = grid()
        nt = 64
        sigma, sigma_t = LENGTH / 16, TWIN / 13
        times = np.arange(nt) * (TWIN / nt)
        ft = np.exp(-((times - TWIN / 2) ** 2) / (2 * sigma_t**2))
        c = LENGTH / 2
        gx = np.exp(-(((g.x - c) ** 2) + (g.y - c) ** 2) / (2 * sigma**2))
        f = SpaceTimeField(grid=g, t_window=TWIN, values=gx[:, :, None] * ft[None, None, :] + 0j)
        for p, q in ((2, 2), (4, 2), (3, 1.5)):
            closed = (2 * np.pi * sigma**2 / q) ** (1 / q) * (sigma_t * np.sqrt(2 * np.pi / p)) ** (1 / p)
            assert mixed_norm(f, p, q) == pytest.approx(closed, rel=1e-6)

    def test_rejects_exponents_below_one(self):
        f = white_field(7)
        with pytest.raises(ValueError):
            mixed_norm(f, 0.5, 2)


class TestFreeSolution:
    def gaussian_data(self):
        rng = np.random.default_rng(7)
        g = grid()
        coef = np.zeros(g.shape, complex)
        for a in range(-4, 5):
            for b in range(-4, 5):
                coef[a, b] = rng.standard_normal() + 1j * rng.standard_normal()
        return g, np.fft.ifft2(coef) * g.n**2

    def test_zero_data_returns_zero(self):
        g = grid()
        assert free_solution_norm_check(g, np.zeros(g.shape), 1.0, 0.6, 1.0) == 0.0

    def test_window_width_validated(self):
        g, u0 = self.gaussian_data()
        for bad in (0.0, -1.0, 3.0):
            with pytest.raises(ValueError):
                free_solution_field(g, u0, 64, TWIN, bad)

    def test_ratio_flat_at_critical_exponent(self):
        # At b = 1/2 the expected window-width exponent vanishes.
        # Frozen pilot slope: +0.031.
        g, u0 = self.gaussian_data()
        slope = free_solution_slope(g, u0, 1.0, 0.5, [0.5, 0.25, 0.125], nt=2048, t_window=16.0)
        assert abs(slope) < 0.1

    @pytest.mark.parametrize("b", [0.51, 0.6])
    def test_growth_rate_capped(self, b):
        # Frozen pilot slopes: +0.021 (b=0.51), -0.074 (b=0.6).
        g, u0 = self.gaussian_data()
        slope = free_solution_slope(g, u0, 1.0, b, [0.5, 0.25, 0.125], nt=2048, t_window=16.0)
        assert slope <= (1 - 2 * b) / 2 + 0.1


class TestEnsembles:
    def test_mode_dict_realizes_same_continuum_field(self):
        modes = white_mode_dict(4, 6, seed=11)
        coarse = realize_mode_field(grid(32), 64, TWIN, modes)
        fine = realize_mode_field(grid(64), 128, TWIN, modes)
        np.testing.assert_allclose(
            fine.values[::2, ::2, ::2], coarse.values, atol=1e-10 * np.max(np.abs(coarse.values))
        )

    def test_modes_must_fit_inside_grid(self):
        with pytest.raises(ValueError, match="fit"):
            realize_mode_field(grid(16), 32, TWIN, {(8, 0, 0): 1.0})
        with pytest.raises(ValueError, match="fit"):
            realize_mode_field(grid(16), 32, TWIN, {(0, 0, 16): 1.0})

    def test_paraboloid_dict_tracks_characteristic_surface(self):
        modes = paraboloid_mode_dict(3, 10, LENGTH, TWIN, seed=12)
        for (mx, my, mt) in modes:
            xi2 = (2 * np.pi / LENGTH) ** 2 * (mx**2 + my**2)
            assert abs(mt - xi2 * TWIN / (2 * np.pi)) <= 1.5

    def test_shell_dicts_separate_frequencies(self):
        high = shell_mode_dict(5, 4, seed=13, kind="high")
        low = shell_mode_dict(5, 4, seed=13, kind="low")
        assert all(max(abs(mx), abs(my)) >= 4 for (mx, my, _) in high)
        assert all(max(abs(mx), abs(my)) <= 1 for (mx, my, _) in low)
        with pytest.raises(ValueError):
            shell_mode_dict(5, 4, seed=13, kind="middle")

    def test_sample_trials_reproducible(self):
        a = sample_trials(grid(), 64, TWIN, arity=3, n_trials=6, seed=77, space_band=4, time_band=6)
        b = sample_trials(grid(), 64, TWIN, arity=3, n_trials=6, seed=77, space_band=4, time_band=6)
        assert [t.seed for t in a] == [t.seed for t in b]
        assert [t.flavor for t in a] == ["white", "paraboloid", "highlow"] * 2
        for ta, tb in zip(a, b):
            assert len(ta.fields) == 3
            for fa, fb in zip(ta.fields, tb.fields):
                np.testing.assert_array_equal(fa.values, fb.values)


class TestCubicRatios:
    def test_smallness_threshold_enforced(self):
        trials = sample_trials(grid(), 64, TWIN, 3, 3, seed=1, space_band=3, time_band=4)
        with pytest.raises(ValueError, match="5 eps"):
            ratio_test_cubic(trials, s=0.04, eps=0.01)

    def test_zero_member_contributes_zero(self):
        z = SpaceTimeField(grid=grid(), t_window=TWIN, values=np.zeros((32, 32, 64), complex))
        reports, _ = ratio_test_cubic([Trial(fields=(z, z, z), seed=0, flavor="white")], 1.0, 0.01)
        assert all(r.max_ratio == 0.0 for r in reports)

    def test_single_mode_closed_form(self):
        # Products of one-mode factors stay one spatial mode, so the ratio
        # reduces to explicit sums over the window's spectrum.
        m1, m2, m3 = (2, 1, 3), (-1, 2, -2), (0, -3, 1)
        a1, a2, a3 = 1.3 + 0.2j, 0.7 - 0.5j, -0.4 + 1.1j
        fields = tuple(
            realize_mode_field(grid(), 64, TWIN, {m: a})
            for m, a in ((m1, a1), (m2, a2), (m3, a3))
        )
        reports = {r.test_name: r for r in ratio_test_cubic(
            [Trial(fields=fields, seed=5, flavor="white")], s=1.0, eps=0.01)[0]}
        msum = tuple(m1[i] - m2[i] + m3[i] for i in range(3))
        f0 = fields[0]
        cut = window(f0)
        num = windowed_mode_norm(f0, cut**3, msum, a1 * np.conj(a2) * a3, s=1.0, b=-0.5 + 0.02)
        den = (
            windowed_mode_norm(f0, cut, m1, a1, 1.0, 0.51)
            * windowed_mode_norm(f0, cut, m2, a2, 1.0, 0.51)
            * windowed_mode_norm(f0, cut, m3, a3, 1.0, 0.51)
        )
        assert reports["cubic_conj2"].max_ratio == pytest.approx(num / den, rel=1e-10)

    def test_ratio_is_scale_invariant(self):
        trials = sample_trials(grid(), 64, TWIN, 3, 3, seed=21, space_band=4, time_band=6)
        base = {r.test_name: r.max_ratio for r in ratio_test_cubic(trials, 1.0, 0.01)[0]}
        rescaled = [
            Trial(fields=(scaled(t.fields[0], 3 - 4j), t.fields[1], scaled(t.fields[2], 0.1)),
                  seed=t.seed, flavor=t.flavor)
            for t in trials
        ]
        again = {r.test_name: r.max_ratio for r in ratio_test_cubic(rescaled, 1.0, 0.01)[0]}
        for name in base:
            assert again[name] == pytest.approx(base[name], rel=1e-11)

    def test_stable_under_grid_doubling(self):
        # The testable shadow of boundedness: the same continuum ensemble on
        # a doubled grid must reproduce the max ratios, far inside the 2x
        # stability budget (frozen pilot factor: 1.001).
        args = dict(arity=3, n_trials=6, seed=501, space_band=5, time_band=10)
        coarse, _ = ratio_test_cubic(sample_trials(grid(32), 64, TWIN, **args), 1.0, 0.01)
        fine, _ = ratio_test_cubic(sample_trials(grid(64), 128, TWIN, **args), 1.0, 0.01)
        for rc, rf in zip(coarse, fine):
            assert rc.test_name == rf.test_name
            assert rf.max_ratio < 2 * rc.max_ratio
            assert rc.max_ratio < 2 * rf.max_ratio


class TestQuinticRatios:
    def test_matches_stream_potential_square(self):
        # |grad beta|^2 u decomposes exactly into three gradient-potential
        # pairings; this ties the degree-five ratio integrand back to the
        # evolution's own nonlinearity.
        from msmlab.gauge import beta_hat

        g = grid()
        rng = np.random.default_rng(5)

        def bandlimited(seed):
            r = np.random.default_rng(seed)
            c = np.zeros(g.shape, complex)
            for a in range(-4, 5):
                for b in range(-4, 5):
                    c[a, b] = r.standard_normal() + 1j * r.standard_normal()
            return np.fft.ifft2(c) * g.n**2

        u1, u2, u = bandlimited(1), bandlimited(2), bandlimited(3)
        beta = g.irfft(beta_hat(g, u1, u2, sign=1.0))
        lhs = (g.dx(beta) ** 2 + g.dy(beta) ** 2) * u

        def pairing(a, b, c, d, e):
            g1 = grad_inverse_laplacian(g, a * np.conj(b))
            g2 = grad_inverse_laplacian(g, c * np.conj(d))
            return (g1[0] * g2[0] + g1[1] * g2[1]) * e

        rhs = 4 * (
            2 * pairing(u1, u2, u2, u1, u)
            - pairing(u1, u2, u1, u2, u)
            - pairing(u2, u1, u2, u1, u)
        )
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-12

    def test_stable_under_grid_doubling(self):
        args = dict(arity=5, n_trials=6, seed=502, space_band=3, time_band=6)
        (coarse,), _ = ratio_test_quintic(sample_trials(grid(32), 64, TWIN, **args), eps=0.01)
        (fine,), _ = ratio_test_quintic(sample_trials(grid(64), 128, TWIN, **args), eps=0.01)
        assert coarse.s == pytest.approx(1.0)
        assert fine.max_ratio < 2 * coarse.max_ratio
        assert coarse.max_ratio < 2 * fine.max_ratio
        assert coarse.ensemble_size == 6


class TestNullForm:
    def trials(self, n=32, nt=64, n_trials=6, seed=503):
        return sample_trials(grid(n), nt, TWIN, 4, n_trials, seed, space_band=5, time_band=10)

    def test_zero_dual_field_gives_zero(self):
        t = self.trials(n_trials=1)[0]
        w = t.fields[3]
        z = SpaceTimeField(grid=w.grid, t_window=w.t_window, values=np.zeros_like(w.values))
        trial = Trial(fields=t.fields[:3] + (z,), seed=0, flavor="white")
        (report,), _ = ratio_test_nullform([trial], 0.01)
        assert report.max_ratio == 0.0

    def test_equal_pair_kills_the_form(self):
        # u1 = u2 makes the stream source Im(u1 conj u1) vanish identically.
        t = self.trials(n_trials=1)[0]
        u1 = t.fields[0]
        trial = Trial(fields=(u1, u1, t.fields[2], t.fields[3]), seed=1, flavor="white")
        (report,), _ = ratio_test_nullform([trial], 0.01)
        assert report.max_ratio < 1e-15

    def test_integration_by_parts_is_boundary_free(self):
        _, extras = ratio_test_nullform(self.trials(), 0.01)
        assert extras["nullform_ibp_mismatch"] < 1e-9

    def test_stable_under_grid_doubling(self):
        (coarse,), _ = ratio_test_nullform(self.trials(32, 64), 0.01)
        (fine,), _ = ratio_test_nullform(self.trials(64, 128), 0.01)
        assert fine.max_ratio < 2 * coarse.max_ratio
        assert coarse.max_ratio < 2 * fine.max_ratio


class TestBilinearEmbedding:
    def trials(self, n_trials=6):
        return sample_trials(grid(), 64, TWIN, 2, n_trials, seed=504, space_band=5, time_band=10)

    def test_exponent_range_validated(self):
        with pytest.raises(ValueError):
            bilinear_embedding_test(self.trials(1), p=3.0, eps=0.01)

    def test_single_mode_diagonal_closed_form(self):
        mode, amp = (2, 1, 3), 1.5 + 0.5j
        f = realize_mode_field(grid(), 64, TWIN, {mode: amp})
        (_, _, diagonal), _ = bilinear_embedding_test(
            [Trial(fields=(f, f), seed=3, flavor="white")], 2.0, 0.01)
        # |u| is constant in space for one mode, so L^4_t L^4_x factorizes.
        l44 = abs(amp) * (LENGTH**2) ** 0.25 * (f.dt * np.sum(window(f) ** 4)) ** 0.25
        expect = l44 / xsb_norm(f, 0.0, 0.51, +1)
        assert diagonal.max_ratio == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_ratios_finite_and_reported(self, p):
        reports, _ = bilinear_embedding_test(self.trials(), p, 0.01)
        assert len(reports) == 3
        for rep in reports:
            assert rep.ensemble_size == 6
            assert 0 < rep.max_ratio < np.inf

    def test_sup_l2_bounded_by_exact_constant(self):
        # The time-frequency Cauchy-Schwarz reduction holds discretely with
        # a computable constant, no unquantified slack involved.
        _, extras = bilinear_embedding_test(self.trials(), 1.0, 0.01)
        assert extras["sup_l2_max_ratio"] <= extras["sup_l2_cap"] * (1 + 1e-9)
        # C^2 = max over xi of sum over tau of <tau - |xi|^2>^(-2b), over T, at b = 1/2 + eps.
        f = self.trials(1)[0].fields[0]
        gap = time_frequencies(f)[None, None, :] - f.grid.k2[:, :, None]
        cap = np.sqrt(np.max(np.sum((1.0 + gap**2) ** -0.51, axis=2)) / TWIN)
        assert extras["sup_l2_cap"] == pytest.approx(cap, rel=1e-12)


class TestMultiplierBounds:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MultiplierSpec(k=1, modulus=4, dim=1, m=np.zeros(4))
        with pytest.raises(ValueError):
            MultiplierSpec(k=2, modulus=1, dim=1, m=np.zeros(1))
        with pytest.raises(ValueError):
            MultiplierSpec(k=3, modulus=4, dim=1, m=np.zeros((4, 5)))
        bad = np.full((4, 4), np.nan)
        with pytest.raises(ValueError):
            MultiplierSpec(k=3, modulus=4, dim=1, m=bad)

    def test_enumeration_budget(self):
        with pytest.raises(TooLargeError):
            MultiplierSpec(k=3, modulus=1009, dim=1, m=np.zeros((1009, 1009)))

    def test_zero_multiplier(self):
        spec = MultiplierSpec(k=3, modulus=4, dim=1, m=np.zeros((4, 4)))
        assert multiplier_norm_bounds(spec) == (0.0, 0.0)

    def test_k2_brackets_are_exact(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            spec = MultiplierSpec(
                k=2, modulus=8, dim=1,
                m=rng.standard_normal(8) + 1j * rng.standard_normal(8),
            )
            lo, up = multiplier_norm_bounds(spec, restarts=50, seed=trial)
            exact = exact_norm_k2(spec)
            assert lo <= exact + 1e-12
            assert exact <= up + 1e-12
            assert up - lo < 1e-6

    def test_exact_norm_requires_k2(self):
        with pytest.raises(ValueError):
            exact_norm_k2(MultiplierSpec(k=3, modulus=4, dim=1, m=np.zeros((4, 4))))

    def test_constant_trilinear_multiplier(self):
        # m == 1 on the zero-sum plane of Z_8: constants saturate both the
        # alternating lower bound and the slice upper bound at sqrt(8).
        spec = MultiplierSpec(k=3, modulus=8, dim=1, m=np.ones((8, 8)))
        lo, up = multiplier_norm_bounds(spec, restarts=10, seed=0)
        assert lo == pytest.approx(np.sqrt(8), rel=1e-9)
        assert up == pytest.approx(np.sqrt(8), rel=1e-12)

    def test_indicator_pairs_respect_counting_bound(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            a = [int(x) for x in rng.choice(8, size=rng.integers(1, 6), replace=False)]
            b = [int(x) for x in rng.choice(8, size=rng.integers(1, 6), replace=False)]
            lo, up = multiplier_norm_bounds(
                indicator_pair_multiplier(8, a, b), restarts=50, seed=trial
            )
            cb = counting_bound(8, a, b)
            assert lo <= up + 1e-12
            assert up <= cb + 1e-12
            assert lo <= cb + 1e-9

    def test_counting_bound_by_hand(self):
        # On Z_4 with A = {0, 1}, B = {0, 3}: only xi = 0 collects two
        # representations, 0 + 0 and 1 + 3; every other sum is unique.
        assert counting_bound(4, [0, 1], [0, 3]) == pytest.approx(np.sqrt(2))
        assert counting_bound(4, [0, 1], [0, 2]) == 1.0
        assert counting_bound(8, [0], [0]) == 1.0

    def test_two_dimensional_group(self):
        rng = np.random.default_rng(2)
        spec = MultiplierSpec(
            k=3, modulus=3, dim=2,
            m=rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)),
        )
        lo, up = multiplier_norm_bounds(spec, restarts=30, seed=4)
        assert 0 < lo <= up

    def test_suite_matches_individual_runs(self):
        rng = np.random.default_rng(6)
        specs = [
            MultiplierSpec(k=3, modulus=8, dim=1,
                           m=rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
            for _ in range(3)
        ]
        serial = [multiplier_norm_bounds(sp, restarts=20, seed=1) for sp in specs]
        assert multiplier_suite(specs, restarts=20, seed=1) == serial


class TestCsvReport:
    def test_round_trip_and_determinism(self, tmp_path):
        reports = [
            RatioReport("cubic_conj2", 32, 64, 0.01, 1.0, 6, 1.234e-4, 98765),
            RatioReport("quintic", 32, 64, 0.01, 1.0, 6, 5.6e-8, 4242),
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ratio_csv(reports, str(p1))
        write_ratio_csv(reports, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["test_name", "grid", "nt", "eps", "s",
                           "ensemble_size", "max_ratio", "argmax_seed"]
        assert rows[1][0] == "cubic_conj2"
        assert float(rows[1][6]) == pytest.approx(1.234e-4)
        assert rows[2][7] == "4242"
        # One table format across the package: "\n" line ends, full floats.
        assert b"\r" not in p1.read_bytes()
        assert rows[1][3] == format_value(0.01)


def ifftn_realization(g, nt, t_window, modes):
    """Reference: scatter onto the full grid, one 3-D inverse transform, window."""
    n = g.n
    coef = np.zeros((n, n, nt), dtype=np.complex128)
    for (mx, my, mt), c in modes.items():
        coef[mx % n, my % n, (-mt) % nt] += c
    times = np.arange(nt) * (t_window / nt)
    cut = unit_window((times - t_window / 2) / (0.35 * t_window))
    return np.fft.ifftn(coef) * coef.size * cut


def edge_mode_dict(n, nt):
    """Modes on the last frequencies that still fit: |m| = n/2 - 1, |mt| = nt/2 - 1."""
    top, ttop = n // 2 - 1, nt // 2 - 1
    return {(top, -top, ttop): 1.0 - 0.5j, (-top, 0, -ttop): 0.3 + 2.0j,
            (0, top, 1): -1.2, (2, -1, -ttop): 0.7j}


def _record_fft_shapes(monkeypatch) -> list[tuple[str, tuple[int, ...]]]:
    """Patch numpy's multi-axis transforms to record the shape of every input."""
    shapes = []
    for name in ("fftn", "ifftn", "fft2", "ifft2"):
        original = getattr(np.fft, name)

        def recorded(a, *args, name=name, original=original, **kwargs):
            shapes.append((name, np.shape(a)))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)
    return shapes


class TestRealizationFromModeBox:
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("kind", ["white", "paraboloid", "high", "low", "edge"])
    def test_matches_full_transforms(self, n, kind):
        nt = 2 * n
        sb, tb = min(5, n // 2 - 1), min(10, nt // 2 - 1)
        modes = {
            "white": lambda: white_mode_dict(sb, tb, seed=n),
            "paraboloid": lambda: paraboloid_mode_dict(sb, tb, LENGTH, TWIN, seed=n),
            "high": lambda: shell_mode_dict(sb, tb, seed=n, kind="high"),
            "low": lambda: shell_mode_dict(sb, tb, seed=n, kind="low"),
            "edge": lambda: edge_mode_dict(n, nt),
        }[kind]()
        f = realize_mode_field(grid(n), nt, TWIN, modes)
        full = np.fft.fftn(f.values) / f.values.size
        assert np.max(np.abs(box_spectrum(f) - full)) <= 1e-13 * np.max(np.abs(full))
        old = ifftn_realization(grid(n), nt, TWIN, modes)
        assert np.max(np.abs(f.values - old)) <= 1e-13 * np.max(np.abs(old))

    def test_empty_dict_is_zero_field(self):
        f = realize_mode_field(grid(16), 32, TWIN, {})
        assert not np.any(f.values) and not np.any(box_spectrum(f))

    def test_cubic_transforms_only_its_products(self, monkeypatch):
        # Three products per trial go through fftn; realized factors know
        # their spectra and need no 3-D transform at all.
        trials = sample_trials(grid(16), 32, TWIN, 3, 3, seed=1, space_band=3, time_band=4)
        shapes = _record_fft_shapes(monkeypatch)
        ratio_test_cubic(trials, s=1.0, eps=0.01)
        assert sum(name in ("fftn", "ifftn") for name, _ in shapes) == 3 * 3


def small_trials(arity, n_trials=4, seed=40):
    return sample_trials(grid(16), 32, TWIN, arity, n_trials, seed, space_band=3, time_band=6)


# Each suite's arity, its run, and the names of its reports and of its extras.
SUITES = {
    "cubic": (3, lambda t: ratio_test_cubic(t, 1.0, 0.01),
              ("cubic_conj2", "cubic_conj23", "cubic_plain"), ()),
    "quintic": (5, lambda t: ratio_test_quintic(t, 0.01), ("quintic",), ()),
    "nullform": (4, lambda t: ratio_test_nullform(t, 0.01),
                 ("nullform",), ("nullform_ibp_mismatch",)),
    "bilinear": (2, lambda t: bilinear_embedding_test(t, 1.0, 0.01),
                 ("bilinear_uv_p1", "bilinear_uconjv_p1", "bilinear_diag_p1"),
                 ("sup_l2_max_ratio", "sup_l2_cap")),
}


@pytest.mark.parametrize("n_trials", [0, 3])
@pytest.mark.parametrize("suite", list(SUITES))
def test_every_suite_returns_its_reports_and_named_extras(suite, n_trials):
    arity, run, names, extras = SUITES[suite]
    out = run(small_trials(arity, n_trials))
    assert isinstance(out, tuple) and len(out) == 2
    reports, quantities = out
    assert isinstance(reports, list) and all(isinstance(r, RatioReport) for r in reports)
    assert [r.test_name for r in reports] == list(names)
    assert all(r.ensemble_size == n_trials == len(r.ratios) for r in reports)
    assert isinstance(quantities, dict) and tuple(quantities) == extras
    assert all(isinstance(v, float) and np.isfinite(v) for v in quantities.values())
    if not n_trials:
        assert all(r.max_ratio == 0.0 for r in reports) and not any(quantities.values())


@pytest.mark.parametrize("run,length,arity", [
    (lambda t: ratio_test_cubic(t, 100.0, 0.01), 4.0, 3),
    (lambda t: ratio_test_quintic(t, 0.2), 0.01, 5),
    (lambda t: ratio_test_nullform(t, 0.24), 0.001, 4),
], ids=["cubic", "quintic", "nullform"])
def test_overflowing_norms_refused_before_the_first_trial(monkeypatch, run, length, arity):
    # Each factor norm is finite, but their product overflows to inf, which
    # would write a ratio of 0; no trial may be realized before the refusal.
    import msmlab.xsb as xsb

    monkeypatch.setattr(xsb, "realize_mode_field", lambda *a: pytest.fail("trial realized"))
    trials = sample_trials(Grid2D(n=16, length=length), 32, TWIN, arity, 2, 0, 5, 10)
    with pytest.raises(ValueError, match="overflow"):
        run(trials)


class TestLazyTrials:
    def test_indexing_realizes_fresh_equal_trials(self):
        trials = small_trials(2)
        assert isinstance(trials, TrialEnsemble) and len(trials) == 4
        first, again, last = trials[0], trials[0], trials[-1]
        assert first is not again and first.fields[0] is not again.fields[0]
        np.testing.assert_array_equal(first.fields[1].values, again.fields[1].values)
        assert last.seed == trials.seeds[3] and last.flavor == "white"
        with pytest.raises(IndexError):
            trials[4]

    def test_band_must_fit_inside_grid(self):
        with pytest.raises(ValueError, match="fit"):
            sample_trials(grid(16), 32, TWIN, 2, 3, seed=0, space_band=8, time_band=4)
        with pytest.raises(ValueError, match="fit"):
            sample_trials(grid(16), 32, TWIN, 2, 3, seed=0, space_band=3, time_band=16)

    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize("suite", list(SUITES))
    def test_lazy_and_eager_reports_agree(self, suite, passes):
        # A lazy ensemble realizes its trials afresh on every pass, so a second
        # report over the same ensemble must equal the first and the eager one.
        arity, run, _, _ = SUITES[suite]
        trials = small_trials(arity)
        eager = run(list(trials))
        for _ in range(passes):
            assert run(trials) == eager

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_each_factor_realized_once(self, suite, monkeypatch):
        import msmlab.xsb as xsb

        arity, run, _, _ = SUITES[suite]
        calls = [0]
        original = xsb.realize_mode_field

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(xsb, "realize_mode_field", counted)
        run(small_trials(arity))
        assert calls[0] == 4 * arity


def serial_lower_bound(spec, neg_idx, restarts, seed, sweeps=400):
    """The restart-by-restart loop the batched bound replaced, kept as a reference."""
    size = spec.group_size
    rng = np.random.default_rng(seed)
    axes_all = tuple(range(spec.k - 1))
    best = 0.0
    peak = np.unravel_index(int(np.argmax(np.abs(spec.m))), spec.m.shape)
    for attempt in range(restarts):
        if attempt == 0:
            fs = []
            for j in range(spec.k - 1):
                f = np.zeros(size, dtype=np.complex128)
                f[peak[j]] = 1.0
                fs.append(f)
            f = np.zeros(size, dtype=np.complex128)
            f[neg_idx[peak]] = 1.0
            fs.append(f)
        else:
            fs = []
            for _ in range(spec.k):
                f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                fs.append(f / np.linalg.norm(f))
        value = 0.0
        for _ in range(sweeps):
            previous = value
            for j in range(spec.k):
                if j < spec.k - 1:
                    weighted = spec.m * fs[spec.k - 1][neg_idx]
                    for i in range(spec.k - 1):
                        if i == j:
                            continue
                        idx = [None] * (spec.k - 1)
                        idx[i] = slice(None)
                        weighted = weighted * fs[i][tuple(idx)]
                    axes = tuple(a for a in axes_all if a != j)
                    g = np.sum(weighted, axis=axes)
                else:
                    weighted = spec.m.copy()
                    for i in range(spec.k - 1):
                        idx = [None] * (spec.k - 1)
                        idx[i] = slice(None)
                        weighted = weighted * fs[i][tuple(idx)]
                    g = np.bincount(
                        neg_idx.ravel(), weights=np.real(weighted).ravel(), minlength=size
                    ) + 1j * np.bincount(
                        neg_idx.ravel(), weights=np.imag(weighted).ravel(), minlength=size
                    )
                norm = np.linalg.norm(g)
                if norm == 0.0:
                    value = 0.0
                    break
                fs[j] = np.conj(g) / norm
                value = float(norm)
            if value == 0.0 or abs(value - previous) <= 1e-12 * max(value, 1.0):
                break
        best = max(best, value)
    return best


class TestBatchedLowerBound:
    @staticmethod
    def random_spec(k, modulus, dim, seed):
        rng = np.random.default_rng(seed)
        shape = (modulus**dim,) * (k - 1)
        return MultiplierSpec(k=k, modulus=modulus, dim=dim,
                              m=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    @pytest.mark.parametrize("k,modulus,dim", [(2, 8, 1), (3, 8, 1), (3, 3, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_serial_restarts(self, k, modulus, dim, seed):
        from msmlab.xsb import _alternating_lower_bound, _negated_sum_index

        specs = [self.random_spec(k, modulus, dim, 100 + seed)]
        if (k, dim) == (3, 1):
            specs.append(indicator_pair_multiplier(8, [0, 1, 5], [2, 3]))
        for spec in specs:
            neg_idx = _negated_sum_index(spec)
            for restarts, sweeps in ((1, 400), (20, 400), (20, 2)):
                batched = _alternating_lower_bound(spec, neg_idx, restarts, seed, sweeps)
                serial = serial_lower_bound(spec, neg_idx, restarts, seed, sweeps)
                assert batched == pytest.approx(serial, rel=1e-12)

    def test_zero_functional_stops_every_restart(self):
        from msmlab.xsb import _alternating_lower_bound, _negated_sum_index

        spec = MultiplierSpec(k=3, modulus=4, dim=1, m=np.zeros((4, 4)))
        neg_idx = _negated_sum_index(spec)
        assert _alternating_lower_bound(spec, neg_idx, 5, 0) == 0.0
        assert serial_lower_bound(spec, neg_idx, 5, 0) == 0.0


def brute_negated_sum_index(k, modulus, dim):
    """Point by point: the mixed-radix index of minus the digit sums of k - 1 group elements."""
    size = modulus**dim
    out = np.empty((size,) * (k - 1), dtype=np.int64)
    for point in np.ndindex(out.shape):
        index = 0
        for place in range(dim - 1, -1, -1):  # most significant digit first
            digit_sum = sum(xi // modulus**place % modulus for xi in point)
            index = index * modulus + (-digit_sum) % modulus
        out[point] = index
    return out


@pytest.mark.parametrize("k,modulus,dim", [
    (k, modulus, dim) for k in (2, 3, 4) for modulus in (2, 3, 5, 8) for dim in (1, 2)
    if modulus ** (dim * (k - 1)) <= 2 * 10**5
])
def test_negated_sum_index_matches_brute_force(k, modulus, dim):
    from msmlab.xsb import _negated_sum_index

    size = modulus**dim
    spec = MultiplierSpec(k=k, modulus=modulus, dim=dim, m=np.zeros((size,) * (k - 1)))
    assert np.array_equal(_negated_sum_index(spec), brute_negated_sum_index(k, modulus, dim))


def scalar_coef(rng):
    return complex(rng.standard_normal(), rng.standard_normal())


def scalar_white(space_band, time_band, seed):
    """One draw per coefficient: the loop the vectorised dicts replaced, kept as a reference."""
    rng = np.random.default_rng(seed)
    out = {}
    for mx in range(-space_band, space_band + 1):
        for my in range(-space_band, space_band + 1):
            for mt in range(-time_band, time_band + 1):
                out[(mx, my, mt)] = scalar_coef(rng)
    return out


def scalar_paraboloid(space_band, time_band, length, t_window, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for mx in range(-space_band, space_band + 1):
        for my in range(-space_band, space_band + 1):
            xi2 = (2 * np.pi / length) ** 2 * (mx**2 + my**2)
            center = int(round(xi2 * t_window / (2 * np.pi)))
            for mt in range(center - 1, center + 2):
                key = (mx, my, min(max(mt, -time_band), time_band))
                out[key] = out.get(key, 0.0) + scalar_coef(rng)
    return out


def scalar_shell(space_band, time_band, seed, kind):
    low, high = max(1, space_band // 4), max(1, int(np.ceil(0.7 * space_band)))
    rng = np.random.default_rng(seed)
    out = {}
    for mx in range(-space_band, space_band + 1):
        for my in range(-space_band, space_band + 1):
            m = max(abs(mx), abs(my))
            if (m >= high) if kind == "high" else (m <= low):
                for mt in range(-time_band, time_band + 1):
                    out[(mx, my, mt)] = scalar_coef(rng)
    return out


class TestVectorisedDraws:
    @pytest.mark.parametrize("seed", [0, 17, 2**40 + 3])
    @pytest.mark.parametrize("sb,tb", [(5, 10), (3, 2), (1, 6)])
    def test_dicts_match_scalar_draws(self, seed, sb, tb):
        # Equal keys in equal order with bit-equal values: the clamped
        # paraboloid keys (tb=2 clamps most of them) accumulate in order.
        cases = [
            (white_mode_dict(sb, tb, seed), scalar_white(sb, tb, seed)),
            (paraboloid_mode_dict(sb, tb, LENGTH, TWIN, seed),
             scalar_paraboloid(sb, tb, LENGTH, TWIN, seed)),
            (shell_mode_dict(sb, tb, seed, "high"), scalar_shell(sb, tb, seed, "high")),
            (shell_mode_dict(sb, tb, seed, "low"), scalar_shell(sb, tb, seed, "low")),
        ]
        for vectorised, scalar in cases:
            assert list(vectorised.items()) == list(scalar.items())
            assert all(type(k[0]) is int and type(v) is complex for k, v in vectorised.items())


def banded_trials(arity, n, n_trials=3, seed=61):
    """Trials whose coarse grid lies below n: band 2 at n=32, band 5 at n=64.

    At n=16 the band is 5 too, and the quintic's pair sources and product
    alias there: every step stays on n.
    """
    band = 2 if n == 32 else 5
    return list(sample_trials(grid(n), 64, TWIN, arity, n_trials, seed,
                              space_band=band, time_band=10))


def unbanded(trial):
    """The trial's fields with band and box forgotten: the n-grid path."""
    fields = tuple(SpaceTimeField(grid=f.grid, t_window=f.t_window, values=f.values)
                   for f in trial.fields)
    return Trial(fields=fields, seed=trial.seed, flavor=trial.flavor)


def n_grid_cubic(trial, s, eps):
    """Cubic ratios with every product formed and transformed on the fields' grid."""
    u = unbanded(trial).fields
    den = np.prod([xsb_norm(f, s, 0.5 + eps, +1) for f in u])
    out = {}
    for name, (c1, c2, c3) in {"cubic_conj2": (False, True, False),
                               "cubic_conj23": (False, True, True),
                               "cubic_plain": (False, False, False)}.items():
        vals = (u[0].values * (np.conj(u[1].values) if c2 else u[1].values)
                * (np.conj(u[2].values) if c3 else u[2].values))
        prod = SpaceTimeField(grid=u[0].grid, t_window=TWIN, values=vals)
        out[name] = xsb_norm(prod, s, -0.5 + 2 * eps, +1) / den
    return out


def n_grid_quintic(trial, eps):
    u = unbanded(trial).fields
    g = u[0].grid
    s = 100 * eps
    den = np.prod([xsb_norm(f, s, 0.5 + eps, +1) for f in u])
    g1 = grad_inverse_laplacian(g, u[0].values * np.conj(u[1].values))
    g2 = grad_inverse_laplacian(g, u[2].values * np.conj(u[3].values))
    vals = (g1[0] * g2[0] + g1[1] * g2[1]) * u[4].values
    prod = SpaceTimeField(grid=g, t_window=TWIN, values=vals)
    return xsb_norm(prod, s, -0.5 + 2 * eps, +1) / den


def n_grid_nullform(trial, eps):
    from msmlab.gauge import beta_hat

    u1, u2, u3, w = unbanded(trial).fields
    g = u1.grid
    s = 100 * eps
    beta = g.irfft(beta_hat(g, u1.values, u2.values, 1.0))
    direct = g.spacing**2 * u1.dt * np.sum(
        w.values * (g.dx(beta) * g.dy(u3.values) - g.dy(beta) * g.dx(u3.values)))
    den = (xsb_norm(u1, s, 0.5 + eps, +1) * xsb_norm(u2, s, 0.5 + eps, +1)
           * xsb_norm(u3, s, 0.5 + eps, +1) * xsb_norm(w, -s, 0.5 - 2 * eps, -1))
    return abs(direct) / den


class TestSmallestUnaliasedGrid:
    @pytest.mark.parametrize("n", [32, 64])
    def test_cubic_matches_n_grid_products(self, n):
        trials = banded_trials(3, n)
        reports = {r.test_name: r for r in ratio_test_cubic(trials, 1.0, 0.01)[0]}
        for i, trial in enumerate(trials):
            for name, expect in n_grid_cubic(trial, 1.0, 0.01).items():
                assert reports[name].ratios[i] == pytest.approx(expect, rel=1e-12)
        assert all(r.grid_n == n for r in reports.values())

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_quintic_matches_n_grid_potentials(self, n):
        trials = banded_trials(5, n)
        (report,), _ = ratio_test_quintic(trials, 0.01)
        assert report.grid_n == n
        for i, trial in enumerate(trials):
            assert report.ratios[i] == pytest.approx(n_grid_quintic(trial, 0.01), rel=1e-12)

    @pytest.mark.parametrize("n", [32, 64])
    def test_nullform_matches_n_grid_pairing(self, n):
        trials = banded_trials(4, n)
        (report,), extras = ratio_test_nullform(trials, 0.01)
        assert report.grid_n == n
        assert extras["nullform_ibp_mismatch"] < 1e-12
        for i, trial in enumerate(trials):
            assert report.ratios[i] == pytest.approx(n_grid_nullform(trial, 0.01), rel=1e-12)

    @pytest.mark.parametrize("s,b,sign", [(1.0, 0.51, +1), (-1.0, 0.48, -1), (0.0, 0.0, +1)])
    def test_box_norm_is_grid_free_and_matches_full_spectrum(self, s, b, sign):
        modes = white_mode_dict(5, 10, seed=62)
        coarse = realize_mode_field(grid(32), 64, TWIN, modes)
        fine = realize_mode_field(grid(64), 64, TWIN, modes)
        assert xsb_norm(fine, s, b, sign) == pytest.approx(xsb_norm(coarse, s, b, sign), rel=1e-13)
        full = unbanded(Trial(fields=(fine,), seed=0, flavor="white")).fields[0]
        assert xsb_norm(full, s, b, sign) == pytest.approx(xsb_norm(fine, s, b, sign), rel=1e-12)

    def test_cubic_products_transform_on_the_coarse_grid(self, monkeypatch):
        # Band-5 factors at n=64: the band-15 products fit a 32^2 grid.
        trials = banded_trials(3, 64, n_trials=1)
        shapes = _record_fft_shapes(monkeypatch)
        ratio_test_cubic(trials, 1.0, 0.01)
        assert shapes == [("fftn", (32, 32, 64))] * 3

    @pytest.mark.parametrize("suite", ["cubic", "quintic", "nullform"])
    def test_unknown_band_keeps_the_n_grid(self, suite, monkeypatch):
        arity, run, _, _ = SUITES[suite]
        trials = [unbanded(t) for t in banded_trials(arity, 64, n_trials=1)]
        shapes = _record_fft_shapes(monkeypatch)
        run(trials)
        assert shapes and all(shape[:2] == (64, 64) for _, shape in shapes)

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_no_suite_builds_a_realized_full_spectrum(self, suite, monkeypatch):
        import msmlab.xsb as xsb

        arity, run, _, _ = SUITES[suite]
        realized = []
        original = xsb.realize_mode_field

        def kept(*args, **kwargs):
            realized.append(original(*args, **kwargs))
            return realized[-1]

        monkeypatch.setattr(xsb, "realize_mode_field", kept)
        shapes = _record_fft_shapes(monkeypatch)
        reads = _record_values_reads(monkeypatch)
        run(sample_trials(grid(64), 64, TWIN, arity, 3, seed=63, space_band=5, time_band=10))
        assert len(realized) == 3 * arity
        # No suite holds all n x n x nt samples of a band-limited field: none
        # reads its values on n, and every transform on n takes one time block.
        assert 64 not in reads
        on_n = [(name, shape[2]) for name, shape in shapes if shape[:2] == (64, 64)]
        assert all(name == "fft2" and slices < 64 for name, slices in on_n)
        assert bool(on_n) == (suite == "quintic")

    def test_band_and_box_derived_from_the_columns(self):
        f = white_field(8, sb=3)
        assert f.band == 3 and f.columns.shape == (7, 7, 64)
        # One transform of the columns along t is the box of the field's spectrum.
        full = np.fft.fftn(f.values) / f.values.size
        idx = np.ix_(*[np.arange(-3, 4) % 32] * 2)
        np.testing.assert_allclose(np.fft.fft(f.columns, axis=2) / 64, full[idx],
                                   rtol=0, atol=1e-13 * np.max(np.abs(full)))
        assert SpaceTimeField(grid=f.grid, t_window=TWIN, values=f.values).band is None

    @pytest.mark.parametrize("shape,band", [
        ((7, 7, 64), 3), ((1, 1, 64), 0), ((31, 31, 64), 15),
        ((6, 6, 64), None), ((7, 5, 64), None), ((33, 33, 64), None), ((7, 7), None),
    ], ids=["band-3", "band-0", "band-15", "even-side", "not-square", "side-above-n", "no-time"])
    def test_band_read_from_an_odd_side_below_n(self, shape, band):
        # On n = 32 a side 2B + 1 needs 2B < 32: band 15 is the widest.
        columns = np.zeros(shape, complex)
        if band is None:
            with pytest.raises(ValueError, match="columns"):
                SpaceTimeField(grid=grid(32), t_window=TWIN, columns=columns)
        else:
            assert SpaceTimeField(grid=grid(32), t_window=TWIN, columns=columns).band == band

    def test_exactly_one_of_values_and_columns(self):
        f = white_field(8, sb=3)
        for kwargs in ({"values": f.values, "columns": f.columns}, {}):
            with pytest.raises(ValueError, match="exactly one"):
                SpaceTimeField(grid=f.grid, t_window=TWIN, **kwargs)

    def test_scaled_and_conjugate_keep_the_band(self):
        f = white_field(9, sb=3)
        g, c = scaled(f, 2 - 1j), f.conjugate()
        assert g.band == 3 and c.band == 3 and c.columns is not None
        np.testing.assert_allclose(g.values, (2 - 1j) * f.values,
                                   atol=1e-13 * np.max(np.abs(f.values)))
        np.testing.assert_allclose(c.values, np.conj(f.values),
                                   atol=1e-13 * np.max(np.abs(f.values)))
        np.testing.assert_allclose(box_spectrum(g), np.fft.fftn(g.values) / g.values.size,
                                   atol=1e-13 * np.max(np.abs(box_spectrum(g))))


def _record_values_reads(monkeypatch) -> list[int]:
    """Record the grid size at every read of a band-limited field's values."""
    import msmlab.xsb as xsb

    reads = []

    class Recorded:
        def __get__(self, f, owner=None):
            reads.append(f.grid.n)
            return xsb._synthesize(f.columns, f.grid.n)

    # A field of samples keeps its values on the instance, which shadows this.
    monkeypatch.setattr(SpaceTimeField, "values", Recorded())
    return reads


def _count_syntheses(monkeypatch) -> list[tuple[int, int, int]]:
    """Patch the box synthesis to record (modes a side, grid points a side, time slices)."""
    import msmlab.xsb as xsb

    calls = []
    original = xsb._synthesize

    def recorded(columns, m):
        calls.append((columns.shape[0], m, columns.shape[2]))
        return original(columns, m)

    monkeypatch.setattr(xsb, "_synthesize", recorded)
    return calls


class TestSynthesisFromTheBox:
    def test_values_synthesized_once_on_first_read(self, monkeypatch):
        calls = _count_syntheses(monkeypatch)
        f = white_field(70, sb=3)
        assert f.nt == 64 and box_spectrum(f).shape == (32, 32, 64)
        xsb_norm(f, 1.0, 0.51)
        assert calls == [] and "values" not in f.__dict__
        first = f.values
        assert f.values is first and calls == [(7, 32, 64)]

    @pytest.mark.parametrize("case", ["seam", "nan", "inf"])
    def test_realized_field_rejected_before_any_synthesis(self, case, monkeypatch):
        import msmlab.xsb as xsb

        calls = _count_syntheses(monkeypatch)
        modes = white_mode_dict(3, 6, seed=71)
        if case == "seam":
            monkeypatch.setattr(xsb, "DELTA_FRAC", 0.6)
        else:
            modes[(1, -2, 3)] = complex(np.nan if case == "nan" else np.inf, 1.0)
        with pytest.raises(ValueError, match="time boundary" if case == "seam" else "finite"):
            realize_mode_field(grid(32), 64, TWIN, modes)
        if case != "seam":
            f = white_field(71)
            columns = f.columns.copy()
            columns[1, 2, 3] = modes[(1, -2, 3)]
            with pytest.raises(ValueError, match="non-finite"):
                SpaceTimeField(grid=f.grid, t_window=TWIN, columns=columns)
        assert calls == []

    def test_band_at_half_the_grid_rejected_before_any_synthesis(self, monkeypatch):
        calls = _count_syntheses(monkeypatch)
        with pytest.raises(ValueError, match="columns"):
            SpaceTimeField(grid=grid(16), t_window=TWIN, columns=np.zeros((17, 17, 32), complex))
        with pytest.raises(ValueError, match="fit"):
            realize_mode_field(grid(16), 32, TWIN, {(8, 1, 0): 1.0})
        with pytest.raises(ValueError, match="values or its columns"):
            SpaceTimeField(grid=grid(16), t_window=TWIN, values=None)
        assert calls == []

    def test_seam_check_on_the_box_is_no_weaker(self, monkeypatch):
        import msmlab.xsb as xsb

        # Any field the box check accepts also passes the check on its values.
        for seed, delta_frac in [(73, 0.35), (74, 0.45), (75, 0.49)]:
            monkeypatch.setattr(xsb, "DELTA_FRAC", delta_frac)
            f = realize_mode_field(grid(32), 64, TWIN, white_mode_dict(4, 8, seed))
            top = np.max(np.abs(f.values))
            edge = max(np.max(np.abs(f.values[:, :, 0])), np.max(np.abs(f.values[:, :, -1])))
            assert edge <= 1e-8 * top

    @pytest.mark.parametrize("n", [32, 64])
    def test_coarse_synthesis_matches_every_step_th_sample(self, n):
        trials = banded_trials(1, n)
        assert [t.flavor for t in trials] == list(FLAVORS)
        for trial in trials:
            fine = trial.fields[0]
            full = fine.values  # read first: the coarse field must not keep it
            (coarse,) = _unaliased(trial.fields, lambda bands: 0)
            step = n // coarse.grid.n
            # The coarse field is built from the fine field's columns, not a copy of them.
            assert step > 1 and coarse.columns is fine.columns and coarse.band == fine.band
            assert coarse.t_window == fine.t_window and coarse.grid.length == fine.grid.length
            expect = full[::step, ::step]
            assert np.max(np.abs(coarse.values - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_a_realized_factor_costs_one_time_transform_each_way(self, monkeypatch):
        import msmlab.xsb as xsb

        calls = []
        for name in ("fft", "ifft", "fftn", "fft2"):
            original = getattr(np.fft, name)

            def recorded(a, *args, name=name, original=original, **kwargs):
                calls.append((name, a, kwargs.get("axis")))
                return original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recorded)
        f = white_field(72, sb=3)
        assert [(name, a.shape, axis) for name, a, axis in calls] == [("ifft", (7, 7, 64), 2)]
        # Its norm transforms blocks of 2 rows of its columns along t, each
        # row once, and nothing else.
        monkeypatch.setattr(xsb, "_BLOCK_POINTS", 2 * 7 * 64)
        del calls[:]
        xsb_norm(f, 1.0, 0.51)
        assert [(name, a.shape, axis) for name, a, axis in calls] == [
            ("fft", (rows, 7, 64), 2) for rows in (2, 2, 2, 1)]
        rows = np.concatenate([a for _, a, _ in calls])
        assert all(np.shares_memory(a, f.columns) for _, a, _ in calls)
        assert np.array_equal(rows, f.columns)
        (coarse,) = _unaliased([f], lambda bands: 0)
        assert coarse.grid.n == 8 and len(calls) == 4

    def test_quintic_transforms_each_fine_grid_slice_once(self, monkeypatch):
        # Band-5 factors at n=64: the band-10 pair sources go through fft2 on
        # 32^2, the potentials' gradients are synthesized, and the band-25
        # product goes through fft2 on 64^2 one time block at a time; its
        # blocks cover the nt = 64 slices of each trial once.  No fftn runs.
        trials = banded_trials(5, 64, n_trials=2)
        shapes = _record_fft_shapes(monkeypatch)
        ratio_test_quintic(trials, 0.01)
        assert {name for name, _ in shapes} == {"fft2"}
        slices = {m: sum(shape[2] for _, shape in shapes if shape[0] == m) for m in (32, 64)}
        assert slices == {32: 2 * 64 * len(trials), 64: 64 * len(trials)}
        assert all(shape[2] < 64 for _, shape in shapes if shape[0] == 64)

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_only_bilinear_and_the_fifth_quintic_factor_synthesize_on_n(self, suite, monkeypatch):
        # Counted in time slices: a field synthesized on n one block at a
        # time counts nt = 64 slices each pass.  The bilinear suite passes
        # over u and v once; its L^2-in-space norms of u read the columns.
        arity, run, _, _ = SUITES[suite]
        trials = banded_trials(arity, 64, n_trials=2)
        calls = _count_syntheses(monkeypatch)
        run(trials)
        assert all(slices < 64 for _, m, slices in calls if m == 64)
        on_n = Counter()
        for modes, m, slices in calls:
            if m == 64:
                on_n[modes] += slices
        # The band-5 factors have 11 modes a side; the potentials' gradients, band 10, 21.
        expected = {"cubic": {}, "nullform": {}, "quintic": {11: 1, 21: 4},
                    "bilinear": {11: 2}}[suite]
        assert on_n == {modes: passes * 64 * len(trials) for modes, passes in expected.items()}

    @pytest.mark.parametrize("n", [32, 64])
    def test_suites_match_the_n_grid_relatively(self, n):
        # pytest.approx always adds an absolute 1e-12, loose for ratios of
        # 1e-11 to 1e-4; compare relative to rounding only.
        trials = banded_trials(3, n)
        reports = {r.test_name: r for r in ratio_test_cubic(trials, 1.0, 0.01)[0]}
        for i, trial in enumerate(trials):
            for name, expect in n_grid_cubic(trial, 1.0, 0.01).items():
                assert reports[name].ratios[i] == pytest.approx(expect, rel=1e-12, abs=0)
        trials = banded_trials(5, n)
        for trial, ratio in zip(trials, ratio_test_quintic(trials, 0.01)[0][0].ratios):
            assert ratio == pytest.approx(n_grid_quintic(trial, 0.01), rel=1e-12, abs=0)
        trials = banded_trials(4, n)
        for trial, ratio in zip(trials, ratio_test_nullform(trials, 0.01)[0][0].ratios):
            assert ratio == pytest.approx(n_grid_nullform(trial, 0.01), rel=1e-12, abs=0)


class TestStreamedSuites:
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("s", [1.3, -0.7])
    def test_box_weight_is_the_sliced_full_weight(self, s, sign):
        from msmlab.xsb import _box_index, _weight_sq

        g, nt, b = grid(32), 64, 0.51
        index, table = _weight_sq(g, nt, TWIN, s, b, sign, None)
        assert index.dtype == np.int32 and index.shape == g.shape
        assert not index.flags.writeable and not table.flags.writeable
        full = table[index]
        # The formula evaluated cell by cell, from the grid's wavenumbers.
        k1 = 2 * np.pi * np.fft.fftfreq(g.n, d=LENGTH / g.n)
        taus = -2 * np.pi * np.fft.fftfreq(nt, d=TWIN / nt)
        cells = np.empty(g.shape + (nt,))
        for i, j in np.ndindex(g.shape):
            cells[i, j] = cell_weight_sq(k1[i] ** 2 + k1[j] ** 2, taus, s, b, sign)
        np.testing.assert_array_max_ulp(full, cells, maxulp=2)
        for band in (0, 5, 15):
            idx = np.ix_(*[_box_index(band, g.n)] * 2)
            box_index, box_table = _weight_sq(g, nt, TWIN, s, b, sign, band)
            assert box_index.shape == (2 * band + 1, 2 * band + 1)
            # One row per distinct |k|^2 of the box.
            assert box_table.shape == (np.unique(g.k2[idx]).size, nt)
            assert np.array_equal(box_table[box_index], full[idx])
            # The unpaired time-Nyquist plane takes one distance for both signs.
            mirror_index, mirror_table = _weight_sq(g, nt, TWIN, s, b, -sign, band)
            assert np.array_equal(box_table[box_index][:, :, nt // 2],
                                  mirror_table[mirror_index][:, :, nt // 2])
        # A band-25 box holds 2601 modes and 294 values of mx^2 + my^2, which
        # rounding splits into 311 floats |k|^2: one table row each, so every
        # row is the weight of its modes bit for bit.
        m = np.arange(-25, 26)
        assert np.unique(m[:, None] ** 2 + m**2).size == 294
        index, table = _weight_sq(grid(64), 128, TWIN, s, b, sign, 25)
        assert index.shape == (51, 51) and table.shape == (311, 128)

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("kind", ["columns", "samples"])
    def test_norm_is_the_weighted_sum_of_the_time_spectrum(self, kind, sign, monkeypatch):
        import msmlab.xsb as xsb

        f = white_field(81, sb=4)
        s, b = 1.3, (0.51 if sign > 0 else -0.49)
        taus = -2 * np.pi * np.fft.fftfreq(f.nt, d=TWIN / f.nt)
        k1 = 2 * np.pi * np.fft.fftfreq(f.grid.n, d=LENGTH / f.grid.n)
        if kind == "columns":
            coef = np.fft.fft(f.columns, axis=2) / f.nt
            k1 = k1[np.arange(-4, 5) % f.grid.n]
        else:
            f = SpaceTimeField(grid=f.grid, t_window=TWIN, values=f.values)
            coef = np.fft.fftn(f.values) / f.values.size
        weight = np.array([[cell_weight_sq(kx**2 + ky**2, taus, s, b, sign) for ky in k1]
                           for kx in k1])
        expect = np.sqrt(LENGTH**2 * TWIN * np.sum(np.abs(coef) ** 2 * weight))
        assert xsb_norm(f, s, b, sign) == pytest.approx(expect, rel=1e-14, abs=0)
        # Row blocks of uneven size give the same sum.
        monkeypatch.setattr(xsb, "_BLOCK_POINTS", 1200)
        assert xsb_norm(f, s, b, sign) == pytest.approx(expect, rel=1e-14, abs=0)

    def test_a_band_25_norm_holds_below_its_columns(self):
        # Holding the whole box of coefficients and a box-shaped weight
        # peaked at about twice the columns; the streamed sum holds one block
        # of rows and a table of one weight row per distinct |k|^2.
        import msmlab.xsb as xsb

        f = realize_mode_field(grid(64), 128, TWIN, white_mode_dict(25, 4, seed=82))
        assert f.columns.shape == (51, 51, 128)
        xsb._weight_sq.cache_clear()
        assert traced_peak(lambda: xsb_norm(f, 1.0, -0.48)) < 0.75 * f.columns.nbytes

    @pytest.mark.parametrize("suite,limit_mib", [("quintic", 15), ("bilinear", 18)])
    def test_one_band_5_trial_stays_below_its_memory_peak(self, suite, limit_mib):
        # At n=64, nt=128 one complex sample box is 8 MiB; holding the
        # quintic's gradients or the bilinear products whole peaked near 55
        # and 37 MiB.  The weights are built inside the traced span.
        import msmlab.xsb as xsb

        arity, run, _, _ = SUITES[suite]
        trial = sample_trials(grid(64), 128, TWIN, arity, 1, seed=64, space_band=5,
                              time_band=10)[0]
        xsb._weight_sq.cache_clear()
        xsb._sup_l2_constant.cache_clear()
        assert traced_peak(lambda: run([trial])) < limit_mib * 2**20
