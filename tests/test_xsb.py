"""Space-time norms, ratio experiments, and multiplier brackets."""

import csv

import numpy as np
import pytest

from msmlab.errors import TooLargeError
from msmlab.spectral import Grid2D
from msmlab.storage import format_value
from msmlab.xsb import (
    BilinearReport,
    MultiplierSpec,
    RatioReport,
    SpaceTimeField,
    Trial,
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
    sup_l2_constant,
    white_mode_dict,
    write_ratio_csv,
    xsb_norm,
)

LENGTH = 4 * np.pi
TWIN = 4.0


def grid(n=32):
    return Grid2D(n=n, length=LENGTH)


def white_field(seed, n=32, nt=64, sb=4, tb=8):
    return realize_mode_field(grid(n), nt, TWIN, white_mode_dict(sb, tb, seed))


def symmetric_gap(taus, nt, xi2):
    """Weight argument tau - |xi|^2 with the unpaired Nyquist plane symmetrized."""
    gap = taus - xi2
    gap[nt // 2] = abs(taus[nt // 2]) + xi2
    return gap


def windowed_mode_norm(f, mode, amp, s, b):
    """One-mode weighted norm, summed explicitly over the window's spectrum."""
    xi2 = (2 * np.pi / LENGTH) ** 2 * (mode[0] ** 2 + mode[1] ** 2)
    tau_mode = 2 * np.pi * mode[2] / TWIN
    shifted = np.fft.fft(f.cutoff * np.exp(-1j * tau_mode * f.times)) / f.nt
    gap = symmetric_gap(f.tau.copy(), f.nt, xi2)
    weight_sq = (1 + gap**2) ** b * (1 + xi2) ** s
    total = np.sum(np.abs(amp * shifted) ** 2 * weight_sq)
    return np.sqrt(LENGTH**2 * TWIN * total)


class TestSpaceTimeField:
    def test_time_axis_must_be_power_of_two(self):
        g = grid(16)
        with pytest.raises(ValueError, match="power of two"):
            SpaceTimeField(grid=g, t_window=TWIN,
                           values=np.zeros((16, 16, 48), complex), cutoff=np.zeros(48))

    def test_shape_validation(self):
        g = grid(16)
        with pytest.raises(ValueError, match="shape"):
            SpaceTimeField(grid=g, t_window=TWIN,
                           values=np.zeros((8, 16, 32), complex), cutoff=np.zeros(32))
        with pytest.raises(ValueError, match="cutoff"):
            SpaceTimeField(grid=g, t_window=TWIN,
                           values=np.zeros((16, 16, 32), complex), cutoff=np.zeros(16))

    def test_boundary_decay_enforced(self):
        g = grid(16)
        with pytest.raises(ValueError, match="vanish"):
            SpaceTimeField(grid=g, t_window=TWIN,
                           values=np.ones((16, 16, 32), complex), cutoff=np.ones(32))

    def test_tau_spacing_and_sign(self):
        f = white_field(0)
        assert f.tau[1] == pytest.approx(-2 * np.pi / TWIN)
        assert f.dt == pytest.approx(TWIN / f.nt)

    def test_parseval(self):
        f = white_field(1)
        direct = np.sqrt(f.grid.spacing**2 * f.dt * np.sum(np.abs(f.values) ** 2))
        assert xsb_norm(f, 0.0, 0.0, +1) == pytest.approx(direct, rel=1e-12)

    def test_norm_is_homogeneous(self):
        f = white_field(2)
        assert xsb_norm(f.scaled(3 - 4j), 0.7, 0.55, +1) == pytest.approx(
            5 * xsb_norm(f, 0.7, 0.55, +1), rel=1e-12
        )

    def test_single_mode_weighted_norm(self):
        mode, amp = (2, -1, 3), 1.5 + 0.5j
        f = realize_mode_field(grid(), 64, TWIN, {mode: amp})
        expected = windowed_mode_norm(f, mode, amp, s=1.0, b=0.51)
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
        full = SpaceTimeField(grid=grid(), t_window=TWIN,
                              values=noise * f.cutoff, cutoff=f.cutoff)
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
        f = SpaceTimeField(grid=g, t_window=TWIN,
                           values=gx[:, :, None] * ft[None, None, :] + 0j, cutoff=ft)
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
        z = SpaceTimeField(grid=grid(), t_window=TWIN,
                           values=np.zeros((32, 32, 64), complex), cutoff=np.zeros(64))
        reports = ratio_test_cubic([Trial(fields=(z, z, z), seed=0, flavor="white")], 1.0, 0.01)
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
            [Trial(fields=fields, seed=5, flavor="white")], s=1.0, eps=0.01)}
        msum = tuple(m1[i] - m2[i] + m3[i] for i in range(3))
        f0 = fields[0]
        prod = SpaceTimeField(grid=grid(), t_window=TWIN,
                              values=np.ones((32, 32, 64)) * f0.cutoff**3, cutoff=f0.cutoff**3)
        num = windowed_mode_norm(prod, msum, a1 * np.conj(a2) * a3, s=1.0, b=-0.5 + 0.02)
        den = (
            windowed_mode_norm(fields[0], m1, a1, 1.0, 0.51)
            * windowed_mode_norm(fields[1], m2, a2, 1.0, 0.51)
            * windowed_mode_norm(fields[2], m3, a3, 1.0, 0.51)
        )
        assert reports["cubic_conj2"].max_ratio == pytest.approx(num / den, rel=1e-10)

    def test_ratio_is_scale_invariant(self):
        trials = sample_trials(grid(), 64, TWIN, 3, 3, seed=21, space_band=4, time_band=6)
        base = {r.test_name: r.max_ratio for r in ratio_test_cubic(trials, 1.0, 0.01)}
        rescaled = [
            Trial(fields=(t.fields[0].scaled(3 - 4j), t.fields[1], t.fields[2].scaled(0.1)),
                  seed=t.seed, flavor=t.flavor)
            for t in trials
        ]
        again = {r.test_name: r.max_ratio for r in ratio_test_cubic(rescaled, 1.0, 0.01)}
        for name in base:
            assert again[name] == pytest.approx(base[name], rel=1e-11)

    def test_stable_under_grid_doubling(self):
        # The testable shadow of boundedness: the same continuum ensemble on
        # a doubled grid must reproduce the max ratios, far inside the 2x
        # stability budget (frozen pilot factor: 1.001).
        args = dict(arity=3, n_trials=6, seed=501, space_band=5, time_band=10)
        coarse = ratio_test_cubic(sample_trials(grid(32), 64, TWIN, **args), 1.0, 0.01)
        fine = ratio_test_cubic(sample_trials(grid(64), 128, TWIN, **args), 1.0, 0.01)
        for rc, rf in zip(coarse, fine):
            assert rc.test_name == rf.test_name
            assert rf.max_ratio < 2 * rc.max_ratio
            assert rc.max_ratio < 2 * rf.max_ratio


def independent_grad_potential(g, dens):
    """Reference gradient-of-inverse-Laplacian used to cross-check ratios."""
    dh = np.fft.fft2(dens)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(g.k2 > 0, -dh / g.k2, 0.0)
    return np.fft.ifft2(1j * g.kx * inv), np.fft.ifft2(1j * g.ky * inv)


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
        beta = g.ifft(beta_hat(g, u1, u2, sign=1.0)).real
        lhs = (g.dx(beta) ** 2 + g.dy(beta) ** 2) * u

        def pairing(a, b, c, d, e):
            g1 = independent_grad_potential(g, a * np.conj(b))
            g2 = independent_grad_potential(g, c * np.conj(d))
            return (g1[0] * g2[0] + g1[1] * g2[1]) * e

        rhs = 4 * (
            2 * pairing(u1, u2, u2, u1, u)
            - pairing(u1, u2, u1, u2, u)
            - pairing(u2, u1, u2, u1, u)
        )
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-12

    def test_stable_under_grid_doubling(self):
        args = dict(arity=5, n_trials=6, seed=502, space_band=3, time_band=6)
        coarse = ratio_test_quintic(sample_trials(grid(32), 64, TWIN, **args), eps=0.01)
        fine = ratio_test_quintic(sample_trials(grid(64), 128, TWIN, **args), eps=0.01)
        assert coarse.s == pytest.approx(1.0)
        assert fine.max_ratio < 2 * coarse.max_ratio
        assert coarse.max_ratio < 2 * fine.max_ratio
        assert coarse.ensemble_size == 6


class TestNullForm:
    def trials(self, n=32, nt=64, n_trials=6, seed=503):
        return sample_trials(grid(n), nt, TWIN, 4, n_trials, seed, space_band=5, time_band=10)

    def test_zero_dual_field_gives_zero(self):
        t = self.trials(n_trials=1)[0]
        z = t.fields[3]._derived(np.zeros_like(t.fields[3].values), t.fields[3].cutoff)
        report = ratio_test_nullform([Trial(fields=t.fields[:3] + (z,), seed=0, flavor="white")], 0.01)
        assert report.ratio.max_ratio == 0.0

    def test_equal_pair_kills_the_form(self):
        # u1 = u2 makes the stream source Im(u1 conj u1) vanish identically.
        t = self.trials(n_trials=1)[0]
        u1 = t.fields[0]
        trial = Trial(fields=(u1, u1, t.fields[2], t.fields[3]), seed=1, flavor="white")
        report = ratio_test_nullform([trial], 0.01)
        assert report.ratio.max_ratio < 1e-15

    def test_integration_by_parts_is_boundary_free(self):
        report = ratio_test_nullform(self.trials(), 0.01)
        assert report.max_assembly_mismatch < 1e-9

    def test_stable_under_grid_doubling(self):
        coarse = ratio_test_nullform(self.trials(32, 64), 0.01)
        fine = ratio_test_nullform(self.trials(64, 128), 0.01)
        assert fine.ratio.max_ratio < 2 * coarse.ratio.max_ratio
        assert coarse.ratio.max_ratio < 2 * fine.ratio.max_ratio


class TestBilinearEmbedding:
    def trials(self, n_trials=6):
        return sample_trials(grid(), 64, TWIN, 2, n_trials, seed=504, space_band=5, time_band=10)

    def test_exponent_range_validated(self):
        with pytest.raises(ValueError):
            bilinear_embedding_test(self.trials(1), p=3.0, eps=0.01)

    def test_single_mode_diagonal_closed_form(self):
        mode, amp = (2, 1, 3), 1.5 + 0.5j
        f = realize_mode_field(grid(), 64, TWIN, {mode: amp})
        report = bilinear_embedding_test([Trial(fields=(f, f), seed=3, flavor="white")], 2.0, 0.01)
        # |u| is constant in space for one mode, so L^4_t L^4_x factorizes.
        l44 = abs(amp) * (LENGTH**2) ** 0.25 * (f.dt * np.sum(f.cutoff**4)) ** 0.25
        expect = l44 / xsb_norm(f, 0.0, 0.51, +1)
        assert report.diagonal.max_ratio == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_ratios_finite_and_reported(self, p):
        report = bilinear_embedding_test(self.trials(), p, 0.01)
        assert isinstance(report, BilinearReport)
        for rep in (report.uv, report.u_conj_v, report.diagonal):
            assert rep.ensemble_size == 6
            assert 0 < rep.max_ratio < np.inf

    def test_sup_l2_bounded_by_exact_constant(self):
        # The time-frequency Cauchy-Schwarz reduction holds discretely with
        # a computable constant, no unquantified slack involved.
        report = bilinear_embedding_test(self.trials(), 1.0, 0.01)
        assert report.sup_l2_max_ratio <= report.sup_l2_cap * (1 + 1e-9)
        f = self.trials(1)[0].fields[0]
        assert report.sup_l2_cap == pytest.approx(sup_l2_constant(f, 0.51), rel=1e-12)


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

    def test_suite_matches_individual_runs(self, monkeypatch):
        rng = np.random.default_rng(6)
        specs = [
            MultiplierSpec(k=3, modulus=8, dim=1,
                           m=rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
            for _ in range(3)
        ]
        serial = [multiplier_norm_bounds(sp, restarts=20, seed=1) for sp in specs]
        monkeypatch.setenv("MSMLAB_THREADS", "3")
        threaded = multiplier_suite(specs, restarts=20, seed=1)
        assert threaded == serial


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
