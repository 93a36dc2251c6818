"""Gauge transform: kinematic identities, potentials, 1-D reduction."""

import numpy as np
import pytest

from msmlab.conventions import BETA_COEF, CURVATURE_COEF
from msmlab.gauge import (
    ConsistencyReport,
    verify_consistency,
    alpha_potential,
    b_fields,
    beta_hat,
    build_gauge_state,
    fit_nls_coefficient,
    hasimoto_1d,
    hasimoto_trajectory,
    soliton_nls_residual,
)
from msmlab.maps import MapField, Target, evolve, max_stable_dt
from msmlab.spectral import Grid1D, Grid2D


def bump_map(n: int, amplitude: float = 0.6) -> MapField:
    """Smooth chart bump with a twist; decays to machine zero at the seam."""
    grid = Grid2D(n=n, length=1.0)
    c = grid.length / 2
    z = ((grid.x - c) + 1j * (grid.y - c)) / (0.0625 * grid.length)
    w = amplitude * z * np.exp(-0.5 * np.abs(z) ** 2) * np.exp(0.7j * np.real(z))
    return MapField.from_stereo(grid, w)


class TestConstruction:
    def test_u_is_phase_rotated_b(self):
        # The definition itself: u_j = exp(i psi) b_j, pointwise.
        mf = bump_map(64)
        gs = build_gauge_state(mf)
        b1, b2 = b_fields(mf)
        phase = np.exp(1j * gs.psi)
        np.testing.assert_allclose(gs.u1, phase * b1, atol=1e-14)
        np.testing.assert_allclose(gs.u2, phase * b2, atol=1e-14)

    def test_psi_real_zero_mean(self):
        psi = build_gauge_state(bump_map(64)).psi
        assert np.isrealobj(psi)
        assert abs(np.mean(psi)) < 1e-14

    def test_gauge_preserves_modulus(self):
        mf = bump_map(64)
        gs = build_gauge_state(mf)
        b1, _ = b_fields(mf)
        np.testing.assert_allclose(np.abs(gs.u1), np.abs(b1), atol=1e-14)

    def test_hyperbolic_map_rejected(self):
        grid = Grid2D(n=16, length=1.0)
        s3 = np.zeros(grid.shape + (3,))
        s3[..., 2] = 1.0
        mf = MapField(grid=grid, s3=s3, target=Target.HYPERBOLIC)
        with pytest.raises(ValueError):
            build_gauge_state(mf)


class TestKinematicIdentities:
    """The three structure identities hold for any smooth map."""

    def test_residuals_small_on_resolved_map(self):
        rep = verify_consistency(build_gauge_state(bump_map(128)))
        assert rep.div_a < 1e-8
        assert rep.torsion < 1e-8
        assert rep.curvature < 1e-8

    def test_residuals_shrink_under_refinement(self):
        coarse = verify_consistency(build_gauge_state(bump_map(64)))
        fine = verify_consistency(build_gauge_state(bump_map(128)))
        for name in ("div_a", "torsion", "curvature"):
            assert getattr(fine, name) < getattr(coarse, name) / 10

    def test_curvature_orientation_negative_control(self):
        # With the conjugation order swapped in the curvature source the
        # residual is order one, not small: the orientation is observable.
        gs = build_gauge_state(bump_map(128))
        good = verify_consistency(gs).curvature
        flipped = verify_consistency(gs, curvature_coef=-CURVATURE_COEF).curvature
        assert flipped > 1e3 * good
        assert flipped > 0.5

    def test_constant_map_all_zero(self):
        grid = Grid2D(n=16, length=1.0)
        gs = build_gauge_state(MapField.constant(grid))
        rep = verify_consistency(gs)
        assert rep.max_residual() == 0.0

    def test_harmonic_means_resolution_independent(self):
        # The constant part of the connection is geometric, not numerical:
        # refining the grid does not move it.
        m64 = build_gauge_state(bump_map(64)).harmonic_means
        m128 = build_gauge_state(bump_map(128)).harmonic_means
        assert abs(m64[0] - m128[0]) < 1e-8
        assert abs(m64[1] - m128[1]) < 1e-8
        # and for this data it is actually nonzero, so the oracle cannot
        # get away with ignoring it
        assert abs(m64[0]) > 1e-3


class TestPotentials:
    def test_alpha_forms_agree_on_rough_data(self):
        # Poisson and Riesz assemblies realize the same Fourier multiplier,
        # so they must agree to roundoff even on full-spectrum noise.
        grid = Grid2D(n=32, length=1.0)
        rng = np.random.default_rng(7)
        u1 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        u2 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        p = alpha_potential(grid, u1, u2, 1.0, form="poisson")
        r = alpha_potential(grid, u1, u2, 1.0, form="riesz")
        assert np.max(np.abs(p - r)) < 1e-12 * np.max(np.abs(p))
        with pytest.raises(ValueError):
            alpha_potential(grid, u1, u2, 1.0, form="cheby")

    def test_beta_single_mode_closed_form(self):
        # u1 = i exp(i k x), u2 = 1 gives Im(u1 conj(u2)) = cos(k x), so
        # beta = -BETA_COEF cos(k x) / k^2 for the sphere.  [DERIVED]
        grid = Grid2D(n=32, length=2 * np.pi)
        k0 = 1.0
        u1 = 1j * np.exp(1j * k0 * grid.x)
        u2 = np.ones(grid.shape, dtype=complex)
        beta = grid.ifft(beta_hat(grid, u1, u2, sign=1.0)).real
        expected = -BETA_COEF * np.cos(k0 * grid.x) / k0**2
        np.testing.assert_allclose(beta, expected, atol=1e-12)

    def test_beta_sign_flips_with_target(self):
        grid = Grid2D(n=32, length=2 * np.pi)
        u1 = 1j * np.exp(1j * grid.x)
        u2 = np.ones(grid.shape, dtype=complex)
        plus = beta_hat(grid, u1, u2, sign=1.0)
        minus = beta_hat(grid, u1, u2, sign=-1.0)
        np.testing.assert_allclose(plus, -minus, atol=1e-14)

    def test_compute_a0_matches_state(self):
        gs = build_gauge_state(bump_map(64))
        assert abs(np.mean(gs.a0)) < 1e-13
        # The independent Riesz assembly of the same multiplier agrees.
        alpha = np.real(alpha_potential(gs.grid, gs.u1, gs.u2, gs.sign, form="riesz"))
        assert np.max(np.abs(gs.a0 - alpha)) < 1e-10 * (1 + np.max(np.abs(gs.a0)))


class TestHasimoto:
    def test_rejects_2d_map(self):
        with pytest.raises(ValueError):
            hasimoto_1d(bump_map(16))

    def test_modulus_is_chart_gradient_density(self):
        grid = Grid1D(n=128, length=2 * np.pi)
        w = (0.3 * np.exp(1j * grid.x) + 0.1 * np.exp(-2j * grid.x)).astype(complex)
        mf = MapField.from_stereo(grid, w)
        u = hasimoto_1d(mf)
        np.testing.assert_allclose(
            np.abs(u), np.abs(grid.dx(w)) / (1 + np.abs(w) ** 2), atol=1e-13
        )

    def test_chart_real_data_untouched(self):
        # Real chart values give a real derivative field and a vanishing
        # connection, so the transform is the identity on b.
        grid = Grid1D(n=128, length=2 * np.pi)
        w = (0.4 * np.cos(grid.x)).astype(complex)
        mf = MapField.from_stereo(grid, w)
        u = hasimoto_1d(mf)
        rho = 1 + np.abs(w) ** 2
        np.testing.assert_allclose(u, grid.dx(w) / rho, atol=1e-13)

    @pytest.mark.parametrize("eta,length", [(0.75, 80.0), (1.0, 50.0), (1.5, 50.0)])
    def test_soliton_closed_form_residual(self, eta, length):
        # box wide enough that the sech tail clears the seam at ~1e-13
        grid = Grid1D(n=512, length=length)
        assert soliton_nls_residual(grid, eta=eta) < 1e-9

    def test_wrong_amplitude_is_not_a_soliton(self):
        # Scaling the profile by sqrt(2) breaks the balance by a factor
        # two in the cubic term; the residual is order one.  [DERIVED]
        grid = Grid1D(n=512, length=50.0)
        eta = 1.0
        u = np.sqrt(2) * eta / np.cosh(eta * (grid.x - grid.length / 2))
        resid = -(eta**2) * u + grid.laplacian(u) + 2.0 * np.abs(u) ** 2 * u
        assert grid.norm2(resid) / grid.norm2(u) > 0.5

    def test_evolved_map_fits_focusing_cubic(self):
        # Evolve a 1-D map, gauge-transform every snapshot, and fit the
        # cubic coefficient: the reduction says c = 2 up to O(dt^2).
        grid = Grid1D(n=256, length=2 * np.pi)
        w0 = 0.5 * np.exp(-0.5 * ((grid.x - grid.length / 2) / (grid.length / 16)) ** 2)
        mf = MapField.from_stereo(grid, w0.astype(complex))
        dt = 0.5 * max_stable_dt(grid)
        traj = evolve(mf, dt=dt, n_steps=60, store_every=1)
        fit = fit_nls_coefficient(hasimoto_trajectory(traj), dt, grid)
        assert abs(fit.c - 2.0) < 5e-4
        assert fit.residual < 1e-4
        # the phase drift absorbed per slice is nearly constant in time
        assert np.ptp(fit.lambdas) < 1e-3

    def test_fit_needs_three_snapshots(self):
        grid = Grid1D(n=32, length=2 * np.pi)
        u = np.ones(32, dtype=complex)
        with pytest.raises(ValueError):
            fit_nls_coefficient([u, u], 0.1, grid)
