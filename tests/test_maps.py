"""Tests for map fields and the geometric integrator."""

import numpy as np
import pytest

from msmlab.errors import ChartUndefinedError, NoConvergenceError
from msmlab.maps import (
    MapField,
    Target,
    _ll_values,
    energy,
    evolve,
    max_stable_dt,
    step_geometric,
)
from msmlab.spectral import Grid1D, Grid2D

RNG = np.random.default_rng(77)


def bump_chart_map(grid, amplitude=0.6, width=0.0625):
    """Smooth sphere map through the chart: a Gaussian bump in w.

    The default width leaves the bump below 1e-13 at the box seam, keeping
    the periodization spectrally clean.
    """
    cx = cy = grid.length / 2
    r2 = (grid.x - cx) ** 2 + (grid.y - cy) ** 2
    w = amplitude * np.exp(-r2 / (2 * (width * grid.length) ** 2))
    return MapField.from_stereo(grid, w)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def hyperbolic_wave_map(grid):
    u = 0.3 * np.sin(2 * np.pi * grid.x / grid.length)
    raw = np.stack([np.sinh(u), np.zeros_like(u), np.cosh(u)], axis=-1)
    return MapField.create(grid, raw, Target.HYPERBOLIC)


def component_major(s3):
    """The same values, with each component one contiguous plane."""
    return np.moveaxis(np.moveaxis(s3, -1, 0).copy(), 0, -1)


def chart_energy(mf):
    """Energy through the stereographic chart: 2 int |grad w|^2 / (1+|w|^2)^2.

    The conformal factor of the chart is 2/(1+|w|^2), whence the prefactor.
    It agrees with the embedded ``energy`` to spectral accuracy away from
    the pole.
    """
    w = mf.stereo()
    dens = (1.0 + np.abs(w) ** 2) ** 2
    total = sum(np.abs(d) ** 2 for d in mf.grid.gradient(w))
    return 2.0 * mf.grid.integral(total / dens)


def tension(mf):
    """Tension field: the tangential projection of lap s (zero iff harmonic)."""
    lap = mf.grid.laplacian(mf.s3)
    coeff = mf.target.dot(lap, mf.s3)
    if mf.target is Target.SPHERE:
        return lap - coeff[..., None] * mf.s3
    # <s, s> = -1 on the hyperboloid, so the projection adds the component.
    return lap + coeff[..., None] * mf.s3


class TestMapField:
    def test_constant_map_roundtrips_chart(self):
        g = Grid2D(n=16, length=1.0)
        mf = MapField.constant(g)
        assert np.max(np.abs(mf.stereo())) < 1e-14

    def test_chart_roundtrip(self):
        g = Grid2D(n=32, length=4.0)
        mf = bump_chart_map(g)
        again = MapField.from_stereo(g, mf.stereo())
        assert np.max(np.abs(again.s3 - mf.s3)) < 1e-12

    def test_chart_raises_at_north_pole(self):
        g = Grid2D(n=16, length=1.0)
        mf = MapField.constant(g, point=(0.0, 0.0, 1.0))
        with pytest.raises(ChartUndefinedError):
            mf.stereo()

    def test_rejects_off_surface_values(self):
        g = Grid2D(n=16, length=1.0)
        bad = np.ones((16, 16, 3))
        with pytest.raises(ValueError):
            MapField(g, bad)

    def test_hyperbolic_normalization(self):
        g = Grid2D(n=16, length=1.0)
        raw = np.zeros((16, 16, 3))
        raw[..., 2] = np.cosh(0.3)
        raw[..., 0] = np.sinh(0.3)
        mf = MapField.create(g, raw, Target.HYPERBOLIC)
        assert mf.normalization_error() < 1e-12

    def test_hyperbolic_maps_live_on_the_upper_sheet(self):
        # On the lower sheet x3 <= -1 the flow would run backward in time.
        g = Grid2D(n=8, length=1.0)
        base = MapField.constant(g, target=Target.HYPERBOLIC).s3
        np.testing.assert_array_equal(base, np.broadcast_to([0.0, 0.0, 1.0], base.shape))
        south = MapField.constant(g).s3
        np.testing.assert_array_equal(south, np.broadcast_to([0.0, 0.0, -1.0], south.shape))
        lower = np.broadcast_to([0.3, 0.4, -2.0], g.shape + (3,))
        with pytest.raises(ValueError, match="upper sheet"):
            MapField.create(g, lower, Target.HYPERBOLIC)
        with pytest.raises(ValueError, match="upper sheet"):
            MapField.constant(g, (0.0, 0.0, -1.0), Target.HYPERBOLIC)

    @pytest.mark.parametrize("target", [Target.SPHERE, Target.HYPERBOLIC])
    def test_zero_values_cannot_be_scaled_onto_the_target(self, target):
        g = Grid2D(n=8, length=1.0)
        with pytest.raises(ValueError, match=f"onto the {target.name.lower()} target"):
            MapField.create(g, np.zeros(g.shape + (3,)), target)


class TestEnergy:
    def test_constant_map_has_zero_energy(self):
        g = Grid2D(n=16, length=2.0)
        assert energy(MapField.constant(g)) < 1e-28

    def test_one_dimensional_profile_quadrature(self):
        # s3 = (sin t, 0, cos t) with t = eps*cos(2 pi x / L): the speed is
        # |t'| pointwise, so the energy is half the quadrature of t'^2.
        g = Grid2D(n=64, length=8.0)
        eps = 0.3
        k0 = 2 * np.pi / g.length
        theta = eps * np.cos(k0 * g.x)
        s3 = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)
        mf = MapField.create(g, s3)
        tprime = -eps * k0 * np.sin(k0 * g.x)
        expected = 0.5 * np.sum(tprime**2) * g.spacing**2
        assert abs(energy(mf) - expected) < 1e-10 * max(expected, 1.0)

    def test_one_dimensional_grid(self):
        # The profile above on a line, near the south pole so the chart holds:
        # the energy is 1/2 int t'^2 = eps^2 k0^2 L / 4.
        g = Grid1D(n=64, length=8.0)
        assert MapField.constant(g).s3.shape == (64, 3)
        assert energy(MapField.constant(g)) < 1e-28
        eps = 0.3
        k0 = 2 * np.pi / g.length
        theta = eps * np.cos(k0 * g.x)
        s3 = np.stack([np.sin(theta), np.zeros_like(theta), -np.cos(theta)], axis=-1)
        mf = MapField.create(g, s3)
        expected = eps**2 * k0**2 * g.length / 4
        assert energy(mf) == pytest.approx(expected, rel=1e-12)
        assert chart_energy(mf) == pytest.approx(expected, rel=1e-10)

    def test_chart_matches_embedded(self):
        g = Grid2D(n=64, length=8.0)
        mf = bump_chart_map(g, amplitude=0.5)
        e1, e2 = energy(mf), chart_energy(mf)
        assert abs(e1 - e2) < 1e-8 * max(e1, 1.0)

    def test_rotation_invariance(self):
        g = Grid2D(n=32, length=4.0)
        mf = bump_chart_map(g)
        q = random_rotation(RNG)
        rotated = MapField.create(g, mf.s3 @ q.T)
        assert abs(energy(rotated) - energy(mf)) < 1e-10


class TestRhs:
    def test_constant_map_is_stationary(self):
        g = Grid2D(n=16, length=1.0)
        mf = MapField.constant(g)
        assert np.max(np.abs(_ll_values(g, mf.target, mf.s3))) < 1e-12

    @pytest.mark.parametrize("target", [Target.SPHERE, Target.HYPERBOLIC])
    def test_tangency(self, target):
        g = Grid2D(n=32, length=4.0)
        if target is Target.SPHERE:
            mf = bump_chart_map(g)
        else:
            u = 0.4 * np.sin(2 * np.pi * g.x / g.length)
            v = 0.3 * np.cos(2 * np.pi * g.y / g.length)
            raw = np.stack([np.sinh(u), np.sinh(v), np.sqrt(1 + np.sinh(u) ** 2 + np.sinh(v) ** 2)], -1)
            mf = MapField.create(g, raw, Target.HYPERBOLIC)
        rhs = _ll_values(g, mf.target, mf.s3)
        assert np.max(np.abs(mf.target.dot(rhs, mf.s3))) < 1e-10

    def test_linearization_is_schrodinger(self):
        # Around the north pole the tangent coordinate z = v1 - i v2 obeys
        # dz/dt = i lap z to leading order in the perturbation size.
        g = Grid2D(n=32, length=2 * np.pi)
        eps = 1e-5
        v1 = eps * np.cos(2 * g.x)
        v2 = eps * np.sin(3 * g.y)
        raw = np.stack([v1, v2, np.sqrt(1 - v1**2 - v2**2)], axis=-1)
        mf = MapField.create(g, raw)
        rhs = _ll_values(g, mf.target, mf.s3)
        zeta = v1 - 1j * v2
        got = rhs[..., 0] - 1j * rhs[..., 1]
        want = 1j * g.laplacian(zeta)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) < 1e-3 * scale

    def test_equatorial_geodesic_is_harmonic(self):
        g = Grid2D(n=32, length=2 * np.pi)
        s3 = np.stack([np.cos(g.x), np.sin(g.x), np.zeros_like(g.x)], axis=-1)
        mf = MapField.create(g, s3)
        assert np.max(np.abs(tension(mf))) < 1e-10


class TestHarmonicResidualChartOracle:
    @staticmethod
    def _chart_tension_fd(grid, w):
        """Euler-Lagrange operator in the chart by centered differences."""
        h = grid.spacing

        def d(f, axis):
            return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2 * h)

        def d2(f, axis):
            return (np.roll(f, -1, axis) - 2 * f + np.roll(f, 1, axis)) / h**2

        lap = d2(w, 0) + d2(w, 1)
        grad_sq = d(w, 0) ** 2 + d(w, 1) ** 2
        return lap - 2.0 * np.conj(w) * grad_sq / (1.0 + np.abs(w) ** 2)

    @staticmethod
    def _push_forward(w, zeta):
        """Differential of the inverse chart applied to a tangent value."""
        rho = 1.0 + np.abs(w) ** 2
        radial = np.real(np.conj(w) * zeta)
        return np.stack(
            [
                2 * zeta.real / rho - 4 * w.real * radial / rho**2,
                2 * zeta.imag / rho - 4 * w.imag * radial / rho**2,
                4 * radial / rho**2,
            ],
            axis=-1,
        )

    def test_matches_chart_euler_lagrange(self):
        errs = []
        for n in (64, 128):
            g = Grid2D(n=n, length=8.0)
            mf = bump_chart_map(g, amplitude=0.5)
            w = mf.stereo()
            expected = self._push_forward(w, self._chart_tension_fd(g, w))
            got = tension(mf)
            errs.append(np.max(np.abs(got - expected)))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.8


class TestStepGeometric:
    def test_rejects_large_dt(self):
        g = Grid2D(n=32, length=2 * np.pi)
        mf = bump_chart_map(g)
        with pytest.raises(ValueError):
            step_geometric(mf, 10 * max_stable_dt(g))

    def test_raises_when_iteration_budget_exhausted(self, monkeypatch):
        import msmlab.maps as maps

        g = Grid2D(n=32, length=2 * np.pi)
        mf = bump_chart_map(g)
        monkeypatch.setattr(maps, "MIDPOINT_MAX_ITERS", 1)
        with pytest.raises(NoConvergenceError):
            step_geometric(mf, 0.9 * max_stable_dt(g))

    def test_norm_preserved_pointwise(self):
        g = Grid2D(n=32, length=4.0)
        mf = bump_chart_map(g)
        stepped = step_geometric(mf, 0.2 * max_stable_dt(g))
        assert stepped.normalization_error() < 1e-12

    def test_energy_drift_small(self):
        g = Grid2D(n=32, length=4.0)
        mf = bump_chart_map(g, amplitude=0.4)
        dt = 0.1 * max_stable_dt(g)
        e0 = energy(mf)
        traj = evolve(mf, dt, 100)
        e1 = energy(traj.maps[-1])
        assert abs(e1 - e0) < 1e-6 * max(e0, 1.0)

    def test_rotation_equivariance(self):
        g = Grid2D(n=32, length=4.0)
        mf = bump_chart_map(g)
        dt = 0.2 * max_stable_dt(g)
        q = random_rotation(RNG)
        a = step_geometric(MapField.create(g, mf.s3 @ q.T), dt)
        b = step_geometric(mf, dt)
        assert np.max(np.abs(a.s3 - b.s3 @ q.T)) < 1e-10

    def test_second_order_convergence(self):
        g = Grid2D(n=16, length=4.0)
        mf = bump_chart_map(g, amplitude=0.5, width=0.2)
        t_final = 0.02
        sols = {}
        for nsteps in (8, 16, 64):
            traj = evolve(mf, t_final / nsteps, nsteps)
            sols[nsteps] = traj.maps[-1].s3
        e1 = np.max(np.abs(sols[8] - sols[64]))
        e2 = np.max(np.abs(sols[16] - sols[64]))
        order = np.log2(e1 / e2)
        assert order > 1.8

    def test_hyperbolic_step_stays_on_surface(self):
        g = Grid2D(n=32, length=4.0)
        mf = hyperbolic_wave_map(g)
        stepped = step_geometric(mf, 0.2 * max_stable_dt(g))
        assert stepped.normalization_error() < 1e-12
        assert stepped.target is Target.HYPERBOLIC


    @pytest.mark.parametrize("target", [Target.SPHERE, Target.HYPERBOLIC])
    def test_step_is_bitwise_independent_of_layout(self, target):
        g = Grid2D(n=16, length=4.0)
        mf = bump_chart_map(g) if target is Target.SPHERE else hyperbolic_wave_map(g)
        dt = 0.5 * max_stable_dt(g)
        want = step_geometric(mf, dt).s3
        for s3 in (component_major(mf.s3), np.asfortranarray(mf.s3)):
            got = step_geometric(MapField(g, s3, target), dt).s3
            np.testing.assert_array_equal(got, want)


class TestCross:
    @pytest.mark.parametrize("target", [Target.SPHERE, Target.HYPERBOLIC])
    @pytest.mark.parametrize("layout", ["C", "component-major"])
    def test_matches_numpy_reference(self, target, layout):
        a, b = RNG.standard_normal((2, 8, 8, 3))
        if layout != "C":
            a, b = component_major(a), component_major(b)
        want = np.cross(a, b)
        if target is Target.HYPERBOLIC:
            want = want * np.array([1.0, 1.0, -1.0])
        got = target.cross(a, b)
        np.testing.assert_array_equal(got, want)
        assert got.strides == a.strides


class TestEvolve:
    def test_snapshot_cadence(self):
        g = Grid2D(n=16, length=4.0)
        mf = bump_chart_map(g)
        dt = 0.1 * max_stable_dt(g)
        traj = evolve(mf, dt, 10, store_every=2)
        assert len(traj) == 6
        assert np.allclose(np.diff(traj.times), 2 * dt)

    @pytest.mark.parametrize("store_every", [0, -1])
    def test_store_every_below_one_rejected(self, monkeypatch, store_every):
        g = Grid2D(n=16, length=4.0)
        monkeypatch.setattr("msmlab.maps.step_geometric", lambda *a: pytest.fail("stepped"))
        with pytest.raises(ValueError, match="store_every"):
            evolve(bump_chart_map(g), 1e-6, 10, store_every=store_every)

    def test_stalled_step_is_located(self, monkeypatch):
        import msmlab.maps as maps

        g = Grid2D(n=32, length=2 * np.pi)
        dt = 0.9 * max_stable_dt(g)
        monkeypatch.setattr(maps, "MIDPOINT_MAX_ITERS", 1)
        with pytest.raises(NoConvergenceError) as err:
            evolve(bump_chart_map(g), dt, 3)
        assert (err.value.step, err.value.t) == (1, dt)
        assert str(err.value).endswith(f"after 1 iterations at step 1, t={dt:.6g}")

    def test_dense_laplacian_flow_matches_the_real_pair(self, monkeypatch):
        # At n = 64 the flow's Laplacian is two matrix products per
        # component; the transform flow is the reference.
        g = Grid2D(n=64, length=1.0)
        mf = bump_chart_map(g)
        dt = 0.76 * max_stable_dt(g)
        got = evolve(mf, dt, 20, store_every=20).maps[-1]
        monkeypatch.setattr(Grid2D, "laplacian", lambda self, f: self._apply(self._laplacian, f))
        want = evolve(mf, dt, 20, store_every=20).maps[-1]
        assert np.max(np.abs(got.s3 - want.s3)) <= 1e-12
        assert got.normalization_error() <= 1e-12

    def test_one_dimensional_grid(self):
        g = Grid1D(n=64, length=20.0)
        w = 0.5 * np.exp(-((g.x - 10.0) ** 2) / 4.0)
        mf = MapField.from_stereo(g, w.astype(complex))
        stepped = step_geometric(mf, 0.2 * max_stable_dt(g))
        assert stepped.normalization_error() < 1e-12
