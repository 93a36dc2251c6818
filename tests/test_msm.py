"""Derivative-field system: assembly, stepping, oracle, invariance."""

from dataclasses import replace

import numpy as np
import pytest

from msmlab.conventions import (
    ALPHA_DIAG_COEF,
    ALPHA_MIXED_COEF,
    BETA_COEF,
    IM_CUBIC_COEF,
)
from msmlab.errors import ConfigError, PicardDivergedError, SolverBlowupError
from msmlab.gauge import alpha_potential, beta_hat, build_gauge_state
from msmlab.maps import MapField, evolve as evolve_map, max_stable_dt
from msmlab.msm import (
    ALL_TERMS,
    MSMState,
    SolverConfig,
    evolve,
    hk_norm,
    mass,
    msm_residual_of_gauge_trajectory,
    nonlinearity,
    regularity_persistence_test,
    scale_state,
    scaling_invariance_test,
    step,
    term_breakdown,
)
from msmlab.spectral import Grid2D


def bandlimited_state(n, length, amp, band, seed, sign=1.0) -> MSMState:
    """Random trigonometric pair with modes in the closed box [-band, band]^2.

    The coefficients depend only on (band, seed), so two grids with the same
    band sample the same continuum field.
    """
    g = Grid2D(n=n, length=length)
    rng = np.random.default_rng(seed)
    c1 = np.zeros(g.shape, dtype=complex)
    c2 = np.zeros(g.shape, dtype=complex)
    for mx in range(-band, band + 1):
        for my in range(-band, band + 1):
            c1[mx, my] = rng.standard_normal() + 1j * rng.standard_normal()
            c2[mx, my] = rng.standard_normal() + 1j * rng.standard_normal()
    norm = 2 * band + 1
    return MSMState(
        grid=g,
        u1=amp * g.ifft(c1 * n**2) / norm,
        u2=amp * g.ifft(c2 * n**2) / norm,
        sign=sign,
    )


def gaussian_state(n, length, amp, width=0.08) -> MSMState:
    """Smooth localized pair: Gaussian envelope times low plane-wave phases."""
    g = Grid2D(n=n, length=length)
    c = length / 2
    env = np.exp(-((g.x - c) ** 2 + (g.y - c) ** 2) / (2 * (width * length) ** 2))
    phase = np.exp(2j * np.pi * (2 * g.x + g.y) / length)
    return MSMState(grid=g, u1=amp * env * phase, u2=0.8 * amp * env * np.conj(phase))


def bump_map(n: int, amplitude: float = 0.6) -> MapField:
    grid = Grid2D(n=n, length=1.0)
    c = grid.length / 2
    z = ((grid.x - c) + 1j * (grid.y - c)) / (0.0625 * grid.length)
    w = amplitude * z * np.exp(-0.5 * np.abs(z) ** 2) * np.exp(0.7j * np.real(z))
    return MapField.from_stereo(grid, w)


class TestStateAndConfig:
    def test_shape_mismatch_rejected(self):
        g = Grid2D(n=16, length=1.0)
        bad = np.zeros((8, 8), dtype=complex)
        with pytest.raises(ValueError, match="shape"):
            MSMState(grid=g, u1=bad, u2=np.zeros(g.shape, dtype=complex))

    def test_nonfinite_rejected(self):
        g = Grid2D(n=16, length=1.0)
        u = np.zeros(g.shape, dtype=complex)
        u[3, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            MSMState(grid=g, u1=u, u2=np.zeros_like(u))

    def test_real_input_promoted(self):
        g = Grid2D(n=16, length=1.0)
        st = MSMState(grid=g, u1=np.ones(g.shape), u2=np.zeros(g.shape))
        assert st.u1.dtype == np.complex128
        assert st.u2.dtype == np.complex128

    def test_zero_classmethod(self):
        st = MSMState.zero(Grid2D(n=16, length=1.0), sign=-1.0)
        assert mass(st) == 0.0
        assert st.sign == -1.0
        assert st.t == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0, "t_final": 1.0},
            {"dt": -0.1, "t_final": 1.0},
            {"dt": 0.1, "t_final": -1.0},
            {"dt": 0.1, "t_final": 1.0, "scheme": "leapfrog"},
            {"dt": 0.1, "t_final": 1.0, "picard_max_iters": 0},
            {"dt": 0.1, "t_final": 1.0, "picard_tol": 0.0},
            {"dt": 0.1, "t_final": 1.0, "terms": ("null", "septic")},
            {"dt": 0.1, "t_final": 1.0, "dealias": "yes"},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    def test_n_steps_rounds(self):
        assert SolverConfig(dt=0.1, t_final=1.0).n_steps == 10
        assert SolverConfig(dt=0.1, t_final=1.0000001).n_steps == 10


# The potentials are Fourier multipliers, so filtering the potential is
# filtering its quadratic source, as the direct solver does.


def _beta(st: MSMState, dealias: bool = True) -> np.ndarray:
    beta = st.grid.ifft(beta_hat(st.grid, st.u1, st.u2, st.sign)).real
    return st.grid.dealias(beta) if dealias else beta


def _alpha(st: MSMState, form: str = "poisson", dealias: bool = True) -> np.ndarray:
    alpha = alpha_potential(st.grid, st.u1, st.u2, st.sign, form=form)
    return st.grid.dealias(alpha) if dealias else alpha


class TestPotentials:
    def test_beta_vanishes_for_parallel_fields(self):
        st = bandlimited_state(32, 2 * np.pi, 0.5, 3, seed=0)
        aligned = MSMState(grid=st.grid, u1=st.u1, u2=1.7 * st.u1, sign=st.sign)
        assert np.max(np.abs(_beta(aligned))) < 1e-14

    def test_beta_vanishes_when_one_field_zero(self):
        st = bandlimited_state(32, 2 * np.pi, 0.5, 3, seed=1)
        lone = MSMState(grid=st.grid, u1=st.u1, u2=np.zeros_like(st.u2))
        assert np.max(np.abs(_beta(lone))) < 1e-16

    def test_beta_solves_poisson(self):
        st = bandlimited_state(64, 2 * np.pi, 0.8, 5, seed=2)
        g = st.grid
        beta = _beta(st, dealias=False)
        src = BETA_COEF * st.sign * np.imag(st.u1 * np.conj(st.u2))
        residual = g.laplacian(beta) - (src - np.mean(src))
        assert g.norm2(residual) < 1e-12 * max(g.norm2(src), 1e-300)

    def test_potentials_have_zero_mean(self):
        st = bandlimited_state(32, 2 * np.pi, 0.8, 4, seed=3)
        assert abs(np.mean(_beta(st))) < 1e-15
        assert abs(np.mean(_alpha(st))) < 1e-15

    def test_beta_flips_with_sign(self):
        up = bandlimited_state(32, 2 * np.pi, 0.5, 3, seed=4, sign=1.0)
        down = MSMState(grid=up.grid, u1=up.u1, u2=up.u2, sign=-1.0)
        np.testing.assert_allclose(_beta(down), -_beta(up), atol=1e-15)

    def test_alpha_poisson_matches_riesz(self):
        # Two independent assemblies of the same elliptic solve must agree far
        # below the contracted 1e-9: one differentiates the solved
        # potential, the other composes Riesz multipliers on the source.
        st = bandlimited_state(64, 2 * np.pi, 0.8, 10, seed=5)
        a_p = _alpha(st, form="poisson", dealias=False)
        a_r = _alpha(st, form="riesz", dealias=False)
        scale = max(st.grid.norm2(a_p), 1e-300)
        assert st.grid.norm2(a_p - a_r) / scale < 1e-9

    def test_alpha_bad_form_rejected(self):
        st = bandlimited_state(16, 2 * np.pi, 0.5, 2, seed=6)
        with pytest.raises(ValueError):
            _alpha(st, form="cholesky")


class TestNonlinearity:
    def test_zero_state_zero_nonlinearity(self):
        st = MSMState.zero(Grid2D(n=16, length=1.0))
        f1, f2 = nonlinearity(st)
        assert np.all(f1 == 0) and np.all(f2 == 0)

    def test_parallel_fields_kill_transport_and_quintic(self):
        # u2 parallel to u1 makes the stream potential vanish identically,
        # so only the alpha term survives (the Im coupling dies pointwise).
        st = bandlimited_state(32, 2 * np.pi, 0.6, 3, seed=7)
        aligned = MSMState(grid=st.grid, u1=st.u1, u2=2.0 * st.u1)
        parts = term_breakdown(aligned)
        for name in ("null", "quintic", "im_cubic"):
            assert max(np.max(np.abs(parts[name][0])), np.max(np.abs(parts[name][1]))) < 1e-13
        assert np.max(np.abs(parts["alpha_cubic"][0])) > 1e-3

    def test_breakdown_sums_to_full(self):
        st = bandlimited_state(32, 2 * np.pi, 0.8, 4, seed=8)
        parts = term_breakdown(st)
        f1, f2 = nonlinearity(st)
        s1 = sum(parts[t][0] for t in ALL_TERMS)
        s2 = sum(parts[t][1] for t in ALL_TERMS)
        np.testing.assert_allclose(f1, s1, atol=1e-13)
        np.testing.assert_allclose(f2, s2, atol=1e-13)

    def test_each_term_conserves_mass(self):
        # Re<F, u> = 0 for every term class: the alpha and gradient-square
        # terms are pointwise skew, the Im coupling cancels pairwise, and
        # the transport term is advection by a divergence-free field.
        st = bandlimited_state(32, 2 * np.pi, 0.8, 4, seed=9)
        g = st.grid
        for name, (f1, f2) in term_breakdown(st, dealias=False).items():
            pairing = g.integral(np.real(np.conj(st.u1) * f1 + np.conj(st.u2) * f2))
            assert abs(pairing) < 1e-12, name

    def test_finite_difference_assembly_oracle(self):
        # Independent reassembly of all four terms with centered stencils
        # and the five-point discrete Poisson symbol.  Band 3 keeps the
        # quintic products inside the n=32 Nyquist box, so all three grids
        # sample the same continuum field and the gap must shrink like h^2.
        # Frozen pilot values: 1.258e-1, 3.315e-2, 8.399e-3 (orders 1.92,
        # 1.98).
        errs = {}
        for n in (32, 64, 128):
            st = bandlimited_state(n, 2 * np.pi, 0.8, 3, seed=21)
            f_spec = nonlinearity(st, dealias=False)
            f_fd = _finite_difference_nonlinearity(st)
            g = st.grid
            num = np.hypot(g.norm2(f_spec[0] - f_fd[0]), g.norm2(f_spec[1] - f_fd[1]))
            den = np.hypot(g.norm2(f_spec[0]), g.norm2(f_spec[1]))
            errs[n] = num / den
        assert errs[128] < 1e-2
        assert np.log2(errs[32] / errs[64]) > 1.8
        assert np.log2(errs[64] / errs[128]) > 1.8

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n", [32, 64])
    def test_fourier_assembly_matches_physical_reference(self, n, sign, dealias):
        # Band 7 puts the quadratic products past the n=32 dealias edge, so
        # the filter placement is exercised, not just the band-limited case.
        st = bandlimited_state(n, 2 * np.pi, 0.8, 7, seed=30, sign=sign)
        g = st.grid
        for terms in [(t,) for t in ALL_TERMS] + [ALL_TERMS]:
            f1, f2 = nonlinearity(st, terms=terms, dealias=dealias)
            r1, r2 = _reference_nonlinearity(st, terms, dealias)
            num = np.hypot(g.norm2(f1 - r1), g.norm2(f2 - r2))
            assert num < 1e-13 * np.hypot(g.norm2(r1), g.norm2(r2)), terms


def _reference_nonlinearity(st: MSMState, terms, dealias: bool):
    """Term-by-term physical-space assembly, each product filtered on its own.

    It shares no potential code with the solver: beta is the inverse
    Laplacian of its source and alpha the Riesz-form reference.
    """
    g, u1, u2 = st.grid, st.u1, st.u2
    filt = g.dealias if dealias else (lambda f: f)
    f1 = np.zeros(g.shape, dtype=np.complex128)
    f2 = np.zeros_like(f1)
    beta = filt(g.inverse_laplacian(BETA_COEF * st.sign * np.imag(u1 * np.conj(u2))))
    bx, by = g.dx(beta), g.dy(beta)
    if "null" in terms:
        f1 += 2.0 * filt(bx * g.dy(u1) - by * g.dx(u1))
        f2 += 2.0 * filt(bx * g.dy(u2) - by * g.dx(u2))
    if "quintic" in terms:
        f1 += -1j * filt((bx**2 + by**2) * u1)
        f2 += -1j * filt((bx**2 + by**2) * u2)
    if "alpha_cubic" in terms:
        alpha = _alpha(st, form="riesz", dealias=dealias)
        f1 += -1j * filt(alpha * u1)
        f2 += -1j * filt(alpha * u2)
    if "im_cubic" in terms:
        coef = IM_CUBIC_COEF * st.sign
        f1 += coef * filt(np.imag(np.conj(u1) * u2) * u2)
        f2 += coef * filt(np.imag(np.conj(u2) * u1) * u1)
    return f1, f2


def _finite_difference_nonlinearity(st: MSMState):
    """Second-order assembly sharing no code with the spectral path."""
    g, u1, u2, sign = st.grid, st.u1, st.u2, st.sign
    h = g.spacing

    def d(f, axis):
        return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2 * h)

    def lap(f):
        return sum(np.roll(f, -1, a) - 2 * f + np.roll(f, 1, a) for a in (0, 1)) / h**2

    m = np.fft.fftfreq(g.n) * g.n
    sym1 = (2 * np.cos(2 * np.pi * m / g.n) - 2) / h**2
    sym = sym1[:, None] + sym1[None, :]

    def invlap(f):
        fh = np.fft.fft2(f)
        out = np.zeros_like(fh)
        nz = sym != 0
        out[nz] = fh[nz] / sym[nz]
        return np.real(np.fft.ifft2(out))

    beta = invlap(BETA_COEF * sign * np.imag(u1 * np.conj(u2)))
    bx, by = d(beta, 0), d(beta, 1)
    fields = (u1, u2)
    rhs = np.zeros(g.shape)
    for k in range(2):
        for j in range(2):
            rhs += ALPHA_MIXED_COEF * d(d(np.real(fields[k] * np.conj(fields[j])), k), j)
    rhs += ALPHA_DIAG_COEF * lap(np.abs(u1) ** 2 + np.abs(u2) ** 2)
    alpha = sign * invlap(rhs)

    def one(u, other):
        return (
            2 * (bx * d(u, 1) - by * d(u, 0))
            - 1j * (bx**2 + by**2) * u
            - 1j * alpha * u
            + IM_CUBIC_COEF * sign * np.imag(np.conj(u) * other) * other
        )

    return one(u1, u2), one(u2, u1)


class TestStepping:
    @pytest.mark.parametrize("scheme", ["strang_split", "etd_rk4", "picard_duhamel"])
    def test_zero_state_is_fixed_point(self, scheme):
        st = MSMState.zero(Grid2D(n=16, length=1.0))
        out = step(st, SolverConfig(dt=0.01, t_final=0.01, scheme=scheme))
        assert np.all(out.u1 == 0) and np.all(out.u2 == 0)
        assert out.t == pytest.approx(0.01)

    @pytest.mark.parametrize("scheme", ["strang_split", "etd_rk4", "picard_duhamel"])
    def test_free_evolution_is_exact(self, scheme):
        # With every nonlinear term disabled, each scheme must reproduce
        # the Fourier-exact propagator to roundoff at any dt.
        st = bandlimited_state(32, 2 * np.pi, 1.0, 4, seed=10)
        g = st.grid
        cfg = SolverConfig(dt=0.05, t_final=0.25, scheme=scheme, terms=())
        out = evolve(st, cfg)[-1]
        phase = np.exp(-1j * g.k2 * cfg.t_final)
        exact1 = g.ifft(phase * g.fft(st.u1))
        exact2 = g.ifft(phase * g.fft(st.u2))
        np.testing.assert_allclose(out.u1, exact1, atol=1e-12)
        np.testing.assert_allclose(out.u2, exact2, atol=1e-12)

    def test_cross_scheme_convergence_order(self):
        # Strang and ETDRK4 are distinct second-order integrators, so
        # their mutual gap at matched dt must vanish at order ~2.
        # Frozen pilot orders: 2.02 and 2.01.
        st = bandlimited_state(32, 2 * np.pi, 0.5, 4, seed=3)
        gaps = []
        for dt in (0.01, 0.005, 0.0025):
            a = evolve(st, SolverConfig(dt=dt, t_final=0.2, scheme="strang_split"))[-1]
            b = evolve(st, SolverConfig(dt=dt, t_final=0.2, scheme="etd_rk4"))[-1]
            g = st.grid
            gaps.append(np.hypot(g.norm2(a.u1 - b.u1), g.norm2(a.u2 - b.u2)))
        assert np.log2(gaps[0] / gaps[1]) > 1.9
        assert np.log2(gaps[1] / gaps[2]) > 1.9

    @pytest.mark.parametrize("scheme", ["strang_split", "etd_rk4"])
    def test_mass_drift_over_100_steps(self, scheme):
        # Frozen pilot values: 2.2e-7 for Strang, 2.5e-11 for ETDRK4.
        st = bandlimited_state(32, 2 * np.pi, 0.5, 4, seed=3)
        cfg = SolverConfig(dt=1e-3, t_final=0.1, scheme=scheme)
        assert cfg.n_steps == 100
        out = evolve(st, cfg)[-1]
        drift = abs(mass(out) - mass(st)) / mass(st)
        assert drift < 1e-6

    def test_picard_agrees_with_strang(self):
        st = bandlimited_state(32, 2 * np.pi, 0.5, 4, seed=12)
        a = evolve(st, SolverConfig(dt=5e-3, t_final=0.05, scheme="picard_duhamel"))[-1]
        b = evolve(st, SolverConfig(dt=5e-3, t_final=0.05, scheme="strang_split"))[-1]
        g = st.grid
        gap = np.hypot(g.norm2(a.u1 - b.u1), g.norm2(a.u2 - b.u2)) / np.sqrt(mass(b))
        assert gap < 5e-3

    def test_picard_divergence_raises_with_trace(self):
        # Large data at a step size far beyond the contraction threshold.
        st = bandlimited_state(32, 2 * np.pi, 30.0, 4, seed=13)
        cfg = SolverConfig(dt=0.5, t_final=0.5, scheme="picard_duhamel")
        with pytest.raises(PicardDivergedError) as err:
            step(st, cfg)
        assert len(err.value.trace) >= 1
        assert all(np.isfinite(v) or v > 0 for v in err.value.trace)
        assert err.value.step is None and err.value.t is None
        # Inside a run the failure is located.
        with pytest.raises(PicardDivergedError) as located:
            evolve(st, cfg)
        assert (located.value.step, located.value.t) == (1, pytest.approx(0.5))
        assert str(located.value).endswith("at step 1, t=0.5")

    def test_blowup_is_typed_and_located(self):
        # Large data at a coarse step overflows within a few steps.
        st = bandlimited_state(16, 2 * np.pi, 3.0, 3, seed=13)
        cfg = SolverConfig(dt=0.01, t_final=1.0, scheme="strang_split")
        with pytest.raises(SolverBlowupError) as err:
            evolve(st, cfg)
        blowup = err.value
        assert blowup.step >= 2
        assert blowup.t == pytest.approx(blowup.step * cfg.dt)
        last = evolve(st, replace(cfg, t_final=(blowup.step - 1) * cfg.dt))[-1]
        assert np.isfinite(blowup.mass) and np.isfinite(blowup.h1)
        assert blowup.mass == pytest.approx(mass(last), rel=1e-12)
        assert blowup.h1 == pytest.approx(hk_norm(last, 1.0), rel=1e-12)
        assert f"step {blowup.step}," in str(blowup)

        with pytest.raises(SolverBlowupError) as again:
            regularity_persistence_test(st, 1, cfg, growth_factor=1e300)
        assert (again.value.step, again.value.t) == (blowup.step, blowup.t)

        with pytest.raises(SolverBlowupError) as lone:
            step(last, cfg)
        assert lone.value.step is None


def _count_2d_transforms(monkeypatch) -> list[int]:
    """Patch numpy's 2-D transforms to count every transformed slice."""
    count = [0]
    for name in ("fft2", "ifft2"):
        original = getattr(np.fft, name)

        def counted(a, *args, original=original, **kwargs):
            ax = kwargs.get("axes", (-2, -1))
            a = np.asarray(a)
            count[0] += a.size // (a.shape[ax[0]] * a.shape[ax[1]])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return count


class TestTransformCounts:
    @pytest.mark.parametrize("scheme,per_step", [("etd_rk4", 62), ("strang_split", 34)])
    def test_transforms_per_step(self, monkeypatch, scheme, per_step):
        st = bandlimited_state(32, 2 * np.pi, 0.5, 4, seed=3)
        cfg = SolverConfig(dt=1e-3, t_final=1e-3, scheme=scheme)
        count = _count_2d_transforms(monkeypatch)
        step(st, cfg)
        assert count[0] == per_step

    def test_picard_costs_fifteen_per_iteration(self, monkeypatch):
        st = bandlimited_state(32, 2 * np.pi, 0.5, 4, seed=3)
        count = _count_2d_transforms(monkeypatch)
        step(st, SolverConfig(dt=1e-3, t_final=1e-3, scheme="picard_duhamel"))
        assert count[0] > 17 and (count[0] - 17) % 15 == 0

    @pytest.mark.parametrize("terms,total", [
        ((), 4), (("im_cubic",), 6), (("quintic",), 9), (("alpha_cubic",), 10),
        (("null",), 13), (ALL_TERMS, 17),
    ])
    def test_unselected_terms_cost_nothing(self, monkeypatch, terms, total):
        # nonlinearity() adds 2 forward and 2 inverse transforms around the
        # Fourier-space assembly.
        st = bandlimited_state(32, 2 * np.pi, 0.5, 4, seed=3)
        count = _count_2d_transforms(monkeypatch)
        nonlinearity(st, terms=terms)
        assert count[0] == total

    def test_gauge_build_costs_eighteen(self, monkeypatch):
        # b_j: 4, psi: 6, a_j: 4, and one forward per alpha source plus
        # the inverse: 4.  Nothing is spent on a stream potential.
        mf = bump_map(32)
        count = _count_2d_transforms(monkeypatch)
        build_gauge_state(mf)
        assert count[0] == 18

    def test_stacked_calls_count_every_slice(self, monkeypatch):
        g = Grid2D(n=16, length=1.0)
        count = _count_2d_transforms(monkeypatch)
        g.ifft(g.fft(np.zeros(g.shape + (3,))))
        assert count[0] == 6


class TestGaugeTrajectoryOracle:
    def test_constant_map_has_zero_residual(self):
        mf = MapField.constant(Grid2D(n=16, length=1.0))
        traj = evolve_map(mf, dt=1e-4, n_steps=4, store_every=1)
        report = msm_residual_of_gauge_trajectory(traj)
        assert report.max_residual() == 0.0

    def test_needs_three_uniform_snapshots(self):
        mf = bump_map(16, amplitude=0.2)
        short = evolve_map(mf, dt=1e-5, n_steps=1, store_every=1)
        with pytest.raises(ValueError, match="three"):
            msm_residual_of_gauge_trajectory(short)
        traj = evolve_map(mf, dt=1e-5, n_steps=3, store_every=1)
        skewed_times = traj.times.copy()
        skewed_times[-1] *= 1.5
        from msmlab.maps import MapTrajectory

        with pytest.raises(ValueError, match="uniform"):
            msm_residual_of_gauge_trajectory(
                MapTrajectory(times=skewed_times, maps=traj.maps, dt=traj.dt)
            )

    def test_residual_drops_under_refinement(self):
        # One rung of the convergence ladder: halving both dt and h must
        # shrink the residual at least threefold (frozen pilot values
        # 4.5e-2 -> 2.1e-4).  The raw residual (constant zero modes
        # dropped) must floor well above the corrected one at n=64; the
        # gap is the measured size of the flat connection on the torus.
        dt0 = 3.2 * max_stable_dt(Grid2D(n=128, length=1.0))
        reports = []
        for n, dt in ((32, dt0), (64, dt0 / 2)):
            traj = evolve_map(bump_map(n), dt=dt, n_steps=4, store_every=1)
            reports.append(msm_residual_of_gauge_trajectory(traj))
        coarse, fine = reports
        assert fine.max_residual() < coarse.max_residual() / 3
        assert fine.max_residual() < 1e-3
        assert np.min(fine.residuals_raw) > 10 * fine.max_residual()
        assert np.max(fine.alpha_identity) < np.max(coarse.alpha_identity) / 3


class TestScalingInvariance:
    def test_pure_mode_subsampling_is_exact(self):
        g = Grid2D(n=32, length=2 * np.pi)
        one = np.exp(1j * (g.x + 2 * g.y))
        st = MSMState(grid=g, u1=one, u2=0.5 * one)
        scaled = scale_state(st, 2)
        expect = 2 * np.exp(2j * (g.x + 2 * g.y))
        np.testing.assert_allclose(scaled.u1, expect, atol=1e-12)
        np.testing.assert_allclose(scaled.u2, 0.5 * expect, atol=1e-12)

    def test_invalid_scale_rejected(self):
        st = MSMState.zero(Grid2D(n=16, length=1.0))
        for bad in (0, -2, 1.5):
            with pytest.raises(ValueError):
                scale_state(st, bad)

    def test_alpha_one_is_trivial(self):
        st = gaussian_state(32, 2 * np.pi, 0.01)
        report = scaling_invariance_test(st, 1, SolverConfig(dt=1e-3, t_final=0.01))
        assert report.discrepancy == 0.0

    def test_discrepancy_small_and_shrinking(self):
        # The integrator is exactly homogeneous under the scaling, so the
        # two paths differ only through the spectral tail folded over by
        # subsampling (and the fixed dealias cutoff riding along).  Frozen
        # pilot values: 8.0e-8 at n=64, 4.1e-10 at n=128.
        cfg = SolverConfig(dt=2e-3, t_final=0.08)
        fine = scaling_invariance_test(gaussian_state(64, 2 * np.pi, 0.01), 2, cfg)
        finer = scaling_invariance_test(gaussian_state(128, 2 * np.pi, 0.01), 2, cfg)
        assert fine.discrepancy < 1e-6
        assert finer.discrepancy < fine.discrepancy / 10


class TestRegularityPersistence:
    def test_zero_data_runs_to_cap(self):
        st = MSMState.zero(Grid2D(n=16, length=1.0))
        report = regularity_persistence_test(st, 1, SolverConfig(dt=1e-3, t_final=0.01))
        assert report.capped
        assert report.lifetime == pytest.approx(0.01)

    def test_growth_factor_must_exceed_one(self):
        st = MSMState.zero(Grid2D(n=16, length=1.0))
        with pytest.raises(ValueError):
            regularity_persistence_test(st, 1, SolverConfig(dt=1e-3, t_final=0.01), growth_factor=1.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_small_data_outlives_large(self, k):
        # Doubling norms four-fold moves the blow-up of the growth cap
        # from beyond the horizon to deep inside it.  Frozen pilot
        # lifetime for the large branch: 0.023 (dt-converged).
        cfg = SolverConfig(dt=5e-4, t_final=0.05)
        small = regularity_persistence_test(
            bandlimited_state(32, 2 * np.pi, 0.5, 3, seed=11), k, cfg
        )
        large = regularity_persistence_test(
            bandlimited_state(32, 2 * np.pi, 2.0, 3, seed=11), k, cfg
        )
        assert small.capped
        assert not large.capped
        assert large.lifetime < cfg.t_final / 2
        assert len(large.times) == len(large.hk_norms)
        assert large.sup_norm > hk_norm(bandlimited_state(32, 2 * np.pi, 2.0, 3, seed=11), k)
