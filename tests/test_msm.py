"""Derivative-field system: assembly, stepping, oracle, invariance."""

import functools
import importlib
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from msmlab.conventions import (
    ALPHA_DIAG_COEF,
    ALPHA_MIXED_COEF,
    BETA_COEF,
    IM_CUBIC_COEF,
)
from msmlab.errors import ConfigError, SolverBlowupError
from msmlab.gauge import alpha_hat, beta_hat, build_gauge_state, verify_consistency
from msmlab.maps import MapField, evolve as evolve_map, max_stable_dt
from msmlab import msm
from msmlab.msm import (
    SCHEMES,
    MSMState,
    SolverConfig,
    _propagator_tables,
    _rhs_from_connection,
    evolve,
    hk_norm,
    mass,
    msm_residual_of_gauge_trajectory,
    nonlinearity,
    regularity_persistence_test,
    scale_state,
    scaling_invariance_test,
    step,
)
from msmlab.presets import map_preset
from msmlab.spectral import Grid2D
from memtrace import traced_peak
from reference_ops import riesz_alpha


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
            {"dt": 0.1, "t_final": 1.0, "scheme": "Strang_Split"},
            {"dt": 0.1, "t_final": 1.0, "scheme": "picard_duhamel"},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dealias": 1},
            {"terms": ("null", "septic")},
            {"dealias": "yes"},
        ],
    )
    def test_removed_fields_rejected(self, kwargs):
        # A step always evaluates all four terms under the 2/3 rule, so
        # neither key is a field, whatever its value.
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            SolverConfig(dt=0.1, t_final=1.0, **kwargs)

    def test_schemes_are_strang_and_etdrk4(self):
        assert SCHEMES == ("strang_split", "etd_rk4")
        with pytest.raises(ConfigError, match=r"one of \('strang_split', 'etd_rk4'\)"):
            SolverConfig(dt=0.1, t_final=1.0, scheme="picard_duhamel")

    def test_n_steps_rounds(self):
        assert SolverConfig(dt=0.1, t_final=1.0).n_steps == 10
        assert SolverConfig(dt=0.1, t_final=1.0000001).n_steps == 10


# The potentials are Fourier multipliers, so filtering the potential is
# filtering its quadratic source, as the direct solver does.


def _dealiased(g, f: np.ndarray) -> np.ndarray:
    """f under the grid's two-thirds mask; a real f stays real."""
    out = g.ifft(g.dealias_mask * g.fft(f))
    return out if np.iscomplexobj(f) else out.real


def _beta(st: MSMState, dealias: bool = True) -> np.ndarray:
    beta = st.grid.irfft(beta_hat(st.grid, st.u1, st.u2, st.sign))
    return _dealiased(st.grid, beta) if dealias else beta


def _alpha(st: MSMState, dealias: bool = True) -> np.ndarray:
    alpha = st.grid.irfft(alpha_hat(st.grid, st.u1, st.u2, st.sign))
    return _dealiased(st.grid, alpha) if dealias else alpha


def physical_nonlinearity(st: MSMState, dealias: bool = True):
    """The nonlinearity in physical space: fft, the spectral assembly, ifft."""
    g = st.grid
    h1, h2 = nonlinearity(st, g.fft(st.u1), g.fft(st.u2), dealias, (st.u1, st.u2))
    return g.ifft(h1), g.ifft(h2)


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
        a_p = _alpha(st, dealias=False)
        a_r = riesz_alpha(st.grid, st.u1, st.u2, st.sign)
        scale = max(st.grid.norm2(a_p), 1e-300)
        assert st.grid.norm2(a_p - a_r) / scale < 1e-9


class TestNonlinearity:
    def test_zero_state_zero_nonlinearity(self):
        st = MSMState.zero(Grid2D(n=16, length=1.0))
        f1, f2 = physical_nonlinearity(st)
        assert np.all(f1 == 0) and np.all(f2 == 0)

    def test_parallel_fields_kill_transport_and_quintic(self):
        # u2 parallel to u1 makes the stream potential vanish identically,
        # so only the alpha term survives (the Im coupling dies pointwise).
        # The package's value must then be the reference's alpha part alone.
        st = bandlimited_state(32, 2 * np.pi, 0.6, 3, seed=7)
        aligned = MSMState(grid=st.grid, u1=st.u1, u2=2.0 * st.u1)
        parts = {t: _reference_nonlinearity(aligned, (t,), True) for t in TERMS}
        for name in ("null", "quintic", "im_cubic"):
            assert max(np.max(np.abs(parts[name][0])), np.max(np.abs(parts[name][1]))) < 1e-13
        assert np.max(np.abs(parts["alpha_cubic"][0])) > 1e-3
        for full, alpha in zip(physical_nonlinearity(aligned), parts["alpha_cubic"]):
            assert np.max(np.abs(full - alpha)) < 1e-13

    def test_breakdown_sums_to_full(self):
        # The reference's four term classes, evaluated one at a time, sum
        # to the package's single full evaluation.
        st = bandlimited_state(32, 2 * np.pi, 0.8, 4, seed=8)
        parts = {t: _reference_nonlinearity(st, (t,), True) for t in TERMS}
        f1, f2 = physical_nonlinearity(st)
        s1 = sum(parts[t][0] for t in TERMS)
        s2 = sum(parts[t][1] for t in TERMS)
        np.testing.assert_allclose(f1, s1, atol=1e-13)
        np.testing.assert_allclose(f2, s2, atol=1e-13)

    def test_each_term_conserves_mass(self):
        # Re<F, u> = 0 for every term class: the alpha and gradient-square
        # terms are pointwise skew, the Im coupling cancels pairwise, and
        # the transport term is advection by a divergence-free field.
        st = bandlimited_state(32, 2 * np.pi, 0.8, 4, seed=9)
        g = st.grid
        parts = {t: _reference_nonlinearity(st, (t,), False) for t in TERMS}
        parts["full"] = physical_nonlinearity(st, dealias=False)
        for name, (f1, f2) in parts.items():
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
            f_spec = physical_nonlinearity(st, dealias=False)
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
    @pytest.mark.parametrize("n,band", [
        pytest.param(32, 7, id="32"), pytest.param(64, 7, id="64"),
        pytest.param(32, 16, id="32-band16"),
    ])
    def test_fourier_assembly_matches_physical_reference(self, n, band, sign, dealias):
        # Band 7 puts the quadratic products past the n=32 dealias edge, so
        # the filter placement is exercised, not just the band-limited case.
        # Band n/2 fills the Nyquist lines, where the real potentials drop
        # the odd symbols i k_x, i k_y and keep only the corner of k_x k_y.
        st = bandlimited_state(n, 2 * np.pi, 0.8, band, seed=30, sign=sign)
        g = st.grid
        f1, f2 = physical_nonlinearity(st, dealias=dealias)
        r1, r2 = _reference_nonlinearity(st, TERMS, dealias)
        num = np.hypot(g.norm2(f1 - r1), g.norm2(f2 - r2))
        assert num < 1e-13 * np.hypot(g.norm2(r1), g.norm2(r2))


# The reference's term classes; the package always sums all four.
TERMS = ("null", "alpha_cubic", "im_cubic", "quintic")


def _reference_nonlinearity(st: MSMState, terms, dealias: bool):
    """Term-by-term physical-space assembly, each product filtered on its own.

    It shares no potential code with the solver: beta is the inverse
    Laplacian of its source and alpha the Riesz-form reference.
    """
    g, u1, u2 = st.grid, st.u1, st.u2
    filt = (lambda f: _dealiased(g, f)) if dealias else (lambda f: f)
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
        alpha = filt(riesz_alpha(g, u1, u2, st.sign))
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
    @pytest.mark.parametrize("scheme", ["strang_split", "etd_rk4"])
    def test_zero_state_is_fixed_point(self, scheme):
        st = MSMState.zero(Grid2D(n=16, length=1.0))
        out = step(st, SolverConfig(dt=0.01, t_final=0.01, scheme=scheme))
        assert np.all(out.u1 == 0) and np.all(out.u2 == 0)
        assert out.t == pytest.approx(0.01)

    @pytest.mark.parametrize("scheme", ["strang_split", "etd_rk4"])
    def test_free_evolution_is_exact(self, monkeypatch, scheme):
        # With a zero nonlinearity bound where the steppers read it, each
        # scheme must reproduce the Fourier-exact propagator to roundoff at
        # any dt.
        def zero(state, v1, v2, dealias=True, fields=None):
            return np.zeros_like(v1), np.zeros_like(v2)

        monkeypatch.setattr(msm, "nonlinearity", zero)
        st = bandlimited_state(32, 2 * np.pi, 1.0, 4, seed=10)
        g = st.grid
        cfg = SolverConfig(dt=0.05, t_final=0.25, scheme=scheme)
        out = evolve(st, cfg)[-1]
        phase = np.exp(-1j * g.k2 * cfg.t_final)
        exact1 = g.ifft(phase * g.fft(st.u1))
        exact2 = g.ifft(phase * g.fft(st.u2))
        np.testing.assert_allclose(out.u1, exact1, atol=1e-12)
        np.testing.assert_allclose(out.u2, exact2, atol=1e-12)

    def test_cross_scheme_convergence_order(self):
        # Strang (second order) and ETDRK4 (fourth order) are distinct
        # integrators; Strang's error dominates their mutual gap at matched
        # dt, so the gap must vanish at order ~2.  Acceptance 04 checks this
        # for the sign +1 target; this row integrates sign -1.
        # Measured orders: 2.02 and 2.01.
        st = bandlimited_state(32, 2 * np.pi, 0.5, 4, seed=3, sign=-1.0)
        gaps = []
        for dt in (0.01, 0.005, 0.0025):
            a = evolve(st, SolverConfig(dt=dt, t_final=0.2, scheme="strang_split"))[-1]
            b = evolve(st, SolverConfig(dt=dt, t_final=0.2, scheme="etd_rk4"))[-1]
            g = st.grid
            gaps.append(np.hypot(g.norm2(a.u1 - b.u1), g.norm2(a.u2 - b.u2)))
        assert np.log2(gaps[0] / gaps[1]) > 1.9
        assert np.log2(gaps[1] / gaps[2]) > 1.9

    @pytest.fixture(scope="class")
    def fine_run(self):
        st = bandlimited_state(32, 2 * np.pi, 0.5, 4, seed=3)
        return st, evolve(st, SolverConfig(dt=0.1 / 160, t_final=0.1, scheme="etd_rk4"))[-1]

    @pytest.mark.parametrize("scheme,order", [("etd_rk4", 3.8), ("strang_split", 1.9)])
    def test_self_convergence_order(self, fine_run, scheme, order):
        # Each scheme against a finer run: the cross-scheme gap above reads
        # Strang's order whatever ETDRK4's is.  Measured orders: 3.95 and
        # 3.99 for ETDRK4, 2.02 and 2.00 for Strang.
        st, ref = fine_run
        g = st.grid
        errors = []
        for steps in (10, 20, 40):
            out = evolve(st, SolverConfig(dt=0.1 / steps, t_final=0.1, scheme=scheme))[-1]
            errors.append(np.hypot(g.norm2(out.u1 - ref.u1), g.norm2(out.u2 - ref.u2)))
        assert np.log2(errors[0] / errors[1]) >= order
        assert np.log2(errors[1] / errors[2]) >= order

    def test_etdrk4_coefficients_match_closed_forms(self):
        # Where |lambda| >= 1 the closed forms lose nothing to cancellation,
        # so the contour quadrature must match them to roundoff.  Measured:
        # at most 5.2e-13, in q at |k|^2 = 377, where e^{lambda/2} is within
        # 1e-3 of 1; with 8 contour points instead of 32, 2.7e-3.
        g = Grid2D(n=32, length=2 * np.pi)
        dt = 0.2
        index, tables = _propagator_tables(g, dt)
        lam = -1j * g.k2 * dt
        far = np.abs(lam) >= 1
        lam = lam[far]
        e = np.exp(lam)
        closed = (
            e,
            np.exp(lam / 2),
            dt * (np.exp(lam / 2) - 1) / lam,
            dt * (-4 - lam + e * (4 - 3 * lam + lam**2)) / lam**3,
            dt * (2 + lam + e * (lam - 2)) / lam**3,
            dt * (-4 - 3 * lam - lam**2 + e * (4 - lam)) / lam**3,
        )
        for table, exact in zip(tables, closed, strict=True):
            np.testing.assert_allclose(table[index][far], exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scheme", ["strang_split", "etd_rk4"])
    def test_mass_drift_over_100_steps(self, scheme):
        # Measured drift: 8.24e-8 for Strang, 3.49e-11 for ETDRK4.
        st = bandlimited_state(32, 2 * np.pi, 0.5, 4, seed=3)
        cfg = SolverConfig(dt=1e-3, t_final=0.1, scheme=scheme)
        assert cfg.n_steps == 100
        out = evolve(st, cfg)[-1]
        drift = abs(mass(out) - mass(st)) / mass(st)
        assert drift < 1e-6

    @pytest.mark.parametrize("store_every", [0, -1])
    def test_store_every_below_one_rejected(self, monkeypatch, store_every):
        st = MSMState.zero(Grid2D(n=8, length=1.0))
        monkeypatch.setattr("msmlab.msm.step", lambda *a: pytest.fail("stepped"))
        with pytest.raises(ValueError, match="store_every"):
            evolve(st, SolverConfig(dt=1e-3, t_final=3e-3), store_every=store_every)

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

    def test_etdrk4_blowup_is_typed_and_located(self):
        # Large data at a step far too coarse: ETDRK4 overflows at once.
        st = bandlimited_state(32, 2 * np.pi, 30.0, 4, seed=13)
        cfg = SolverConfig(dt=0.5, t_final=0.5, scheme="etd_rk4")
        with pytest.raises(SolverBlowupError) as lone:
            step(st, cfg)
        # A lone step knows its time but not its place in a run.
        assert lone.value.step is None and lone.value.t == pytest.approx(0.5)
        # Inside a run the step is located, and the last finite state is the data.
        with pytest.raises(SolverBlowupError) as located:
            evolve(st, cfg)
        blowup = located.value
        assert (blowup.step, blowup.t) == (1, pytest.approx(0.5))
        assert blowup.mass == pytest.approx(mass(st), rel=1e-12)
        assert blowup.h1 == pytest.approx(hk_norm(st, 1.0), rel=1e-12)
        assert "at step 1, t=0.5;" in str(blowup)


def _count_2d_transforms(monkeypatch) -> Counter:
    """Patch numpy's complex and real 2-D transforms to count every transformed slice.

    ``Grid2D.ifft`` runs through ``ifftn`` on axes (0, 1), so it is counted
    with the 2-D names.  The counter is keyed by transform name; ``total()``
    is the slice count.
    """
    count = Counter()
    for name in ("fft2", "ifft2", "ifftn", "rfft2", "irfft2"):
        original = getattr(np.fft, name)

        def counted(a, *args, name=name, original=original, **kwargs):
            ax = kwargs.get("axes", (-2, -1))
            a = np.asarray(a)
            count[name] += a.size // (a.shape[ax[0]] * a.shape[ax[1]])
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
        assert count.total() == per_step

    @pytest.mark.parametrize("scheme,calls", [("etd_rk4", 4), ("strang_split", 2)])
    def test_steppers_call_the_module_nonlinearity(self, monkeypatch, scheme, calls):
        # The steppers look nonlinearity up on the module at each call, so a
        # wrapper bound there, as by a tracer, sees every evaluation.
        seen = [0]
        core = msm.nonlinearity

        def counted(*args, **kwargs):
            seen[0] += 1
            return core(*args, **kwargs)

        monkeypatch.setattr(msm, "nonlinearity", counted)
        st = bandlimited_state(32, 2 * np.pi, 0.5, 4, seed=3)
        step(st, SolverConfig(dt=1e-3, t_final=1e-3, scheme=scheme))
        assert seen[0] == calls

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("with_fields,ifftn", [(True, 4), (False, 6)])
    def test_full_evaluation_cost(self, monkeypatch, dealias, with_fields, ifftn):
        # All four terms cost the same with or without the 2/3 rule; fields
        # the caller already has save the two inverse transforms of the pair.
        st = bandlimited_state(32, 2 * np.pi, 0.5, 4, seed=3)
        v1, v2 = st.grid.fft(st.u1), st.grid.fft(st.u2)
        fields = (st.u1, st.u2) if with_fields else None
        count = _count_2d_transforms(monkeypatch)
        nonlinearity(st, v1, v2, dealias, fields)
        assert count == Counter(rfft2=4, irfft2=3, fft2=2, ifftn=ifftn)

    def test_gauge_build_costs_eighteen(self, monkeypatch):
        # b_j: 4, psi: 6, a_j: 4, and one forward per alpha source plus
        # the inverse: 4.  Nothing is spent on a stream potential.
        mf = bump_map(32)
        count = _count_2d_transforms(monkeypatch)
        build_gauge_state(mf)
        assert count.total() == 18

    def test_real_potentials_take_the_real_pair(self, monkeypatch):
        # The beta source and the three alpha sources go forward through
        # rfft2; d_x beta, d_y beta and alpha (a0) come back through irfft2.
        st = bandlimited_state(32, 2 * np.pi, 0.5, 4, seed=3)
        v1, v2 = st.grid.fft(st.u1), st.grid.fft(st.u2)
        mf = bump_map(32)
        count = _count_2d_transforms(monkeypatch)
        nonlinearity(st, v1, v2)
        assert count == Counter(rfft2=4, irfft2=3, fft2=2, ifftn=6)
        count.clear()
        # Only the complex chart's gradient takes the complex pair.
        build_gauge_state(mf)
        assert count == Counter(rfft2=8, irfft2=6, fft2=2, ifftn=2)

    def test_verify_costs_twelve(self, monkeypatch):
        # Six derivatives, one forward and one inverse transform each; the
        # four of the real a_j take the real pair.
        gs = build_gauge_state(bump_map(32))
        count = _count_2d_transforms(monkeypatch)
        verify_consistency(gs)
        assert count.total() == 12
        assert count == Counter(rfft2=4, irfft2=4, fft2=2, ifftn=2)

    def test_small_map_step_runs_no_transform(self, monkeypatch):
        # At n <= 64 the real Laplacian is two dense products per component;
        # only the grid's first step builds its cached matrix through the
        # real pair.
        from msmlab import maps

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.fft transform in a warm n = 32 map step")

        mf = bump_map(32)
        dt = 0.5 * max_stable_dt(mf.grid)
        mf = maps.step_geometric(mf, dt)
        transforms = [name for name in np.fft.__all__ if "freq" not in name and "shift" not in name]
        for name in transforms:
            monkeypatch.setattr(np.fft, name, refuse)
        maps.step_geometric(mf, dt)

    def test_large_map_step_costs_six_per_evaluation(self, monkeypatch):
        # Above n = 64, one real pair on the three stacked components per
        # right-hand side.
        from msmlab import maps

        evaluations = [0]
        ll_values = maps._ll_values

        def counted(*args):
            evaluations[0] += 1
            return ll_values(*args)

        monkeypatch.setattr(maps, "_ll_values", counted)
        def refuse(*args, **kwargs):
            raise AssertionError("complex 2-D transform in a map step")

        mf = bump_map(128)
        count = _count_2d_transforms(monkeypatch)
        for name in ("fft2", "ifft2", "ifftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        maps.step_geometric(mf, 0.5 * max_stable_dt(mf.grid))
        assert evaluations[0] > 2
        assert count == Counter(rfft2=3 * evaluations[0], irfft2=3 * evaluations[0])

    def test_stacked_calls_count_every_slice(self, monkeypatch):
        g = Grid2D(n=16, length=1.0)
        count = _count_2d_transforms(monkeypatch)
        g.ifft(g.fft(np.zeros(g.shape + (3,))))
        assert count.total() == 6
        g.irfft(g.rfft(np.zeros(g.shape + (3,))))
        assert count.total() == 12


class TestWorkingSet:
    @pytest.mark.parametrize("scheme,fields", [("etd_rk4", 17), ("strang_split", 12)])
    def test_warm_step_peak_in_complex_fields(self, scheme, fields):
        # Measured 15.83 and 11.83 fields.  Five live ETDRK4 stage pairs and
        # right sides summed in fresh temporaries read 18.02 and 12.02;
        # numpy allocating each 1-D pass of a transform 19.52 and 13.52,
        # holding every ETDRK4 stage to the end 28, and for Strang keeping
        # N(v) through the second evaluation 15.5 and both components'
        # right sides at once 20.
        st = bandlimited_state(128, 1.0, 0.5, 6, seed=0)
        cfg = SolverConfig(dt=2e-4, t_final=2e-4, scheme=scheme)
        step(st, cfg)
        assert traced_peak(lambda: step(st, cfg)) < fields * st.u1.nbytes

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_etdrk4_step_is_the_one_expression_formula(self, monkeypatch, sign, dealias):
        # The stepper frees stages early, forms b in the arrays of s = e2 v
        # and c' = e2 a - q N(u) in those of N(u), and accumulates w in
        # place; the bits must be those of this form with every stage alive.
        # The steppers read the nonlinearity on the module, so each row
        # binds its dealias value there.
        monkeypatch.setattr(msm, "nonlinearity", functools.partial(nonlinearity, dealias=dealias))
        st = bandlimited_state(64, 1.0, 0.5, 6, seed=4, sign=sign)
        cfg = SolverConfig(dt=2e-4, t_final=2e-4, scheme="etd_rk4")
        g = st.grid
        index, tables = _propagator_tables(g, cfg.dt)
        e, e2, q, f1, f2, f3 = (t[index] for t in tables)

        def n(v1, v2, fields=None):
            return nonlinearity(st, v1, v2, dealias, fields)

        v1, v2 = g.fft(st.u1), g.fft(st.u2)
        n_u = n(v1, v2, (st.u1, st.u2))
        s1, s2 = e2 * v1, e2 * v2
        a1, a2 = s1 + q * n_u[0], s2 + q * n_u[1]
        n_a = n(a1, a2)
        b1, b2 = s1 + q * n_a[0], s2 + q * n_a[1]
        n_b = n(b1, b2)
        c1 = (e2 * a1 - q * n_u[0]) + 2 * q * n_b[0]
        c2 = (e2 * a2 - q * n_u[1]) + 2 * q * n_b[1]
        n_c = n(c1, c2)
        w1 = e * v1 + f1 * n_u[0] + 2 * f2 * n_a[0] + 2 * f2 * n_b[0] + f3 * n_c[0]
        w2 = e * v2 + f1 * n_u[1] + 2 * f2 * n_a[1] + 2 * f2 * n_b[1] + f3 * n_c[1]

        out = step(st, cfg)
        assert np.array_equal(out.u1, g.ifft(w1)) and np.array_equal(out.u2, g.ifft(w2))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_strang_step_is_the_one_expression_formula(self, monkeypatch, sign, dealias):
        # The stepper gathers the half step twice and forms the midpoint
        # argument in N(v)'s arrays; the bits must be those of the textbook
        # form with the full table alive.  Each row binds its dealias value
        # on the module, as above.
        monkeypatch.setattr(msm, "nonlinearity", functools.partial(nonlinearity, dealias=dealias))
        st = bandlimited_state(64, 1.0, 0.5, 6, seed=4, sign=sign)
        cfg = SolverConfig(dt=2e-4, t_final=2e-4, scheme="strang_split")
        g = st.grid
        index, tables = _propagator_tables(g, cfg.dt)
        half = tables[1][index]

        def n(v1, v2):
            return nonlinearity(st, v1, v2, dealias)

        v1, v2 = half * g.fft(st.u1), half * g.fft(st.u2)
        n_v = n(v1, v2)
        m1, m2 = n(v1 + (cfg.dt / 2) * n_v[0], v2 + (cfg.dt / 2) * n_v[1])
        w1, w2 = half * (v1 + cfg.dt * m1), half * (v2 + cfg.dt * m2)

        out = step(st, cfg)
        assert np.array_equal(out.u1, g.ifft(w1)) and np.array_equal(out.u2, g.ifft(w2))

    def test_cached_tables_take_less_than_one_field(self):
        # One int32 index and six vectors over the distinct |k|^2; the six
        # tables scattered onto the grid took six fields.
        g = Grid2D(n=256, length=1.0)
        index, tables = _propagator_tables(g, 2e-4)
        assert index.shape == g.shape and len(tables) == 6
        assert index.nbytes + sum(t.nbytes for t in tables) < g.n**2 * np.dtype(complex).itemsize
        assert np.array_equal(tables[1][index], np.exp(-0.5j * g.k2 * 2e-4))


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

    def test_holds_three_gauge_states_at_once(self, monkeypatch):
        # A centered difference reads three snapshots, so a 9-snapshot
        # trajectory needs no more than three gauge states alive; building
        # every state up front holds all 9.
        import msmlab.msm as msm_mod

        refs, most = [], 0

        def tracked(grid, w):
            nonlocal most
            gs = build(grid, w)
            refs.append(weakref.ref(gs))
            most = max(most, sum(r() is not None for r in refs))
            return gs

        build = msm_mod._gauge_state
        monkeypatch.setattr(msm_mod, "_gauge_state", tracked)
        traj = evolve_map(bump_map(32), dt=1e-5, n_steps=8, store_every=1)
        report = msm_residual_of_gauge_trajectory(traj)
        assert len(refs) == 9 and len(report.residuals) == 7
        assert most <= 3

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


def _solver_against_connection_gap(n: int) -> float:
    """Relative gap between the solver's right side and the chart connection's.

    On the gauge state of the map-side preset (random_seeded, band 3,
    amplitude 0.4, seed 0), i lap u + nonlinearity(u, dealias=False) is set
    against _rhs_from_connection(u, a - c, a0), with c the harmonic means.
    """
    g = Grid2D(n=n, length=1.0)
    gs = build_gauge_state(map_preset(g, "random_seeded", {"band": 3, "amplitude": 0.4}, seed=0))
    state = MSMState(grid=g, u1=gs.u1, u2=gs.u2, sign=gs.sign)
    spectra = nonlinearity(state, g.fft(gs.u1), g.fft(gs.u2), dealias=False)
    solver = [1j * g.laplacian(u) + g.ifft(nh) for u, nh in zip((gs.u1, gs.u2), spectra)]
    c1, c2 = gs.harmonic_means
    oracle = _rhs_from_connection(g, gs.u1, gs.u2, gs.a1 - c1, gs.a2 - c2, gs.a0)
    gap = np.hypot(*(g.norm2(s - r) for s, r in zip(solver, oracle)))
    return float(gap / np.hypot(*(g.norm2(r) for r in oracle)))


class TestSolverEquationMatchesTheMap:
    """The MSM solver's beta and Im-cubic terms against the map's own connection."""

    @pytest.mark.parametrize("n", [64, 128])
    def test_solver_right_side_is_the_connection_right_side(self, n):
        # Measured: 8.0e-11 at n=64 and 8.3e-16 at n=128.
        assert _solver_against_connection_gap(n) < 1e-9

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("module,name", [("gauge", "BETA_COEF"), ("msm", "IM_CUBIC_COEF")])
    def test_a_flipped_coupling_breaks_the_match(self, n, module, name, monkeypatch):
        # Negative control: either constant with the opposite sign misses by about 7e-2.
        mod = importlib.import_module(f"msmlab.{module}")
        monkeypatch.setattr(mod, name, -getattr(mod, name))
        assert _solver_against_connection_gap(n) > 1e-2


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
        # subsampling (and the fixed dealias cutoff riding along).  Measured:
        # 1.65e-7 at n=64, 4.1e-10 at n=128.
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
        # from beyond the horizon to deep inside it.  Measured lifetimes
        # of the large branch: 0.023 for k=1 and 0.0085 for k=2; at half
        # the dt they read 0.023 and 0.00875.
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
        assert np.max(large.hk_norms) > hk_norm(bandlimited_state(32, 2 * np.pi, 2.0, 3, seed=11), k)
