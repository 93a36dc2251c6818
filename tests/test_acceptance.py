"""Acceptance checklist: one test per headline guarantee, numbered 01-10.

Run with ``pytest -v tests/test_acceptance.py`` to get a one-line pass/fail
verdict per guarantee.  Each test also prints a ``PASS`` line with its
measured figures (visible with ``-s`` or in captured output), so a verbose
run doubles as the sign-off sheet.  Wall-clock budgets that are part of a
guarantee are asserted alongside the tolerances.
"""

import time

import numpy as np

from msmlab.conventions import NLS_CUBIC_COEF
from msmlab.gauge import (
    build_gauge_state,
    fit_nls_coefficient,
    hasimoto_trajectory,
    soliton_nls_residual,
    verify_consistency,
)
from msmlab.maps import evolve as evolve_map
from msmlab.maps import max_stable_dt
from msmlab.msm import (
    MSMState,
    SolverConfig,
    evolve as evolve_pair,
    hk_norm,
    mass,
    msm_residual_of_gauge_trajectory,
    regularity_persistence_test,
    scaling_invariance_test,
)
from msmlab.presets import map_preset
from msmlab.spectral import Grid1D, Grid2D
from msmlab.xsb import (
    MultiplierSpec,
    Trial,
    bilinear_embedding_test,
    counting_bound,
    duality_pairing,
    exact_norm_k2,
    free_solution_slope,
    indicator_pair_multiplier,
    multiplier_norm_bounds,
    paraboloid_mode_dict,
    ratio_test_cubic,
    ratio_test_nullform,
    ratio_test_quintic,
    realize_mode_field,
    sample_trials,
    white_mode_dict,
    xsb_norm,
)

LENGTH = 4 * np.pi
TWIN = 4.0


def _pass(tag: str, detail: str) -> None:
    print(f"PASS {tag}: {detail}")


def _bandlimited_pair(n, length, amp, band, seed) -> MSMState:
    """Random pair with modes in [-band, band]^2, grid-independent coefficients."""
    g = Grid2D(n=n, length=length)
    rng = np.random.default_rng(seed)
    c1 = np.zeros(g.shape, dtype=complex)
    c2 = np.zeros(g.shape, dtype=complex)
    for mx in range(-band, band + 1):
        for my in range(-band, band + 1):
            c1[mx, my] = rng.standard_normal() + 1j * rng.standard_normal()
            c2[mx, my] = rng.standard_normal() + 1j * rng.standard_normal()
    norm = 2 * band + 1
    return MSMState(grid=g, u1=amp * g.ifft(c1 * n**2) / norm, u2=amp * g.ifft(c2 * n**2) / norm)


def _gaussian_pair(n, length, amp) -> MSMState:
    g = Grid2D(n=n, length=length)
    c = length / 2
    env = np.exp(-((g.x - c) ** 2 + (g.y - c) ** 2) / (2 * (0.08 * length) ** 2))
    phase = np.exp(2j * np.pi * (2 * g.x + g.y) / length)
    return MSMState(grid=g, u1=amp * env * phase, u2=0.8 * amp * env * np.conj(phase))


def _white_field(seed, n=32, nt=64):
    g = Grid2D(n=n, length=LENGTH)
    return realize_mode_field(g, nt, TWIN, white_mode_dict(4, 8, seed))


def test_01_kinematic_gauge_identities_converge():
    # All three derived-field identities (divergence constraint, mixed
    # torsion relation, curvature relation) hold to 1e-8 on the bump
    # preset and every residual shrinks at least tenfold from n=64 to
    # n=128.  Budget: 10 s.
    t0 = time.perf_counter()
    residuals = {}
    params = {"amplitude": 0.1, "width": 0.07}
    for n in (64, 128):
        mf = map_preset(Grid2D(n=n, length=1.0), "smooth_bump", params)
        rep = verify_consistency(build_gauge_state(mf))
        residuals[n] = (rep.div_a, rep.torsion, rep.curvature)
    elapsed = time.perf_counter() - t0

    for n in (64, 128):
        for value in residuals[n]:
            assert value < 1e-8
    improvements = [c / f for c, f in zip(residuals[64], residuals[128])]
    assert min(improvements) >= 10.0
    assert elapsed <= 10.0
    _pass(
        "01 gauge identities",
        f"worst {max(residuals[64]):.2e} (n=64), {max(residuals[128]):.2e} (n=128), "
        f"min improvement {min(improvements):.0f}x, {elapsed:.1f}s",
    )


def test_02_gauged_trajectory_solves_derivative_system():
    # The gauge transform of an integrated map trajectory must satisfy the
    # derivative-field evolution system; the worst space-time residual has
    # to fall by at least 3x per rung of a (dt, h) -> (dt/2, h/2) ladder.
    # Budget: 120 s.
    t0 = time.perf_counter()
    dt0 = 0.8 * max_stable_dt(Grid2D(n=128, length=1.0)) * 4  # finest rung at 0.8x the bound
    worst = []
    for i, n in enumerate((32, 64, 128)):
        mf = map_preset(Grid2D(n=n, length=1.0), "smooth_bump")
        traj = evolve_map(mf, dt=dt0 / 2**i, n_steps=4)
        worst.append(msm_residual_of_gauge_trajectory(traj).max_residual())
    elapsed = time.perf_counter() - t0

    drops = [worst[i] / worst[i + 1] for i in range(len(worst) - 1)]
    assert min(drops) >= 3.0
    assert elapsed <= 120.0
    _pass(
        "02 master oracle",
        "residuals " + " -> ".join(f"{w:.2e}" for w in worst)
        + f", per-rung drops {drops[0]:.0f}x / {drops[1]:.1f}x, {elapsed:.1f}s",
    )


def test_03_one_dimensional_gauge_reduces_to_cubic_nls():
    # Three independent chart-real initial data evolve under the map flow;
    # the 1-D gauge transform of each trajectory fits a cubic NLS with one
    # shared constant (relative spread < 1%).  The eta=1 bright soliton
    # satisfies the same NLS to 1e-8 under spectral differentiation.
    grid = Grid1D(n=256, length=2 * np.pi)
    coefficients = []
    for seed in range(3):
        chart = {"band": 2, "amplitude": 0.4, "real": True}
        mf = map_preset(grid, "random_seeded", chart, seed=seed)
        traj = evolve_map(mf, dt=4.8e-5, n_steps=60)
        fit = fit_nls_coefficient(hasimoto_trajectory(traj), traj.dt, grid)
        assert fit.residual < 1e-4
        coefficients.append(fit.c)

    spread = (max(coefficients) - min(coefficients)) / abs(np.mean(coefficients))
    assert spread < 0.01
    assert abs(np.mean(coefficients) - NLS_CUBIC_COEF) < 1e-3

    soliton = soliton_nls_residual(Grid1D(n=512, length=50.0), eta=1.0)
    assert soliton < 1e-8
    _pass(
        "03 cubic reduction",
        f"c = {np.mean(coefficients):.6f}, spread {spread:.1e}, soliton residual {soliton:.1e}",
    )


def test_04_independent_integrators_cross_validate():
    # Strang splitting (second order) and ETDRK4 (fourth order) are
    # independent schemes: their mutual gap, which Strang's error dominates,
    # must shrink at observed order >= 1.9 under dt halving, and each must
    # conserve mass to 1e-6 relative over 100 steps.
    st = _bandlimited_pair(32, 2 * np.pi, 0.5, 4, seed=3)
    g = st.grid
    gaps = []
    for dt in (0.01, 0.005, 0.0025):
        a = evolve_pair(st, SolverConfig(dt=dt, t_final=0.2, scheme="strang_split"))[-1]
        b = evolve_pair(st, SolverConfig(dt=dt, t_final=0.2, scheme="etd_rk4"))[-1]
        gaps.append(np.hypot(g.norm2(a.u1 - b.u1), g.norm2(a.u2 - b.u2)))
    orders = [np.log2(gaps[i] / gaps[i + 1]) for i in range(len(gaps) - 1)]
    assert min(orders) >= 1.9

    drifts = []
    for scheme in ("strang_split", "etd_rk4"):
        cfg = SolverConfig(dt=1e-3, t_final=0.1, scheme=scheme)
        assert cfg.n_steps == 100
        out = evolve_pair(st, cfg)[-1]
        drifts.append(abs(mass(out) - mass(st)) / mass(st))
    assert max(drifts) < 1e-6
    _pass(
        "04 solver cross-validation",
        f"observed orders {orders[0]:.2f} / {orders[1]:.2f}, "
        f"mass drifts {drifts[0]:.1e} / {drifts[1]:.1e}",
    )


def test_05_scaling_covariance_at_matched_resolution():
    # Scale-then-solve and solve-then-scale agree to 1e-4 for alpha=2 at
    # matched resolution, and the discrepancy shrinks under refinement.
    cfg = SolverConfig(dt=2e-3, t_final=0.08)
    disc = {
        n: scaling_invariance_test(_gaussian_pair(n, 2 * np.pi, 0.01), 2, cfg).discrepancy
        for n in (64, 128)
    }
    assert disc[64] < 1e-4
    assert disc[128] < disc[64]
    _pass("05 scaling criticality", f"discrepancy {disc[64]:.1e} (n=64) -> {disc[128]:.1e} (n=128)")


def test_06_dispersive_norm_identities_and_window_slopes():
    # Conjugation flips the dispersion sign isometrically and the duality
    # pairing obeys Cauchy-Schwarz, both to 1e-12 across a 50-member
    # random ensemble; the free-solution window-width exponent stays below
    # (1 - 2b)/2 + 0.1 for b in {0.51, 0.6}.
    members = [_white_field(seed) for seed in range(50)]

    worst_iso = 0.0
    for f in members:
        a = xsb_norm(f, 0.7, 0.55, +1)
        b = xsb_norm(f.conjugate(), 0.7, 0.55, -1)
        worst_iso = max(worst_iso, abs(a - b) / a)
    assert worst_iso < 1e-12

    sharpest = 0.0
    for u, w in zip(members[0::2], members[1::2]):
        pair = abs(duality_pairing(u, w))
        bound = xsb_norm(u, 0.3, 0.51, +1) * xsb_norm(w, -0.3, -0.51, -1)
        sharpest = max(sharpest, pair / bound)
        assert pair <= bound * (1 + 1e-12)

    rng = np.random.default_rng(7)
    g = Grid2D(n=32, length=LENGTH)
    coef = np.zeros(g.shape, complex)
    for a in range(-4, 5):
        for b in range(-4, 5):
            coef[a, b] = rng.standard_normal() + 1j * rng.standard_normal()
    u0 = np.fft.ifft2(coef) * g.n**2
    slopes = {}
    for b in (0.51, 0.6):
        slope = free_solution_slope(g, u0, 1.0, b, [0.5, 0.25, 0.125], nt=2048, t_window=16.0)
        assert slope <= (1 - 2 * b) / 2 + 0.1
        slopes[b] = slope
    _pass(
        "06 dispersive norms",
        f"isometry gap {worst_iso:.1e}, sharpest pairing at {sharpest:.0%} of bound, "
        f"slopes {slopes[0.51]:+.3f} / {slopes[0.6]:+.3f}",
    )


def test_07_estimate_ratios_stable_under_grid_doubling():
    # Every ratio suite at eps = 0.01, s = 100 eps keeps its ensemble max
    # within a factor 2 between (32^2 x 64) and (64^2 x 128), including an
    # adversarial ensemble concentrated on the dispersive paraboloid.
    # Budget: 600 s total.
    eps, s = 0.01, 1.0
    assert s == 100 * eps
    t0 = time.perf_counter()

    levels = {}
    for n, nt in ((32, 64), (64, 128)):
        g = Grid2D(n=n, length=LENGTH)

        def trials(arity, offset):
            return sample_trials(g, nt, TWIN, arity, 6, 7000 + offset, 5, 10)

        maxima = {}
        for rep in ratio_test_cubic(trials(3, 0), s, eps)[0]:
            maxima[rep.test_name] = rep.max_ratio
        maxima["quintic"] = ratio_test_quintic(trials(5, 1), eps)[0][0].max_ratio
        maxima["nullform"] = ratio_test_nullform(trials(4, 2), eps)[0][0].max_ratio
        (uv, u_conj_v, diagonal), _ = bilinear_embedding_test(trials(2, 3), 1.0, eps)
        maxima["bilinear_uv"] = uv.max_ratio
        maxima["bilinear_u_conj_v"] = u_conj_v.max_ratio
        maxima["bilinear_diagonal"] = diagonal.max_ratio

        adversarial = [
            Trial(
                fields=tuple(
                    realize_mode_field(
                        g, nt, TWIN,
                        paraboloid_mode_dict(5, 10, g.length, TWIN, 9000 + 13 * i + j),
                    )
                    for j in range(3)
                ),
                seed=9000 + 13 * i,
                flavor="paraboloid",
            )
            for i in range(6)
        ]
        for rep in ratio_test_cubic(adversarial, s, eps)[0]:
            maxima[f"paraboloid_{rep.test_name}"] = rep.max_ratio

        levels[n] = maxima
    elapsed = time.perf_counter() - t0

    worst_factor = 0.0
    for key, coarse in levels[32].items():
        fine = levels[64][key]
        assert coarse > 0 and fine > 0
        factor = max(fine / coarse, coarse / fine)
        worst_factor = max(worst_factor, factor)
        assert factor < 2.0, f"{key}: {coarse:.3e} -> {fine:.3e}"
    assert elapsed <= 600.0
    _pass(
        "07 ratio stability",
        f"{len(levels[32])} suite maxima, worst doubling factor {worst_factor:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_08_transport_pairing_assembly_and_degeneracy():
    # The direct and integrated-by-parts assemblies of the transport
    # pairing agree to 1e-9, and an identical-pair stream source vanishes,
    # zeroing the pairing up to Poisson-solve roundoff.
    g = Grid2D(n=32, length=LENGTH)
    trials = sample_trials(g, 64, TWIN, 4, 6, 811, 5, 10)
    _, extras = ratio_test_nullform(trials, 0.01)
    mismatch = extras["nullform_ibp_mismatch"]
    assert mismatch < 1e-9

    base = trials[0]
    degenerate = Trial(
        fields=(base.fields[0], base.fields[0], base.fields[1], base.fields[2]),
        seed=base.seed,
        flavor=base.flavor,
    )
    (degen,), _ = ratio_test_nullform([degenerate], 0.01)
    assert degen.max_ratio < 1e-15
    _pass(
        "08 transport pairing",
        f"assembly mismatch {mismatch:.1e}, "
        f"degenerate ratio {degen.max_ratio:.1e}",
    )


def test_09_multiplier_brackets_and_counting_bound():
    # On Z_8 with k=3, twenty random indicator pairs: certified lower
    # bound never exceeds the sliced upper bound nor the pair-counting
    # bound.  Twenty random k=2 multipliers: both bounds land within 1e-6
    # of the exact norm.
    rng = np.random.default_rng(505)
    for trial in range(20):
        a = [int(x) for x in rng.choice(8, size=rng.integers(1, 6), replace=False)]
        b = [int(x) for x in rng.choice(8, size=rng.integers(1, 6), replace=False)]
        lo, up = multiplier_norm_bounds(
            indicator_pair_multiplier(8, a, b), restarts=50, seed=trial
        )
        assert lo <= up + 1e-12
        assert lo <= counting_bound(8, a, b) + 1e-12

    worst_gap = 0.0
    for trial in range(20):
        spec = MultiplierSpec(
            k=2, modulus=8, dim=1,
            m=rng.standard_normal(8) + 1j * rng.standard_normal(8),
        )
        lo, up = multiplier_norm_bounds(spec, restarts=50, seed=trial)
        exact = exact_norm_k2(spec)
        assert lo <= exact + 1e-12
        assert exact <= up + 1e-12
        worst_gap = max(worst_gap, exact - lo, up - exact)
        assert worst_gap < 1e-6
    _pass("09 multiplier estimator", f"worst k=2 bracket gap {worst_gap:.1e}")


def test_10_lifetime_tracks_low_norm_not_h1():
    # Five states share the exact same mass while their H1 norms span more
    # than 10x (ripples at increasing wavenumber, constant amplitude).
    # Measured stable lifetimes, the time until the H1 norm doubles or the
    # horizon, must agree within 25%; here every member holds its norm to
    # a fraction of a percent for the whole horizon.
    g = Grid2D(n=64, length=2 * np.pi)
    ripples = ((2, 0), (3, 0), (6, 6), (12, 12), (21, 21))
    members = [
        MSMState(
            grid=g,
            u1=0.05 * np.exp(1j * g.x) + 0.12 * np.exp(1j * (kx * g.x + ky * g.y)),
            u2=0.025 * np.exp(1j * g.y),
        )
        for kx, ky in ripples
    ]

    masses = [mass(st) for st in members]
    assert max(masses) - min(masses) <= 1e-12 * max(masses)
    h1 = [hk_norm(st, 1) for st in members]
    span = max(h1) / min(h1)
    assert span >= 10.0

    cfg = SolverConfig(dt=5e-3, t_final=1.0)
    lifetimes = []
    for st in members:
        rep = regularity_persistence_test(st, 1, cfg)
        lifetimes.append(rep.lifetime)
        assert max(rep.hk_norms) / rep.hk_norms[0] < 1.01
    spread = (max(lifetimes) - min(lifetimes)) / min(lifetimes)
    assert spread < 0.25
    _pass(
        "10 regularity persistence",
        f"H1 span {span:.1f}x, lifetimes all {lifetimes[0]:.2f}, spread {spread:.0%}",
    )
