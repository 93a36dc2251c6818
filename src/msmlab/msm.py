"""Direct solver for the gauged derivative-field system on the torus.

The state is a pair of complex fields (u1, u2) evolving by

    d_t u_m = i lap u_m
              + 2 (beta_x1 d2 u_m - beta_x2 d1 u_m)     (transport, null form)
              - i |grad beta|^2 u_m                      (quintic)
              - i alpha u_m                              (nonlocal cubic)
              + IM_CUBIC_COEF * sign * Im(conj(u_m) u_k) u_k,   k != m,

with the stream and scalar potentials solved spectrally each evaluation by
:func:`msmlab.gauge.beta_hat` and :func:`msmlab.gauge.alpha_hat`, the
assembly the gauge transform uses.  The connection hidden in the
transport and quintic terms is a = (d2 beta, -d1 beta), divergence free by
construction; see :mod:`msmlab.conventions` for how the constants are
pinned.

:func:`nonlinearity` takes the spectra of the pair and returns the spectra
of the four terms; the steppers call it through this module's global
name.  It is assembled in Fourier space in 15 2-D transforms (13 when the
physical fields are at hand), so a step costs 62 with ETDRK4 (fourth
order) and 34 with Strang splitting (second order).  Seven of the
15 act on real fields and use the real pair: the four potential sources go
forward, and d_x beta, d_y beta and alpha come back.  An evaluation builds
the shared real fields once and then one component's right side at a time,
summed and transformed in place in the arrays of that component's gradient.
An ETDRK4 step sums its result as the stages go, forms each stage in the
arrays of one that no later formula reads and frees each stage once none
does, so it holds at most four stage pairs.  The six tables of the linear
flow are cached once per distinct |k|^2 with an int32 index of each mode
into them, under one field in all at n = 256, and built a block of values
at a time; a stepper gathers a table onto the grid only around the products
that read it.

:func:`evolve`, :func:`regularity_persistence_test` and the command line's
``msm`` runner iterate :func:`_stored_states`, which steps through
:func:`msmlab.maps._run`, so a failed step names its step and t.  The runner
reduces each snapshot to its trace row as it comes and drops it before the
run steps on, so it holds the state it steps from and no stored one.

As a standalone PDE on the torus the potentials are normalized to zero
mean and the connection carries no constant part.  Gauge transforms of
actual map trajectories pick up two torus-only zero-mode corrections (a
constant in-plane connection and a spatially constant phase drift); the
trajectory oracle :func:`msm_residual_of_gauge_trajectory` measures both
corrections from the data instead of assuming them away, and reports the
residual with and without them.  It charts and gauges the snapshots in
order and holds the chart and gauge state of only the three snapshots that
a centered difference reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .conventions import IM_CUBIC_COEF
from .errors import ConfigError, SolverBlowupError
from .gauge import _chart_fields, _gauge_state, alpha_hat, beta_hat
from .maps import MapTrajectory, _run
from .spectral import Grid2D

__all__ = [
    "MSMState",
    "SolverConfig",
    "nonlinearity",
    "step",
    "evolve",
    "mass",
    "hk_norm",
    "msm_residual_of_gauge_trajectory",
    "GaugeOracleReport",
    "scale_state",
    "scaling_invariance_test",
    "ScalingReport",
    "regularity_persistence_test",
    "PersistenceReport",
]

@dataclass(frozen=True)
class MSMState:
    """Instantaneous pair of gauged derivative fields."""

    grid: Grid2D
    u1: np.ndarray
    u2: np.ndarray
    sign: float = 1.0
    t: float = 0.0

    def __post_init__(self):
        for name in ("u1", "u2"):
            u = getattr(self, name)
            if u.shape != self.grid.shape:
                raise ValueError(f"{name} has shape {u.shape}, grid wants {self.grid.shape}")
            if not np.all(np.isfinite(u)):
                raise ValueError(f"{name} contains non-finite values")
        if self.u1.dtype != np.complex128:
            object.__setattr__(self, "u1", self.u1.astype(np.complex128))
        if self.u2.dtype != np.complex128:
            object.__setattr__(self, "u2", self.u2.astype(np.complex128))

    @classmethod
    def zero(cls, grid: Grid2D, sign: float = 1.0) -> "MSMState":
        z = np.zeros(grid.shape, dtype=np.complex128)
        return cls(grid=grid, u1=z, u2=z.copy(), sign=sign)


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_final: float
    scheme: str = "strang_split"

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.t_final < 0:
            raise ConfigError("t_final must be nonnegative")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


def mass(state: MSMState) -> float:
    """Conserved L2 mass of the pair."""
    g = state.grid
    return g.norm2(state.u1) ** 2 + g.norm2(state.u2) ** 2


def hk_norm(state: MSMState, k: float) -> float:
    g = state.grid
    return float(np.hypot(g.sobolev_norm(state.u1, k), g.sobolev_norm(state.u2, k)))


def nonlinearity(state: MSMState, v1, v2, dealias=True, fields=None):
    """Spectra of the four nonlinear terms, assembled in Fourier space.

    Takes and returns spectra: ``v1, v2`` are the spectra of the pair (its
    grid and sign come from ``state``) and ``fields`` the physical fields,
    when the caller has them.  The sum is of the transport null form, the
    quintic, the nonlocal cubic and the Im cubic.  The 2/3 filter is
    linear, so it acts once on each quadratic source and once on each
    summed output; ``dealias=False`` drops it, for reading the undealiased
    right side.
    """
    g, sign = state.grid, state.sign
    u1, u2 = fields if fields is not None else (g.ifft(v1), g.ifft(v2))
    mask, half_mask = (g.dealias_mask, g.half_dealias_mask) if dealias else (1.0, 1.0)
    bx, by = g.real_grad_from_hat(half_mask * beta_hat(g, u1, u2, sign))
    pot = bx**2 + by**2 + g.irfft(half_mask * alpha_hat(g, u1, u2, sign))
    coupling = (IM_CUBIC_COEF * sign) * np.imag(u1 * np.conj(u2))

    def right_side(v, u, other, cubic):
        # 2 (bx dy - by dx) - i pot u + cubic(coupling other), summed in dy and
        # transformed there; dx holds each product that dy takes in.
        dx, dy = g.grad_from_hat(v)
        np.multiply(bx, dy, out=dy)
        np.subtract(dy, np.multiply(by, dx, out=dx), out=dy)
        np.multiply(2.0, dy, out=dy)
        np.subtract(dy, np.multiply(np.multiply(1j, pot, out=dx), u, out=dx), out=dy)
        cubic(dy, np.multiply(coupling, other, out=dx), out=dy)
        return np.multiply(mask, g.fft(dy, out=dy), out=dy)

    n1 = right_side(v1, u1, u2, np.subtract)
    return n1, right_side(v2, u2, u1, np.add)


# -- time stepping -----------------------------------------------------------
#
# Each stepper returns the spectra of the next state; stage values stay in
# Fourier space and only ``step`` transforms back.


def _step_strang(state: MSMState, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Half linear flow (exact in Fourier), midpoint rule on N, half linear."""
    g = state.grid
    index, tables = _propagator_tables(g, cfg.dt)
    half = tables[1].take(index)
    v1, v2 = half * g.fft(state.u1), half * g.fft(state.u2)
    del half
    n1, n2 = nonlinearity(state, v1, v2)
    # N(v)'s arrays become the midpoint argument v + (dt/2) N(v).
    np.add(v1, np.multiply(cfg.dt / 2, n1, out=n1), out=n1)
    np.add(v2, np.multiply(cfg.dt / 2, n2, out=n2), out=n2)
    m1, m2 = nonlinearity(state, n1, n2)
    half = tables[1].take(index)
    return half * (v1 + cfg.dt * m1), half * (v2 + cfg.dt * m2)


@lru_cache(maxsize=8)
def _propagator_tables(grid: Grid2D, dt: float):
    """Linear propagators e^{-i|k|^2 dt}, e^{-i|k|^2 dt/2} and the ETDRK4 coefficients.

    The one home of the linear flow: Strang reads the half step and
    ETDRK4 all six tables.  The coefficients come from the
    contour-quadrature recipe.  They depend on the mode only through
    |k|^2, so each is evaluated once per distinct value.  Returns
    ``(index, tables)``: ``index`` holds each mode's position among the
    distinct values (int32, grid shaped) and ``tables`` the six per-value
    vectors (e_full, e_half, q, f1, f2, f3), so ``tables[j].take(index)`` is
    table j on the grid.  A stepper gathers a table right before the
    products that read it, binds it to a name first and drops it before the
    next evaluation of the nonlinearity.  The name matters for the bits:
    numpy may compute a product with a temporary operand into that
    temporary with the operands swapped, and complex multiplication is not
    bitwise commutative.
    """
    k2, where = np.unique(grid.k2.ravel(), return_inverse=True)
    lam = -1j * k2 * dt
    e_full = np.exp(lam)
    e_half = np.exp(lam / 2)
    # Mean-value evaluation of the phi functions over a full circle around
    # each (purely imaginary) eigenvalue; a half circle would only be valid
    # for a real spectrum.
    # The (values, points) temporaries are built a block of values at a
    # time, so the cold build stays well under the step's working set.
    m_pts = 32
    r = np.exp(2j * np.pi * (np.arange(1, m_pts + 1) - 0.5) / m_pts)
    q, f1, f2, f3 = (np.empty_like(lam) for _ in range(4))
    for lo in range(0, lam.size, 512):
        rows = slice(lo, lo + 512)
        lr = lam[rows, None] + r[None, :]
        q[rows] = dt * np.mean((np.exp(lr / 2) - 1) / lr, axis=1)
        f1[rows] = dt * np.mean((-4 - lr + np.exp(lr) * (4 - 3 * lr + lr**2)) / lr**3, axis=1)
        f2[rows] = dt * np.mean((2 + lr + np.exp(lr) * (-2 + lr)) / lr**3, axis=1)
        f3[rows] = dt * np.mean((-4 - 3 * lr - lr**2 + np.exp(lr) * (4 - lr)) / lr**3, axis=1)
    return where.astype(np.int32).reshape(grid.shape), (e_full, e_half, q, f1, f2, f3)


def _step_etdrk4(state: MSMState, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Cox-Matthews ETDRK4, ordered so that at most four stage pairs are live.

    With s = e2 v the stages are a = s + q N(u), b = s + q N(a) and
    c = (e2 a - q N(u)) + 2 q N(b); w = e v + f1 N(u) takes 2 f2 N(a),
    2 f2 N(b) and f3 N(c) one at a time, as each evaluation comes.
    """
    g = state.grid
    index, tables = _propagator_tables(g, cfg.dt)
    v1, v2 = g.fft(state.u1), g.fft(state.u2)

    n_u = nonlinearity(state, v1, v2, fields=(state.u1, state.u2))
    e, f1 = tables[0].take(index), tables[3].take(index)
    w1, w2 = e * v1 + f1 * n_u[0], e * v2 + f1 * n_u[1]
    del e, f1
    e2, q = tables[1].take(index), tables[2].take(index)
    s1, s2 = e2 * v1, e2 * v2
    del v1, v2
    a1, a2 = s1 + q * n_u[0], s2 + q * n_u[1]
    # N(u)'s arrays become c' = e2 a - q N(u), the part of c known before N(a).
    c1, c2 = (np.subtract(e2 * a, np.multiply(q, n, out=n), out=n) for a, n in zip((a1, a2), n_u))
    del n_u, e2, q
    n_a = nonlinearity(state, a1, a2)
    del a1, a2
    q, f2 = tables[2].take(index), tables[4].take(index)
    # s's arrays become b = s + q N(a).
    np.add(s1, q * n_a[0], out=s1)
    np.add(s2, q * n_a[1], out=s2)
    w1 += 2 * f2 * n_a[0]
    w2 += 2 * f2 * n_a[1]
    del n_a, q, f2
    n_b = nonlinearity(state, s1, s2)
    del s1, s2
    q, f2 = tables[2].take(index), tables[4].take(index)
    c1 += 2 * q * n_b[0]
    c2 += 2 * q * n_b[1]
    w1 += 2 * f2 * n_b[0]
    w2 += 2 * f2 * n_b[1]
    del n_b, q, f2
    n_c = nonlinearity(state, c1, c2)
    f3 = tables[5].take(index)
    w1 += f3 * n_c[0]
    w2 += f3 * n_c[1]
    return w1, w2


_STEPPERS = {
    "strang_split": _step_strang,
    "etd_rk4": _step_etdrk4,
}
SCHEMES = tuple(_STEPPERS)


def step(state: MSMState, cfg: SolverConfig) -> MSMState:
    """Advance one step; a result without finite mass raises :class:`SolverBlowupError`."""
    g = state.grid
    t = state.t + cfg.dt
    with np.errstate(over="ignore", invalid="ignore"):
        w1, w2 = _STEPPERS[cfg.scheme](state, cfg)
        u1, u2 = g.ifft(w1), g.ifft(w2)
        if not np.isfinite(g.norm2(u1) ** 2 + g.norm2(u2) ** 2):
            raise SolverBlowupError(t, mass(state), hk_norm(state, 1.0))
    return MSMState(grid=g, u1=u1, u2=u2, sign=state.sign, t=t)


def _stored_states(state: MSMState, cfg: SolverConfig, store_every: int = 1):
    """Yield the start state and every ``store_every``-th state up to t_final.

    The run holds only the state it steps from, so a caller that reduces
    each snapshot as it comes keeps two states alive, not every stored one.
    """
    # The lambda reads step at each call, so a rebound name sees every step.
    return _run(state, lambda s: step(s, cfg), cfg.n_steps, store_every,
                lambda s, _: s.t + cfg.dt)


def evolve(state: MSMState, cfg: SolverConfig, store_every: int = 1) -> list[MSMState]:
    """Advance to t_final, returning stored snapshots (initial state included)."""
    return list(_stored_states(state, cfg, store_every))


# -- trajectory oracle -------------------------------------------------------


@dataclass(frozen=True)
class GaugeOracleReport:
    """Residual of the derivative-field system along a gauged map trajectory.

    ``residuals`` uses the full measured connection: the constant in-plane
    part that survives on the torus and the spatially constant phase rate
    mu(t) recovered from the time derivative of the chart.  ``residuals_raw``
    drops both (the whole-plane normalization); its floor is the size of
    those zero modes, which is the point of reporting it.
    ``alpha_identity`` compares the elliptic reconstruction of the time
    component against its kinematic definition.
    """

    times: np.ndarray
    residuals: np.ndarray
    residuals_raw: np.ndarray
    alpha_identity: np.ndarray

    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def _rhs_from_connection(g: Grid2D, u1, u2, a1, a2, a0) -> tuple[np.ndarray, np.ndarray]:
    """Right side i D.D u - i a0 u - F u with the given connection."""
    curl = g.dx(a2) - g.dy(a1)
    a_sq = a1**2 + a2**2

    def one(u, other, f_sign):
        transport = a1 * g.dx(u)
        transport += a2 * g.dy(u)
        return (1j * g.laplacian(u) - 2.0 * transport - 1j * (a_sq + a0) * u
                + f_sign * curl * other)

    return one(u1, u2, -1.0), one(u2, u1, +1.0)


def _oracle_row(g: Grid2D, h: float, prev, cur, nxt) -> tuple[float, float, float]:
    """Residual, raw residual and alpha identity at the middle of three (chart, state) pairs."""
    (w_prev, gs_prev), (w, gs), (w_next, gs_next) = prev, cur, nxt
    du1 = (gs_next.u1 - gs_prev.u1) / (2 * h)
    du2 = (gs_next.u2 - gs_prev.u2) / (2 * h)

    # zero modes the standalone normalization cannot see, measured
    # directly from the data
    m_t = _chart_fields(w, ((w_next - w_prev) / (2 * h),))[1][0]
    mu = float(g.integral(m_t)) / g.length**2

    r1, r2 = _rhs_from_connection(g, gs.u1, gs.u2, gs.a1, gs.a2, gs.a0 + mu)
    scale = max(float(np.hypot(g.norm2(r1), g.norm2(r2))), 1e-300)
    res = float(np.hypot(g.norm2(du1 - r1), g.norm2(du2 - r2))) / scale
    del r1, r2

    c1, c2 = gs.harmonic_means
    r1n, r2n = _rhs_from_connection(g, gs.u1, gs.u2, gs.a1 - c1, gs.a2 - c2, gs.a0)
    res_raw = float(np.hypot(g.norm2(du1 - r1n), g.norm2(du2 - r2n))) / scale
    del du1, du2, r1n, r2n

    psi_dot = (gs_next.psi - gs_prev.psi) / (2 * h)
    a0_kinematic = m_t - psi_dot
    diff = g.norm2((gs.a0 + mu) - a0_kinematic)
    return res, res_raw, float(diff / max(g.norm2(a0_kinematic), 1e-300))


def msm_residual_of_gauge_trajectory(traj: MapTrajectory) -> GaugeOracleReport:
    """Master consistency check: gauged map snapshots against the system.

    Time derivatives of the fields and of the chart come from centered
    differences on the stored snapshots, so the residual scales like
    O(dt^2) plus the spectral error of the underlying map solve.  The
    snapshots are charted and gauged in order, and only the chart and gauge
    state of the three that a centered difference reads are held at once.
    """
    times = np.asarray(traj.times, dtype=float)
    if len(times) < 3:
        raise ValueError("need at least three stored snapshots")
    spacings = np.diff(times)
    if not np.allclose(spacings, spacings[0], rtol=1e-10, atol=0.0):
        raise ValueError("oracle requires uniformly spaced snapshots")
    h = float(spacings[0])
    g = traj.maps[0].grid

    def snapshot(k):
        w = traj.maps[k].stereo()
        return w, _gauge_state(g, w)

    window = [snapshot(0), snapshot(1)]
    rows = []
    for k in range(1, len(times) - 1):
        window.append(snapshot(k + 1))
        rows.append(_oracle_row(g, h, *window))
        del window[0]
    res, res_raw, alpha_id = (np.array(col) for col in zip(*rows))
    return GaugeOracleReport(times=times[1:-1].copy(), residuals=res, residuals_raw=res_raw,
                             alpha_identity=alpha_id)


# -- invariance and persistence experiments ----------------------------------


@dataclass(frozen=True)
class ScalingReport:
    alpha_scale: int
    discrepancy: float
    norm_a: float
    norm_b: float


def scale_state(state: MSMState, alpha_scale: int) -> MSMState:
    """u(x) -> alpha u(alpha x) on the same periodic grid, by subsampling.

    Exact (no interpolation) when the field is band limited to below
    n / (2 alpha); beyond that the discarded tail aliases, which is the
    quantity the invariance test measures.
    """
    if alpha_scale < 1 or int(alpha_scale) != alpha_scale:
        raise ValueError("alpha_scale must be a positive integer")
    n = state.grid.n
    idx = (alpha_scale * np.arange(n)) % n
    pick = np.ix_(idx, idx)
    return MSMState(
        grid=state.grid,
        u1=alpha_scale * state.u1[pick],
        u2=alpha_scale * state.u2[pick],
        sign=state.sign,
        t=state.t / alpha_scale**2,
    )


def scaling_invariance_test(state0: MSMState, alpha_scale: int, cfg: SolverConfig) -> ScalingReport:
    """Scale-then-solve against solve-then-scale over one configured run.

    The continuum system is invariant under u -> alpha u(alpha x, alpha^2 t);
    discretely the two paths differ only through the spectral tail that
    subsampling folds over, plus nothing from the integrator (every stage
    is scaling-homogeneous).  Path B runs alpha^2-fold finer steps over the
    alpha^2-shortened horizon, i.e. the same step count.
    """
    path_a = evolve(state0, cfg)[-1]
    scaled_a = scale_state(path_a, alpha_scale)

    cfg_b = replace(cfg, dt=cfg.dt / alpha_scale**2, t_final=cfg.t_final / alpha_scale**2)
    path_b = evolve(scale_state(state0, alpha_scale), cfg_b)[-1]

    g = state0.grid
    num = np.hypot(g.norm2(scaled_a.u1 - path_b.u1), g.norm2(scaled_a.u2 - path_b.u2))
    den = max(np.hypot(g.norm2(scaled_a.u1), g.norm2(scaled_a.u2)), 1e-300)
    return ScalingReport(
        alpha_scale=alpha_scale,
        discrepancy=float(num / den),
        norm_a=float(np.sqrt(mass(scaled_a))),
        norm_b=float(np.sqrt(mass(path_b))),
    )


@dataclass(frozen=True)
class PersistenceReport:
    k: float
    lifetime: float
    capped: bool
    times: np.ndarray
    hk_norms: np.ndarray


def regularity_persistence_test(
    state0: MSMState,
    k: float,
    cfg: SolverConfig,
    growth_factor: float = 2.0,
) -> PersistenceReport:
    """Track the H^k norm and report how long it stays below a growth cap.

    The lifetime is the first time the norm exceeds growth_factor times
    its initial value, or t_final if it never does (capped=True).  This is
    the measurable shadow of persistence of regularity: for data small in
    a weak norm the lifetime should not care about the H^k size.
    """
    if growth_factor <= 1:
        raise ValueError("growth_factor must exceed 1")
    norm0 = hk_norm(state0, k)
    times, norms = [], []
    lifetime, capped = cfg.t_final, True
    for current in _stored_states(state0, cfg):
        times.append(current.t)
        norms.append(hk_norm(current, k))
        if norm0 > 0 and norms[-1] > growth_factor * norm0:
            lifetime, capped = current.t, False
            break
    return PersistenceReport(
        k=k, lifetime=float(lifetime), capped=capped,
        times=np.array(times), hk_norms=np.array(norms),
    )
