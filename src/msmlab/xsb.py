"""Dispersive space-time norms and empirical estimate checks.

Fields live on the periodic box [0, L)^2 x [0, T): a spatial grid carrying
an extra time axis, smoothly windowed so the periodization in time is
honest.  The space-time transform labels time frequencies so that free
solutions of the linear flow sit on the characteristic paraboloid
tau = |xi|^2, where the weight

    <tau - |xi|^2>^b <xi>^s        (<x> = sqrt(1 + x^2))

is smallest.  The mirrored weight <tau + |xi|^2> measures the conjugate
family (complex conjugation swaps the two isometrically).

On top of the norms sit empirical ratio experiments: trilinear and
quintilinear products, a transport null form with its integration-by-parts
twin, and bilinear space-time Lebesgue embeddings.  Each experiment reports
the worst ratio over a seeded ensemble that stresses white-noise data,
data concentrated near the paraboloid, and high/low frequency-separated
pairs.  Ratios are reproducible from recorded seeds and are meant to be
compared across grid refinement, never against an absolute constant.

The last section estimates norms of multilinear convolution multipliers on
finite abelian groups (Z_N)^d: an exact slice bound from above and an
alternating maximization from below.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import TooLargeError
from .gauge import beta_hat
from .spectral import Grid2D
from .storage import write_csv
from .windows import unit_window

__all__ = [
    "SpaceTimeField",
    "realize_mode_field",
    "free_solution_field",
    "xsb_norm",
    "duality_pairing",
    "mixed_norm",
    "free_solution_norm_check",
    "free_solution_slope",
    "sup_l2_constant",
    "white_mode_dict",
    "paraboloid_mode_dict",
    "shell_mode_dict",
    "Trial",
    "sample_trials",
    "RatioReport",
    "write_ratio_csv",
    "ratio_test_cubic",
    "ratio_test_quintic",
    "NullFormReport",
    "ratio_test_nullform",
    "BilinearReport",
    "bilinear_embedding_test",
    "MultiplierSpec",
    "multiplier_norm_bounds",
    "multiplier_suite",
    "exact_norm_k2",
    "indicator_pair_multiplier",
    "counting_bound",
]

# Enumerating the zero-sum hyperplane of a k-linear multiplier touches
# |Z|^(k-1) points; beyond this budget the estimator refuses to start.
MAX_ENUMERATION = 10**6

BOUNDARY_TOL = 1e-8


def _max_workers() -> int:
    try:
        return max(1, int(os.environ.get("MSMLAB_THREADS", "1")))
    except ValueError:
        return 1


def _pmap(fn: Callable, items: Sequence):
    """Order-preserving map, threaded when MSMLAB_THREADS allows."""
    workers = _max_workers()
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


# -- windowed space-time fields ------------------------------------------


@dataclass(frozen=True)
class SpaceTimeField:
    """Complex field on (x, y, t), smoothly vanishing at the time seam.

    ``cutoff`` records the one-dimensional window that produced the decay;
    derived fields (pointwise products) carry the product of their parents'
    windows.  The time axis must hold a power of two samples and the values
    at the first and last slice must be below BOUNDARY_TOL relative to the
    field's sup, so that treating the time axis as periodic is exact to
    rounding rather than an O(1) lie.
    """

    grid: Grid2D
    t_window: float
    values: np.ndarray
    cutoff: np.ndarray

    def __post_init__(self):
        nt = self.values.shape[2] if self.values.ndim == 3 else 0
        if self.values.ndim != 3 or self.values.shape[:2] != self.grid.shape:
            raise ValueError(
                f"values must have shape {self.grid.shape + ('nt',)}, got {self.values.shape}"
            )
        if nt < 2 or nt & (nt - 1):
            raise ValueError(f"time axis must hold a power of two samples, got {nt}")
        if not self.t_window > 0:
            raise ValueError("t_window must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values contain non-finite entries")
        if self.cutoff.shape != (nt,):
            raise ValueError("cutoff must be sampled on the time axis")
        if self.values.dtype != np.complex128:
            object.__setattr__(self, "values", self.values.astype(np.complex128))
        top = float(np.max(np.abs(self.values)))
        if top > 0:
            edge = max(float(np.max(np.abs(self.values[:, :, 0]))),
                       float(np.max(np.abs(self.values[:, :, -1]))))
            if edge > BOUNDARY_TOL * top:
                raise ValueError(
                    f"field does not vanish at the time boundary "
                    f"(relative edge value {edge / top:.2e})"
                )

    @property
    def nt(self) -> int:
        return self.values.shape[2]

    @property
    def dt(self) -> float:
        return self.t_window / self.nt

    @cached_property
    def times(self) -> np.ndarray:
        return np.arange(self.nt) * self.dt

    @cached_property
    def tau(self) -> np.ndarray:
        """Time frequencies, signed so free solutions sit at tau = |xi|^2."""
        return -2.0 * np.pi * np.fft.fftfreq(self.nt, d=self.dt)

    @cached_property
    def hat(self) -> np.ndarray:
        """Space-time coefficients, unitary up to the measure L^2 T."""
        return np.fft.fftn(self.values) / self.values.size

    def conjugate(self) -> "SpaceTimeField":
        return SpaceTimeField(
            grid=self.grid, t_window=self.t_window,
            values=np.conj(self.values), cutoff=self.cutoff,
        )

    def scaled(self, factor: complex) -> "SpaceTimeField":
        return self._derived(factor * self.values, self.cutoff)

    def _derived(self, values: np.ndarray, cutoff: np.ndarray) -> "SpaceTimeField":
        return SpaceTimeField(
            grid=self.grid, t_window=self.t_window, values=values, cutoff=cutoff,
        )


def _compatible(fields: Sequence[SpaceTimeField]) -> None:
    ref = fields[0]
    for f in fields[1:]:
        if f.grid != ref.grid or f.nt != ref.nt or f.t_window != ref.t_window:
            raise ValueError("fields live on different space-time grids")


def _product(factors: Sequence[SpaceTimeField], conj: Sequence[bool]) -> SpaceTimeField:
    _compatible(factors)
    vals = np.ones_like(factors[0].values)
    cut = np.ones(factors[0].nt)
    for f, c in zip(factors, conj):
        vals = vals * (np.conj(f.values) if c else f.values)
        cut = cut * f.cutoff
    return factors[0]._derived(vals, cut)


def realize_mode_field(
    grid: Grid2D,
    nt: int,
    t_window: float,
    modes: dict[tuple[int, int, int], complex],
    delta_frac: float = 0.35,
) -> SpaceTimeField:
    """Sample sum of c * e^{i 2 pi (mx x + my y)/L} e^{-i 2 pi mt t/T}, windowed.

    The mode dictionary is grid-free: realizing the same dictionary on a
    refined grid samples the identical continuum field, which is what the
    grid-doubling stability studies rely on.  Mode indices must stay
    strictly inside the Nyquist box of the requested grid.
    """
    n = grid.n
    coef = np.zeros((n, n, nt), dtype=np.complex128)
    for (mx, my, mt), c in modes.items():
        if max(abs(mx), abs(my)) >= n // 2 or abs(mt) >= nt // 2:
            raise ValueError(f"mode {(mx, my, mt)} does not fit inside the grid")
        coef[mx % n, my % n, (-mt) % nt] += c
    vals = np.fft.ifftn(coef) * coef.size
    times = np.arange(nt) * (t_window / nt)
    cut = unit_window((times - t_window / 2) / (delta_frac * t_window))
    return SpaceTimeField(grid=grid, t_window=t_window, values=vals * cut, cutoff=cut)


def free_solution_field(
    grid: Grid2D,
    u0: np.ndarray,
    nt: int,
    t_window: float,
    delta: float,
) -> SpaceTimeField:
    """psi((t - T/2)/delta) e^{it Laplacian} u0 on the time window."""
    if not 0 < delta <= t_window / 2:
        raise ValueError("delta must lie in (0, t_window / 2] to vanish at the seam")
    u0h = grid.fft(np.asarray(u0, dtype=np.complex128))
    times = np.arange(nt) * (t_window / nt)
    cut = unit_window((times - t_window / 2) / delta)
    phases = np.exp(-1j * grid.k2[:, :, None] * times[None, None, :])
    vals = grid.ifft(phases * u0h[:, :, None]) * cut[None, None, :]
    return SpaceTimeField(grid=grid, t_window=t_window, values=vals, cutoff=cut)


# -- norms ----------------------------------------------------------------


def _weight(u: SpaceTimeField, s: float, b: float, sign: int) -> np.ndarray:
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 (paraboloid) or -1 (mirrored)")
    k2 = u.grid.k2[:, :, None]
    gap = u.tau[None, None, :] - sign * k2
    # The single unpaired time frequency aliases +-Nyquist equally; giving
    # it the symmetric (farther) distance for both signs keeps conjugation
    # an exact isometry and the duality pairing an exact Cauchy-Schwarz,
    # instead of leaving a sign ambiguity on that plane.
    gap[:, :, u.nt // 2] = np.abs(u.tau[u.nt // 2]) + k2[:, :, 0]
    bracket_tau = np.sqrt(1.0 + gap**2)
    bracket_xi = np.sqrt(1.0 + k2)
    return bracket_tau**b * bracket_xi**s


def xsb_norm(u: SpaceTimeField, s: float, b: float, sign: int = +1) -> float:
    """Weighted space-time norm with weight <tau -+ |xi|^2>^b <xi>^s."""
    measure = u.grid.length**2 * u.t_window
    total = np.sum(np.abs(u.hat) ** 2 * _weight(u, s, b, sign) ** 2)
    return float(np.sqrt(measure * total))


def duality_pairing(u: SpaceTimeField, w: SpaceTimeField) -> complex:
    """Bilinear pairing  integral of u * w dx dt  (no conjugation).

    Cauchy-Schwarz against the mirrored weight is exact for it:
    |pairing| <= xsb_norm(u, s, b, +1) * xsb_norm(w, -s, -b, -1).
    """
    _compatible([u, w])
    measure = u.grid.spacing**2 * u.dt
    return complex(measure * np.sum(u.values * w.values))


def mixed_norm(u: SpaceTimeField, p_t: float, q_x: float) -> float:
    """Lebesgue norm L^p in time of L^q in space; either index may be inf."""
    if p_t < 1 or q_x < 1:
        raise ValueError("exponents must be at least 1")
    absu = np.abs(u.values)
    h2 = u.grid.spacing**2
    if np.isinf(q_x):
        slices = np.max(absu, axis=(0, 1))
    else:
        slices = (h2 * np.sum(absu**q_x, axis=(0, 1))) ** (1.0 / q_x)
    if np.isinf(p_t):
        return float(np.max(slices))
    return float((u.dt * np.sum(slices**p_t)) ** (1.0 / p_t))


def free_solution_norm_check(
    grid: Grid2D,
    u0: np.ndarray,
    s: float,
    b: float,
    delta0: float,
    nt: int = 256,
    t_window: float = 4.0,
) -> float:
    """Ratio of the windowed free solution's weighted norm to ||u0||_{H^s}."""
    hs = grid.sobolev_norm(np.asarray(u0, dtype=np.complex128), s)
    if hs == 0.0:
        return 0.0
    u = free_solution_field(grid, u0, nt, t_window, delta0)
    return xsb_norm(u, s, b, +1) / hs


def free_solution_slope(
    grid: Grid2D,
    u0: np.ndarray,
    s: float,
    b: float,
    deltas: Sequence[float],
    nt: int = 256,
    t_window: float = 4.0,
) -> float:
    """Log-log slope of the free-solution ratio against the window width.

    The expected growth rate as the window shrinks is (1 - 2b)/2; at
    b = 1/2 the ratio is width-independent.
    """
    ratios = [free_solution_norm_check(grid, u0, s, b, d, nt, t_window) for d in deltas]
    if any(r <= 0 for r in ratios):
        raise ValueError("slope fit needs nonzero data")
    return float(np.polyfit(np.log(np.asarray(deltas)), np.log(ratios), 1)[0])


def sup_l2_constant(u: SpaceTimeField, b: float) -> float:
    """Exact discrete constant in  sup_t ||u||_{L^2} <= C ||u||_{X_{0,b}}.

    C^2 is the largest over spatial frequencies of the sum over time
    frequencies of <tau - |xi|^2>^{-2b}, divided by the time extent; the
    inequality is Cauchy-Schwarz in the time frequency, so it holds
    discretely without any constant slack.
    """
    k2 = u.grid.k2[:, :, None]
    gap = u.tau[None, None, :] - k2
    s_max = float(np.max(np.sum((1.0 + gap**2) ** (-b), axis=2)))
    return float(np.sqrt(s_max / u.t_window))


# -- seeded ensembles -------------------------------------------------------


def _complex_coef(rng: np.random.Generator) -> complex:
    return complex(rng.standard_normal(), rng.standard_normal())


def white_mode_dict(space_band: int, time_band: int, seed: int) -> dict:
    """Independent unit-variance coefficients on the full mode box."""
    rng = np.random.default_rng(seed)
    out = {}
    for mx in range(-space_band, space_band + 1):
        for my in range(-space_band, space_band + 1):
            for mt in range(-time_band, time_band + 1):
                out[(mx, my, mt)] = _complex_coef(rng)
    return out


def paraboloid_mode_dict(
    space_band: int,
    time_band: int,
    length: float,
    t_window: float,
    seed: int,
) -> dict:
    """Mass only within two time modes of tau = |xi|^2: the hard regime."""
    rng = np.random.default_rng(seed)
    out = {}
    for mx in range(-space_band, space_band + 1):
        for my in range(-space_band, space_band + 1):
            xi2 = (2 * np.pi / length) ** 2 * (mx**2 + my**2)
            center = int(round(xi2 * t_window / (2 * np.pi)))
            for mt in range(center - 1, center + 2):
                mt_c = min(max(mt, -time_band), time_band)
                key = (mx, my, mt_c)
                out[key] = out.get(key, 0.0) + _complex_coef(rng)
    return out


def shell_mode_dict(space_band: int, time_band: int, seed: int, kind: str) -> dict:
    """Spatial frequencies confined to a high or low shell of the box."""
    if kind == "high":
        keep = lambda m: m >= max(1, int(np.ceil(0.7 * space_band)))
    elif kind == "low":
        keep = lambda m: m <= max(1, space_band // 4)
    else:
        raise ValueError(f"kind must be 'high' or 'low', got {kind!r}")
    rng = np.random.default_rng(seed)
    out = {}
    for mx in range(-space_band, space_band + 1):
        for my in range(-space_band, space_band + 1):
            if not keep(max(abs(mx), abs(my))):
                continue
            for mt in range(-time_band, time_band + 1):
                out[(mx, my, mt)] = _complex_coef(rng)
    return out


@dataclass(frozen=True)
class Trial:
    fields: tuple[SpaceTimeField, ...]
    seed: int
    flavor: str


FLAVORS = ("white", "paraboloid", "highlow")


def sample_trials(
    grid: Grid2D,
    nt: int,
    t_window: float,
    arity: int,
    n_trials: int,
    seed: int,
    space_band: int,
    time_band: int,
) -> list[Trial]:
    """Seeded ensemble cycling through the three stress flavors.

    Every factor of every trial is reconstructible from the recorded
    member seed alone, so a CSV row naming the argmax seed pins down the
    worst input exactly.
    """
    member_seeds = np.random.SeedSequence(seed).generate_state(n_trials)
    trials = []
    for i in range(n_trials):
        mseed = int(member_seeds[i])
        flavor = FLAVORS[i % len(FLAVORS)]
        factors = []
        for j in range(arity):
            fseed = mseed + 7919 * j
            if flavor == "white":
                modes = white_mode_dict(space_band, time_band, fseed)
            elif flavor == "paraboloid":
                modes = paraboloid_mode_dict(space_band, time_band, grid.length, t_window, fseed)
            else:
                modes = shell_mode_dict(
                    space_band, time_band, fseed, "high" if j % 2 == 0 else "low"
                )
            factors.append(realize_mode_field(grid, nt, t_window, modes))
        trials.append(Trial(fields=tuple(factors), seed=mseed, flavor=flavor))
    return trials


# -- ratio experiments -------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    test_name: str
    grid_n: int
    nt: int
    eps: float
    s: float
    ensemble_size: int
    max_ratio: float
    argmax_seed: int
    ratios: tuple[float, ...] = field(repr=False, default=())

    def csv_row(self) -> list:
        return [
            self.test_name, self.grid_n, self.nt, self.eps, self.s,
            self.ensemble_size, self.max_ratio, self.argmax_seed,
        ]


CSV_HEADER = ["test_name", "grid", "nt", "eps", "s", "ensemble_size", "max_ratio", "argmax_seed"]


def write_ratio_csv(reports: Iterable[RatioReport], path: str) -> None:
    write_csv(path, CSV_HEADER, [rep.csv_row() for rep in reports])


def _ratio_report(name, trials, eps, s, values) -> RatioReport:
    idx = int(np.argmax(values)) if values else 0
    return RatioReport(
        test_name=name,
        grid_n=trials[0].fields[0].grid.n if trials else 0,
        nt=trials[0].fields[0].nt if trials else 0,
        eps=eps,
        s=s,
        ensemble_size=len(trials),
        max_ratio=float(values[idx]) if values else 0.0,
        argmax_seed=trials[idx].seed if trials else 0,
        ratios=tuple(float(v) for v in values),
    )


CUBIC_VARIANTS = {
    "cubic_conj2": (False, True, False),
    "cubic_conj23": (False, True, True),
    "cubic_plain": (False, False, False),
}


def ratio_test_cubic(trials: Sequence[Trial], s: float, eps: float) -> list[RatioReport]:
    """Trilinear products measured from X_{s,1/2+eps} into X_{s,-1/2+2eps}.

    All three conjugation patterns of the last two factors are exercised;
    the quoted smallness threshold demands s > 5 eps, enforced here.
    """
    if not s > 5 * eps:
        raise ValueError(f"cubic ratio test requires s > 5 eps, got s={s}, eps={eps}")
    b_num, b_den = -0.5 + 2 * eps, 0.5 + eps

    def one(trial: Trial) -> dict[str, float]:
        dens = [xsb_norm(f, s, b_den, +1) for f in trial.fields]
        den = float(np.prod(dens))
        out = {}
        for name, conj in CUBIC_VARIANTS.items():
            if den == 0.0:
                out[name] = 0.0
                continue
            prod = _product(trial.fields, conj)
            out[name] = xsb_norm(prod, s, b_num, +1) / den
        return out

    rows = _pmap(one, list(trials))
    return [
        _ratio_report(name, list(trials), eps, s, [r[name] for r in rows])
        for name in CUBIC_VARIANTS
    ]


def ratio_test_quintic(trials: Sequence[Trial], eps: float) -> RatioReport:
    """Gradient-potential pairings: grad inv-lap (u1 conj u2) . grad inv-lap (u3 conj u4) u5.

    Structurally degree five but measured exactly like the cubic products,
    with s = 100 eps on both sides.
    """
    s = 100 * eps
    b_num, b_den = -0.5 + 2 * eps, 0.5 + eps

    def one(trial: Trial) -> float:
        u = trial.fields
        den = float(np.prod([xsb_norm(f, s, b_den, +1) for f in u]))
        if den == 0.0:
            return 0.0
        g1x, g1y = u[0].grid.grad_inverse_laplacian(u[0].values * np.conj(u[1].values))
        g2x, g2y = u[2].grid.grad_inverse_laplacian(u[2].values * np.conj(u[3].values))
        vals = (g1x * g2x + g1y * g2y) * u[4].values
        cut = np.ones(u[0].nt)
        for f in u:
            cut = cut * f.cutoff
        prod = u[0]._derived(vals, cut)
        return xsb_norm(prod, s, b_num, +1) / den

    values = _pmap(one, list(trials))
    return _ratio_report("quintic", list(trials), eps, s, values)


@dataclass(frozen=True)
class NullFormReport:
    ratio: RatioReport
    max_assembly_mismatch: float


def _nullform_values(trial: Trial) -> tuple[complex, complex]:
    """Direct and integrated-by-parts assemblies of the transport pairing."""
    u1, u2, u3, w = trial.fields
    grid = u1.grid
    # Stream potential of the pair (u1, u2), slicewise in time.
    beta_x, beta_y = (d.real for d in grid.grad_from_hat(
        beta_hat(grid, u1.values, u2.values, 1.0)))
    measure = grid.spacing**2 * u1.dt
    direct = measure * np.sum(
        w.values * (beta_x * grid.dy(u3.values) - beta_y * grid.dx(u3.values)))
    parts = measure * np.sum(
        u3.values * (beta_y * grid.dx(w.values) - beta_x * grid.dy(w.values)))
    return complex(direct), complex(parts)


def ratio_test_nullform(trials: Sequence[Trial], eps: float) -> NullFormReport:
    """Transport null form against the product of solution and dual norms.

    For every trial the pairing is assembled twice, before and after the
    integration by parts that the periodic setting makes boundary-free;
    the worst relative mismatch is reported alongside the ratio.
    """
    s = 100 * eps
    b_den = 0.5 + eps
    b_dual = 0.5 - 2 * eps

    def one(trial: Trial) -> tuple[float, float]:
        u1, u2, u3, w = trial.fields
        den = (
            xsb_norm(u1, s, b_den, +1)
            * xsb_norm(u2, s, b_den, +1)
            * xsb_norm(u3, s, b_den, +1)
            * xsb_norm(w, -s, b_dual, -1)
        )
        direct, parts = _nullform_values(trial)
        scale = max(abs(direct), abs(parts), 1e-300)
        mismatch = abs(direct - parts) / scale
        ratio = 0.0 if den == 0.0 else abs(direct) / den
        return ratio, mismatch

    rows = _pmap(one, list(trials))
    ratios = [r for r, _ in rows]
    return NullFormReport(
        ratio=_ratio_report("nullform", list(trials), eps, s, ratios),
        max_assembly_mismatch=float(max(m for _, m in rows)) if rows else 0.0,
    )


@dataclass(frozen=True)
class BilinearReport:
    p: float
    eps: float
    uv: RatioReport
    u_conj_v: RatioReport
    diagonal: RatioReport
    sup_l2_max_ratio: float
    sup_l2_cap: float


def bilinear_embedding_test(trials: Sequence[Trial], p: float, eps: float) -> BilinearReport:
    """Products in L^{p'}_t L^p_x against squared dispersive norms.

    Also evaluates the diagonal single-function embedding into
    L^{2p'}_t L^{2p}_x and, independently, the following exact reduction:
    sup_t L^2 is bounded by the b > 1/2 norm with the computable discrete
    constant from :func:`sup_l2_constant`.
    """
    if not 1 <= p <= 2:
        raise ValueError("p must lie in [1, 2]")
    b = 0.5 + eps
    p_conj = np.inf if p == 1 else p / (p - 1)

    def one(trial: Trial) -> tuple[float, float, float, float]:
        u, v = trial.fields[0], trial.fields[1]
        nu, nv = xsb_norm(u, 0.0, b, +1), xsb_norm(v, 0.0, b, +1)
        if nu == 0.0 or nv == 0.0:
            return 0.0, 0.0, 0.0, 0.0
        uv = mixed_norm(_product([u, v], (False, False)), p_conj, p) / (nu * nv)
        ucv = mixed_norm(_product([u, v], (False, True)), p_conj, p) / (nu * nv)
        diag = mixed_norm(u, 2 * p_conj, 2 * p) / nu
        sup = mixed_norm(u, np.inf, 2) / nu
        return uv, ucv, diag, sup

    rows = _pmap(one, list(trials))
    trials = list(trials)
    return BilinearReport(
        p=p,
        eps=eps,
        uv=_ratio_report(f"bilinear_uv_p{p:g}", trials, eps, 0.0, [r[0] for r in rows]),
        u_conj_v=_ratio_report(f"bilinear_uconjv_p{p:g}", trials, eps, 0.0, [r[1] for r in rows]),
        diagonal=_ratio_report(f"bilinear_diag_p{p:g}", trials, eps, 0.0, [r[2] for r in rows]),
        sup_l2_max_ratio=float(max(r[3] for r in rows)) if rows else 0.0,
        sup_l2_cap=sup_l2_constant(trials[0].fields[0], b) if trials else 0.0,
    )


# -- multilinear multiplier norms on (Z_N)^d ---------------------------------


@dataclass(frozen=True)
class MultiplierSpec:
    """k-linear convolution multiplier on the zero-sum hyperplane of (Z_N)^d.

    ``m`` holds one value per point of the hyperplane, indexed by the first
    k - 1 frequencies (each axis enumerating the N^d group elements in
    mixed-radix order); the last frequency is minus their sum.
    """

    k: int
    modulus: int
    dim: int
    m: np.ndarray

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("arity must be at least 2")
        if self.modulus < 2 or self.dim < 1:
            raise ValueError("group must be (Z_N)^d with N >= 2, d >= 1")
        size = self.modulus**self.dim
        if self.m.shape != (size,) * (self.k - 1):
            raise ValueError(
                f"m must have shape {(size,) * (self.k - 1)}, got {self.m.shape}"
            )
        if self.m.size > MAX_ENUMERATION:
            raise TooLargeError(
                f"hyperplane holds {self.m.size} points, budget is {MAX_ENUMERATION}"
            )
        if not np.all(np.isfinite(self.m)):
            raise ValueError("multiplier values must be finite")
        if self.m.dtype != np.complex128:
            object.__setattr__(self, "m", self.m.astype(np.complex128))

    @property
    def group_size(self) -> int:
        return self.modulus**self.dim


def _negated_sum_index(spec: MultiplierSpec) -> np.ndarray:
    """Flat group index of -(xi_1 + ... + xi_{k-1}) at each hyperplane point."""
    size = spec.group_size
    shape = (size,) * (spec.k - 1)
    # Per-coordinate digits of every group element in mixed radix.
    digits = np.array(np.unravel_index(np.arange(size), (spec.modulus,) * spec.dim))
    out = np.zeros(shape, dtype=np.int64)
    for d in range(spec.dim):
        comp = np.zeros(shape, dtype=np.int64)
        for axis in range(spec.k - 1):
            idx = [None] * (spec.k - 1)
            idx[axis] = slice(None)
            comp = comp + digits[d][tuple(idx)]
        comp = (-comp) % spec.modulus
        out = out * spec.modulus + comp
    return out


def exact_norm_k2(spec: MultiplierSpec) -> float:
    """For k = 2 the norm is the largest |m| on the hyperplane, exactly."""
    if spec.k != 2:
        raise ValueError("closed form only holds for k = 2")
    return float(np.max(np.abs(spec.m)))


def _slice_upper_bound(spec: MultiplierSpec, neg_idx: np.ndarray) -> float:
    """Smallest over arguments of the sup-over-slices L^2 mass of m."""
    m2 = np.abs(spec.m) ** 2
    best = np.inf
    for j in range(spec.k - 1):
        axes = tuple(a for a in range(spec.k - 1) if a != j)
        best = min(best, float(np.max(np.sum(m2, axis=axes))))
    last = np.bincount(neg_idx.ravel(), weights=m2.ravel(), minlength=spec.group_size)
    best = min(best, float(np.max(last)))
    return float(np.sqrt(best))


def _alternating_lower_bound(
    spec: MultiplierSpec,
    neg_idx: np.ndarray,
    restarts: int,
    seed: int,
    sweeps: int = 400,
) -> float:
    """Best multilinear form value found by cyclic closed-form updates.

    With all arguments but one frozen, the form is a linear functional of
    the free argument, so the optimal unit vector is explicit and the form
    value equals the functional's norm; cycling is monotone, every restart
    is a valid lower bound, and the max over restarts is returned.  The
    first restart is seeded with point masses on the hyperplane point where
    |m| peaks, which already attains the exact norm when k = 2.
    """
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


def multiplier_norm_bounds(
    spec: MultiplierSpec,
    restarts: int = 50,
    seed: int = 0,
) -> tuple[float, float]:
    """Bracket the multiplier norm: alternating lower, sliced upper.

    The upper bound is the smallest over arguments of the worst slice mass
    (Cauchy-Schwarz); the lower bound is attained by explicit unit vectors
    and is therefore certified.  lower <= norm <= upper always; for k = 2
    both collapse onto max |m|.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if not np.any(spec.m):
        return 0.0, 0.0
    neg_idx = _negated_sum_index(spec)
    upper = _slice_upper_bound(spec, neg_idx)
    lower = _alternating_lower_bound(spec, neg_idx, restarts, seed)
    return min(lower, upper), upper


def multiplier_suite(
    specs: Sequence[MultiplierSpec],
    restarts: int = 50,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Bounds for several multipliers; specs run in parallel, each serial."""
    return _pmap(lambda sp: multiplier_norm_bounds(sp, restarts=restarts, seed=seed), list(specs))


def indicator_pair_multiplier(modulus: int, set_a: Iterable[int], set_b: Iterable[int]) -> MultiplierSpec:
    """Trilinear multiplier chi_A(xi_1) chi_B(xi_2) on Z_N."""
    m = np.zeros((modulus, modulus), dtype=np.complex128)
    a = [x % modulus for x in set_a]
    b = [x % modulus for x in set_b]
    for i in a:
        for j in b:
            m[i, j] = 1.0
    return MultiplierSpec(k=3, modulus=modulus, dim=1, m=m)


def counting_bound(modulus: int, set_a: Iterable[int], set_b: Iterable[int]) -> float:
    """Exact sup over xi of sqrt(#{xi_1 in A : xi - xi_1 in B}) on Z_N."""
    a = {x % modulus for x in set_a}
    b = {x % modulus for x in set_b}
    worst = 0
    for xi in range(modulus):
        worst = max(worst, sum(1 for x in a if (xi - x) % modulus in b))
    return float(np.sqrt(worst))
