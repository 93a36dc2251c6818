"""Tests for the periodic spectral infrastructure."""

import ast
import re
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import msmlab
from msmlab.spectral import Grid1D, Grid2D
from memtrace import traced_peak
from reference_ops import grad_inverse_laplacian, riesz

RNG = np.random.default_rng(1234)
GRID_SIZES = [8, 16, 32, 64]


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestGridConstruction:
    def test_rejects_odd_size(self):
        with pytest.raises(ValueError):
            Grid2D(n=9, length=1.0)

    def test_rejects_small_size(self):
        with pytest.raises(ValueError):
            Grid2D(n=4, length=1.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid2D(n=12, length=1.0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Grid2D(n=16, length=0.0)

    def test_dealias_mask_kills_upper_third(self):
        g = Grid2D(n=32, length=2 * np.pi)
        m = g.modes
        inside = np.abs(m) <= 32 // 3
        expected = inside[:, None] & inside[None, :]
        assert np.array_equal(g.dealias_mask, expected)


class TestTransforms:
    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_roundtrip(self, n):
        g = Grid2D(n=n, length=5.0)
        f = random_complex((n, n), RNG)
        assert np.max(np.abs(g.ifft(g.fft(f)) - f)) < 1e-12

    def test_single_mode_coefficient(self):
        g = Grid2D(n=16, length=2 * np.pi)
        f = np.exp(1j * (3 * g.x + 2 * g.y))
        fh = g.fft(f) / g.n**2
        assert abs(fh[3, 2] - 1.0) < 1e-12
        fh[3, 2] = 0.0
        assert np.max(np.abs(fh)) < 1e-12

    def test_derivative_of_sine(self):
        g = Grid2D(n=32, length=4 * np.pi)
        k0 = 2 * np.pi / g.length
        f = np.sin(3 * k0 * g.x)
        expected = 3 * k0 * np.cos(3 * k0 * g.x)
        assert np.max(np.abs(g.dx(f) - expected)) < 1e-12
        assert np.max(np.abs(g.dy(f))) < 1e-12

    def test_real_input_gives_real_derivative(self):
        g = Grid2D(n=16, length=1.0)
        f = RNG.standard_normal((16, 16))
        assert not np.iscomplexobj(g.dx(f))
        assert not np.iscomplexobj(g.laplacian(f))


class TestInverseLaplacian:
    def test_cosine_mode(self):
        # laplacian^{-1} cos(k x) = -cos(k x) / k^2 with k = 2 pi / L.
        g = Grid2D(n=32, length=16 * np.pi)
        k0 = 2 * np.pi / g.length
        f = np.cos(k0 * g.x)
        got = g.inverse_laplacian(f)
        assert np.max(np.abs(got + f / k0**2)) < 1e-12

    def test_roundtrip_on_mean_free_data(self):
        g = Grid2D(n=32, length=3.0)
        f = RNG.standard_normal((32, 32))
        f -= f.mean()
        assert np.max(np.abs(g.laplacian(g.inverse_laplacian(f)) - f)) < 1e-10

    def test_projection_discards_mean(self):
        g = Grid2D(n=16, length=1.0)
        f = RNG.standard_normal((16, 16))
        got = g.inverse_laplacian(f)
        assert abs(np.mean(got)) < 1e-13
        shifted = g.inverse_laplacian(f + 7.5)
        assert np.max(np.abs(got - shifted)) < 1e-12

    def test_zero_field(self):
        g = Grid2D(n=16, length=1.0)
        out = g.inverse_laplacian(np.zeros((16, 16)))
        assert np.max(np.abs(out)) == 0.0


class TestRiesz:
    """The test-side Riesz reference behind the independent a_0 assembly."""

    def test_axis_mode_is_fixed_point(self):
        g = Grid2D(n=16, length=2 * np.pi)
        f = np.exp(1j * g.x)  # mode (1, 0): multiplier k1/|k| = 1
        assert np.max(np.abs(riesz(g, 0, f) - f)) < 1e-12

    def test_norm_never_increases(self):
        g = Grid2D(n=32, length=2.0)
        for _ in range(5):
            f = random_complex((32, 32), RNG)
            for axis in (0, 1):
                assert g.norm2(riesz(g, axis, f)) <= g.norm2(f) + 1e-12

    def test_squares_sum_to_identity_on_mean_free(self):
        # With the real multiplier k_j/|k|, R1^2 + R2^2 acts as
        # (k1^2 + k2^2)/|k|^2 = 1 away from the zero mode.
        g = Grid2D(n=32, length=5.0)
        f = RNG.standard_normal((32, 32))
        f -= f.mean()
        got = riesz(g, 0, riesz(g, 0, f)) + riesz(g, 1, riesz(g, 1, f))
        assert np.max(np.abs(got - f)) < 1e-12


class TestNorms:
    def test_zero(self):
        g = Grid2D(n=16, length=1.0)
        assert g.sobolev_norm(np.zeros((16, 16)), 1.5) == 0.0

    def test_single_mode_closed_form(self):
        g = Grid2D(n=32, length=2 * np.pi)
        amp = 0.37
        f = amp * np.exp(1j * (2 * g.x + g.y))
        for s in (0.0, 0.5, 1.0, 2.0):
            expected = amp * (1.0 + 5.0) ** (s / 2) * g.length
            assert abs(g.sobolev_norm(f, s) - expected) < 1e-12

    def test_s_zero_is_plancherel(self):
        g = Grid2D(n=32, length=3.7)
        f = random_complex((32, 32), RNG)
        assert abs(g.sobolev_norm(f, 0.0) - g.norm2(f)) < 1e-10

    def test_norm2_matches_quadrature(self):
        g = Grid2D(n=16, length=2.5)
        f = random_complex((16, 16), RNG)
        direct = np.sqrt(np.sum(np.abs(f) ** 2) * g.spacing**2)
        assert abs(g.norm2(f) - direct) < 1e-12

    def test_integral_of_cos_squared(self):
        # integral of cos^2(k x) over the box equals L^2 / 2.
        g = Grid2D(n=32, length=6.0)
        k0 = 2 * np.pi / g.length
        val = g.integral(np.cos(2 * k0 * g.x) ** 2)
        assert abs(val - g.length**2 / 2) < 1e-10


class TestDealias:
    def test_kills_high_keeps_low(self):
        g = Grid2D(n=32, length=2 * np.pi)
        low = np.exp(1j * 3 * g.x)
        high = np.exp(1j * 14 * g.x)
        out = g.ifft(g.dealias_mask * g.fft(low + high))
        assert np.max(np.abs(out - low)) < 1e-12


class TestBroadcasting:
    """Grid2D operators act on axes (0, 1) of a stack, slice by slice."""

    NT = 3

    def stack(self, g):
        f = random_complex((g.n, g.n, self.NT), RNG)
        return f.real.copy(), f

    @pytest.mark.parametrize("op", ["dx", "dy", "inverse_laplacian"])
    def test_stack_equals_slices(self, op):
        g = Grid2D(n=16, length=3.0)
        for f in self.stack(g):
            got = getattr(g, op)(f)
            assert got.shape == f.shape and got.dtype == f.dtype
            for t in range(self.NT):
                want = getattr(g, op)(f[:, :, t])
                assert np.max(np.abs(got[:, :, t] - want)) < 1e-13

    def test_grad_inverse_laplacian_stack_equals_slices(self):
        # The test-side reference that the quintic ratio tests read on stacks.
        g = Grid2D(n=16, length=3.0)
        for f in self.stack(g):
            gx, gy = grad_inverse_laplacian(g, f)
            for t in range(self.NT):
                sx, sy = grad_inverse_laplacian(g, f[:, :, t])
                assert np.max(np.abs(gx[:, :, t] - sx)) < 1e-13
                assert np.max(np.abs(gy[:, :, t] - sy)) < 1e-13

    def test_grad_inverse_laplacian_is_composition(self):
        g = Grid2D(n=32, length=2.5)
        f = RNG.standard_normal((32, 32))
        # A real field's derivatives are the real parts (the odd Nyquist line
        # leaves an imaginary remainder that the package's dx discards).
        gx, gy = (d.real for d in grad_inverse_laplacian(g, f))
        inv = g.inverse_laplacian(f)
        assert np.max(np.abs(gx - g.dx(inv))) < 1e-13
        assert np.max(np.abs(gy - g.dy(inv))) < 1e-13


def component_major(f):
    """The same values, with the trailing index slowest in memory."""
    return np.moveaxis(np.moveaxis(f, -1, 0).copy(), 0, -1)


def _complex_symbols(g, op):
    """The full-grid symbols of an operator, one per output, built here from the wavenumbers."""
    k = g.wavenumbers
    if op == "laplacian":
        return [-g.k2]
    if op == "inverse_laplacian":
        return [np.where(g.k2 > 0, -1.0 / np.where(g.k2 > 0, g.k2, 1.0), 0.0)]
    if op == "antiderivative_zero_mean":
        return [np.where(k[0] != 0, -1j / np.where(k[0] != 0, k[0], 1.0), 0.0)]
    return [1j * kj for kj in {"dx": k[:1], "dy": k[1:], "gradient": k}[op]]


# The Laplacian rows keep the bare class id; the other operators add theirs.
_REAL_OPERATORS = [
    pytest.param(cls, op, id=cls.__name__ if op == "laplacian" else f"{cls.__name__}-{op}")
    for cls, ops in ((Grid1D, ("laplacian", "dx", "gradient", "antiderivative_zero_mean")),
                     (Grid2D, ("laplacian", "dx", "dy", "gradient", "inverse_laplacian")))
    for op in ops
]


class TestRealPair:
    """A real field runs on the half spectrum, a complex one does not."""

    @pytest.mark.parametrize("cls,op", _REAL_OPERATORS)
    @pytest.mark.parametrize("trailing", [(), (3,)], ids=["single", "stacked"])
    @pytest.mark.parametrize("layout", ["C", "component-major"])
    def test_real_laplacian_matches_complex_symbol(self, monkeypatch, cls, op, trailing, layout):
        # Every real-field operator equals the real part of the complex path
        # and transforms through the real pair alone.
        g = cls(n=16, length=3.0)
        f = RNG.standard_normal(g.shape + trailing)
        # Put weight on the Nyquist plane of the last transformed axis, the
        # mode the half spectrum stores once.
        f += np.cos(np.pi * g.coords[-1] / g.spacing).reshape(g.shape + (1,) * len(trailing))
        if layout != "C":
            f = component_major(f) if trailing else np.asfortranarray(f)
        wants = [g.ifft(g._times(s, g.fft(f))).real for s in _complex_symbols(g, op)]
        calls = Counter()
        for name in ("fft", "ifft", "fft2", "ifft2", "ifftn", "rfft", "irfft", "rfft2", "irfft2"):
            def counted(*args, name=name, original=getattr(np.fft, name), **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        got = getattr(g, op)(f)
        gots = list(got) if op == "gradient" else [got]
        suffix = "2" if g.dim == 2 else ""
        assert calls == Counter({"rfft" + suffix: len(wants), "irfft" + suffix: len(wants)})
        for got, want in zip(gots, wants, strict=True):
            assert got.dtype == np.float64 and got.shape == f.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_real_pair_roundtrip_keeps_component_planes(self):
        g = Grid2D(n=16, length=2.0)
        f = component_major(RNG.standard_normal(g.shape + (3,)))
        fh = g.rfft(f)
        assert fh.shape == (16, 9, 3)
        back = g.irfft(fh)
        assert np.moveaxis(back, -1, 0).flags.c_contiguous
        assert np.max(np.abs(back - f)) < 1e-14

    @pytest.mark.parametrize("trailing", [(), (3,)], ids=["single", "stacked"])
    def test_half_spectrum_odd_symbols_match_the_real_part(self, trailing):
        # White noise fills the Nyquist lines, where i k_x, i k_y and k_x k_y
        # are odd and the complex path leaves an imaginary remainder.
        g = Grid2D(n=16, length=3.0)
        f = RNG.standard_normal(g.shape + trailing)
        fh, half = g.fft(f), g.rfft(f)
        for got, want in zip(g.real_grad_from_hat(half), g.grad_from_hat(fh)):
            assert np.max(np.abs(got - want.real)) <= 1e-14 * np.max(np.abs(want.real))
        got = g.irfft(g._times(g.half_mixed_symbol, half))
        want = g.ifft(g._times(g.kx * g.ky, fh)).real
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("cls", [Grid1D, Grid2D])
    def test_complex_laplacian_keeps_complex_pair(self, cls):
        g = cls(n=16, length=3.0)
        f = random_complex(g.shape + (2,), RNG)
        np.testing.assert_array_equal(g.laplacian(f), g.ifft(g._times(-g.k2, g.fft(f))))


class TestOneAllocation:
    """The 2-D fft, ifft and rfft allocate their result and nothing else."""

    @pytest.mark.parametrize("op", ["fft", "ifft", "rfft"])
    def test_peak_is_one_result(self, op):
        # Measured 1.002 results; numpy allocating each 1-D pass reads 2.002.
        g = Grid2D(n=256, length=1.0)
        f = RNG.standard_normal(g.shape) if op == "rfft" else random_complex(g.shape, RNG)
        transform = getattr(g, op)
        result = transform(f)
        assert traced_peak(lambda: transform(f)) < 1.1 * result.nbytes

    @pytest.mark.parametrize("trailing", [(), (3,), (16,)], ids=["single", "stack3", "stack16"])
    def test_bits_are_numpy_without_out(self, trailing):
        g = Grid2D(n=64, length=1.0)
        z = random_complex(g.shape + trailing, RNG)
        r = RNG.standard_normal(g.shape + trailing)
        if trailing:
            z, r = component_major(z), component_major(r)
        pairs = [(g.fft(z), np.fft.fft2(z, axes=(0, 1))),
                 (g.fft(r), np.fft.fft2(r, axes=(0, 1))),
                 (g.ifft(z), np.fft.ifft2(z, axes=(0, 1))),
                 (g.rfft(r), np.fft.rfft2(r, axes=(0, 1)))]
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", ["fft", "ifft"])
    def test_in_place_peak_is_under_a_tenth_of_a_result(self, op):
        # Passing the input as out= runs both passes in it; measured about
        # 2 KiB, against one result (1 MiB) without it.
        g = Grid2D(n=256, length=1.0)
        f = random_complex(g.shape, RNG)
        transform = getattr(g, op)
        assert traced_peak(lambda: transform(f, out=f)) < 0.1 * f.nbytes

    @pytest.mark.parametrize("trailing", [(), (3,)], ids=["single", "stack3"])
    def test_in_place_bits_are_numpy_without_out(self, trailing):
        g = Grid2D(n=64, length=1.0)
        z = random_complex(g.shape + trailing, RNG)
        if trailing:
            z = component_major(z)
        for op, numpy_op in (("fft", np.fft.fft2), ("ifft", np.fft.ifft2)):
            want = numpy_op(z, axes=(0, 1))
            work = z.copy(order="K")
            got = getattr(g, op)(work, out=work)
            assert got is work and got.strides == z.strides
            assert got.tobytes() == want.tobytes()

    def test_component_major_stack_stays_component_major(self):
        g = Grid2D(n=16, length=1.0)
        z = component_major(random_complex(g.shape + (3,), RNG))
        r = component_major(RNG.standard_normal(g.shape + (3,)))
        for out in (g.fft(z), g.ifft(z), g.rfft(r)):
            assert np.moveaxis(out, -1, 0).flags.c_contiguous
        assert g.rfft(r).shape == (16, 9, 3)


class TestGrid1D:
    def test_derivative(self):
        g = Grid1D(n=64, length=2 * np.pi)
        f = np.sin(2 * g.x)
        assert np.max(np.abs(g.dx(f) - 2 * np.cos(2 * g.x))) < 1e-11

    def test_antiderivative_inverts_dx(self):
        # Band-limited data: the Nyquist mode of a real field has no
        # well-defined odd derivative, so keep the test below it.
        g = Grid1D(n=64, length=5.0)
        k0 = 2 * np.pi / g.length
        f = np.sin(3 * k0 * g.x) + 0.4 * np.cos(11 * k0 * g.x)
        got = g.dx(g.antiderivative_zero_mean(f))
        assert np.max(np.abs(got - f)) < 1e-11


@pytest.mark.parametrize("cls", [Grid1D, Grid2D])
def test_shared_operators_in_either_dimension(cls):
    g = cls(n=16, length=3.0)
    assert g.shape == (16,) * g.dim and g.k2.shape == g.shape
    assert len(g.coords) == len(g.wavenumbers) == g.dim
    k0 = 2 * np.pi / g.length
    mode = (3, -2)[: g.dim]
    kvec = [m * k0 for m in mode]
    ksq = sum(k**2 for k in kvec)
    assert g.k2[mode] == pytest.approx(ksq, rel=1e-14)

    phase = sum(k * x for k, x in zip(kvec, g.coords))
    f = 0.7 * np.exp(1j * phase)
    np.testing.assert_allclose(g.laplacian(f), -ksq * f, atol=1e-11)
    grad = g.gradient(f)
    assert len(grad) == g.dim
    for k, d in zip(kvec, grad):
        np.testing.assert_allclose(d, 1j * k * f, atol=1e-11)
    assert not np.iscomplexobj(g.gradient(f.real)[0])

    # Integral of cos^2 of a mode is half the box volume; of the mode, zero.
    assert g.integral(np.cos(phase) ** 2) == pytest.approx(g.length**g.dim / 2, rel=1e-12)
    assert abs(g.integral(f)) < 1e-12

    expected = 0.7 * (1.0 + ksq) ** 0.5 * g.length ** (g.dim / 2)
    assert g.sobolev_norm(f, 1.0) == pytest.approx(expected, rel=1e-12)
    r = random_complex(g.shape, RNG)
    assert g.sobolev_norm(r, 0.0) == pytest.approx(g.norm2(r), rel=1e-12)


def test_package_sources_compile_without_warnings():
    # Compiling the source text directly bypasses any cached bytecode.
    for path in sorted(Path(msmlab.__file__).parent.glob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_only_spectral_branches_on_the_grid_class():
    # Callers read grid.dim, grid.shape and grid.coords; storage's
    # dim-to-class table only maps a file header back to a class.
    branch = re.compile(r"isinstance\([^)]*(Grid1D|Grid2D|PeriodicGrid)"
                        r"|getattr\([^,]*grid[^,]*, *[\"']shape[\"']")
    for path in sorted(Path(msmlab.__file__).parent.glob("*.py")):
        if path.name != "spectral.py":
            found = branch.search(path.read_text())
            assert found is None, f"{path.name}: {found.group(0)}"


def test_only_spectral_calls_a_numpy_transform():
    # The transforms, and the in-place passes that reuse a caller's array,
    # have one home.  xsb's time-axis and space-time transforms are the
    # known exception, until they move into the spectral layer.
    call = re.compile(r"\b(np|numpy)\.fft\.(i?r?fft[2n]?|i?hfft)\("
                      r"|^\s*from\s+numpy(\.fft\s+import|\s+import\s.*\bfft\b)", re.MULTILINE)
    for path in sorted(Path(msmlab.__file__).parent.glob("*.py")):
        if path.name not in ("spectral.py", "xsb.py"):
            found = call.search(path.read_text())
            assert found is None, f"{path.name}: {found.group(0)}"
    assert call.search((Path(msmlab.__file__).parent / "xsb.py").read_text())


def test_only_the_run_loop_locates_solver_failures():
    # maps._run tags every run's failed step with its index and time; a module
    # that located failures in a loop of its own would be a second home for it.
    found = {
        (path.name, node.attr)
        for path in sorted(Path(msmlab.__file__).parent.glob("*.py"))
        for handler in ast.walk(ast.parse(path.read_text()))
        if isinstance(handler, ast.ExceptHandler)
        for node in ast.walk(handler)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr in ("step", "t")
    }
    assert found == {("maps.py", "step"), ("maps.py", "t")}


def _target_comparisons(node, where=()):
    """Qualified names of the scopes holding a comparison with a Target member."""
    for child in ast.iter_child_nodes(node):
        scope = where
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            scope = where + (child.name,)
        elif isinstance(child, ast.Compare) and any(
            isinstance(o, ast.Attribute) and isinstance(o.value, ast.Name) and o.value.id == "Target"
            for o in (child.left, *child.comparators)
        ):
            yield ".".join(where)
        yield from _target_comparisons(child, scope)


def test_only_the_chart_compares_with_a_target_member():
    # Every other target-dependent formula reads Target.sign or Target.metric;
    # the stereographic chart alone belongs to the sphere.
    found = [
        (path.name, scope)
        for path in sorted(Path(msmlab.__file__).parent.glob("*.py"))
        for scope in _target_comparisons(ast.parse(path.read_text()))
    ]
    assert found == [("maps.py", "MapField.stereo")]


def test_no_module_reads_the_environment_or_starts_threads():
    # A run is a function of its config alone, computed in the calling thread.
    banned = re.compile(r"\bos\.(environ|getenv)\b"
                        r"|^\s*(from|import)\s+(concurrent|threading)\b", re.MULTILINE)
    for path in sorted(Path(msmlab.__file__).parent.glob("*.py")):
        found = banned.search(path.read_text())
        assert found is None, f"{path.name}: {found.group(0)}"


def test_no_module_bypasses_a_constructor():
    # An instance filled in attribute by attribute, or copied and rebound,
    # skips its class's checks and silently drops any attribute the list
    # does not name.
    banned = re.compile(r"object\.__new__|\bvars\([^)]*\)\.update|\bcopy\.copy\(|__dict__|\bvars\(")
    for path in sorted(Path(msmlab.__file__).parent.glob("*.py")):
        found = banned.search(path.read_text())
        assert found is None, f"{path.name}: {found.group(0)}"


def test_no_module_takes_a_real_field_from_a_complex_inverse():
    # A real field, such as a gauge potential or its gradient, comes back
    # through the real pair (irfft, real_grad_from_hat) at about a quarter of
    # the cost of the complex inverse whose real part it would otherwise be.
    banned = re.compile(r"\bifft\(.*\)\.real\b|\.real for \w+ in .*grad_from_hat")
    for path in sorted(Path(msmlab.__file__).parent.glob("*.py")):
        found = banned.search(path.read_text())
        assert found is None, f"{path.name}: {found.group(0)}"


# Public names that no package module reads, kept on purpose.
CONTRACT = {
    # Called by the acceptance tests (Grid2D.y builds their test fields).
    "duality_pairing", "exact_norm_k2", "free_solution_slope",
    "regularity_persistence_test", "scaling_invariance_test", "y",
    # The readers of the package's own .msmf artifacts.
    "load_map_field", "load_msm_state",
    # Acceptance 06 measures the conjugate family through it.
    "conjugate",
}

# Classes whose public methods and properties count as public names.
CHECKED_CLASSES = ("PeriodicGrid", "Grid1D", "Grid2D", "SpaceTimeField")


def _public_definitions(tree):
    """(name, node, is_member) for a module's public surface.

    That is the names in ``__all__`` (every public top-level name where a
    module has none) and the public methods and properties of the grid
    classes and of ``SpaceTimeField``, which are members.
    """
    top = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            top[node.name] = node
        elif isinstance(node, ast.Assign):
            top.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    if "__all__" in top:
        names = [ast.literal_eval(elt) for elt in top["__all__"].value.elts]
    else:
        names = [name for name in top if not name.startswith("_")]
    out = [(name, top[name], False) for name in names]
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in CHECKED_CLASSES:
            out += [(item.name, item, True) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def _reads(node, members=False):
    """Names read anywhere under node: loaded names, attributes and imports,
    or with ``members`` only the attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif members:
            continue
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_public_name_has_a_package_reader():
    # No public function that only a test calls: each public name must be
    # read by package code outside its own definition.  The re-exports of
    # __init__.py do not count as a reader.  A method or property counts
    # only attribute reads (.name), so a local variable of the same name
    # does not hide it; names are still matched bare, so one that shares its
    # name with an attribute read elsewhere (a method named norm would count
    # as read by np.linalg.norm) passes unseen.
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(msmlab.__file__).parent.glob("*.py"))}
    del trees["__init__.py"]
    reads = {members: Counter(name for tree in trees.values() for name in _reads(tree, members))
             for members in (False, True)}
    unread = [f"{module}:{name}" for module, tree in trees.items()
              for name, node, member in _public_definitions(tree)
              if name not in CONTRACT
              and reads[member][name] == Counter(_reads(node, member))[name]]
    assert unread == []
