"""In-memory span tracer for one traced benchmark process.

The tracer touches no module under ``src/msmlab``.  It rebinds module
attributes: every ``numpy.fft`` transform, and each public entry point named
in ``ENTRY_POINTS`` under every ``msmlab`` module name that refers to it.
``cli`` imports ``maps.evolve`` and ``msm.evolve`` as ``evolve_map`` and
``evolve_msm``, and ``msm`` imports ``build_gauge_state`` by name; rebinding
by object identity catches all such aliases.  ``numpy.fft.fft2`` does not
call through the ``numpy.fft.fft`` attribute, so no transform is counted
twice.

A span is ``[name, label, start, end, parent, info]``; spans stay in memory
and are reduced to the per-layer metrics of ``layers.json`` at the end.
"""

from __future__ import annotations

import math
import os
import sys
from time import perf_counter

import numpy.fft

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
             "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

# span name -> (module, attribute) of the public entry point it times.
ENTRY_POINTS = {
    "cli.parse_config": ("msmlab.cli", "parse_config"),
    "cli.run_experiments": ("msmlab.cli", "run_experiments"),
    "presets.map_preset": ("msmlab.presets", "map_preset"),
    "presets.msm_preset": ("msmlab.presets", "msm_preset"),
    "msm.evolve": ("msmlab.msm", "evolve"),
    "msm.step": ("msmlab.msm", "step"),
    "msm.nonlinearity": ("msmlab.msm", "nonlinearity"),
    "msm.oracle": ("msmlab.msm", "msm_residual_of_gauge_trajectory"),
    "maps.evolve": ("msmlab.maps", "evolve"),
    "maps.step": ("msmlab.maps", "step_geometric"),
    "gauge.build": ("msmlab.gauge", "build_gauge_state"),
    "gauge.verify": ("msmlab.gauge", "verify_consistency"),
    "xsb.sample": ("msmlab.xsb", "sample_trials"),
    "xsb.norm": ("msmlab.xsb", "xsb_norm"),
    "xsb.ratio_cubic": ("msmlab.xsb", "ratio_test_cubic"),
    "xsb.ratio_quintic": ("msmlab.xsb", "ratio_test_quintic"),
    "xsb.ratio_nullform": ("msmlab.xsb", "ratio_test_nullform"),
    "xsb.ratio_bilinear": ("msmlab.xsb", "bilinear_embedding_test"),
    "xsb.multiplier_suite": ("msmlab.xsb", "multiplier_suite"),
    "xsb.multiplier": ("msmlab.xsb", "multiplier_norm_bounds"),
    "storage.write_csv": ("msmlab.storage", "write_csv"),
    "storage.save_map_field": ("msmlab.storage", "save_map_field"),
    "storage.save_msm_state": ("msmlab.storage", "save_msm_state"),
    "storage.write_ratio_csv": ("msmlab.xsb", "write_ratio_csv"),
    "storage.manifest": ("msmlab.storage", "write_manifest"),
}

RATIO_SPANS = ("xsb.ratio_cubic", "xsb.ratio_quintic", "xsb.ratio_nullform", "xsb.ratio_bilinear")
WRITE_SPANS = ("storage.write_csv", "storage.save_map_field", "storage.save_msm_state",
               "storage.write_ratio_csv")
# Position of the output path among the positional arguments of each writer.
_PATH_ARG = {"storage.write_ratio_csv": 1}
SCHEMES = ("etd_rk4", "strang_split")


def _fft_info(args, kwargs, out, name):
    """(dims, points per transform, batch, bytes moved) of one transform call."""
    a = args[0]
    in_shape = getattr(a, "shape", None) or numpy.asarray(a).shape
    if name.endswith("2"):
        axes = kwargs.get("axes", args[2] if len(args) > 2 else (-2, -1))
    elif name.endswith("n"):
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            axes = range(out.ndim)
    else:
        axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
    axes = [ax % out.ndim for ax in axes]
    points = 1
    for ax in axes:
        points *= max(out.shape[ax], in_shape[ax] if ax < len(in_shape) else 0)
    batch = 1
    for ax in range(out.ndim):
        if ax not in axes:
            batch *= out.shape[ax]
    moved = getattr(a, "nbytes", 0) + out.nbytes
    return len(axes), points, batch, moved


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, label=None, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, label(args) if label else None, perf_counter(), 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Rebind the numpy.fft transforms and every msmlab entry point."""
        for fname in FFT_NAMES:
            fn = getattr(numpy.fft, fname, None)
            if fn is None:
                continue
            setattr(numpy.fft, fname, self._wrap(
                "spectral.fft", fn,
                info=lambda a, k, out, fname=fname: _fft_info(a, k, out, fname)))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "msmlab" or n.startswith("msmlab."))]
        for span, (modname, attr) in ENTRY_POINTS.items():
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.missing.append(span)
                continue
            label = info = None
            if span == "msm.step":
                label = lambda args: args[1].scheme
            elif span == "maps.step":
                # Spatial dimension of the map: its values have shape grid + (3,).
                label = lambda args: args[0].s3.ndim - 1
            elif span in RATIO_SPANS:
                label = lambda args: len(args[0])
            elif span in WRITE_SPANS:
                pos = _PATH_ARG.get(span, 0)
                info = lambda a, k, out, pos=pos: os.path.getsize(a[pos])
            wrapped = self._wrap(span, fn, label=label, info=info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Reduce spans to the per-layer metrics named in ``layers.json``."""
    n = len(spans)
    duration = [s[3] - s[2] for s in spans]
    child_time = [0.0] * n
    ffts_below = [0] * n
    # Children are appended after their parent, so one reverse pass
    # accumulates subtree FFT counts.
    for i in range(n - 1, -1, -1):
        parent = spans[i][4]
        if spans[i][0] == "spectral.fft":
            ffts_below[i] += 1
        if parent >= 0:
            child_time[parent] += duration[i]
            ffts_below[parent] += ffts_below[i]

    def outermost(i):
        name, parent = spans[i][0], spans[i][4]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][4]
        return True

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    ffts: dict[str, int] = {}
    for i, span in enumerate(spans):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        if outermost(i):
            busy[name] = busy.get(name, 0.0) + duration[i]
            ffts[name] = ffts.get(name, 0) + ffts_below[i]

    def total(names, table):
        return sum(table.get(x, 0) for x in names)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    fft_dims = [0, 0, 0, 0]
    fft_bytes = fft_flops = 0
    for span in spans:
        if span[0] == "spectral.fft":
            dims, points, batch, moved = span[5]
            fft_dims[min(dims, 3)] += 1
            fft_bytes += moved
            fft_flops += 5.0 * batch * points * math.log2(points) if points > 1 else 0.0
    m["spectral.fft_calls_1d"] = fft_dims[1]
    m["spectral.fft_calls_2d"] = fft_dims[2]
    m["spectral.fft_calls_3d"] = fft_dims[3]
    m["spectral.fft_bytes"] = fft_bytes
    m["spectral.fft_flops"] = fft_flops
    m["spectral.fft_s"] = busy.get("spectral.fft", 0.0)

    m["msm.step_calls"] = calls.get("msm.step", 0)
    for scheme in SCHEMES:
        steps = [i for i, s in enumerate(spans) if s[0] == "msm.step" and s[1] == scheme]
        m[f"msm.step_s.{scheme}"] = ratio(
            sum(duration[i] - child_time[i] for i in steps), len(steps))
        m[f"msm.ffts_per_step.{scheme}"] = ratio(sum(ffts_below[i] for i in steps), len(steps))
    m["msm.nonlinearity_calls"] = calls.get("msm.nonlinearity", 0)
    m["msm.nonlinearity_s"] = busy.get("msm.nonlinearity", 0.0)
    m["msm.oracle_s"] = busy.get("msm.oracle", 0.0)

    m["maps.step_calls"] = calls.get("maps.step", 0)
    m["maps.step_s"] = busy.get("maps.step", 0.0)
    # The proxy for midpoint iterations counts 2-D steps only, so the 1-D
    # hasimoto steps do not dilute it.
    steps_2d = [i for i, s in enumerate(spans) if s[0] == "maps.step" and s[1] == 2]
    m["maps.ffts_per_step"] = ratio(sum(ffts_below[i] for i in steps_2d), len(steps_2d))

    m["gauge.build_calls"] = calls.get("gauge.build", 0)
    m["gauge.build_s"] = busy.get("gauge.build", 0.0)
    m["gauge.ffts_per_build"] = ratio(ffts.get("gauge.build", 0), calls.get("gauge.build", 0))
    m["gauge.verify_s"] = busy.get("gauge.verify", 0.0)

    trials = sum(s[1] for s in spans if s[0] in RATIO_SPANS)
    m["xsb.sample_s"] = busy.get("xsb.sample", 0.0)
    m["xsb.norm_calls"] = calls.get("xsb.norm", 0)
    m["xsb.norm_s"] = busy.get("xsb.norm", 0.0)
    m["xsb.ratio_s"] = total(RATIO_SPANS, busy)
    m["xsb.ffts_per_trial"] = ratio(total(RATIO_SPANS, ffts), trials)
    m["xsb.multiplier_calls"] = calls.get("xsb.multiplier", 0)
    m["xsb.multiplier_s"] = busy.get("xsb.multiplier_suite", 0.0)

    m["storage.write_calls"] = total(WRITE_SPANS, calls)
    m["storage.write_s"] = total(WRITE_SPANS, busy)
    m["storage.bytes_written"] = sum(s[5] for s in spans if s[0] in WRITE_SPANS)
    m["storage.manifest_s"] = busy.get("storage.manifest", 0.0)

    m["cli.parse_s"] = busy.get("cli.parse_config", 0.0)
    m["presets.calls"] = calls.get("presets.map_preset", 0) + calls.get("presets.msm_preset", 0)
    m["presets.s"] = busy.get("presets.map_preset", 0.0) + busy.get("presets.msm_preset", 0.0)
    return m
