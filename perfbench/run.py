"""msmlab benchmark: fresh-process workloads timed from outside the package.

    python3 perfbench/run.py --workload {msm-large,map-side,ensemble,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree (``src/msmlab`` next to ``perfbench``).
Each sample is a new Python process (``child.py``) that imports
``msmlab.cli``, builds the workload's config document from the seed, calls
``cli.parse_config`` and then ``cli.run_experiments``, so the ETDRK4 table
cache and the ``Grid2D`` cached arrays start as cold as for a CLI user.
Samples run one at a time, closed loop, with ``MSMLAB_THREADS`` unset,
until ``--seconds`` is spent; every run's artifacts pass ``check.verify``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (run_experiments
on the whole document), ``setup_s`` (process start to the first
run_experiments call, median over extra set-up-only processes and the full
samples) and ``peak_rss_mb``.  ``fail_frac`` is printed and carried by the
``attempted``/``failed`` fields.  ``--trace 1`` alternates traced and
untraced samples in pairs and reports the per-layer metrics of
``layers.json``.

Stdout ends with one JSON line: correct, attempted, failed, metrics.  The
full record (environment, quartiles, samples) is written under
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAYERS = json.loads((HERE / "layers.json").read_text())

RESULT_SCHEMA = 1
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_PROBES = 6
# A run must end within 180 s; no sample is started that cannot finish by then.
RUN_LIMIT_S = 170.0


class SetupFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("MSMLAB_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(workload: str, seed: int, out: Path | None, trace: bool, timeout: float) -> dict:
    """Run one child process; return its record plus ``ok`` and ``error``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out or OUT)]
    if trace:
        cmd.append("--trace")
    if out is None:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"ok": False, "error": f"exit code {proc.returncode}: {tail[0]}"}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(record["msmlab"]).resolve().is_relative_to(SRC):
        raise SetupFailed(f"msmlab was imported from {record['msmlab']}, not {SRC}")
    record["ok"], record["error"] = True, None
    return record


def summary(values: list[float], unit: str) -> dict:
    """Median with quartiles and the sample count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # Samples always run with it unset, as a user gets by default.
        "MSMLAB_THREADS": "unset",
        "git_commit": _git_commit(),
        "seed": seed,
    }


def is_traced(index: int) -> bool:
    """Whether sample ``index`` of a traced run is traced.

    Samples pair up as (0, 1), (2, 3), ...; the traced one runs first in
    even pairs and second in odd ones, so drift of the host's speed over a
    run does not bias the traced-minus-untraced difference.
    """
    return index % 2 == (index // 2) % 2


def collect(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run samples until the time is spent; return the raw samples."""
    began = time.monotonic()
    doc = workloads.document(workload, seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - began)

    samples: dict = {"setup_s": [], "full": [], "problems": [], "reference_checked": 0}
    try:
        # One untimed process warms the file cache and, unless disabled, the bytecode cache.
        warm = spawn(workload, seed, None, False, left())
        if not warm["ok"]:
            raise SetupFailed(f"set-up failed: {warm['error']}")
        measuring = time.monotonic()
        for _ in range(SETUP_PROBES):
            rec = spawn(workload, seed, None, False, left())
            if rec["ok"]:
                samples["setup_s"].append(rec["setup_s"])
            else:
                samples["problems"].append(f"set-up probe: {rec['error']}")
        durations: list[float] = []
        while True:
            traced = trace and is_traced(len(samples["full"]))
            out = work / f"sample-{len(samples['full'])}"
            started = time.monotonic()
            rec = spawn(workload, seed, out, traced, left())
            durations.append(time.monotonic() - started)
            rec["traced"] = traced
            if rec["ok"]:
                problems, referenced = check.verify(out, workload, seed, doc)
                samples["reference_checked"] += referenced
                if problems:
                    rec["ok"], rec["error"] = False, "; ".join(problems[:5])
            if not rec["ok"]:
                samples["problems"].append(rec["error"])
            samples["full"].append(rec)
            shutil.rmtree(out, ignore_errors=True)
            expected = statistics.median(durations)
            # A traced run measures whole traced/untraced pairs.
            enough = not (trace and len(samples["full"]) % 2)
            if enough and time.monotonic() + expected > measuring + seconds:
                break
            if left() < expected:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return samples


def reduce(workload: str, seed: int, seconds: float, trace: bool, samples: dict) -> dict:
    full = samples["full"]
    good = [r for r in full if r["ok"]]
    failed = len(full) - len(good)
    result = {
        "schema": RESULT_SCHEMA,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "attempted": len(full),
        "failed": failed,
        "fail_frac": failed / len(full),
        "reference_checked": samples["reference_checked"],
        "problems": samples["problems"],
        "samples": {
            "setup_s": samples["setup_s"],
            "wall_s": [r["wall_s"] for r in good if not r["traced"]],
            "traced_wall_s": [r["wall_s"] for r in good if r["traced"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good if not r["traced"]],
        },
        "summary": {},
    }
    correct = failed == 0
    if not trace:
        plain = [r for r in good if not r["traced"]]
        if plain:
            result["summary"]["wall_s"] = summary([r["wall_s"] for r in plain], "s")
            result["summary"]["setup_s"] = summary(
                samples["setup_s"] + [r["setup_s"] for r in plain], "s")
            result["summary"]["peak_rss_mb"] = summary([r["peak_rss_mb"] for r in plain], "MiB")
    else:
        traced = [r["layers"] for r in good if r["traced"]]
        pairs = [(a, b) if a["traced"] else (b, a) for a, b in zip(full[::2], full[1::2])]
        overhead = [t["wall_s"] - u["wall_s"] for t, u in pairs if t["ok"] and u["ok"]]
        missing = sorted({m for r in good if r["traced"] for m in r["missing_spans"]})
        if missing:
            result["problems"].append(f"entry points not found: {missing}")
        for metric in LAYERS:
            name, unit = metric["name"], metric["unit"]
            if name == "trace.overhead_s":
                if overhead:
                    result["summary"][name] = summary(overhead, unit)
                continue
            values = [t[name] for t in traced]
            if not values:
                continue
            if unit != "s" and len(set(values)) > 1:
                correct = False
                result["problems"].append(f"{name} differs between traced runs: {values}")
            result["summary"][name] = summary(values, unit)
    result["correct"] = correct and bool(result["summary"])
    return result


def validate_result(result: dict) -> None:
    """Raise ValueError unless ``result`` has the schema this file writes."""
    expect = {"schema": int, "workload": str, "seed": int, "seconds": (int, float),
              "trace": int, "environment": dict, "attempted": int, "failed": int,
              "fail_frac": (int, float), "reference_checked": int, "problems": list,
              "samples": dict, "summary": dict, "correct": bool}
    if set(result) != set(expect):
        raise ValueError(f"result keys {sorted(result)} differ from {sorted(expect)}")
    for key, kind in expect.items():
        if not isinstance(result[key], kind):
            raise ValueError(f"result field {key!r} is not {kind}")
    if result["schema"] != RESULT_SCHEMA:
        raise ValueError(f"result schema {result['schema']} is not {RESULT_SCHEMA}")
    names = list(END_TO_END) if not result["trace"] else [m["name"] for m in LAYERS]
    for name, entry in result["summary"].items():
        if name not in names or set(entry) != {"median", "q1", "q3", "n", "unit"}:
            raise ValueError(f"summary entry {name!r} is malformed")
        if not entry["q1"] <= entry["median"] <= entry["q3"] or entry["n"] < 1:
            raise ValueError(f"summary entry {name!r} has disordered quartiles")


def last_line(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["median"], "unit": entry["unit"]}
                    for name, entry in result["summary"].items()},
    }


def write_result(result: dict) -> Path:
    validate_result(result)
    folder = OUT / "results"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def report(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload and print its metrics; the last line is the result JSON."""
    try:
        samples = collect(workload, seed, seconds, trace)
    except SetupFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    result = reduce(workload, seed, seconds, trace, samples)
    path = write_result(result)
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for name, e in result["summary"].items():
        print(f"{workload} {name}: {e['median']:.6g} {e['unit']} "
              f"(q1 {e['q1']:.6g}, q3 {e['q3']:.6g}, n={e['n']})")
    print(f"{workload} fail_frac: {result['fail_frac']:.6g} ratio "
          f"({result['failed']}/{result['attempted']} runs failed; "
          f"{result['reference_checked']} checked against reference values)")
    print(f"result file: {path.relative_to(ROOT)}")
    if not result["summary"]:
        print("error: every sample failed", file=sys.stderr)
        return 1
    print(json.dumps(last_line(result)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "msmlab" / "cli.py").is_file():
        print(f"error: no msmlab source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    return max(report(name, args.seed, args.seconds, bool(args.trace)) for name in names)


if __name__ == "__main__":
    sys.exit(main())
