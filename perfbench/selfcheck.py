"""Self-check of the benchmark itself; not part of the package's test suite.

    python3 perfbench/selfcheck.py

Checks, at the default seed 0:

* ``BENCHMARK.json``, ``layers.json`` and ``run.py`` name the same metrics;
* two traced runs of each workload give identical counts, equal to the
  counts recorded in ``baseline.json`` for the commit that defined the
  benchmark (266 and 140 FFTs per ETDRK4 and Strang step at n=256, 52 per
  gauge build, and 13470 / 312 per 2-D map step);
* each workload's bypass prediction: no ``xsb`` work on msm-large, no
  ``msm`` nonlinearity or ``maps`` work on ensemble, no ``msm.nonlinearity``
  or ``xsb`` work on map-side;
* the correctness gate is not vacuous: a perturbed CSV cell and a stale
  manifest entry are both reported, while a roundoff-sized move of the
  null-form mismatch stays within its absolute floor;
* a result file round-trips its schema and ends stdout in the contract form.

Exits 1 and lists every failed check.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads

SEED = 0
BYPASSED = {
    "msm-large": ("xsb.norm_calls", "xsb.multiplier_calls", "xsb.sample_s", "xsb.ratio_s",
                  "maps.step_calls", "gauge.build_calls", "spectral.fft_calls_3d"),
    "map-side": ("msm.nonlinearity_calls", "msm.step_calls", "xsb.norm_calls",
                 "xsb.multiplier_calls", "spectral.fft_calls_3d"),
    "ensemble": ("msm.step_calls", "msm.nonlinearity_calls", "msm.oracle_s",
                 "maps.step_calls", "gauge.build_calls"),
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def counts(layers: dict) -> dict:
    units = {m["name"]: m["unit"] for m in run.LAYERS}
    return {k: v for k, v in layers.items() if units[k] != "s"}


def check_names() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads of workloads.py")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == [(m["name"], m["unit"], m["better"]) for m in run.LAYERS],
           "BENCHMARK.json per_layer matches layers.json")


def check_traces(baseline: dict) -> None:
    for workload in workloads.WORKLOADS:
        seen = []
        for _ in range(2):
            out = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT))
            try:
                rec = run.spawn(workload, SEED, out, True, run.RUN_LIMIT_S)
                problems = check.verify(out, workload, SEED, workloads.document(workload, SEED))[0] \
                    if rec["ok"] else [rec["error"]]
            finally:
                shutil.rmtree(out, ignore_errors=True)
            expect(not problems, f"{workload}: traced run passes the correctness gate {problems}")
            if not rec["ok"]:
                return
            expect(not rec["missing_spans"], f"{workload}: every entry point was traced")
            seen.append(counts(rec["layers"]))
        expect(seen[0] == seen[1], f"{workload}: traced counts repeat exactly")
        recorded = baseline["workloads"][workload]["per_layer"]
        moved = {k: (v, recorded[k]["median"]) for k, v in seen[0].items()
                 if v != recorded[k]["median"]}
        expect(not moved, f"{workload}: counts equal the baseline commit's {moved}")
        zero = {k: v for k, v in rec["layers"].items() if k in BYPASSED[workload] and v}
        expect(not zero, f"{workload}: bypassed layers do no work {zero}")
        if workload == "msm-large":
            expect(seen[0]["msm.ffts_per_step.etd_rk4"] == 266, "266 FFTs per ETDRK4 step at n=256")
            expect(seen[0]["msm.ffts_per_step.strang_split"] == 140,
                   "140 FFTs per Strang step at n=256")
        if workload == "map-side":
            expect(seen[0]["gauge.ffts_per_build"] == 52, "52 FFTs per gauge build")
            # 300 map-flow steps and 12 oracle-ladder steps, all 2-D.
            expect(seen[0]["maps.ffts_per_step"] == 13470 / 312,
                   "13470 FFTs over 312 2-D map steps at seed 0")


def edit_cell(out: Path, rel: str, row: int, column: int, change) -> None:
    """Apply ``change`` to one CSV cell, leaving the manifest stale."""
    path = out / rel
    rows = path.read_text().splitlines()
    cells = rows[row].split(",")
    cells[column] = repr(change(float(cells[column])))
    rows[row] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")


def refresh_manifest(out: Path) -> None:
    """Rewrite every manifest entry to match the files as they are now."""
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["artifacts"]:
        path = out / entry["path"]
        entry["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        entry["bytes"] = path.stat().st_size
    (out / "manifest.json").write_text(json.dumps(manifest))


def check_gate() -> None:
    workload = "ensemble"
    if check.load_reference(workload, SEED) is None:
        expect(False, "reference.json holds values for the default seed")
        return
    out = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT))
    try:
        rec = run.spawn(workload, SEED, out, False, run.RUN_LIMIT_S)
        doc = workloads.document(workload, SEED)
        problems, referenced = check.verify(out, workload, SEED, doc)
        expect(rec["ok"] and not problems and referenced, "clean run passes against reference")

        # Row 1 of ratio_extras.csv is nullform_ibp_mismatch, about 7e-16 at
        # seed 0: a roundoff-level move stays within its absolute floor.
        edit_cell(out, "ratio-suite/ratio_extras.csv", 1, 1, lambda v: v + 1e-15)
        refresh_manifest(out)
        problems = check.verify(out, workload, SEED, doc)[0]
        expect(not problems, f"a 1e-15 move of nullform_ibp_mismatch passes {problems}")

        # Row 2 of seed 0 has lower < upper, so the edit breaks no invariant.
        edit_cell(out, "multiplier-bounds/multipliers.csv", 2, 6, lambda v: v * (1 + 1e-6))
        problems = check.verify(out, workload, SEED, doc)[0]
        expect(any("sha256" in p for p in problems), "edited artifact fails its manifest entry")
        refresh_manifest(out)
        problems = check.verify(out, workload, SEED, doc)[0]
        expect(any("lower" in p and "reference" in p for p in problems),
               "a 1e-6 relative change in one CSV cell fails the reference check")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def check_result_schema() -> None:
    samples = run.collect("map-side", SEED, 1.0, True)
    result = run.reduce("map-side", SEED, 1.0, True, samples)
    path = run.write_result(result)
    again = json.loads(path.read_text())
    run.validate_result(again)
    expect(again == result, "result file round-trips")
    line = run.last_line(again)
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, "last line has the contract keys")
    expect(list(line["metrics"]) == [m["name"] for m in run.LAYERS],
           "traced result reports every per-layer metric")
    expect(again["correct"] and again["failed"] == 0, "traced map-side run is correct")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    baseline = json.loads((run.HERE / "baseline.json").read_text())
    check_names()
    check_gate()
    check_result_schema()
    check_traces(baseline)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
