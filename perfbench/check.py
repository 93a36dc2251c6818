"""Correctness gate for one workload run: artifacts, invariants, references.

Three layers of checks, none of them a checksum comparison (a refactor may
move the last bits of a float):

* the manifest lists exactly the expected artifacts, and each file matches
  its recorded size and sha256;
* invariants read from the artifacts hold at every seed: msm mass drift,
  map normalization and energy drift, gauge and oracle residuals, the
  soliton residual, the null-form assembly mismatch, sup-L2 against its cap,
  and ``lower <= upper <= counting_bound`` for every multiplier;
* where ``reference.json`` holds values for the seed (recorded at the commit
  that defined the benchmark), every CSV cell matches: text cells exactly,
  numbers to ``RTOL`` relative, plus an absolute floor for quantities that
  sit at roundoff level.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

RTOL = 1e-8
# Quantities whose values are roundoff-sized, where a reordered sum changes the
# leading digit; the invariants below still bound them.  A quantity is a
# column name, or the row label of a ``quantity,value`` table.
ATOL = {
    "normalization_error": 1e-14,
    "div_a": 1e-11,
    "torsion": 1e-11,
    "curvature": 1e-11,
    "residual": 1e-11,
    "max_alpha_identity": 1e-12,
    "nullform_ibp_mismatch": 1e-12,
}

ARTIFACTS = {
    "msm-large": ["msm-etdrk4/final_state.msmf", "msm-etdrk4/trace.csv",
                  "msm-strang/final_state.msmf", "msm-strang/trace.csv"],
    "map-side": ["gauge-ladder/gauge_residuals.csv", "hasimoto-line/hasimoto.csv",
                 "map-flow/final_map.msmf", "map-flow/trajectory.csv",
                 "oracle-ladder/oracle_ladder.csv"],
    "ensemble": ["multiplier-bounds/multipliers.csv", "ratio-suite/ratio_extras.csv",
                 "ratio-suite/ratios.csv"],
}

MASS_DRIFT = 1e-6
NORMALIZATION = 1e-12
ENERGY_DRIFT = 1e-6
GAUGE_RESIDUAL = 1e-7
SOLITON_RESIDUAL = 1e-8
CUBIC_SPREAD = 0.01
NULLFORM_MISMATCH = 1e-9
BRACKET_SLACK = 1e-12


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_csvs(out: Path, workload: str) -> dict[str, list[list[str]]]:
    """Every CSV artifact of a run as header plus rows of cell text."""
    tables = {}
    for rel in ARTIFACTS[workload]:
        if rel.endswith(".csv"):
            with open(out / rel, newline="") as fh:
                tables[rel] = list(csv.reader(fh))
    return tables


def read_snapshot(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse the documented MSMF snapshot layout without importing msmlab."""
    data = path.read_bytes()
    if data[:4] != b"MSMF":
        raise ValueError(f"{path.name}: bad magic")
    _, hlen = struct.unpack("<II", data[4:12])
    header = json.loads(data[12:12 + hlen])
    arrays, pos = {}, 12 + hlen
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        count = math.prod(entry["shape"])
        arrays[entry["name"]] = np.frombuffer(
            data, dtype=dtype, count=count, offset=pos).reshape(entry["shape"])
        pos += count * dtype.itemsize
    return header, arrays


def _manifest(out: Path, workload: str) -> list[str]:
    problems = []
    manifest = json.loads((out / "manifest.json").read_text())
    listed = sorted(a["path"] for a in manifest["artifacts"])
    if listed != sorted(ARTIFACTS[workload]):
        problems.append(f"manifest lists {listed}, expected {sorted(ARTIFACTS[workload])}")
    for entry in manifest["artifacts"]:
        path = out / entry["path"]
        if not path.is_file():
            problems.append(f"{entry['path']}: missing")
            continue
        if path.stat().st_size != entry["bytes"]:
            problems.append(f"{entry['path']}: size differs from manifest")
        if hashlib.sha256(path.read_bytes()).hexdigest() != entry["sha256"]:
            problems.append(f"{entry['path']}: sha256 differs from manifest")
    return problems


def _finite(rows, columns) -> bool:
    return all(math.isfinite(float(r[c])) for r in rows for c in columns)


def _msm_large(out: Path, doc: dict) -> list[str]:
    problems = []
    for exp in doc["experiments"]:
        name = exp["name"]
        rows = read_csv(out / name / "trace.csv")
        mass = [float(r["mass"]) for r in rows]
        drift = max(abs(m - mass[0]) for m in mass) / mass[0]
        if not drift <= MASS_DRIFT:
            problems.append(f"{name}: mass drift {drift:.3e} > {MASS_DRIFT:g}")
        if not _finite(rows, ["h1_norm"]):
            problems.append(f"{name}: non-finite h1 norm")
        t_final = exp["time"]["t_final"]
        if abs(float(rows[-1]["time"]) - t_final) > 1e-9 * t_final:
            problems.append(f"{name}: trace ends at {rows[-1]['time']}, not {t_final}")
        header, arrays = read_snapshot(out / name / "final_state.msmf")
        n = exp["grid"]["n"]
        for key in ("u1", "u2"):
            if arrays[key].shape != (n, n) or not np.all(np.isfinite(arrays[key])):
                problems.append(f"{name}: final {key} has wrong shape or non-finite values")
        if abs(header["t"] - t_final) > 1e-9 * t_final:
            problems.append(f"{name}: final snapshot at t={header['t']}, not {t_final}")
    return problems


def _map_side(out: Path, doc: dict) -> list[str]:
    problems = []
    rows = read_csv(out / "map-flow" / "trajectory.csv")
    worst = max(float(r["normalization_error"]) for r in rows)
    if not worst <= NORMALIZATION:
        problems.append(f"map-flow: normalization_error {worst:.3e} > {NORMALIZATION:g}")
    energy = [float(r["energy"]) for r in rows]
    drift = max(abs(e - energy[0]) for e in energy) / energy[0]
    if not drift <= ENERGY_DRIFT:
        problems.append(f"map-flow: energy drift {drift:.3e} > {ENERGY_DRIFT:g}")
    _, arrays = read_snapshot(out / "map-flow" / "final_map.msmf")
    if not np.all(np.isfinite(arrays["s3"])):
        problems.append("map-flow: final map has non-finite values")

    rows = read_csv(out / "gauge-ladder" / "gauge_residuals.csv")
    worst = max(float(r[c]) for r in rows for c in ("div_a", "torsion", "curvature"))
    if not worst <= GAUGE_RESIDUAL:
        problems.append(f"gauge-ladder: identity residual {worst:.3e} > {GAUGE_RESIDUAL:g}")

    rows = read_csv(out / "oracle-ladder" / "oracle_ladder.csv")
    residual = [float(r["max_residual"]) for r in rows]
    if not _finite(rows, ["max_raw_residual", "max_alpha_identity", "max_residual"]):
        problems.append("oracle-ladder: non-finite residual")
    elif any(b >= a for a, b in zip(residual, residual[1:])):
        problems.append(f"oracle-ladder: residual does not fall under refinement: {residual}")

    rows = read_csv(out / "hasimoto-line" / "hasimoto.csv")
    fits = [float(r["cubic_coefficient"]) for r in rows if r["label"] != "soliton"]
    spread = (max(fits) - min(fits)) / abs(np.mean(fits))
    if not spread <= CUBIC_SPREAD:
        problems.append(f"hasimoto-line: cubic coefficient spread {spread:.3e}")
    soliton = [float(r["residual"]) for r in rows if r["label"] == "soliton"]
    if len(soliton) != 1 or not soliton[0] <= SOLITON_RESIDUAL:
        problems.append(f"hasimoto-line: soliton residual {soliton}")
    return problems


def _ensemble(out: Path, doc: dict) -> list[str]:
    problems = []
    rows = read_csv(out / "ratio-suite" / "ratios.csv")
    if len(rows) != 8 or not all(0.0 < float(r["max_ratio"]) < math.inf for r in rows):
        problems.append("ratio-suite: expected 8 finite positive max ratios")
    extras = {r["quantity"]: float(r["value"])
              for r in read_csv(out / "ratio-suite" / "ratio_extras.csv")}
    if not extras.get("nullform_ibp_mismatch", math.inf) <= NULLFORM_MISMATCH:
        problems.append(f"ratio-suite: null-form assembly mismatch "
                        f"{extras.get('nullform_ibp_mismatch')} > {NULLFORM_MISMATCH:g}")
    if not extras.get("sup_l2_max_ratio", math.inf) <= extras.get("sup_l2_cap", -math.inf):
        problems.append("ratio-suite: sup-L2 ratio exceeds its cap")

    rows = read_csv(out / "multiplier-bounds" / "multipliers.csv")
    n_pairs = doc["experiments"][1]["options"]["n_pairs"]
    if len(rows) != n_pairs:
        problems.append(f"multiplier-bounds: {len(rows)} rows, expected {n_pairs}")
    for r in rows:
        lower, upper, count = (float(r[c]) for c in ("lower", "upper", "counting_bound"))
        slack = BRACKET_SLACK * max(1.0, upper)
        if not (0.0 < lower <= upper + slack and upper <= count + slack):
            problems.append(f"multiplier-bounds row {r['index']}: "
                            f"lower {lower} upper {upper} counting {count} out of order")
    return problems


INVARIANTS = {"msm-large": _msm_large, "map-side": _map_side, "ensemble": _ensemble}


def _same_cell(got: str, want: str, quantity: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return abs(g - w) <= RTOL * abs(w) + ATOL.get(quantity, 0.0)


def compare_reference(tables: dict[str, list[list[str]]], reference: dict) -> list[str]:
    problems = []
    if sorted(tables) != sorted(reference):
        return [f"CSV artifacts {sorted(tables)} differ from reference {sorted(reference)}"]
    for rel, want in reference.items():
        got = tables[rel]
        if len(got) != len(want) or got[0] != want[0]:
            problems.append(f"{rel}: shape or header differs from reference")
            continue
        header = want[0]
        labelled = header == ["quantity", "value"]
        for i, (grow, wrow) in enumerate(zip(got[1:], want[1:]), start=1):
            if len(grow) != len(wrow):
                problems.append(f"{rel} row {i}: {len(grow)} cells, reference has {len(wrow)}")
                continue
            for column, g, w in zip(header, grow, wrow):
                if not _same_cell(g, w, wrow[0] if labelled else column):
                    problems.append(f"{rel} row {i} {column}: {g} != reference {w}")
    return problems


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def invariant_problems(out: Path, workload: str, doc: dict) -> list[str]:
    """Manifest and invariant problems of one run; holds at every seed."""
    try:
        return _manifest(out, workload) + INVARIANTS[workload](out, doc)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as err:
        return [f"artifacts unreadable: {type(err).__name__}: {err}"]


def verify(out: Path, workload: str, seed: int, doc: dict) -> tuple[list[str], bool]:
    """Problems found in one run's artifacts, and whether a reference applied."""
    problems = invariant_problems(out, workload, doc)
    reference = load_reference(workload, seed)
    if reference is None or problems:
        return problems, False
    return compare_reference(read_csvs(out, workload), reference), True
