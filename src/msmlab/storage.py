"""Artifact emission: binary field snapshots, CSV tables, manifests.

Snapshot format (little-endian throughout):

    bytes 0..3    magic ``MSMF``
    bytes 4..7    format version, uint32 (currently 1)
    bytes 8..11   header length H, uint32
    bytes 12..    H bytes of UTF-8 JSON with sorted keys:
                  ``kind``    "map_field" or "msm_state"
                  ``grid``    {"dim": 1|2, "n": int, "length": float}
                  ``arrays``  ordered list of {"name", "dtype", "shape"}
                  plus per-kind scalars ("target", "sign", "t")
    bytes 12+H..  raw array data, C order, concatenated in header order

Arrays use explicit little-endian dtypes (``<f8``, ``<c16``), so files are
portable across hosts.  Readers reject unknown magic or versions instead
of guessing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .maps import MapField, Target
from .msm import MSMState
from .spectral import Grid1D, Grid2D

MAGIC = b"MSMF"
FORMAT_VERSION = 1
DTYPES = ("<f8", "<c16")


def _grid_meta(grid) -> dict:
    return {"dim": grid.dim, "n": grid.n, "length": grid.length}


def _grid_from_meta(meta: dict):
    cls = Grid1D if meta["dim"] == 1 else Grid2D
    return cls(n=int(meta["n"]), length=float(meta["length"]))


def _write_snapshot(path, kind: str, grid, arrays: dict[str, np.ndarray], scalars: dict) -> None:
    # The header needs only dtypes and shapes, so each array is written from
    # its own buffer; a copy is made only of a strided or non-native array.
    arrays = {name: np.ascontiguousarray(arr) for name, arr in arrays.items()}
    dtypes = {name: "<c16" if np.iscomplexobj(arr) else "<f8" for name, arr in arrays.items()}
    header = dict(scalars)
    header["kind"] = kind
    header["grid"] = _grid_meta(grid)
    header["arrays"] = [{"name": name, "dtype": dtypes[name], "shape": list(arr.shape)}
                        for name, arr in arrays.items()]
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(payload)))
        fh.write(payload)
        for name, arr in arrays.items():
            fh.write(arr.astype(dtypes[name], copy=False))


def _read_exactly(fh, path, size: int, what: str) -> bytes:
    # Sized against the file first, so a header cannot make the reader allocate past it.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ValueError(f"{path}: truncated {what} ({left} of {size} bytes)")
    return fh.read(size)


def read_snapshot(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse any snapshot file into its header and named arrays.

    A file cut short anywhere, carrying bytes past its last array, or with a
    header that is not a JSON object naming its kind and its arrays' names,
    dtypes (one of ``DTYPES``) and shapes (lists of non-negative ints), is
    rejected with a ValueError naming the path.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a field snapshot (magic {magic!r})")
        version, hlen = struct.unpack("<II", _read_exactly(fh, path, 8, "header"))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        try:
            header = json.loads(_read_exactly(fh, path, hlen, "header").decode())
            entries = [(e["name"], e["dtype"], e["shape"]) for e in header["arrays"]]
            header["kind"]  # every loader dispatches on it
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as err:
            raise ValueError(f"{path}: malformed header ({type(err).__name__}: {err})") from err
        arrays = {}
        for name, dtype, shape in entries:
            if dtype not in DTYPES or not isinstance(shape, list) or not all(
                    type(d) is int and d >= 0 for d in shape):
                raise ValueError(f"{path}: array {name!r} has dtype {dtype!r}, shape {shape!r}")
            dtype = np.dtype(dtype)
            buf = _read_exactly(fh, path, math.prod(shape) * dtype.itemsize, f"array {name!r}")
            arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
    return header, arrays


def save_map_field(path, mf: MapField) -> None:
    _write_snapshot(path, "map_field", mf.grid, {"s3": mf.s3}, {"target": mf.target.name})


def load_map_field(path) -> MapField:
    header, arrays = read_snapshot(path)
    if header["kind"] != "map_field":
        raise ValueError(f"{path}: holds {header['kind']!r}, not a map field")
    grid = _grid_from_meta(header["grid"])
    return MapField(grid, np.array(arrays["s3"], dtype=float), Target[header["target"]])


def save_msm_state(path, state: MSMState) -> None:
    _write_snapshot(
        path, "msm_state", state.grid,
        {"u1": state.u1, "u2": state.u2},
        {"sign": state.sign, "t": state.t},
    )


def load_msm_state(path) -> MSMState:
    header, arrays = read_snapshot(path)
    if header["kind"] != "msm_state":
        raise ValueError(f"{path}: holds {header['kind']!r}, not a field pair")
    grid = _grid_from_meta(header["grid"])
    return MSMState(
        grid=grid, u1=np.array(arrays["u1"]), u2=np.array(arrays["u2"]),
        sign=float(header["sign"]), t=float(header["t"]),
    )


def format_value(v) -> str:
    """Locale-free cell formatting; floats always carry full precision."""
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{float(v):.12e}"
    return str(v)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, artifact_paths: list[str]) -> Path:
    """Record every artifact (path relative to ``out_dir``) with checksums."""
    out_dir = Path(out_dir)
    entries = []
    for rel in sorted(artifact_paths):
        full = out_dir / rel
        entries.append({
            "path": rel,
            "sha256": sha256_file(full),
            "bytes": full.stat().st_size,
        })
    manifest = {"version": FORMAT_VERSION, "artifacts": entries}
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
