"""Binary snapshots, CSV emission, and the checksum manifest."""

import json
import struct

import numpy as np
import pytest

from msmlab.maps import MapField, Target
from msmlab.msm import MSMState
from msmlab.spectral import Grid1D, Grid2D
from msmlab.storage import (
    FORMAT_VERSION,
    MAGIC,
    load_map_field,
    load_msm_state,
    read_snapshot,
    save_map_field,
    save_msm_state,
    sha256_file,
    write_csv,
    write_manifest,
)
from memtrace import traced_peak


def random_state(n=16, seed=0):
    g = Grid2D(n=n, length=2.0)
    rng = np.random.default_rng(seed)
    u1 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    u2 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return MSMState(grid=g, u1=u1, u2=u2, sign=-1.0, t=0.375)


def with_header(blob, hlen, header):
    """The snapshot ``blob`` with its JSON header replaced by ``header``."""
    payload = json.dumps(header).encode()
    return blob[:8] + struct.pack("<I", len(payload)) + payload + blob[12 + hlen:]


def entry(blob, hlen, **changes):
    """The snapshot ``blob`` with its first array entry's fields replaced."""
    header = json.loads(blob[12:12 + hlen])
    header["arrays"][0].update(changes)
    return with_header(blob, hlen, header)


class TestSnapshots:
    def test_msm_state_roundtrip(self, tmp_path):
        st = random_state()
        path = tmp_path / "state.msmf"
        save_msm_state(path, st)
        back = load_msm_state(path)
        assert back.grid == st.grid
        assert back.sign == st.sign and back.t == st.t
        np.testing.assert_array_equal(back.u1, st.u1)
        np.testing.assert_array_equal(back.u2, st.u2)

    def test_map_field_roundtrip_both_targets(self, tmp_path):
        g = Grid2D(n=16, length=1.0)
        for target, point in ((Target.SPHERE, (0.6, 0.0, -0.8)),
                              (Target.HYPERBOLIC, (0.3, 0.4, 1.0))):
            mf = MapField.constant(g, point, target)
            path = tmp_path / f"{target.name}.msmf"
            save_map_field(path, mf)
            back = load_map_field(path)
            assert back.target is target
            np.testing.assert_array_equal(back.s3, mf.s3)

    def test_one_dimensional_grid_survives(self, tmp_path):
        g = Grid1D(n=32, length=2 * np.pi)
        mf = MapField.from_stereo(g, 0.3 * np.exp(1j * g.x))
        save_map_field(tmp_path / "line.msmf", mf)
        back = load_map_field(tmp_path / "line.msmf")
        assert isinstance(back.grid, Grid1D)
        assert back.grid == g

    def test_header_is_self_describing(self, tmp_path):
        path = tmp_path / "state.msmf"
        save_msm_state(path, random_state())
        header, arrays = read_snapshot(path)
        assert header["kind"] == "msm_state"
        assert header["grid"] == {"dim": 2, "n": 16, "length": 2.0}
        assert [e["name"] for e in header["arrays"]] == ["u1", "u2"]
        assert arrays["u1"].dtype == np.dtype("<c16")

    def test_saving_copies_no_contiguous_array(self, tmp_path):
        # Each array is written from its own buffer.  A dtype copy of each,
        # and every array's bytes held until the file was written, read 3 fields.
        st = random_state(n=256)
        peak = traced_peak(lambda: save_msm_state(tmp_path / "state.msmf", st))
        assert peak < st.u1.nbytes / 8

    def test_file_does_not_depend_on_memory_layout(self, tmp_path):
        mf = MapField.from_stereo(Grid2D(n=16, length=1.0), random_state().u1 / 4)
        strided = MapField(mf.grid, np.moveaxis(np.moveaxis(mf.s3, -1, 0).copy(), 0, -1),
                           mf.target)
        assert not strided.s3.flags.c_contiguous
        save_map_field(tmp_path / "a.msmf", mf)
        save_map_field(tmp_path / "b.msmf", strided)
        assert (tmp_path / "a.msmf").read_bytes() == (tmp_path / "b.msmf").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.msmf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "state.msmf"
        save_msm_state(path, random_state())
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", FORMAT_VERSION + 7)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            read_snapshot(path)

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "state.msmf"
        save_msm_state(path, random_state())
        with pytest.raises(ValueError, match="msm_state"):
            load_map_field(path)

    @pytest.mark.parametrize("cut, message", [
        (lambda blob, hlen: blob[:6], "truncated header"),
        (lambda blob, hlen: blob[:12 + hlen // 2], "truncated header"),
        (lambda blob, hlen: blob[:12 + hlen + 100], "truncated array 'u1'"),
        (lambda blob, hlen: blob[:-1], "truncated array 'u2'"),
        (lambda blob, hlen: blob + b"\x00\x00", "trailing bytes"),
        (lambda blob, hlen: blob[:14] + b"\xff" + blob[15:], "malformed header"),
        (lambda blob, hlen: with_header(blob, hlen, []), "malformed header"),
        (lambda blob, hlen: with_header(blob, hlen, {"kind": "msm_state"}), "malformed header"),
        (lambda blob, hlen: with_header(blob, hlen, {"arrays": []}), "malformed header"),
        (lambda blob, hlen: with_header(blob, hlen, {"kind": "msm_state", "arrays": [
            {"name": "u1", "shape": [16, 16]}]}), "malformed header"),
        (lambda blob, hlen: entry(blob, hlen, shape=[-1]), r"shape \[-1\]"),
        (lambda blob, hlen: entry(blob, hlen, shape=["a"]), r"shape \['a'\]"),
        (lambda blob, hlen: entry(blob, hlen, shape=[True, 16]), r"shape \[True, 16\]"),
        (lambda blob, hlen: entry(blob, hlen, shape=16), "shape 16"),
        (lambda blob, hlen: entry(blob, hlen, shape=[2**40, 2**40]), "truncated array 'u1'"),
        (lambda blob, hlen: entry(blob, hlen, dtype="<U4"), "dtype '<U4'"),
        (lambda blob, hlen: entry(blob, hlen, dtype=">f8"), "dtype '>f8'"),
    ], ids=["fixed-header", "json-header", "mid-array", "last-byte", "trailing",
            "header-not-utf8", "header-not-object", "header-without-arrays",
            "header-without-kind", "entry-without-dtype", "negative-extent",
            "string-extent", "bool-extent", "shape-not-a-list", "overflowing-count",
            "string-dtype", "big-endian-dtype"])
    def test_cut_or_padded_file_rejected(self, tmp_path, cut, message):
        path = tmp_path / "state.msmf"
        save_msm_state(path, random_state())
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        path.write_bytes(cut(blob, hlen))
        with pytest.raises(ValueError, match=message) as info:
            read_snapshot(path)
        assert str(path) in str(info.value)

    def test_magic_is_first_bytes(self, tmp_path):
        path = tmp_path / "state.msmf"
        save_msm_state(path, random_state())
        assert path.read_bytes()[:4] == MAGIC


class TestCsvAndManifest:
    def test_floats_written_in_full_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 0.1 + 0.2], ["x", np.float64(2.5e-11)]])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,3.000000000000e-01"
        assert lines[2] == "x,2.500000000000e-11"

    def test_sha256_known_vector(self, tmp_path):
        path = tmp_path / "abc.txt"
        path.write_bytes(b"abc")
        assert sha256_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_manifest_lists_every_artifact_sorted(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.csv").write_text("x\n")
        (tmp_path / "a.csv").write_text("y\n")
        manifest_path = write_manifest(tmp_path, ["sub/b.csv", "a.csv"])
        manifest = json.loads(manifest_path.read_text())
        assert [e["path"] for e in manifest["artifacts"]] == ["a.csv", "sub/b.csv"]
        for entry in manifest["artifacts"]:
            assert entry["sha256"] == sha256_file(tmp_path / entry["path"])
            assert entry["bytes"] == (tmp_path / entry["path"]).stat().st_size

    def test_empty_manifest(self, tmp_path):
        manifest = json.loads(write_manifest(tmp_path, []).read_text())
        assert manifest["artifacts"] == []
