import dataclasses
import errno
import json
import os
import shutil

import numpy as np
import pytest

import holecert as hc
import spectral_oracle
from holecert.spectral import N_POWERS


def test_record_in_eigensolver_layout_is_recomputed(tmp_path, shift10):
    # a flat record in every respect but its header, which is the eigensolver
    # era's: a full eigenvalue list and no schema tag
    cache = hc.PipelineCache(tmp_path)
    path = cache._record_path(shift10.fingerprint, 10)
    meta = {"n_bins": 10, "map_fingerprint": shift10.fingerprint,
            "eigenvalues": [1.0, 0.5, 0.25], "spectrum_complete": True,
            "unit_eigenvalue": 1.0, "projection_norm": 1.0,
            "unit_residual": 0.0, "power_iterations": 1, "lengths": [7, 7, 10]}
    payload = np.concatenate((np.zeros(14), np.full(10, 0.1))).astype("<f8")
    path.write_bytes(json.dumps(meta).encode() + b"\n" + payload.tobytes())

    record = cache.spectral_record(shift10, 10)
    assert cache.stats["spectral_builds"] == 1
    assert cache.stats["spectral_hits"] == 0
    assert len(record.eigenvalues) == 1
    assert record.q_power_norms[0] > 0

    # the overwritten file now loads as a hit in a fresh cache
    fresh = hc.PipelineCache(tmp_path)
    reloaded = fresh.spectral_record(shift10, 10)
    assert fresh.stats == {"matrix_hits": 0, "matrix_builds": 0,
                           "spectral_hits": 1, "spectral_builds": 0}
    assert reloaded.eigenvalues == record.eigenvalues
    assert reloaded.q_power_norms == record.q_power_norms
    assert np.array_equal(reloaded.mass_vector, record.mass_vector)


def test_record_filed_under_another_mesh_is_recomputed(tmp_path, shift10):
    # a 100-bin record copied to the 200-bin name is not the 200-bin record
    cache = hc.PipelineCache(tmp_path)
    cache.spectral_record(shift10, 100)
    shutil.copy(cache._record_path(shift10.fingerprint, 100),
                cache._record_path(shift10.fingerprint, 200))

    fresh = hc.PipelineCache(tmp_path)
    record = fresh.spectral_record(shift10, 200)
    assert record.n_bins == 200
    assert len(record.mass_vector) == 200
    assert fresh.stats["spectral_hits"] == 0
    assert fresh.stats["spectral_builds"] == 1

    # the overwritten file now holds the 200-bin record
    again = hc.PipelineCache(tmp_path).spectral_record(shift10, 200)
    assert again.n_bins == 200


#: the arrays of a record file's payload, in order
PAYLOAD = ("q_power_norms", "q_power_norms_colsum", "mass_vector")


def _rewrite_record(path, schema=None, **arrays):
    """Rewrite a record file with its header's schema and some arrays replaced."""
    header, _, payload = path.read_bytes().partition(b"\n")
    meta = json.loads(header)
    parts = np.split(np.frombuffer(payload, dtype="<f8"), np.cumsum(meta["lengths"][:2]))
    stored = dict(zip(PAYLOAD, parts))
    if schema is not None:
        meta["schema"] = schema
    stored.update(arrays)
    meta["lengths"] = [len(stored[name]) for name in PAYLOAD]
    values = np.concatenate([stored[name] for name in PAYLOAD]).astype("<f8")
    path.write_bytes(json.dumps(meta).encode() + b"\n" + values.tobytes())


def test_record_from_older_norm_code_is_recomputed(tmp_path, shift10):
    # a schema-6 record: deviations formed over all bins, same layout
    cache = hc.PipelineCache(tmp_path)
    record = cache.spectral_record(shift10, 100)
    path = cache._record_path(shift10.fingerprint, 100)
    assert json.loads(path.read_bytes().partition(b"\n")[0])["schema"] == hc.cache.RECORD_SCHEMA == 11
    _rewrite_record(path, schema=6, q_power_norms=np.full(7, 0.5))

    rebuilt = hc.PipelineCache(tmp_path)
    again = rebuilt.spectral_record(shift10, 100)
    assert rebuilt.stats["spectral_builds"] == 1
    assert rebuilt.stats["spectral_hits"] == 0
    assert again.q_power_norms == record.q_power_norms

    # the overwritten file now loads as a hit
    fresh = hc.PipelineCache(tmp_path)
    assert fresh.spectral_record(shift10, 100).q_power_norms == record.q_power_norms
    assert fresh.stats["spectral_hits"] == 1
    assert fresh.stats["spectral_builds"] == 0


def test_record_file_mode_follows_umask(tmp_path, shift10):
    umask = os.umask(0)
    os.umask(umask)
    cache = hc.PipelineCache(tmp_path)
    cache.spectral_record(shift10, 10)
    mode = cache._record_path(shift10.fingerprint, 10).stat().st_mode & 0o777
    assert mode == 0o666 & ~umask


def test_failed_record_write_leaves_no_file(tmp_path, shift10, monkeypatch):
    # the disk fills up halfway through the record
    class FullDisk:
        def __init__(self, *args):
            self.fh = open(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(hc.cache, "open", FullDisk, raising=False)
    cache = hc.PipelineCache(tmp_path)
    with pytest.raises(OSError):
        cache.spectral_record(shift10, 10)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content", [b"", b"not a record"], ids=["empty", "garbage"])
def test_unreadable_record_is_recomputed(tmp_path, shift10, content):
    cache = hc.PipelineCache(tmp_path)
    path = cache._record_path(shift10.fingerprint, 10)
    path.write_bytes(content)

    record = cache.spectral_record(shift10, 10)
    assert cache.stats["spectral_builds"] == 1
    assert cache.stats["spectral_hits"] == 0

    # the overwritten file now loads as a hit
    fresh = hc.PipelineCache(tmp_path)
    assert fresh.spectral_record(shift10, 10).q_power_norms == record.q_power_norms
    assert fresh.stats["spectral_hits"] == 1


@pytest.mark.parametrize("family, length", [
    ("q_power_norms_colsum", 3), ("q_power_norms", 3), ("q_power_norms_colsum", 8),
])
def test_record_with_wrong_family_length_is_recomputed(tmp_path, bundled_map, family, length):
    # a current-schema file whose norm families differ in length used to
    # load, and then broke the spectral-radius bound of every certify run
    cache = hc.PipelineCache(tmp_path)
    record = cache.spectral_record(bundled_map, 40)
    path = cache._record_path(bundled_map.fingerprint, 40)
    _rewrite_record(path, **{family: np.resize(getattr(record, family), length)})

    rebuilt = hc.PipelineCache(tmp_path)
    again = rebuilt.spectral_record(bundled_map, 40)
    assert rebuilt.stats["spectral_builds"] == 1
    assert rebuilt.stats["spectral_hits"] == 0
    assert again.q_power_norms == record.q_power_norms
    assert again.q_power_norms_colsum == record.q_power_norms_colsum
    assert again.spectral_radius_bound == record.spectral_radius_bound

    # the overwritten file now loads as a hit
    fresh = hc.PipelineCache(tmp_path)
    assert fresh.spectral_record(bundled_map, 40).q_power_norms_colsum == record.q_power_norms_colsum
    assert fresh.stats["spectral_hits"] == 1


def test_record_round_trip_is_bit_identical(tmp_path, bundled_map):
    cache = hc.PipelineCache(tmp_path)
    record = cache.spectral_record(bundled_map, 200)
    fresh = hc.PipelineCache(tmp_path)
    again = fresh.spectral_record(bundled_map, 200)
    assert fresh.stats["spectral_hits"] == 1 and fresh.stats["spectral_builds"] == 0
    assert again.mass_vector.tobytes() == record.mass_vector.tobytes()
    assert again.mass_vector.dtype == np.float64
    assert again.mass_vector.flags.owndata and again.mass_vector.flags.writeable
    for field in ("q_power_norms", "q_power_norms_colsum", "eigenvalues", "projection_norm",
                  "unit_residual"):
        assert np.array(getattr(again, field)).tobytes() == np.array(getattr(record, field)).tobytes()
    for field in ("n_bins", "map_fingerprint", "power_iterations"):
        assert getattr(again, field) == getattr(record, field)


def _numpy_record_bytes(record):
    """A record file as the numpy writer before the struct one made it."""
    arrays = (record.q_power_norms, record.q_power_norms_colsum, record.mass_vector)
    header = {
        "schema": hc.cache.RECORD_SCHEMA,
        "n_bins": record.n_bins,
        "map_fingerprint": record.map_fingerprint,
        "unit_eigenvalue": record.eigenvalues[0],
        "projection_norm": record.projection_norm,
        "unit_residual": record.unit_residual,
        "power_iterations": record.power_iterations,
        "lengths": [len(a) for a in arrays],
    }
    payload = np.concatenate(arrays).astype("<f8", copy=False)
    return json.dumps(header).encode() + b"\n" + payload.tobytes()


@pytest.mark.parametrize("label, n_bins", [
    ("bundled", 200), ("shift10", 100), ("decreasing", 150),
])
def test_record_file_matches_numpy_writer(tmp_path, bundled_map, shift10, decreasing_map,
                                          label, n_bins):
    tmap = {"bundled": bundled_map, "shift10": shift10, "decreasing": decreasing_map}[label]
    cache = hc.PipelineCache(tmp_path)
    record = cache.spectral_record(tmap, n_bins)
    path = cache._record_path(tmap.fingerprint, n_bins)
    assert path.read_bytes() == _numpy_record_bytes(record)

    # the same with the norms of the slow row-block evaluation, which are
    # not the fast path's to the last bit
    P = cache.closed_matrix(tmap, n_bins).matrix
    rows, cols = spectral_oracle.q_power_norms(P, record.mass_vector, N_POWERS)
    oracle = dataclasses.replace(record, q_power_norms=tuple(rows),
                                 q_power_norms_colsum=tuple(cols))
    hc.cache._save_record(oracle, path)
    assert path.read_bytes() == _numpy_record_bytes(oracle)
    assert hc.PipelineCache(tmp_path).spectral_record(tmap, n_bins) == oracle


@pytest.mark.parametrize("damage", [
    lambda data: data[:-8],
    lambda data: data[:-3],
    lambda data: data.partition(b"\n")[0] + b"\n",
    lambda data: data.partition(b"\n")[0],
    lambda data: b"{not json" + data[data.index(b"\n"):],
    lambda data: b"[7]" + data[data.index(b"\n"):],
    lambda data: data + bytes(8),
    lambda data: data.replace(b'"lengths": [7, 7, 40]', b'"lengths": [7, 8, 39]'),
    lambda data: data.replace(b'"schema": 11', b'"schema": 10'),
], ids=["truncated", "truncated-mid-value", "header-only", "no-newline", "header-not-json",
        "header-not-object", "payload-too-long", "lengths-disagree", "wrong-schema"])
def test_damaged_record_is_recomputed(tmp_path, bundled_map, damage):
    cache = hc.PipelineCache(tmp_path)
    record = cache.spectral_record(bundled_map, 40)
    path = cache._record_path(bundled_map.fingerprint, 40)
    data = path.read_bytes()
    damaged = damage(data)
    assert damaged != data
    path.write_bytes(damaged)

    rebuilt = hc.PipelineCache(tmp_path)
    again = rebuilt.spectral_record(bundled_map, 40)
    assert rebuilt.stats["spectral_builds"] == 1
    assert rebuilt.stats["spectral_hits"] == 0
    assert again.q_power_norms == record.q_power_norms
    assert path.read_bytes() == data


def test_legacy_record_left_alone(tmp_path, shift10):
    # the npz records of older versions are not the cache's: never read,
    # listed or purged
    cache = hc.PipelineCache(tmp_path)
    current = cache._record_path(shift10.fingerprint, 10)
    legacy = current.with_name(current.name.replace(".spectral.bin", ".spectral.npz"))
    with open(legacy, "wb") as fh:
        np.savez(fh, mass_vector=np.full(10, 0.1), meta=json.dumps({"schema": 6}))
    cache.spectral_record(shift10, 10)
    assert cache.stats["spectral_builds"] == 1
    assert [(e["file"], e["kind"]) for e in cache.entries()] == [(current.name, "spectral")]
    assert cache.purge() == 1
    assert list(tmp_path.iterdir()) == [legacy]


def test_directory_created_on_first_write(tmp_path, shift10):
    cache = hc.PipelineCache(tmp_path / "x" / "deep" / "dir")
    assert cache.entries() == [] and cache.purge() == 0
    assert list(tmp_path.iterdir()) == []
    cache.spectral_record(shift10, 10)
    assert [e["kind"] for e in cache.entries()] == ["spectral"]


@pytest.mark.parametrize("given", ["argument", "environment"])
def test_home_directory_expanded(tmp_path, shift10, monkeypatch, given):
    home, work = tmp_path / "home", tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv(hc.cache.CACHE_ENV_VAR, "~/.cache/holecert")
    monkeypatch.chdir(work)
    cache = hc.PipelineCache("~/.cache/holecert" if given == "argument"
                             else hc.default_cache_dir())
    cache.spectral_record(shift10, 10)
    assert cache.directory == home / ".cache" / "holecert"
    assert [e["kind"] for e in cache.entries()] == ["spectral"]
    assert list(work.iterdir()) == []
