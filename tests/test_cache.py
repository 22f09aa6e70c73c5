import json
import shutil

import numpy as np

import holecert as hc


def test_record_in_eigensolver_layout_is_recomputed(tmp_path, shift10):
    # the eigensolver-based layout: full eigenvalue list, no schema tag
    cache = hc.PipelineCache(tmp_path)
    path = cache._record_path(shift10.fingerprint, 10)
    meta = {"n_bins": 10, "map_fingerprint": shift10.fingerprint,
            "spectrum_complete": True, "projection_norm": 1.0,
            "unit_residual": 0.0, "power_iterations": 1}
    with open(path, "wb") as fh:
        np.savez(fh, eigenvalues=np.array([1.0, 0.5, 0.25], dtype=complex),
                 mass_vector=np.full(10, 0.1), q_power_norms=np.zeros(7),
                 q_power_norms_colsum=np.zeros(7), meta=json.dumps(meta))

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


def test_record_from_older_norm_code_is_recomputed(tmp_path, shift10):
    # a schema-3 record: written by the global-P^2 norm code, same layout
    cache = hc.PipelineCache(tmp_path)
    record = cache.spectral_record(shift10, 100)
    path = cache._record_path(shift10.fingerprint, 100)
    with np.load(path) as blob:
        arrays = {key: blob[key] for key in blob.files}
    meta = json.loads(str(arrays.pop("meta")))
    assert meta["schema"] == hc.cache.RECORD_SCHEMA == 4
    meta["schema"] = 3
    arrays["q_power_norms"] = np.full(7, 0.5)
    with open(path, "wb") as fh:
        np.savez(fh, meta=json.dumps(meta), **arrays)

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
