"""Memory cache for closed Ulam matrices; memory/disk cache for spectral records.

Closed matrices are keyed by (map fingerprint, bin count) and kept only
for the process lifetime.  Spectral records are keyed the same way, since
everything they hold (unit eigenvalue, invariant density, power norms of
the mass-free part) is independent of the peripheral threshold r and the
separation delta.  The matrix power computations are by far the most
expensive step, so a warm record cache lets a second run at the same mesh
do no matrix work at all.  A record file whose ``schema`` tag differs from
:data:`RECORD_SCHEMA` was written by an older layout or older norm code,
and one whose map fingerprint, bin count, mass-vector length or power
count does not fit its key is not the record asked for; either is
recomputed and overwritten.

All writes are atomic (temp file + rename).  The cache directory comes
from the HOLECERT_CACHE_DIR environment variable when not given
explicitly; a cache constructed with ``directory=None`` is memory-only.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .maps import PiecewiseMap
from .spectral import N_POWERS, SpectralRecord, compute_record
from .ulam import UlamMatrix, UlamPartition, build_closed

__all__ = ["PipelineCache", "default_cache_dir", "CACHE_ENV_VAR"]

CACHE_ENV_VAR = "HOLECERT_CACHE_DIR"

#: layout tag of ``.spectral.npz`` files, raised whenever the code that
#: fills a record changes; files without it hold the full eigenvalue list
#: of the eigensolver-based layout; schema 2 holds power norms from the
#: row-block evaluation and schema 3 from the global-P^2 evaluation
RECORD_SCHEMA = 4

#: kind of each file the cache owns, by suffix (older versions wrote text
#: matrices); anything else in the directory is left alone
CACHED_KINDS = {".spectral.npz": "spectral", ".matrix.txt": "legacy matrix"}


def default_cache_dir() -> Path | None:
    """Directory named by HOLECERT_CACHE_DIR, or None (memory-only)."""
    value = os.environ.get(CACHE_ENV_VAR)
    return Path(value) if value else None


def _atomic_write(path: Path, writer) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class PipelineCache:
    """Caches closed matrices and spectral records for the pipeline.

    Parameters
    ----------
    directory : path-like or None
        On-disk location of the spectral records; None keeps them in
        memory for the process lifetime.  Matrices are never written.
    """

    def __init__(self, directory=None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._matrices: dict[tuple, UlamMatrix] = {}
        self._records: dict[tuple, SpectralRecord] = {}
        self.stats = {
            "matrix_hits": 0, "matrix_builds": 0,
            "spectral_hits": 0, "spectral_builds": 0,
        }

    # -- paths ------------------------------------------------------------

    def _record_path(self, fingerprint: str, n_bins: int) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{fingerprint}_{n_bins}.spectral.npz"

    # -- matrices -----------------------------------------------------------

    def closed_matrix(self, tmap: PiecewiseMap, n_bins: int) -> UlamMatrix:
        key = (tmap.fingerprint, n_bins)
        if key in self._matrices:
            self.stats["matrix_hits"] += 1
            return self._matrices[key]
        m = build_closed(tmap, UlamPartition(n_bins))
        self.stats["matrix_builds"] += 1
        self._matrices[key] = m
        return m

    # -- spectral records -----------------------------------------------------

    def spectral_record(self, tmap: PiecewiseMap, n_bins: int) -> SpectralRecord:
        key = (tmap.fingerprint, n_bins)
        record = self._records.get(key)
        path = self._record_path(tmap.fingerprint, n_bins)
        if record is None and path is not None and path.exists():
            record = _load_record(path, key)
            if record is not None:
                self._records[key] = record
        if record is not None:
            self.stats["spectral_hits"] += 1
            return record
        record = compute_record(self.closed_matrix(tmap, n_bins))
        self.stats["spectral_builds"] += 1
        self._records[key] = record
        if path is not None:
            _atomic_write(path, lambda tmp: _save_record(record, tmp))
        return record

    # -- maintenance ------------------------------------------------------------

    def _cached_files(self) -> list[tuple[Path, str]]:
        """(path, kind) of each file the cache owns, sorted by name."""
        if self.directory is None or not self.directory.exists():
            return []
        return [(path, kind) for path in sorted(self.directory.iterdir())
                for suffix, kind in CACHED_KINDS.items()
                if path.name.endswith(suffix) and path.is_file()]

    def entries(self) -> list[dict]:
        """One dict per cached file (empty for memory-only caches)."""
        return [{"file": path.name, "bytes": path.stat().st_size, "kind": kind}
                for path, kind in self._cached_files()]

    def purge(self) -> int:
        """Remove every cached file and in-memory entry; returns file count."""
        self._matrices.clear()
        self._records.clear()
        files = self._cached_files()
        for path, _ in files:
            path.unlink()
        return len(files)


def _save_record(record: SpectralRecord, path) -> None:
    meta = {
        "schema": RECORD_SCHEMA,
        "n_bins": record.n_bins,
        "map_fingerprint": record.map_fingerprint,
        "unit_eigenvalue": record.eigenvalues[0],
        "projection_norm": record.projection_norm,
        "unit_residual": record.unit_residual,
        "power_iterations": record.power_iterations,
    }
    np.savez(
        path,
        mass_vector=record.mass_vector,
        q_power_norms=np.asarray(record.q_power_norms),
        q_power_norms_colsum=np.asarray(record.q_power_norms_colsum),
        meta=json.dumps(meta),
    )
    # numpy appends .npz when missing; normalize for the atomic rename
    saved = path if str(path).endswith(".npz") else str(path) + ".npz"
    if saved != str(path):
        os.replace(saved, path)


def _load_record(path, key: tuple[str, int]) -> SpectralRecord | None:
    """The stored record, or None when it is not the one to serve.

    That is when the file has another layout, or does not hold the record
    of ``key`` = (map fingerprint, bin count) with at least
    :data:`holecert.spectral.N_POWERS` power norms.
    """
    with np.load(path, allow_pickle=False) as blob:
        meta = json.loads(str(blob["meta"]))
        if meta.get("schema") != RECORD_SCHEMA:
            return None
        record = SpectralRecord(
            n_bins=int(meta["n_bins"]),
            map_fingerprint=meta["map_fingerprint"],
            eigenvalues=(float(meta["unit_eigenvalue"]),),
            mass_vector=np.asarray(blob["mass_vector"]),
            projection_norm=float(meta["projection_norm"]),
            q_power_norms=tuple(float(v) for v in blob["q_power_norms"]),
            q_power_norms_colsum=tuple(float(v) for v in blob["q_power_norms_colsum"]),
            unit_residual=float(meta["unit_residual"]),
            power_iterations=int(meta["power_iterations"]),
        )
    fits = ((record.map_fingerprint, record.n_bins) == key
            and len(record.mass_vector) == record.n_bins
            and record.truncation_N + 1 >= N_POWERS)
    return record if fits else None
