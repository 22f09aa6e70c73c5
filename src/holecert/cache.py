"""Memory cache for closed Ulam matrices; memory/disk cache for spectral records.

Closed matrices are keyed by (map fingerprint, bin count) and kept only
for the process lifetime, as the factors that the assembly makes: no
record or escape estimate computed here expands its matrix, which
keeps its quotient chain.  Spectral records are keyed the same way, since
everything they hold (unit eigenvalue, invariant density, power norms of
the mass-free part) is independent of the peripheral threshold r and the
separation delta.  The matrix power computations are by far the most
expensive step, so a warm record cache lets a second run at the same mesh
do no matrix work at all (nor load numpy or scipy, which only a matrix
build imports: records are read and written with ``struct`` and bytes
slicing).  A record is one flat file: a JSON header line
(the scalars, the schema tag and each array's length), then the
little-endian float64 row family, column family and mass vector.  A file
whose ``schema`` tag differs from :data:`RECORD_SCHEMA` was written by an
older layout or older record code (schema 9 iterated the full matrix for
the mass vector, which now comes from the quotient chain and differs at
rounding level; schema 10 also merged the equal rows that the assembly
leaves apart, those of a symmetric map's branches with ends inside
bins), and one whose map fingerprint, bin count, mass-vector
length, the length of either power-norm family or payload size does not
fit is not the record asked for; either is recomputed and overwritten, as
is a file that cannot be read or parsed.  The ``.spectral.npz`` records
and ``.matrix.txt`` matrices of older versions are not the cache's: it
neither reads, lists nor purges them.

All writes are atomic (temp file + rename).  The cache directory comes
from the HOLECERT_CACHE_DIR environment variable when not given
explicitly; a cache constructed with ``directory=None`` is memory-only.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

from .maps import PiecewiseMap
from .spectral import N_POWERS, SpectralRecord, compute_record
from .ulam import UlamMatrix, build_closed

__all__ = ["PipelineCache", "default_cache_dir", "CACHE_ENV_VAR"]

CACHE_ENV_VAR = "HOLECERT_CACHE_DIR"

#: layout tag of spectral records: raise it whenever the code that fills a
#: record changes; a file with another tag is recomputed
RECORD_SCHEMA = 11

#: kind of each file the cache owns, by suffix; anything else in the
#: directory is left alone
CACHED_KINDS = {".spectral.bin": "spectral"}


def default_cache_dir() -> Path | None:
    """Directory named by HOLECERT_CACHE_DIR, or None (memory-only)."""
    value = os.environ.get(CACHE_ENV_VAR)
    return Path(value) if value else None


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it."""
    tmp = path.with_name(f"{path.name}.{os.urandom(16).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:    # created with the umask's mode
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class PipelineCache:
    """Caches closed matrices and spectral records for the pipeline.

    Parameters
    ----------
    directory : path-like or None
        On-disk location of the spectral records, with a leading ``~``
        expanded, created on the first write; None keeps them in memory
        for the process lifetime.  Matrices are never written.
    """

    def __init__(self, directory=None):
        self.directory = Path(directory).expanduser() if directory is not None else None
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
        return self.directory / f"{fingerprint}_{n_bins}.spectral.bin"

    # -- matrices -----------------------------------------------------------

    def closed_matrix(self, tmap: PiecewiseMap, n_bins: int) -> UlamMatrix:
        key = (tmap.fingerprint, n_bins)
        if key in self._matrices:
            self.stats["matrix_hits"] += 1
            return self._matrices[key]
        m = build_closed(tmap, n_bins)
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
            _save_record(record, path)
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


def _save_record(record: SpectralRecord, path: Path) -> None:
    norms = record.q_power_norms + record.q_power_norms_colsum
    header = {
        "schema": RECORD_SCHEMA,
        "n_bins": record.n_bins,
        "map_fingerprint": record.map_fingerprint,
        "unit_eigenvalue": record.eigenvalues[0],
        "projection_norm": record.projection_norm,
        "unit_residual": record.unit_residual,
        "power_iterations": record.power_iterations,
        "lengths": [len(record.q_power_norms), len(record.q_power_norms_colsum),
                    len(record.mass_bytes) // 8],
    }
    payload = struct.pack(f"<{len(norms)}d", *norms) + record.mass_bytes
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, json.dumps(header).encode() + b"\n" + payload)


def _load_record(path: Path, key: tuple[str, int]) -> SpectralRecord | None:
    """The stored record, or None when it is not the one to serve.

    That is when the file cannot be read or parsed, has another layout, or
    does not hold the record of ``key`` = (map fingerprint, bin count) with
    exactly :data:`holecert.spectral.N_POWERS` + 1 norms in each family and
    as many payload values as its header lists.
    """
    try:
        header, _, payload = path.read_bytes().partition(b"\n")
        meta = json.loads(header)
        if meta.get("schema") != RECORD_SCHEMA:
            return None
        k = N_POWERS + 1
        if meta["lengths"] != [k, k, key[1]] or len(payload) != 8 * (2 * k + key[1]):
            return None
        norms = struct.unpack_from(f"<{2 * k}d", payload)
        record = SpectralRecord(
            n_bins=int(meta["n_bins"]),
            map_fingerprint=meta["map_fingerprint"],
            eigenvalues=(float(meta["unit_eigenvalue"]),),
            mass_bytes=payload[16 * k:],
            projection_norm=float(meta["projection_norm"]),
            q_power_norms=norms[:k],
            q_power_norms_colsum=norms[k:],
            unit_residual=float(meta["unit_residual"]),
            power_iterations=int(meta["power_iterations"]),
        )
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return record if (record.map_fingerprint, record.n_bins) == key else None
