"""Atomic on-disk checkpoints for long-running workloads.

A checkpoint directory holds

* ``manifest.json`` -- a *fingerprint* of the workload (target, config,
  sharding geometry).  Resuming validates the fingerprint first: a
  checkpoint from a different campaign must fail loudly, never merge
  silently into a mismatched report.
* ``chunk-NNNNNN.json`` -- one file per completed work unit, written by
  the driver process only (workers never touch the directory, so a
  SIGKILL anywhere leaves the store consistent).
* ``snapshot.json`` -- a single whole-state snapshot for workloads that
  are one growing frontier rather than independent chunks (the Kripke
  builder).

Every write is atomic and durable: serialise to a temporary file in the
same directory, ``fsync``, then ``os.replace`` over the final name.  A
crash mid-write leaves either the old file or a stray ``*.tmp*`` that
readers ignore; a torn JSON file (pre-rename crash on a filesystem
without ordering guarantees) is treated as absent and its work unit is
simply redone.  Re-running a completed unit is always safe because every
workload checkpointed here is deterministic -- which is also why a
resumed run reproduces the uninterrupted report byte for byte.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Dict, Mapping, Optional, Union


class CheckpointError(RuntimeError):
    """A checkpoint directory cannot be used."""


class CheckpointMismatch(CheckpointError):
    """The directory's manifest fingerprints a different workload."""


def atomic_write_json(path: Path, payload: object) -> None:
    """Write ``payload`` as JSON via tmp-file + fsync + rename."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _read_json(path: Path) -> Optional[object]:
    """The parsed file, or None when missing or torn."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


class CheckpointStore:
    """One checkpoint directory with a manifest, chunks and a snapshot."""

    MANIFEST = "manifest.json"
    SNAPSHOT = "snapshot.json"
    _CHUNK_RE = re.compile(r"^chunk-(\d{6,})\.json$")

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- manifest ------------------------------------------------------
    def read_manifest(self) -> Optional[Dict[str, object]]:
        manifest = _read_json(self.directory / self.MANIFEST)
        return manifest if isinstance(manifest, dict) else None

    def ensure_manifest(self, fingerprint: Mapping[str, object]) -> bool:
        """Adopt the directory for ``fingerprint``.

        Returns True when a matching manifest already exists (a resume),
        False when the directory was fresh and the manifest was written.
        Raises :class:`CheckpointMismatch` when the directory belongs to
        a different workload.
        """
        fingerprint = dict(fingerprint)
        existing = self.read_manifest()
        if existing is not None:
            if existing != fingerprint:
                diff = sorted(
                    key for key in set(existing) | set(fingerprint)
                    if existing.get(key) != fingerprint.get(key)
                )
                raise CheckpointMismatch(
                    f"checkpoint {self.directory} belongs to a different "
                    f"workload (mismatched keys: {', '.join(diff)}); "
                    "pick an empty directory or rerun with the original "
                    "parameters"
                )
            return True
        atomic_write_json(self.directory / self.MANIFEST, fingerprint)
        return False

    # -- per-unit chunks -----------------------------------------------
    def chunk_path(self, index: int) -> Path:
        return self.directory / f"chunk-{index:06d}.json"

    def save_chunk(self, index: int, payload: object) -> None:
        atomic_write_json(self.chunk_path(index), payload)

    def chunks(self) -> Dict[int, object]:
        """All readable completed chunks, keyed by index (torn files skipped)."""
        out: Dict[int, object] = {}
        for entry in sorted(self.directory.iterdir()):
            match = self._CHUNK_RE.match(entry.name)
            if match is None:
                continue
            payload = _read_json(entry)
            if payload is not None:
                out[int(match.group(1))] = payload
        return out

    # -- whole-state snapshot ------------------------------------------
    def save_snapshot(self, payload: object) -> None:
        atomic_write_json(self.directory / self.SNAPSHOT, payload)

    def load_snapshot(self) -> Optional[object]:
        return _read_json(self.directory / self.SNAPSHOT)

    # -- lifecycle -----------------------------------------------------
    def clear(self) -> None:
        """Remove every checkpoint file (manifest, chunks, snapshot, temps)."""
        for entry in self.directory.iterdir():
            if (
                entry.name in (self.MANIFEST, self.SNAPSHOT)
                or self._CHUNK_RE.match(entry.name)
                or ".tmp." in entry.name
            ):
                entry.unlink(missing_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckpointStore({str(self.directory)!r})"
