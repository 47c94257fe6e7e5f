"""Content-addressed on-disk cache of generated simulator modules.

Layout (one directory per artifact, named by its SHA-256 key)::

    <root>/
      <key>/module.py    generated source (importable, diffable)
      <key>/module.code  its compiled code objects (marshal)
      <key>/meta.json    {"key", "codegen_version", "netlist", ...}
      <key>/data.json    JSON payload artifacts (lint findings, ...)

Every write serialises to a tmp file in the same directory and
``os.replace``-s it into place, so concurrent builders (campaign worker
processes warming the same cache) race benignly: last rename wins with
byte-identical content.  No file is ``fsync``-ed: after a crash one may
be torn or empty, and every load checks them, so losing one costs a
rebuild, where the ``fsync`` would cost every cold build a few
milliseconds.

Loads verify before trusting: ``meta.json`` must parse and name the
requested key, and the file it describes must hash to the SHA-256 it
records (``source_sha256`` for ``module.py``, ``data_sha256`` for
``data.json``).  A module's ``meta.json`` must also carry the current
codegen version, and the imported module the same ``KEY``.  Any
mismatch -- a hand-edited artifact, a cache written by a different
codegen version, a torn file, an entry written before the digest was
recorded -- is treated as absent and rebuilt (invalidation is just a
key change or a failed check).

``module.code`` spares a disk hit the compile, which costs several
times the emit.  It is headed by ``importlib.util.MAGIC_NUMBER`` and
the SHA-256 of the source it was compiled from, and a load runs it
only when both match ``module.py`` as read; a missing, torn or foreign
code file (another interpreter, another source) is ignored, the source
compiled and the code file written again.

Three tiers: an in-process module dict (same :class:`BuildCache`
instance), the disk artifact, then a fresh build.  Hits and misses are
tallied both into process-global counters (``repro build --stats``)
and into ``codegen_cache_{hits,misses}_total{tier,kind}`` series of a
:class:`~repro.obs.metrics.MetricsRegistry`: the one a load is given,
else the one its cache was built with.  The shared instances of
:func:`build_cache` carry none, so a registry counts only the loads of
the calls that pass it.

A module is loaded one top-level chunk at a time (the constants, then
each fused ``def``), every chunk compiled with its own line offset into
one shared namespace: compiling a 1,800-line generated module in one
``compile()`` call peaks several MB above compiling its largest
function alone, and the chunked load keeps traceback line numbers equal
to the lines of ``module.py``.

:meth:`BuildCache.in_memory` has no disk tier at all -- the module is
emitted and compiled in-process and never written (``--no-cache``).  A
disk cache whose root cannot be created or written (``OSError``) falls
back to the same in-memory build, so a read-only or bogus
``$REPRO_CACHE_DIR`` slows a run down instead of failing it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import marshal
import os
import shutil
from pathlib import Path
from types import CodeType, ModuleType
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.codegen.emit import emit_module
from repro.codegen.fingerprint import (
    CODEGEN_VERSION,
    artifact_key,
    netlist_fingerprint,
)
from repro.rtl.netlist import Netlist

__all__ = [
    "BuildCache",
    "build_cache",
    "default_cache_dir",
    "process_stats",
    "reset_process_stats",
]

#: Process-lifetime hit/miss tallies across every BuildCache instance.
_PROCESS_STATS = {"hits": 0, "misses": 0}


def process_stats() -> Dict[str, int]:
    """Hits/misses since process start (all caches, all tiers)."""
    return dict(_PROCESS_STATS)


def reset_process_stats() -> None:
    _PROCESS_STATS["hits"] = 0
    _PROCESS_STATS["misses"] = 0


def _compile_chunks(source: str, filename: str) -> Tuple[CodeType, ...]:
    """Compile generated source one top-level chunk at a time.

    Chunks split before each top-level ``def``; each is padded with the
    newlines that precede it so code objects carry the source's own
    line numbers.  Raises :class:`SyntaxError` on a torn artifact.
    """
    lines = source.splitlines(keepends=True)
    starts = [0] + [
        i for i, line in enumerate(lines) if i and line.startswith("def ")
    ]
    return tuple(
        compile("\n" * start + "".join(lines[start:end]), filename, "exec")
        for start, end in zip(starts, starts[1:] + [len(lines)])
    )


def _exec_module(
    key: str, codes: Tuple[CodeType, ...], filename: str
) -> ModuleType:
    """Run compiled chunks, in order, into one fresh module."""
    module = ModuleType(f"repro_codegen_{key[:24]}")
    module.__file__ = filename
    for code in codes:
        exec(code, module.__dict__)
    return module


def _replace(path: Path, data: bytes) -> None:
    """Write ``path`` by tmp file and rename, without an ``fsync``."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _canonical(payload: object) -> bytes:
    """``payload`` as sorted, compact JSON bytes."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode()


def _read_code(path: Path, header: bytes) -> Optional[Tuple[CodeType, ...]]:
    """The compiled chunks in ``path`` when it carries ``header``."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    if not blob.startswith(header):
        return None
    try:
        codes = marshal.loads(blob[len(header):])
    except (EOFError, ValueError, TypeError):  # torn
        return None
    if not (isinstance(codes, tuple)
            and all(isinstance(code, CodeType) for code in codes)):
        return None
    return codes


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else the XDG cache, else ``~/.cache``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "codegen"


class BuildCache:
    """One cache root: load-or-build generated modules and JSON blobs."""

    MODULE = "module.py"
    CODE = "module.code"
    META = "meta.json"
    DATA = "data.json"

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        metrics=None,
    ) -> None:
        self.root: Optional[Path] = (
            Path(root) if root is not None else default_cache_dir()
        )
        self.metrics = metrics
        self._modules: Dict[str, ModuleType] = {}
        self._json: Dict[str, object] = {}

    @classmethod
    def in_memory(cls, metrics=None) -> "BuildCache":
        """A cache with no disk tier: builds stay in this process."""
        cache = cls(metrics=metrics)
        cache.root = None
        return cache

    # -- bookkeeping ---------------------------------------------------
    def _count(self, hit: bool, tier: str, kind: str, metrics=None) -> None:
        _PROCESS_STATS["hits" if hit else "misses"] += 1
        if metrics is None:
            metrics = self.metrics
        if metrics is not None:
            name = ("codegen_cache_hits_total" if hit
                    else "codegen_cache_misses_total")
            metrics.counter(name, tier=tier, kind=kind).inc()

    def _dir(self, key: str) -> Path:
        return self.root / key

    # -- generated modules ---------------------------------------------
    def load_module(
        self,
        netlist: Netlist,
        hooks: Optional[FrozenSet[str]] = None,
        observe: Optional[FrozenSet[str]] = None,
        metrics=None,
    ) -> ModuleType:
        """The generated module for ``netlist`` + options, building at
        most once per key (memory tier, then disk, then emit).

        The lookup counts into ``metrics`` when given, else into the
        registry this cache was built with.
        """
        key = artifact_key(netlist, hooks, observe)
        module = self._modules.get(key)
        if module is not None:
            self._count(True, "memory", "module", metrics)
            return module
        module = self._import_verified(key) if self.root is not None else None
        if module is not None:
            self._count(True, "disk", "module", metrics)
            self._modules[key] = module
            return module
        self._count(False, "disk", "module", metrics)
        source = emit_module(netlist, hooks, observe)
        module = None
        if self.root is not None:
            try:
                directory = self._dir(key)
                directory.mkdir(parents=True, exist_ok=True)
                data = source.encode()
                _replace(directory / self.MODULE, data)
                _replace(directory / self.META, _canonical({
                    "kind": "compiled-simulator",
                    "key": key,
                    "codegen_version": CODEGEN_VERSION,
                    "netlist": netlist.name,
                    "fingerprint": netlist_fingerprint(netlist),
                    "hooks": sorted(hooks) if hooks is not None else None,
                    "observe": (
                        sorted(observe) if observe is not None else None
                    ),
                    "source_sha256": hashlib.sha256(data).hexdigest(),
                }))
            except OSError:  # unwritable root: build in memory instead
                pass
            else:
                module = self._import_verified(key)
        if module is None:
            filename = f"<repro.codegen:{key}>"
            module = _exec_module(
                key, _compile_chunks(source, filename), filename
            )
        self._modules[key] = module
        return module

    def _import_verified(self, key: str) -> Optional[ModuleType]:
        """Import one disk artifact, or None when absent/invalid."""
        directory = self._dir(key)
        meta_path = directory / self.META
        module_path = directory / self.MODULE
        try:
            with open(meta_path) as handle:
                meta = json.load(handle)
        except (OSError, ValueError):  # missing, torn or not UTF-8
            return None
        if not isinstance(meta, dict):
            return None
        if meta.get("key") != key:
            return None
        if meta.get("codegen_version") != CODEGEN_VERSION:
            return None
        try:
            data = module_path.read_bytes()
            digest = hashlib.sha256(data).digest()
            if meta.get("source_sha256") != digest.hex():
                return None  # torn, hand-edited, or written without one
            source = data.decode()
            # this interpreter's bytecode magic and the source's digest
            header = importlib.util.MAGIC_NUMBER + digest
            codes = _read_code(directory / self.CODE, header)
            if codes is None:
                codes = _compile_chunks(source, str(module_path))
                try:
                    _replace(directory / self.CODE,
                             header + marshal.dumps(codes))
                except OSError:  # read-only root: compile every time
                    pass
            module = _exec_module(key, codes, str(module_path))
        except (OSError, SyntaxError, ValueError):  # torn or hand-mangled
            return None
        if getattr(module, "KEY", None) != key:
            return None
        return module

    # -- JSON payload artifacts (lint findings, ...) -------------------
    def load_json(self, key: str) -> Optional[object]:
        """A cached JSON payload, or None on miss (counted)."""
        payload = self._json.get(key)
        if payload is not None:
            self._count(True, "memory", "json")
            return payload
        payload = self._read_verified(key) if self.root is not None else None
        if payload is None:
            self._count(False, "disk", "json")
            return None
        self._count(True, "disk", "json")
        self._json[key] = payload
        return payload

    def _read_verified(self, key: str) -> Optional[object]:
        """One disk payload, or None when absent or failing its check."""
        directory = self._dir(key)
        try:
            with open(directory / self.META) as handle:
                meta = json.load(handle)
            data = (directory / self.DATA).read_bytes()
        except (OSError, ValueError):  # missing, torn or not UTF-8
            return None
        if not isinstance(meta, dict) or meta.get("key") != key:
            return None
        if meta.get("data_sha256") != hashlib.sha256(data).hexdigest():
            return None  # torn, hand-edited, or written without one
        return json.loads(data)

    def store_json(self, key: str, payload: object, meta: Dict) -> None:
        """Persist one JSON payload artifact under ``key``.

        Kept in memory only when the cache has no writable root.
        """
        self._json[key] = payload
        if self.root is None:
            return
        directory = self._dir(key)
        data = _canonical(payload)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            _replace(directory / self.DATA, data)
            _replace(directory / self.META, _canonical({
                "key": key,
                **meta,
                "data_sha256": hashlib.sha256(data).hexdigest(),
            }))
        except OSError:
            pass

    # -- maintenance ---------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Entries and bytes on disk plus process hit/miss tallies."""
        entries = 0
        size = 0
        if self.root is not None and self.root.is_dir():
            for entry in self.root.iterdir():
                if not entry.is_dir() or not (entry / self.META).is_file():
                    continue
                entries += 1
                for item in entry.iterdir():
                    try:
                        size += item.stat().st_size
                    except OSError:  # pragma: no cover - racing delete
                        pass
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": size,
            **process_stats(),
        }

    def clear(self) -> int:
        """Delete every artifact directory; returns how many."""
        removed = 0
        if self.root is not None and self.root.is_dir():
            for entry in list(self.root.iterdir()):
                if entry.is_dir() and (entry / self.META).is_file():
                    shutil.rmtree(entry, ignore_errors=True)
                    removed += 1
        self._modules.clear()
        self._json.clear()
        return removed


#: Shared instances keyed by resolved root, so every loader against the
#: same directory also shares the in-memory module tier.
_CACHES: Dict[str, BuildCache] = {}


def build_cache(root: Union[str, Path, None] = None) -> BuildCache:
    """The shared :class:`BuildCache` for ``root`` (default dir if None).

    Reuses one instance per resolved root path.  It carries no metrics
    registry: a caller that counts its loads passes one to
    :meth:`BuildCache.load_module`.
    """
    resolved = str(Path(root) if root is not None else default_cache_dir())
    cache = _CACHES.get(resolved)
    if cache is None:
        cache = BuildCache(resolved)
        _CACHES[resolved] = cache
    return cache
