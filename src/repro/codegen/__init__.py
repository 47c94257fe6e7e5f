"""The lane-parallel simulator: codegen, build cache, simulator.

Lowers a :class:`~repro.rtl.netlist.Netlist` into a standalone
generated Python module (source on disk, content-addressed, reloadable
across processes, or built in memory only) and wraps it in
:class:`~repro.codegen.sim.CompiledSimulator`, the engine behind every
lane-parallel run: fault campaigns, seed sweeps, batched cross-checks,
error sweeps, the fuzz differential and ``repro profile``.

Submodules are imported lazily so that ``import repro.codegen`` stays
cheap for callers that only need, say, the fingerprint helpers.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.codegen.cache import (
        BuildCache,
        build_cache,
        default_cache_dir,
        process_stats,
    )
    from repro.codegen.emit import Layout, build_layout, emit_module
    from repro.codegen.fingerprint import (
        CODEGEN_VERSION,
        artifact_key,
        netlist_fingerprint,
    )
    from repro.codegen.sim import CompiledSimulator

_EXPORTS = {
    "BuildCache": "repro.codegen.cache",
    "build_cache": "repro.codegen.cache",
    "default_cache_dir": "repro.codegen.cache",
    "process_stats": "repro.codegen.cache",
    "Layout": "repro.codegen.emit",
    "build_layout": "repro.codegen.emit",
    "emit_module": "repro.codegen.emit",
    "CODEGEN_VERSION": "repro.codegen.fingerprint",
    "artifact_key": "repro.codegen.fingerprint",
    "netlist_fingerprint": "repro.codegen.fingerprint",
    "CompiledSimulator": "repro.codegen.sim",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
