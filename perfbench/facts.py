"""Facts about the machine and software that go with every result."""
from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def _blas():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in _THREAD_QUERIES:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _caches():
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"l{level}_cache"] = size
    return out


def machine_facts(seed: int, nproc: int) -> dict:
    return {"nproc": nproc, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": np.__version__, "blas": _blas(),
            "blas_threads": _blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "l2_cache": None, "l3_cache": None, **_caches(),
            "machine": platform.machine(), "seed": seed}
