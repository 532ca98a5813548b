"""Access to the ray sets bundled with the package (see data/README.md for
provenance and construction)."""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .io import FormatError, read_vector_set
from .ks import VectorSet

BUNDLED = ("cabello-18", "peres-33", "yu-oh-13")


def data_dir() -> Path:
    return Path(resources.files("qcolor") / "data")


def bundled_path(name: str) -> Path:
    stem = name[:-5] if name.endswith(".json") else name
    p = data_dir() / f"{stem}.json"
    if stem not in BUNDLED or not p.exists():
        raise FormatError(f"unknown bundled vector set {name!r}; "
                          f"available: {', '.join(BUNDLED)}")
    return p


def load_vector_set(name: str) -> tuple[VectorSet, float | None]:
    """Load a bundled set by name ('peres-33') or any readable path."""
    p = Path(name)
    if not p.exists():
        p = bundled_path(name)
    return read_vector_set(p)
