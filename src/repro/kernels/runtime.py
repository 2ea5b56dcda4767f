"""Kernel availability.

numpy is an *optional* accelerator: the import is attempted exactly once
here, and everything else in the package asks :func:`kernels_enabled`
instead of importing numpy itself.  The kernels run exactly when numpy
imports — a platform fact, not a user option; the execution plan
records it as ``kernels=on|off``.

Tests drive the same code through both paths with
:func:`forced_kernel_mode`: ``"off"`` pins the scalar path (the
differential oracle, and the path of a process without numpy), while
``"on"`` and ``"auto"`` both mean "kernels exactly when numpy imports".
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

try:  # pragma: no cover - exercised via tests/kernels/test_fallback.py
    import numpy as np
except Exception:  # pragma: no cover - numpy genuinely absent
    np = None  # type: ignore[assignment]

#: Whether the numpy-backed kernels can run in this process.
HAVE_NUMPY = np is not None

#: The accepted values of :func:`forced_kernel_mode`.
KERNEL_MODES = ("auto", "on", "off")

_default_mode = "auto"


def default_kernel_mode() -> str:
    """The process-wide mode (``"auto"`` unless a test pinned it)."""
    return _default_mode


def kernels_enabled() -> bool:
    """Whether this call should use the numpy path: numpy imports and no
    test pinned the scalar path."""
    return _default_mode != "off" and HAVE_NUMPY


@contextmanager
def forced_kernel_mode(mode: str) -> Iterator[None]:
    """Pin the process default mode (equivalence tests toggle this to
    drive the same code through both paths)."""
    global _default_mode
    if mode not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel mode {mode!r}; expected one of {KERNEL_MODES}"
        )
    previous = _default_mode
    _default_mode = mode
    try:
        yield
    finally:
        _default_mode = previous
