"""The point-function registry: names to callables, process-portable.

A spec references its point function by *name* so that sweep points can
be shipped to worker processes as plain data and so cache keys survive
process restarts.  Functions register with the :func:`point_function`
decorator:

::

    @point_function("fig7.design_curve")
    def fig7_design_curve(params: dict) -> dict:
        ...

A point function takes the point's parameter dict (JSON-round-tripped —
tuples arrive as lists) and returns a JSON-expressible payload; whatever
it returns is canonicalized through JSON by the engine, so a freshly
computed payload and a cache replay are byte-identical.

:func:`resolve` imports :mod:`repro.exp.experiments` on first use so
the built-in experiments are always available, including inside
freshly spawned worker processes.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from ..util import Registry

PointFunction = Callable[[dict], Any]

#: Point functions keyed by the experiment name specs refer to them by.
POINT_FUNCTIONS: Registry[PointFunction] = Registry("point function")
_BUILTINS_LOADED = False


def point_function(name: str) -> Callable[[PointFunction], PointFunction]:
    """Register ``fn`` as the point function for ``name``."""
    return functools.partial(POINT_FUNCTIONS.register, name)


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        from . import experiments  # noqa: F401  (registers on import)


def resolve(name: str) -> PointFunction:
    """Look up a point function, loading the built-ins if needed."""
    _ensure_builtins()
    return POINT_FUNCTIONS[name]


def available() -> tuple[str, ...]:
    """Sorted names of every registered point function."""
    _ensure_builtins()
    return POINT_FUNCTIONS.names()


def execute(name: str, params: dict) -> Any:
    """Run one point in this process (the worker entry point)."""
    return resolve(name)(params)
