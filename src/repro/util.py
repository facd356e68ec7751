"""The two host-side mechanisms every plane shares.

* :class:`Registry` — a name → object map with one registration rule
  and one unknown-name error.  Kernels, topologies, execution backends,
  adaptive profiles, workloads and point functions are all looked up
  through one.
* :func:`atomic_write_text` — the one way a file is published: write a
  dot-prefixed temp file beside the target, then rename it into place,
  so a reader never sees a torn file and no reader's glob ever matches
  a half-written one.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Generic, TypeVar, Union

T = TypeVar("T")


class UnknownNameError(KeyError, ValueError):
    """A lookup of a name nobody registered.

    Both a :class:`KeyError` and a :class:`ValueError`, so callers that
    catch either keep working whichever registry they ask.
    """

    def __str__(self) -> str:
        # KeyError's str() is the repr of its argument; show the message.
        return str(self.args[0])


class Registry(Generic[T]):
    """Names to objects, for one ``kind`` of thing.

    Registering the object already registered under a name does nothing
    (so re-importing a module is harmless); an empty name, or a second
    object under a taken name, raises :class:`ValueError`.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    def register(self, name: str, obj: T) -> T:
        """Register ``obj`` under ``name`` and return it."""
        if not name or not isinstance(name, str):
            raise ValueError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        existing = self._entries.setdefault(name, obj)
        if existing is not obj:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        return obj

    def __getitem__(self, name: str) -> T:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(
                f"unknown {self.kind} {name!r}; choose from {list(self.names())}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def names(self) -> tuple[str, ...]:
        """Registered names, sorted."""
        return tuple(sorted(self._entries))


def atomic_write_text(path: Union[str, os.PathLike], text: str) -> None:
    """Replace ``path``'s contents with ``text`` in one step.

    The temp file is ``.<name>-*.tmp`` in the target's directory (made
    if missing), so the rename stays on one filesystem and the temp
    matches none of the readers' ``*.json`` globs.  On any failure the
    temp file is removed and the old file, if any, is left intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w",
        dir=path.parent,
        prefix=f".{path.name[:16]}-",
        suffix=".tmp",
        delete=False,
        encoding="utf-8",
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
