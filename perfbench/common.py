"""Shared helpers for the benchmark: locating the program, seeds, statistics.

Every entry script in this directory runs as ``python3 perfbench/<name>.py``
from the root of a checkout, so this directory is ``sys.path[0]`` and the
program under test is imported from ``<checkout>/src``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from typing import Any, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch space for cache dirs and trace files; inside the checkout
WORK = os.path.join(ROOT, ".perfbench")

#: A seed kept out of every measurement made while tuning the benchmark,
#: for checking a later speed claim on inputs it was not tuned on.
HELD_OUT_SEED = 7919


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def import_program() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` or raise SetupError.

    The check is explicit so that a directory holding only the benchmark
    fails here rather than importing some other installed copy.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SetupError(f"no program sources under {src}")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)


def derive_rng(seed: int, *label: Any) -> random.Random:
    """An independent, reproducible RNG for one use of the workload seed."""
    text = ":".join(str(part) for part in (seed, *label))
    digest = hashlib.sha256(text.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``: the value of the eleventh
    largest sample and the percentile it sits at.  Fewer than eleven
    samples support no such percentile, which is an error.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    rank = n - 11
    return ordered[rank], 100.0 * (rank + 1) / n, n


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: dict[str, dict[str, Any]]) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)
