"""The CLI's parsed flag surface is pinned: no flag appears, disappears
or changes its option strings, default, choices, type, action or
``dest`` without this test noticing.

``cli_surface.json`` is the snapshot; regenerate it with
``PYTHONPATH=src python tests/test_cli_surface.py > tests/cli_surface.json``
only when a flag change is intended.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

SNAPSHOT = Path(__file__).with_name("cli_surface.json")


def _describe(action: argparse.Action) -> dict[str, Any]:
    return {
        "options": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "type": getattr(action.type, "__name__", None),
        "action": type(action).__name__,
        "nargs": action.nargs,
        "required": action.required,
    }


def surface() -> dict[str, list[dict[str, Any]]]:
    """Every (sub)parser's actions, keyed by its command path."""
    from repro.cli import build_parser

    found: dict[str, list[dict[str, Any]]] = {}

    def walk(path: str, parser: argparse.ArgumentParser) -> None:
        rows = []
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(f"{path} {name}".strip(), sub)
                rows.append({"subcommands": sorted(action.choices),
                             "dest": action.dest,
                             "required": action.required})
            elif not isinstance(action, argparse._HelpAction):
                rows.append(_describe(action))
        found[path or "repro"] = rows

    walk("", build_parser())
    return found


def test_flag_surface_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(surface()))
    assert sorted(actual) == sorted(expected)
    for command in expected:
        assert actual[command] == expected[command], command


if __name__ == "__main__":  # pragma: no cover - snapshot regeneration
    commands = sorted(surface().items())
    print("{")
    for i, (command, rows) in enumerate(commands):
        print(f" {json.dumps(command)}: [")
        print(",\n".join(f"  {json.dumps(row, sort_keys=True)}" for row in rows))
        print(" ]" + ("," if i < len(commands) - 1 else ""))
    print("}")
