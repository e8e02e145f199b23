"""CLI surface snapshot: an accidental flag, default or help change fails CI.

Every ``repro`` subcommand's arguments are pinned in
``tests/data/cli_surface.json`` from the parser's own objects, not from
argparse's rendered ``--help`` text (its layout differs between the Python
versions CI runs).  A deliberate CLI change regenerates the snapshot::

    PYTHONPATH=src python tests/test_cli_surface.py --write

and the diff lands in review alongside the code change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.cli import build_parser

SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "data", "cli_surface.json")


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def _describe_action(action: argparse.Action) -> dict:
    doc = {
        "action": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": _jsonable(action.default),
        "type": getattr(action.type, "__name__", None),
        "choices": _jsonable(action.choices),
        "nargs": _jsonable(action.nargs),
        "required": action.required,
        "help": action.help,
        "metavar": _jsonable(action.metavar),
    }
    if isinstance(action, argparse._SubParsersAction):
        doc["choices"] = sorted(action.choices)
        doc["subcommand_help"] = {a.dest: a.help for a in action._choices_actions}
    return doc


def describe_surface() -> dict:
    """``{command path: parser description}`` for the root parser and every
    subcommand and sub-subcommand."""
    out = {}

    def walk(parser: argparse.ArgumentParser, path: str) -> None:
        out[path] = {
            "description": parser.description,
            "epilog": parser.epilog,
            "allow_abbrev": parser.allow_abbrev,
            "actions": [_describe_action(a) for a in parser._actions],
        }
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, f"{path} {name}")

    walk(build_parser(), "repro")
    return out


def test_cli_surface_matches_committed_snapshot():
    with open(SNAPSHOT_PATH, encoding="utf-8") as fh:
        committed = json.load(fh)
    current = describe_surface()
    assert sorted(current) == sorted(committed), "subcommands added or removed"
    for path in committed:
        assert current[path] == committed[path], (
            f"`{path}` drifted from tests/data/cli_surface.json.\n"
            "If the change is intentional, regenerate the snapshot with:\n"
            "    PYTHONPATH=src python tests/test_cli_surface.py --write\n"
            "and commit the diff."
        )


if __name__ == "__main__":
    if "--write" in sys.argv:
        with open(SNAPSHOT_PATH, "w", encoding="utf-8") as fh:
            json.dump(describe_surface(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {SNAPSHOT_PATH}")
    else:
        print(json.dumps(describe_surface(), indent=1, sort_keys=True))
