"""The one JSON format of every pipeline record, and its one checked reader.

Every record is written as ``dumps(doc)`` plus a newline: two-space indent, sorted keys.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from pathlib import Path

from .errors import FormatError


def dumps(doc) -> str:
    """The canonical text of a JSON document."""
    return json.dumps(doc, indent=2, sort_keys=True)


def write_json(path: str | Path, doc) -> None:
    """Write ``doc``'s canonical text plus a newline, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(doc) + "\n")


def read_json(path: str | Path, what: str, parse: Callable[[dict], object]):
    """``parse`` of the JSON object in ``path``; any damage raises ``FormatError`` naming it.

    A ``KeyError`` gives ``<path>: missing key 'k'``; bad JSON, a non-object, or a
    ``ValueError`` or ``TypeError`` from ``parse`` gives ``<path>: malformed <what>: ...``.
    """
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise TypeError("not a JSON object")
        return parse(doc)
    except KeyError as err:
        raise FormatError(f"{path}: missing key {err}") from err
    except (ValueError, TypeError) as err:
        raise FormatError(f"{path}: malformed {what}: {err}") from err
