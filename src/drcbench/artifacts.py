"""The one module that touches artifact files, and the one JSON format of the records.

``write_file`` writes every artifact (WAV, ``.spec``, ``.drcw``, JSON, CSV,
text), creating its directory; ``read_file`` reads every one, so a damaged
file raises ``FormatError`` naming it. Binary parsers take fields with
``Cursor``. A JSON record is ``dumps(doc)`` plus a newline.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from pathlib import Path

from .errors import FormatError


def dumps(doc) -> str:
    """The canonical text of a JSON document: two-space indent, sorted keys."""
    return json.dumps(doc, indent=2, sort_keys=True)


def write_file(path: str | Path, data: bytes | str) -> None:
    """Write ``data`` (a str as UTF-8), creating the parent directory if it is missing."""
    try:
        fh = open(path, "wb")
    except FileNotFoundError:  # a mkdir before every write costs a third of a WAV write
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "wb")
    with fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)


def read_file(path: str | Path, what: str, parse: Callable[[bytes], object]):
    """``parse`` of the bytes of ``path``; any damage raises ``FormatError`` naming it.

    A ``KeyError`` gives ``<path>: missing key 'k'``, a ``ValueError`` or ``TypeError``
    ``<path>: malformed <what>: ...``. An ``OSError`` propagates: it names the path.
    """
    with open(path, "rb", buffering=0) as fh:  # half the cost of Path.read_bytes
        raw = fh.read()
    try:
        return parse(raw)
    except KeyError as err:
        raise FormatError(f"{path}: missing key {err}") from err
    except (ValueError, TypeError) as err:
        raise FormatError(f"{path}: malformed {what}: {err}") from err


def write_json(path: str | Path, doc) -> None:
    """Write ``doc``'s canonical text plus a newline."""
    write_file(path, dumps(doc) + "\n")


def read_json(path: str | Path, what: str, parse: Callable[[dict], object]):
    """``read_file`` of a UTF-8 JSON object: bad JSON or a non-object is malformed."""
    def parse_object(raw: bytes):
        doc = json.loads(raw.decode("utf-8"))  # json.loads(bytes) would take UTF-16 too
        if not isinstance(doc, dict):
            raise TypeError("not a JSON object")
        return parse(doc)
    return read_file(path, what, parse_object)


class Cursor:
    """Consecutive fields of a byte string, as memoryview slices (no copies)."""

    def __init__(self, raw: bytes, pos: int = 0):
        self.raw, self.pos = memoryview(raw), pos

    def take(self, n: int, what: str) -> memoryview:
        """The next ``n`` bytes; fewer left raises ``FormatError``."""
        if self.pos + n > len(self.raw):
            raise FormatError(f"truncated file while reading {what}")
        self.pos += n
        return self.raw[self.pos - n:self.pos]
