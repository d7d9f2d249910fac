"""The one file path and JSON format of the artifacts, and the guards that keep them the only ones."""

import json
import re
from pathlib import Path

import pytest

from drcbench.artifacts import Cursor, dumps, read_file, read_json, write_file, write_json
from drcbench.errors import DomainError, FormatError

SRC = Path(__file__).resolve().parent.parent / "src" / "drcbench"


def test_write_json_is_the_canonical_text_plus_newline(tmp_path):
    doc = {"b": [1, 2.5, None], "a": {"y": True, "x": "s"}}
    path = tmp_path / "new" / "dir" / "doc.json"
    write_json(path, doc)
    assert path.read_text() == dumps(doc) + "\n"
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert read_json(path, "doc", lambda d: d) == doc


@pytest.mark.parametrize("text, message", [
    ('{"a": 1', "malformed thing: "),
    ("[1, 2]", "malformed thing: not a JSON object"),
    (b"\xff\xfe{}", "malformed thing: "),
    ('{"b": 1}', "missing key 'a'"),
    ('{"a": "x"}', "malformed thing: a must be an int"),
    ('{"a": [1]}', "malformed thing: "),
], ids=["truncated", "list", "not_utf8", "missing_key", "rule", "type"])
def test_read_json_names_the_file(tmp_path, text, message):
    path = tmp_path / "doc.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)

    def parse(doc):
        value = doc["a"]
        if isinstance(value, str):
            raise DomainError(f"a must be an int, got {value!r}")
        return value + 1  # a list raises TypeError

    with pytest.raises(FormatError) as err:
        read_json(path, "thing", parse)
    assert str(err.value).startswith(f"{path}: {message}")


def test_read_file_names_the_file_of_a_short_field(tmp_path):
    path = tmp_path / "new" / "blob.bin"
    write_file(path, "ab\u00e9")
    assert path.read_bytes() == b"ab\xc3\xa9"

    def parse(raw):
        cursor = Cursor(raw)
        assert bytes(cursor.take(2, "head")) == b"ab"
        return cursor.take(3, "tail")

    with pytest.raises(FormatError) as err:
        read_file(path, "blob", parse)
    assert str(err.value) == f"{path}: malformed blob: truncated file while reading tail"


def test_only_artifacts_touches_files():
    calls = re.compile(r"\bopen\(|\.(write_text|write_bytes|read_bytes|mkdir)\(")
    offenders = [
        f"{path.relative_to(SRC)}:{n}"
        for path in sorted(SRC.rglob("*.py")) if path.name != "artifacts.py"
        for n, line in enumerate(path.read_text().splitlines(), start=1) if calls.search(line)
    ]
    assert offenders == []


def test_only_artifacts_and_config_call_json():
    calls = re.compile(r"\bjson\.(dumps|loads|dump|load)\b|^\s*from json import")
    offenders = [
        f"{path.relative_to(SRC)}:{n}"
        for path in sorted(SRC.rglob("*.py"))
        if str(path.relative_to(SRC)) not in ("artifacts.py", "config.py")
        for n, line in enumerate(path.read_text().splitlines(), start=1) if calls.search(line)
    ]
    assert offenders == []
