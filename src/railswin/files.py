"""The documents railswin reads and writes: JSON in, JSON and CSV out, all or nothing."""

from __future__ import annotations

import contextlib
import json
import os

from .errors import ParseError


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open ``path.tmp`` for writing and ``os.replace`` it onto ``path`` on success.

    If the block raises, ``path`` keeps its previous content (or stays
    absent) and the temporary file is removed.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_json(path, what):
    """The JSON document at ``path``; an unreadable file or bad JSON is a ParseError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON or bad UTF-8
        raise ParseError(f"cannot read {what} {path}: {e}") from e


def write_text(path, text):
    with atomic_open(path) as fh:
        fh.write(text)


def write_json(path, doc):
    """``doc`` indented, key-sorted and newline-terminated, written atomically."""
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _cell(value):
    """A float is its repr; None, a value with nothing measured behind it, is empty.

    Text holding a comma, a quote or a line break is quoted, with inner
    quotes doubled (RFC 4180); other text keeps its bytes.
    """
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header, rows):
    """A header line, then one line of cells per row."""
    lines = [",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"
