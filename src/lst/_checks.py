"""
Input validation that needs no numpy: the package's error types, the finite
and sign checks on scalar fields, the JSON reader and the CSV helpers that
name the file and line of a bad row. The scalar tools (HQLA, swing pricing,
gates) and the command line import this module without loading the array
stack.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from typing import Optional


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


class ConfigError(ValueError):
    """An input document is malformed: a file that is no JSON, or a config
    key or value that no flag takes."""


BOUNDS = {"": lambda v: True, "non-negative": lambda v: v >= 0, "positive": lambda v: v > 0}


def check_number(name: str, value, bound: str = "") -> None:
    """Reject, by name, a value that is NaN or infinite, or that breaks
    ``bound`` ("non-negative" or "positive")."""
    if not (math.isfinite(value) and BOUNDS[bound](value)):
        kind = f"finite and {bound}" if bound else "finite"
        raise DomainError(f"{name} must be {kind}, got {value!r}")


def check_finite(obj, names, bound: str = "") -> None:
    """``check_number`` on each named field of ``obj``."""
    for name in names:
        check_number(name, getattr(obj, name), bound)


def as_integer(value) -> Optional[int]:
    """``value`` as an int if it is an integer (a Python or numpy int, not a
    bool or a float), else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def check_days(name: str, value, least: int = 1) -> None:
    """Reject, by name, a day or sample count that is not an integer
    (``as_integer``) of at least ``least``."""
    count = as_integer(value)
    if count is None or count < least:
        raise DomainError(f"{name} must be an integer of at least {least}, got {value!r}")


def load_json(path, kind: str):
    """The JSON document in the file at ``path``, read once; a file that is
    not JSON (bad syntax, an integer past Python's digit limit, bytes that
    are not UTF-8, nesting too deep) is a ConfigError naming the ``kind``
    file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{kind} file {path}: {exc}") from None


# =============================================================================
# CSV FILES
# =============================================================================

def csv_error(path, kind: str, reader, exc: csv.Error) -> DomainError:
    """The DomainError for ``exc``, raised by ``reader`` on a line of the
    file (a field longer than ``csv.field_size_limit()``)."""
    return DomainError(f"{kind} file {path}, line {reader.line_num}: {exc}")


def csv_rows(text: str, path, kind: str):
    """The non-blank rows of the CSV ``text`` of ``path`` and the file line
    each ends on, read in one ``csv.reader`` pass."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        ends = [(row, reader.line_num) for row in reader if row]
    except csv.Error as exc:
        raise csv_error(path, kind, reader, exc) from None
    return [row for row, _ in ends], [line for _, line in ends]


def read_rows(path, kind: str):
    """``csv_rows`` of the file at ``path``, read once."""
    with open(path, newline="") as fh:
        return csv_rows(fh.read(), path, kind)


def parse_cell(path, kind: str, line: int, label: str, text: str, parse=float):
    """``parse(text)`` for the cell ``label`` on file line ``line``, or a
    DomainError naming the file, the line and the text."""
    try:
        return parse(text)
    except ValueError:
        what = "an integer" if parse is int else "a number"
        raise DomainError(f"{kind} file {path}, line {line}: {label} {text!r} is not {what}") from None


def reject_first_non_number(path, kind: str, cells) -> None:
    """Raise a DomainError naming the first of ``cells`` ((file line, label,
    text) in file order) that ``float()`` rejects (error path only)."""
    for line, label, text in cells:
        parse_cell(path, kind, line, label, text)


def check_widths(path, kind: str, rows, lines, first: str) -> None:
    """Reject the first row whose field count differs from that of ``rows[0]``."""
    width = len(rows[0])
    k = next((k for k, row in enumerate(rows) if len(row) != width), None)
    if k is not None:
        raise DomainError(f"{kind} file {path}, line {lines[k]}: "
                          f"{len(rows[k])} fields where the {first} has {width}")
