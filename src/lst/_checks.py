"""
Input validation that needs no numpy: the package's error type, the finite
and sign checks on scalar fields, and the CSV helpers that name the file and
line of a bad row. The scalar tools (HQLA, swing pricing, gates) and the
command line import this module without loading the array stack.
"""

from __future__ import annotations

import csv
import math
import operator


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


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


def check_days(name: str, value) -> None:
    """Reject, by name, a day count that is not an integer (a Python or
    numpy int, not a bool or a float) of at least 1."""
    try:
        days = 0 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        days = 0
    if days < 1:
        raise DomainError(f"{name} must be an integer of at least 1, got {value!r}")


# =============================================================================
# CSV FILES
# =============================================================================

def csv_error(path, kind: str, reader, exc: csv.Error) -> DomainError:
    """The DomainError for ``exc``, raised by ``reader`` on a line of the
    file (a field longer than ``csv.field_size_limit()``)."""
    return DomainError(f"{kind} file {path}, line {reader.line_num}: {exc}")


def csv_rows(path, kind: str) -> list:
    """The non-blank rows of a CSV file, read in one ``csv.reader`` pass."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return list(filter(None, reader))
        except csv.Error as exc:
            raise csv_error(path, kind, reader, exc) from None


def line_number(path, kind: str, index: int) -> int:
    """File line on which non-blank row ``index`` ends (error path only)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for k, _ in enumerate(filter(None, reader)):
                if k == index:
                    return reader.line_num
        except csv.Error as exc:
            raise csv_error(path, kind, reader, exc) from None


def parse_cell(path, kind: str, index: int, label: str, text: str, parse=float):
    """``parse(text)`` for the cell ``label`` of non-blank row ``index``, or a
    DomainError naming the file, its line and the text."""
    try:
        return parse(text)
    except ValueError:
        what = "an integer" if parse is int else "a number"
        raise DomainError(f"{kind} file {path}, line {line_number(path, kind, index)}: "
                          f"{label} {text!r} is not {what}") from None


def reject_first_non_number(path, kind: str, cells) -> None:
    """Raise a DomainError naming the first of ``cells`` ((row index, label,
    text) in file order) that ``float()`` rejects (error path only)."""
    for k, label, text in cells:
        parse_cell(path, kind, k, label, text)


def check_widths(path, rows, kind: str, first: str) -> None:
    """Reject the first row whose field count differs from that of ``rows[0]``."""
    width = len(rows[0])
    k = next((k for k, row in enumerate(rows) if len(row) != width), None)
    if k is not None:
        raise DomainError(f"{kind} file {path}, line {line_number(path, kind, k)}: "
                          f"{len(rows[k])} fields where the {first} has {width}")
