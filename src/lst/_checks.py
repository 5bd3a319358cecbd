"""
Input validation that needs no numpy: the package's error type, the finite
and sign checks on scalar fields, and the CSV helpers that name the file and
line of a bad row. The scalar tools (HQLA, swing pricing, gates) and the
command line import this module without loading the array stack.
"""

from __future__ import annotations

import csv
import math


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


# =============================================================================
# CSV FILES
# =============================================================================

def csv_rows(path) -> list:
    """The non-blank rows of a CSV file, read in one ``csv.reader`` pass."""
    with open(path, newline="") as fh:
        return list(filter(None, csv.reader(fh)))


def line_number(path, index: int) -> int:
    """File line on which non-blank row ``index`` ends (error path only)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for k, _ in enumerate(filter(None, reader)):
            if k == index:
                return reader.line_num


def parse_cell(path, kind: str, index: int, label: str, text: str, parse=float):
    """``parse(text)`` for the cell ``label`` of non-blank row ``index``, or a
    DomainError naming the file, its line and the text."""
    try:
        return parse(text)
    except ValueError:
        what = "an integer" if parse is int else "a number"
        raise DomainError(f"{kind} file {path}, line {line_number(path, index)}: "
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
        raise DomainError(f"{kind} file {path}, line {line_number(path, k)}: "
                          f"{len(rows[k])} fields where the {first} has {width}")
