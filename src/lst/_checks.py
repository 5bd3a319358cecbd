"""
Input validation that needs no numpy: the package's error types, the one
rule for a bounded number, the JSON reader and the CSV helpers that name the
file and line of a bad row. The scalar tools (HQLA, swing pricing, gates)
and the command line import this module without loading the array stack.

The rule: every bounded input, a number or an array, is checked by
``check_number(name, value, bound)``, and only there. Each bound is an
interval that holds no NaN and no infinity, and a DomainError names the
input, the bound and the first value outside it.
"""

from __future__ import annotations

import csv
import io
import json
import operator
from typing import Optional


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


class ConfigError(ValueError):
    """An input document is malformed: a file that is no JSON, or a config
    key or value that no flag takes."""


def _interval(text: str):
    """The test of the interval ``text``, such as "[0, 1]" or "(0, inf)": true
    for a number inside it, elementwise for an array, and false for NaN."""
    if text[:1] not in ("[", "(") or text[-1:] not in ("]", ")"):
        raise KeyError(text)
    lo, hi = (float(end) for end in text[1:-1].split(","))
    above = operator.ge if text[0] == "[" else operator.gt
    below = operator.le if text[-1] == "]" else operator.lt
    return lambda v: above(v, lo) & below(v, hi)


#: Bound name -> its ``_interval`` test. The word bounds name the intervals
#: their messages read as; any other name, such as "[0, 1]", is an interval.
BOUNDS = {"": _interval("(-inf, inf)"), "non-negative": _interval("[0, inf)"),
          "positive": _interval("(0, inf)"), "above -1": _interval("(-1, inf)")}


def check_number(name: str, value, bound: str = "") -> None:
    """Reject, by name, a number, or an array with an element, outside the
    ``bound`` of ``BOUNDS``: finite by default. An array (duck-typed, so no
    numpy is loaded) is tested at its least and greatest element, which NaN
    propagates to; every bound is an interval, so the two lie in it exactly
    when every element does. The message names the first offender."""
    within = BOUNDS[bound] if bound in BOUNDS else BOUNDS.setdefault(bound, _interval(bound))
    if isinstance(value, (int, float)):
        if within(value):
            return
    elif not value.size or (within(value.min()) and within(value.max())):
        return
    else:
        flat = value.reshape(-1)
        value = flat[within(flat).argmin()]
    value = value.item() if hasattr(value, "item") else value  # a numpy scalar's repr
    if bound[:1] in ("[", "("):
        raise DomainError(f"{name} must lie in {bound}, got {value!r}")
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
