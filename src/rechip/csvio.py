"""Line-numbered reading of the package's CSV input files."""

import csv
import math


def read_rows(path, header, convert):
    """convert(fields) for every non-blank row of a CSV file with the given header.

    Raises ValueError starting ``path: line N:`` on a wrong header, a wrong
    field count, or a ValueError from convert (whose message follows).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise ValueError(f"{path}: line 1: expected header {','.join(header)}")
        rows = []
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            try:
                if len(fields) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
                rows.append(convert(fields))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return rows


def finite_floats(fields):
    """The fields as floats; ValueError unless every one is a finite number."""
    try:
        values = tuple(float(v) for v in fields)
    except ValueError:
        raise ValueError("non-numeric value") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError("non-finite value")
    return values
