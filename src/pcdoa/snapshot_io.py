"""Reading and writing composite snapshots as CSV.

One file holds one M-bar x K snapshot as rows of
`element_index,subarray_index,real,imag` with 1-based indices. Values
are written with repr precision so a write / read round trip is exact.
`write_csv` is the one CSV writer: the CLI writes every table with it,
snapshots through `snapshot_columns`.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from typing import Sequence, Union

import numpy as np

from .array_model import ArrayGeometry, MeasurementMatrix
from .errors import SnapshotFormatError

HEADER = ("element_index", "subarray_index", "real", "imag")


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns under `header` as one CSV file.

    Integer columns print with `str`; every other column prints each
    value as `repr(float(v))`, so `5` reads `5.0`, and `-0.0`, `nan` and
    `inf` appear as Python prints them. Each distinct value of a column
    is formatted once, so a repeated column such as the tiled grid of
    `spectra.csv` costs one `repr` per grid point, and a column with the
    same distinct values as one of the last four written costs none. The
    text is built in bulk and written in one call.
    """
    cells = []
    for column in columns:
        values = np.asarray(column)
        if values.dtype.kind not in "iu":
            values = values.astype(float)
        # Distinct by bit pattern: -0.0 and 0.0 print differently.
        distinct, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
        cells.append(_texts(values.dtype.str, distinct.tobytes())[inverse].tolist())
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


@functools.lru_cache(maxsize=4)
def _texts(dtype: str, raw: bytes) -> np.ndarray:
    """The `write_csv` text of each value of ``dtype`` packed in ``raw``,
    kept for the four most recent columns. It is keyed by the dtype and the
    exact bytes, so a kept text is only used for the values it was made
    from: 0.0 and -0.0, or uint64 2**64 - 1 and int64 -1, never share."""
    values = np.frombuffer(raw, dtype=dtype)
    text = str if values.dtype.kind in "iu" else repr
    texts = np.array(list(map(text, values.tolist())), dtype=object)
    texts.setflags(write=False)
    return texts


def snapshot_columns(snapshot: Union[MeasurementMatrix, np.ndarray]) -> tuple:
    """The four `HEADER` columns of a 2-D snapshot matrix, element-major
    then subarray; `SnapshotFormatError` for any other shape."""
    data = np.asarray(getattr(snapshot, "data", snapshot), dtype=complex)
    if data.ndim != 2:
        raise SnapshotFormatError("snapshot must be a 2-D matrix")
    elements, subarrays = data.shape
    element_index = np.repeat(np.arange(1, elements + 1), subarrays)
    subarray_index = np.tile(np.arange(1, subarrays + 1), elements)
    return element_index, subarray_index, data.real.ravel(), data.imag.ravel()


def write_snapshot_csv(path, snapshot: Union[MeasurementMatrix, np.ndarray]) -> None:
    """Write a snapshot matrix to `path` in the standard CSV layout."""
    write_csv(path, HEADER, snapshot_columns(snapshot))


def ingest_snapshot_csv(path, geometry: ArrayGeometry) -> MeasurementMatrix:
    """Read one snapshot CSV and check it against the geometry's grid.

    Every (element, subarray) cell must appear exactly once with indices
    inside the geometry's dimensions and finite values. Errors carry the
    offending 1-based file row number; a file that is not UTF-8 text is a
    `SnapshotFormatError` too.
    """
    elements = geometry.elements_per_subarray
    subarrays = geometry.subarray_count
    data = np.full((elements, subarrays), np.nan, dtype=complex)
    seen = np.zeros((elements, subarrays), dtype=bool)
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(
            f"file is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SnapshotFormatError("file is empty", row=1) from None
    if tuple(field.strip() for field in header) != HEADER:
        raise SnapshotFormatError(f"header must be {','.join(HEADER)}", row=1)
    for row_number, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise SnapshotFormatError(f"expected 4 fields, found {len(row)}", row=row_number)
        try:
            m = int(row[0])
            k = int(row[1])
        except ValueError:
            raise SnapshotFormatError("indices must be integers", row=row_number) from None
        if not (1 <= m <= elements and 1 <= k <= subarrays):
            raise SnapshotFormatError(
                f"cell (element {m}, subarray {k}) is outside the "
                f"{elements}x{subarrays} geometry",
                row=row_number,
            )
        try:
            real = float(row[2])
            imag = float(row[3])
        except ValueError:
            raise SnapshotFormatError("real and imag must be numeric", row=row_number) from None
        if not (math.isfinite(real) and math.isfinite(imag)):
            raise SnapshotFormatError("real and imag must be finite", row=row_number)
        if seen[m - 1, k - 1]:
            raise SnapshotFormatError(
                f"duplicate cell (element {m}, subarray {k})", row=row_number
            )
        seen[m - 1, k - 1] = True
        data[m - 1, k - 1] = complex(real, imag)
    if not seen.all():
        missing = np.argwhere(~seen)[0]
        raise SnapshotFormatError(
            f"missing cell (element {missing[0] + 1}, subarray {missing[1] + 1})"
        )
    return MeasurementMatrix(data)


def superpose_snapshots(
    paths: Sequence, geometry: ArrayGeometry
) -> MeasurementMatrix:
    """Ingest several snapshot files and sum them entry-wise.

    This is the measured-data workflow of adding separately recorded
    per-source snapshots into one composite received signal.
    """
    if not paths:
        raise SnapshotFormatError("no snapshot files given")
    total = None
    for path in paths:
        matrix = ingest_snapshot_csv(path, geometry)
        total = matrix.data if total is None else total + matrix.data
    return MeasurementMatrix(total)
