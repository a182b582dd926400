"""Matrix JSON serialization.

The one persistence format in the package:

    {"dim": d, "entries": [[re, im], ...]}

with exactly d*d [re, im] pairs in row-major order, all finite, d >= 1;
saving refuses any other matrix, so what it writes loads to the same bits.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import MatrixFormatError

__all__ = ["matrix_to_obj", "matrix_from_obj", "save_matrix", "load_matrix"]


def matrix_to_obj(mat: np.ndarray) -> dict:
    m = np.asarray(mat, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise MatrixFormatError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise MatrixFormatError("matrix entries must be finite")
    d = m.shape[0]
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"dim": d, "entries": entries}


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise MatrixFormatError("matrix JSON must be an object")
    try:
        d = obj["dim"]
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise MatrixFormatError(f"missing field: {exc}") from exc
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise MatrixFormatError(f"dim must be a positive integer, got {d!r}")
    if not isinstance(entries, list) or len(entries) != d * d:
        raise MatrixFormatError(
            f"expected {d * d} entries for dim {d}, got "
            f"{len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    flat = np.empty(d * d, dtype=np.complex128)
    for k, pair in enumerate(entries):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise MatrixFormatError(f"entry {k} is not a [re, im] pair: {pair!r}")
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise MatrixFormatError(f"entry {k} is not finite: {pair!r}")
        flat[k] = complex(re, im)
    return flat.reshape(d, d)


def save_matrix(path: str | Path, mat: np.ndarray):
    Path(path).write_text(json.dumps(matrix_to_obj(mat)) + "\n")


def load_matrix(path: str | Path) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"{path}: invalid JSON: {exc}") from exc
    return matrix_from_obj(obj)
