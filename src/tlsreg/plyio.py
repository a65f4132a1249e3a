"""ASCII PLY point clouds, label sidecars, and result JSON documents.

Coordinates are written with repr-level precision so write-then-read
round-trips are lossless; correspondence is by row index between paired
files.  Labels are one 0/1 per line.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RESULT_SCHEMA_VERSION = "2"


class PlyError(ValueError):
    """Malformed PLY input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def write_ascii_ply(path, points) -> None:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (N, 3)")
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {pts.shape[0]}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    # A handle, not the path: savetxt would gzip a path ending in ".gz".
    with open(path, "w") as f:
        np.savetxt(f, pts, fmt="%.17g", header="\n".join(lines), comments="")


def read_ascii_ply(path) -> np.ndarray:
    """Parse vertices with x, y, z properties from an ASCII PLY file whose
    first element is `vertex`.  Other vertex properties are skipped; a list
    property may follow x, y and z."""
    text = Path(path).read_text().splitlines()
    if not text or text[0].strip() != "ply":
        raise PlyError("missing 'ply' magic", 1)

    n_vertex = None
    coord_cols = {}
    n_props = 0
    in_vertex_element = False
    header_end = None
    for lineno, raw in enumerate(text[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("comment"):
            continue
        if line == "end_header":
            header_end = lineno
            break
        parts = line.split()
        if parts[0] == "format":
            if len(parts) < 2 or parts[1] != "ascii":
                raise PlyError("only 'format ascii 1.0' is supported", lineno)
        elif parts[0] == "element":
            in_vertex_element = parts[1:2] == ["vertex"]
            # The rows are read from the first one on, so they must be vertices.
            if not in_vertex_element and n_vertex is None:
                raise PlyError("'vertex' must be the first element", lineno)
            if in_vertex_element:
                try:
                    n_vertex = int(parts[2])
                except (IndexError, ValueError):
                    raise PlyError("bad vertex count", lineno) from None
        elif parts[0] == "property" and in_vertex_element:
            if parts[1:2] == ["list"] and len(parts) == 5:
                # A list's row holds its length, then that many values, so
                # only the columns before it are fixed.
                if len(coord_cols) < 3:
                    raise PlyError("a list property must come after x, y, z", lineno)
            elif len(parts) != 3:
                raise PlyError("malformed property", lineno)
            elif parts[2] in ("x", "y", "z"):
                if parts[2] in coord_cols:
                    raise PlyError(f"repeated property {parts[2]!r}", lineno)
                coord_cols[parts[2]] = n_props
            n_props += 1
    if header_end is None:
        raise PlyError("missing end_header", len(text))
    if n_vertex is None:
        raise PlyError("missing 'element vertex'", header_end)
    if set(coord_cols) != {"x", "y", "z"}:
        raise PlyError("vertex element must carry x, y, z properties", header_end)

    rows = []
    lineno = header_end
    for raw in text[header_end:]:
        lineno += 1
        line = raw.strip()
        if not line:
            continue
        if len(rows) == n_vertex:
            break
        parts = line.split()
        if len(parts) < n_props:
            raise PlyError(f"expected {n_props} values, found {len(parts)}", lineno)
        try:
            rows.append(
                [
                    float(parts[coord_cols["x"]]),
                    float(parts[coord_cols["y"]]),
                    float(parts[coord_cols["z"]]),
                ]
            )
        except ValueError:
            raise PlyError("non-numeric vertex value", lineno) from None
    if len(rows) != n_vertex:
        raise PlyError(f"expected {n_vertex} vertices, found {len(rows)}", lineno)
    return np.asarray(rows, dtype=float).reshape(n_vertex, 3)


def write_labels(path, labels) -> None:
    Path(path).write_text("".join(f"{int(bool(v))}\n" for v in labels))


def transform_to_dict(transform) -> dict:
    return {
        "scale": float(transform.scale),
        "quaternion_xyzw": [float(v) for v in transform.rotation.as_array()],
        "translation": [float(v) for v in transform.translation],
    }


def format_result_json(payload: dict) -> str:
    """The payload as a versioned JSON document, keys sorted."""
    doc = {"schema_version": RESULT_SCHEMA_VERSION, **payload}
    return json.dumps(doc, indent=2, sort_keys=True)


def write_result_json(path, payload: dict) -> None:
    Path(path).write_text(format_result_json(payload) + "\n")


def read_result_json(path) -> dict:
    return json.loads(Path(path).read_text())
