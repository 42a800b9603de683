"""Artifact formats: matrix JSON, grid-function CSV, and binary dumps.

CSV rows carry node coordinates followed by the value; the binary dump is
a 4-byte magic, a format version, the grid header, and row-major doubles,
all little-endian.  Float text formatting uses ``repr`` so identical runs
produce byte-identical artifacts.
"""

import itertools
import json
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .grids import BALL, TORUS, GridDomain, GridFunction

MAGIC = b"MHGF"
FORMAT_VERSION = 1
_KIND_CODE = {BALL: 0, TORUS: 1}
_KIND_NAME = {0: BALL, 1: TORUS}


def coordinate_headers(n: int) -> list:
    out = []
    for p in range(1, n + 1):
        out.extend([f"x{p}", f"y{p}"])
    return out


def gridfunction_to_csv(u: GridFunction, path) -> None:
    domain = u.domain
    header = ",".join(coordinate_headers(domain.n) + ["value"])
    # every coordinate is an axis value (coords is a C-order meshgrid of
    # the axis), so each axis value is formatted once and product() joins
    # them in the same order; tolist() yields Python floats, whose repr is
    # that of float(x)
    axis_text = [repr(a) + "," for a in domain.axis.tolist()]
    prefixes = map("".join, itertools.product(axis_text, repeat=2 * domain.n))
    rows = map(str.__add__, prefixes, map(repr, u.flat.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def gridfunction_to_binary(u: GridFunction, path) -> None:
    domain = u.domain
    header = struct.pack(
        "<4sIIIdI",
        MAGIC,
        FORMAT_VERSION,
        domain.n,
        _KIND_CODE[domain.kind],
        float(domain.radius),
        domain.points_per_axis,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def gridfunction_from_binary(path) -> GridFunction:
    raw = Path(path).read_bytes()
    head_size = struct.calcsize("<4sIIIdI")
    if len(raw) < head_size:
        raise ConfigError("grid dump is shorter than its header")
    magic, version, n, kind_code, radius, ppa = struct.unpack(
        "<4sIIIdI", raw[:head_size]
    )
    if magic != MAGIC:
        raise ConfigError(f"bad magic {magic!r} in grid dump")
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported dump version {version}")
    if kind_code not in _KIND_NAME:
        raise ConfigError(f"unknown grid kind code {kind_code} in grid dump")
    try:
        domain = GridDomain(n=n, kind=_KIND_NAME[kind_code],
                            points_per_axis=ppa, radius=radius)
    except DimensionMismatchError as exc:
        raise ConfigError(f"invalid grid header in dump: {exc}") from exc
    if len(raw) - head_size != 8 * domain.node_count:
        raise ConfigError("grid dump payload size does not match its header")
    values = np.frombuffer(raw[head_size:], dtype="<f8")
    return GridFunction._unchecked(domain, values.reshape(domain.shape))


def write_json(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv_rows(path, headers, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(headers) + "\n")
        for row in rows:
            fh.write(",".join(
                repr(float(v)) if isinstance(v, (int, float, np.floating))
                and not isinstance(v, bool) else str(v)
                for v in row
            ) + "\n")


def domain_from_config(cfg: dict) -> GridDomain:
    try:
        kind = cfg["kind"]
        n = int(cfg["n"])
        ppa = int(cfg["points_per_axis"])
        radius = float(cfg.get("radius", 1.0))
    except KeyError as exc:
        raise ConfigError(f"grid config missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid grid config: {exc}") from exc
    try:
        return GridDomain(n=n, kind=kind, points_per_axis=ppa, radius=radius)
    except DimensionMismatchError as exc:
        raise ConfigError(f"invalid grid config: {exc}") from exc
