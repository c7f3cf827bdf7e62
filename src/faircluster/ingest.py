"""Dataset ingestion: delimited text -> ClusteringInstance.

Delimiter (comma or semicolon) is auto-detected from the header line. Rows
with missing, NaN or non-numeric coordinate values are dropped and counted;
an infinite coordinate is an error that names its line. Each
sensitive attribute contributes one protected group per distinct value (or
per mapped group name when a value->name mapping is configured), so two
attributes give every record exactly two group memberships (Delta = 2).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .instance import ClusteringInstance


@dataclass(frozen=True)
class IngestResult:
    instance: ClusteringInstance
    group_names: tuple[str, ...]
    rows_total: int
    rows_dropped: int


def _detect_delimiter(header_line: str) -> str:
    return ";" if ";" in header_line else ","


def ingest(config: ExperimentConfig) -> IngestResult:
    """Parse the configured dataset into a clustering instance (F = C).

    The instance is built with k = max(k_values); experiment cells rebind k
    via ``instance.with_k``.
    """
    path = Path(config.dataset_path)
    if not path.exists():
        raise ConfigError(f"dataset file {path} does not exist")
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first:
            raise ConfigError(f"dataset file {path} is empty")
        delim = _detect_delimiter(first)
        fh.seek(0)
        reader = csv.DictReader(fh, delimiter=delim)
        headers = reader.fieldnames or []
        needed = list(config.coordinate_columns) + [a.column for a in config.sensitive_attributes]
        for col in needed:
            if col not in headers:
                raise ConfigError(f"column {col!r} not found in {path} (have {headers})")
        coords: list[list[float]] = []
        attrs: list[list[str]] = []
        total = dropped = 0
        for row in reader:
            total += 1
            try:
                xs = [float(row[c]) for c in config.coordinate_columns]
            except (TypeError, ValueError):
                dropped += 1
                continue
            if any(x != x for x in xs):  # NaN coordinates count as missing
                dropped += 1
                continue
            if any(math.isinf(x) for x in xs):
                raise ConfigError(f"{path} line {reader.line_num}: infinite coordinate {xs}")
            vals = [(row[a.column] or "").strip() for a in config.sensitive_attributes]
            if any(v == "" for v in vals):
                dropped += 1
                continue
            coords.append(xs)
            attrs.append(vals)

    if not coords:
        raise ConfigError(f"no usable rows left in {path} (dropped {dropped} of {total})")

    kept = len(coords)
    points = np.asarray(coords, dtype=float)
    if config.max_points is not None and config.max_points < kept:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(9,)))
        pick = np.sort(rng.choice(kept, size=config.max_points, replace=False))
        points = points[pick]
        attrs = [attrs[i] for i in pick]

    if config.standardize:
        mean = points.mean(axis=0)
        std = points.std(axis=0)
        std[std == 0.0] = 1.0
        points = (points - mean) / std

    group_names: list[str] = []
    groups: list[set[int]] = []
    for a_idx, attr in enumerate(config.sensitive_attributes):
        by_name: dict[str, set[int]] = {}
        for row_idx, vals in enumerate(attrs):
            raw = vals[a_idx]
            if attr.groups is not None:
                if raw not in attr.groups:
                    raise ConfigError(
                        f"value {raw!r} of column {attr.column!r} has no group mapping"
                    )
                name = attr.groups[raw]
            else:
                name = raw
            by_name.setdefault(name, set()).add(row_idx)
        if attr.groups is not None:
            for name in set(attr.groups.values()):
                if name not in by_name:
                    raise ConfigError(
                        f"group {attr.column}={name} has zero members after cleaning"
                    )
        for name in sorted(by_name):
            group_names.append(f"{attr.column}={name}")
            groups.append(by_name[name])

    k0 = max(config.k_values)
    if k0 > len(points):
        raise ConfigError(f"k={k0} exceeds the {len(points)} usable rows")
    return IngestResult(
        instance=ClusteringInstance.from_points(points, groups, k=k0, p=config.p),
        group_names=tuple(group_names),
        rows_total=total,
        rows_dropped=dropped,
    )
