"""Experiment configuration: YAML manifests plus command-line overrides.

A manifest is a flat YAML mapping using exactly the field names of
``ExperimentConfig``. Every field can also be overridden on the command line
as ``--override key=value`` (values parsed as YAML). ``delta_values`` may mix
numbers in [0, 1) with the string ``"vacuous"`` for an unconstrained cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import yaml


class ConfigError(ValueError):
    """Bad or missing experiment configuration."""


@dataclass(frozen=True)
class SensitiveAttribute:
    """One protected column; ``groups`` optionally maps raw values to group
    names (merging values), otherwise each distinct value forms a group."""

    column: str
    groups: dict[str, str] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str
    coordinate_columns: tuple[str, ...]
    sensitive_attributes: tuple[SensitiveAttribute, ...]
    k_values: tuple[int, ...]
    p: float  # 1, 2, or math.inf
    delta_values: tuple[object, ...]  # floats in [0,1) and/or "vacuous"
    max_points: int | None = None
    seed: int = 0
    solver_id: str | None = None
    output_dir: str = "out"
    standardize: bool = False
    run_aflp: bool = False
    run_oracle: bool = False
    L: int | None = None  # minimum cluster size of the lower-bounded mode
    jobs: int = 1

    def __post_init__(self):
        if not self.coordinate_columns:
            raise ConfigError("at least one coordinate column is required")
        if not self.sensitive_attributes:
            raise ConfigError("at least one sensitive attribute is required")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ConfigError(f"k_values must be positive, got {self.k_values}")
        if self.p not in (1.0, 2.0) and not math.isinf(self.p):
            raise ConfigError(f"p must be 1, 2 or 'inf', got {self.p}")
        for d in self.delta_values:
            if d == "vacuous":
                continue
            if not isinstance(d, (int, float)) or not (0.0 <= float(d) < 1.0):
                raise ConfigError(f"delta value {d!r} must be in [0, 1) or 'vacuous'")
        if self.L is not None and self.L < 1:
            raise ConfigError(f"L must be >= 1, got {self.L}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")


def _parse_p(raw) -> float:
    if raw in ("inf", "infinity", "INF"):
        return math.inf
    return float(raw)


def _parse_attributes(raw) -> tuple[SensitiveAttribute, ...]:
    out = []
    for entry in raw:
        if isinstance(entry, str):
            out.append(SensitiveAttribute(column=entry))
        elif isinstance(entry, dict):
            unknown = set(entry) - {"column", "groups"}
            if unknown:
                raise ConfigError(f"unknown sensitive-attribute keys {sorted(unknown)}")
            if "column" not in entry:
                raise ConfigError(f"sensitive attribute missing 'column': {entry}")
            groups = entry.get("groups")
            if groups is not None:
                groups = {str(k): str(v) for k, v in groups.items()}
            out.append(SensitiveAttribute(column=str(entry["column"]), groups=groups))
        else:
            raise ConfigError(f"cannot parse sensitive attribute {entry!r}")
    return tuple(out)


_FIELD_NAMES = frozenset(f.name for f in fields(ExperimentConfig))


def config_from_mapping(data: dict) -> ExperimentConfig:
    unknown = set(data) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    missing = {"dataset_path", "coordinate_columns", "sensitive_attributes",
               "k_values", "p", "delta_values"} - set(data)
    if missing:
        raise ConfigError(f"missing required config fields {sorted(missing)}")
    kwargs = dict(data)
    kwargs["coordinate_columns"] = tuple(str(c) for c in data["coordinate_columns"])
    kwargs["sensitive_attributes"] = _parse_attributes(data["sensitive_attributes"])
    kwargs["k_values"] = tuple(int(k) for k in data["k_values"])
    kwargs["p"] = _parse_p(data["p"])
    kwargs["delta_values"] = tuple(
        "vacuous" if d == "vacuous" else float(d) for d in data["delta_values"]
    )
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    return config_from_mapping(data)


def apply_overrides(config: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply ``key=value`` overrides; values are parsed as YAML scalars/lists."""
    updates: dict = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        updates[key.strip()] = yaml.safe_load(raw)
    base = {f.name: getattr(config, f.name) for f in fields(ExperimentConfig)}
    # round-trip through the parser so overrides get the same validation
    base["sensitive_attributes"] = [
        {"column": a.column, **({"groups": a.groups} if a.groups else {})}
        for a in config.sensitive_attributes
    ]
    base["p"] = "inf" if math.isinf(config.p) else config.p
    base.update(updates)
    return config_from_mapping(base)
