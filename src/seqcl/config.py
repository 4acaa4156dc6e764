"""Run configuration: one JSON document covering every pipeline stage, with
CLI flag overrides. All randomness flows from the run seed: `load_config`
always sets the data and optimizer seeds to it, and training draws from a
sub-stream of it (see `train.TRAIN_STREAM`)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .augment import AugmentConfig
from .data import SyntheticSpec
from .encoder import EncoderConfig
from .errors import ConfigError, check_fields, rule
from .eval import ProbeConfig
from .loss import SCLConfig
from .train import OptimConfig


@dataclass
class RunConfig:
    seed: int = rule(0, ge=0)
    data: SyntheticSpec = field(default_factory=SyntheticSpec)
    augment: AugmentConfig = field(default_factory=lambda: AugmentConfig(T=64))
    encoder: EncoderConfig = field(default_factory=lambda: EncoderConfig(input_dim=32))
    loss: SCLConfig = field(default_factory=SCLConfig)
    optim: OptimConfig = field(default_factory=lambda: OptimConfig(epochs=100))
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    data_dir: str = "data"
    checkpoint: str = "encoder.ckpt"
    report: str = "report.json"

    def __post_init__(self):
        check_fields(self)


def _json_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _from_json(cls, payload, where: str):
    """`cls` from a JSON object, and each config section (a dataclass-typed
    field) from a nested one; an unknown or missing field is a ConfigError."""
    kwargs = dict(_json_object(payload, where))
    for key, kind in get_type_hints(cls).items():
        if is_dataclass(kind) and key in kwargs:
            kwargs[key] = _from_json(kind, kwargs[key], f"config section {key!r}")
    try:
        return cls(**kwargs)
    except TypeError as exc:  # an unknown or missing field; values raise only ConfigError
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str | Path | None, overrides: dict) -> RunConfig:
    """Build the effective config: file values, then flag overrides on top."""
    payload: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            payload = json.loads(p.read_text())
        except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
            raise ConfigError(f"{p}: invalid JSON: {exc}") from exc
    for dotted, value in overrides.items():
        if value is None:
            continue
        section, _, leaf = dotted.rpartition(".")
        target = _json_object(payload, "config")
        if section:
            where = f"config section {section!r}"
            target = _json_object(target.setdefault(section, {}), where)
        target[leaf] = value
    cfg = _from_json(RunConfig, payload, "config")
    # keep the component seeds tied to the run seed
    cfg.data.seed = cfg.seed
    cfg.optim.seed = cfg.seed
    return cfg
