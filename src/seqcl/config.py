"""Run configuration: one JSON document covering every pipeline stage, with
CLI flag overrides. All randomness flows from the run seed: `load_config`
always sets the data and optimizer seeds to it, and training draws from a
sub-stream of it (see `train.TRAIN_STREAM`)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .augment import AugmentConfig
from .data import SyntheticSpec
from .encoder import EncoderConfig
from .errors import ConfigError
from .eval import ProbeConfig
from .loss import SCLConfig
from .train import OptimConfig


@dataclass
class RunConfig:
    seed: int = 0
    data: SyntheticSpec = field(default_factory=SyntheticSpec)
    augment: AugmentConfig = field(default_factory=lambda: AugmentConfig(T=64))
    encoder: EncoderConfig = field(default_factory=lambda: EncoderConfig(input_dim=32))
    loss: SCLConfig = field(default_factory=SCLConfig)
    optim: OptimConfig = field(default_factory=lambda: OptimConfig(epochs=100))
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    data_dir: str = "data"
    checkpoint: str = "encoder.ckpt"
    report: str = "report.json"

    def to_dict(self) -> dict:
        return asdict(self)


def _apply_section(cls, payload: dict, section: str):
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ConfigError(f"config section {section!r}: {exc}") from exc


def config_from_dict(payload: dict) -> RunConfig:
    payload = dict(payload)
    sections = {
        "data": SyntheticSpec,
        "augment": AugmentConfig,
        "encoder": EncoderConfig,
        "loss": SCLConfig,
        "optim": OptimConfig,
        "probe": ProbeConfig,
    }
    kwargs = {}
    for key, cls in sections.items():
        if key in payload:
            kwargs[key] = _apply_section(cls, payload.pop(key), key)
    known = {"seed", "data_dir", "checkpoint", "report"}
    for key in payload:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
    kwargs.update(payload)
    return RunConfig(**kwargs)


def load_config(path: str | Path | None, overrides: dict) -> RunConfig:
    """Build the effective config: file values, then flag overrides on top."""
    payload: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            payload = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: invalid JSON: {exc}") from exc
    for dotted, value in overrides.items():
        if value is None:
            continue
        section, _, leaf = dotted.partition(".")
        if leaf:
            payload.setdefault(section, {})[leaf] = value
        else:
            payload[dotted] = value
    cfg = config_from_dict(payload)
    # keep the component seeds tied to the run seed
    cfg.data.seed = cfg.seed
    cfg.optim.seed = cfg.seed
    return cfg
