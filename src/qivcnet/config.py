"""Flat run configuration: file format, CLI overrides, validation.

A config file is plain ``key = value`` text: one pair per line, ``#``
starts a comment, keys use underscores and match RunConfig field names.
CLI flags (same names, dashes) override file values, which override the
defaults.  RunConfig is the one declaration of every setting: the nested
network and sampler configs are built from its same-named fields (the
network's activation stays at its ReLU default), and a RunConfig with any
setting out of range cannot be constructed.  The fully resolved
configuration is echoed into the output directory of every command so a run
can be reproduced from its artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .network import NetworkConfig
from .preprocess import snr_power_ratio
from .qire import QireConfig


@dataclass
class RunConfig:
    """Every tunable of every command, flat."""

    # paths
    manifest: str = ""
    cache: str = "segments.qivc"
    outdir: str = "runs/latest"
    checkpoint: str = ""
    # structured-noise sampler
    k: int = 5
    p: float = 0.05
    # variational posterior
    prior_var: float = 0.01
    kl_scale: float = 1e-5
    # architecture: comma-separated filtersxwidth pairs
    blocks: str = "16x7,32x7"
    classifier_width: int = 32
    # training
    lr: float = 1e-3
    batch: int = 256
    epochs: int = 500
    patience: int = 50
    folds: int = 5
    fold_index: int = -1
    group_by_recording: bool = False
    seed: int = 0
    # evaluation sweeps and diagnostics
    snr_list: str = "25,20,15,10,5"
    trials: int = 10000
    # not a setting: the share of each class that training holds out to pick its checkpoint
    val_fraction = 0.1

    def __post_init__(self) -> None:
        """Range-check every setting, including the derived configs."""
        self.network_config()
        self.snr_values()
        if not 0.0 < self.lr < math.inf:     # NaN fails too
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.kl_scale < math.inf:
            raise ConfigError(f"kl_scale must be finite and >= 0, got {self.kl_scale}")
        if self.batch < 2:
            raise ConfigError(f"batch size must be >= 2, got {self.batch}")
        if self.epochs < 1 or self.epochs > 500:
            raise ConfigError(f"epochs must be in [1, 500], got {self.epochs}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if not -1 <= self.fold_index < self.folds:
            raise ConfigError(f"fold_index must be in [-1, folds), got {self.fold_index}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")

    def qire_config(self) -> QireConfig:
        return QireConfig(k=self.k, p=self.p)

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(blocks=parse_blocks(self.blocks),
                             classifier_width=self.classifier_width, qire=self.qire_config(),
                             prior_var=self.prior_var, seed=self.seed)

    def snr_values(self) -> "list[float]":
        """The SNRs in dB; +inf means no noise, and NaN, -inf or a finite SNR
        past ``snr_power_ratio``'s range (about +-3082 dB) is an error."""
        values = _split(self.snr_list, ",", float, "snr_list")
        for v in values:
            if v != math.inf:
                snr_power_ratio(v, f"each SNR of snr_list {self.snr_list!r}")
        return values


FIELD_KINDS: "dict[str, type]" = {  # each RunConfig field's type, for files and flags
    f.name: {"str": str, "int": int, "float": float, "bool": bool}[str(f.type)]
    for f in fields(RunConfig)}


def _split(text: str, sep: str, kind, what: str) -> list:
    """The non-empty ``sep``-separated items of ``text``, each converted by
    ``kind``; a ValueError from ``kind``, or no item at all, is a ConfigError."""
    try:
        items = [kind(item) for item in text.split(sep) if item.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}") from exc
    if not items:
        raise ConfigError(f"{what} {text!r} is empty")
    return items


def _block(spec: str) -> "tuple[int, int]":
    filters, width = spec.split("x")  # ValueError unless exactly two pieces
    return int(filters), int(width)


def parse_blocks(text: str) -> "tuple[tuple[int, int], ...]":
    """Parse '16x7,32x7' into ((16, 7), (32, 7))."""
    return tuple(_split(text, ",", _block, "FILTERSxWIDTH list"))


_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _convert(name: str, kind: type, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError(raw)
            return _BOOL_WORDS[raw.lower()]
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r} (expected {kind.__name__})") from exc


def load_config_file(path: "str | Path") -> "dict[str, object]":
    """Parse a key=value config file into typed overrides."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"missing config file: {path}")
    overrides: "dict[str, object]" = {}
    seen: "dict[str, int]" = {}  # key -> the line that set it
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in FIELD_KINDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        overrides[key] = _convert(key, FIELD_KINDS[key], raw)
    return overrides


def resolve_config(file_path: "str | None",
                   flag_overrides: "dict[str, object]") -> RunConfig:
    """defaults <- config file <- CLI flags; construction validates."""
    values = load_config_file(file_path) if file_path else {}
    values.update({k: v for k, v in flag_overrides.items() if v is not None})
    return RunConfig(**values)


def config_text(cfg: RunConfig) -> str:
    """Render the resolved config in the same key=value file format."""
    lines = []
    for name in FIELD_KINDS:
        value = getattr(cfg, name)
        text = ("true" if value else "false") if isinstance(value, bool) else str(value)
        lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"
