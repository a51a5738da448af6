"""Training configuration: typed specs plus the INI config-file format.

Config files are UTF-8 ``key = value`` lines grouped into the sections
[model], [loss], [optimizer], [run], [data] and an optional [grid]. The
spec dataclasses are the schema: each field is a key of its section, parsed
by its annotation and required when it has no default. Unknown sections or
keys and non-finite numbers are rejected, every loss weight defaults to
zero, missing required keys produce an error naming the key, and every
[grid] candidate is validated on load.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import dataclass

from .datasets import DatasetSpec

# Head kind -> the loss weights that only that head may switch on.
HEAD_LOSS_KEYS = {
    "softmax": (),
    "enn": ("evidential_kl",),
    "dm": ("dm_entropy", "proto_dispersion", "uncertainty_bce"),
}
OPTIMIZER_KINDS = ("adam", "sgd-momentum")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


@dataclass(frozen=True)
class ModelSpec:
    hidden: tuple[int, ...]
    head: str = "softmax"
    spectral_norm: bool = False
    sn_coeff: float = 1.0
    sn_power_iters: int = 1

    def validate(self) -> None:
        if self.head not in HEAD_LOSS_KEYS:
            raise ConfigError(f"unknown head kind {self.head!r}")
        if any(h < 1 for h in self.hidden):
            raise ConfigError("hidden layer widths must be positive")
        if self.head == "dm" and not self.hidden:
            raise ConfigError("head = dm requires at least one hidden layer")
        if self.sn_coeff <= 0:
            raise ConfigError("sn_coeff must be positive")
        if self.sn_power_iters < 1:
            raise ConfigError("sn_power_iters must be at least 1")


@dataclass(frozen=True)
class LossWeights:
    """Weights of the auxiliary loss terms; zero disables a term entirely."""

    evidential_kl: float = 0.0
    avuc: float = 0.0
    mmce: float = 0.0
    dm_entropy: float = 0.0
    proto_dispersion: float = 0.0
    uncertainty_bce: float = 0.0
    conf_threshold: float = 0.5
    unc_threshold: float = 0.5
    avuc_sharpness: float = 0.1
    kernel_width: float = 0.4

    def validate(self) -> None:
        for name in (
            "evidential_kl",
            "avuc",
            "mmce",
            "dm_entropy",
            "proto_dispersion",
            "uncertainty_bce",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"loss weight {name!r} must be non-negative")
        for name in ("conf_threshold", "unc_threshold"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name!r} must lie strictly inside (0, 1)")
        if self.avuc_sharpness <= 0:
            raise ConfigError("avuc_sharpness must be positive")
        if self.kernel_width <= 0:
            raise ConfigError("kernel_width must be positive")


@dataclass(frozen=True)
class OptimizerSpec:
    lr: float
    kind: str = "adam"
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def validate(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer kind {self.kind!r}")
        if self.lr <= 0:
            raise ConfigError("optimizer lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("optimizer epsilon must be positive")


@dataclass(frozen=True)
class TrainingConfig:
    model: ModelSpec
    loss: LossWeights
    optimizer: OptimizerSpec
    epochs: int
    batch_size: int
    seed: int = 0
    augment: bool = False

    def validate(self) -> None:
        self.model.validate()
        self.loss.validate()
        self.optimizer.validate()
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        # Loss weights must belong to the configured head.
        for head, names in HEAD_LOSS_KEYS.items():
            for name in names:
                if getattr(self.loss, name) > 0 and self.model.head != head:
                    raise ConfigError(
                        f"loss key {name!r} requires head = {head}, "
                        f"got head = {self.model.head}"
                    )


@dataclass(frozen=True)
class LoadedConfig:
    training: TrainingConfig
    data: DatasetSpec
    grid: dict[str, list] | None = None


# -- parsing -----------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    value = float(text.strip())
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    stripped = text.strip()
    if not stripped:
        return ()
    return tuple(int(part.strip()) for part in stripped.split(","))


# Field annotation (a string, under postponed evaluation) -> value parser.
_PARSERS = {
    "bool": _parse_bool,
    "int": int,
    "float": _parse_float,
    "str": str.strip,
    "str | None": str.strip,
    "tuple[int, ...]": _parse_int_list,
}

# INI section -> the spec dataclass whose fields are its keys. [run] holds
# TrainingConfig's own scalar fields; its spec-typed fields are sections.
_SPECS = {
    "model": ModelSpec,
    "loss": LossWeights,
    "optimizer": OptimizerSpec,
    "run": TrainingConfig,
    "data": DatasetSpec,
}
_NESTED = [f.name for f in dataclasses.fields(TrainingConfig) if f.name in _SPECS]


def _build_schema(specs: dict) -> dict[str, dict[str, dataclasses.Field]]:
    """Section -> key -> dataclass field; every annotation must have a parser."""
    schema = {}
    for section, spec in specs.items():
        fields = [f for f in dataclasses.fields(spec) if f.name not in specs]
        for f in fields:
            if f.type not in _PARSERS:
                raise TypeError(f"no config parser for {spec.__name__}.{f.name}")
        schema[section] = {f.name: f for f in fields}
    return schema


_SCHEMA = _build_schema(_SPECS)


def _training_field(key: str) -> dataclasses.Field | None:
    """The field a dotted `section.key` names within TrainingConfig, if any."""
    section, _, name = key.partition(".")
    if section != "run" and section not in _NESTED:
        return None
    return _SCHEMA[section].get(name)


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), strict=True
    )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return parser


def load_config(path) -> LoadedConfig:
    """Parse and validate a config file; errors name the offending key."""
    parser = _read_ini(path)

    values: dict[str, dict] = {section: {} for section in _SCHEMA}
    grid: dict[str, list] = {}
    for section in parser.sections():
        if section != "grid" and section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if section == "grid":
                grid[key] = _parse_grid_values(key, raw)
                continue
            field = _SCHEMA[section].get(key)
            if field is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[section][key] = _PARSERS[field.type](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r} in section [{section}]: {exc}"
                ) from exc

    for section, fields in _SCHEMA.items():
        for key, f in fields.items():
            # A field with neither a default nor a default factory is required.
            required = f.default is f.default_factory is dataclasses.MISSING
            if required and key not in values[section]:
                raise ConfigError(
                    f"missing required key {key!r} in section [{section}]"
                )

    nested = {name: _SPECS[name](**values[name]) for name in _NESTED}
    training = _SPECS["run"](**nested, **values["run"])
    training.validate()
    data = _SPECS["data"](**values["data"])
    try:
        data.validate()
    except ValueError as exc:
        raise ConfigError(f"section [data]: {exc}") from exc
    if grid:
        grid_candidates(training, grid)  # validates every candidate up front
    return LoadedConfig(training=training, data=data, grid=grid or None)


def _parse_grid_values(key: str, raw: str) -> list:
    field = _training_field(key)
    if field is None:
        raise ConfigError(f"unknown grid key {key!r}")
    parse = _PARSERS[field.type]
    if parse is _parse_int_list:
        # Commas separate grid candidates, so a list value cannot be swept.
        raise ConfigError(f"grid search over {key!r} is not supported")
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if len(parts) < 1:
        raise ConfigError(f"grid key {key!r} lists no candidate values")
    try:
        return [parse(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad grid value for {key!r}: {exc}") from exc


def apply_override(training: TrainingConfig, key: str, value) -> TrainingConfig:
    """Return a copy of `training` with one dotted-key field replaced."""
    if _training_field(key) is None:
        raise ConfigError(f"unknown override key {key!r}")
    section, _, field = key.partition(".")
    if section == "run":
        return dataclasses.replace(training, **{field: value})
    replaced = dataclasses.replace(getattr(training, section), **{field: value})
    return dataclasses.replace(training, **{section: replaced})


def grid_candidates(training: TrainingConfig, space: dict[str, list]) -> list:
    """(overrides, config) per point of the Cartesian product of `space`.

    The last key varies fastest. Every candidate is validated before the
    list is returned; an invalid one raises ConfigError naming its overrides.
    """
    candidates = []
    for combo in itertools.product(*space.values()):
        overrides = dict(zip(space, combo))
        candidate = training
        for key, value in overrides.items():
            candidate = apply_override(candidate, key, value)
        try:
            candidate.validate()
        except ConfigError as exc:
            raise ConfigError(f"grid candidate {overrides}: {exc}") from exc
        candidates.append((overrides, candidate))
    return candidates


# -- serialization -----------------------------------------------------------


def config_to_dict(training: TrainingConfig, data: DatasetSpec) -> dict:
    """Section -> key -> value of every schema key, in declaration order."""
    specs = {"run": training, "data": data}
    specs.update((name, getattr(training, name)) for name in _NESTED)
    return {
        section: {key: getattr(specs[section], key) for key in keys}
        for section, keys in _SCHEMA.items()
    }


def config_digest(training: TrainingConfig, data: DatasetSpec) -> str:
    """Stable short fingerprint of a full configuration."""
    canonical = json.dumps(config_to_dict(training, data), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def dump_config(training: TrainingConfig, data: DatasetSpec) -> str:
    """Render a configuration back to config-file text."""
    lines: list[str] = []
    for section, body in config_to_dict(training, data).items():
        lines.append(f"[{section}]")
        for key, value in body.items():
            if value is None:
                continue
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, tuple):
                text = ",".join(str(v) for v in value)
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)
