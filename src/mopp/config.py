"""Flat-text run configuration: `[section]` groups of `key = value` lines."""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from typing import Optional

from .adm import AdmConfig
from .errors import ConfigError
from .planner import PlannerConfig
from .value import FqeConfig


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _parse_float_or_auto(text: str):
    if text.strip().lower() == "auto":
        return None
    return float(text)


def _parse_optional_float(text: str):
    return None if text.strip() == "" else float(text)


@dataclass
class RunConfig:
    """Every knob of the pipeline; defaults mirror the benchmark settings."""

    # [run]
    env: str = "pointmass"
    v_cap: Optional[float] = None  # constrained-env cap override
    dataset: str = "dataset.ds"
    dynamics_dir: str = "dynamics"
    behavior_dir: str = "behavior"
    q_dir: str = "q"
    seeds: tuple = (0, 1, 2, 3, 4)
    episodes: int = 20
    # [data]
    data_policy: str = "medium"
    data_episodes: int = 100
    data_seed: int = 0
    # [adm]
    k1: int = 3
    k2: int = 3
    adm_steps: int = 20000
    adm_batch: int = 256
    adm_lr: float = 1e-3
    adm_embed: int = 500
    adm_head_hidden: tuple = (200, 100)
    adm_activation: str = "relu"
    dynamics_seed: int = 1
    behavior_seed: int = 2
    # [fqe]
    fqe_gamma: float = 0.99
    fqe_iterations: int = 40
    fqe_steps: int = 500
    fqe_batch: int = 512
    fqe_lr: float = 1e-3
    fqe_hidden: tuple = (500, 500)
    fqe_seed: int = 3
    # [planner]
    horizon: int = 4
    kappa: float = 3.0
    beta: float = 0.0
    threshold: Optional[float] = None  # None -> percentile rule on the dataset
    sigma_m: float = 0.5
    n_rollouts: int = 100
    n_min: Optional[int] = None  # None -> floor(0.2 N)
    candidates: int = 10
    k_q: int = 10
    use_max_q: bool = True
    use_pruning: bool = True
    use_value: bool = True
    # [constraint]
    constraint: str = "none"
    alpha_r: float = 0.4
    alpha_c: float = 0.5
    constraint_weight: float = 100.0
    # [ablate]
    ablate_axis: str = "sigma_m"
    ablate_values: tuple = (0.01, 0.5, 1.0)
    ablate_variants: tuple = ("full", "noMQ", "noP")


# (section, key) -> (attribute, parser); parsers raise ValueError on bad input.
_SCHEMA = {
    "run": {
        "env": ("env", str),
        "v_cap": ("v_cap", _parse_optional_float),
        "dataset": ("dataset", str),
        "dynamics_dir": ("dynamics_dir", str),
        "behavior_dir": ("behavior_dir", str),
        "q_dir": ("q_dir", str),
        "seeds": ("seeds", _parse_int_list),
        "episodes": ("episodes", int),
    },
    "data": {
        "policy": ("data_policy", str),
        "episodes": ("data_episodes", int),
        "seed": ("data_seed", int),
    },
    "adm": {
        "k1": ("k1", int),
        "k2": ("k2", int),
        "steps": ("adm_steps", int),
        "batch": ("adm_batch", int),
        "lr": ("adm_lr", float),
        "embed": ("adm_embed", int),
        "head_hidden": ("adm_head_hidden", _parse_int_list),
        "activation": ("adm_activation", str),
        "dynamics_seed": ("dynamics_seed", int),
        "behavior_seed": ("behavior_seed", int),
    },
    "fqe": {
        "gamma": ("fqe_gamma", float),
        "iterations": ("fqe_iterations", int),
        "steps": ("fqe_steps", int),
        "batch": ("fqe_batch", int),
        "lr": ("fqe_lr", float),
        "hidden": ("fqe_hidden", _parse_int_list),
        "seed": ("fqe_seed", int),
    },
    "planner": {
        "h": ("horizon", int),
        "kappa": ("kappa", float),
        "beta": ("beta", float),
        "l": ("threshold", _parse_float_or_auto),
        "sigma_m": ("sigma_m", float),
        "n": ("n_rollouts", int),
        "n_min": (
            "n_min",
            lambda t: None if t.strip().lower() == "auto" else int(t),
        ),
        "m": ("candidates", int),
        "k_q": ("k_q", int),
        "use_max_q": ("use_max_q", _parse_bool),
        "use_pruning": ("use_pruning", _parse_bool),
        "use_value": ("use_value", _parse_bool),
    },
    "constraint": {
        "mode": ("constraint", str),
        "alpha_r": ("alpha_r", float),
        "alpha_c": ("alpha_c", float),
        "weight": ("constraint_weight", float),
    },
    "ablate": {
        "axis": ("ablate_axis", str),
        "values": ("ablate_values", lambda t: tuple(float(v) for v in t.split(","))),
        "variants": ("ablate_variants", lambda t: tuple(v.strip() for v in t.split(","))),
    },
}

CONSTRAINT_MODES = ("none", "height_bonus", "velocity_penalty", "velocity_rollout")


def load_config(path) -> RunConfig:
    """Parse and validate a config file; unknown sections or keys are rejected."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), strict=True
    )
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f, source=str(path))
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}") from err

    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"{path}: unknown section [{section}]; known: {sorted(_SCHEMA)}"
            )
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]; "
                    f"known: {sorted(_SCHEMA[section])}"
                )
            attr, parse = _SCHEMA[section][key]
            try:
                setattr(cfg, attr, parse(raw))
            except ValueError as err:
                raise ConfigError(
                    f"{path}: bad value for {key!r} in [{section}]: {err}"
                ) from err
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.env not in ("pointmass", "pointmass_constrained"):
        raise ConfigError(f"unknown env {cfg.env!r}")
    if cfg.data_policy not in ("random", "medium", "expert"):
        raise ConfigError(f"unknown data policy {cfg.data_policy!r}")
    if cfg.constraint not in CONSTRAINT_MODES:
        raise ConfigError(
            f"unknown constraint mode {cfg.constraint!r}; options: {CONSTRAINT_MODES}"
        )
    if cfg.env == "pointmass" and cfg.v_cap is not None:
        raise ConfigError(
            "[run] v_cap is set, but env pointmass has no velocity cap; use env pointmass_constrained"
        )
    if cfg.env == "pointmass" and cfg.constraint.startswith("velocity_"):
        raise ConfigError(
            f"[constraint] mode {cfg.constraint} caps the velocity, but env pointmass has no cap "
            "and counts no violations; use env pointmass_constrained"
        )
    if not cfg.seeds:
        raise ConfigError("need at least one seed")
    if cfg.episodes < 1 or cfg.data_episodes < 1:
        raise ConfigError("episode counts must be positive")
    if cfg.ablate_axis not in ABLATE_AXES:
        raise ConfigError(f"unknown ablation axis {cfg.ablate_axis!r}")
    bad = [v for v in cfg.ablate_variants if v not in ABLATE_VARIANTS]
    if bad:
        raise ConfigError(f"unknown ablation variants {bad}")
    _check_library_ranges(cfg)
    if cfg.use_pruning and cfg.k1 < 2:
        raise ConfigError(f"use_pruning needs k1 >= 2 dynamics members, got k1 = {cfg.k1}")


# [ablate] axis -> the PlannerConfig field its values set and their type
ABLATE_AXES = {
    "sigma_m": ("sigma_scale", float),
    "h": ("horizon", int),
    "l": ("uncertainty_threshold", float),
}
# [ablate] variant -> the PlannerConfig toggles it turns off
ABLATE_VARIANTS = {
    "full": {},
    "noMQ": {"use_max_q": False},
    "noP": {"use_pruning": False},
    "noV": {"use_value": False},
}


def ablate_axis_field(cfg: RunConfig, axis_value: float) -> dict:
    """The PlannerConfig field, as a replace() keyword, that one [ablate] value sets."""
    field, kind = ABLATE_AXES[cfg.ablate_axis]
    return {field: kind(axis_value)}


def planner_config(cfg: RunConfig, threshold: float) -> PlannerConfig:
    return PlannerConfig(
        horizon=cfg.horizon,
        kappa=cfg.kappa,
        beta=cfg.beta,
        uncertainty_threshold=threshold,
        sigma_scale=cfg.sigma_m,
        n_rollouts=cfg.n_rollouts,
        n_min=cfg.n_min,
        candidates=cfg.candidates,
        value_samples=cfg.k_q,
        use_max_q=cfg.use_max_q,
        use_pruning=cfg.use_pruning,
        use_value=cfg.use_value,
    )


def adm_config(cfg: RunConfig, members: int) -> AdmConfig:
    return AdmConfig(
        members=members,
        steps=cfg.adm_steps,
        batch_size=cfg.adm_batch,
        learning_rate=cfg.adm_lr,
        embed_width=cfg.adm_embed,
        head_hidden=cfg.adm_head_hidden,
        activation=cfg.adm_activation,
    )


def fqe_config(cfg: RunConfig, reward_transform=None) -> FqeConfig:
    return FqeConfig(
        gamma=cfg.fqe_gamma,
        iterations=cfg.fqe_iterations,
        steps_per_iteration=cfg.fqe_steps,
        batch_size=cfg.fqe_batch,
        learning_rate=cfg.fqe_lr,
        hidden=cfg.fqe_hidden,
        reward_transform=reward_transform,
    )


def _planner_config_for_checks(cfg: RunConfig) -> PlannerConfig:
    """`l = auto` is resolved at evaluation time; any positive value stands in."""
    return planner_config(cfg, 1.0 if cfg.threshold is None else cfg.threshold)


# The library config built from each section, whose own checks bound its keys.
_LIBRARY_CONFIGS = {
    "adm": lambda cfg: (adm_config(cfg, cfg.k1), adm_config(cfg, cfg.k2)),
    "fqe": fqe_config,
    "planner": _planner_config_for_checks,
}


def _check_library_ranges(cfg: RunConfig) -> None:
    """Build each section's library config; a value it rejects names its ``[section] key``.

    The section's keys are set one at a time, in schema order, over the
    defaults, and the config is built after each, so the key named is the
    first one the library rejects. Of a pair checked together (``n`` and
    ``n_min``) that is the later key, as the earlier one is valid with the
    other's default. Each ``[ablate] values`` entry is then set on the
    whole ``[planner]`` config, as ``mopp ablate`` sets it.
    """
    for section, build in _LIBRARY_CONFIGS.items():
        trial = RunConfig()
        for key, (attr, _) in _SCHEMA[section].items():
            setattr(trial, attr, getattr(cfg, attr))
            try:
                build(trial)
            except ConfigError as err:
                raise ConfigError(f"[{section}] {key} = {_format_value(cfg, attr)}: {err}") from None
    base = _planner_config_for_checks(cfg)
    for value in cfg.ablate_values:
        try:
            dataclasses.replace(base, **ablate_axis_field(cfg, value))
        except (ConfigError, ValueError, OverflowError) as err:  # int() of nan / inf for h
            raise ConfigError(
                f"[ablate] values = {_format_value(cfg, 'ablate_values')}: "
                f"{cfg.ablate_axis} = {value}: {err}"
            ) from None


def _format_value(cfg: RunConfig, attr: str) -> str:
    """The config-file text of ``cfg.attr``."""
    value = getattr(cfg, attr)
    if value is None:
        return "auto" if attr in ("threshold", "n_min") else ""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def default_config_text() -> str:
    """A complete config file with every key at its default value."""
    cfg = RunConfig()
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, _) in keys.items():
            lines.append(f"{key} = {_format_value(cfg, attr)}")
        lines.append("")
    return "\n".join(lines)
