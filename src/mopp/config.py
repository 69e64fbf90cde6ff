"""Flat-text run configuration: `[section]` groups of `key = value` lines."""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from typing import Optional

from . import envs
from .adm import AdmConfig
from .errors import ConfigError
from .planner import ConstraintConfig, PlannerConfig
from .value import FqeConfig


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str, parse=int) -> tuple:
    return tuple(parse(v) for v in text.split(",") if v.strip() != "")


def _parse_seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"a seed must be non-negative, got {seed}")
    return seed


def _or_auto(parse):
    """``parse``, with ``auto`` read as None."""
    return lambda text: None if text.strip().lower() == "auto" else parse(text)


def _parse_optional_float(text: str):
    return None if text.strip() == "" else float(text)


@dataclass
class RunConfig:
    """Every knob of the pipeline. A knob that sets a library config field defaults to that field's default."""

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
    k1: int = AdmConfig.members
    k2: int = AdmConfig.members
    adm_steps: int = AdmConfig.steps
    adm_batch: int = AdmConfig.batch_size
    adm_lr: float = AdmConfig.learning_rate
    adm_embed: int = AdmConfig.embed_width
    adm_head_hidden: tuple = AdmConfig.head_hidden
    adm_activation: str = AdmConfig.activation
    dynamics_seed: int = 1
    behavior_seed: int = 2
    # [fqe]
    fqe_gamma: float = FqeConfig.gamma
    fqe_iterations: int = FqeConfig.iterations
    fqe_steps: int = FqeConfig.steps_per_iteration
    fqe_batch: int = FqeConfig.batch_size
    fqe_lr: float = FqeConfig.learning_rate
    fqe_hidden: tuple = FqeConfig.hidden
    fqe_seed: int = 3
    # [planner]
    horizon: int = PlannerConfig.horizon
    kappa: float = PlannerConfig.kappa
    beta: float = PlannerConfig.beta
    threshold: Optional[float] = None  # None -> percentile rule on the dataset
    sigma_m: float = PlannerConfig.sigma_scale
    n_rollouts: int = PlannerConfig.n_rollouts
    n_min: Optional[int] = PlannerConfig.n_min  # None -> floor(0.2 N)
    candidates: int = PlannerConfig.candidates
    k_q: int = PlannerConfig.value_samples
    use_max_q: bool = PlannerConfig.use_max_q
    use_pruning: bool = PlannerConfig.use_pruning
    use_value: bool = PlannerConfig.use_value
    # [constraint]
    constraint: str = "none"
    alpha_r: float = 0.4
    alpha_c: float = 0.5
    constraint_weight: float = 100.0
    # [ablate]
    ablate_axis: str = "sigma_m"
    ablate_values: tuple = (0.01, 0.5, 1.0)
    ablate_variants: tuple = ("full", "noMQ", "noP")


# [section] key -> (RunConfig attribute, parser, the field it sets in the
# section's library config or None). Parsers raise ValueError on bad input.
# [adm] k1 and k2 set AdmConfig.members of the dynamics and behavior ensembles.
_SCHEMA = {
    "run": {
        "env": ("env", str, None),
        "v_cap": ("v_cap", _parse_optional_float, None),
        "dataset": ("dataset", str, None),
        "dynamics_dir": ("dynamics_dir", str, None),
        "behavior_dir": ("behavior_dir", str, None),
        "q_dir": ("q_dir", str, None),
        "seeds": ("seeds", lambda t: _parse_int_list(t, _parse_seed), None),
        "episodes": ("episodes", int, None),
    },
    "data": {
        "policy": ("data_policy", str, None),
        "episodes": ("data_episodes", int, None),
        "seed": ("data_seed", _parse_seed, None),
    },
    "adm": {
        "k1": ("k1", int, None),
        "k2": ("k2", int, None),
        "steps": ("adm_steps", int, "steps"),
        "batch": ("adm_batch", int, "batch_size"),
        "lr": ("adm_lr", float, "learning_rate"),
        "embed": ("adm_embed", int, "embed_width"),
        "head_hidden": ("adm_head_hidden", _parse_int_list, "head_hidden"),
        "activation": ("adm_activation", str, "activation"),
        "dynamics_seed": ("dynamics_seed", _parse_seed, None),
        "behavior_seed": ("behavior_seed", _parse_seed, None),
    },
    "fqe": {
        "gamma": ("fqe_gamma", float, "gamma"),
        "iterations": ("fqe_iterations", int, "iterations"),
        "steps": ("fqe_steps", int, "steps_per_iteration"),
        "batch": ("fqe_batch", int, "batch_size"),
        "lr": ("fqe_lr", float, "learning_rate"),
        "hidden": ("fqe_hidden", _parse_int_list, "hidden"),
        "seed": ("fqe_seed", _parse_seed, None),
    },
    "planner": {
        "h": ("horizon", int, "horizon"),
        "kappa": ("kappa", float, "kappa"),
        "beta": ("beta", float, "beta"),
        "l": ("threshold", _or_auto(float), "uncertainty_threshold"),
        "sigma_m": ("sigma_m", float, "sigma_scale"),
        "n": ("n_rollouts", int, "n_rollouts"),
        "n_min": ("n_min", _or_auto(int), "n_min"),
        "m": ("candidates", int, "candidates"),
        "k_q": ("k_q", int, "value_samples"),
        "use_max_q": ("use_max_q", _parse_bool, "use_max_q"),
        "use_pruning": ("use_pruning", _parse_bool, "use_pruning"),
        "use_value": ("use_value", _parse_bool, "use_value"),
    },
    "constraint": {
        "mode": ("constraint", str, None),
        "alpha_r": ("alpha_r", float, None),
        "alpha_c": ("alpha_c", float, None),
        "weight": ("constraint_weight", float, None),
    },
    "ablate": {
        "axis": ("ablate_axis", str, None),
        "values": ("ablate_values", lambda t: tuple(float(v) for v in t.split(",")), None),
        "variants": ("ablate_variants", lambda t: tuple(v.strip() for v in t.split(",")), None),
    },
}


def load_config(path) -> RunConfig:
    """Parse and validate a config file; unknown sections or keys are rejected."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), strict=True
    )
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f, source=str(path))
    except (OSError, UnicodeDecodeError) as err:
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
            attr, parse, _ = _SCHEMA[section][key]
            try:
                setattr(cfg, attr, parse(raw))
            except ValueError as err:
                raise ConfigError(
                    f"{path}: bad value for {key!r} in [{section}]: {err}"
                ) from err
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    names = (
        ("run", "env", envs.ENVS),
        ("data", "policy", envs.POLICIES),
        ("constraint", "mode", CONSTRAINT_MODES),
        ("ablate", "axis", ABLATE_AXES),
    )
    for section, key, table in names:
        name = getattr(cfg, _SCHEMA[section][key][0])
        if name not in table:
            raise ConfigError(f"[{section}] {key} = {name}: unknown; options: {sorted(table)}")
    # the env and the hooks, built as the commands build them; what they reject names its key
    try:
        envs.make_env(cfg.env, v_cap=cfg.v_cap)
    except ConfigError as err:
        raise ConfigError(f"[run] {err}") from None
    if not cfg.seeds:
        raise ConfigError("need at least one seed")
    if cfg.episodes < 1 or cfg.data_episodes < 1:
        raise ConfigError("episode counts must be positive")
    bad = [v for v in cfg.ablate_variants if v not in ABLATE_VARIANTS]
    if bad:
        raise ConfigError(f"[ablate] variants: unknown {bad}; options: {sorted(ABLATE_VARIANTS)}")
    _check_library_ranges(cfg)
    if cfg.use_pruning and cfg.k1 < 2:
        raise ConfigError(f"use_pruning needs k1 >= 2 dynamics members, got k1 = {cfg.k1}")


# [ablate] axis, a [planner] key -> the type of the PlannerConfig field its values set
ABLATE_AXES = {"sigma_m": float, "h": int, "l": float}
# [ablate] variant -> the PlannerConfig toggles it turns off
ABLATE_VARIANTS = {
    "full": {},
    "noMQ": {"use_max_q": False},
    "noP": {"use_pruning": False},
    "noV": {"use_value": False},
}


def ablate_axis_field(cfg: RunConfig, axis_value: float) -> dict:
    """The PlannerConfig field, as a replace() keyword, that one [ablate] value sets."""
    kind = ABLATE_AXES[cfg.ablate_axis]
    field = _SCHEMA["planner"][cfg.ablate_axis][2]
    if kind is int and not axis_value.is_integer():
        raise ValueError("not a whole number")
    return {field: kind(axis_value)}


_LIBRARY_CONFIGS = {"adm": AdmConfig, "fqe": FqeConfig, "planner": PlannerConfig}


def _library_config(section: str, cfg: RunConfig, **fields):
    """The library config of ``[section]``: ``fields``, and every other field from the key that sets it."""
    for attr, _, field in _SCHEMA[section].values():
        if field is not None:
            fields.setdefault(field, getattr(cfg, attr))
    return _LIBRARY_CONFIGS[section](**fields)


def planner_config(cfg: RunConfig, threshold: float) -> PlannerConfig:
    return _library_config("planner", cfg, uncertainty_threshold=threshold)


def adm_config(cfg: RunConfig, members: int) -> AdmConfig:
    return _library_config("adm", cfg, members=members)


def fqe_config(cfg: RunConfig, reward_transform=None) -> FqeConfig:
    return _library_config("fqe", cfg, reward_transform=reward_transform)


# [constraint] mode -> the ConstraintConfig hooks it sets, from the config and the env's velocity cap
CONSTRAINT_MODES = {
    "none": lambda cfg, cap: {},
    "height_bonus": lambda cfg, cap: {
        "reward_transform": envs.height_bonus_reward(alpha=cfg.alpha_r, weight=cfg.constraint_weight)
    },
    "velocity_penalty": lambda cfg, cap: {
        "reward_transform": envs.velocity_penalty_reward(cap, alpha=cfg.alpha_c, weight=cfg.constraint_weight)
    },
    "velocity_rollout": lambda cfg, cap: {
        "rollout_penalty": envs.velocity_rollout_penalty(cap, weight=cfg.constraint_weight)
    },
}


def constraint_config(cfg: RunConfig) -> ConstraintConfig:
    """The planning hooks of ``[constraint] mode``; `train-q` fits Q under the same reward transform."""
    cap = envs.make_env(cfg.env, v_cap=cfg.v_cap).v_cap
    return ConstraintConfig(**CONSTRAINT_MODES[cfg.constraint](cfg, cap))


# The library configs and hooks built from each section, whose own checks bound its keys.
# `l = auto` is resolved at evaluation time; any positive value stands in.
_CHECKED_BUILDS = {
    "adm": lambda cfg: (adm_config(cfg, cfg.k1), adm_config(cfg, cfg.k2)),
    "fqe": fqe_config,
    "planner": lambda cfg: planner_config(cfg, 1.0 if cfg.threshold is None else cfg.threshold),
    "constraint": constraint_config,
}


def _check_library_ranges(cfg: RunConfig) -> None:
    """Build each section's library config or hooks; a value it rejects names its ``[section] key``.

    The section's keys are set one at a time, in schema order, over the
    defaults with the config's env and velocity cap (the constraint hooks
    read the cap), and the section is built after each, so the key named is
    the first one the library rejects. Of a pair checked together (``n`` and
    ``n_min``) that is the later key, as the earlier one is valid with the
    other's default. Each ``[ablate] values`` entry is then set on the
    whole ``[planner]`` config, as ``mopp ablate`` sets it.
    """
    for section, build in _CHECKED_BUILDS.items():
        trial = RunConfig(env=cfg.env, v_cap=cfg.v_cap)
        for key, (attr, _, _) in _SCHEMA[section].items():
            setattr(trial, attr, getattr(cfg, attr))
            try:
                build(trial)
            except ConfigError as err:
                raise ConfigError(f"[{section}] {key} = {_format_value(cfg, attr)}: {err}") from None
    base = _CHECKED_BUILDS["planner"](cfg)
    for value in cfg.ablate_values:
        try:
            dataclasses.replace(base, **ablate_axis_field(cfg, value))
        except (ConfigError, ValueError) as err:
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
        for key, (attr, _, _) in keys.items():
            lines.append(f"{key} = {_format_value(cfg, attr)}")
        lines.append("")
    return "\n".join(lines)
