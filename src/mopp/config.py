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


_LIBRARY_CONFIGS = {"adm": AdmConfig, "fqe": FqeConfig, "planner": PlannerConfig}


def _key(section: str, key: str, parse, default=dataclasses.MISSING, field=None, none=None):
    """The RunConfig field that ``[section] key`` sets.

    ``parse`` reads the value and raises ValueError on bad input. ``field``
    names the field the key sets in the section's library config, whose
    default the key takes. The word ``none`` reads and prints as None.
    """
    if default is dataclasses.MISSING:
        default = getattr(_LIBRARY_CONFIGS[section], field)
    meta = {"section": section, "key": key, "parse": parse, "field": field, "none": none}
    return dataclasses.field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Every knob of the pipeline, each set by one ``[section] key``."""

    env: str = _key("run", "env", str, "pointmass")
    v_cap: Optional[float] = _key("run", "v_cap", float, None, none="")  # constrained-env cap override
    dataset: str = _key("run", "dataset", str, "dataset.ds")
    dynamics_dir: str = _key("run", "dynamics_dir", str, "dynamics")
    behavior_dir: str = _key("run", "behavior_dir", str, "behavior")
    q_dir: str = _key("run", "q_dir", str, "q")
    seeds: tuple = _key("run", "seeds", lambda t: _parse_int_list(t, _parse_seed), (0, 1, 2, 3, 4))
    episodes: int = _key("run", "episodes", int, 20)
    data_policy: str = _key("data", "policy", str, "medium")
    data_episodes: int = _key("data", "episodes", int, 100)
    data_seed: int = _key("data", "seed", _parse_seed, 0)
    # k1 and k2 set AdmConfig.members of the dynamics and behavior ensembles
    k1: int = _key("adm", "k1", int, AdmConfig.members)
    k2: int = _key("adm", "k2", int, AdmConfig.members)
    adm_steps: int = _key("adm", "steps", int, field="steps")
    adm_batch: int = _key("adm", "batch", int, field="batch_size")
    adm_lr: float = _key("adm", "lr", float, field="learning_rate")
    adm_embed: int = _key("adm", "embed", int, field="embed_width")
    adm_head_hidden: tuple = _key("adm", "head_hidden", _parse_int_list, field="head_hidden")
    adm_activation: str = _key("adm", "activation", str, field="activation")
    dynamics_seed: int = _key("adm", "dynamics_seed", _parse_seed, 1)
    behavior_seed: int = _key("adm", "behavior_seed", _parse_seed, 2)
    fqe_gamma: float = _key("fqe", "gamma", float, field="gamma")
    fqe_iterations: int = _key("fqe", "iterations", int, field="iterations")
    fqe_steps: int = _key("fqe", "steps", int, field="steps_per_iteration")
    fqe_batch: int = _key("fqe", "batch", int, field="batch_size")
    fqe_lr: float = _key("fqe", "lr", float, field="learning_rate")
    fqe_hidden: tuple = _key("fqe", "hidden", _parse_int_list, field="hidden")
    fqe_seed: int = _key("fqe", "seed", _parse_seed, 3)
    horizon: int = _key("planner", "h", int, field="horizon")
    kappa: float = _key("planner", "kappa", float, field="kappa")
    beta: float = _key("planner", "beta", float, field="beta")
    # None -> percentile rule on the dataset
    threshold: Optional[float] = _key("planner", "l", float, None, field="uncertainty_threshold", none="auto")
    sigma_m: float = _key("planner", "sigma_m", float, field="sigma_scale")
    n_rollouts: int = _key("planner", "n", int, field="n_rollouts")
    n_min: Optional[int] = _key("planner", "n_min", int, field="n_min", none="auto")  # None -> floor(0.2 N)
    candidates: int = _key("planner", "m", int, field="candidates")
    k_q: int = _key("planner", "k_q", int, field="value_samples")
    use_max_q: bool = _key("planner", "use_max_q", _parse_bool, field="use_max_q")
    use_pruning: bool = _key("planner", "use_pruning", _parse_bool, field="use_pruning")
    use_value: bool = _key("planner", "use_value", _parse_bool, field="use_value")
    constraint: str = _key("constraint", "mode", str, "none")
    alpha_r: float = _key("constraint", "alpha_r", float, 0.4)
    alpha_c: float = _key("constraint", "alpha_c", float, 0.5)
    constraint_weight: float = _key("constraint", "weight", float, 100.0)
    ablate_axis: str = _key("ablate", "axis", str, "sigma_m")
    ablate_values: tuple = _key("ablate", "values", lambda t: tuple(float(v) for v in t.split(",")), (0.01, 0.5, 1.0))
    ablate_variants: tuple = _key(
        "ablate", "variants", lambda t: tuple(v.strip() for v in t.split(",")), ("full", "noMQ", "noP")
    )


# [section] -> key -> the RunConfig field it sets, in declaration order
_SCHEMA = {}
for _f in dataclasses.fields(RunConfig):
    _SCHEMA.setdefault(_f.metadata["section"], {})[_f.metadata["key"]] = _f
del _f


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
            f = _SCHEMA[section][key]
            try:
                value = None if raw.strip().lower() == f.metadata["none"] else f.metadata["parse"](raw)
                setattr(cfg, f.name, value)
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
        name = getattr(cfg, _SCHEMA[section][key].name)
        if name not in table:
            raise ConfigError(f"[{section}] {key} = {name}: unknown; options: {sorted(table)}")
    # the env and the hooks, built as the commands build them; what they reject names its key
    try:
        envs.make_env(cfg.env, v_cap=cfg.v_cap)
    except ConfigError as err:
        raise ConfigError(f"[run] {err}") from None
    if not cfg.seeds:
        raise ConfigError("need at least one seed")
    for section, key in (("run", "seeds"), ("ablate", "values"), ("ablate", "variants")):
        f = _SCHEMA[section][key]
        values = getattr(cfg, f.name)
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ConfigError(f"[{section}] {key} = {_format_value(cfg, f)}: {v} is listed more than once")
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
    field = _SCHEMA["planner"][cfg.ablate_axis].metadata["field"]
    if kind is int and not axis_value.is_integer():
        raise ValueError("not a whole number")
    return {field: kind(axis_value)}


def _library_config(section: str, cfg: RunConfig, **fields):
    """The library config of ``[section]``: ``fields``, and every other field from the key that sets it."""
    for f in _SCHEMA[section].values():
        if f.metadata["field"] is not None:
            fields.setdefault(f.metadata["field"], getattr(cfg, f.name))
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
        for key, f in _SCHEMA[section].items():
            setattr(trial, f.name, getattr(cfg, f.name))
            try:
                build(trial)
            except ConfigError as err:
                raise ConfigError(f"[{section}] {key} = {_format_value(cfg, f)}: {err}") from None
    base = _CHECKED_BUILDS["planner"](cfg)
    for value in cfg.ablate_values:
        try:
            dataclasses.replace(base, **ablate_axis_field(cfg, value))
        except (ConfigError, ValueError) as err:
            raise ConfigError(
                f"[ablate] values = {_format_value(cfg, _SCHEMA['ablate']['values'])}: "
                f"{cfg.ablate_axis} = {value}: {err}"
            ) from None


def _format_value(cfg: RunConfig, f: dataclasses.Field) -> str:
    """The config-file text of ``cfg``'s value of field ``f``."""
    value = getattr(cfg, f.name)
    if value is None:
        return f.metadata["none"]
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
        for key, f in keys.items():
            lines.append(f"{key} = {_format_value(cfg, f)}")
        lines.append("")
    return "\n".join(lines)
