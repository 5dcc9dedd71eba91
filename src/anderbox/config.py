"""Flat key=value run configuration, validation with line-precise errors,
and the reproducibility manifest."""

from __future__ import annotations

from dataclasses import asdict, fields
import datetime
import json

from . import __version__
from .errors import ContractError
from .experiments import ExperimentConfig

_TUPLE_KEYS = {"L_ladder", "eps_ladder"}


def _parse_value(key: str, raw: str, lineno: int, path: str):
    raw = raw.strip()
    try:
        if key in _TUPLE_KEYS:
            return tuple(float(x) for x in raw.replace(",", " ").split())
        tmpl = ExperimentConfig()
        cur = getattr(tmpl, key)
        if isinstance(cur, int):
            return int(raw)
        if isinstance(cur, float):
            return float(raw)
        if raw in ("None", "none", ""):
            return None
        return raw
    except ValueError as exc:
        raise ContractError(f"{path}:{lineno}: cannot parse {key!r} = {raw!r}: {exc}")


def load_config(path: str, overrides=None) -> ExperimentConfig:
    """Read KEY = VALUE lines ('#' comments allowed); apply overrides on top."""
    known = {f.name for f in fields(ExperimentConfig)}
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ContractError(f"{path}:{lineno}: expected KEY = VALUE, got {line.rstrip()!r}")
            key, raw = stripped.split("=", 1)
            key = key.strip()
            if key not in known:
                raise ContractError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, raw, lineno, path)
    cfg = ExperimentConfig(**values)
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def apply_overrides(cfg: ExperimentConfig, pairs) -> ExperimentConfig:
    """pairs: iterable of 'key=value' strings."""
    known = {f.name for f in fields(ExperimentConfig)}
    values = asdict(cfg)
    for i, pair in enumerate(pairs):
        if "=" not in pair:
            raise ContractError(f"--set argument {i}: expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ContractError(f"--set argument {i}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, i, "--set")
    return ExperimentConfig(**values)


def print_config(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = " ".join(str(x) for x in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines)


def write_manifest(path, cfg: ExperimentConfig, outputs, extra=None) -> None:
    manifest = {
        "version": __version__,
        "config": asdict(cfg),
        "seed_base": cfg.seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": list(outputs),
    }
    if extra:
        manifest["summary"] = extra
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    import numpy as np

    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)
