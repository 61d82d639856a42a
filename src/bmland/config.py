"""Configuration files: JSON documents or ``key = value`` lines whose values
are JSON literals. Validation errors always name the offending field."""

from __future__ import annotations

import json

from .errors import ConfigParseError, ValidationError


def parse_config_text(text: str) -> dict:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigParseError(f"invalid JSON config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigParseError("top-level JSON config must be an object")
        return doc
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigParseError(f"line {lineno}: empty key")
        try:
            cfg[key] = json.loads(value.strip())
        except json.JSONDecodeError as exc:
            raise ConfigParseError(
                f"line {lineno}: value for {key!r} is not a JSON literal: {exc}"
            ) from exc
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


_MISSING = object()


def require(cfg: dict, field: str, kind=None, default=_MISSING):
    """Fetch a config field, with type coercion and a named error on failure."""
    if field not in cfg:
        if default is not _MISSING:
            return default
        raise ValidationError(field, "missing required field")
    value = cfg[field]
    if kind is None:
        return value
    try:
        if kind is int:
            if isinstance(value, bool) or int(value) != value:
                raise ValueError
            return int(value)
        if kind is float:
            return float(value)
        if kind is str:
            if not isinstance(value, str):
                raise ValueError
            return value
        if kind is list:
            if not isinstance(value, list):
                raise ValueError
            return value
        if kind is dict:
            if not isinstance(value, dict):
                raise ValueError
            return value
    except (TypeError, ValueError):
        pass
    raise ValidationError(field, f"expected {kind.__name__}, got {value!r}")
