"""The one reader for ``key=value`` settings files.

Every ``--config`` file and ``SynthConfig.from_file`` goes through
``read_config``: UTF-8 text, one ``key=value`` per line, blank lines
and ``#`` comments skipped, whitespace around keys and values dropped.
Each key must be one the caller allows and may appear once; its value
is converted by the caller's converter for that key. Every error names
the file, and an error in a line names ``file:line``.
"""

import math
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError, ParseError


def finite_float(text: str) -> float:
    """``float`` of a setting or model parameter, which must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def scalar_fields(cls) -> dict:
    """Converter per int/float/str field of a settings dataclass; floats
    must be finite."""
    return {f.name: finite_float if f.type is float else f.type
            for f in fields(cls) if f.type in (int, float, str)}


def read_config(path, schema: dict, context: str) -> dict:
    """Typed settings from ``path``; ``schema`` maps each allowed key to a
    converter that raises ValueError on text that does not fit."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ParseError(f"{where}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in schema:
            raise ConfigError(f"{where}: unknown {context} key {key!r}; "
                              f"allowed: {sorted(schema)}")
        if key in out:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        try:
            out[key] = schema[key](value)
        except ValueError as exc:
            raise ParseError(f"{where}: bad value {value!r} for {key!r}: "
                             f"{exc}") from None
    return out
