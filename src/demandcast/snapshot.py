"""The one text snapshot codec for trained models.

Snapshots are line-oriented ``key=value`` text with a versioned first
line, for example::

    demandcast-snapshot v1 kind=mlp

Each model lists its fields in order and hands them to ``dump``; extra
caller metadata follows as ``extra.<key>=<value>`` lines in insertion
order. ``load`` checks the header and splits the extras back off.
Floats are printed with 17 significant digits, which is enough to
reconstruct an IEEE double exactly, so parse followed by serialize is
byte-identical. Arrays are space-separated in row-major order.

``write`` replaces a snapshot file atomically (temp file in the same
directory, then ``os.replace``), so an interrupted write leaves the
previous file intact.
"""

import os
from pathlib import Path
from typing import Optional

import numpy as np

from .config import scalar_fields
from .errors import DataError, ParseError

FORMAT_VERSION = 1
_PREFIX = "demandcast-snapshot"
_EXTRA = "extra."


def format_float(x) -> str:
    return "%.17g" % float(x)


def format_array(a) -> str:
    """Row-major space-separated rendering of an array (may be empty)."""
    flat = np.asarray(a, dtype=float).ravel()
    return " ".join(format_float(v) for v in flat)


def parse_array(text: str) -> np.ndarray:
    if not text.strip():
        return np.empty(0)
    try:
        return np.array([float(t) for t in text.split()])
    except ValueError as exc:
        raise ParseError(f"bad number in snapshot array: {exc}") from None


def format_value(value) -> str:
    """Field text: str as is, ints exactly, floats to 17 digits, arrays."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return format_array(value)


def header_line(kind: str) -> str:
    return f"{_PREFIX} v{FORMAT_VERSION} kind={kind}"


def parse_header(line: str) -> str:
    """Validate the header line and return the snapshot kind."""
    parts = line.strip().split()
    if len(parts) != 3 or parts[0] != _PREFIX:
        raise ParseError(f"not a model snapshot: {line.strip()!r}")
    if parts[1] != f"v{FORMAT_VERSION}":
        raise ParseError(f"unsupported snapshot version {parts[1]!r}")
    if not parts[2].startswith("kind="):
        raise ParseError(f"snapshot header missing kind: {line.strip()!r}")
    return parts[2][len("kind=") :]


def kind_of(text: str) -> str:
    """Kind named by the header of snapshot text."""
    return parse_header(text.partition("\n")[0])


def parse_body(text: str) -> dict:
    """Parse the key=value lines after the header into an ordered dict."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if lineno == 1 or not line.strip():
            continue
        if "=" not in line:
            raise ParseError(f"snapshot line {lineno} has no '=': {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ParseError(f"duplicate snapshot key {key!r}")
        out[key] = value
    return out


def need(body: dict, key: str, convert=None):
    """Raw value of ``key``, or ``convert(value)`` when given a converter."""
    if key not in body:
        raise ParseError(f"snapshot missing key {key!r}")
    if convert is None:
        return body[key]
    try:
        return convert(body[key])
    except ValueError:
        raise ParseError(f"bad value for snapshot key {key!r}: "
                         f"{body[key]!r}") from None


def config_fields(prefix: str, cfg) -> dict:
    """``prefix.<name>`` fields for the scalar members of a dataclass."""
    return {f"{prefix}.{name}": getattr(cfg, name)
            for name in scalar_fields(type(cfg))}


def config_kwargs(cls, body: dict, prefix: str) -> dict:
    """Typed constructor arguments for ``cls`` from its config_fields."""
    return {name: need(body, f"{prefix}.{name}", convert)
            for name, convert in scalar_fields(cls).items()}


def dump(kind: str, fields: dict, extra: Optional[dict] = None) -> str:
    """Header, then the ordered fields (see format_value), then extras."""
    lines = [header_line(kind)]
    lines.extend(f"{key}={format_value(v)}" for key, v in fields.items())
    lines.extend(f"{_EXTRA}{key}={v}" for key, v in (extra or {}).items())
    return "\n".join(lines) + "\n"


def load(text: str, kind: str):
    """Check the header names ``kind``; return (fields, extra) raw dicts."""
    got = kind_of(text)
    if got != kind:
        raise ParseError(f"expected an {kind} snapshot, got kind={got!r}")
    fields = parse_body(text)
    extras = [key for key in fields if key.startswith(_EXTRA)]
    return fields, {key[len(_EXTRA) :]: fields.pop(key) for key in extras}


def write(path, text: str) -> None:
    """Replace ``path`` with ``text``; a failed write leaves it untouched."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read snapshot {path}: {exc}") from exc
