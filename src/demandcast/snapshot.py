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

A key may hold neither ``=`` nor a line break and a value no line
break, since either would read back as something else; ``dump`` and
``write`` refuse them.

``write`` streams the lines into a temp file in the same directory and
then ``os.replace``s the snapshot file, so an interrupted write leaves
the previous file intact. ``read`` parses a file a line at a time, so
the file's text is never held whole, and prefixes every error raised
while decoding with the file's path.
"""

import contextlib
import os
import re
from pathlib import Path
from typing import Optional

import numpy as np

from .config import scalar_fields
from .errors import DataError, DemandcastError, ParseError

FORMAT_VERSION = 1
_PREFIX = "demandcast-snapshot"
_EXTRA = "extra."
# every character str.splitlines, and so parse_body, splits a line at
_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def format_float(x) -> str:
    return "%.17g" % float(x)


def format_array(a) -> str:
    """Row-major space-separated rendering of an array (may be empty).

    Each distinct bit pattern is formatted once, so long runs of one
    value cost a lookup per entry, and an array of one value (a row of an
    unused ``w3``) is one repeated text.
    """
    flat = np.ascontiguousarray(a, dtype=float).ravel()
    bits = flat.view(np.uint64)
    if bits.size and (bits == bits[0]).all():
        return " ".join([format_float(flat[0])] * flat.size)
    bits, where = np.unique(bits, return_inverse=True)
    texts = np.array([format_float(v) for v in bits.view(np.float64)],
                     dtype=object)
    return " ".join(texts[where])


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


def _body(lines) -> dict:
    """Parse key=value lines (the ones after the header) into an ordered
    dict. Equal values share one string, so the identical rows of an
    unused ``w3`` are held once."""
    out = {}
    values = {}
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError(f"snapshot line {lineno} has no '=': {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ParseError(f"duplicate snapshot key {key!r}")
        out[key] = values.setdefault(value, value)
    return out


def parse_body(text: str) -> dict:
    """Parse the key=value lines after the header into an ordered dict."""
    return _body(text.splitlines()[1:])


def need(body: dict, key: str, convert=None):
    """Raw value of ``key``, or ``convert(value)`` when given a converter."""
    if key not in body:
        raise ParseError(f"snapshot missing key {key!r}")
    if convert is None:
        return body[key]
    try:
        return convert(body[key])
    except ParseError as exc:
        raise ParseError(f"snapshot key {key!r}: {exc}") from None
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


def _line(key: str, text: str) -> str:
    if "=" in key or _LINE_BREAK.search(key) or _LINE_BREAK.search(text):
        raise DataError(f"snapshot key {key!r} cannot be written: a key may "
                        "hold no '=' or line break, a value no line break")
    return f"{key}={text}"


def _lines(kind: str, fields: dict, extra: Optional[dict] = None):
    """The lines of ``dump``, one at a time."""
    yield header_line(kind)
    for key, value in fields.items():
        if isinstance(value, str):
            yield _line(key, value)
        else:  # numbers and arrays format to neither '=' nor line breaks
            yield f"{key}={format_value(value)}"
    for key, value in (extra or {}).items():
        yield _line(f"{_EXTRA}{key}", str(value))


def dump(kind: str, fields: dict, extra: Optional[dict] = None) -> str:
    """Header, then the ordered fields (see format_value), then extras."""
    return "".join(line + "\n" for line in _lines(kind, fields, extra))


def _check_kind(header: str, kind: str) -> None:
    got = parse_header(header)
    if got != kind:
        raise ParseError(f"expected an {kind} snapshot, got kind={got!r}")


def _split_extra(fields: dict):
    extras = [key for key in fields if key.startswith(_EXTRA)]
    return fields, {key[len(_EXTRA) :]: fields.pop(key) for key in extras}


def load(text: str, kind: str):
    """Check the header names ``kind``; return (fields, extra) raw dicts."""
    _check_kind(text.partition("\n")[0], kind)
    return _split_extra(parse_body(text))


def write(path, kind: str, fields: dict, extra: Optional[dict] = None) -> None:
    """Replace ``path`` with ``dump(kind, fields, extra)``, streamed line
    by line; a failed write leaves the old file untouched."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in _lines(kind, fields, extra))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def _open(path):
    """The snapshot file at ``path`` open for reading; any error raised
    while it is read is raised again with the path in front."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read snapshot {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except DemandcastError as exc:
            raise type(exc)(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not a snapshot, the file is not "
                             f"UTF-8 text ({exc.reason})") from None


def _file_lines(fh):
    # the lines text.splitlines() would give, without the whole text
    for line in fh:
        yield from line.splitlines()


def read_kind(path) -> str:
    """Kind named by the header of the snapshot file at ``path``."""
    with _open(path) as fh:
        return parse_header(fh.readline())


def read(path, kind: str, decode):
    """``decode(fields, extra)`` of the ``kind`` snapshot file at ``path``
    (see ``load``), parsed a line at a time."""
    with _open(path) as fh:
        _check_kind(fh.readline(), kind)
        return decode(*_split_extra(_body(_file_lines(fh))))
