"""The one text snapshot codec for trained models.

Snapshots are line-oriented ``key=value`` text with a versioned first
line, for example::

    demandcast-snapshot v2 kind=mlp

Each model lists its fields in order and hands them to ``dump``; extra
caller metadata follows as ``extra.<key>=<value>`` lines in insertion
order. ``load`` checks the header and splits the extras back off.
Floats are printed with 17 significant digits, which is enough to
reconstruct an IEEE double exactly, so parse followed by serialize is
byte-identical. Arrays are space-separated in row-major order, integer
arrays as exact integers.

Format 2 holds a whole array on one line: an EFuNN snapshot writes
``nodes.w1`` (nodes x input degrees values), ``nodes.w2``,
``nodes.age``, ``nodes.a1av`` and ``nodes.absorbed``, then one ``w3``
line of ``prev:curr:weight`` triples, one per nonzero temporal link.
Format 1, which held an EFuNN's arrays a node per line, is refused: a
model saved in it is retrained with ``demandcast train``.

A key may hold neither ``=`` nor a line break and a value no line
break, since either would read back as something else; ``dump`` and
``write`` refuse them.

``write`` streams the text, an array a chunk of values at a time, into
a temp file in the same directory and then ``os.replace``s the snapshot
file, so an interrupted write leaves the previous file intact. ``load``
and ``read`` share one reader over lines; ``read`` feeds it a file a line
at a time, so the file's text is never held whole, and prefixes every
error raised while decoding with the file's path.
"""

import contextlib
import os
import re
from pathlib import Path
from typing import Optional

import numpy as np

from .config import scalar_fields
from .errors import DataError, DemandcastError, ParseError

FORMAT_VERSION = 2
# values of an array formatted at a time when writing
_CHUNK = 16384
_PREFIX = "demandcast-snapshot"
_EXTRA = "extra."
# every character str.splitlines, and so the reader, splits a line at
_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def format_float(x) -> str:
    return "%.17g" % float(x)


def format_array(a) -> str:
    """Row-major space-separated rendering of an array (may be empty);
    integer arrays print exactly, floats as ``format_float``.

    Each distinct bit pattern is formatted once, so long runs of one
    value cost a lookup per entry.
    """
    a = np.asarray(a)
    if a.dtype.kind in "iu":
        return " ".join(map(str, a.ravel().tolist()))
    flat = np.ascontiguousarray(a, dtype=float).ravel()
    bits = flat.view(np.uint64)
    bits, where = np.unique(bits, return_inverse=True)
    texts = np.array([format_float(v) for v in bits.view(np.float64)],
                     dtype=object)
    return " ".join(texts[where])


def parse_array(text: str) -> np.ndarray:
    """The floats of space-separated text; accepts what ``float`` accepts.

    numpy parses the text without a token list. It also reads
    ``nan(chars)``, which ``float`` refuses, and refuses ``1_000`` and
    non-ASCII digits, which ``float`` reads; those go token by token.
    """
    if not text.strip():  # numpy reads blank text as [-1.0]
        return np.empty(0)
    if "(" not in text:
        try:
            return np.fromstring(text, dtype=float, sep=" ")
        except ValueError:
            pass
    try:
        return np.array([float(t) for t in text.split()])
    except ValueError as exc:
        raise ParseError(f"bad number in snapshot array: {exc}") from None


def parse_finite(text: str) -> np.ndarray:
    """``parse_array`` of a model parameter, which must be finite: a nan
    or inf parameter loads, but every answer computed from it is wrong."""
    return _require_finite(parse_array(text))


def finite_float(text: str) -> float:
    """``float`` of a model parameter, which must be finite."""
    return _require_finite(float(text))


def _require_finite(values):
    if not np.isfinite(values).all():
        raise ParseError("holds a non-finite value")
    return values


def parse_ints(text: str) -> list:
    """The integers of space-separated text, as Python ints."""
    try:
        return [int(t) for t in text.split()]
    except ValueError as exc:
        raise ParseError(f"bad integer in snapshot array: {exc}") from None


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
    """Validate the header line and return the kind."""
    parts = line.strip().split()
    if len(parts) != 3 or parts[0] != _PREFIX:
        raise ParseError(f"not a model snapshot: {line.strip()!r}")
    if parts[1] != f"v{FORMAT_VERSION}":
        raise ParseError(f"snapshot format {parts[1]!r} is not read, only "
                         f"'v{FORMAT_VERSION}': retrain the model with "
                         "'demandcast train'")
    if not parts[2].startswith("kind="):
        raise ParseError(f"snapshot header missing kind: {line.strip()!r}")
    return parts[2][len("kind=") :]


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


def _pieces(kind: str, fields: dict, extra: Optional[dict] = None):
    """The text of ``dump`` in pieces; arrays are formatted ``_CHUNK``
    values at a time, so a long array line is never held whole."""
    yield header_line(kind) + "\n"
    for key, value in fields.items():
        if isinstance(value, str):
            yield _line(key, value) + "\n"
        elif isinstance(value, np.ndarray):
            flat = value.ravel()
            yield f"{key}="
            for start in range(0, flat.size, _CHUNK):
                if start:
                    yield " "
                yield format_array(flat[start : start + _CHUNK])
            yield "\n"
        else:  # numbers and arrays format to neither '=' nor line breaks
            yield f"{key}={format_value(value)}\n"
    for key, value in (extra or {}).items():
        yield _line(f"{_EXTRA}{key}", str(value)) + "\n"


def dump(kind: str, fields: dict, extra: Optional[dict] = None) -> str:
    """Header, then the ordered fields (see format_value), then extras."""
    return "".join(_pieces(kind, fields, extra))


def _decoded(lines, kind: str):
    """(fields, extra) raw dicts, in order, of the lines of a snapshot
    whose header names ``kind``; blank lines are skipped."""
    lines = iter(lines)
    got = parse_header(next(lines, ""))
    if got != kind:
        raise ParseError(f"expected an {kind} snapshot, got kind={got!r}")
    body = {}
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError(f"snapshot line {lineno} has no '=': {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in body:
            raise ParseError(f"duplicate snapshot key {key!r}")
        body[key] = value
    extras = [key for key in body if key.startswith(_EXTRA)]
    return body, {key[len(_EXTRA) :]: body.pop(key) for key in extras}


def load(text: str, kind: str):
    """Check the header names ``kind``; return (fields, extra) raw dicts."""
    return _decoded(text.splitlines(), kind)


def write(path, kind: str, fields: dict, extra: Optional[dict] = None) -> None:
    """Replace ``path`` with ``dump(kind, fields, extra)``, streamed in
    pieces; a failed write leaves the old file untouched."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(_pieces(kind, fields, extra))
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
        return decode(*_decoded(_file_lines(fh), kind))
