"""Span recorder that wraps demandcast's public functions from outside.

``Tracer.install()`` swaps module and class attributes for wrappers;
each call records a span (name, start, end, parent span, shared run id,
optional attributes) in memory. ``Tracer.uninstall()`` puts every
original back. Nothing inside ``src/`` is edited: the wrappers sit on
the boundaries between the layers, as seen from the caller.

Self time of a span is its duration minus the time its child spans
cover. ``layer_metrics`` turns the span list into the per-layer numbers
the benchmark reports.
"""

import functools
import json
import os
import time
import uuid
from pathlib import Path


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "attrs", "child_s")

    def __init__(self, sid, name, start, parent):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def as_dict(self, run_id):
        return {"run": run_id, "id": self.sid, "name": self.name,
                "start": self.start, "end": self.end, "parent": self.parent,
                **self.attrs}


def _learn_attrs(span, args, kwargs, result):
    span.attrs["model"] = id(args[0])
    span.attrs["created"] = bool(result.created_node)
    span.attrs["nodes"] = int(result.nodes_total)


def _fit_attrs(span, args, kwargs, result):
    span.attrs["iterations"] = int(result.iterations)


def _scg_attrs(span, args, kwargs, result):
    span.attrs["epochs"] = len(result)
    span.attrs["fell"] = sum(b < a for a, b in zip(result, result[1:]))


def _report_attrs(span, args, kwargs, result):
    span.attrs["bytes"] = sum(os.path.getsize(p) for p in result)


def _save_attrs(span, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    span.attrs["bytes"] = os.path.getsize(path)


def _cli_attrs(span, args, kwargs, result):
    argv = list(args[0])
    span.attrs["argv"] = argv
    span.attrs["rc"] = result


def _targets():
    """(owner, attribute, span name, attribute recorder) for every wrap."""
    from demandcast import arima, bench, cli, dataset, efunn, mlp

    model = efunn.EfunnModel
    return [
        (dataset, "synthesize", "dataset.synthesize", None),
        (dataset, "parse_csv", "dataset.parse_csv", None),
        (dataset, "encode_features", "dataset.encode", None),
        (dataset, "fit_norm", "dataset.encode", None),
        (dataset, "apply_norm", "dataset.encode", None),
        # efunn imported fuzzify_vector by name; wrap it where efunn calls it
        (efunn, "fuzzify_vector", "fuzzy.fuzzify_vector", None),
        (model, "learn_one", "efunn.learn_one", _learn_attrs),
        (model, "predict", "efunn.predict", None),
        (model, "extract_rules", "efunn.extract_rules", None),
        (model, "save", "snapshot.write.efunn", _save_attrs),
        (model, "from_text", "snapshot.read.efunn", None),
        (model, "load", "snapshot.read.efunn", None),
        (mlp, "gradient", "mlp.gradient", None),
        (mlp, "bp_train", "mlp.bp_train", None),
        (mlp, "scg_train", "mlp.scg_train", _scg_attrs),
        (mlp, "forward", "mlp.forward", None),
        (mlp, "save", "snapshot.write.mlp", _save_attrs),
        (mlp, "from_text", "snapshot.read.mlp", None),
        (mlp, "load", "snapshot.read.mlp", None),
        (arima, "fit", "arima.fit", _fit_attrs),
        (arima, "forecast", "arima.forecast", None),
        (arima, "save", "snapshot.write.arima", _save_attrs),
        (arima, "from_text", "snapshot.read.arima", None),
        (arima, "load", "snapshot.read.arima", None),
        (bench, "run_experiment", "bench.run_experiment", None),
        (bench, "emit_report", "bench.emit_report", _report_attrs),
        (cli, "main", "cli", _cli_attrs),
    ]


class Tracer:
    """Records spans while installed; single-threaded callers only."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, recorder):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name,
                        time.perf_counter(), parent.sid if parent else None)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if recorder is not None:
                recorder(span, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, name, recorder in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, recorder))
            else:
                wrapped = self._wrap(raw, name, recorder)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path):
        """Spans as JSON lines, written once at the end of a run."""
        lines = [json.dumps(s.as_dict(self.run_id)) for s in self.spans]
        Path(path).write_text("\n".join(lines) + "\n")


def per_span_cost(n=20000):
    """Seconds a wrapper adds to one call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap(noop, "noop", None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max(0.0, (time.perf_counter() - t0 - bare) / n)


def _ancestor_names(spans, span):
    names = set()
    while span.parent is not None:
        span = spans[span.parent]
        names.add(span.name)
    return names


def _under(spans, span, pred):
    while span.parent is not None:
        span = spans[span.parent]
        if pred(span):
            return True
    return False


def layer_metrics(spans):
    """Inclusive time, self time and call count for every span name.

    Inclusive time counts only the outermost span of a name, so a load
    that calls from_text is not counted twice.
    """
    out = {}
    for span in spans:
        m = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        m["calls"] += 1
        m["self_s"] += span.self_s
        if span.name not in _ancestor_names(spans, span):
            m["s"] += span.duration
    return out


def cli_command(span):
    argv = span.attrs.get("argv") or [""]
    return argv[0]


def cli_model(span):
    argv = span.attrs.get("argv") or []
    return argv[argv.index("--model") + 1] if "--model" in argv else None


def time_under(spans, names, pred):
    """Inclusive seconds of spans named in ``names`` below a matching span."""
    total = 0.0
    for span in spans:
        if span.name in names and _under(spans, span, pred):
            if not (_ancestor_names(spans, span) & set(names)):
                total += span.duration
    return total
