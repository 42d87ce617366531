"""numpy is the only dependency: no command, protocol run or ARIMA
diagnostic loads scipy, and none loads ``concurrent`` or
``multiprocessing``.

Importing ``scipy.stats`` costs most of a second and about 70 MB, more
than the rest of a command's set-up; the tests use it only as a
reference. The protocol's fits run in children made with ``os.fork``,
which need neither ``concurrent.futures`` nor ``multiprocessing``: those
add imports, and a pool starts threads in the calling process.

And the package holds no code that only tests reach.
"""

import ast
import collections
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import demandcast

_SCRIPT = """
import os, sys
from pathlib import Path

import demandcast, demandcast.cli
assert not [m for m in sys.modules
            if m.split(".")[0] in ("concurrent", "multiprocessing")]
from demandcast import arima, bench
from demandcast.cli import main

d = Path(sys.argv[1])
data = str(d / "demand.csv")
assert main(["synth", "--days", "40", "--seed", "3", "--out", data]) == 0
for model in ("efunn", "mlp-bp", "mlp-scg", "arima"):
    snap = str(d / f"{model}.snap")
    assert main(["train", "--model", model, "--data", data, "--out", snap,
                 "--epochs", "2"]) == 0
    assert main(["forecast", "--snapshot", snap, "--data", data,
                 "--out", str(d / f"{model}.csv")]) == 0
assert main(["rules", "--snapshot", str(d / "efunn.snap"),
             "--out", str(d / "rules.txt")]) == 0
assert main(["bench", "--days", "40", "--epochs", "2",
             "--out", str(d / "report")]) == 0
# the fits ran in child processes, unless they cannot here
assert bench._openblas() is None or bench._workers(2) == min(
    len(os.sched_getaffinity(0)), 2)
series = [float(t % 7 + t % 3) for t in range(300)]
assert 0.0 <= arima.diagnostics(arima.fit(series, arima.ArimaSpec(p=1))).p_value
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "concurrent", "multiprocessing")))
"""


def test_commands_and_protocol_never_import_scipy(tmp_path):
    src = str(Path(demandcast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_REPO = Path(__file__).resolve().parents[1]
# reached only by tests, each for a reason: the check of SCG's curvature
# estimate, and rule-node aggregation, which learning does not call yet
_TEST_ONLY = {"hessian_vector_estimate", "aggregate"}


def _names(tree) -> collections.Counter:
    """Every identifier a tree uses, as a name, an attribute or a string."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.value
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        or (isinstance(node, ast.Constant) and isinstance(node.value, str)))


def _overrides(module, cls: str, name: str) -> bool:
    """Whether method ``name`` of ``cls`` replaces one it inherits, which
    the base class calls."""
    bases = getattr(importlib.import_module(module), cls).__mro__[1:]
    return any(name in vars(base) for base in bases)


def _definitions(tree):
    """(parent, node, name) of every def and class, and of every name a
    module-level assignment binds."""
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield parent, node, node.name
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for name in (n for target in targets for n in ast.walk(target)):
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                yield tree, node, name.id


def test_every_definition_is_used_outside_the_tests():
    files = [*(_REPO / "src").rglob("*.py"), *(_REPO / "demos").glob("*.py"),
             *(_REPO / "perfbench").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in files}
    used = sum((_names(tree) for tree in trees.values()), collections.Counter())
    unused = []
    for path in sorted((_REPO / "src" / "demandcast").glob("*.py")):
        module = f"demandcast.{path.stem}"
        for parent, node, name in _definitions(trees[path]):
            if (name.startswith("__") and name.endswith("__")
                    or name in _TEST_ONLY):
                continue
            # uses inside its own definition do not count
            if used[name] > _names(node)[name]:
                continue
            if (isinstance(parent, ast.ClassDef)
                    and _overrides(module, parent.name, name)):
                continue
            unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", _REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_function_the_tracer_wraps_still_exists():
    # perfbench/tracer.py replaces these attributes by name; a rename in
    # src/ would otherwise fail only a traced benchmark run
    tracer = _tracer()
    missing = [f"{owner.__name__}.{attr} ({span})"
               for owner, attr, span, _ in tracer._targets()
               if attr not in owner.__dict__]
    assert missing == []


def test_the_benchmark_workloads_call_every_function_the_tracer_wraps(
        tmp_path):
    # a wrapped function that no workload calls any more leaves its span
    # empty, which fails the traced benchmark run
    from demandcast import bench, cli

    tracer = _tracer()
    t = tracer.Tracer().install()
    try:
        report = bench.run_experiment(bench.ExperimentConfig(
            synth_days=40, epochs=3, n_samples=1))
        bench.emit_report(report, tmp_path / "report")
        data = str(tmp_path / "demand.csv")
        assert cli.main(["synth", "--days", "40", "--out", data]) == 0
        for model in ("efunn", "arima", "mlp-scg", "mlp-bp"):
            assert cli.main(["train", "--model", model, "--data", data,
                             "--out", str(tmp_path / f"{model}.snap"),
                             "--epochs", "3"]) == 0
        for model in ("efunn", "mlp-scg", "arima"):
            assert cli.main(["forecast", "--snapshot",
                             str(tmp_path / f"{model}.snap"), "--data", data,
                             "--out", str(tmp_path / f"{model}.csv")]) == 0
        assert cli.main(["rules", "--snapshot", str(tmp_path / "efunn.snap"),
                         "--out", str(tmp_path / "rules.txt")]) == 0
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t.spans)
    unseen = sorted(name for _, _, name, _ in tracer._targets()
                    if metrics.get(name, {}).get("self_s", 0.0) <= 0.0)
    assert unseen == []
