"""Every command's output bytes at seed 0, against tests/data/digests.txt.

The commands run in-process through ``cli.main`` in a fresh directory:
``synth --days 60``; ``train`` of each model (the MLPs at ``--epochs
50``); ``forecast`` from each snapshot; ``rules``; and ``bench --days 60
--epochs 200``. Each written file and each command's standard output
has one SHA-256 line in the file.

MLP and ARIMA bits depend on the OpenBLAS kernel numpy picks for the
CPU, so the file records the numpy version and OpenBLAS core it was
made with, and a mismatch prints both beside this run's. A change that
moves bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_digests.py

and names each moved digest and its cause.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from demandcast.cli import main

DIGESTS = Path(__file__).parent / "data" / "digests.txt"
_KERNELS = Path(__file__).resolve().parent.parent / "tools" / "kernels.py"
MODELS = ("efunn", "mlp-bp", "mlp-scg", "arima")
REPORT = ("report.csv", "forecast.csv", "convergence.csv", "forecast.svg")


def _commands():
    """(label, argv, files written) of every command, in run order."""
    yield "synth", ["synth", "--days", "60", "--out", "demand.csv"], [
        "demand.csv"]
    for m in MODELS:
        epochs = ["--epochs", "50"] if m.startswith("mlp") else []
        yield f"train-{m}", ["train", "--model", m, "--data", "demand.csv",
                             "--out", f"{m}.snap", *epochs], [f"{m}.snap"]
    for m in MODELS:
        yield f"forecast-{m}", ["forecast", "--snapshot", f"{m}.snap",
                                "--data", "demand.csv",
                                "--out", f"forecast-{m}.csv"], [
            f"forecast-{m}.csv"]
    yield "rules", ["rules", "--snapshot", "efunn.snap"], []
    yield "bench", ["bench", "--days", "60", "--epochs", "200",
                    "--out", "bench"], [f"bench/{name}" for name in REPORT]


def run_commands() -> dict:
    """SHA-256 of every output, by name, made in the current directory."""
    digests = {}
    for label, argv, files in _commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, f"{' '.join(argv)} exited {code}"
        digests[f"{label}.stdout"] = hashlib.sha256(
            out.getvalue().encode()).hexdigest()
        for name in files:
            digests[name] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
    return digests


def _platform() -> str:
    # the OpenBLAS core lookup lives once, in tools/kernels.py
    spec = importlib.util.spec_from_file_location("kernels", _KERNELS)
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    return f"numpy {np.__version__}, OpenBLAS core {kernels.blas_core()}"


def _lines(digests: dict) -> list:
    return [f"# {_platform()}"] + [f"{d}  {name}"
                                   for name, d in digests.items()]


def test_outputs_match_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_commands()
    text = DIGESTS.read_text().splitlines()
    recorded = text[0].removeprefix("# ")
    want = dict(reversed(line.split("  ", 1)) for line in text[1:])
    differ = [name for name in {**want, **got}
              if want.get(name) != got.get(name)]
    assert not differ, (
        f"{len(differ)} outputs differ from {DIGESTS.name}: "
        f"{', '.join(differ)}\nrecorded with {recorded}; this run has "
        f"{_platform()}\nreplacement lines:\n" + "\n".join(_lines(got)))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        here = Path.cwd()
        os.chdir(scratch)
        try:
            lines = _lines(run_commands())
        finally:
            os.chdir(here)
    DIGESTS.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} digests to {DIGESTS}", file=sys.stderr)
