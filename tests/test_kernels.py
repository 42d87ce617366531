"""tools/kernels.py at its smallest size, one repeat."""

import importlib.util
import json
from pathlib import Path

import numpy as np

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "kernels.py"


def _kernels():
    spec = importlib.util.spec_from_file_location("kernels", _SCRIPT)
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    return kernels


def test_kernel_script_writes_times_and_flops_per_size(tmp_path, capsys,
                                                        monkeypatch):
    kernels = _kernels()
    monkeypatch.setattr(kernels, "EXAMPLES", (117,))
    monkeypatch.setattr(kernels, "REPEATS", 1)
    out = tmp_path / "BENCH.json"
    assert kernels.main(["--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["numpy"] == np.__version__ and result["openblas_core"]
    assert result["repeats"] == 1
    [row] = result["efunn"]
    assert row["examples"] == 117 and row["nodes"] == 100
    for kernel in ("learn", "predict_block", "predict_train"):
        assert row[f"{kernel}_s"] > 0 and row[f"{kernel}_flops"] > 0
    assert f"wrote {out}" in capsys.readouterr().out
