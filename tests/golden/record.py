"""Golden run outputs for `tests/test_golden.py`, and the script that re-records them.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden/record.py

`produce(out)` writes two sets of CSVs under `out`:
- `sweep/`: `teon sweep` over the shipped `configs/*.ini` (`summary.csv`, which
  pins each `config_hash`, and every run's `metrics.csv` and `alignment.csv`);
- `mode2/`: the `mode2_teon.ini` run beside this file.

Recording replaces both sets here and writes `context.json`, the build they
were made on (`context()`). Re-record only when a change alters the bytes on
purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from teon.config import parse_config
from teon.runner import run, sweep

GOLDEN = Path(__file__).resolve().parent
CONFIGS = GOLDEN.parents[1] / "configs"
SETS = ("sweep", "mode2")


def context() -> dict:
    """What decides the bytes besides the code: NumPy, its BLAS, the CPU
    features NumPy found (OpenBLAS picks its kernels by CPU unless
    `OPENBLAS_CORETYPE` names one) and the BLAS thread count."""
    info = np.show_config(mode="dicts")
    blas = info["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "cpu_features": info["SIMD Extensions"]["found"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
    }


def produce(out: Path) -> None:
    sweep([parse_config(p) for p in sorted(CONFIGS.glob("*.ini"))], out / "sweep")
    run(replace(parse_config(GOLDEN / "mode2_teon.ini"), out_path=str(out / "mode2")))


def csv_files(root: Path) -> list[Path]:
    """Every CSV under the golden sets of `root`, relative to it, sorted."""
    return sorted(p.relative_to(root) for name in SETS for p in (root / name).rglob("*.csv"))


def main() -> None:
    for name in SETS:
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
    produce(GOLDEN)
    (GOLDEN / "context.json").write_text(json.dumps(context(), indent=1) + "\n", "utf-8")
    print(f"golden.files={len(csv_files(GOLDEN))}")


if __name__ == "__main__":
    main()
