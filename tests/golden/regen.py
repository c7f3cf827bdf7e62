"""Golden experiment outputs: the fixed grids and the script that writes them.

Each grid runs ``run_experiment`` on the 300-point synthetic data set
(``write_synthetic_csv(n=300, seed=7)``) with k in {4, 8}, delta in
{0.1, 0.2} and seed 7, once per p in {1, 2, inf}. Its ``cells.csv`` and
``clusters.csv`` are stored under ``tests/golden/<grid>/``, and the numpy and
scipy versions that produced them in ``tests/golden/versions.json``.
``tests/test_golden.py`` reruns the grids and compares.

Regenerate (only when a change is meant to alter the outputs, or after a
numpy/scipy upgrade) with::

    python tests/golden/regen.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN_DIR.parents[1] / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from faircluster.config import config_from_mapping  # noqa: E402
from faircluster.datasets import write_synthetic_csv  # noqa: E402
from faircluster.experiment import run_experiment  # noqa: E402

GRIDS = {"p1": 1, "p2": 2, "pinf": "inf"}
OUTPUTS = ("cells.csv", "clusters.csv")
VERSIONS_FILE = GOLDEN_DIR / "versions.json"


def library_versions() -> dict[str, str]:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def run_grid(grid: str, workdir: Path) -> dict[str, str]:
    """Run one golden grid in ``workdir``; return each output file's text."""
    workdir = Path(workdir)
    data = write_synthetic_csv(workdir / "data.csv", n=300, seed=7)
    config = config_from_mapping({
        "dataset_path": str(data),
        "coordinate_columns": ["x", "y"],
        "sensitive_attributes": ["sex", "married"],
        "k_values": [4, 8],
        "p": GRIDS[grid],
        "delta_values": [0.1, 0.2],
        "seed": 7,
        "output_dir": str(workdir / "out"),
    })
    summary = run_experiment(config)
    if not summary.all_ok:
        raise RuntimeError(f"golden grid {grid} has failed cells: {summary.statuses}")
    return {name: (workdir / "out" / name).read_text() for name in OUTPUTS}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for grid in GRIDS:
            outputs = run_grid(grid, Path(tmp) / grid)
            (GOLDEN_DIR / grid).mkdir(exist_ok=True)
            for name, text in outputs.items():
                (GOLDEN_DIR / grid / name).write_text(text)
    VERSIONS_FILE.write_text(json.dumps(library_versions(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {', '.join(GRIDS)} and {VERSIONS_FILE.name} under {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
