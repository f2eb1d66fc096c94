"""Where a result came from, and appending it to a trajectory file."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict

import numpy

from workloads import CALIBRATION_COMMIT

HERE = Path(__file__).resolve().parent


def _commit() -> str:
    """HEAD of the checkout, `+dirty` with uncommitted changes outside
    this directory's results; `unknown` outside a git repository."""
    def git(*argv: str) -> str:
        return subprocess.run(["git", *argv], cwd=HERE, text=True,
                              capture_output=True, check=True).stdout.strip()
    try:
        dirty = git("status", "--porcelain", "--", ":/",
                    ":(exclude)benchmarks/e18/results")
        return git("rev-parse", "HEAD") + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def stamp(seed: int) -> Dict[str, Any]:
    return {"commit": _commit(),
            "calibration_commit": CALIBRATION_COMMIT,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "seed": seed}


def append(trajectory: Path, result: Dict[str, Any]) -> None:
    """One more line in *trajectory*; earlier lines are never touched."""
    trajectory.parent.mkdir(parents=True, exist_ok=True)
    with open(trajectory, "a") as f:
        f.write(json.dumps(result, sort_keys=True) + "\n")
