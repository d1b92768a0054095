"""Benchmark for cuberep: build, verify and probe workloads driven through
the real command line in-process, with an independent output checker and a
traced replica that times each module's public functions.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` (see run.py).
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SourceMissing(RuntimeError):
    """The checkout holds no cuberep sources to benchmark."""


def import_cuberep():
    """Import cuberep, with its cli module, from this checkout's src/ and
    never from elsewhere."""
    package = SRC / "cuberep"
    if not (package / "__init__.py").is_file():
        raise SourceMissing(f"no cuberep package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("cuberep")
    if Path(module.__file__).resolve().parent != package.resolve():
        raise SourceMissing(f"cuberep imported from {module.__file__}, not {package}")
    importlib.import_module("cuberep.cli")
    return module
