"""The benchmark's per-layer tracer (``perfbench/tracer.py``) replaces
module globals by name.  A refactor that drops or renames one of them
breaks ``perfbench/run.py --trace 1`` and ``perfbench/selftest.py``
without failing any other test; this test reads the tracer's own table
and checks every name it patches."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_exists_in_its_module():
    patches = runpy.run_path(str(TRACER))["PATCHES"]
    assert patches
    missing = [f"{name}.{attr}" for name, attr, _ in patches
               if not hasattr(importlib.import_module(name), attr)]
    assert missing == []
