"""Start-up cost: importing germforge loads only the standard library.

numpy, the package's one third-party dependency, is imported where float
divisor roots are found and nowhere else, so that the CLI, verify-paper and
the benchmark's start-up do not pay for it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import germforge
for info in pkgutil.iter_modules(germforge.__path__):
    importlib.import_module("germforge." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
third_party = sorted(loaded - set(sys.stdlib_module_names) - {"germforge"})
numpy_at_import = "numpy" in sys.modules

from germforge.blowup import blowup_vf, divisor_singularities
from germforge.parser import parse_vector_field
field = parse_vector_field("[x^2, -y*(x-2*y)]", "float", float("inf"))
points = [s.point for s in divisor_singularities(blowup_vf(field, 0))]
print(json.dumps({
    "modules": sorted(info.name for info in pkgutil.iter_modules(germforge.__path__)),
    "third_party": third_party,
    "numpy_at_import": numpy_at_import,
    "numpy_after_roots": "numpy" in sys.modules,
    "points": [[p.real, p.imag] for p in points],
}))
"""


def test_import_loads_only_the_standard_library_and_numpy_on_demand():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert "cli" in out["modules"] and "blowup" in out["modules"]
    assert out["third_party"] == []
    assert not out["numpy_at_import"]
    # a float divisor-root search loads numpy and finds t = 0 and t = 1
    assert out["numpy_after_roots"]
    roots = sorted((complex(*p) for p in out["points"]), key=abs)
    assert len(roots) == 2
    assert all(abs(r - want) <= 1e-12 for r, want in zip(roots, (0, 1)))
