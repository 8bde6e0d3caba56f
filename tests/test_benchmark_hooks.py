"""The benchmark in ``perfbench/`` reaches into compsearch by name: its
tracer wraps a table of functions and methods, and the sweep workload
wraps ``refutation.simulate``.  A rename or deletion in the package would
break the benchmark without failing any other test, so this runs the
tracer's install step against the package as it stands.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracer
from compsearch import refutation
tracer.install(tracer.Tracer(0))
assert refutation.simulate.__name__ == "traced", refutation.simulate
"""


def test_tracer_installs_on_every_name_it_wraps():
    # A subprocess, since install rebinds names in every compsearch module.
    code = INSTALL.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
