import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pstransport


def test_import_does_not_load_scipy_optimize():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(pstransport.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, pstransport; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_traced_names_exist():
    """Every callable the benchmark's tracer wraps exists where it looks for it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, short, owner, attr, _ in spans.TRACED:
        module = importlib.import_module(f"pstransport.{short}")
        where = vars(getattr(module, owner)) if owner else vars(module)
        where_name = ".".join(filter(None, (short, owner, attr)))
        assert callable(where.get(attr)), f"{name}: pstransport.{where_name} is missing"
