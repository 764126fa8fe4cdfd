import os
import subprocess
import sys

import pstransport


def test_import_does_not_load_scipy_optimize():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(pstransport.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, pstransport; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
