"""Every demo runs to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", ["01_knowledge_base.py", "02_retrieval.py", "03_neural_kernel.py",
                                  "04_solvers.py", "05_full_pipeline.py"])
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
