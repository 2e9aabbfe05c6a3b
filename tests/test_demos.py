"""The scripts in demos/ run to the end and print their walkthroughs."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def test_three_demos():
    assert DEMOS == ["cone_walkthrough.py", "double_poset_tour.py",
                     "graph_coloring_pipeline.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
