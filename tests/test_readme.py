"""The README's python examples run as written."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_python_blocks_run(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for block in blocks:
        done = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, f"{block}\n{done.stderr}"
