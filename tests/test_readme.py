"""README guards: the quick start runs, and the public API list names
exactly imvc.__all__."""

import os
import re
import subprocess
import sys
from pathlib import Path

import imvc

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_readme_quick_start_runs(tmp_path):
    (block,) = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    done = subprocess.run(
        [sys.executable, "-c", block],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_public_api_is_all():
    paragraph = re.search(r"^Public API:.*?(?=\n\n)", README, flags=re.S | re.M).group()
    names = re.findall(r"`(\w+)`", paragraph)
    assert sorted(names) == sorted(imvc.__all__)
