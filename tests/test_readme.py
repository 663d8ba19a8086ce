"""README guards: the quick start runs, the public API list names exactly
imvc.__all__, the example config holds exactly the config's keys, and the CSV
headers are the ones write_results writes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import imvc
import imvc.harness

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


def test_readme_csv_headers_are_written(tmp_path):
    paths = imvc.write_results([], tmp_path, imvc.ExperimentConfig(view_paths=("v.csv",)))
    for name in ("trials", "aggregate"):
        (header,) = re.findall(rf"The header of `{name}.csv`:\n\n```\n(.*)\n```", README)
        assert Path(paths[name]).read_text() == header + "\n"


def test_readme_config_example_holds_every_key_in_its_section():
    (block,) = re.findall(r"```json\n(.*?)```", README, flags=re.S)
    example = json.loads(block)
    sections = {s for s, _, _ in imvc.harness._CONFIG_KEYS.values() if s}
    found = {(None, key) for key in example if key not in sections}
    found |= {(section, key) for section in sections for key in example.get(section, {})}
    table = {(section, key) for key, (section, _, _) in imvc.harness._CONFIG_KEYS.items()}
    assert found == table
