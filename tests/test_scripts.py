"""The scripts under scripts/ still run against the library."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qcolor import datasets

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_separation_demo_runs():
    done = subprocess.run([sys.executable, str(SCRIPTS / "separation_demo.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", datasets.BUNDLED)
def test_validate_datasets_reproduces_validation_json(name):
    spec = importlib.util.spec_from_file_location(
        "validate_datasets", SCRIPTS / "validate_datasets.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    frozen = json.loads((datasets.data_dir() / "validation.json").read_text())
    assert script.validate(name) == frozen["sets"][name]
