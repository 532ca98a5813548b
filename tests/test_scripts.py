"""The scripts under scripts/ still run against the library."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qcolor import datasets, io

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


def test_make_datasets_rebuilds_the_bundled_sets(tmp_path):
    """The rebuilt sets equal the checked-in files, which are left as they are;
    the binary-form copies it writes read as the same sets."""
    spec = importlib.util.spec_from_file_location("make_datasets", SCRIPTS / "make_datasets.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    bundled = {name: (datasets.data_dir() / f"{name}.json").read_bytes()
               for name in datasets.BUNDLED}
    assert script.main([str(tmp_path)]) == 0
    for name, data in bundled.items():
        assert (datasets.data_dir() / f"{name}.json").read_bytes() == data
        (got, tol), (want, _) = (io.read_vector_set(p) for p in (
            tmp_path / f"{name}.json", datasets.data_dir() / f"{name}.json"))
        assert (got.labels, got.vectors.tobytes(), tol) == (
            want.labels, want.vectors.tobytes(), 1e-9)
