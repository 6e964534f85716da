"""Let the interpreters the tests start import the package from src/.

pytest's `pythonpath` setting puts src/ on the test process's sys.path
only; the CLI battery of criterion 10 runs in a child interpreter.
"""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_pythonpath():
    inherited = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (_SRC, inherited))))
        yield
