"""Import path and hypothesis profiles for the test suite.

``src/`` goes first on ``sys.path`` and on the ``PYTHONPATH`` that the
subprocess tests inherit, so ``python3 -m pytest`` tests this checkout with
nothing installed and no environment set.

``deterministic`` (the default) derives every property test's examples from
the test itself, so each run checks the same inputs and a failure repeats.
``randomized`` draws fresh examples on every run, to explore beyond them:

    python -m pytest --hypothesis-profile=randomized
"""

import os
import sys
from pathlib import Path

from hypothesis import settings

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("deterministic", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("deterministic")
