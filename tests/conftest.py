"""Test-suite settings: hypothesis draws the same examples on every run.

``derandomize=True`` seeds each property test from its own source, and
``database=None`` keeps hypothesis from replaying stored failures.  Its
remaining cache (constants scanned from the source) goes to the system
temporary directory, so a test run writes no ``.hypothesis/`` into the
checkout.  Per-test ``max_examples`` settings still apply.
"""
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "mpslearn-hypothesis")
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
