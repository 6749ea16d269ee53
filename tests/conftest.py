import sys
from pathlib import Path

import pytest

# make the oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))

from cqi_sim import postulates  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_region_spectra():
    """No cached region spectrum passes from one test to the next."""
    postulates._region_spectrum.cache_clear()
    yield
    postulates._region_spectrum.cache_clear()
