import pytest
from hypothesis import settings

from lattice_spectra.dispersion import DiscreteLaplacian

# every property test replays the same examples, with no per-example deadline
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def lap():
    return DiscreteLaplacian()
