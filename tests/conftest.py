# quditcorr first: importing it before NumPy pins BLAS to one thread, so
# the in-process tests run the configuration the CLI runs.
import quditcorr  # noqa: F401

import numpy as np
import pytest


@pytest.fixture
def restore_global_random_state():
    saved = np.random.get_state()
    yield
    np.random.set_state(saved)
