import numpy as np
import pytest


@pytest.fixture
def restore_global_random_state():
    saved = np.random.get_state()
    yield
    np.random.set_state(saved)
