"""Tests of the shared random generators themselves."""

import numpy as np
import pytest

from support import random_component


def test_random_component_gives_up_on_unreachable_damping():
    # with 40 modes behind 2 ports, some mode almost always decays slower
    # than 0.1; the generator must raise rather than resample forever
    with pytest.raises(ValueError, match=r"\(n, m\) = \(2, 40\)"):
        random_component(np.random.default_rng(0), 2, 40)
