import numpy as np
import pytest

from cvqkd_attacks.gaussian import (
    CovMat,
    apply_symplectic,
    beam_splitter,
    direct_sum,
    thermal,
    two_mode_squeezer,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def random_two_mode_state(rng, labels=("m1", "m2")) -> CovMat:
    """A random physical two-mode state: a thermal pair stirred by a squeezer
    and a beam splitter. Physicality is guaranteed by construction."""
    base = direct_sum(
        thermal(rng.uniform(1.0, 3.0), labels[0]),
        thermal(rng.uniform(1.0, 3.0), labels[1]),
    )
    stirred = apply_symplectic(base, two_mode_squeezer(rng.uniform(1.0, 2.0)), labels)
    return apply_symplectic(stirred, beam_splitter(rng.uniform(0.1, 0.9)), labels)
