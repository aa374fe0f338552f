import numpy as np
import pytest

from cvqkd_attacks.gaussian import (
    CovMat,
    apply_symplectic,
    beam_splitter,
    direct_sum,
    physicality_audit,
    reset_physicality_audit,
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


def outcome(check):
    """check()'s value or its refusal's text, with the physicality audit it
    left from a reset one: what two routes that must agree bit for bit are
    compared on."""
    reset_physicality_audit()
    try:
        got = check()
    except ValueError as exc:
        got = str(exc)
    return got, physicality_audit()


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2n x 2n symplectic form in (x1, p1, ..., xn, pn) order,
    block-diagonal [[0, 1], [-1, 0]]: the oracle's Omega."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def embedded_whole(s, idx, dim: int) -> np.ndarray:
    """A map on whole modes, interleaved in (x, p) order, on the mode slots
    idx (or a stack of them), embedded in dim rows as identity on every
    other mode: the 2n x 2n oracle of gaussian._embedded's x and p parts."""
    rows = np.ravel([(2 * i, 2 * i + 1) for i in idx])
    full = np.broadcast_to(np.eye(dim), s.shape[:-2] + (dim, dim)).copy()
    full[..., rows[:, None], rows] = s
    return full


def act_whole(mat, s, idx) -> np.ndarray:
    """sigma -> S sigma S^T on an interleaved matrix or stack, for a map S
    on the mode slots idx embedded as identity on every other mode."""
    full = embedded_whole(s, idx, mat.shape[-1])
    return full @ mat @ np.swapaxes(full, -1, -2)
