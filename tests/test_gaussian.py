"""Covariance-matrix layer: construction, transforms, spectra, conditioning."""

import math
import re
import struct
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import cvqkd_attacks.gaussian
from cvqkd_attacks.attacks import _match_noise, _resource_matrix, optimize_attacks
from cvqkd_attacks.channels import GaussChannel
from cvqkd_attacks.cli import RunConfig, scenario_from
from cvqkd_attacks.gaussian import (
    _CERTIFIED_COND,
    _HP_SCALE,
    _INVERSE_SIDE_SCALE,
    CovMat,
    Symplectic,
    _above_hp_scale,
    _act_on_modes,
    _block_diag,
    _check_physical,
    _heterodyne_blocks,
    _high_precision,
    _interleaved,
    _quadrature_blocks,
    _refined_spectrum,
    _spectrum_entropy,
    _split_spectrum,
    _tmsv_entries,
    _tmsv_matrices,
    _xp_blocks,
    apply_symplectic,
    beam_splitter,
    condition_heterodyne,
    condition_homodyne,
    direct_sum,
    partial_trace,
    physicality_audit,
    reset_physicality_audit,
    symplectic_eigenvalues,
    symplectic_form,
    thermal,
    tmsv,
    two_mode_squeezer,
    von_neumann_entropy,
)
from cvqkd_attacks.keyrate import default_gamma_grid
from cvqkd_attacks.teleportation import _ATTACK_MODES, _pipeline_raw


def test_symplectic_form_blocks():
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    )
    assert np.array_equal(symplectic_form(2), expected)


def test_covmat_rejects_bad_shapes():
    with pytest.raises(ValueError, match="2n x 2n"):
        CovMat(np.eye(3), ("m1",))
    with pytest.raises(ValueError, match="2n x 2n"):
        CovMat(np.ones((2, 4)), ("m1",))


def test_covmat_rejects_zero_modes():
    # rejected by the shape check, before numpy reduces over no entries
    message = "covariance matrix must be 2n x 2n, got shape (0, 0)"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        CovMat(np.zeros((0, 0)), ())


def test_covmat_rejects_label_mismatch():
    with pytest.raises(ValueError, match="mode labels"):
        CovMat(np.eye(4), ("m1",))
    with pytest.raises(ValueError, match="unique"):
        CovMat(np.eye(4), ("m1", "m1"))


def test_covmat_rejects_asymmetry():
    m = np.eye(2)
    m[0, 1] = 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        CovMat(m, ("m1",))


def test_covmat_rejects_unphysical():
    with pytest.raises(ValueError, match="unphysical"):
        CovMat(0.5 * np.eye(2), ("m1",))


@pytest.mark.parametrize(
    "matrix",
    [
        np.diag([2.0, -1.0]),
        # tmsv sign pattern with c > a: both symplectic eigenvalues are
        # sqrt(c^2 - a^2) = 1.80, but a - c < 0 is an eigenvalue of sigma
        np.array(
            [
                [3.0, 0.0, 3.5, 0.0],
                [0.0, 3.0, 0.0, -3.5],
                [3.5, 0.0, 3.0, 0.0],
                [0.0, -3.5, 0.0, 3.0],
            ]
        ),
    ],
    ids=["diagonal", "tmsv-shape"],
)
def test_covmat_rejects_indefinite_matrix(matrix):
    # every |eig(Omega sigma)| is >= 1 here, so only sigma > 0 can reject it
    labels = tuple(f"m{i}" for i in range(matrix.shape[0] // 2))
    with pytest.raises(ValueError, match="^unphysical covariance matrix: not positive definite$"):
        CovMat(matrix, labels)


def test_covmat_freezes_matrix():
    st = thermal(2.0)
    with pytest.raises(ValueError):
        st.matrix[0, 0] = 99.0


def test_covmat_block_and_index():
    st = tmsv(0.5, ("A", "B"))
    assert st.index("B") == 1
    cross = st.block("A", "B")
    assert cross[0, 0] == -cross[1, 1]
    with pytest.raises(ValueError, match="unknown mode label"):
        st.index("C")


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5, 0.9, 0.99, 0.9999])
def test_tmsv_entries(gamma):
    st = tmsv(gamma, ("A", "B"))
    a = (1.0 + gamma * gamma) / (1.0 - gamma * gamma)
    c = 2.0 * gamma / (1.0 - gamma * gamma)
    assert st.matrix[0, 0] == a
    assert st.matrix[1, 1] == a
    # the cross entry may sit a few ulps below the textbook value:
    # construction nudges it down until the stored pair is exactly physical
    assert 0.0 <= c - st.matrix[0, 2] <= 64 * math.ulp(c)
    assert st.matrix[1, 3] == -st.matrix[0, 2]


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.9999])
def test_tmsv_is_pure(gamma):
    nus = symplectic_eigenvalues(tmsv(gamma))
    assert np.all(nus >= 1.0 - 1e-12)
    assert np.all(np.abs(nus - 1.0) < 1e-7)
    # construction rounds toward physicality, so a deeply squeezed pair may
    # carry a sub-microbit of entropy instead of exactly zero
    assert von_neumann_entropy(tmsv(gamma)) <= 1e-6


@pytest.mark.parametrize("gamma", [-0.1, 1.0, 1.5])
def test_tmsv_domain(gamma):
    with pytest.raises(ValueError, match="squeezing"):
        tmsv(gamma)


def test_thermal():
    assert np.array_equal(thermal(1.0).matrix, np.eye(2))
    assert thermal(2.5, "env").labels == ("env",)
    with pytest.raises(ValueError, match="variance"):
        thermal(0.5)


@pytest.mark.parametrize("g", [1.0, 2.0, 1e3, 1e6])
def test_two_mode_squeezer_is_symplectic(g):
    s = two_mode_squeezer(g).matrix
    omega = symplectic_form(2)
    dev = np.abs(s @ omega @ s.T - omega).max()
    assert dev <= 1e-10 * max(1.0, np.abs(s).max() ** 2)


def test_two_mode_squeezer_amplifies_vacuum():
    g = 3.0
    pair = direct_sum(thermal(1.0, "s"), thermal(1.0, "i"))
    out = apply_symplectic(pair, two_mode_squeezer(g), ("s", "i"))
    # each output arm of an amplified vacuum pair has variance 2g - 1
    assert math.isclose(out.matrix[0, 0], 2.0 * g - 1.0, rel_tol=1e-14)
    assert math.isclose(out.matrix[2, 2], 2.0 * g - 1.0, rel_tol=1e-14)
    with pytest.raises(ValueError, match="gain"):
        two_mode_squeezer(0.99)


def test_beam_splitter_convention():
    t = 0.3
    pair = direct_sum(thermal(2.0, "m1"), thermal(1.0, "m2"))
    out = apply_symplectic(pair, beam_splitter(t), ("m1", "m2"))
    assert math.isclose(out.matrix[0, 0], t * 2.0 + (1.0 - t) * 1.0, rel_tol=1e-14)
    assert math.isclose(out.matrix[2, 2], (1.0 - t) * 2.0 + t * 1.0, rel_tol=1e-14)
    # cross correlation sqrt(t(1-t)) (v1 - v2), sign fixed by the convention
    assert math.isclose(out.matrix[0, 2], math.sqrt(t * (1.0 - t)), rel_tol=1e-13)


@pytest.mark.parametrize("t", [-0.1, 1.1])
def test_beam_splitter_domain(t):
    with pytest.raises(ValueError, match="transmissivity"):
        beam_splitter(t)


def test_symplectic_rejects_nonsymplectic():
    with pytest.raises(ValueError, match="not symplectic"):
        Symplectic(np.diag([2.0, 2.0, 1.0, 1.0]), 2)
    with pytest.raises(ValueError, match="must be"):
        Symplectic(np.eye(2), 2)


def test_direct_sum_layout():
    st = direct_sum(thermal(2.0, "a"), tmsv(0.5, ("b", "c")))
    assert st.labels == ("a", "b", "c")
    assert st.matrix[0, 0] == 2.0
    assert np.array_equal(st.matrix[2:, 2:], tmsv(0.5).matrix)
    assert np.all(st.matrix[:2, 2:] == 0.0)
    with pytest.raises(ValueError, match="unique"):
        direct_sum(thermal(1.0, "a"), thermal(1.0, "a"))


def test_apply_symplectic_validates_targets():
    st = tmsv(0.5, ("A", "B"))
    with pytest.raises(ValueError, match="acts on"):
        apply_symplectic(st, beam_splitter(0.5), ("A",))
    with pytest.raises(ValueError, match="distinct"):
        apply_symplectic(st, beam_splitter(0.5), ("A", "A"))


def test_apply_symplectic_embeds_on_named_modes(rng):
    # acting on (B, C) of a three-mode state must leave the A block alone
    st = direct_sum(thermal(1.7, "A"), thermal(1.2, "B"), thermal(2.4, "C"))
    out = apply_symplectic(st, beam_splitter(0.4), ("B", "C"))
    assert np.array_equal(out.matrix[:2, :2], st.matrix[:2, :2])
    assert math.isclose(out.matrix[2, 2], 0.4 * 1.2 + 0.6 * 2.4, rel_tol=1e-14)


def test_partial_trace_reorders():
    st = direct_sum(thermal(1.5, "A"), thermal(2.5, "B"))
    kept = partial_trace(st, ("B", "A"))
    assert kept.labels == ("B", "A")
    assert kept.matrix[0, 0] == 2.5
    assert kept.matrix[2, 2] == 1.5
    with pytest.raises(ValueError, match="at least one"):
        partial_trace(st, ())
    with pytest.raises(ValueError, match="distinct"):
        partial_trace(st, ("A", "A"))


def test_spectrum_of_thermal_modes():
    assert np.allclose(symplectic_eigenvalues(thermal(2.5)), [2.5])
    pair = direct_sum(thermal(1.5, "a"), thermal(3.0, "b"))
    assert np.allclose(symplectic_eigenvalues(pair), [3.0, 1.5])


def test_spectrum_invariant_under_symplectics(rng):
    from conftest import random_two_mode_state

    st = random_two_mode_state(rng)
    before = symplectic_eigenvalues(st)
    after = symplectic_eigenvalues(apply_symplectic(st, beam_splitter(0.37), st.labels))
    assert np.allclose(before, after, atol=1e-10)


@pytest.mark.parametrize("nu", [1.0, 1.0001, 1.5, 3.0, 9999.0, 10001.0, 7.5e9])
def test_entropy_matches_high_precision_formula(nu):
    # independent oracle: the same bosonic entropy evaluated in 50-digit
    # arithmetic, covering both evaluation branches and the switch point
    with mpmath.mp.workdps(50):
        x = mpmath.mpf(nu)
        hi = (x + 1) / 2
        lo = (x - 1) / 2
        expected = float(hi * mpmath.log(hi, 2) - (lo * mpmath.log(lo, 2) if lo > 0 else 0))
    assert math.isclose(von_neumann_entropy(thermal(nu)), expected, rel_tol=0, abs_tol=1e-11)


def test_entropy_of_two_shot_noise_units_is_two_bits():
    assert math.isclose(von_neumann_entropy(thermal(3.0)), 2.0, rel_tol=1e-14)


def _entropy_by_modes(nus, pure_tol: float = 1e-12) -> float:
    # reference: the per-mode loop on math.log2 that _spectrum_entropy's
    # array expression replaced
    total = 0.0
    for nu in nus:
        if nu <= 1.0 + pure_tol:
            continue
        if nu > 1.0e4:
            total += 0.5 * nu * math.log1p(2.0 / (nu - 1.0)) / math.log(2.0) + 0.5 * math.log2(
                0.25 * (nu - 1.0) * (nu + 1.0)
            )
        else:
            hi, lo = 0.5 * (nu + 1.0), 0.5 * (nu - 1.0)
            total += hi * math.log2(hi) - lo * math.log2(lo)
    return total


@pytest.mark.parametrize("pure_tol", [1e-12, 0.0])
def test_spectrum_entropy_matches_the_per_mode_loop(rng, pure_tol):
    # both branches, the pure-mode cut and its edge, stacked three modes a
    # row; the array form may round each logarithm differently, so the
    # tolerance is a few ulps of the largest term's two halves
    nus = np.concatenate(
        [
            [1.0, 1.0 + 1e-12, 1.0 + 2e-12, 1.0 + 1e-9, 1.5, 3.0, 1.0e4, 1.0e4 + 1e-12, 7.5e9],
            1.0 + rng.uniform(0.0, 1e-6, 300),
            1.0 + rng.exponential(1.0, 300),
            10.0 ** rng.uniform(0.0, 10.0, 300),
        ]
    )
    nus = np.concatenate([nus, np.ones(-len(nus) % 3)]).reshape(-1, 3)
    got = _spectrum_entropy(nus, pure_tol)
    assert got.shape == (len(nus),)
    for row, value in zip(nus.tolist(), got.tolist()):
        expected = _entropy_by_modes(row, pure_tol)
        scale = max(0.5 * (nu + 1.0) * math.log2(0.5 * (nu + 1.0)) for nu in row)
        assert abs(value - expected) <= 8 * np.finfo(float).eps * max(scale, 1.0), row
        single = _spectrum_entropy(np.array(row), pure_tol)
        assert type(single) is float and single == value


def test_heterodyne_conditioning_matches_rational_schur():
    st = tmsv(0.5, ("A", "B"))
    a = Fraction(st.matrix[0, 0])
    c = Fraction(st.matrix[0, 2])
    expected = a - c * c / (a + 1)
    cond = condition_heterodyne(st, "B")
    assert cond.labels == ("A",)
    assert abs(cond.matrix[0, 0] - float(expected)) < 1e-14
    assert abs(cond.matrix[1, 1] - float(expected)) < 1e-14
    assert abs(cond.matrix[0, 1]) < 1e-14


def test_heterodyne_conditioning_high_scale_path():
    # heterodyning one arm of a pure amplified pair leaves the other arm in a
    # coherent state: unit variance, independent of the gain. Entries ~4e6
    # exercise the high-precision branch.
    g = 2.0e6
    pair = direct_sum(thermal(1.0, "s"), thermal(1.0, "i"))
    amped = apply_symplectic(pair, two_mode_squeezer(g), ("s", "i"))
    assert amped.matrix.max() > 1e6
    cond = condition_heterodyne(amped, "i")
    assert np.allclose(cond.matrix, np.eye(2), atol=1e-9)


def test_conditioning_needs_a_survivor():
    with pytest.raises(ValueError, match="only remaining mode"):
        condition_heterodyne(thermal(2.0), "m1")


def test_homodyne_conditioning_touches_one_quadrature():
    st = tmsv(0.5, ("A", "B"))
    a = st.matrix[0, 0]
    c = st.matrix[0, 2]
    cond_x = condition_homodyne(st, "B", "x")
    assert math.isclose(cond_x.matrix[0, 0], a - c * c / a, rel_tol=1e-13)
    assert cond_x.matrix[1, 1] == a
    cond_p = condition_homodyne(st, "B", "p")
    assert cond_p.matrix[0, 0] == a
    assert math.isclose(cond_p.matrix[1, 1], a - c * c / a, rel_tol=1e-13)
    with pytest.raises(ValueError, match="quadrature"):
        condition_homodyne(st, "B", "y")


def test_physicality_audit_tracks_minimum():
    reset_physicality_audit()
    thermal(1.0)
    tmsv(0.3)
    min_nu, count = physicality_audit()
    assert count == 2
    assert min_nu >= 1.0 - 1e-9


def _tmsv_entries_fraction(gamma: float) -> tuple[float, float]:
    # reference: the largest double c at most the textbook one with
    # a^2 - c^2 >= 1 on Fractions, searched over the bit patterns of the
    # non-negative doubles, which are ordered like their values
    denom = 1.0 - gamma * gamma
    a = (1.0 + gamma * gamma) / denom
    c = 2.0 * gamma / denom
    exact_a = Fraction(a)

    def physical(bits: int) -> bool:
        x = Fraction(struct.unpack("<d", struct.pack("<q", bits))[0])
        return (exact_a - x) * (exact_a + x) >= 1

    top = struct.unpack("<q", struct.pack("<d", c))[0]
    if physical(top):
        return a, c
    # gallop down to a physical pattern (bits 0, c = 0, is one, as a >= 1),
    # then bisect between it and the last unphysical one
    hi, step = top, 1
    while not physical(max(top - step, 0)):
        hi, step = top - step, 2 * step
    lo = max(top - step, 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if physical(mid) else (lo, mid)
    return a, struct.unpack("<d", struct.pack("<q", lo))[0]


def test_tmsv_entries_match_fraction_reference():
    rng = np.random.default_rng(20261017)
    near_one = [1.0 - 10.0**-k for k in range(1, 16)] + [math.nextafter(1.0, 0.0)]
    gammas = np.concatenate(
        [
            # 0.03 and 0.05 sit about 230 and 80 ulps below the textbook c
            [0.0, 0.03, 0.05, 0.5, 0.9999],
            near_one,
            rng.uniform(0.0, 1.0, 2000),
            1.0 - rng.uniform(0.0, 1e-4, 1000),
            1.0 - rng.uniform(0.0, 1e-12, 500),
            # small squeezing: a - 1 carries few bits, so c may sit far below
            rng.uniform(0.0, 0.07, 300),
        ]
    )
    gammas = gammas[gammas < 1.0]
    # the stacked matrices carry the same bits, whatever the stack's shape
    stack = _tmsv_matrices(gammas)
    stacked_a, stacked_c = stack[:, 0, 0], stack[:, 0, 2]
    grid = _tmsv_matrices(gammas[:8].reshape(2, 4))
    assert np.array_equal(grid.reshape(8, 4, 4), stack[:8])
    for gamma, a, c in zip(gammas.tolist(), stacked_a.tolist(), stacked_c.tolist()):
        reference = _tmsv_entries_fraction(gamma)
        assert _tmsv_entries(gamma) == reference, gamma
        assert (a, c) == reference, gamma


def test_tmsv_matrices_count_each_member_in_the_audit():
    gammas = np.array([0.0, 0.3, 0.9999, 1.0 - 1e-12])
    reset_physicality_audit()
    stack = _tmsv_matrices(gammas)
    min_nu, count = physicality_audit()
    assert count == len(gammas)
    assert 1.0 - 1e-15 <= min_nu <= 1.0 + 1e-15
    for k, gamma in enumerate(gammas.tolist()):
        assert np.array_equal(stack[k], tmsv(gamma).matrix), gamma


def _certified_states():
    """(name, constructor) of each state certified by its spectrum."""
    return [
        ("tmsv", lambda: tmsv(0.9, ("A", "B"))),
        ("thermal", lambda: thermal(2.5, "E")),
        ("direct_sum", lambda: direct_sum(tmsv(0.5, ("A", "B")), thermal(3.0, "E"))),
    ]


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9, 0.9999, 1.0 - 1e-6, 1.0 - 1e-9])
def test_tmsv_spectrum_matches_60_digit_oracle(gamma):
    # the closed form against a general 60-digit eigensolve of the stored
    # matrix; at 1 - 1e-6 the numerical spectrum (_check_physical) is off
    # by 6e-5
    st = tmsv(gamma)
    oracle = _spectrum_by_general_eig(st.matrix, 60)
    np.testing.assert_array_max_ulp(symplectic_eigenvalues(st), oracle, 2)


@pytest.mark.parametrize("variance", [1.0, 1.5, 3.0, 1e6, 1e12])
def test_thermal_and_direct_sum_spectra_match_60_digit_oracle(variance):
    for st in (
        thermal(variance),
        direct_sum(thermal(variance, "a"), tmsv(0.9999, ("b", "c")), thermal(2.0, "d")),
    ):
        oracle = _spectrum_by_general_eig(st.matrix, 60)
        np.testing.assert_array_max_ulp(symplectic_eigenvalues(st), oracle, 2)


@pytest.mark.parametrize("name,build", _certified_states(), ids=[n for n, _ in _certified_states()])
def test_certified_states_count_once_without_a_numerical_spectrum(monkeypatch, name, build):
    calls = []
    monkeypatch.setattr(cvqkd_attacks.gaussian, "_check_physical", calls.append)
    reset_physicality_audit()
    state = build()
    min_nu, count = physicality_audit()
    # direct_sum's parts are built inside build(), one count each
    assert count == (3 if name == "direct_sum" else 1)
    assert min_nu >= 1.0
    assert calls == []
    assert not state.matrix.flags.writeable
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 99.0


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: thermal(math.nan), "covariance matrix must not contain infs or NaNs"),
        (lambda: thermal(math.inf), "covariance matrix must not contain infs or NaNs"),
        (lambda: thermal(0.5), "thermal variance must be >= 1, got 0.5"),
        (lambda: tmsv(0.3, ("a",)), "expected 2 mode labels, got 1"),
        (lambda: tmsv(0.3, ("a", "b", "c")), "expected 2 mode labels, got 3"),
        (lambda: tmsv(0.3, ("a", "a")), "mode labels must be unique, got ('a', 'a')"),
        (
            lambda: direct_sum(tmsv(0.3, ("A", "B")), thermal(1.0, "B")),
            "mode labels must be unique, got ('A', 'B', 'B')",
        ),
    ],
    ids=["thermal-nan", "thermal-inf", "thermal-low", "tmsv-one-label", "tmsv-three-labels",
         "tmsv-duplicate", "direct-sum-clash"],
)
def test_certified_states_keep_covmat_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_partial_trace_of_every_mode_in_order_is_the_state_itself(monkeypatch):
    calls = []
    real = cvqkd_attacks.gaussian._check_physical

    def counted(mat):
        calls.append(mat.shape)
        return real(mat)

    monkeypatch.setattr(cvqkd_attacks.gaussian, "_check_physical", counted)
    st = direct_sum(thermal(1.5, "A"), thermal(2.5, "B"))
    assert partial_trace(st, ("A", "B")) is st
    assert partial_trace(st, ["A", "B"]) is st
    assert calls == []
    # any other selection or order validates a new state
    reset_physicality_audit()
    kept = partial_trace(st, ("B", "A"))
    # one check, of the kept state's x block over its p block
    assert calls == [(2, 2, 2)] and physicality_audit()[1] == 1
    assert kept is not st and kept.labels == ("B", "A")
    assert np.array_equal(kept.matrix, np.diag([2.5, 2.5, 1.5, 1.5]))


def _spectrum_by_general_eig(matrix: np.ndarray, dps: int) -> np.ndarray:
    # general eigensolver on Omega sigma, the route the Hermitian solve replaced
    n = matrix.shape[0] // 2
    with mpmath.mp.workdps(dps):
        k = mpmath.matrix((symplectic_form(n) @ matrix).tolist())
        eigs = mpmath.eig(k, left=False, right=False)
    nus = sorted((abs(z) for z in eigs), reverse=True)
    return np.array([float(nus[2 * i]) for i in range(n)])


@pytest.mark.parametrize("g", [1e6, 1e8])
@pytest.mark.parametrize("gamma,eta", [(0.9, 0.2994), (0.99685, 0.25136), (0.9999, 0.250037)])
def test_refined_spectrum_matches_80_digit_oracle(g, gamma, eta):
    # Eve's 8x8 block of the amplified attack state near the sweep's optima
    ch = GaussChannel(0.25, 0.7575)
    m = _match_noise(gamma, eta, ch.tau, ch.v, g)
    assert not math.isnan(m)
    alice = tmsv(0.7, ("A", "B")).matrix
    blocks = _pipeline_raw(alice, ch, _resource_matrix(gamma), eta, m, g, 1.0 / g)
    eve = _interleaved(blocks[:, 2:, 2:])
    assert np.abs(eve).max() > _HP_SCALE
    oracle = _spectrum_by_general_eig(eve, 80)
    np.testing.assert_array_max_ulp(_refined_spectrum(eve), oracle, 1)
    # the double-precision spectrum reads each nu from the side of the
    # congruence on which it is large, to the equilibrated bound
    nus, definite, cond = _split_spectrum(_xp_blocks(eve[None]))
    assert definite[0] and cond[0] < 1e5
    eps = np.finfo(float).eps
    assert np.all(np.abs(nus[0] - oracle) <= FAST_SPECTRUM_C * eps * oracle * cond[0])
    assert np.abs(nus[0] / oracle - 1.0).max() < 1e-12


# |nu_computed - nu| <= C * eps * nu * cond(sigma) for the Cholesky route:
# Cholesky is backward stable, sigma + E with |E| ~ eps |sigma|, and a
# congruence moves every nu by the relative factor |sigma^-1/2 E sigma^-1/2|
# <= |E| |sigma^-1|; the singular values add eps |K| <= eps |sigma|, which
# is below eps * nu * cond(sigma) too. A squeezed pure state has cond ~
# |sigma|^2, so an absolute bound in eps |sigma| alone does not hold.
FAST_SPECTRUM_C = 8.0


def _spectrum_of(matrix):
    """The double-precision spectrum of one phase-insensitive matrix, and
    whether it is positive definite: _split_spectrum on a stack of one."""
    nus, definite, _ = _split_spectrum(_xp_blocks(matrix[None]))
    return nus[0], definite[0]


def _random_gaussian_state(rng, scale: float, phase_sensitive: bool = True) -> np.ndarray:
    """Thermal modes, about half of them exactly pure, mixed by random
    single-mode squeezers at a random phase (which couple x and p), two-mode
    squeezers and beam splitters until the entries near scale. Without the
    single-mode squeezers every x-p entry stays exactly 0.0."""
    n = int(rng.integers(1, 5))
    pure = rng.random(n) < 0.5
    hot = scale * rng.uniform(0.5, 1.0, n) if rng.random() < 0.3 else rng.uniform(1.0, 3.0, n)
    mat = _block_diag(*(v * np.eye(2) for v in np.where(pure, 1.0, hot)))
    for _ in range(3 * n):
        if phase_sensitive:
            kind = rng.integers(3) if n > 1 else 0
        elif n > 1:
            kind = rng.integers(1, 3)
        else:
            break
        if kind == 0:
            modes = [int(rng.integers(n))]
            phi = rng.uniform(0.0, math.pi)
            rot = np.array([[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]])
            squeeze = math.sqrt(1.0 + rng.uniform(0.0, 1.0) * math.sqrt(scale))
            s = rot @ np.diag([squeeze, 1.0 / squeeze]) @ rot.T
        else:
            modes = [int(i) for i in rng.choice(n, 2, replace=False)]
            if kind == 1:
                s = two_mode_squeezer(1.0 + rng.uniform(0.0, 1.0) * math.sqrt(scale)).matrix
            else:
                s = beam_splitter(rng.uniform(0.0, 1.0)).matrix
        nxt = _act_on_modes(mat, s, modes)
        if np.abs(nxt).max() > scale:
            break
        mat = nxt
    return 0.5 * (mat + mat.T)


def _xp_entries(sigma: np.ndarray) -> np.ndarray:
    """Every entry coupling an x quadrature with a p quadrature."""
    return np.concatenate([sigma[0::2, 1::2], sigma[1::2, 0::2]])


def test_fast_spectrum_matches_60_digit_oracle():
    # phase-insensitive states take their x and p blocks, read from both
    # sides past _INVERSE_SIDE_SCALE, under the Cholesky bound; states with
    # x-p terms have no double-precision route: CovMat takes their
    # high-precision spectrum, which rounds to within an ulp of the oracle,
    # and refuses one that is not positive definite
    rng = np.random.default_rng(20261018)
    eps = np.finfo(float).eps
    for phase_sensitive, top in ((True, 4.0), (False, 7.0)):
        scales, pure_modes = [], 0
        for _ in range(100):
            sigma = _random_gaussian_state(rng, 10.0 ** rng.uniform(0.0, top), phase_sensitive)
            oracle = _spectrum_by_general_eig(sigma, 60)
            if _xp_entries(sigma).any():
                assert phase_sensitive
                labels = [f"m{i}" for i in range(len(sigma) // 2)]
                nus = symplectic_eigenvalues(CovMat(sigma, labels))
                np.testing.assert_array_max_ulp(nus, oracle, 1)
            else:
                nus, definite = _spectrum_of(sigma)
                cond = np.linalg.norm(sigma, 2) * np.linalg.norm(np.linalg.inv(sigma), 2)
                assert np.all(np.abs(nus - oracle) <= FAST_SPECTRUM_C * eps * oracle * cond)
                assert definite
            scales.append(np.abs(sigma).max())
            pure_modes += int(np.sum(np.abs(oracle - 1.0) < 1e-6))
        assert max(scales) > (1e3 if phase_sensitive else 1e6) and min(scales) < 10.0
        assert pure_modes > 20


def test_fast_spectrum_stack_equals_each_member_alone(monkeypatch):
    # the second member has no Cholesky factor: the phase-insensitive stack
    # is factored member by member, that one gets |eig(Omega sigma)| and its
    # neighbours keep their factored spectra. The check refines the one
    # below 1, and only it, in high precision; the member that couples x
    # and p takes the high-precision spectrum in CovMat
    amplified = _act_on_modes(tmsv(0.9).matrix, two_mode_squeezer(1e3).matrix, [0, 1])
    rot = np.array([[math.cos(0.4), math.sin(0.4)], [-math.sin(0.4), math.cos(0.4)]])
    squeezed = _act_on_modes(tmsv(0.6).matrix, rot @ np.diag([2.0, 0.5]) @ rot.T, [1])
    members = [tmsv(0.3).matrix, np.diag([0.5, -0.5, 1.0, 1.0]), amplified, squeezed]
    assert [bool(_xp_entries(m).any()) for m in members] == [False, False, False, True]
    nus, definite, _ = _split_spectrum(_xp_blocks(np.stack(members[:3])))
    assert definite.tolist() == [True, False, True]
    general = np.abs(np.linalg.eigvals(symplectic_form(2) @ members[1]))
    assert np.array_equal(nus[1], np.sort(general)[::-1][::2])
    for k, m in enumerate(members[:3]):
        one, one_definite = _spectrum_of(m)
        assert np.array_equal(nus[k], one), k
        assert one_definite == definite[k]
    checked = _check_physical(_xp_blocks(np.stack(members[::2])))[1]
    assert np.array_equal(checked, _split_spectrum(_xp_blocks(np.stack(members[::2])))[0])
    assert np.array_equal(symplectic_eigenvalues(CovMat(members[3], ("m1", "m2"))),
                          _refined_spectrum(members[3]))
    refined = []
    real = cvqkd_attacks.gaussian._refined_spectrum

    def recorded(matrix):
        refined.append(matrix)
        return real(matrix)

    monkeypatch.setattr(cvqkd_attacks.gaussian, "_refined_spectrum", recorded)
    message = "unphysical covariance matrix: smallest symplectic eigenvalue 0.5"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        _check_physical(_xp_blocks(np.stack(members[:3])))
    assert len(refined) == 1 and np.array_equal(refined[0], members[1])
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        CovMat(members[1], ("m1", "m2"))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_covmat_rejects_non_finite_entries(bad):
    # rejected before any arithmetic on them: a NaN would pass the Cholesky
    # factorization unflagged, and an inf turns the symmetry test's
    # difference into NaN
    matrix = np.diag([bad, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        CovMat(matrix, ("m1", "m2"))
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _check_physical(_xp_blocks(np.stack([tmsv(0.3).matrix, matrix])))
    # in an x-p entry it sends the matrix down CovMat's coupled route
    coupled = np.eye(4)
    coupled[0, 1] = coupled[1, 0] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        CovMat(coupled, ("m1", "m2"))


def test_attack_spectra_take_half_size_factors(monkeypatch):
    # every attack state is phase-insensitive, so its spectrum comes from
    # its n x n x and p blocks: no SVD of the 12 x 12 matrix or of its 8 x 8
    # and 10 x 10 blocks
    mat, _ = _attack_stack(100.0)
    shapes = []
    real = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    for stack in (mat, mat[:, 4:, 4:], mat[:, 2:, 2:]):
        _check_physical(_xp_blocks(stack))
    assert shapes and max(max(shape) for shape in shapes) <= 6, shapes


def _count_linalg_calls(monkeypatch, names) -> dict[str, int]:
    """Count the calls to each named np.linalg function from here on."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        inner = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


def test_check_physical_factors_each_matrix_once(monkeypatch):
    # three-mode members take LAPACK's factors: one factorization for the
    # whole phase-insensitive stack and no general eigensolve; two-mode
    # members take the closed form and make no LAPACK call at all
    joint = direct_sum(tmsv(0.7, ("x", "y")), thermal(1.5, "z"))
    members = np.stack(
        [apply_symplectic(joint, beam_splitter(t), ("y", "z")).matrix for t in (0.2, 0.5, 0.9)]
    )
    calls = _count_linalg_calls(monkeypatch, ["cholesky", "eigvals"])
    _check_physical(_xp_blocks(members))
    assert calls == {"cholesky": 1, "eigvals": 0}
    calls = _count_linalg_calls(monkeypatch, ["cholesky", "svd", "eigvals", "inv", "det"])
    _check_physical(_xp_blocks(np.stack([tmsv(k).matrix for k in (0.0, 0.4, 0.9)])))
    assert calls == {"cholesky": 0, "svd": 0, "eigvals": 0, "inv": 0, "det": 0}


def _two_mode_oracle(blocks: np.ndarray) -> np.ndarray:
    """60-digit nu's, descending, of a (2, k, 2, 2) stack of x blocks over p
    blocks, each read as the symmetric matrix of its lower triangle, as a
    Cholesky factorization reads it: with t and d the trace and determinant
    of X P, nu_+^2 = (t + sqrt(t^2 - 4 d)) / 2 and nu_- = sqrt(d) / nu_+."""
    out = []
    with mpmath.workdps(60):
        for x, p in zip(*(b.tolist() for b in blocks)):
            (x11, _), (x21, x22) = x
            (p11, _), (p21, p22) = p
            x11, x21, x22, p11, p21, p22 = map(mpmath.mpf, (x11, x21, x22, p11, p21, p22))
            t = x11 * p11 + 2 * x21 * p21 + x22 * p22
            d = (x11 * x22 - x21 * x21) * (p11 * p22 - p21 * p21)
            # t^2 - 4 d >= 0 exactly; 60 digits leave it >= -1e-58 t^2
            upper = mpmath.sqrt((t + mpmath.sqrt(max(t * t - 4 * d, 0))) / 2)
            out.append((float(upper), float(mpmath.sqrt(d) / upper)))
    return np.array(out)


def test_two_mode_closed_form_is_no_worse_than_lapack_on_amplified_states():
    # tmsv(gamma) through a two-mode squeezer, entries up to
    # _INVERSE_SIDE_SCALE: ill-conditioned members, where both routes lose
    # ~eps * cond(sigma). The closed form's worst and total errors against
    # the 60-digit spectrum are no larger than those of LAPACK's Cholesky
    # factors and SVD, the route it replaces, and stay under the Cholesky
    # bound; on the amplified member of the stack test it reads 1.00000012,
    # as _refined_spectrum does, where LAPACK reads 1.00000026
    rng = np.random.default_rng(20261019)
    mats = []
    while len(mats) < 200:
        g = 10.0 ** rng.uniform(0.0, 4.0)
        m = _act_on_modes(tmsv(rng.uniform(0.0, 0.99)).matrix, two_mode_squeezer(g).matrix, [0, 1])
        if np.abs(m).max() <= _INVERSE_SIDE_SCALE:
            mats.append(0.5 * (m + m.T))
    mats = np.array(mats)
    blocks = _xp_blocks(mats)
    oracle = _two_mode_oracle(blocks)
    closed = np.abs(_split_spectrum(blocks)[0] - oracle)
    chol = np.linalg.cholesky(blocks)
    lapack = np.abs(np.linalg.svd(chol[0].swapaxes(-1, -2) @ chol[1], compute_uv=False) - oracle)
    assert 1e-8 < closed.max() <= lapack.max()
    assert closed.sum() <= lapack.sum()
    cond = np.linalg.cond(mats)[:, None]
    assert np.all(closed <= FAST_SPECTRUM_C * np.finfo(float).eps * oracle * cond)
    amplified = _act_on_modes(tmsv(0.9).matrix, two_mode_squeezer(1e3).matrix, [0, 1])
    blocks = _xp_blocks(amplified)
    chol = np.linalg.cholesky(blocks)
    lapack = np.linalg.svd(chol[0].T @ chol[1], compute_uv=False)
    refined = _refined_spectrum(amplified)
    assert np.abs(_spectrum_of(amplified)[0] - refined).max() < 1e-10
    assert np.abs(lapack - refined).min() > 1e-7


def test_two_mode_closed_form_matches_60_digit_oracle_on_the_asymptotic_sweep(monkeypatch):
    # the F blocks of Eve's tap modes, before and after the heterodyne, that
    # the objective reads in the 41-row default sweep: every nu within 1e-15
    # relative of its 60-digit value
    seen = []

    def recorded(blocks):
        seen.append(blocks)
        return _split_spectrum(blocks)

    monkeypatch.setattr(cvqkd_attacks.attacks, "_split_spectrum", recorded)
    cfg = RunConfig()
    sc = scenario_from(cfg)
    optimize_attacks(sc, default_gamma_grid(sc, cfg.gamma_count, cfg.gamma_lo, cfg.gamma_hi))
    blocks = np.concatenate(seen, axis=1)
    assert blocks.shape[1] > 4000 and blocks.shape[-1] == 2
    nus = _split_spectrum(blocks)[0]
    assert np.abs(nus / _two_mode_oracle(blocks) - 1.0).max() <= 1e-15


def test_two_mode_spectrum_of_equal_nus_stays_descending():
    # two thermal modes of one variance: |det M| / nu_+ rounds an ulp above
    # nu_+ at 1.5, 1.6, 1.9 and 3.0, where nu_- is held to nu_+
    variances = np.linspace(1.0, 3.0, 41)
    nus, definite, _ = _split_spectrum(_xp_blocks(np.array([v * np.eye(4) for v in variances])))
    assert definite.all() and (nus[:, 0] >= nus[:, 1]).all()
    assert np.abs(nus / variances[:, None] - 1.0).max() <= 2 * np.finfo(float).eps


def test_two_mode_routes_are_chosen_per_member():
    # a definite member takes the closed form, an indefinite one the
    # general eigensolve, a graded one (entries past _INVERSE_SIDE_SCALE)
    # LAPACK's factors read from both sides: in one stack each is bit for
    # bit its lone value, and the rejection names the indefinite member's nu
    graded = _act_on_modes(tmsv(0.9).matrix, two_mode_squeezer(1e4).matrix, [0, 1])
    members = [tmsv(0.3).matrix, np.diag([0.5, -0.5, 1.0, 1.0]), 0.5 * (graded + graded.T)]
    assert _INVERSE_SIDE_SCALE < np.abs(members[2]).max() <= _HP_SCALE
    nus, definite, _ = _split_spectrum(_xp_blocks(np.stack(members)))
    assert definite.tolist() == [True, False, True]
    for k, m in enumerate(members):
        one, one_definite = _spectrum_of(m)
        assert np.array_equal(nus[k], one) and one_definite == definite[k], k
    message = "unphysical covariance matrix: smallest symplectic eigenvalue 0.5"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        _check_physical(_xp_blocks(np.stack(members)))
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        CovMat(members[1], ("m1", "m2"))


@pytest.mark.parametrize(
    "matrix",
    [np.diag([0.6, -0.4]), np.diag([3.0e6, 3.0e6, 0.6, -0.4])],
    ids=["unit-scale", "high-scale"],
)
def test_non_positive_definite_matrix_reports_general_spectrum(matrix):
    # no Cholesky factor: the rejection must name the nu of the general route
    nu_min = float(_spectrum_by_general_eig(matrix, 30).min())
    assert nu_min < 1.0
    message = f"unphysical covariance matrix: smallest symplectic eigenvalue {nu_min:.12g}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        CovMat(matrix, tuple(f"m{i}" for i in range(matrix.shape[0] // 2)))


def _amplified_pair_with_thermal_partner() -> CovMat:
    # tmsv(0.7) on (x, y) with y amplified against a thermal partner z at
    # g = 3e6: entries ~1e7, above _HP_SCALE
    joint = direct_sum(tmsv(0.7, ("x", "y")), thermal(1.5, "z"))
    return apply_symplectic(joint, two_mode_squeezer(3.0e6), ("y", "z"))


@pytest.mark.parametrize("quadrature", ["x", "p"])
def test_homodyne_conditioning_high_scale_matches_80_digit_oracle(quadrature):
    st = _amplified_pair_with_thermal_partner()
    assert np.abs(st.matrix).max() > _HP_SCALE
    q = "xp".index(quadrature)
    with mpmath.mp.workdps(80):
        m = mpmath.matrix(st.matrix.tolist())
        oracle = np.array(
            [[float(m[i, j] - m[i, 4 + q] * m[j, 4 + q] / m[4 + q, 4 + q]) for j in range(4)]
             for i in range(4)]
        )
    cond = condition_homodyne(st, "z", quadrature)
    assert cond.labels == ("x", "y")
    np.testing.assert_array_max_ulp(cond.matrix, oracle, 1)
    assert symplectic_eigenvalues(cond).min() >= 1.0


def test_heterodyne_conditioning_high_scale_matches_80_digit_oracle():
    # the measured mode is amplified against the others: the double-precision
    # Schur complement of this state is off by ~eps * 1e7
    st = _amplified_pair_with_thermal_partner()
    with mpmath.mp.workdps(80):
        m = mpmath.matrix(st.matrix.tolist())
        x = m[0:4, 0:4] - m[0:4, 4:6] * (m[4:6, 4:6] + mpmath.eye(2)) ** -1 * m[4:6, 0:4]
        oracle = np.array([[float(x[i, j]) for j in range(4)] for i in range(4)])
    cond = condition_heterodyne(st, "z")
    assert cond.labels == ("x", "y")
    np.testing.assert_array_max_ulp(cond.matrix, oracle, 1)


@pytest.mark.parametrize("quadrature", ["x", "p"])
def test_homodyne_conditioning_below_high_scale_keeps_double_precision(quadrature):
    joint = direct_sum(tmsv(0.7, ("x", "y")), thermal(1.5, "z"))
    st = apply_symplectic(joint, two_mode_squeezer(1.0e3), ("y", "z"))
    # the rank-one update on the measured quadrature's column, whose
    # entries in the other quadrature's rows are exactly 0.0
    q = "xp".index(quadrature)
    a, c, b = st.matrix[:4, :4], st.matrix[:4, 4 + q], st.matrix[4 + q, 4 + q]
    cond = a - np.outer(c * (1.0 / b), c)
    expected = 0.5 * (cond + cond.T)
    assert np.array_equal(condition_homodyne(st, "z", quadrature).matrix, expected)


def _attack_stack(g: float, count: int = 7) -> np.ndarray:
    ch = GaussChannel(0.25, 0.7575)
    rng = np.random.default_rng(20261018)
    etas = rng.uniform(0.26, 0.29, count)
    noises = _match_noise(0.95, etas, ch.tau, ch.v, g)
    assert not np.isnan(noises).any()
    alice = tmsv(0.7, ("A", "B")).matrix
    blocks = _pipeline_raw(alice, ch, _resource_matrix(0.95), etas, noises, g)
    return _interleaved(blocks), _ATTACK_MODES


def _interleaved_heterodyne(mat: np.ndarray, m: int) -> np.ndarray:
    """Reference: the heterodyne Schur complement a - c (b + I)^-1 c^T of
    mode m of one interleaved matrix, with its x-p terms."""
    rest = np.ravel([(2 * j, 2 * j + 1) for j in range(mat.shape[-1] // 2) if j != m])
    meas = [2 * m, 2 * m + 1]
    a, c, b = mat[np.ix_(rest, rest)], mat[np.ix_(rest, meas)], mat[np.ix_(meas, meas)]
    return a - c @ np.linalg.inv(b + np.eye(2)) @ c.T


@pytest.mark.parametrize("g", [100.0, 1e6])
def test_stacked_fast_spectrum_and_conditioning_equal_per_matrix_calls(g):
    mat, labels = _attack_stack(g)
    assert mat.shape == (7, 12, 12)
    nus, definite, _ = _split_spectrum(_xp_blocks(mat))
    assert definite.all()
    for k in range(len(mat)):
        one, one_definite = _spectrum_of(mat[k])
        assert np.array_equal(nus[k], one)
        assert one_definite
    blocks = _xp_blocks(mat)
    for m in range(len(labels)):
        rest = [j for j in range(len(labels)) if j != m]
        cond = _heterodyne_blocks(blocks, m, rest)
        for k in range(len(mat)):
            one = _heterodyne_blocks(_xp_blocks(mat[k]), m, rest)
            assert np.array_equal(cond[:, k], one), (m, k)


@pytest.mark.parametrize("g", [100.0, 1e6])
def test_heterodyne_on_quadrature_blocks_rounds_as_the_whole_matrix(g):
    # the rank-one update a - (c (1 / (b + 1))) c^T per quadrature is, bit
    # for bit, the Schur complement with (b + I)^-1 on the interleaved
    # matrix, whose x-p terms add exact zeros
    mat, labels = _attack_stack(g)
    blocks = _quadrature_blocks(mat)[[0, 1], [0, 1]]
    for m in range(len(labels)):
        rest = [j for j in range(len(labels)) if j != m]
        whole = np.array([_interleaved_heterodyne(member, m) for member in mat])
        assert np.array_equal(_interleaved(_heterodyne_blocks(blocks, m, rest)), whole), m


def test_stacked_spectrum_and_conditioning_escalate_per_matrix():
    # one member that double precision cannot certify must not pull its
    # neighbours into high precision: the amplified user state's equilibrated
    # matrix is far too ill-conditioned, the g = 10 and 100 ones stay below
    # the scale and read above 1 - _REFINE_TRIGGER
    joint = direct_sum(tmsv(0.7, ("x", "y")), thermal(1.5, "z"))
    small = [
        apply_symplectic(joint, two_mode_squeezer(g), ("y", "z")).matrix for g in (10.0, 100.0)
    ]
    mixed = np.stack([*small, _amplified_pair_with_thermal_partner().matrix])
    assert _split_spectrum(_xp_blocks(mixed))[2][-1] > _CERTIFIED_COND
    # the check refuses a member that is not positive definite
    nus = _check_physical(_xp_blocks(mixed))[1]
    assert np.array_equal(nus[:2], _split_spectrum(_xp_blocks(mixed[:2]))[0])
    assert np.array_equal(nus[2], _refined_spectrum(mixed[2]))
    # the heterodyne update of attack states stays in double precision on
    # both sides of the scale, each member as it is alone
    small, labels = _attack_stack(100.0, 3)
    large, _ = _attack_stack(1e6, 3)
    mixed = np.concatenate([small, large[:1]])
    assert not _above_hp_scale(mixed[:3]).any() and _above_hp_scale(mixed[3])
    rest = [j for j in range(len(labels)) if j != 1]
    cond = _interleaved(_heterodyne_blocks(_xp_blocks(mixed), 1, rest))
    for k, member in enumerate(mixed):
        assert np.array_equal(cond[k], _interleaved_heterodyne(member, 1)), k


def test_certified_members_above_hp_scale_stay_in_double_precision(monkeypatch):
    # Eve's blocks of g = 1e6 attack states pass _HP_SCALE, yet their
    # equilibrated factors certify the double-precision spectrum: in a stack
    # with members below the scale, each is bit for bit its lone result, and
    # no member reaches mpmath
    small, _ = _attack_stack(100.0, 3)
    large, _ = _attack_stack(1e6, 4)
    mixed = np.concatenate([small, large])[:, 4:, 4:]
    assert not _above_hp_scale(mixed[:3]).any() and _above_hp_scale(mixed[3:]).all()

    def refuse(matrix):
        raise AssertionError("high-precision spectrum reached")

    monkeypatch.setattr(cvqkd_attacks.gaussian, "_refined_spectrum", refuse)
    # the check refuses a member that is not positive definite
    nus = _check_physical(_xp_blocks(mixed))[1]
    for k, member in enumerate(mixed):
        one = _check_physical(_xp_blocks(member))[1]
        assert np.array_equal(nus[k], one), k
        assert np.array_equal(one, _spectrum_of(member)[0]), k


@pytest.mark.parametrize(
    "bad",
    [np.diag([0.6, 0.6, 1.0, 1.0]), np.diag([2.0, -1.0, 1.0, 1.0])],
    ids=["unphysical", "indefinite"],
)
def test_check_physical_stack_rejects_like_single_constructions(bad):
    members = [tmsv(0.3).matrix, bad, tmsv(0.8).matrix]
    reset_physicality_audit()
    messages = []
    for m in members:
        try:
            CovMat(m, ("m1", "m2"))
        except ValueError as exc:
            messages.append(str(exc))
    one_by_one = physicality_audit()
    assert len(messages) == 1
    reset_physicality_audit()
    with pytest.raises(ValueError, match=re.escape(messages[0]) + "$"):
        _check_physical(_xp_blocks(np.stack(members)))
    assert physicality_audit() == one_by_one
    assert one_by_one[1] == 3


def test_check_physical_stack_counts_each_member():
    members = np.stack([tmsv(k).matrix for k in (0.0, 0.4, 0.9)])
    reset_physicality_audit()
    blocks, nus = _check_physical(_xp_blocks(members))
    assert physicality_audit()[1] == 3
    for k, m in enumerate(members):
        assert np.array_equal(_interleaved(blocks[:, k]), tmsv((0.0, 0.4, 0.9)[k]).matrix)
        assert np.array_equal(nus[k], symplectic_eigenvalues(CovMat(m, ("a", "b"))))


def test_stacked_beam_splitters_equal_single_ones_and_keep_the_domain():
    ts = np.array([0.0, 0.3, 0.77, 1.0])
    stack = beam_splitter(ts).matrix
    assert stack.shape == (4, 4, 4)
    for k, t in enumerate(ts):
        assert np.array_equal(stack[k], beam_splitter(float(t)).matrix)
    with pytest.raises(ValueError, match=re.escape("transmissivity must lie in [0, 1], got 1.3")):
        beam_splitter(np.array([0.2, 1.3, 0.5]))
    with pytest.raises(ValueError, match="not symplectic"):
        Symplectic(np.stack([np.eye(4), np.diag([2.0, 2.0, 1.0, 1.0])]), 2)


def test_high_precision_refuses_entries_it_cannot_resolve():
    # 30 digits leave 16 below an entry of 1e14, and fewer past it
    def corner(mp, sigma):
        return float(sigma[0, 0])

    assert _high_precision(np.diag([1e14, 1.0]), corner) == 1e14
    message = "matrix entry 1e+14 leaves fewer than 16 of the 30 high-precision digits"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _high_precision(np.diag([1.0, -math.nextafter(1e14, math.inf)]), corner)
    # a spectrum that needs high precision, and a conditioning above
    # _HP_SCALE, are refused on that scale with one line
    rot = np.array([[math.cos(0.4), math.sin(0.4)], [-math.sin(0.4), math.cos(0.4)]])
    squeezed = rot @ np.diag([3e15, 1.0 / 3e15]) @ rot.T
    with pytest.raises(ValueError, match=r"^matrix entry 2\.5\d+e\+15 leaves fewer than 16 "):
        CovMat(squeezed, ("m1",))
    hot = direct_sum(tmsv(0.5, ("a", "b")), thermal(4e14, "c"))
    message = "matrix entry 4e+14 leaves fewer than 16 of the 30 high-precision digits"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        condition_heterodyne(hot, "a")


def _squeezed_coupled_state() -> CovMat:
    # tmsv(0.8) on (x, y) with y squeezed at a phase against a thermal z:
    # every mode couples x and p, entries stay below _HP_SCALE
    rot = np.array([[math.cos(0.7), math.sin(0.7)], [-math.sin(0.7), math.cos(0.7)]])
    joint = direct_sum(tmsv(0.8, ("x", "y")), thermal(1.5, "z"))
    mixed = apply_symplectic(joint, beam_splitter(0.3), ("y", "z"))
    squeeze = rot @ np.diag([30.0, 1.0 / 30.0]) @ rot.T
    return CovMat(_act_on_modes(mixed.matrix, squeeze, [1]), mixed.labels)


@pytest.mark.parametrize(
    "quadrature", [None, "x", "p"], ids=["heterodyne", "homodyne-x", "homodyne-p"]
)
def test_coupled_state_conditioning_matches_80_digit_oracle(quadrature):
    st = _squeezed_coupled_state()
    assert _xp_entries(st.matrix).any() and not _above_hp_scale(st.matrix)
    with mpmath.mp.workdps(80):
        m = mpmath.matrix(st.matrix.tolist())
        a, c, b = m[0:4, 0:4], m[0:4, 4:6], m[4:6, 4:6]
        if quadrature is None:
            x = a - c * (b + mpmath.eye(2)) ** -1 * c.T
        else:
            q = "xp".index(quadrature)
            x = a - c[:, q] * c[:, q].T / b[q, q]
        oracle = np.array([[float(x[i, j]) for j in range(4)] for i in range(4)])
    if quadrature is None:
        cond = condition_heterodyne(st, "z")
    else:
        cond = condition_homodyne(st, "z", quadrature)
    assert cond.labels == ("x", "y")
    np.testing.assert_array_max_ulp(cond.matrix, oracle, 1)


def test_heterodyne_conditioning_below_high_scale_keeps_double_precision(monkeypatch):
    # a phase-insensitive state below _HP_SCALE takes the block update, bit
    # for bit the interleaved Schur complement, and never high precision
    joint = direct_sum(tmsv(0.7, ("x", "y")), thermal(1.5, "z"))
    st = apply_symplectic(joint, two_mode_squeezer(1.0e3), ("y", "z"))

    def refuse(matrix, compute):
        raise AssertionError("high precision reached")

    monkeypatch.setattr(cvqkd_attacks.gaussian, "_high_precision", refuse)
    for m, label in enumerate(st.labels):
        cond = _interleaved_heterodyne(st.matrix, m)
        assert np.array_equal(condition_heterodyne(st, label).matrix, 0.5 * (cond + cond.T)), label
