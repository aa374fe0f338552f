"""Covariance-matrix layer: construction, transforms, spectra, conditioning."""

import math
import re
import struct
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvqkd_attacks.gaussian
from cvqkd_attacks.attacks import _match_noise, _resource_matrix, optimize_attacks
from cvqkd_attacks.channels import GaussChannel
from cvqkd_attacks.cli import RunConfig, scenario_from
from cvqkd_attacks.gaussian import (
    _CERTIFIED_COND,
    _HP_SCALE,
    _INVERSE_SIDE_SCALE,
    _REFINE_TRIGGER,
    PHYSICALITY_TOL,
    CovMat,
    Symplectic,
    _block_diag,
    _check_physical,
    _checked,
    _heterodyne_blocks,
    _high_precision,
    _interleaved,
    _lone_spectrum,
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
    thermal,
    tmsv,
    two_mode_squeezer,
    von_neumann_entropy,
)
from cvqkd_attacks.keyrate import default_gamma_grid
from cvqkd_attacks.teleportation import _ATTACK_MODES, _pipeline_raw
from conftest import act_whole, outcome, symplectic_form


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


@pytest.mark.parametrize(
    "call,labels",
    [
        (lambda: tmsv(0.5, "m1"), "m1"),
        (lambda: tmsv(0.5, "xy"), "xy"),
        (lambda: CovMat(np.eye(4), "AB"), "AB"),
        (lambda: partial_trace(tmsv(0.5, ("a", "b")), "ab"), "ab"),
        (lambda: partial_trace(tmsv(0.5, ("a", "b")), "a"), "a"),
        (lambda: apply_symplectic(tmsv(0.5, ("a", "b")), beam_splitter(0.5), "ab"), "ab"),
    ],
    ids=["tmsv-two-chars", "tmsv-pair", "covmat", "partial-trace-all", "partial-trace-one",
         "apply-symplectic"],
)
def test_defect_7_a_string_of_labels_is_refused(call, labels):
    # a str is an iterable of its characters: taken as labels it would name
    # one mode per character, or keep or target modes silently
    message = f"mode labels must be a sequence of labels, not the string {labels!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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


@pytest.mark.parametrize(
    "entry,message",
    [
        (0.5, "state couples its x and p quadratures; expected a phase-insensitive one"),
        (math.nan, "covariance matrix must not contain infs or NaNs"),
        (math.inf, "covariance matrix must not contain infs or NaNs"),
        (None, "covariance matrix is not symmetric"),
    ],
    ids=["coupled", "nan", "inf", "asymmetric"],
)
def test_covmat_refuses_an_x_p_term_in_one_line(entry, message):
    # the package has one state model, the phase-insensitive one; a
    # non-finite or asymmetric x-p entry keeps its own message
    matrix = np.diag([2.0, 2.0, 1.0, 1.0])
    if entry is None:
        matrix[0, 1] = 1e-6
    else:
        matrix[0, 1] = matrix[1, 0] = entry
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        CovMat(matrix, ("m1", "m2"))


def test_apply_symplectic_refuses_a_phase_rotation_in_one_line():
    # a map with x-p terms is refused where it is built, so it can never
    # act: both one whose output would couple x and p (on one arm of a
    # tmsv) and a quarter turn, which leaves a thermal mode as it is
    cos, sin = math.cos(0.4), math.sin(0.4)
    message = "state couples its x and p quadratures; expected a phase-insensitive one"
    for rotation in ([[cos, sin], [-sin, cos]], [[0.0, 1.0], [-1.0, 0.0]]):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Symplectic(np.array(rotation), 1)


def test_covmat_freezes_matrix():
    st = thermal(2.0)
    with pytest.raises(ValueError):
        st.matrix[0, 0] = 99.0


def test_constructed_matrix_is_formed_from_the_symmetrized_blocks_on_first_read():
    # .matrix is the read-only interleave of the blocks, formed when first
    # read and kept: never the caller's object, whose asymmetry within
    # SYMMETRY_RTOL is averaged away
    given_matrix = tmsv(0.4).matrix.copy()
    given_matrix[2, 0] += 1e-13
    state = CovMat(given_matrix, ("a", "b"))
    assert "matrix" not in vars(state)
    matrix = state.matrix
    assert matrix is not given_matrix and state.matrix is matrix
    assert not matrix.flags.writeable
    assert np.array_equal(matrix, _interleaved(state._blocks))
    assert np.array_equal(matrix, matrix.T)
    assert matrix[0, 2] == 0.5 * (given_matrix[0, 2] + given_matrix[2, 0])
    assert given_matrix[2, 0] != given_matrix[0, 2] and given_matrix.flags.writeable
    assert repr(state).startswith("CovMat(matrix=array([[")
    assert np.array_equal(state.block("b", "a"), matrix[2:, :2])
    with pytest.raises(AttributeError, match="'CovMat' object has no attribute 'nus'"):
        state.nus


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
    # the map keeps its x and p parts, read-only, beside its matrix
    s = beam_splitter(t)
    assert np.array_equal(s._parts, _xp_blocks(s.matrix)) and not s._parts.flags.writeable


@pytest.mark.parametrize("t", [-0.1, 1.1])
def test_beam_splitter_domain(t):
    with pytest.raises(ValueError, match="transmissivity"):
        beam_splitter(t)


def test_symplectic_rejects_nonsymplectic():
    with pytest.raises(ValueError, match="not symplectic"):
        Symplectic(np.diag([2.0, 2.0, 1.0, 1.0]), 2)
    with pytest.raises(ValueError, match="must be"):
        Symplectic(np.eye(2), 2)


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda: Symplectic(np.full((2, 2), np.nan), 1),
            "symplectic matrix must not contain infs or NaNs",
        ),
        (
            lambda: Symplectic(np.diag([math.inf, 0.0]), 1),
            "symplectic matrix must not contain infs or NaNs",
        ),
        (lambda: two_mode_squeezer(math.nan), "squeezer gain must be a finite value >= 1, got nan"),
        (lambda: two_mode_squeezer(math.inf), "squeezer gain must be a finite value >= 1, got inf"),
    ],
    ids=["symplectic-nan", "symplectic-inf", "squeezer-nan", "squeezer-inf"],
)
def test_symplectic_refuses_non_finite_entries_in_one_line(build, message):
    # a NaN passes the S Omega S^T comparison, and an infinite gain used to
    # build its squeezer with a RuntimeWarning (an error under this suite)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP defect 3: apply_symplectic forms S sigma S^T in a raw basis, so an "
    "amplified pure state reads a wrong entropy (2.9e-7 bits at g = 1e4, 0.0106 at 1e6)",
)
@pytest.mark.parametrize("g", [1e4, 1e6])
def test_defect_3_amplified_pure_state_is_refused_or_reads_pure(g):
    joint = direct_sum(tmsv(0.5, ("a", "b")), thermal(1.0, "c"))
    try:
        state = apply_symplectic(joint, two_mode_squeezer(g), ("b", "c"))
    except ValueError as exc:
        assert "\n" not in str(exc)
        return
    assert von_neumann_entropy(state) <= 1e-9


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
    # a stack of two maps, which would broadcast against the x and p
    # blocks, is no map
    message = "symplectic on 2 modes must be 4x4, got (2, 4, 4)"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        Symplectic(np.stack([beam_splitter(0.3).matrix, beam_splitter(0.5).matrix]), 2)


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


def _entropy_every_branch(nus, pure_tol):
    # reference: _spectrum_entropy's arithmetic with its large-nu form
    # evaluated on every call, as it was before that form became conditional
    nus = np.asarray(nus, dtype=float)
    hi, lo = 0.5 * (nus + 1.0), 0.5 * (nus - 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = hi * np.log2(hi) - lo * np.log2(lo)
        product = 0.25 * (nus - 1.0) * (nus + 1.0)
        log_product = np.where(np.isinf(product), np.log2(lo) + np.log2(hi), np.log2(product))
        large = 0.5 * nus * np.log1p(2.0 / (nus - 1.0)) / math.log(2.0) + 0.5 * log_product
    terms = np.where(nus <= 1.0 + pure_tol, 0.0, np.where(nus > 1.0e4, large, direct))
    return terms.sum(axis=-1)


# each side of the pure cut 1 + pure_tol and of the large-nu cut 1e4, the
# overflow of the large form's product, NaN and inf
ENTROPY_EDGES = [
    1.0,
    1.0 + 1e-12,
    math.nextafter(1.0 + 1e-12, 2.0),
    math.nextafter(1.0, 0.0),
    1.0e4,
    math.nextafter(1.0e4, math.inf),
    2.7e154,
    3.0e154,
    1e300,
    math.nan,
    math.inf,
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(
        st.lists(
            st.one_of(st.sampled_from(ENTROPY_EDGES), st.floats(1.0, 2.0), st.floats(1.0, 1e12)),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    ),
    pure_tol=st.sampled_from([1e-12, 0.0]),
)
def test_spectrum_entropy_equals_its_every_branch_form_bit_for_bit(rows, pure_tol):
    # the large-nu form is taken only for a call with some nu above 1e4, so
    # each row must read what it read with both forms always evaluated,
    # alone, stacked, and with a pure mode appended (holevo_bound's one
    # call adds nu = 1 to its conditioned spectrum)
    nus = np.array(rows)
    expected = _entropy_every_branch(nus, pure_tol)
    assert _spectrum_entropy(nus, pure_tol).tobytes() == expected.tobytes()
    for row, value in zip(rows, expected.tolist()):
        for spectrum in (row, row + [1.0]):
            assert repr(_spectrum_entropy(np.array(spectrum), pure_tol)) == repr(value)


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
    stacked_a, stacked_c = stack[0, :, 0, 0], stack[0, :, 0, 1]
    grid = _tmsv_matrices(gammas[:8].reshape(2, 4))
    assert np.array_equal(grid.reshape(2, 8, 2, 2), stack[:, :8])
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
        assert np.array_equal(stack[:, k], tmsv(gamma)._blocks), gamma


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


@pytest.mark.parametrize("g", [1e4, 1e6, 1e8, 1e10])
@pytest.mark.parametrize("gamma,eta", [(0.9, 0.2994), (0.99685, 0.25136), (0.9999, 0.250037)])
def test_refined_spectrum_matches_80_digit_oracle(g, gamma, eta):
    # Eve's 8x8 block of the amplified attack state near the sweep's
    # optima, and the whole 12x12 state, the member on which sampled sweeps
    # escalate, given to the certifier as x blocks over p blocks; at
    # g = 1e12 the entries (2.4e14) are refused by scale
    ch = GaussChannel(0.25, 0.7575)
    m = _match_noise(gamma, eta, ch.tau, ch.v, g)
    assert not math.isnan(m)
    alice = tmsv(0.7, ("A", "B"))._blocks
    whole = _pipeline_raw(alice, ch, _resource_matrix(gamma), eta, m, g, 1.0 / g)
    eve = whole[:, 2:, 2:]
    oracles = [_spectrum_by_general_eig(_interleaved(blocks), 80) for blocks in (eve, whole)]
    for blocks, oracle in zip((eve, whole), oracles):
        assert np.abs(blocks).max() > _HP_SCALE or g < _HP_SCALE
        np.testing.assert_array_max_ulp(_refined_spectrum(blocks), oracle, 1)
    # the double-precision spectrum of Eve's block reads each nu from the
    # side of the congruence on which it is large, to the equilibrated bound
    nus, definite, cond = _split_spectrum(eve[:, None])
    assert definite[0] and cond[0] < 1e5
    eps = np.finfo(float).eps
    assert np.all(np.abs(nus[0] - oracles[0]) <= FAST_SPECTRUM_C * eps * oracles[0] * cond[0])
    assert np.abs(nus[0] / oracles[0] - 1.0).max() < 1e-12


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


def _random_gaussian_state(rng, scale: float) -> np.ndarray:
    """Thermal modes, about half of them exactly pure, mixed by random
    two-mode squeezers and beam splitters until the entries near scale;
    every x-p entry stays exactly 0.0."""
    n = int(rng.integers(1, 5))
    pure = rng.random(n) < 0.5
    hot = scale * rng.uniform(0.5, 1.0, n) if rng.random() < 0.3 else rng.uniform(1.0, 3.0, n)
    mat = _block_diag(*(v * np.eye(2) for v in np.where(pure, 1.0, hot)))
    for _ in range(3 * n if n > 1 else 0):
        kind = rng.integers(1, 3)
        modes = [int(i) for i in rng.choice(n, 2, replace=False)]
        if kind == 1:
            s = two_mode_squeezer(1.0 + rng.uniform(0.0, 1.0) * math.sqrt(scale)).matrix
        else:
            s = beam_splitter(rng.uniform(0.0, 1.0)).matrix
        nxt = act_whole(mat, s, modes)
        if np.abs(nxt).max() > scale:
            break
        mat = nxt
    return 0.5 * (mat + mat.T)


def test_fast_spectrum_matches_60_digit_oracle():
    # phase-insensitive states take their x and p blocks, read from both
    # sides past _INVERSE_SIDE_SCALE, under the Cholesky bound
    rng = np.random.default_rng(20261018)
    eps = np.finfo(float).eps
    scales, pure_modes = [], 0
    for _ in range(100):
        sigma = _random_gaussian_state(rng, 10.0 ** rng.uniform(0.0, 7.0))
        oracle = _spectrum_by_general_eig(sigma, 60)
        nus, definite = _spectrum_of(sigma)
        cond = np.linalg.norm(sigma, 2) * np.linalg.norm(np.linalg.inv(sigma), 2)
        assert np.all(np.abs(nus - oracle) <= FAST_SPECTRUM_C * eps * oracle * cond)
        assert definite
        scales.append(np.abs(sigma).max())
        pure_modes += int(np.sum(np.abs(oracle - 1.0) < 1e-6))
    assert max(scales) > 1e6 and min(scales) < 10.0
    assert pure_modes > 20


def test_fast_spectrum_stack_equals_each_member_alone(monkeypatch):
    # the second member has no Cholesky factor: the phase-insensitive stack
    # is factored member by member, that one has no spectrum (a NaN row) and
    # its neighbours keep their factored spectra. The check refines the
    # definite member below 1, and only it, in high precision
    amplified = act_whole(tmsv(0.9).matrix, two_mode_squeezer(1e3).matrix, [0, 1])
    members = [
        tmsv(0.3).matrix,
        np.diag([0.5, -0.5, 1.0, 1.0]),
        amplified,
        np.diag([0.5, 0.5, 1.0, 1.0]),
    ]
    nus, definite, _ = _split_spectrum(_xp_blocks(np.stack(members)))
    assert definite.tolist() == [True, False, True, True]
    assert np.isnan(nus[1]).all() and np.isfinite(nus[[0, 2, 3]]).all()
    for k, m in enumerate(members):
        one, one_definite = _spectrum_of(m)
        assert np.array_equal(nus[k], one, equal_nan=True), k
        assert one_definite == definite[k]
    checked = _check_physical(_xp_blocks(np.stack(members[::2])))[1]
    assert np.array_equal(checked, _split_spectrum(_xp_blocks(np.stack(members[::2])))[0])
    refined = []
    real = cvqkd_attacks.gaussian._refined_spectrum

    def recorded(blocks):
        refined.append(blocks)
        return real(blocks)

    monkeypatch.setattr(cvqkd_attacks.gaussian, "_refined_spectrum", recorded)
    message = "unphysical covariance matrix: smallest symplectic eigenvalue 0.5"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        _check_physical(_xp_blocks(np.stack(members)))
    assert len(refined) == 1 and np.array_equal(refined[0], _xp_blocks(members[3]))
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        CovMat(members[3], ("m1", "m2"))
    message = "unphysical covariance matrix: not positive definite"
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


@st.composite
def lone_states(draw):
    """x block over p block (2, n, n) of one state of one or two modes,
    A diag(nu) A^T over A^-T diag(nu) A^-1 scaled to a drawn largest
    |entry|, around each edge of the float path: that entry either side of
    _INVERSE_SIDE_SCALE, the least nu either side of 1 - _REFINE_TRIGGER
    and of 1 - PHYSICALITY_TOL, and indefinite, asymmetric and non-finite
    states."""
    n = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["physical", "indefinite", "asymmetric", "non-finite"]))
    edges = [1.0 - tol * f for tol in (_REFINE_TRIGGER, PHYSICALITY_TOL) for f in (0.9, 1.0, 1.1)]
    nus = [draw(st.floats(1.0, 9.0)), draw(st.sampled_from([*edges, 1.0]) | st.floats(0.5, 4.0))]
    nus = nus[2 - n :]
    if kind == "indefinite":
        nus[-1] = -nus[-1]
    turn, shear = draw(st.floats(0.0, math.pi)), draw(st.floats(-0.9, 0.9))
    rotation = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    a = (rotation @ [[1.0, shear], [0.0, 1.0]])[:n, :n]
    inverse = np.linalg.inv(a)
    x, p = a @ np.diag(nus) @ a.T, inverse.T @ np.diag(nus) @ inverse
    cut = _INVERSE_SIDE_SCALE
    at_cut = st.sampled_from([np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)])
    scale = draw(at_cut | st.floats(1.0, 1e7)) / np.abs(x).max()
    blocks = np.array([x * scale, p / scale])
    if kind == "asymmetric" and n == 2:
        # within SYMMETRY_RTOL of the peak and symmetrized, or past it
        blocks[0, 1, 0] += draw(st.sampled_from([1e-13, 1e-11])) * np.abs(blocks).max()
    if kind == "non-finite":
        blocks[draw(st.integers(0, 1)), -1, 0] = draw(st.sampled_from([math.nan, math.inf]))
    return blocks


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(blocks=lone_states())
def test_lone_state_float_path_matches_the_stack_route_bit_for_bit(blocks):
    # a lone state of one or two modes within _INVERSE_SIDE_SCALE is
    # validated on Python floats, a stack of one on arrays: the symmetrized
    # blocks, the spectrum, the audit and any refusal must agree bit for bit
    # (one mode's nu is sqrt(x) sqrt(p); sqrt(x p) differs in the last bit)
    def lone():
        state = _checked(blocks, ("a", "b")[: blocks.shape[-1]])
        return state._blocks.tobytes(), state._nus.tobytes()

    def stacked():
        symmetrized, nus = _check_physical(blocks[:, None])
        return symmetrized[:, 0].tobytes(), nus[0].tobytes()

    assert outcome(lone) == outcome(stacked)


def test_float_path_takes_only_what_it_can_certify():
    # the stack route keeps a largest |entry| past _INVERSE_SIDE_SCALE, a
    # state without a Cholesky factor and a reading below 1 - _REFINE_TRIGGER
    squeezed = tmsv(0.5)._blocks
    assert np.array_equal(_lone_spectrum(squeezed), _split_spectrum(squeezed[:, None])[0][0])
    assert _lone_spectrum(thermal(4.0)._blocks).tolist() == [4.0]
    assert _lone_spectrum(np.array([[[2e5]], [[1e-5]]])) is None
    assert _lone_spectrum(_xp_blocks(np.diag([0.5, -0.5, 1.0, 1.0]))) is None
    assert _lone_spectrum(np.full((2, 1, 1), 1.0 - 2 * _REFINE_TRIGGER)) is None


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
        m = act_whole(tmsv(rng.uniform(0.0, 0.99)).matrix, two_mode_squeezer(g).matrix, [0, 1])
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
    amplified = act_whole(tmsv(0.9).matrix, two_mode_squeezer(1e3).matrix, [0, 1])
    blocks = _xp_blocks(amplified)
    chol = np.linalg.cholesky(blocks)
    lapack = np.linalg.svd(chol[0].T @ chol[1], compute_uv=False)
    refined = _refined_spectrum(blocks)
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
    # a definite member takes the closed form, an indefinite one no spectrum
    # (a NaN row), a graded one (entries past _INVERSE_SIDE_SCALE) LAPACK's
    # factors read from both sides: in one stack each is bit for bit its
    # lone value, and the rejection names the indefinite member's lack of
    # a factor
    graded = act_whole(tmsv(0.9).matrix, two_mode_squeezer(1e4).matrix, [0, 1])
    members = [tmsv(0.3).matrix, np.diag([0.5, -0.5, 1.0, 1.0]), 0.5 * (graded + graded.T)]
    assert _INVERSE_SIDE_SCALE < np.abs(members[2]).max() <= _HP_SCALE
    nus, definite, _ = _split_spectrum(_xp_blocks(np.stack(members)))
    assert definite.tolist() == [True, False, True]
    assert np.isnan(nus[1]).all() and np.isfinite(nus[::2]).all()
    for k, m in enumerate(members):
        one, one_definite = _spectrum_of(m)
        assert np.array_equal(nus[k], one, equal_nan=True) and one_definite == definite[k], k
    message = "unphysical covariance matrix: not positive definite"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        _check_physical(_xp_blocks(np.stack(members)))
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        CovMat(members[1], ("m1", "m2"))


@pytest.mark.parametrize(
    "matrix",
    [np.diag([0.6, -0.4]), np.diag([3.0e6, 3.0e6, 0.6, -0.4])],
    ids=["unit-scale", "high-scale"],
)
def test_non_positive_definite_matrix_is_refused_without_a_spectrum(matrix, monkeypatch):
    # no Cholesky factor, so no symplectic spectrum: |eig(Omega sigma)|
    # reads below 1 here, but the rejection names the missing factor, at
    # any scale without high precision
    assert _spectrum_by_general_eig(matrix, 30).min() < 1.0

    def forbidden(matrix, compute):
        raise AssertionError("an indefinite matrix took the high-precision route")

    monkeypatch.setattr(cvqkd_attacks.gaussian, "_high_precision", forbidden)
    message = "unphysical covariance matrix: not positive definite"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        CovMat(matrix, tuple(f"m{i}" for i in range(matrix.shape[0] // 2)))


def test_matrix_without_a_30_digit_factor_is_not_positive_definite(monkeypatch):
    # X = [[2, 1], [1, 0.5 - 2^-54]] is indefinite (det X = -2^-53), but
    # its last Cholesky pivot rounds positive in doubles, and nu_- reads
    # 6.7e-9. The refinement
    # finds no 30-digit Cholesky factor: the state has no spectrum, and it
    # is refused on that, not on a nu
    matrix = np.diag([2.0, 1.0, math.nextafter(0.5, 0.0), 1.0])
    matrix[0, 2] = matrix[2, 0] = 1.0
    nus, definite, _ = _split_spectrum(_xp_blocks(matrix[None]))
    assert definite.all() and 0.0 < nus[0, -1] < 1e-8
    assert np.isnan(_refined_spectrum(_xp_blocks(matrix))).all()
    refined = []
    real = cvqkd_attacks.gaussian._refined_spectrum
    monkeypatch.setattr(
        cvqkd_attacks.gaussian, "_refined_spectrum", lambda b: refined.append(b) or real(b)
    )
    reset_physicality_audit()
    message = "unphysical covariance matrix: not positive definite"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        CovMat(matrix, ("m1", "m2"))
    assert len(refined) == 1
    # counted once, with no nu taken from it
    assert physicality_audit() == (math.inf, 1)


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
    alice = tmsv(0.7, ("A", "B"))._blocks
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
    assert np.array_equal(nus[2], _refined_spectrum(_xp_blocks(mixed[2])))
    # the heterodyne update of attack states stays in double precision on
    # both sides of the scale, each member as it is alone
    small, labels = _attack_stack(100.0, 3)
    large, _ = _attack_stack(1e6, 3)
    mixed = np.concatenate([small, large[:1]])
    peak = np.abs(mixed).max(axis=(-2, -1))
    assert (peak[:3] <= _HP_SCALE).all() and peak[3] > _HP_SCALE
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
    peak = np.abs(mixed).max(axis=(-2, -1))
    assert (peak[:3] <= _HP_SCALE).all() and (peak[3:] > _HP_SCALE).all()

    def refuse(blocks):
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
    message = "matrix entry 3e+15 leaves fewer than 16 of the 30 high-precision digits"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        CovMat(np.diag([3e15, 3e15, 0.6, 0.4]), ("m1", "m2"))
    hot = direct_sum(tmsv(0.5, ("a", "b")), thermal(4e14, "c"))
    message = "matrix entry 4e+14 leaves fewer than 16 of the 30 high-precision digits"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        condition_heterodyne(hot, "a")


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
