"""Covariance-matrix representation of zero-mean multimode Gaussian states.

Conventions used throughout the package: quadrature ordering
(x1, p1, ..., xn, pn), x = a + a^dag, shot-noise units (vacuum
quadrature variance equals 1).

Double precision has one state model. A phase-insensitive state (every x-p
entry 0.0, as every state the package builds) is X (+) P on its x and p
quadratures: one (2, ..., n, n) stack of x blocks over p blocks, the
diagonal of _quadrature_blocks, acted on by the x and p parts of its maps,
a measured mode removed per quadrature (_heterodyne_blocks), its spectrum
read from the Cholesky factors of X and P (_split_spectrum), in closed form
for two modes. _check_physical validates such a stack on that spectrum;
_high_precision, the one importer of mpmath, takes a member that double
precision cannot certify, and the spectrum or conditioning of a matrix
that couples x and p (or a conditioning above _HP_SCALE).

A CovMat is validated where it is formed by arithmetic (a symplectic
applied, a channel, a conditioning, a reordered partial trace): on its x
and p blocks, or, if it couples x and p, by its high-precision spectrum.
tmsv, thermal and direct_sum know their spectra exactly and certify by
them (_certified), as does teleportation.ResourceState; partial_trace
keeping every mode in its order returns the state itself. _interleaved
forms the 2n x 2n matrix only where a CovMat needs it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-9
SYMPLECTIC_TOL = 1e-10

# Below this computed minimum the double-precision spectrum is re-checked in
# high precision before physicality is judged (see _check_physical).
_REFINE_TRIGGER = 1e-10

# Above this matrix scale one side of the Cholesky congruence cannot resolve
# both ends of the spectrum: its singular values carry absolute noise
# ~eps * nu_max, which swamps the near-unity nu's that physicality and the
# entropies need. There _check_physical escalates a matrix that the
# inverse side does not certify (_CERTIFIED_COND), and the public heterodyne
# and homodyne conditioning of a state switch to high precision.
_HP_SCALE = 1e6

# Past this matrix scale a phase-insensitive matrix reads its small nu's
# from the inverse side as well (_split_spectrum). The cut is measured on
# the attack's g = 1e4 states and their conditioned states, whose entries
# reach 7.7e5: read from the direct side alone, their nu_min is off the
# 60-digit oracle by up to 1.1e-11, past the 1e-11 that
# tests/test_finite_gain.py holds it to; with the inverse side from 1e5 the
# worst is 1.8e-12, and 4.9e-12 at g = 1e8, as with the 2n x 2n factor.
# Reading every matrix from both sides would cost the half-size route most
# of its speed, and the paper's g = 100 states (entries below 1e4) need only
# the direct side.
_INVERSE_SIDE_SCALE = 1e5

# Largest bound on the condition number of the diagonally equilibrated
# matrix for which a double-precision spectrum above _HP_SCALE is trusted:
# its nu's are good to a relative few eps * cond (_inverse_side), here a few
# PHYSICALITY_TOL at worst; the attack's states stay below 1e6.
_CERTIFIED_COND = PHYSICALITY_TOL / sys.float_info.epsilon

# Running audit of the smallest symplectic eigenvalue ever seen during
# CovMat validation, used by the verification suite to assert that every
# state constructed along the way respected the uncertainty principle.
_audit = {"min_nu": math.inf, "count": 0}


def reset_physicality_audit() -> None:
    _audit["min_nu"] = math.inf
    _audit["count"] = 0


def physicality_audit() -> tuple[float, int]:
    """Return (smallest symplectic eigenvalue seen, number of states checked)."""
    return _audit["min_nu"], _audit["count"]


def _record_in_audit(nu_min: np.ndarray) -> None:
    """Count each state of a stack, given its smallest symplectic eigenvalue."""
    _audit["min_nu"] = min(_audit["min_nu"], float(np.min(nu_min, initial=math.inf)))
    _audit["count"] += np.size(nu_min)


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2n x 2n symplectic form, block-diagonal [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def _high_precision(matrix: np.ndarray, compute):
    """compute(mpmath, sigma) on matrix as an mpmath matrix sigma in
    30-digit arithmetic, which turns its result into floats itself. A matrix
    whose largest |entry| leaves fewer than 16 of the 30 digits is refused
    with ValueError: there products of entries lose the near-unity nu's and
    O(1) Schur complements the callers need (at g = 1e35 the attack's Eve
    block read nu 0.998, where 60 digits give 1)."""
    import mpmath

    digits = 30
    peak = float(np.abs(matrix).max())
    if peak > 10.0 ** (digits - 16):
        raise ValueError(
            f"matrix entry {peak:.6g} leaves fewer than 16 of the {digits} high-precision digits"
        )
    with mpmath.mp.workdps(digits):
        return compute(mpmath, mpmath.matrix(matrix.tolist()))


def _refined_spectrum(matrix: np.ndarray) -> np.ndarray:
    # High-precision spectrum: near nu = 1 the double-precision eigensolver
    # carries absolute noise up to ~eps * ||matrix|| * (eigenvector
    # conditioning), which at large amplifier gains (entries ~1e10) swamps
    # the 1e-9 physicality margin even when the stored matrix is physical.
    # With sigma = L L^T, i Omega sigma is similar to the Hermitian
    # i L^T Omega L, whose eigenvalues are the same +/- nu pairs; a Hermitian
    # eigensolve is several times cheaper than a general one on Omega sigma.
    # A matrix without a Cholesky factor is not positive definite, hence
    # unphysical; the general route then reports its spectrum.
    n = matrix.shape[0] // 2

    def eigenvalues(mp, sigma):
        omega = mp.matrix(symplectic_form(n).tolist())
        try:
            chol = mp.cholesky(sigma)
        except ValueError:
            return mp.eig(omega * sigma, left=False, right=False)
        return mp.eighe(chol.T * omega * chol * 1j, eigvals_only=True)

    nus = sorted((abs(z) for z in _high_precision(matrix, eigenvalues)), reverse=True)
    return np.array([float(nus[2 * i]) for i in range(n)])


def _quadrature_blocks(matrix: np.ndarray) -> np.ndarray:
    """The x-x, x-p, p-x and p-p blocks of a (..., 2n, 2n) matrix or stack,
    as one (2, 2, ..., n, n) view indexed by the quadrature of the rows, then
    of the columns. Its diagonal, [[0, 1], [0, 1]], stacks the x blocks X
    over the p blocks P, the (2, ..., n, n) layout in which the attack
    carries its phase-insensitive states (_interleaved inverts it)."""
    lead, n = matrix.shape[:-2], matrix.shape[-1] // 2
    k = len(lead)
    axes = (k + 1, k + 3, *range(k), k, k + 2)
    return matrix.reshape(lead + (n, 2, n, 2)).transpose(axes)


def _interleaved(blocks: np.ndarray) -> np.ndarray:
    """The (..., 2n, 2n) matrix, in (x1, p1, ..., xn, pn) order, of x blocks
    over p blocks (2, ..., n, n), every x-p entry 0.0: the inverse of
    _quadrature_blocks on a phase-insensitive matrix."""
    lead, n = blocks.shape[1:-2], blocks.shape[-1]
    out = np.zeros(lead + (n, 2, n, 2))
    out[..., :, 0, :, 0] = blocks[0]
    out[..., :, 1, :, 1] = blocks[1]
    return out.reshape(lead + (2 * n, 2 * n))


def _xp_blocks(matrix: np.ndarray) -> np.ndarray:
    """X over P, (2, ..., n, n), of a matrix or stack whose x-p entries are
    all 0; one with an x-p term is rejected."""
    quads = _quadrature_blocks(matrix)
    if quads[0, 1].any() or quads[1, 0].any():
        raise ValueError("state couples its x and p quadratures; expected a phase-insensitive one")
    return quads[[0, 1], [0, 1]]


def _cholesky_each(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a (..., m, m) stack and whether each member has
    one. Each member is factored on its own when the stack's factorization
    fails, and one without a factor gets the identity as a stand-in."""
    try:
        chol = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        chol = np.full(stack.shape, np.nan)
        for i in np.ndindex(stack.shape[:-2]):
            try:
                chol[i] = np.linalg.cholesky(stack[i])
            except np.linalg.LinAlgError:
                pass
    # a NaN entry passes the factorization unflagged
    definite = np.isfinite(chol).all(axis=(-2, -1))
    if not definite.all():
        chol[~definite] = np.eye(stack.shape[-1])
    return chol, definite


def _inverse_side(blocks: np.ndarray, chol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic eigenvalues, descending, of a stack of positive-definite
    phase-insensitive matrices read from the inverse side of the
    congruence, and a bound on the condition number of each equilibrated
    matrix. blocks stacks the x blocks X = L_X L_X^T over the p blocks
    P = L_P L_P^T, (2, k, n, n), and chol their Cholesky factors.

    With D_X = diag(X_ii)^-1/2, L~_X = D_X L_X is the Cholesky factor of
    the unit-diagonal D_X X D_X (likewise for P), and L_X^-1 L_P^-T =
    L~_X^-1 D_X D_P L~_P^-T, the inverse of (L_P^T L_X), has the singular
    values 1/nu. Their absolute noise is ~eps / nu_min, so the nu's near 1
    come out to a relative few eps * cond(H), H = D sigma D, however large
    sigma's entries are (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13,
    1204 (1992)), while the direct side's are off by ~eps * nu_max.
    cond(H) <= |H| |H^-1| <= 2n (|L~_X^-1|_F^2 + |L~_P^-1|_F^2), as H's
    trace is 2n.
    """
    d = 1.0 / np.sqrt(np.diagonal(blocks, axis1=-2, axis2=-1))
    inverse = np.linalg.inv(d[..., :, None] * chol)
    scaled = inverse * d[..., None, :]  # L^-1 = L~^-1 D
    inverted = np.linalg.svd(scaled[0] @ np.swapaxes(scaled[1], -1, -2), compute_uv=False)
    cond = 2 * blocks.shape[-1] * (inverse * inverse).sum(axis=(0, -2, -1))
    with np.errstate(divide="ignore"):  # a singular value lost to underflow reads nu = inf
        return 1.0 / inverted[..., ::-1], cond


def _split_spectrum(blocks: np.ndarray):
    """Symplectic spectra, descending, of a stack of phase-insensitive
    matrices given by their x blocks over their p blocks, (2, k, n, n),
    which members are positive definite, and for each member above
    _HP_SCALE the _inverse_side condition bound (inf for one read from the
    direct side alone); 1 below the scale, where the direct side's absolute
    error ~eps * nu_max stays under the physicality margin.

    sigma is X (+) P on its x and p quadratures, so its nu's are those of
    X P (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)): with X = L_X
    L_X^T and P = L_P L_P^T, the n singular values of L_X^T L_P. A
    two-mode member whose largest |entry| is at most _INVERSE_SIDE_SCALE
    takes them in closed form (_two_mode_spectrum): a LAPACK call costs
    more than the 2 x 2 arithmetic, and the asymptotic attack's spectra are
    all of this kind. Every other member takes LAPACK's factors
    (_factored_spectrum). A member without both factors gets
    |eig(Omega sigma)| of its interleaved matrix (_eig_spectrum). The route
    is chosen per member.
    """
    k, n = blocks.shape[1], blocks.shape[-1]
    # each member's largest |entry|: a reduction along the members' axis is
    # several times faster than one over each member's few entries
    peak = np.abs(blocks).transpose(0, 2, 3, 1).reshape(2 * n * n, k).max(axis=0)
    if n == 2:
        nus, definite = _two_mode_spectrum(blocks)
        cond = np.full(k, np.inf)
        # past the scale, or with a NaN entry
        factored = ~(peak <= _INVERSE_SIDE_SCALE)
        if factored.any():
            nus[factored], definite[factored], cond[factored] = _factored_spectrum(
                blocks[:, factored], peak[factored]
            )
    else:
        nus, definite, cond = _factored_spectrum(blocks, peak)
    if not definite.all():
        nus[~definite] = _eig_spectrum(_interleaved(blocks[:, ~definite]))
    return nus, definite, np.where(peak > _HP_SCALE, cond, 1.0)


def _factored_spectrum(blocks: np.ndarray, peak: np.ndarray):
    """_split_spectrum's LAPACK route: the singular values of L_X^T L_P
    from the Cholesky factors of each member's x and p blocks, whether both
    factors exist, and the _inverse_side condition bound (inf where it is
    not taken). A member whose largest |entry| (peak) passes
    _INVERSE_SIDE_SCALE reads the nu's below sqrt(nu_max nu_min) from
    _inverse_side instead."""
    chol, definite = _cholesky_each(blocks)
    definite = definite[0] & definite[1]
    nus = np.linalg.svd(np.swapaxes(chol[0], -1, -2) @ chol[1], compute_uv=False)
    cond = np.full(len(nus), np.inf)
    graded = (peak > _INVERSE_SIDE_SCALE) & definite
    if graded.any():
        direct = nus[graded]
        inverse, cond[graded] = _inverse_side(blocks[:, graded], chol[:, graded])
        # each nu from the side on which it is large: the direct side's
        # relative error ~eps nu_max / nu is the smaller one above
        # sqrt(nu_max nu_min), the inverse side's ~eps nu / nu_min below it
        upper = direct / inverse[:, -1:] > direct[:, :1] / direct
        nus[graded] = np.where(upper, direct, inverse)
    return nus, definite, cond


def _two_mode_spectrum(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_split_spectrum's direct side for a (2, k, 2, 2) stack, written out:
    the nu's, descending, and whether each member is positive definite, as
    all four Cholesky pivots of X and P are positive: l22 > 0 holds only
    where l11 > 0, since l11 <= 0 or a NaN leaves l22 a NaN.

    With the pivots l11 = sqrt(s11), l21 = s21 / l11, l22 = sqrt(s22 -
    l21^2) of each block S (X or P, its lower triangle, as LAPACK reads it),
    M = L_X^T L_P is the product the LAPACK route forms, and its singular
    values are nu_+ = (hypot(m11 + m22, m12 - m21) + hypot(m11 - m22,
    m12 + m21)) / 2, a sum of positive terms, and nu_- = |det M| / nu_+.
    det M is taken from M's entries: the product of the pivots loses
    ~eps * cond(sigma) on a squeezed member.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # an indefinite member's pivots
        # each pivot of L_X over the same pivot of L_P, (2, k): x11 is L_X's
        # l11, p11 L_P's
        l11 = np.sqrt(blocks[..., 0, 0])
        l21 = blocks[..., 1, 0] / l11
        l22 = np.sqrt(blocks[..., 1, 1] - l21 * l21)
        (x11, p11), (x21, p21), (x22, p22) = l11, l21, l22
        m11, m12, m21, m22 = x11 * p11 + x21 * p21, x21 * p22, x22 * p21, x22 * p22
        nus = np.empty(m11.shape + (2,))
        upper = 0.5 * (np.hypot(m11 + m22, m12 - m21) + np.hypot(m11 - m22, m12 + m21))
        nus[:, 0] = upper
        # rounding can leave |det M| / nu_+ an ulp above nu_+ when they are equal
        nus[:, 1] = np.minimum(np.abs(m11 * m22 - m12 * m21) / upper, upper)
    return nus, (x22 > 0.0) & (p22 > 0.0)


def _eig_spectrum(stack: np.ndarray) -> np.ndarray:
    """|eig(Omega sigma)| of a (k, 2n, 2n) stack, descending, one per mode:
    the spectrum of a matrix without a Cholesky factor, which only words
    its rejection and feeds the audit."""
    eigs = np.linalg.eigvals(symplectic_form(stack.shape[-1] // 2) @ stack)
    # |eigs| carries each nu twice (the +/- i*nu pair); sorting makes the
    # pairs adjacent so taking every second entry deduplicates them
    return np.sort(np.abs(eigs), axis=-1)[:, ::-1][:, ::2]


def _above_hp_scale(matrix: np.ndarray) -> np.ndarray:
    """Per-matrix flag: entries beyond _HP_SCALE, where one side of the
    Cholesky congruence cannot resolve near-unity symplectic eigenvalues."""
    return np.abs(matrix).max(axis=(-2, -1)) > _HP_SCALE


def _symmetrized(mats: np.ndarray, axes) -> np.ndarray:
    """mats checked to be finite and, each member spanning axes, symmetric
    to SYMMETRY_RTOL of its largest |entry|; then symmetrized."""
    # a NaN or an inf entry leaves its member's largest |entry| non-finite
    peak = np.abs(mats).max(axis=axes)
    if not np.isfinite(peak).all():
        raise ValueError("covariance matrix must not contain infs or NaNs")
    transposed = np.swapaxes(mats, -1, -2)
    if (np.abs(mats - transposed).max(axis=axes) > SYMMETRY_RTOL * np.maximum(peak, 1.0)).any():
        raise ValueError("covariance matrix is not symmetric")
    return 0.5 * (mats + transposed)


def _check_physical(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a phase-insensitive state, or each of a stack, given as its
    x blocks over its p blocks (2, ..., n, n): finite, symmetric to
    SYMMETRY_RTOL of the scale, positive definite (read from the Cholesky
    factors the spectrum is computed from, _split_spectrum) and every
    symplectic eigenvalue >= 1 - PHYSICALITY_TOL. Returns the symmetrized
    blocks and the spectra, descending. A member that double precision
    cannot certify takes the high-precision spectrum of its interleaved
    matrix (_refined_spectrum): above _HP_SCALE, an equilibrated condition
    bound past _CERTIFIED_COND or no Cholesky factor; at any scale, a
    reading below 1 - _REFINE_TRIGGER. Each member counts once in the
    physicality audit, as one CovMat construction would; a stack with an
    unphysical member is counted whole, then rejected with the message the
    first such member would raise on its own.
    """
    blocks = _symmetrized(blocks, (0, -2, -1))
    lead, n = blocks.shape[1:-2], blocks.shape[-1]
    flat = blocks.reshape(2, -1, n, n)
    nus, definite, cond = _split_spectrum(flat)
    # the spectra are descending: the last column holds each minimum
    refine = (cond > _CERTIFIED_COND) | (nus[:, -1] < 1.0 - _REFINE_TRIGGER)
    for i in refine.nonzero()[0]:
        nus[i] = _refined_spectrum(_interleaved(flat[:, i]))
    nus = nus.reshape(lead + (n,))
    _judge(nus, definite)
    return blocks, nus


def _judge(nus: np.ndarray, definite=True) -> None:
    """Count each state of descending spectra nus in the physicality audit,
    then reject the first with a nu below 1 - PHYSICALITY_TOL, then any
    not positive definite."""
    nu_min = nus[..., -1]
    _record_in_audit(nu_min)
    low = nu_min < 1.0 - PHYSICALITY_TOL
    if low.any():
        raise ValueError(
            f"unphysical covariance matrix: smallest symplectic eigenvalue {nu_min[low][0]:.12g}"
        )
    # |eig(Omega sigma)| cannot see the sign of sigma: sigma + i Omega >= 0
    # also needs sigma > 0, which an indefinite matrix fails
    if not np.all(definite):
        raise ValueError("unphysical covariance matrix: not positive definite")


def _mode_labels(n: int, labels) -> tuple[str, ...]:
    """A state's n mode labels as strings, checked to be n distinct ones."""
    labels = tuple(str(lbl) for lbl in labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} mode labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise ValueError(f"mode labels must be unique, got {labels}")
    return labels


@dataclass(frozen=True, eq=False)
class CovMat:
    """A labeled covariance matrix of n modes.

    matrix: real symmetric 2n x 2n array in (x1, p1, ..., xn, pn) ordering.
    labels: n distinct mode identifiers, positionally aligned with the
        2x2 diagonal blocks.

    Construction validates symmetry and physicality numerically (every
    symplectic eigenvalue >= 1 - 1e-9, and the matrix positive definite,
    as the module docstring says) and freezes the array. tmsv, thermal and
    direct_sum build theirs through _certified instead, with the same label
    checks, from a spectrum known exactly.
    """

    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 or not mat.size:
            raise ValueError(f"covariance matrix must be 2n x 2n, got shape {mat.shape}")
        labels = _mode_labels(mat.shape[0] // 2, self.labels)
        quads = _quadrature_blocks(mat)
        if quads[0, 1].any() or quads[1, 0].any():
            # a matrix that couples x and p has no double-precision route
            mat = _symmetrized(mat, (-2, -1))
            nus = _refined_spectrum(mat)
            _judge(nus, _cholesky_each(mat)[1])
        else:
            blocks, nus = _check_physical(quads[[0, 1], [0, 1]])
            mat = _interleaved(blocks)
        self._freeze(mat, nus, labels)

    def _freeze(self, mat: np.ndarray, nus: np.ndarray, labels: tuple[str, ...]) -> None:
        mat.flags.writeable = False
        nus.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_nus", nus)

    @property
    def n_modes(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown mode label {label!r}; state has {self.labels}") from None

    def block(self, label_row: str, label_col: str) -> np.ndarray:
        """The 2x2 block coupling two modes (a copy)."""
        i, j = 2 * self.index(label_row), 2 * self.index(label_col)
        return self.matrix[i : i + 2, j : j + 2].copy()


def _certified(mat: np.ndarray, labels, nus) -> CovMat:
    """A CovMat of a fresh symmetric float matrix whose symplectic spectrum
    nus (in any order) is known exactly, from a closed form or as the union
    of validated parts: CovMat's label checks, its rejection of non-finite
    entries and of a nu below 1 - PHYSICALITY_TOL, the frozen arrays, and
    one count in the physicality audit at nus' least member, but no
    numerical spectrum. Positive definiteness is the caller's to know, as
    its closed form does (tmsv, thermal, a direct sum of valid states, a
    two-mode standard form with nu_- > 0)."""
    labels = _mode_labels(mat.shape[-1] // 2, labels)
    if not np.isfinite(mat).all():
        raise ValueError("covariance matrix must not contain infs or NaNs")
    nus = np.sort(np.asarray(nus, dtype=float))[::-1].copy()
    _judge(nus)
    state = object.__new__(CovMat)
    state._freeze(mat, nus, labels)
    return state


def _two_mode_std(a, b, c_plus, c_minus) -> np.ndarray:
    """The raw standard-form two-mode matrix; array entries give a stack."""
    m = np.zeros(np.broadcast(a, b, c_plus, c_minus).shape + (4, 4))
    m[..., 0, 0] = m[..., 1, 1] = a
    m[..., 2, 2] = m[..., 3, 3] = b
    m[..., 0, 2] = m[..., 2, 0] = c_plus
    m[..., 1, 3] = m[..., 3, 1] = c_minus
    return m


@dataclass(frozen=True, eq=False)
class Symplectic:
    """A real symplectic matrix acting on `arity` modes (S Omega S^T = Omega),
    or a (..., 2 arity, 2 arity) stack of them, each checked on its own."""

    matrix: np.ndarray
    arity: int

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.shape[-2:] != (2 * self.arity, 2 * self.arity):
            raise ValueError(
                f"symplectic on {self.arity} modes must be {2*self.arity}x{2*self.arity}, "
                f"got {mat.shape}"
            )
        omega = symplectic_form(self.arity)
        dev = np.abs(mat @ omega @ np.swapaxes(mat, -1, -2) - omega).max(axis=(-2, -1))
        # S Omega S^T entries are products of two entries of S, so rounding
        # scales with |S|^2; the tolerance is relative to that scale.
        scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)) ** 2)
        bad = dev > SYMPLECTIC_TOL * scale
        if bad.any():
            raise ValueError(
                f"matrix is not symplectic (S Omega S^T deviates by {dev[bad][0]:.3g})"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def _tmsv_textbook(gamma):
    """The textbook tmsv entries a = (1 + gamma^2)/(1 - gamma^2) and
    c = 2 gamma/(1 - gamma^2), as rounded doubles, for a float or an array;
    _tmsv_entries rounds c to the physical side."""
    denom = 1.0 - gamma * gamma
    return (1.0 + gamma * gamma) / denom, 2.0 * gamma / denom


def _tmsv_entries(gamma: float) -> tuple[float, float]:
    """Standard-form (a, c) for a two-mode squeezed vacuum, physically rounded.

    The textbook entries rounded to doubles can land on a matrix whose exact
    smallest symplectic eigenvalue sits a few 1e-9 below 1; the per-ulp
    granularity of nu grows with the squeezing, so no choice of formula fixes
    this. c is the largest double at most the textbook c for which the
    stored pair satisfies (a - c)(a + c) >= 1 exactly, keeping the state on
    the physical side. That is within a couple of ulps of the textbook c at
    large squeezing, and further below it (relatively ~eps / gamma^2) at
    small squeezing, where a - 1 carries few bits. The search starts from
    sqrt((a - 1)(a + 1)), within a few ulps of the answer at any squeezing,
    and settles in one to four exact checks.
    """
    a, textbook = _tmsv_textbook(gamma)
    # the test runs on the exact binary values: with a = p/q and c = r/s
    # (q, s powers of two), a^2 - c^2 >= 1 is p^2 s^2 - r^2 q^2 >= q^2 s^2
    p, q = a.as_integer_ratio()

    def physical(c: float) -> bool:
        r, s = c.as_integer_ratio()
        return (p * s) ** 2 - (r * q) ** 2 >= (q * s) ** 2

    c = min(textbook, math.sqrt((a - 1.0) * (a + 1.0)))
    while not physical(c):
        c = math.nextafter(c, 0.0)
    while c < textbook and physical(math.nextafter(c, math.inf)):
        c = math.nextafter(c, math.inf)
    return a, c


def _tmsv_nu(a, c):
    """The symplectic eigenvalue of both modes of a tmsv with stored entries
    (a, c), sqrt((a - c)(a + c)), good to a few ulps; >= 1 for the entries
    of _tmsv_entries, which make (a - c)(a + c) >= 1 exactly."""
    return np.sqrt((a - c) * (a + c))


def _tmsv_matrices(gamma: np.ndarray) -> np.ndarray:
    """tmsv(gamma)'s matrix for each gamma of an array, from _tmsv_entries,
    counted in the physicality audit as one tmsv each, at its closed-form
    _tmsv_nu."""
    gamma = np.asarray(gamma, dtype=float)
    entries = np.reshape([_tmsv_entries(x) for x in gamma.ravel().tolist()], gamma.shape + (2,))
    a, c = entries[..., 0], entries[..., 1]
    _record_in_audit(_tmsv_nu(a, c))
    return _two_mode_std(a, a, c, -c)


def tmsv(gamma: float, labels: tuple[str, str] = ("m1", "m2")) -> CovMat:
    """Two-mode squeezed vacuum with squeezing parameter gamma in [0, 1).

    Entries a = b = (1 + gamma^2)/(1 - gamma^2), c = 2 gamma/(1 - gamma^2)
    with sign pattern diag(c, -c) on the cross block, physically rounded
    (_tmsv_entries). Certified by its closed-form spectrum, _tmsv_nu for
    both modes.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"tmsv squeezing must lie in [0, 1), got {gamma}")
    a, c = _tmsv_entries(gamma)
    nu = _tmsv_nu(a, c)
    return _certified(_two_mode_std(a, a, c, -c), labels, (nu, nu))


def thermal(variance: float, label: str = "m1") -> CovMat:
    """Single thermal mode diag(variance, variance); variance = 1 is vacuum.
    Certified by its spectrum, nu = variance."""
    if variance < 1.0:
        raise ValueError(f"thermal variance must be >= 1, got {variance}")
    return _certified(np.diag([variance, variance]).astype(float), (label,), (variance,))


def _squeezer_parts(g: float) -> np.ndarray:
    """two_mode_squeezer's x part over its p part, (2, 2, 2), range-checked,
    for the raw pipelines."""
    if g < 1.0:
        raise ValueError(f"squeezer gain must be >= 1, got {g}")
    sg = math.sqrt(g)
    sgm = math.sqrt(g - 1.0)
    return np.array([[[sg, sgm], [sgm, sg]], [[sg, -sgm], [-sgm, sg]]])


def two_mode_squeezer(g: float) -> Symplectic:
    """Two-mode squeezer of gain g = cosh^2(r) >= 1.

    Diagonal blocks sqrt(g) I2, off-diagonal blocks diag(sqrt(g-1), -sqrt(g-1)).
    """
    return Symplectic(_interleaved(_squeezer_parts(g)), 2)


def _splitter_part(t) -> np.ndarray:
    """beam_splitter's x part, which is its p part too, or the stack of
    them, (..., 2, 2), range-checked, for the raw pipelines."""
    t = np.asarray(t, dtype=float)
    outside = ~((0.0 <= t) & (t <= 1.0))
    if outside.any():
        raise ValueError(f"beam splitter transmissivity must lie in [0, 1], got {t[outside][0]}")
    st = np.sqrt(t)
    sr = np.sqrt(1.0 - t)
    part = np.empty(t.shape + (2, 2))
    part[..., 0, 0] = part[..., 1, 1] = st
    part[..., 0, 1] = -sr
    part[..., 1, 0] = sr
    return part


def beam_splitter(t) -> Symplectic:
    """Beam splitter of transmissivity t in [0, 1]; an array of t gives the
    stack of splitters, one per entry.

    First output = sqrt(t) m1 - sqrt(1-t) m2, second = sqrt(1-t) m1 + sqrt(t) m2.
    """
    part = _splitter_part(t)
    return Symplectic(_interleaved(np.array([part, part])), 2)


def direct_sum(*states: CovMat) -> CovMat:
    """Combine independent states into one; labels are concatenated and must
    stay unique. The matrix is block-diagonal, so its spectrum is exactly the
    union of the parts' validated ones, by which it is certified."""
    if not states:
        raise ValueError("direct_sum needs at least one state")
    labels = tuple(lbl for s in states for lbl in s.labels)
    nus = np.concatenate([s._nus for s in states])
    return _certified(_block_diag(*(s.matrix for s in states)), labels, nus)


def apply_symplectic(state: CovMat, s: Symplectic, target_labels: tuple[str, ...]) -> CovMat:
    """Apply a symplectic to the designated modes: sigma -> S sigma S^T with S
    embedded as identity on every other mode."""
    target = tuple(target_labels)
    if len(target) != s.arity:
        raise ValueError(f"symplectic acts on {s.arity} modes, got {len(target)} labels")
    idx = [state.index(lbl) for lbl in target]
    if len(set(idx)) != len(idx):
        raise ValueError(f"target labels must be distinct, got {target}")
    return CovMat(_act_on_modes(state.matrix, s.matrix, idx), state.labels)


def partial_trace(state: CovMat, keep_labels: tuple[str, ...]) -> CovMat:
    """Restrict to the kept modes (principal submatrix), reordered to
    keep_labels. Keeping every mode in its order returns the (frozen) state
    itself."""
    keep = tuple(keep_labels)
    if keep == state.labels:
        return state
    if not keep:
        raise ValueError("must keep at least one mode")
    idx = [state.index(lbl) for lbl in keep]
    if len(set(idx)) != len(idx):
        raise ValueError(f"keep labels must be distinct, got {keep}")
    rows = np.concatenate([[2 * i, 2 * i + 1] for i in idx])
    return CovMat(state.matrix[np.ix_(rows, rows)], keep)


def symplectic_eigenvalues(state: CovMat) -> np.ndarray:
    """Symplectic eigenvalues of the state, one per mode, descending."""
    return state._nus.copy()


def _spectrum_entropy(nus, pure_tol: float = 1e-12):
    """Von Neumann entropy in bits of a symplectic spectrum; of a stack of
    spectra, one entropy per row.

    Each mode adds (nu+1)/2 log2 (nu+1)/2 - (nu-1)/2 log2 (nu-1)/2. pure_tol
    is the spectrum's own noise: a mode within it of nu = 1 counts as pure
    and adds 0, the 0 log 0 limit. Next to nu = 1 the term is
    ~(nu-1)/2 log2(2e/(nu-1)), up to 2e-11 bits at the default.
    """
    nus = np.asarray(nus, dtype=float)
    hi = 0.5 * (nus + 1.0)
    lo = 0.5 * (nus - 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = hi * np.log2(hi) - lo * np.log2(lo)
        # the direct form subtracts two ~nu log2 nu sized terms; at large nu
        # that cancellation costs more absolute accuracy than the result has
        product = 0.25 * (nus - 1.0) * (nus + 1.0)
        # beyond nu ~ 2.7e154 the product overflows; its log is then a sum
        log_product = np.where(np.isinf(product), np.log2(lo) + np.log2(hi), np.log2(product))
        large = 0.5 * nus * np.log1p(2.0 / (nus - 1.0)) / math.log(2.0) + 0.5 * log_product
    terms = np.where(nus <= 1.0 + pure_tol, 0.0, np.where(nus > 1.0e4, large, direct))
    total = terms.sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def von_neumann_entropy(state: CovMat) -> float:
    """Von Neumann entropy in bits, summed over the symplectic eigenvalues."""
    return _spectrum_entropy(state._nus)


def _conditioned_state(state: CovMat, measured_label: str, quadrature: str | None) -> CovMat:
    """The other modes after a heterodyne (quadrature None) or homodyne
    measurement of one: the attack's block update (_heterodyne_blocks) for a
    phase-insensitive state below _HP_SCALE; for any other the Schur
    complement in high precision, as it cancels ~|sigma| down to O(1):
    a - c (b + I)^-1 c^T, or a - c_q c_q^T / b_qq for homodyne of q."""
    if state.n_modes < 2:
        raise ValueError("cannot condition away the only remaining mode")
    m = state.index(measured_label)
    keep = [j for j in range(state.n_modes) if j != m]
    labels = tuple(state.labels[j] for j in keep)
    quads = _quadrature_blocks(state.matrix)
    if not (_above_hp_scale(state.matrix) or quads[0, 1].any() or quads[1, 0].any()):
        blocks = _heterodyne_blocks(quads[[0, 1], [0, 1]], m, keep, quadrature)
        return CovMat(_interleaved(blocks), labels)
    # the measured mode's rows last, so that a, c and b are slices
    order = np.ravel([(2 * j, 2 * j + 1) for j in [*keep, m]])
    k = 2 * len(keep)

    def schur(mp, sigma):
        a, c, b = sigma[:k, :k], sigma[:k, k:], sigma[k:, k:]
        if quadrature is None:
            x = a - c * (b + mp.eye(2)) ** -1 * c.T
        else:
            q = "xp".index(quadrature)
            x = a - c[:, q] * c[:, q].T / b[q, q]
        return np.array(x.tolist(), dtype=float)

    return CovMat(_high_precision(state.matrix[np.ix_(order, order)], schur), labels)


def condition_heterodyne(state: CovMat, measured_label: str) -> CovMat:
    """Remaining covariance after an ideal heterodyne measurement of one mode.

    The conditional matrix sigma_rest - sigma_cross (sigma_meas + I)^-1
    sigma_cross^T does not depend on the measurement outcome. Above
    _HP_SCALE, or for a state that couples x and p, it runs in high
    precision (_conditioned_state).
    """
    return _conditioned_state(state, measured_label, None)


def condition_homodyne(state: CovMat, measured_label: str, quadrature: str = "x") -> CovMat:
    """Remaining covariance after an ideal homodyne measurement of one quadrature.

    Above _HP_SCALE, or for a state that couples x and p, the Schur
    complement runs in high precision, as the heterodyne one does; without
    it, amplified states such as apply_symplectic's two_mode_squeezer output
    read unphysical.
    """
    if quadrature not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    return _conditioned_state(state, measured_label, quadrature)


# Raw-array plumbing for the multimode pipelines. Intermediate states of a
# long interferometer are scratch arithmetic, not results; working on bare
# ndarrays here keeps CovMat construction (and its physicality audit) at the
# contract boundaries where a state is actually handed back. The state-level
# operations above call the same functions, so each Gaussian operation lives
# here once; they alone switch a conditioning to high precision.


def _block_diag(*mats: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of independent modes' covariance blocks. Members
    may be (..., k, k) stacks; their leading axes broadcast."""
    lead = np.broadcast_shapes(*(m.shape[:-2] for m in mats))
    dim = sum(m.shape[-1] for m in mats)
    out = np.zeros(lead + (dim, dim))
    at = 0
    for m in mats:
        k = m.shape[-1]
        out[..., at : at + k, at : at + k] = m
        at += k
    return out


def _embedded(s: np.ndarray, idx, dim: int, width: int = 2) -> np.ndarray:
    """A map on the mode slots idx (or a stack of them) embedded in dim rows
    as identity on every other mode; width is a mode's number of rows: 2
    for a whole map, 1 for its x or p part."""
    rows = np.ravel([range(width * i, width * (i + 1)) for i in idx])
    full = np.broadcast_to(np.eye(dim), s.shape[:-2] + (dim, dim)).copy()
    full[..., rows[:, None], rows] = s
    return full


def _act_on_modes(mat: np.ndarray, s: np.ndarray, idx) -> np.ndarray:
    """sigma -> S sigma S^T for a symplectic S on the mode slots idx, embedded
    as identity on every other mode. Either may be a stack; leading axes
    broadcast."""
    full = _embedded(s, idx, mat.shape[-1])
    return full @ mat @ np.swapaxes(full, -1, -2)


def _channel_on_mode(mat: np.ndarray, i: int, tau: float, v: float) -> np.ndarray:
    """Apply a phase-insensitive channel (tau, v) to mode slot i of a raw
    matrix or of each matrix in a stack."""
    out = mat.copy()
    sl = slice(2 * i, 2 * i + 2)
    root = math.sqrt(tau)
    out[..., sl, :] *= root
    out[..., :, sl] *= root
    out[..., sl, sl] += v * np.eye(2)
    return out


def _heterodyne_blocks(blocks: np.ndarray, m: int, keep, quadrature: str | None = None):
    """The x and p blocks of the modes keep of a phase-insensitive state,
    given as x blocks over p blocks (2, ..., n, n), after a heterodyne
    measurement of mode m, or a homodyne one of its quadrature "x" or "p":
    per quadrature the rank-one update a - (c w) c^T, with the weight
    w = 1 / (b + 1) for heterodyne, and for homodyne 1 / b on the measured
    quadrature and 0 on the other, whose block it keeps. Double precision
    holds it when the measured mode is not amplified against the kept ones,
    as in every state the attack conditions."""
    keep = np.asarray(keep)
    a = blocks[..., keep[:, None], keep]
    c = blocks[..., keep, m]
    b = blocks[..., m, m]
    if quadrature is None:
        weight = 1.0 / (b + 1.0)
    else:
        q = "xp".index(quadrature)
        weight = np.zeros_like(b)
        weight[q] = 1.0 / b[q]
    scaled = c * weight[..., None]
    return a - scaled[..., :, None] * c[..., None, :]
