"""Covariance-matrix representation of zero-mean multimode Gaussian states.

Conventions used throughout the package: quadrature ordering
(x1, p1, ..., xn, pn), x = a + a^dag, shot-noise units (vacuum
quadrature variance equals 1).

A CovMat is validated where it is formed by arithmetic (a symplectic
applied, a channel, a conditioning, a reordered partial trace): its
symplectic spectrum is computed numerically and checked. tmsv, thermal and
direct_sum know their spectra exactly, from a closed form or as the union of
their already-validated parts, and certify by it (_certified), as does
teleportation.ResourceState; partial_trace keeping every mode in its order
returns the state itself. A numerical spectrum comes from Cholesky factors:
of the n x n x and p blocks for a phase-insensitive matrix (every x-p entry
0.0, as every state the package builds), of the whole 2n x 2n matrix for
any other (_spectrum_and_conditioning). mpmath is imported only by the
high-precision routines that use it.

A phase-insensitive state is X (+) P on its x and p quadratures, and the
attack path carries it that way: one (2, ..., n, n) stack of its x blocks
over its p blocks, the diagonal of _quadrature_blocks, acted on by the x and
p parts of its maps (_squeezer_parts, _splitter_part). _interleaved forms
the 2n x 2n matrix only where a CovMat or _check_physical needs it.
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
# high precision before physicality is judged (see _symplectic_spectrum).
_REFINE_TRIGGER = 1e-10

# Above this matrix scale one side of the Cholesky congruence cannot resolve
# both ends of the spectrum: its singular values carry absolute noise
# ~eps * nu_max, which swamps the near-unity nu's that physicality and the
# entropies need. There _symplectic_spectrum escalates a matrix that the
# inverse side does not certify (_CERTIFIED_COND), or that has no inverse
# side because its x and p quadratures couple, and the public heterodyne and
# homodyne conditioning of a state switch to high precision.
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


def _refined_spectrum(matrix: np.ndarray) -> np.ndarray:
    # High-precision fallback: near nu = 1 the double-precision eigensolver
    # carries absolute noise up to ~eps * ||matrix|| * (eigenvector
    # conditioning), which at large amplifier gains (entries ~1e10) swamps
    # the 1e-9 physicality margin even when the stored matrix is physical.
    # With sigma = L L^T, i Omega sigma is similar to the Hermitian
    # i L^T Omega L, whose eigenvalues are the same +/- nu pairs; a Hermitian
    # eigensolve is several times cheaper than a general one on Omega sigma.
    # A matrix without a Cholesky factor is not positive definite, hence
    # unphysical; the general route then reports its spectrum as before.
    import mpmath

    n = matrix.shape[0] // 2
    with mpmath.mp.workdps(30):
        try:
            chol = mpmath.cholesky(mpmath.matrix(matrix.tolist()))
        except ValueError:
            k = mpmath.matrix((symplectic_form(n) @ matrix).tolist())
            eigs = mpmath.eig(k, left=False, right=False)
        else:
            herm = chol.T * mpmath.matrix(symplectic_form(n).tolist()) * chol * 1j
            eigs = mpmath.eighe(herm, eigvals_only=True)
    nus = sorted((abs(z) for z in eigs), reverse=True)
    return np.array([float(nus[2 * i]) for i in range(n)])


def _omega_times(x: np.ndarray) -> np.ndarray:
    """Omega x for a (..., 2n, k) stack: each row pair swapped, the new
    second row negated (no product with Omega)."""
    out = np.empty_like(x)
    out[..., 0::2, :] = x[..., 1::2, :]
    out[..., 1::2, :] = -x[..., 0::2, :]
    return out


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
    L_X^T and P = L_P L_P^T, the n singular values of L_X^T L_P. Members
    whose largest |entry| passes _INVERSE_SIDE_SCALE read the nu's below
    sqrt(nu_max nu_min) from _inverse_side instead. A member without both
    factors gets |eig(Omega sigma)| of its interleaved matrix (_eig_spectrum).
    """
    peak = np.abs(blocks).max(axis=(0, -2, -1))
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
    if not definite.all():
        nus[~definite] = _eig_spectrum(_interleaved(blocks[:, ~definite]))
    return nus, definite, np.where(peak > _HP_SCALE, cond, 1.0)


def _coupled_spectrum(stack: np.ndarray):
    """_split_spectrum's results for a (k, 2n, 2n) stack of matrices that
    couple x and p: the singular values of K = L^T Omega L from the 2n x 2n
    factor sigma = L L^T, each twice, and a condition bound of inf above
    _HP_SCALE, where such a matrix has no inverse side."""
    chol, definite = _cholesky_each(stack)
    k = np.swapaxes(chol, -1, -2) @ _omega_times(chol)
    nus = np.linalg.svd(k, compute_uv=False)[:, ::2]
    if not definite.all():
        nus[~definite] = _eig_spectrum(stack[~definite])
    peak = np.abs(stack).max(axis=(-2, -1))
    return nus, definite, np.where(peak > _HP_SCALE, np.inf, 1.0)


def _eig_spectrum(stack: np.ndarray) -> np.ndarray:
    """|eig(Omega sigma)| of a (k, 2n, 2n) stack, descending, one per mode:
    the spectrum of a matrix without a Cholesky factor, which only words
    its rejection and feeds the audit."""
    eigs = np.linalg.eigvals(symplectic_form(stack.shape[-1] // 2) @ stack)
    # |eigs| carries each nu twice (the +/- i*nu pair); sorting makes the
    # pairs adjacent so taking every second entry deduplicates them
    return np.sort(np.abs(eigs), axis=-1)[:, ::-1][:, ::2]


def _spectrum_and_conditioning(stack: np.ndarray):
    """Symplectic eigenvalues in double precision, descending, of each
    matrix of a flat (k, 2n, 2n) stack, whether each is positive definite,
    and for each above _HP_SCALE a bound on its equilibrated condition
    number: from _inverse_side for a phase-insensitive matrix with a
    Cholesky factor, inf for any other, which _symplectic_spectrum then
    certifies in high precision; 1 below the scale.

    Each matrix takes its route on its own, so a member's result never
    depends on its neighbours: a phase-insensitive one, every x-p entry
    exactly 0.0, as tmsv, beam splitters, two-mode squeezers, loss channels
    and Schur complements leave them, its x and p blocks (_split_spectrum);
    any other its 2n x 2n factor (_coupled_spectrum). Each nu is good to a
    relative few eps * cond(sigma), as the factorization is backward
    stable; one without a Cholesky factor gets |eig(Omega sigma)|."""
    quads = _quadrature_blocks(stack)
    split = ~(quads[0, 1].any(axis=(-2, -1)) | quads[1, 0].any(axis=(-2, -1)))
    if split.all():
        return _split_spectrum(quads[[0, 1], [0, 1]])
    nus = np.empty((len(stack), stack.shape[-1] // 2))
    definite = np.empty(len(stack), dtype=bool)
    cond = np.empty(len(stack))
    if split.any():
        nus[split], definite[split], cond[split] = _split_spectrum(quads[[0, 1], [0, 1]][:, split])
    nus[~split], definite[~split], cond[~split] = _coupled_spectrum(stack[~split])
    return nus, definite, cond


def _above_hp_scale(matrix: np.ndarray) -> np.ndarray:
    """Per-matrix flag: entries beyond _HP_SCALE, where one side of the
    Cholesky congruence cannot resolve near-unity symplectic eigenvalues."""
    return np.abs(matrix).max(axis=(-2, -1)) > _HP_SCALE


def _symplectic_spectrum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double-precision spectra of a matrix or of each matrix in a
    (..., 2n, 2n) stack, and whether each is positive definite
    (_spectrum_and_conditioning), with each matrix that double precision
    cannot certify given its high-precision spectrum instead: above
    _HP_SCALE, one whose equilibrated condition bound exceeds
    _CERTIFIED_COND, that couples x and p or that has no Cholesky factor;
    at any scale, one reading below 1 - _REFINE_TRIGGER.
    The escalation is decided per matrix, so one such member never sends the
    whole stack there; positive definiteness is the double-precision
    factorization's verdict at every scale."""
    lead, n = matrix.shape[:-2], matrix.shape[-1] // 2
    stack = matrix.reshape((-1,) + matrix.shape[-2:])
    nus, definite, cond = _spectrum_and_conditioning(stack)
    # the spectra are descending: the last column holds each minimum
    refine = (cond > _CERTIFIED_COND) | (nus[:, -1] < 1.0 - _REFINE_TRIGGER)
    for i in refine.nonzero()[0]:
        nus[i] = _refined_spectrum(stack[i])
    return nus.reshape(lead + (n,)), definite.reshape(lead)


def _mode_index(labels: tuple[str, ...], label: str) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise ValueError(f"unknown mode label {label!r}; state has {labels}") from None


def _check_physical(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a covariance matrix, or each of a (..., 2n, 2n) stack, and
    return the symmetrized matrices with their symplectic spectra.

    Finite entries, symmetry to SYMMETRY_RTOL of the scale, every
    symplectic eigenvalue >= 1 - PHYSICALITY_TOL, and positive
    definiteness, read from the Cholesky factorization the spectrum is
    computed from (_symplectic_spectrum), so each matrix is factored once.
    Each matrix counts once in the physicality audit, as one CovMat
    construction would; a stack with an unphysical member is counted whole,
    then rejected with the message the first such member would raise on its
    own.
    """
    # a NaN or an inf entry leaves its matrix's largest |entry| non-finite
    peak = np.abs(mats).max(axis=(-2, -1))
    if not np.isfinite(peak).all():
        raise ValueError("covariance matrix must not contain infs or NaNs")
    transposed = np.swapaxes(mats, -1, -2)
    if (np.abs(mats - transposed).max(axis=(-2, -1)) > SYMMETRY_RTOL * np.maximum(peak, 1.0)).any():
        raise ValueError("covariance matrix is not symmetric")
    mats = 0.5 * (mats + transposed)
    nus, definite = _symplectic_spectrum(mats)
    nu_min = nus[..., -1]  # the spectra are descending
    _record_in_audit(nu_min)
    _reject_below_physical(nu_min)
    # |eig(Omega sigma)| cannot see the sign of sigma: sigma + i Omega >= 0
    # also needs sigma > 0, which an indefinite matrix fails
    if not definite.all():
        raise ValueError("unphysical covariance matrix: not positive definite")
    return mats, nus


def _reject_below_physical(nu_min) -> None:
    """Raise for the first smallest symplectic eigenvalue, of one state or
    of a stack, below 1 - PHYSICALITY_TOL."""
    nu_min = np.asarray(nu_min)
    low = nu_min < 1.0 - PHYSICALITY_TOL
    if low.any():
        raise ValueError(
            f"unphysical covariance matrix: smallest symplectic eigenvalue {nu_min[low][0]:.12g}"
        )


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
    _check_physical) and freezes the array. tmsv, thermal and direct_sum
    build theirs through _certified instead, with the same label checks,
    from a spectrum known exactly.
    """

    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 or not mat.size:
            raise ValueError(f"covariance matrix must be 2n x 2n, got shape {mat.shape}")
        labels = _mode_labels(mat.shape[0] // 2, self.labels)
        self._freeze(*_check_physical(mat), labels)

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
        return _mode_index(self.labels, label)

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
    _record_in_audit(nus[-1])
    _reject_below_physical(nus[-1])
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


def _schur_hp(a: np.ndarray, c: np.ndarray, b: np.ndarray, quadrature: str | None) -> np.ndarray:
    # The subtraction cancels ~|sigma| down to O(1) entries, so double
    # precision would leave absolute errors ~eps * |sigma| in the result.
    # quadrature None is heterodyne, a - c (b + I)^-1 c^T; "x" or "p" is the
    # homodyne a - c_q c_q^T / b_qq on that quadrature's column.
    import mpmath

    with mpmath.mp.workdps(40):
        am = mpmath.matrix(a.tolist())
        cm = mpmath.matrix(c.tolist())
        bm = mpmath.matrix(b.tolist())
        if quadrature is None:
            bm[0, 0] += 1
            bm[1, 1] += 1
            x = am - cm * (bm**-1) * cm.T
        else:
            q = "xp".index(quadrature)
            cq = cm[:, q]
            x = am - cq * cq.T / bm[q, q]
    return np.array([[float(x[i, j]) for j in range(x.cols)] for i in range(x.rows)])


def _conditioned_state(state: CovMat, measured_label: str, quadrature: str | None) -> CovMat:
    """_condition_raw on a state, in high precision above _HP_SCALE, where
    a state amplified in a raw basis needs it (_schur_hp)."""
    if not _above_hp_scale(state.matrix):
        return CovMat(*_condition_raw(state.matrix, state.labels, measured_label, quadrature))
    a, c, b, rest = _split_for_measurement(state.matrix, state.labels, measured_label)
    return CovMat(_schur_hp(a, c, b, quadrature), rest)


def condition_heterodyne(state: CovMat, measured_label: str) -> CovMat:
    """Remaining covariance after an ideal heterodyne measurement of one mode.

    The conditional matrix sigma_rest - sigma_cross (sigma_meas + I)^-1
    sigma_cross^T does not depend on the measurement outcome. Above
    _HP_SCALE it runs in high precision.
    """
    return _conditioned_state(state, measured_label, None)


def condition_homodyne(state: CovMat, measured_label: str, quadrature: str = "x") -> CovMat:
    """Remaining covariance after an ideal homodyne measurement of one quadrature.

    Above _HP_SCALE the Schur complement runs in high precision, as the
    heterodyne one does; without it, amplified states such as
    apply_symplectic's two_mode_squeezer output read unphysical.
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


def _split_for_measurement(mat: np.ndarray, labels: tuple[str, ...], measured_label: str):
    """(rest, cross, measured) blocks of a raw matrix, or of each matrix in a
    stack, and the surviving labels."""
    if len(labels) < 2:
        raise ValueError("cannot condition away the only remaining mode")
    i = _mode_index(labels, measured_label)
    rest = [j for j in range(len(labels)) if j != i]
    rest_rows = np.concatenate([[2 * j, 2 * j + 1] for j in rest])
    meas_rows = np.array([2 * i, 2 * i + 1])
    a = mat[..., rest_rows[:, None], rest_rows]
    c = mat[..., rest_rows[:, None], meas_rows]
    b = mat[..., meas_rows[:, None], meas_rows]
    return a, c, b, tuple(labels[j] for j in rest)


def _condition_raw(
    mat: np.ndarray,
    labels: tuple[str, ...],
    measured_label: str,
    quadrature: str | None = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Schur complement of a raw matrix, or of each matrix in a stack, left
    by an ideal measurement of one mode, and the surviving labels, in double
    precision at every scale.

    quadrature None is heterodyne, a - c (b + I)^-1 c^T; "x" or "p" is
    homodyne of that quadrature, with the pseudo-inverse of b projected on
    it in place of (b + I)^-1. It takes any state, x-p terms included, and
    is accurate when the measured mode is not amplified against the others;
    condition_heterodyne and condition_homodyne cover the other states. The
    attack conditions its phase-insensitive states on their x and p blocks
    instead (_heterodyne_blocks), with the same rounding.
    """
    a, c, b, rest = _split_for_measurement(mat, labels, measured_label)
    if quadrature is None:
        inner = np.linalg.inv(b + np.eye(2))
    else:
        proj = np.diag([1.0, 0.0]) if quadrature == "x" else np.diag([0.0, 1.0])
        inner = np.linalg.pinv(proj @ b @ proj)
    return a - c @ inner @ np.swapaxes(c, -1, -2), rest


def _heterodyne_blocks(blocks: np.ndarray, m: int, keep) -> np.ndarray:
    """The x and p blocks of the modes keep of a phase-insensitive state,
    given as x blocks over p blocks (2, ..., n, n), after a heterodyne
    measurement of mode m: per quadrature the rank-one update
    a - (c (1 / (b + 1))) c^T. It rounds as the 2 x 2 (b + I)^-1 of
    _condition_raw does on the interleaved matrix, whose x-p terms add
    exact zeros, and it is as accurate: the measured mode must not be
    amplified against the kept ones."""
    keep = np.asarray(keep)
    a = blocks[..., keep[:, None], keep]
    c = blocks[..., keep, m]
    scaled = c * (1.0 / (blocks[..., m, m] + 1.0))[..., None]
    return a - scaled[..., :, None] * c[..., None, :]
