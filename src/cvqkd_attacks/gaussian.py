"""Covariance-matrix representation of zero-mean multimode Gaussian states.

Conventions used throughout the package: quadrature ordering
(x1, p1, ..., xn, pn), x = a + a^dag, shot-noise units (vacuum
quadrature variance equals 1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath
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
# entropies need. There _fast_spectrum reads the small nu's from the inverse
# side as well, _symplectic_spectrum escalates a matrix whose equilibrated
# factor is too ill-conditioned to certify its spectrum (_CERTIFIED_COND),
# and the public heterodyne and homodyne conditioning of a state switch to
# high precision.
_HP_SCALE = 1e6

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


def _inverse_side(stack: np.ndarray, chol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic eigenvalues, descending, of a stack of positive-definite
    matrices sigma = L L^T read from the inverse side of the congruence, and
    a bound on the condition number of each equilibrated matrix.

    With D = diag(sigma_ii)^-1/2, L~ = D L is the Cholesky factor of the
    unit-diagonal H = D sigma D, and L^-1 Omega L^-T = L~^-1 (D Omega D)
    L~^-T has the singular values 1/nu, each twice. Their absolute noise is
    ~eps / nu_min, so the nu's near 1 come out to a relative few eps *
    cond(H) however large sigma's entries are (Demmel and Veselic, SIAM J.
    Matrix Anal. Appl. 13, 1204 (1992)), while the direct side's are off by
    ~eps * nu_max. cond(H) <= |H| |H^-1| <= 2n |L~^-1|_F^2, as H's trace is 2n.
    """
    d = 1.0 / np.sqrt(np.diagonal(stack, axis1=-2, axis2=-1))
    inverse = np.linalg.inv(d[..., :, None] * chol)
    scaled = inverse * d[..., None, :]  # L^-1 = L~^-1 D
    m = scaled @ _omega_times(np.swapaxes(scaled, -1, -2))
    inverted = np.linalg.svd(m, compute_uv=False)[..., ::2]
    cond = stack.shape[-1] * (inverse * inverse).sum(axis=(-2, -1))
    with np.errstate(divide="ignore"):  # a singular value lost to underflow reads nu = inf
        return 1.0 / inverted[..., ::-1], cond


def _spectrum_and_conditioning(stack: np.ndarray):
    """_fast_spectrum of a flat (k, 2n, 2n) stack, and for each matrix above
    _HP_SCALE the bound on its equilibrated condition number from
    _inverse_side: inf without a Cholesky factor, 1 below the scale, where
    it is not computed."""
    n = stack.shape[-1] // 2
    try:
        chol = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        chol = np.full_like(stack, np.nan)
        for i, m in enumerate(stack):
            try:
                chol[i] = np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                pass
    # a NaN entry passes the factorization unflagged
    definite = np.isfinite(chol).all(axis=(-2, -1))
    nus = np.empty((len(stack), n))
    lower = chol[definite]
    nus[definite] = np.linalg.svd(
        np.swapaxes(lower, -1, -2) @ _omega_times(lower), compute_uv=False
    )[:, ::2]
    large = _above_hp_scale(stack)
    cond = np.where(large, np.inf, 1.0)
    graded = large & definite
    if graded.any():
        direct = nus[graded]
        inverse, cond[graded] = _inverse_side(stack[graded], chol[graded])
        # each nu from the side on which it is large: the direct side's
        # relative error ~eps nu_max / nu is the smaller one above
        # sqrt(nu_max nu_min), the inverse side's ~eps nu / nu_min below it
        upper = direct / inverse[:, -1:] > direct[:, :1] / direct
        nus[graded] = np.where(upper, direct, inverse)
    if not definite.all():
        eigs = np.linalg.eigvals(symplectic_form(n) @ stack[~definite])
        # |eigs| carries each nu twice (the +/- i*nu pair); sorting makes the
        # pairs adjacent so taking every second entry deduplicates them
        nus[~definite] = np.sort(np.abs(eigs), axis=-1)[:, ::-1][:, ::2]
    return nus, definite, cond


def _fast_spectrum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic eigenvalues in double precision, descending, of one matrix
    or of each matrix in a (..., 2n, 2n) stack, and whether each matrix is
    positive definite.

    A positive-definite sigma = L L^T has i Omega sigma similar to the
    Hermitian i L^T Omega L, so the nu's are the singular values of the real
    antisymmetric K = L^T Omega L, each twice. Each nu is good to a relative
    few eps * cond(sigma): the factorization is backward stable, and a
    congruence moves every nu by at most that relative factor. Above
    _HP_SCALE the nu's below sqrt(nu_max nu_min) come from the inverse side
    of the same factor instead (_inverse_side), good to a relative few eps *
    cond of the equilibrated matrix. A matrix without a Cholesky factor (or
    with a non-finite one) is not positive definite, hence unphysical; it
    gets |eig(Omega sigma)| instead, which only words its rejection and
    feeds the audit. Each matrix is factored on its own when the stack's
    factorization fails, and the inverse side runs on the members above the
    scale alone, so a member's result never depends on its neighbours.
    """
    lead, n = matrix.shape[:-2], matrix.shape[-1] // 2
    nus, definite, _ = _spectrum_and_conditioning(matrix.reshape((-1,) + matrix.shape[-2:]))
    return nus.reshape(lead + (n,)), definite.reshape(lead)


def _above_hp_scale(matrix: np.ndarray) -> np.ndarray:
    """Per-matrix flag: entries beyond _HP_SCALE, where one side of the
    Cholesky congruence cannot resolve near-unity symplectic eigenvalues."""
    return np.abs(matrix).max(axis=(-2, -1)) > _HP_SCALE


def _symplectic_spectrum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_fast_spectrum, with each matrix that double precision cannot certify
    given its high-precision spectrum instead: above _HP_SCALE, one whose
    equilibrated condition bound exceeds _CERTIFIED_COND or that has no
    Cholesky factor; at any scale, one reading below 1 - _REFINE_TRIGGER.
    The escalation is decided per matrix, so one such member never sends the
    whole stack there; positive definiteness is the double-precision
    factorization's verdict at every scale."""
    lead, n = matrix.shape[:-2], matrix.shape[-1] // 2
    stack = matrix.reshape((-1,) + matrix.shape[-2:])
    nus, definite, cond = _spectrum_and_conditioning(stack)
    refine = (cond > _CERTIFIED_COND) | (nus.min(axis=-1) < 1.0 - _REFINE_TRIGGER)
    for i in np.flatnonzero(refine):
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
    computed from (_fast_spectrum), so each matrix is factored once. Each
    matrix counts once in the physicality audit, as one CovMat construction
    would; a stack with an unphysical member is counted whole, then rejected
    with the message the first such member would raise on its own.
    """
    if not np.isfinite(mats).all():
        raise ValueError("covariance matrix must not contain infs or NaNs")
    scale = np.maximum(np.abs(mats).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(mats - np.swapaxes(mats, -1, -2)).max(axis=(-2, -1)) > SYMMETRY_RTOL * scale):
        raise ValueError("covariance matrix is not symmetric")
    mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    nus, definite = _symplectic_spectrum(mats)
    nu_min = nus.min(axis=-1)
    _record_in_audit(nu_min)
    low = nu_min < 1.0 - PHYSICALITY_TOL
    if low.any():
        raise ValueError(
            f"unphysical covariance matrix: smallest symplectic eigenvalue {nu_min[low][0]:.12g}"
        )
    # |eig(Omega sigma)| cannot see the sign of sigma: sigma + i Omega >= 0
    # also needs sigma > 0, which an indefinite matrix fails
    if not definite.all():
        raise ValueError("unphysical covariance matrix: not positive definite")
    return mats, nus


@dataclass(frozen=True, eq=False)
class CovMat:
    """A labeled covariance matrix of n modes.

    matrix: real symmetric 2n x 2n array in (x1, p1, ..., xn, pn) ordering.
    labels: n distinct mode identifiers, positionally aligned with the
        2x2 diagonal blocks.

    Construction validates symmetry and physicality (every symplectic
    eigenvalue >= 1 - 1e-9, and the matrix positive definite) and freezes
    the array.
    """

    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise ValueError(f"covariance matrix must be 2n x 2n, got shape {mat.shape}")
        n = mat.shape[0] // 2
        labels = tuple(str(lbl) for lbl in self.labels)
        if len(labels) != n:
            raise ValueError(f"expected {n} mode labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise ValueError(f"mode labels must be unique, got {labels}")
        mat, nus = _check_physical(mat)
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


@dataclass(frozen=True)
class TwoModeStd:
    """Standard-form two-mode covariance entries: blocks diag(a,a), diag(b,b),
    diag(c_plus, c_minus)."""

    a: float
    b: float
    c_plus: float
    c_minus: float

    def to_covmat(self, labels: tuple[str, str] = ("m1", "m2")) -> CovMat:
        return CovMat(_two_mode_std(self.a, self.b, self.c_plus, self.c_minus), labels)


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
    denom = 1.0 - gamma * gamma
    a = (1.0 + gamma * gamma) / denom
    textbook = 2.0 * gamma / denom
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


def _tmsv_entries_array(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_tmsv_entries for every gamma of an array, bit for bit, in one pass:
    each exact check is taken for the whole array at once, on the members
    whose c is still moving."""
    gamma = np.asarray(gamma, dtype=float)
    denom = 1.0 - gamma * gamma
    a = (1.0 + gamma * gamma) / denom
    textbook = 2.0 * gamma / denom
    c = np.minimum(textbook, np.sqrt((a - 1.0) * (a + 1.0))).reshape(-1)
    a_flat, textbook_flat = a.reshape(-1), textbook.reshape(-1)
    down = ~_exactly_physical(a_flat, c)
    while down.any():
        c[down] = np.nextafter(c[down], 0.0)
        down[down] = ~_exactly_physical(a_flat[down], c[down])
    up = c < textbook_flat
    while up.any():
        step = np.nextafter(c[up], np.inf)
        ok = _exactly_physical(a_flat[up], step)
        c[np.flatnonzero(up)[ok]] = step[ok]
        up[up] = ok & (step < textbook_flat[up])
    return a, c.reshape(a.shape)


def _exactly_physical(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a^2 - c^2 >= 1 on the exact binary values of arrays a >= 1 and c >= 0.

    With x = M 2^E (M < 2^53 an integer), the test is on Python integers
    scaled by 2^-base, base the smallest of 2 E_a, 2 E_c and 0, so that
    every shift is non-negative.
    """
    def integer_parts(x):
        mantissa, exponent = np.frexp(x)
        return (mantissa * 2.0**53).astype(np.int64).astype(object), 2 * (exponent - 53)

    ma, ea = integer_parts(a)
    mc, ec = integer_parts(c)
    base = np.minimum(np.minimum(ea, ec), 0)
    lhs = ((ma * ma) << (ea - base).astype(object)) - ((mc * mc) << (ec - base).astype(object))
    return (lhs >= (1 << (-base).astype(object))).astype(bool)


def _tmsv_matrices(gamma: np.ndarray) -> np.ndarray:
    """tmsv(gamma)'s matrix for each gamma of an array, counted in the
    physicality audit as one CovMat each. _tmsv_entries makes
    (a - c)(a + c) >= 1 exactly, which is the physicality of the state, so
    the audit takes the closed-form nu = sqrt((a - c)(a + c)) of both modes
    in place of a spectrum."""
    a, c = _tmsv_entries_array(gamma)
    _record_in_audit(np.sqrt((a - c) * (a + c)))
    return _two_mode_std(a, a, c, -c)


def tmsv(gamma: float, labels: tuple[str, str] = ("m1", "m2")) -> CovMat:
    """Two-mode squeezed vacuum with squeezing parameter gamma in [0, 1).

    Entries a = b = (1 + gamma^2)/(1 - gamma^2), c = 2 gamma/(1 - gamma^2)
    with sign pattern diag(c, -c) on the cross block.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"tmsv squeezing must lie in [0, 1), got {gamma}")
    a, c = _tmsv_entries(gamma)
    return TwoModeStd(a, a, c, -c).to_covmat(labels)


def thermal(variance: float, label: str = "m1") -> CovMat:
    """Single thermal mode diag(variance, variance); variance = 1 is vacuum."""
    if variance < 1.0:
        raise ValueError(f"thermal variance must be >= 1, got {variance}")
    return CovMat(np.diag([variance, variance]).astype(float), (label,))


def two_mode_squeezer(g: float) -> Symplectic:
    """Two-mode squeezer of gain g = cosh^2(r) >= 1.

    Diagonal blocks sqrt(g) I2, off-diagonal blocks diag(sqrt(g-1), -sqrt(g-1)).
    """
    if g < 1.0:
        raise ValueError(f"squeezer gain must be >= 1, got {g}")
    sg = math.sqrt(g)
    sgm = math.sqrt(g - 1.0)
    mat = np.array(
        [
            [sg, 0.0, sgm, 0.0],
            [0.0, sg, 0.0, -sgm],
            [sgm, 0.0, sg, 0.0],
            [0.0, -sgm, 0.0, sg],
        ]
    )
    return Symplectic(mat, 2)


def beam_splitter(t) -> Symplectic:
    """Beam splitter of transmissivity t in [0, 1]; an array of t gives the
    stack of splitters, one per entry.

    First output = sqrt(t) m1 - sqrt(1-t) m2, second = sqrt(1-t) m1 + sqrt(t) m2.
    """
    t = np.asarray(t, dtype=float)
    outside = ~((0.0 <= t) & (t <= 1.0))
    if outside.any():
        raise ValueError(f"beam splitter transmissivity must lie in [0, 1], got {t[outside][0]}")
    st = np.sqrt(t)
    sr = np.sqrt(1.0 - t)
    mat = np.zeros(t.shape + (4, 4))
    for k in range(4):
        mat[..., k, k] = st
    mat[..., 0, 2] = mat[..., 1, 3] = -sr
    mat[..., 2, 0] = mat[..., 3, 1] = sr
    return Symplectic(mat, 2)


def direct_sum(*states: CovMat) -> CovMat:
    """Combine independent states into one; labels are concatenated and must stay unique."""
    if not states:
        raise ValueError("direct_sum needs at least one state")
    labels = tuple(lbl for s in states for lbl in s.labels)
    return CovMat(_block_diag(*(s.matrix for s in states)), labels)


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
    """Restrict to the kept modes (principal submatrix), reordered to keep_labels."""
    keep = tuple(keep_labels)
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


def _embedded(s: np.ndarray, idx, dim: int) -> np.ndarray:
    """A map on the mode slots idx (or a stack of them) embedded in dim
    quadratures as identity on every other mode."""
    full = np.broadcast_to(np.eye(dim), s.shape[:-2] + (dim, dim)).copy()
    for a, ia in enumerate(idx):
        for b, ib in enumerate(idx):
            full[..., 2 * ia : 2 * ia + 2, 2 * ib : 2 * ib + 2] = s[
                ..., 2 * a : 2 * a + 2, 2 * b : 2 * b + 2
            ]
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
    it in place of (b + I)^-1. It is accurate when the measured mode is
    not amplified against the others, as in the attack's states, where
    only Eve's mode P grows with the gain (teleportation._eve_local_map);
    condition_heterodyne and condition_homodyne cover the other states.
    """
    a, c, b, rest = _split_for_measurement(mat, labels, measured_label)
    if quadrature is None:
        inner = np.linalg.inv(b + np.eye(2))
    else:
        proj = np.diag([1.0, 0.0]) if quadrature == "x" else np.diag([0.0, 1.0])
        inner = np.linalg.pinv(proj @ b @ proj)
    return a - c @ inner @ np.swapaxes(c, -1, -2), rest
