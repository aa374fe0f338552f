"""Covariance-matrix representation of zero-mean multimode Gaussian states.

Conventions used throughout the package: quadrature ordering
(x1, p1, ..., xn, pn), x = a + a^dag, shot-noise units (vacuum
quadrature variance equals 1).

The package has one state model and one storage format, at both
precisions. A CovMat is phase-insensitive (every x-p entry 0.0, as every
state the package builds; one with an x-p term is refused, as is a map with
one): X (+) P on its x and p quadratures, kept as one (2, ..., n, n) stack
of x blocks over p blocks, acted on by the x and p parts of its maps, a
measured mode removed per quadrature (_heterodyne_blocks), its spectrum
read from the Cholesky factors of X and P (_split_spectrum), in closed form
for two modes. A matrix without both factors is not positive definite and
has no symplectic spectrum (Williamson's theorem needs sigma > 0): it is
refused on that, with no eigensolve. _check_physical validates such a
stack on that spectrum, and one state of one or two modes within
_INVERSE_SIDE_SCALE on Python floats by the same arithmetic
(_lone_spectrum); _high_precision, the one importer of mpmath, takes a
definite member that double precision cannot certify through the same
factors (_refined_spectrum), and runs the same conditioning above
_HP_SCALE, in 30 digits.

Every operation reads and writes blocks, and _checked forms a CovMat of
them: validated where it is formed by arithmetic (a symplectic applied, a
channel, a conditioning, a reordered partial trace), or certified by the
spectrum it is known to have (tmsv and the channel dilation's environment,
thermal, direct_sum); teleportation.ResourceState is certified by its
spectrum too, through the same branch (_certified), with no CovMat built.
partial_trace keeping every mode in its order returns the state itself. A
map is phase-insensitive too, S_x (+) S_p, and a Symplectic keeps its x and
p parts; the package itself builds none, and applies its maps' parts
through apply_symplectic's congruence (_congruence). Only this module knows
the interleaved layout: a Symplectic forms its public 2n x 2n matrix once,
and a CovMat on first read (_interleaved); a public one is read through
_quadrature_blocks.
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
# PHYSICALITY_TOL at worst. Some of the attack's states pass it and are
# refined: its 6-mode state of a pure-loss sweep at g = 2e6 has a bound of
# 2.0e8, and sweeps with zeta >= 0.957 give 6-mode states bounds from 5.6e6
# to 2.2e7, whose refined nu's sat within 1.9e-12 of the doubles, but for
# one low reading 1.6e-10 off.
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


def _record_in_audit(nu_min) -> None:
    """Count each state of a stack, given its smallest symplectic
    eigenvalue; one state's comes as a Python float. A NaN, a state with no
    spectrum, is counted but leaves the minimum as it is."""
    lone = isinstance(nu_min, float)
    least = nu_min if lone else float(np.fmin.reduce(np.ravel(nu_min), initial=math.inf))
    _audit["min_nu"] = min(_audit["min_nu"], least)
    _audit["count"] += 1 if lone else np.size(nu_min)


def _high_precision(matrix: np.ndarray, compute):
    """compute(mpmath, sigma) on matrix as an object ndarray sigma of
    mpmath.mpf in 30-digit arithmetic, which turns its result into floats
    itself. A matrix whose largest |entry| leaves fewer than 16 of the 30
    digits is refused with ValueError: there products of entries lose the
    near-unity nu's and O(1) conditioned blocks the callers need (at
    g = 1e35 the attack's Eve block read nu 0.998, where 60 digits give 1)."""
    import mpmath

    digits = 30
    peak = float(np.abs(matrix).max())
    if peak > 10.0 ** (digits - 16):
        raise ValueError(
            f"matrix entry {peak:.6g} leaves fewer than 16 of the {digits} high-precision digits"
        )
    with mpmath.mp.workdps(digits):
        return compute(mpmath, np.frompyfunc(mpmath.mpf, 1, 1)(matrix))


def _refined_spectrum(blocks: np.ndarray) -> np.ndarray:
    """The symplectic spectrum, descending, of one state's x block over its
    p block (2, n, n) in 30 digits, by the formula _factored_spectrum takes
    in doubles: the singular values of L_X^T L_P. Near nu = 1 the doubles
    carry noise ~eps * nu_max, which at entries ~1e10 swamps the 1e-9
    margin. A block without a 30-digit Cholesky factor is not positive
    definite: its spectrum reads NaN, as _split_spectrum's does."""

    def spectrum(mp, entries):
        try:
            lx, lp = (mp.cholesky(mp.matrix(part.tolist())) for part in entries)
        except ValueError:
            return [math.nan] * blocks.shape[-1]
        return mp.svd_r(lx.T * lp, compute_uv=False)

    nus = _high_precision(blocks, spectrum)
    return np.sort([float(nus[i]) for i in range(blocks.shape[-1])])[::-1]


def _quadrature_blocks(matrix: np.ndarray) -> np.ndarray:
    """The x-x, x-p, p-x and p-p blocks of a (..., 2n, 2n) matrix or stack,
    as one (2, 2, ..., n, n) view indexed by the quadrature of the rows, then
    of the columns. Its diagonal, [[0, 1], [0, 1]], stacks the x blocks X
    over the p blocks P, the (2, ..., n, n) layout in which the package
    carries its phase-insensitive states and maps (_interleaved inverts it)."""
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
    """X over P, (2, ..., n, n), of a matrix, a map or a stack whose x-p
    entries are all 0; one with an x-p term is rejected."""
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
    (_factored_spectrum). The route is chosen per member. A member without
    both factors is not positive definite and has no symplectic spectrum:
    its row reads NaN.
    """
    k, n = blocks.shape[1], blocks.shape[-1]
    # each member's largest |entry|: a reduction along the members' axis is
    # several times faster than one over each member's few entries
    peak = np.abs(blocks).transpose(0, 2, 3, 1).reshape(2 * n * n, k).max(axis=0)
    if n == 2:
        nus, cond = np.empty((k, 2)), np.full(k, np.inf)
        # each block's lower triangle, as LAPACK reads it
        nus[:, 0], nus[:, 1], definite = _two_mode_spectrum(
            *((part[:, 0, 0], part[:, 1, 0], part[:, 1, 1]) for part in blocks)
        )
        # past the scale, or with a NaN entry
        factored = ~(peak <= _INVERSE_SIDE_SCALE)
        if factored.any():
            nus[factored], definite[factored], cond[factored] = _factored_spectrum(
                blocks[:, factored], peak[factored]
            )
    else:
        nus, definite, cond = _factored_spectrum(blocks, peak)
    nus[~definite] = np.nan
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


def _two_mode_spectrum(x, p):
    """_split_spectrum's direct side for two modes, written out once for
    one state on floats (_lone_spectrum) and for a stack on arrays: x and p
    are the lower triangles (s11, s21, s22) of X and of P, as LAPACK reads
    them. Returns nu_+, nu_- and whether the state is positive definite, as
    all four Cholesky pivots of X and P are positive: l22 > 0 holds only
    where l11 > 0, since l11 <= 0 or a NaN leaves l22 a NaN.

    With the pivots l11 = sqrt(s11), l21 = s21 / l11, l22 = sqrt(s22 -
    l21^2) of each block, M = L_X^T L_P is the product the LAPACK route
    forms, and its singular values are nu_+ = (hypot(m11 + m22, m12 - m21)
    + hypot(m11 - m22, m12 + m21)) / 2, a sum of positive terms, and
    nu_- = |det M| / nu_+. det M is taken from M's entries: the product of
    the pivots loses ~eps * cond(sigma) on a squeezed member.
    """
    pivots = []
    with np.errstate(divide="ignore", invalid="ignore"):  # an indefinite member's pivots
        for s11, s21, s22 in (x, p):
            l11 = np.sqrt(s11)
            l21 = s21 / l11
            pivots.append((l11, l21, np.sqrt(s22 - l21 * l21)))
        (x11, x21, x22), (p11, p21, p22) = pivots
        m11, m12, m21, m22 = x11 * p11 + x21 * p21, x21 * p22, x22 * p21, x22 * p22
        upper = 0.5 * (np.hypot(m11 + m22, m12 - m21) + np.hypot(m11 - m22, m12 + m21))
        # rounding can leave |det M| / nu_+ an ulp above nu_+ when they are equal
        lower = np.minimum(abs(m11 * m22 - m12 * m21) / upper, upper)
    return upper, lower, (x22 > 0.0) & (p22 > 0.0)


def _lone_spectrum(blocks: np.ndarray):
    """The spectrum, descending, of one symmetrized state of one or two
    modes, x block over p block (2, n, n), on Python floats by the stack
    route's arithmetic: _two_mode_spectrum, and for one mode sqrt(x)
    sqrt(p), which LAPACK's 1 x 1 Cholesky and SVD give. None where the
    floats do not certify it, and _split_spectrum takes it unchanged: a
    largest |entry| past _INVERSE_SIDE_SCALE, a NaN or non-positive pivot
    (an indefinite matrix), or a reading below 1 - _REFINE_TRIGGER."""
    e = blocks.ravel().tolist()
    if max(map(abs, e)) > _INVERSE_SIDE_SCALE:
        return None
    if len(e) == 2:
        definite = e[0] > 0.0 and e[1] > 0.0
        nus = [math.sqrt(e[0]) * math.sqrt(e[1])] if definite else None
    else:
        upper, lower, definite = _two_mode_spectrum((e[0], e[2], e[3]), (e[4], e[6], e[7]))
        nus = [upper, lower]
    if not (definite and nus[-1] >= 1.0 - _REFINE_TRIGGER):
        return None
    return np.array(nus)


def _symmetrized(mats: np.ndarray, axes) -> np.ndarray:
    """mats checked to be finite and, each member spanning axes, symmetric
    to SYMMETRY_RTOL of its largest |entry|; then symmetrized. One state
    (axes spanning mats) has its reductions run on Python floats."""
    transposed = np.swapaxes(mats, -1, -2)
    if mats.ndim == len(axes):
        entries = mats.ravel().tolist()
        finite = all(map(math.isfinite, entries))
        bound = SYMMETRY_RTOL * max(max(map(abs, entries)), 1.0)
        asymmetric = finite and max(map(abs, (mats - transposed).ravel().tolist())) > bound
    else:
        # a NaN or an inf entry leaves its member's largest |entry| non-finite
        peak = np.abs(mats).max(axis=axes)
        finite = np.isfinite(peak).all()
        bound = SYMMETRY_RTOL * np.maximum(peak, 1.0)
        asymmetric = finite and (np.abs(mats - transposed).max(axis=axes) > bound).any()
    if not finite:
        raise ValueError("covariance matrix must not contain infs or NaNs")
    if asymmetric:
        raise ValueError("covariance matrix is not symmetric")
    return 0.5 * (mats + transposed)


def _check_physical(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a phase-insensitive state, or each of a stack, given as its
    x blocks over its p blocks (2, ..., n, n): finite, symmetric to
    SYMMETRY_RTOL of the scale, positive definite (read from the Cholesky
    factors the spectrum is computed from, _split_spectrum) and every
    symplectic eigenvalue >= 1 - PHYSICALITY_TOL. Returns the symmetrized
    blocks and the spectra, descending. A positive-definite member that
    double precision cannot certify takes the high-precision spectrum of its
    blocks (_refined_spectrum): above _HP_SCALE, an equilibrated condition
    bound past _CERTIFIED_COND; at any scale, a reading below
    1 - _REFINE_TRIGGER. One without both Cholesky factors has no spectrum
    (a NaN row) and is never refined. One state of one or two modes is
    read on Python floats by the same arithmetic (_lone_spectrum), and
    takes this route when they cannot certify it. Each member counts once
    in the physicality audit, as one CovMat construction would; a stack
    with an unphysical member is counted whole, then rejected with the
    message the first such member would raise on its own.
    """
    blocks = _symmetrized(blocks, (0, -2, -1))
    lead, n = blocks.shape[1:-2], blocks.shape[-1]
    lone = None if lead or n > 2 else _lone_spectrum(blocks)
    if lone is not None:
        _judge(lone)
        return blocks, lone
    flat = blocks.reshape(2, -1, n, n)
    nus, definite, cond = _split_spectrum(flat)
    # the spectra are descending: the last column holds each minimum
    refine = definite & ((cond > _CERTIFIED_COND) | (nus[:, -1] < 1.0 - _REFINE_TRIGGER))
    for i in refine.nonzero()[0]:
        nus[i] = _refined_spectrum(flat[:, i])
    nus = nus.reshape(lead + (n,))
    _judge(nus)
    return blocks, nus


def _judge(nus: np.ndarray) -> None:
    """Count each state of descending spectra nus in the physicality audit,
    then reject the first with a nu below 1 - PHYSICALITY_TOL, then any
    not positive definite (a NaN spectrum). One state's reductions run on
    Python floats."""
    if nus.ndim == 1:
        nu_min = float(nus[-1])
        low = [nu_min] if nu_min < 1.0 - PHYSICALITY_TOL else []
        spectrumless = math.isnan(nu_min)
    else:
        nu_min = nus[..., -1]
        low = nu_min[nu_min < 1.0 - PHYSICALITY_TOL]
        spectrumless = np.isnan(nu_min).any()
    _record_in_audit(nu_min)
    if len(low):
        raise ValueError(
            f"unphysical covariance matrix: smallest symplectic eigenvalue {low[0]:.12g}"
        )
    if spectrumless:
        raise ValueError("unphysical covariance matrix: not positive definite")


def _label_tuple(labels) -> tuple:
    """Mode labels as a tuple; a str, which would split into its
    characters, is refused."""
    if isinstance(labels, str):
        raise ValueError(f"mode labels must be a sequence of labels, not the string {labels!r}")
    return tuple(labels)


def _mode_labels(n: int, labels) -> tuple[str, ...]:
    """A state's n mode labels as strings, checked to be n distinct ones."""
    labels = tuple(str(lbl) for lbl in _label_tuple(labels))
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

    A CovMat keeps its symmetrized x blocks over its p blocks, (2, n, n)
    (_blocks), on which every operation of the package works, and its
    spectrum; the read-only matrix is formed from the blocks on first read
    and then kept. Construction
    checks the shape, the entries (finite, symmetric) and that the matrix
    has no x-p term (_xp_blocks), then validates physicality on the blocks
    (_checked: every symplectic eigenvalue >= 1 - 1e-9, and the matrix
    positive definite, as the module docstring says).
    """

    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 or not mat.size:
            raise ValueError(f"covariance matrix must be 2n x 2n, got shape {mat.shape}")
        # a non-finite or asymmetric entry is named before an x-p term
        blocks = _xp_blocks(_symmetrized(mat, (-2, -1)))
        vars(self).update(vars(_checked(blocks, self.labels)))
        # the caller's matrix goes: .matrix is formed from the blocks
        del vars(self)["matrix"]

    def __getattr__(self, name):
        # only for an attribute not yet set: the public matrix, formed from
        # the blocks on first read, then kept read-only
        if name != "matrix":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        matrix = vars(self)["matrix"] = _interleaved(self._blocks)
        matrix.flags.writeable = False
        return matrix

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


def _checked(blocks: np.ndarray, labels, nus=None) -> CovMat:
    """The CovMat of fresh x blocks over p blocks (2, n, n), with the label
    checks and frozen arrays: validated and symmetrized by _check_physical,
    or, given nus, the spectrum (in any order) it is known to have from a
    closed form or as the union of validated parts, certified by them:
    non-finite entries and a nu below 1 - PHYSICALITY_TOL are rejected and
    nus' least member counts once in the audit, with no numerical spectrum.
    Positive definiteness is then the caller's to know (tmsv, thermal, a
    direct sum of valid states, a two-mode standard form with nu_- > 0)."""
    labels = _mode_labels(blocks.shape[-1], labels)
    if nus is None:
        blocks, nus = _check_physical(blocks)
    else:
        nus = _certified(blocks, nus)
    state = object.__new__(CovMat)
    vars(state).update(labels=labels, _blocks=blocks, _nus=nus)
    for frozen in (blocks, nus):
        frozen.flags.writeable = False
    return state


def _certified(blocks: np.ndarray, nus) -> np.ndarray:
    """_checked's certified branch, for a state known by its spectrum nus
    and built by no CovMat (teleportation.ResourceState): non-finite
    blocks are refused, nus sorted descending and judged (_judge), which
    counts the state once in the audit."""
    if not np.isfinite(blocks).all():
        raise ValueError("covariance matrix must not contain infs or NaNs")
    nus = np.sort(np.asarray(nus, dtype=float))[::-1].copy()
    _judge(nus)
    return nus


def _two_mode_std(a, b, c) -> np.ndarray:
    """The standard-form two-mode state's x blocks [[a, c], [c, b]] over
    its p blocks [[a, -c], [-c, b]], (2, ..., 2, 2); array entries give a
    stack."""
    blocks = np.empty((2,) + np.broadcast(a, b, c).shape + (2, 2))
    blocks[..., 0, 0], blocks[..., 1, 1] = a, b
    blocks[0, ..., 0, 1] = blocks[0, ..., 1, 0] = c
    blocks[1, ..., 0, 1] = blocks[1, ..., 1, 0] = -c
    return blocks


def _two_mode_nus(a, b, c):
    """The spectrum (nu_+, nu_-) of _two_mode_std's state, for floats or
    arrays: nu_pm = (sqrt((a + b - 2c)(a + b + 2c)) +/- |b - a|) / 2. nu_- > 0
    makes ab - c^2 = nu_+ nu_- positive, so the state is positive definite; a
    negative radicand (c > (a + b) / 2) reads nu_- <= 0. At a = b both are
    sqrt((a - c)(a + c)) bit for bit, >= 1 for _tmsv_entries' (a, c)."""
    with np.errstate(invalid="ignore"):  # an infinite entry reads nan; _checked refuses it
        root = np.sqrt(np.maximum((a + b - 2.0 * c) * (a + b + 2.0 * c), 0.0))
        skew = np.abs(b - a)
        return 0.5 * (root + skew), 0.5 * (root - skew)


@dataclass(frozen=True, eq=False)
class Symplectic:
    """A real symplectic map on `arity` modes acting on x and p apart,
    S = S_x (+) S_p, as every map of the package does: it keeps its x part
    over its p part, (2, arity, arity) (_parts), beside the read-only
    matrix. Construction refuses a stack, a non-finite entry and an x-p
    term (_xp_blocks), then checks S Omega S^T = Omega, which for such a
    map is S_x S_p^T = I (Weedbrook et al., RMP 84, 621 (2012))."""

    matrix: np.ndarray
    arity: int

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.shape != (2 * self.arity, 2 * self.arity):
            raise ValueError(
                f"symplectic on {self.arity} modes must be {2*self.arity}x{2*self.arity}, "
                f"got {mat.shape}"
            )
        # a NaN would pass the comparisons below
        if not np.isfinite(mat).all():
            raise ValueError("symplectic matrix must not contain infs or NaNs")
        parts = _xp_blocks(mat)
        dev = np.abs(parts[0] @ parts[1].T - np.eye(self.arity)).max()
        # S_x S_p^T entries are products of two entries of S, so rounding
        # scales with |S|^2; the tolerance is relative to that scale.
        if dev > SYMPLECTIC_TOL * max(1.0, np.abs(mat).max() ** 2):
            raise ValueError(f"matrix is not symplectic (S Omega S^T deviates by {dev:.3g})")
        for frozen in (mat, parts):
            frozen.flags.writeable = False
        vars(self).update(matrix=mat, _parts=parts)


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
    the physical side (_tmsv_correlation). That is within a couple of ulps
    of the textbook c at large squeezing, and further below it (relatively
    ~eps / gamma^2) at small squeezing, where a - 1 carries few bits.
    """
    a, textbook = _tmsv_textbook(gamma)
    return a, _tmsv_correlation(a, textbook)


def _tmsv_correlation(a: float, cap: float = math.inf) -> float:
    """The largest double c at most cap for which the stored pair (a, c)
    satisfies (a - c)(a + c) >= 1 exactly: the physically rounded
    correlation of the tmsv whose arms have variance a >= 1, below cap (the
    textbook c of _tmsv_entries; none for a tmsv given by its variance, as
    channels.dilation's environment is). The search starts from
    sqrt((a - 1)(a + 1)), within a few ulps of the answer at any variance,
    and settles in one to four exact checks.
    """
    # the test runs on the exact binary values: with a = p/q and c = r/s
    # (q, s powers of two), a^2 - c^2 >= 1 is p^2 s^2 - r^2 q^2 >= q^2 s^2
    p, q = a.as_integer_ratio()

    def physical(c: float) -> bool:
        r, s = c.as_integer_ratio()
        return (p * s) ** 2 - (r * q) ** 2 >= (q * s) ** 2

    c = min(cap, math.sqrt((a - 1.0) * (a + 1.0)))
    while not physical(c):
        c = math.nextafter(c, 0.0)
    while c < cap and physical(math.nextafter(c, math.inf)):
        c = math.nextafter(c, math.inf)
    return c


def _tmsv_matrices(gamma: np.ndarray) -> np.ndarray:
    """tmsv(gamma)'s x blocks over p blocks for each gamma of an array,
    (2, ..., 2, 2), from _tmsv_entries, counted in the physicality audit as
    one tmsv each, at its closed-form _two_mode_nus."""
    gamma = np.asarray(gamma, dtype=float)
    entries = np.reshape([_tmsv_entries(x) for x in gamma.ravel().tolist()], gamma.shape + (2,))
    a, c = entries[..., 0], entries[..., 1]
    _record_in_audit(_two_mode_nus(a, a, c)[1])
    return _two_mode_std(a, a, c)


def tmsv(gamma: float, labels: tuple[str, str] = ("m1", "m2")) -> CovMat:
    """Two-mode squeezed vacuum with squeezing parameter gamma in [0, 1).

    Entries a = b = (1 + gamma^2)/(1 - gamma^2), c = 2 gamma/(1 - gamma^2)
    with sign pattern diag(c, -c) on the cross block, physically rounded
    (_tmsv_entries). Certified by its closed-form spectrum, _two_mode_nus.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"tmsv squeezing must lie in [0, 1), got {gamma}")
    return _tmsv_state(*_tmsv_entries(gamma), labels)


def _tmsv_state(a: float, c: float, labels) -> CovMat:
    """The tmsv of physically rounded entries (a, c) as a CovMat, certified
    by its closed-form spectrum, _two_mode_nus."""
    return _checked(_two_mode_std(a, a, c), labels, _two_mode_nus(a, a, c))


def thermal(variance: float, label: str = "m1") -> CovMat:
    """Single thermal mode diag(variance, variance); variance = 1 is vacuum.
    Certified by its spectrum, nu = variance."""
    if variance < 1.0:
        raise ValueError(f"thermal variance must be >= 1, got {variance}")
    return _checked(np.full((2, 1, 1), variance, dtype=float), (label,), (variance,))


def _squeezer_parts(g: float) -> np.ndarray:
    """two_mode_squeezer's x part over its p part, (2, 2, 2), range-checked,
    for the raw pipelines."""
    if not 1.0 <= g < math.inf:
        raise ValueError(f"squeezer gain must be a finite value >= 1, got {g}")
    sg = math.sqrt(g)
    sgm = math.sqrt(g - 1.0)
    return np.array([[[sg, sgm], [sgm, sg]], [[sg, -sgm], [-sgm, sg]]])


def two_mode_squeezer(g: float) -> Symplectic:
    """Two-mode squeezer of gain g = cosh^2(r) >= 1.

    Diagonal blocks sqrt(g) I2, off-diagonal blocks diag(sqrt(g-1), -sqrt(g-1)).
    """
    return Symplectic(_interleaved(_squeezer_parts(g)), 2)


def _splitter_part(t: float) -> np.ndarray:
    """beam_splitter's x part, which is its p part too, (2, 2),
    range-checked, for the raw pipelines."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"beam splitter transmissivity must lie in [0, 1], got {t}")
    st = math.sqrt(t)
    sr = math.sqrt(1.0 - t)
    return np.array([[st, -sr], [sr, st]])


def beam_splitter(t: float) -> Symplectic:
    """Beam splitter of transmissivity t in [0, 1], the same map on the x
    and on the p quadratures.

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
    return _checked(_block_diag(*(s._blocks for s in states)), labels, nus)


def apply_symplectic(state: CovMat, s: Symplectic, target_labels: tuple[str, ...]) -> CovMat:
    """Apply a symplectic to the designated modes: sigma -> S sigma S^T with S
    embedded as identity on every other mode, on the x and p blocks by S's
    x and p parts (a map with an x-p term is refused where it is built)."""
    return _congruence(state, s._parts, target_labels)


def _congruence(state: CovMat, parts: np.ndarray, target_labels) -> CovMat:
    """apply_symplectic on a map's x part over its p part (2, k, k), which
    the caller knows to be symplectic: the state validated after
    sigma -> S sigma S^T on the k target modes (channels.loss_channel_state
    mixes on _splitter_part through it, with no Symplectic built)."""
    target = _label_tuple(target_labels)
    arity = parts.shape[-1]
    if len(target) != arity:
        raise ValueError(f"symplectic acts on {arity} modes, got {len(target)} labels")
    idx = [state.index(lbl) for lbl in target]
    if len(set(idx)) != len(idx):
        raise ValueError(f"target labels must be distinct, got {target}")
    full = _embedded(parts, idx, state.n_modes)
    return _checked(full @ state._blocks @ np.swapaxes(full, -1, -2), state.labels)


def partial_trace(state: CovMat, keep_labels: tuple[str, ...]) -> CovMat:
    """Restrict to the kept modes (principal submatrix), reordered to
    keep_labels. Keeping every mode in its order returns the (frozen) state
    itself."""
    keep = _label_tuple(keep_labels)
    if keep == state.labels:
        return state
    if not keep:
        raise ValueError("must keep at least one mode")
    idx = [state.index(lbl) for lbl in keep]
    if len(set(idx)) != len(idx):
        raise ValueError(f"keep labels must be distinct, got {keep}")
    idx = np.array(idx)
    return _checked(state._blocks[:, idx[:, None], idx], keep)


def symplectic_eigenvalues(state: CovMat) -> np.ndarray:
    """Symplectic eigenvalues of the state, one per mode, descending."""
    return state._nus.copy()


def _spectrum_entropy(nus, pure_tol: float = 1e-12):
    """Von Neumann entropy in bits of a symplectic spectrum; of a stack of
    spectra, one entropy per row.

    Each mode adds (nu+1)/2 log2 (nu+1)/2 - (nu-1)/2 log2 (nu-1)/2. pure_tol
    is the spectrum's own noise: a mode within it of nu = 1 counts as pure
    and adds 0, the 0 log 0 limit. Next to nu = 1 the term is
    ~(nu-1)/2 log2(2e/(nu-1)), up to 2e-11 bits at the default. Above
    nu = 1e4 the term takes its large-nu form, evaluated only for a call
    in which some nu exceeds 1e4.
    """
    nus = np.asarray(nus, dtype=float)
    hi = 0.5 * (nus + 1.0)
    lo = 0.5 * (nus - 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = hi * np.log2(hi) - lo * np.log2(lo)
        # the direct form subtracts two ~nu log2 nu sized terms; at large nu
        # that cancellation costs more absolute accuracy than the result has
        large = nus > 1.0e4
        if large.any():
            product = 0.25 * (nus - 1.0) * (nus + 1.0)
            # beyond nu ~ 2.7e154 the product overflows; its log is then a sum
            log_product = np.where(np.isinf(product), np.log2(lo) + np.log2(hi), np.log2(product))
            asymptotic = 0.5 * nus * np.log1p(2.0 / (nus - 1.0)) / math.log(2.0)
            terms = np.where(large, asymptotic + 0.5 * log_product, terms)
    terms = np.where(nus <= 1.0 + pure_tol, 0.0, terms)
    total = terms.sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def von_neumann_entropy(state: CovMat) -> float:
    """Von Neumann entropy in bits, summed over the symplectic eigenvalues."""
    return _spectrum_entropy(state._nus)


def _conditioned_state(state: CovMat, measured_label: str, quadrature: str | None) -> CovMat:
    """The other modes after a heterodyne (quadrature None) or homodyne
    measurement of one: the attack's block update (_heterodyne_blocks), in
    double precision up to _HP_SCALE and in high precision above it, as the
    update cancels ~|sigma| down to O(1) there."""
    if state.n_modes < 2:
        raise ValueError("cannot condition away the only remaining mode")
    m = state.index(measured_label)
    keep = [j for j in range(state.n_modes) if j != m]
    blocks = state._blocks
    if np.abs(blocks).max() > _HP_SCALE:
        blocks = _high_precision(
            blocks, lambda mp, exact: _heterodyne_blocks(exact, m, keep, quadrature).astype(float)
        )
    else:
        blocks = _heterodyne_blocks(blocks, m, keep, quadrature)
    return _checked(blocks, tuple(state.labels[j] for j in keep))


def condition_heterodyne(state: CovMat, measured_label: str) -> CovMat:
    """Remaining covariance after an ideal heterodyne measurement of one mode.

    The conditional matrix sigma_rest - sigma_cross (sigma_meas + I)^-1
    sigma_cross^T does not depend on the measurement outcome. It is one
    rank-one update per quadrature of the x and p blocks, run in high
    precision above _HP_SCALE (_conditioned_state).
    """
    return _conditioned_state(state, measured_label, None)


def condition_homodyne(state: CovMat, measured_label: str, quadrature: str = "x") -> CovMat:
    """Remaining covariance after an ideal homodyne measurement of one quadrature.

    The same update as the heterodyne one, on the measured quadrature's
    blocks only, and in high precision above _HP_SCALE too; without it,
    amplified states such as apply_symplectic's two_mode_squeezer output
    read unphysical.
    """
    if quadrature not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    return _conditioned_state(state, measured_label, quadrature)


# Raw-array plumbing for the multimode pipelines, on x blocks over p blocks:
# intermediate states of a long interferometer are scratch arithmetic, not
# results, and CovMat construction (and its physicality audit) stays at the
# contract boundaries where a state is handed back. The state-level
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
    """The x or p part of a map on the mode slots idx (or a stack of
    them), or both stacked, embedded in dim modes as identity on every
    other mode."""
    idx = np.asarray(idx)
    full = np.broadcast_to(np.eye(dim), s.shape[:-2] + (dim, dim)).copy()
    full[..., idx[:, None], idx] = s
    return full


def _channel_on_mode(blocks: np.ndarray, i: int, tau: float, v: float) -> np.ndarray:
    """Apply a phase-insensitive channel (tau, v) to mode slot i of x
    blocks over p blocks (2, ..., n, n), a state or a stack."""
    out = blocks.copy()
    root = math.sqrt(tau)
    out[..., i, :] *= root
    out[..., :, i] *= root
    out[..., i, i] += v
    return out


def _heterodyne_blocks(blocks: np.ndarray, m: int, keep, quadrature: str | None = None):
    """The x and p blocks of the modes keep of a phase-insensitive state,
    given as x blocks over p blocks (2, ..., n, n), after a heterodyne
    measurement of mode m, or a homodyne one of its quadrature "x" or "p":
    per quadrature the rank-one update a - (c w) c^T, with the weight
    w = 1 / (b + 1) for heterodyne, and for homodyne 1 / b on the measured
    quadrature and 0 on the other, whose block it keeps. Double precision
    holds it when the measured mode is not amplified against the kept ones,
    as in every state the attack conditions; _conditioned_state runs it on
    30-digit numbers (an object array of mpmath.mpf) above _HP_SCALE."""
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
