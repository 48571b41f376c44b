"""Small dense linear-algebra layer shared by the rest of the package.

Everything here operates on plain ``numpy`` 2-D float arrays;
:func:`spectral_radius` alone also takes a stack ``(..., n, n)`` and
treats each matrix as it would alone.  The helpers fall into four
groups:

* validation and construction (:func:`as_matrix`, :func:`require_square`),
* spectral utilities (:func:`eigenvalues`, :func:`spectral_radius`,
  :func:`on_unit_circle`),
* rank machinery with one explicit tolerance, for real and complex
  matrices alike (:func:`numeric_rank`, :func:`stabilizable`,
  :func:`detectable`),
* polynomial tools used to build internal models
  (:func:`minimal_polynomial`, :func:`companion_pair`).

Monic polynomials are represented by their non-leading coefficients in
ascending order: ``coeffs = [c0, c1, ..., c_{d-1}]`` stands for
``l**d + c_{d-1} l**(d-1) + ... + c1 l + c0``.  The leading ``1`` is
implicit, so the degree equals ``len(coeffs)``.
"""

import numpy as np

from .errors import DimensionError, NumericalError

__all__ = [
    "DEFAULT_RANK_TOL",
    "SCHUR_MARGIN",
    "as_matrix",
    "require_square",
    "eigenvalues",
    "spectral_radius",
    "on_unit_circle",
    "kron",
    "block_diag",
    "numeric_rank",
    "controllability_matrix",
    "stabilizable",
    "detectable",
    "minimal_polynomial",
    "companion_pair",
]

# Tolerance of every rank, unit-circle and connectivity decision in the
# package.
DEFAULT_RANK_TOL = 1e-9

# Margin used when declaring a matrix Schur: the spectral radius must be
# strictly below 1 - SCHUR_MARGIN.
SCHUR_MARGIN = 1e-9


def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a 2-D float array and validate it.

    Parameters
    ----------
    a : array_like
        Input data; anything ``numpy.asarray`` accepts.
    name : str, optional
        Label used in error messages.

    Returns
    -------
    ndarray
        A fresh 2-D float array.

    Raises
    ------
    DimensionError
        If the input is not 2-D or contains non-finite entries.
    """
    try:
        m = np.array(a, dtype=float)
    except (TypeError, ValueError) as ex:
        raise DimensionError(f"{name}: cannot interpret input as a numeric matrix ({ex})")
    if m.ndim == 1:
        # A flat list could mean a row or a column; guessing would let a
        # transposed input pass silently, so the caller must say which.
        raise DimensionError(f"{name}: expected a 2-D array, got a 1-D array of length {m.size}")
    if m.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-D array, got {m.ndim}-D")
    if m.size and not np.all(np.isfinite(m)):
        raise DimensionError(f"{name}: contains non-finite entries")
    return m


def require_square(m, name="matrix"):
    """Raise :class:`DimensionError` unless ``m`` is square; return it."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name}: expected a square matrix, got shape {m.shape}")
    return m


def eigenvalues(m, name="matrix"):
    """Eigenvalues of a square matrix in a deterministic order.

    The values are sorted lexicographically by (real part, imaginary
    part), so repeated calls on equal inputs return identical arrays and
    conjugate pairs sit next to each other.

    Parameters
    ----------
    m : ndarray
        Square matrix (real or complex).
    name : str, optional
        Label used in error messages.

    Returns
    -------
    ndarray
        Complex eigenvalue array of length ``m.shape[0]``.
    """
    w = _eigvals(require_square(m, name), name)
    order = np.lexsort((w.imag, w.real))
    return w[order]


def spectral_radius(m):
    """Largest eigenvalue modulus of a square matrix; for a stack, an array of one per matrix.

    A stack ``(..., n, n)`` is solved in one call, each matrix with the
    routine a single one gets, so each radius is the one it has alone.
    """
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"spectral_radius: expected square matrices, got shape {m.shape}")
    rho = np.max(np.abs(_eigvals(m, "matrix")), axis=-1, initial=0.0)
    return float(rho) if m.ndim == 2 else rho


def _eigvals(m, name):
    """Unsorted eigenvalues of square ``m`` or of a stack; a failed solve raises :class:`NumericalError`."""
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as ex:
        raise NumericalError(f"{name}: eigenvalue computation failed ({ex})")


def on_unit_circle(m):
    """True if every eigenvalue of ``m`` has modulus within ``DEFAULT_RANK_TOL`` of 1."""
    if m.shape[0] == 0:
        return True
    return bool(np.max(np.abs(np.abs(eigenvalues(m)) - 1.0)) <= DEFAULT_RANK_TOL)


def kron(a, b):
    """Kronecker product of two 2-D arrays, formed as one reshaped outer product."""
    if np.ndim(a) != 2 or np.ndim(b) != 2:
        raise DimensionError("kron: both factors must be 2-D arrays")
    a, b = np.asarray(a), np.asarray(b)
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def block_diag(mats):
    """Block-diagonal matrix with the 2-D arrays ``mats`` down its diagonal."""
    rows, cols = (sum(m.shape[k] for m in mats) for k in (0, 1))
    out = np.zeros((rows, cols), dtype=np.result_type(*mats))
    i = j = 0
    for m in mats:
        out[i : i + m.shape[0], j : j + m.shape[1]] = m
        i, j = i + m.shape[0], j + m.shape[1]
    return out


def numeric_rank(m):
    """Numerical rank via singular values, of a real or a complex matrix.

    A singular value counts toward the rank when it exceeds
    ``DEFAULT_RANK_TOL * max(1, s_max)``, which behaves like a relative
    threshold for large matrices and an absolute one near the origin.
    """
    m = np.atleast_2d(np.asarray(m, dtype=m.dtype if hasattr(m, "dtype") else float))
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    cutoff = DEFAULT_RANK_TOL * max(1.0, float(s[0]))
    return int(np.count_nonzero(s > cutoff))


def controllability_matrix(a, b):
    """Stacked controllability matrix ``[B, AB, ..., A^{n-1}B]``."""
    a = require_square(np.asarray(a), "a")
    b = np.atleast_2d(b)
    if b.shape[0] != a.shape[0]:
        raise DimensionError(
            f"controllability_matrix: A has {a.shape[0]} rows but B has {b.shape[0]}"
        )
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


def stabilizable(a, b):
    """PBH stabilizability test for the pair ``(a, b)``.

    Checks that ``[lambda I - A, B]`` has full row rank for every
    eigenvalue ``lambda`` of ``A`` with ``|lambda| >= 1``.  Marginally
    stable modes (modulus within ``DEFAULT_RANK_TOL`` of 1) are treated
    as unstable, which is the conservative choice for synthesis.
    """
    a = require_square(np.asarray(a, dtype=float), "a")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n = a.shape[0]
    eye = np.eye(n)
    for lam in eigenvalues(a):
        if abs(lam) < 1.0 - DEFAULT_RANK_TOL:
            continue
        pencil = np.hstack([lam * eye - a, b]).astype(complex)
        if numeric_rank(pencil) < n:
            return False
    return True


def detectable(c, a):
    """PBH detectability test for the pair ``(c, a)``; dual of :func:`stabilizable`."""
    a = require_square(np.asarray(a, dtype=float), "a")
    c = np.atleast_2d(np.asarray(c, dtype=float))
    return stabilizable(a.T, c.T)


def minimal_polynomial(m):
    """Monic minimal polynomial of a square matrix.

    Searches for the smallest ``d`` such that ``m**d`` is a linear
    combination of ``I, m, ..., m**(d-1)``; the combination is found by
    least squares on the vectorized powers and accepted when the
    relative residual drops below ``DEFAULT_RANK_TOL``.

    Parameters
    ----------
    m : ndarray
        Square matrix.

    Returns
    -------
    ndarray
        Non-leading coefficients in ascending order (see module
        docstring); length equals the degree.

    Raises
    ------
    NumericalError
        If no dependence is found up to the full dimension (cannot
        happen for exact arithmetic by Cayley-Hamilton, so this signals
        a badly scaled input).
    """
    m = require_square(np.asarray(m, dtype=float), "matrix")
    n = m.shape[0]
    if n == 0:
        return np.zeros(0)
    powers = [np.eye(n)]
    for _ in range(n):
        powers.append(powers[-1] @ m)
    vecs = [p.reshape(-1) for p in powers]
    for d in range(1, n + 1):
        basis = np.column_stack(vecs[:d])
        target = vecs[d]
        coef, _, _, _ = np.linalg.lstsq(basis, target, rcond=None)
        resid = np.linalg.norm(basis @ coef - target)
        if resid <= DEFAULT_RANK_TOL * max(1.0, np.linalg.norm(target)):
            return -coef
    raise NumericalError(
        "minimal_polynomial: no linear dependence found up to the matrix dimension; "
        "input is likely badly scaled"
    )


def companion_pair(coeffs):
    """Controllable companion realization of a monic polynomial.

    Parameters
    ----------
    coeffs : array_like
        Non-leading coefficients in ascending order, degree ``d``.

    Returns
    -------
    beta : ndarray
        ``d x d`` bottom-row companion matrix whose characteristic
        polynomial is the given one.
    sigma : ndarray
        ``d x 1`` input column making ``(beta, sigma)`` controllable.

    Raises
    ------
    NumericalError
        If the constructed pair fails the controllability check (only
        possible through numerical degeneracy; the canonical form is
        controllable for every polynomial).
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
    d = coeffs.size
    if d == 0:
        raise DimensionError("companion_pair: polynomial degree must be at least 1")
    beta = np.zeros((d, d))
    beta[:-1, 1:] = np.eye(d - 1)
    beta[-1, :] = -coeffs
    sigma = np.zeros((d, 1))
    sigma[-1, 0] = 1.0
    if numeric_rank(controllability_matrix(beta, sigma)) != d:
        raise NumericalError("companion_pair: canonical pair failed the controllability check")
    return beta, sigma
