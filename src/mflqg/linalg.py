"""Small linear-algebra helpers with the package's numerical policy baked in.

Symmetry is checked before it is enforced, definiteness checks use fixed
tolerances, and positive-definite solves go through a Cholesky
factorization whose pivots are screened with a relative threshold so that
uniformly tiny but well-conditioned matrices still pass.
"""
from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, NotPositiveSemidefinite, NotSymmetric, NumericalFailure

# max |M - M.T| allowed, relative to max(1, |M|), before symmetrization
SYMMETRY_TOL = 1e-10
# smallest eigenvalue allowed for "positive semidefinite"
PSD_TOL = 1e-10
# squared relative Cholesky pivot below this counts as numerically singular
PIVOT_TOL = 1e-12
# eigenvalues of a covariance below this fraction of the largest are zeroed
FACTOR_CLIP = 1e-12


def symmetrize(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return (M + M.T)/2 after checking M is symmetric to tolerance."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotSymmetric(f"{name} is not square: shape {mat.shape}")
    if mat.size:
        scale = max(1.0, float(np.max(np.abs(mat))))
        asym = float(np.max(np.abs(mat - mat.T)))
        if asym > SYMMETRY_TOL * scale:
            raise NotSymmetric(
                f"{name} is asymmetric: max |M - M.T| = {asym:.3e} "
                f"exceeds {SYMMETRY_TOL:.0e} * max(1, |M|)"
            )
    return (mat + mat.T) / 2.0


def assert_psd(mat: np.ndarray, name: str = "matrix") -> None:
    """Raise unless the symmetric matrix is finite and has no eigenvalue
    below -PSD_TOL."""
    if not np.isfinite(mat).all():
        raise NotPositiveSemidefinite(f"{name} has a non-finite entry")
    eigs = np.linalg.eigvalsh(mat)
    if eigs.size and float(eigs[0]) < -PSD_TOL:
        raise NotPositiveSemidefinite(
            f"{name} has smallest eigenvalue {float(eigs[0]):.3e} < -{PSD_TOL:.0e}"
        )


def _cholesky(mat: np.ndarray, name: str, error: type[Exception]) -> np.ndarray:
    """Lower Cholesky factor of a finite symmetric matrix whose squared
    relative pivots all exceed PIVOT_TOL; raises `error` otherwise. The
    screen is written so that a NaN pivot fails it."""
    if not np.isfinite(mat).all():
        raise error(f"{name} has a non-finite entry")
    try:
        lower = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise error(f"{name} is not positive definite: {exc}") from None
    pivots = np.diag(lower)
    lo, hi = float(pivots.min()), float(pivots.max())
    if not (lo > 0.0 and (lo / hi) ** 2 > PIVOT_TOL):
        raise error(f"{name} is numerically singular: relative pivot {(lo / hi) ** 2:.3e}")
    return lower


def assert_pd(mat: np.ndarray, name: str = "matrix") -> None:
    """Raise NotPositiveDefinite unless the symmetric matrix passes the
    pivot-screened Cholesky."""
    _cholesky(mat, name, NotPositiveDefinite)


def spd_solve(mat: np.ndarray, rhs: np.ndarray, context: str = "linear solve") -> np.ndarray:
    """Solve mat @ x = rhs for symmetric positive definite mat.

    Raises NumericalFailure instead of a validation error: callers use this
    for matrices produced mid-recursion (innovation covariances, regularized
    curvature terms) where failure means the computation, not the input,
    broke down.
    """
    lower = _cholesky(np.asarray(mat, dtype=float), context, NumericalFailure)
    return np.linalg.solve(lower.T, np.linalg.solve(lower, np.asarray(rhs, dtype=float)))


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Return the d x r factor L with L @ L.T = cov, r = rank(cov), for a
    possibly singular covariance.

    Trusts its input to be a validated covariance: finite, exactly
    symmetric and PSD, as a model's covariances are once it is built; it
    checks none of that again. Uses an eigendecomposition, zeroes
    eigenvalues below FACTOR_CLIP times the largest, and keeps the
    eigenvector columns, in ascending eigenvalue order, whose clipped
    eigenvalue is nonzero, each scaled by its square root. A zero matrix
    factors as d x 0, so sampling through L draws one normal per direction
    the covariance excites and none for the others.
    """
    eigvals, eigvecs = np.linalg.eigh(cov)
    top = max(float(eigvals[-1]), 0.0) if eigvals.size else 0.0
    # eigh sorts ascending, so the kept eigenvalues are the last ones; a
    # slice, unlike a mask, keeps the factor C-ordered, and the digits of
    # the noise's BLAS products depend on that layout
    kept = slice(eigvals.size - int(np.count_nonzero(eigvals > FACTOR_CLIP * top)), None)
    return eigvecs[:, kept] * np.sqrt(eigvals[kept])[np.newaxis, :]
