"""Dense complex Hermitian linear algebra for small operators.

Eigendecompositions as descending ``(w, v)`` arrays, spectral matrix
functions under a pseudo-inverse convention on rank-deficient inputs,
Kronecker products, and pinching (dephasing into the eigenvalue clusters of
another operator). Each takes Hermitian arrays through
``hermitian_entries(m, atol=None)`` and returns read-only arrays. All
logarithms are natural; conversion to bits is presentation-only.
"""

from __future__ import annotations

import numpy as np

# Relative gap below which adjacent eigenvalues are grouped into one cluster.
CLUSTER_RTOL = 1e-8

# Eigenvalues at or below SUPPORT_RTOL * max|eigenvalue| count as exact zeros.
SUPPORT_RTOL = 1e-12

# Largest matrix dimension any operation will build.
DEFAULT_DIM_CAP = 4096


class HermitianError(ValueError):
    """Invalid input to a Hermitian-matrix operation."""


class SizeCapError(ValueError):
    """Requested matrix dimension exceeds the configured cap."""


class EigenConvergenceError(RuntimeError):
    """Eigendecomposition did not reach the required residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


def hermitian_entries(entries, ndim: int = 2, *, atol: float | None = 1e-12) -> np.ndarray:
    """Checked Hermitian average ``(M + M^dag)/2`` of a matrix (``ndim=2``) or a stack (``ndim=3``).

    Rejects another shape, non-finite entries and (unless ``atol=None``) an
    asymmetry above ``atol``, naming the offending index. The result is
    read-only and C-contiguous whatever the input's strides, so that
    later reductions over it round alike.
    """
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        raise HermitianError(f"expected {'a square matrix' if ndim == 2 else 'an (n, d, d) stack'}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        first = np.argwhere(~np.isfinite(m))[0]
        raise HermitianError(f"matrix entries must be finite, index {tuple(first.tolist())} is not")
    m_dag = m.conj().swapaxes(-1, -2)
    if atol is not None and m.size:
        asym = np.abs(m - m_dag)
        worst = np.unravel_index(np.argmax(asym), m.shape)
        if asym[worst] > atol:
            raise HermitianError(
                f"matrix is not Hermitian: max |M - M^dag| = {asym[worst]:.3e} > {atol:.1e} "
                f"at index {tuple(int(i) for i in worst)}"
            )
    out = np.ascontiguousarray((m + m_dag) / 2)
    out.setflags(write=False)
    return out


class HermitianMatrix:
    """A read-only Hermitian array ``mat``: a row of :attr:`qpa.cqstate.CQState.eve_states`.

    That property is its one use, kept because the benchmark's tracer reads
    it; it goes with ``eve_states`` once the tracer reads ``CQState.rhos``.
    Everything else in qpa computes on plain arrays.
    """

    __slots__ = ("mat",)

    def __init__(self, entries):
        self.mat = hermitian_entries(entries, atol=None)


def cluster_ranges(w: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Half-open index ranges ``(start, stop)`` of the gap clusters of descending eigenvalues ``w``.

    Members of one cluster differ by at most ``CLUSTER_RTOL * max|eigenvalue|``;
    a near-degenerate run longer than that span is split rather than merged,
    so the cluster count can only overestimate the number of distinct
    eigenvalues.
    """
    n = len(w)
    if n == 0:
        return ()
    tol = CLUSTER_RTOL * float(np.max(np.abs(w)))
    ranges = []
    start = 0
    for i in range(1, n):
        # split on a clear gap, or when the running span turns ambiguous
        if (w[i - 1] - w[i]) > tol or (w[start] - w[i]) > tol:
            ranges.append((start, i))
            start = i
    ranges.append((start, n))
    return tuple(ranges)


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a square stack: the root of one dot of its real and imaginary parts."""
    flat = np.ascontiguousarray(stack).reshape(*stack.shape[:-2], stack.shape[-1] ** 2).view(stack.real.dtype)
    return np.sqrt(np.vecdot(flat, flat))


def eigh_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a ``(n, d, d)`` Hermitian stack.

    One ``np.linalg.eigh`` call for the whole stack. Raises
    :class:`EigenConvergenceError` carrying the reconstruction residual when
    a decomposition fails to reproduce its matrix ``M`` to
    ``1e-10 * max(1, |M|)`` in Frobenius norm: 1e-10 outright for density
    matrices, relative for larger ones such as the sandwiched blocks
    ``(rho^E)^{-1/2} rho_a (rho^E)^{-1/2}`` of a nearly singular marginal,
    whose exact decompositions carry residuals in proportion to their norm.
    """
    try:
        w, v = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition failed: {exc}") from exc
    rebuilt = ((v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))).astype(np.result_type(v, mats), copy=False)
    rebuilt -= mats  # in place: the residuals
    residuals, scales = _frobenius(rebuilt), np.maximum(_frobenius(mats), 1.0)
    bad = np.flatnonzero(residuals > 1e-10 * scales)
    if bad.size:
        residual = float(residuals[bad[0]])
        raise EigenConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds {1e-10 * float(scales[bad[0]]):.3e}",
            residual,
        )
    return w, v


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues ``w`` and eigenvectors ``v`` (columns) of the Hermitian array ``m``.

    Deterministic for identical input; the residual check of
    :func:`eigh_batch` applies. Both arrays are read-only.
    """
    w, v = eigh_batch(hermitian_entries(m, atol=None)[None])
    w = w[0, ::-1].copy()
    v = v[0, :, ::-1].copy()
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _spectral(m) -> tuple[np.ndarray, np.ndarray, float]:
    """Descending eigenvalues and eigenvectors of ``m`` and its support cut ``SUPPORT_RTOL * max|eigenvalue|``."""
    w, v = eig_hermitian(m)
    return w, v, SUPPORT_RTOL * float(np.max(np.abs(w), initial=0.0))


def _rebuild(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    return hermitian_entries((v * values) @ v.conj().T, atol=None)


def matrix_power(m, p: float) -> np.ndarray:
    """Spectral power ``m^p`` with zeros kept at zero (pseudo-inverse style).

    Eigenvalues within ``SUPPORT_RTOL * max|eigenvalue|`` of zero map to zero.
    A fractional ``p`` on an eigenvalue decisively below zero is a domain
    error; integer powers act on the full spectrum.
    """
    w, v, cut = _spectral(m)
    out = np.zeros_like(w)
    if float(p).is_integer():
        ip = int(p)
        if ip >= 0:
            out = w.astype(float) ** ip
        else:
            keep = np.abs(w) > cut
            out[keep] = w[keep] ** ip
    else:
        if np.any(w < -cut):
            raise HermitianError(
                f"fractional power {p} of a matrix with negative eigenvalue {w[-1]:.3e}"
            )
        keep = w > cut
        out[keep] = w[keep] ** p
    return _rebuild(v, out)


def matrix_log(m) -> np.ndarray:
    """Spectral natural log on the support of ``m``; the kernel maps to zero."""
    w, v, cut = _spectral(m)
    if np.any(w < -cut):
        raise HermitianError(f"log of a matrix with negative eigenvalue {w[-1]:.3e}")
    out = np.zeros_like(w)
    keep = w > cut
    out[keep] = np.log(w[keep])
    return _rebuild(v, out)


def tensor(a, b) -> np.ndarray:
    """Kronecker product ``a (x) b``."""
    a, b = hermitian_entries(a, atol=None), hermitian_entries(b, atol=None)
    new_dim = len(a) * len(b)
    if new_dim > DEFAULT_DIM_CAP:
        raise SizeCapError(f"tensor dimension {new_dim} exceeds cap {DEFAULT_DIM_CAP}")
    return hermitian_entries(np.kron(a, b), atol=None)


def pinch(sigma, rho) -> np.ndarray:
    """Dephase ``rho`` into the eigenbasis of ``sigma``.

    Sums ``E_i rho E_i`` over sigma's eigenvalue-cluster projectors; trace
    preserving, and the result commutes with sigma up to the cluster widths.
    """
    w, vs = eig_hermitian(sigma)
    rho = hermitian_entries(rho, atol=None)
    if len(w) != len(rho):
        raise HermitianError(f"dimension mismatch: {len(w)} vs {len(rho)}")
    out = np.zeros_like(rho)
    for a, b in cluster_ranges(w):
        block = vs[:, a:b]
        out += block @ (block.conj().T @ rho @ block) @ block.conj().T
    return hermitian_entries(out, atol=None)
