"""Dense complex Hermitian linear algebra for small operators.

Eigendecompositions with eigenvalue clustering, spectral matrix functions
under a pseudo-inverse convention on rank-deficient inputs, Kronecker
products, and pinching (dephasing into another operator's eigenbasis).
All logarithms are natural; conversion to bits is presentation-only.
"""

from __future__ import annotations

import dataclasses

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
    read-only and C-contiguous whatever the input's memory order, so that
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
    """Immutable dense Hermitian matrix with a lazily cached spectrum.

    The entries pass :func:`hermitian_entries`: non-finite entries and
    (unless ``atol=None``) an asymmetry above ``atol`` are rejected, and the
    stored matrix is the exact Hermitian average ``(M + M^dag)/2``. Instances
    are safe to share across threads: the entry array is read-only and the
    spectrum cache is either populated once or recomputed idempotently.
    """

    __slots__ = ("_mat", "_spectrum")

    def __init__(self, entries, *, atol: float | None = 1e-12):
        self._mat = hermitian_entries(entries, atol=atol)
        self._spectrum = None

    @property
    def mat(self) -> np.ndarray:
        """Read-only complex entry array."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def spectrum(self) -> "Spectrum":
        if self._spectrum is None:
            self._spectrum = eig_hermitian(self)
        return self._spectrum

    def trace(self) -> float:
        return float(np.trace(self._mat).real)

    def operator_norm(self) -> float:
        w = self.spectrum.eigenvalues
        return float(np.max(np.abs(w))) if w.size else 0.0

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with descending eigenvalues and gap clusters.

    ``clusters`` is a tuple of half-open index ranges ``(start, stop)`` into
    the descending eigenvalue array; members of one cluster differ by at most
    ``CLUSTER_RTOL * max|eigenvalue|`` and a near-degenerate run longer than
    that span is split rather than merged, so the cluster count can only
    overestimate the number of distinct eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple[tuple[int, int], ...]

    @property
    def distinct_count(self) -> int:
        return len(self.clusters)


def _cluster_ranges(w: np.ndarray) -> tuple[tuple[int, int], ...]:
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
    rebuilt = (v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    residuals = np.linalg.norm(rebuilt - mats, axis=(-2, -1))
    scales = np.maximum(np.linalg.norm(mats, axis=(-2, -1)), 1.0)
    bad = np.flatnonzero(residuals > 1e-10 * scales)
    if bad.size:
        residual = float(residuals[bad[0]])
        raise EigenConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds {1e-10 * float(scales[bad[0]]):.3e}",
            residual,
        )
    return w, v


def eigh_descending(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """Descending eigenvalues, eigenvectors and :class:`Spectrum` clusters of one Hermitian array.

    Deterministic for identical input; the residual check of
    :func:`eigh_batch` applies. Both arrays are read-only.
    """
    w, v = eigh_batch(mat[None])
    w = w[0, ::-1].copy()
    v = v[0, :, ::-1].copy()
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v, _cluster_ranges(w)


def eig_hermitian(m: HermitianMatrix) -> Spectrum:
    """Eigendecomposition of ``m`` with descending, clustered eigenvalues."""
    return Spectrum(*eigh_descending(m.mat))


def _rebuild(v: np.ndarray, values: np.ndarray) -> HermitianMatrix:
    return HermitianMatrix((v * values) @ v.conj().T, atol=None)


def matrix_power(m: HermitianMatrix, p: float) -> HermitianMatrix:
    """Spectral power ``m^p`` with zeros kept at zero (pseudo-inverse style).

    Eigenvalues within ``SUPPORT_RTOL * max|eigenvalue|`` of zero map to zero.
    A fractional ``p`` on an eigenvalue decisively below zero is a domain
    error; integer powers act on the full spectrum.
    """
    spec = m.spectrum
    w = spec.eigenvalues
    if w.size == 0:
        return m
    cut = SUPPORT_RTOL * float(np.max(np.abs(w)))
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
    return _rebuild(spec.eigenvectors, out)


def matrix_log(m: HermitianMatrix) -> HermitianMatrix:
    """Spectral natural log on the support of ``m``; the kernel maps to zero."""
    spec = m.spectrum
    w = spec.eigenvalues
    if w.size == 0:
        return m
    cut = SUPPORT_RTOL * float(np.max(np.abs(w)))
    if np.any(w < -cut):
        raise HermitianError(f"log of a matrix with negative eigenvalue {w[-1]:.3e}")
    out = np.zeros_like(w)
    keep = w > cut
    out[keep] = np.log(w[keep])
    return _rebuild(spec.eigenvectors, out)


def tensor(a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    """Kronecker product ``a (x) b``."""
    new_dim = a.dim * b.dim
    if new_dim > DEFAULT_DIM_CAP:
        raise SizeCapError(f"tensor dimension {new_dim} exceeds cap {DEFAULT_DIM_CAP}")
    return HermitianMatrix(np.kron(a.mat, b.mat), atol=None)


def identity(dim: int) -> HermitianMatrix:
    return HermitianMatrix(np.eye(dim), atol=None)


def pinch(sigma: HermitianMatrix, rho: HermitianMatrix) -> HermitianMatrix:
    """Dephase ``rho`` into the eigenbasis of ``sigma``.

    Sums ``E_i rho E_i`` over sigma's eigenvalue-cluster projectors; trace
    preserving, and the result commutes with sigma up to the cluster widths.
    """
    if sigma.dim != rho.dim:
        raise HermitianError(f"dimension mismatch: {sigma.dim} vs {rho.dim}")
    vs = sigma.spectrum.eigenvectors
    out = np.zeros_like(rho.mat)
    for a, b in sigma.spectrum.clusters:
        block = vs[:, a:b]
        out += block @ (block.conj().T @ rho.mat @ block) @ block.conj().T
    return HermitianMatrix(out, atol=None)
