"""Complex-matrix kernel shared by every other module.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  The
structural checks compare a max-entry residual with the absolute
``STRUCT_TOL``: :func:`unitarity_residual` of S in ``slh.validate`` and of T
in ``network.BeamSplitter``, and ‖M − M†‖_max of Ω in ``slh.validate`` and
of E and K in ``stratcal.StratonovichModel``.  They suit O(1)-normalized
parameters but do not scale with the model's units: an Ω hermitian up to
rounding, with rates of 1e6 or more, can fail them on the rounding alone.
The singularity gate is relative to ‖M‖₁.

:func:`factor` is the one singularity gate, with two backends behind one
interface: LAPACK's dense LU for an array and SuperLU's sparse LU for a
``scipy.sparse`` matrix.  Both apply the same pivot rule and the same
1-norm condition gate.  A feedback reduction hands its loop matrix to
the sparse backend from ``SPARSE_MIN`` internal channels on, when at most
a ``SPARSE_FILL`` share of the entries of its S and of its C is nonzero:
there SuperLU's fill-reducing order keeps the factor near O(k) entries,
where the dense LU costs O(k³).

The dense backend calls three LAPACK routines, zgetrf, zgetrs and zgecon,
from SciPy's compiled LAPACK wrapper ``scipy/linalg/_flapack``.  That file
is loaded by path, under the private name ``slhnet._flapack``, so that
importing this package does not run ``scipy/__init__`` and
``scipy/linalg/__init__``; those import much of numpy and SciPy besides
(``numpy.f2py``, ``numpy.testing``) and more than double the start-up of
a one-shot ``qnet`` call.  When ``scipy.linalg`` is already imported, or
the file is not where SciPy's layout puts it, the same routines come
from ``scipy.linalg.get_lapack_funcs``.  SciPy itself is imported only
by the first sparse factorization.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

STRUCT_TOL = 1e-9    # absolute tolerance of the structural checks
EIG_MERGE_GAP = 1e-9  # relative gap under which eigenvalues share a projector
PIVOT_REL = 1e-12    # least pivot / max column 1-norm, and least 1-norm rcond, to solve
SPARSE_MIN = 128     # least k for a sparse LU of a k×k loop matrix; see network._blocks
SPARSE_FILL = 1 / 64  # largest share of nonzero entries of S and of C for it; see network._blocks


def _flapack_file() -> str | None:
    """The path of SciPy's ``linalg/_flapack`` extension, found without importing SciPy."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _lapack() -> tuple:
    """zgetrf, zgetrs and zgecon: from SciPy's file, unless ``scipy.linalg`` is imported or
    the file is not found; then from ``scipy.linalg.get_lapack_funcs``."""
    path = None if "scipy.linalg" in sys.modules else _flapack_file()
    if path is None:
        from scipy.linalg import get_lapack_funcs
        return tuple(get_lapack_funcs(("getrf", "getrs", "gecon"), dtype=complex))
    module = sys.modules.get("slhnet._flapack")
    if module is None:
        spec = importlib.util.spec_from_file_location("slhnet._flapack", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[spec.name] = module
    return module.zgetrf, module.zgetrs, module.zgecon


_getrf, _getrs, _gecon = _lapack()


class SingularMatrix(ValueError):
    """The LU factorization found M too close to singular to solve.

    ``condition`` is the 1-norm condition estimate of M, inf when a pivot
    met the pivot rule (no estimate is taken then).
    """

    def __init__(self, condition: float):
        super().__init__("matrix is singular to working precision")
        self.condition = condition


def as_matrix(value, rows: int | None = None, cols: int | None = None,
              name: str = "matrix", copy: bool = True) -> np.ndarray:
    """Coerce ``value`` to a 2-D complex128 array, rejecting NaN/Inf entries.

    With ``copy=False`` a complex128 array is returned itself, not copied.
    """
    m = np.array(value, dtype=complex) if copy else np.asarray(value, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {m.shape[1]}")
    return m


def max_abs(m) -> float:
    """Max-entry norm; zero for empty matrices."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def herm_real(m) -> np.ndarray:
    """Hermitian part (M + M†)/2, halved before the sum so that it cannot overflow."""
    m = np.asarray(m, dtype=complex)
    return m / 2 + m.conj().T / 2


def herm_imag(m) -> np.ndarray:
    """Anti-hermitian part mapped to a hermitian matrix: (M − M†)/(2i).

    This is the matrix reading of Im{a† M a} as a quadratic form: it is
    the unique hermitian N with a† N a = Im{a† M a}.
    """
    m = np.asarray(m, dtype=complex)
    return (m - m.conj().T) / 2j


class LU:
    """P L U = M from factor(): solves, ‖M‖₁ and a 1-norm condition estimate.

    ``lu`` is the factor itself: LAPACK's array holding L and U, or
    SciPy's SuperLU object.
    """

    def __init__(self, lu, solve, anorm: float, rcond: float):
        self.lu, self._solve, self.anorm, self._rcond = lu, solve, anorm, rcond
        self.n = lu.shape[0]

    def solve(self, rhs, trans: int = 0) -> np.ndarray:
        """X with M X = RHS (Mᵀ X = RHS if ``trans`` is 1); ValueError on a bad RHS."""
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.shape[:1] != (self.n,):
            raise ValueError(f"rhs has {len(rhs)} rows, expected {self.n}")
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        return self._solve(rhs, trans) if rhs.size else np.zeros_like(rhs)

    def rcond(self) -> float:
        """The estimate of 1/κ₁(M) taken once by factor(); 1.0 when M is empty."""
        return self._rcond

    def inverse_norm(self) -> float:
        """The same estimate of ‖M⁻¹‖₁, a lower bound: 1/(rcond·‖M‖₁); 0.0 when M is empty."""
        return 1 / (self._rcond * self.anorm) if self.n else 0.0


def factor(m) -> LU:
    """LU-factor M once, with partial pivoting, and decide whether M can be solved.

    This is the one singularity gate of the package.  A ``scipy.sparse``
    M is factored by SuperLU (``splu`` with its fill-reducing column
    order; Li, ACM TOMS 31:302, 2005), any other M densely by LAPACK
    (zgetrf).  Raises ValueError on a non-square or non-finite M, and
    SingularMatrix when a pivot (a diagonal entry of U) falls below
    ``PIVOT_REL`` times the largest column 1-norm of M, ‖M‖₁, or when the
    estimate of 1/κ₁(M) from the LU is ≤ ``PIVOT_REL``; an exactly
    singular M is rejected either way.  The estimate is Hager and
    Higham's iteration over solves with the LU (Higham, ACM TOMS 14:381,
    1988): zgecon for a dense M; for a sparse one, ``onenormest`` with one
    column (it draws no random numbers) and the alternative estimate that
    ends zgecon's iteration.  M itself is left unchanged.
    """
    sparse = sys.modules.get("scipy.sparse")    # no sparse M exists before it is imported
    if sparse is not None and sparse.issparse(m):
        return _factor_sparse(m)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return LU(m, None, 0.0, 1.0)
    if not np.isfinite(m).all():
        raise ValueError("array must not contain infs or NaNs")
    anorm = float(np.abs(m).sum(axis=0).max())
    lu, piv, _ = _getrf(np.array(m, order="F"), overwrite_a=True)
    return _gate(lu, lambda rhs, trans: _getrs(lu, piv, rhs, trans=trans)[0], anorm,
                 lu.diagonal(), lambda: float(_gecon(lu, anorm)[0]))


def _factor_sparse(m) -> LU:
    from scipy.sparse.linalg import LinearOperator, onenormest, splu
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n == 0:
        return LU(np.zeros((0, 0), dtype=complex), None, 0.0, 1.0)
    m = m.tocsc().astype(complex)    # a copy, so that summing duplicates leaves M unchanged
    m.sum_duplicates()
    if not np.isfinite(m.data).all():
        raise ValueError("array must not contain infs or NaNs")
    anorm = float(abs(m).sum(axis=0).max())
    try:
        lu = splu(m)
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        raise SingularMatrix(np.inf) from exc

    def rcond() -> float:
        inverse = LinearOperator((n, n), matvec=lu.solve, matmat=lu.solve, dtype=complex,
                                 rmatvec=lambda x: lu.solve(x, "H"),
                                 rmatmat=lambda x: lu.solve(x, "H"))
        # onenormest leaves out the last step of the iteration (zlacn2's
        # alternative estimate 2‖M⁻¹x‖₁/(3n), x_i = (−1)^i(1 + i/(n − 1)))
        alternating = np.linspace(1, 2, n, dtype=complex) * (-1) ** np.arange(n)
        with np.errstate(over="ignore", invalid="ignore"):
            est = float(np.max([onenormest(inverse, t=1),
                                2 * np.abs(lu.solve(alternating)).sum() / (3 * n)]))
        return 1 / (anorm * est) if est < np.inf else 0.0    # nan, inf: overflow

    return _gate(lu, lambda rhs, trans: lu.solve(rhs, "NT"[trans]), anorm, lu.U.diagonal(),
                 rcond)


def _gate(lu, solve, anorm: float, pivots: np.ndarray, rcond) -> LU:
    """The LU, unless a pivot meets the pivot rule or ``rcond()`` is ≤ PIVOT_REL."""
    if np.abs(pivots).min() <= PIVOT_REL * anorm:
        raise SingularMatrix(np.inf)
    estimate = rcond()
    if not estimate > PIVOT_REL:
        raise SingularMatrix(1 / estimate if estimate else np.inf)
    return LU(lu, solve, anorm, estimate)


def solve(m, rhs, trans: int = 0) -> np.ndarray:
    """Solve M X = RHS (Mᵀ X = RHS if ``trans`` is 1) by LU factorization with partial pivoting.

    Raises SingularMatrix as :func:`factor` does (the explicit inverse is
    never formed).
    """
    return factor(m).solve(rhs, trans)


def gram_residual(x) -> np.ndarray:
    """‖X·X† − I‖_max of each matrix of a (G, n, n) stack, shape (G,); inf on overflow.

    A finite X yields NaN only through overflow (inf − inf), so NaN reads
    inf, as does a pole's NaN row of ``transfer.freq_response``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        worst = np.max(np.abs(x @ x.conj().swapaxes(1, 2) - np.eye(x.shape[1])), axis=(1, 2),
                       initial=0.0)
    worst[np.isnan(worst)] = np.inf
    return worst


def unitarity_residual(m) -> float:
    """max(‖M†M − I‖_max, ‖MM† − I‖_max), the larger gram_residual of M† and M."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("unitarity needs a square matrix")
    return float(gram_residual(np.stack([m.conj().T, m])).max())


def eig_hermitian(m) -> tuple[np.ndarray, list[np.ndarray]]:
    """Spectral decomposition M = Σ_k λ_k P_k of a hermitian matrix.

    Eigenvalues are returned ascending; eigenvalues closer than
    ``EIG_MERGE_GAP`` (relative to max(1, spectral radius)) share a single
    orthogonal projector, so degenerate clusters come back as one term.
    Only the lower triangle of M is read, as ``numpy.linalg.eigh`` reads it.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[0] == 0:
        return np.zeros(0), []
    w, v = np.linalg.eigh(m)
    scale = max(1.0, float(np.max(np.abs(w))))
    values = []
    projectors = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > EIG_MERGE_GAP * scale:
            block = v[:, start:i]
            values.append(float(np.mean(w[start:i])))
            projectors.append(block @ block.conj().T)
            start = i
    return np.array(values), projectors
