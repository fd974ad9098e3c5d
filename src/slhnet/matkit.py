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
sparse matrix.  Both apply the same pivot rule and the same 1-norm
condition gate.  A feedback reduction hands its loop matrix to the sparse
backend, as a ``_Compressed`` CSC, from ``SPARSE_MIN`` internal channels
on, when at most a ``SPARSE_FILL`` share of the entries of its S and of its
C is nonzero: there SuperLU's fill-reducing order keeps the factor near
O(k) entries, where the dense LU costs O(k³).

Both call SciPy's compiled files, loaded by path as ``slhnet.<name>``:
``linalg/_flapack`` (zgetrf, zgetrs, zgecon) at import, and
``sparse/linalg/_dsolve/_superlu`` (gstrf) and ``sparse/_sparsetools``
(the sparse products) at the first sparse factorization.  No SciPy Python
code runs: ``scipy/__init__`` and its subpackages' imports pull in
``numpy.f2py`` and ``numpy.testing``, more than double the start-up of a
one-shot ``qnet`` call, and ``scipy.sparse.linalg`` adds ~27 MB to a
process.  A file not where SciPy's layout puts it is imported by its
usual name, as the LAPACK routines are once ``scipy.linalg`` is imported.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import NamedTuple

import numpy as np

STRUCT_TOL = 1e-9    # absolute tolerance of the structural checks
EIG_MERGE_GAP = 1e-9  # relative gap under which eigenvalues share a projector
PIVOT_REL = 1e-12    # least pivot / max column 1-norm, and least 1-norm rcond, to solve
SPARSE_MIN = 128     # least k for a sparse LU of a k×k loop matrix; see network._blocks
SPARSE_FILL = 1 / 64  # largest share of nonzero entries of S and of C for it; see network._blocks


def _scipy_file(path: str) -> str | None:
    """The file of SciPy's compiled module ``path`` (as "linalg/_flapack"), found without
    importing SciPy."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            file = os.path.join(root, *path.split("/")) + suffix
            if os.path.isfile(file):
                return file
    return None


def _extension(path: str):
    """SciPy's compiled module ``path``, loaded from its file as ``slhnet.<name>``; imported
    by its usual name, as ``scipy.linalg._flapack``, when the file is not found, and kept
    as ``slhnet.<name>`` too, so that the file is looked for once."""
    name = "slhnet." + path.rpartition("/")[2]
    module = sys.modules.get(name)
    if module is None:
        file = _scipy_file(path)
        if file is None:
            module = importlib.import_module("scipy." + path.replace("/", "."))
        else:
            spec = importlib.util.spec_from_file_location(name, file)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _lapack() -> tuple:
    """zgetrf, zgetrs and zgecon: from SciPy's own module once ``scipy.linalg`` is imported,
    else as :func:`_extension` finds them."""
    module = (importlib.import_module("scipy.linalg._flapack") if "scipy.linalg" in sys.modules
              else _extension("linalg/_flapack"))
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
    SuperLU's object, whose L and U read as CSC (data, indices, indptr).
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

    This is the one singularity gate of the package.  A sparse M, a
    ``_Compressed`` CSC, is factored by SuperLU (as ``splu`` factors it,
    with its fill-reducing column order; Li, ACM TOMS 31:302, 2005), any
    other M densely by LAPACK (zgetrf).
    Raises ValueError on a non-square or non-finite M, and SingularMatrix
    when a pivot (a diagonal entry of U) falls below ``PIVOT_REL`` times
    the largest column 1-norm of M, ‖M‖₁, or when the estimate of 1/κ₁(M)
    from the LU is ≤ ``PIVOT_REL``; an exactly singular M is rejected
    either way.  The estimate is Hager and Higham's iteration over solves
    with the LU (Higham, ACM TOMS 14:381, 1988): zgecon for a dense M; for
    a sparse one, :func:`_onenormest` and the alternative estimate that
    ends zgecon's iteration.  M itself is left unchanged.
    """
    sparse = isinstance(m, _Compressed)
    if not sparse:
        m = np.asarray(m, dtype=complex)
    if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if sparse:
        return _factor_sparse(m)
    if m.size == 0:
        return LU(m, None, 0.0, 1.0)
    if not np.isfinite(m).all():
        raise ValueError("array must not contain infs or NaNs")
    anorm = float(np.abs(m).sum(axis=0).max())
    lu, piv, _ = _getrf(np.array(m, order="F"), overwrite_a=True)
    return _gate(lu, lambda rhs, trans: _getrs(lu, piv, rhs, trans=trans)[0], anorm,
                 lu.diagonal(), lambda: float(_gecon(lu, anorm)[0]))


class _Compressed(NamedTuple):
    """A sparse matrix as SciPy keeps a canonical CSC or CSR one: ``data`` by major, then
    minor index, ``indices`` the minor indices (rows of a CSC) and ``indptr`` where each
    major line starts, both np.intc.  ``@`` a dense matrix calls SciPy's compiled kernel."""

    format: str     # "csc" or "csr"
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def of_entries(cls, format: str, rows, cols, values, shape) -> _Compressed:
        """The matrix ``scipy.sparse.csc_array((values, (rows, cols)), shape)`` (or csr_array)
        builds: entries sorted, the two at a position summed (none may hold more)."""
        major, minor = (cols, rows) if format == "csc" else (rows, cols)
        order = np.lexsort((minor, major))
        major, minor, values = major[order], minor[order], values[order]
        twin = (major[1:] == major[:-1]) & (minor[1:] == minor[:-1])
        values[:-1][twin] += values[1:][twin]
        keep = np.ones(len(values), dtype=bool)
        keep[1:] = ~twin
        counts = np.bincount(major[keep], minlength=shape[format == "csc"])
        return cls(format, values[keep], minor[keep].astype(np.intc),
                   np.concatenate([[0], np.cumsum(counts)]).astype(np.intc), shape)

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        """M·Y for a dense 2-D complex Y, summed into zeros as SciPy's ``@`` sums it."""
        out = np.zeros((self.shape[0], other.shape[1]), dtype=complex)
        kernel = getattr(_extension("sparse/_sparsetools"), self.format + "_matvecs")
        kernel(*self.shape, other.shape[1], self.indptr, self.indices, self.data, other.ravel(),
               out.ravel())
        return out


def _factor_sparse(m: _Compressed) -> LU:
    """SuperLU's factor of a CSC M, called with the arguments ``splu`` passes by default."""
    n, data, indices, indptr = m.shape[0], m.data, m.indices, m.indptr
    if n == 0:
        return LU(np.zeros((0, 0), dtype=complex), None, 0.0, 1.0)
    if not np.isfinite(data).all():
        raise ValueError("array must not contain infs or NaNs")
    sums = np.zeros(n)      # column 1-norms as scipy.sparse sums them
    nonempty = np.flatnonzero(np.diff(indptr))
    sums[nonempty] = np.add.reduceat(np.abs(data), indptr[nonempty])
    anorm = float(sums.max())
    try:
        lu = _extension("sparse/linalg/_dsolve/_superlu").gstrf(
            n, len(data), data, indices, indptr, csc_construct_func=lambda arrays, shape: arrays,
            ilu=False, options=dict.fromkeys(("DiagPivotThresh", "ColPerm", "PanelSize", "Relax")))
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        raise SingularMatrix(np.inf) from exc
    u_data, u_indices, u_indptr = lu.U      # U's CSC arrays, by the construct function above
    pivots = np.empty(n, dtype=complex)
    _extension("sparse/_sparsetools").csr_diagonal(0, n, n, u_indptr, u_indices, u_data, pivots)

    def rcond() -> float:
        # _onenormest leaves out the last step of the iteration (zlacn2's
        # alternative estimate 2‖M⁻¹x‖₁/(3n), x_i = (−1)^i(1 + i/(n − 1)))
        alternating = np.linspace(1, 2, n, dtype=complex) * (-1) ** np.arange(n)
        with np.errstate(over="ignore", invalid="ignore"):
            est = float(np.max([_onenormest(lu.solve, n),
                                2 * np.abs(lu.solve(alternating)).sum() / (3 * n)]))
        return 1 / (anorm * est) if est < np.inf else 0.0    # nan, inf: overflow

    return _gate(lu, lambda rhs, trans: lu.solve(rhs, "NT"[trans]), anorm, pivots, rcond)


def _onenormest(solve, n: int):
    """A lower bound on ‖M⁻¹‖₁ from ``solve(x)`` = M⁻¹x and ``solve(x, "H")`` = M⁻†x: SciPy's
    ``onenormest(M⁻¹, t=1)`` step for step, Higham and Tisseur's block estimate (SIAM J.
    Matrix Anal. Appl. 21:1185, 2000) at one column, which draws no random numbers."""
    x, est_old, signs = np.full((n, 1), 1 / n), 0, None
    for k in range(1, 7):
        y = solve(x)
        est = np.max(np.sum(np.abs(y), axis=0))
        if k == 2 or k > 2 and est > est_old:
            best = ind      # the column behind the best estimate so far
        if k >= 2 and est <= est_old:
            return est_old
        if k == 6:      # SciPy's itmax of 5
            return est
        est_old, signs_old, signs = est, signs, np.where(y == 0, 1, y)
        signs /= np.abs(signs)
        if signs_old is not None and np.dot(signs[:, 0], signs_old[:, 0]) == n:
            return est      # the signs repeat
        h = np.max(np.abs(solve(signs, "H")), axis=1)
        if k >= 2 and max(h) == h[best]:    # Python's max, as SciPy's: they differ on nan
            return est
        ind = np.argsort(h)[-1]     # the first of SciPy's np.argsort(h)[::-1]
        x = np.zeros((n, 1))
        x[ind] = 1


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
