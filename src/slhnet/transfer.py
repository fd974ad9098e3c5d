"""Transfer-function evaluation and the all-pass spectral closed form.

The transfer matrix of a component is Xi(s) = S − C(sI − A)⁻¹C†S with
A = −½C†C − iΩ the drift matrix; the initial-condition kernel is
xi(s) = C(sI − A)⁻¹.  On the imaginary axis (approached from the right
half-plane) Xi is unitary for every valid component; when Omega is a
function of C†C the whole matrix collapses to a sum of scalar all-pass
factors over the spectrum of CC†, which this module extracts.  It accepts
that form only when an algebraic first-order bound on |form − Xi| over the
whole imaginary axis stays within tolerance; Xi itself is never evaluated.

A single point costs one LU solve of sI − A, gated by matkit.factor: s is
a pole when a pivot is ≤ PIVOT_REL = 1e-12 times ‖sI − A‖₁, or the 1-norm
reciprocal condition estimate is ≤ PIVOT_REL.  A sweep over G points flags
pole candidates by one of two routes and hands each to eval_transfer: it
stays a pole only if eval_transfer rejects it too, and otherwise takes
eval_transfer's Xi and xi, so a sweep pole is an eval_transfer pole.

Triangular route.  Mode j drives mode i when |a_ij| > m·u·‖A‖₁.  When every
strongly connected component of that graph is one mode, as in a cascade of
one-mode units, the components in topological order (one reachability
closure by Boolean squaring) permute A to upper triangular T (Laub 1981),
and each point costs one O(n·m²) triangular solve.  The entries dropped
are rounding of exact zeros (≤ 0.9·u·‖A‖₁ in random cascades).  T_ii are
the units' own drift eigenvalues, and s is a candidate when min_i |s − T_ii|
≤ PIVOT_REL·‖sI − A‖₁.  The converse fails in a band: σ_min(sI − A) of a
far-from-normal A can lie well below that gap.  Of 3000 random cascades of
2–24 one-mode units probed at 10^[−1.5, 1.5] times the threshold from a
drift eigenvalue, 1258 were poles for eval_transfer alone.

Cayley route.  Every other drift (a dense component, a loop, a cascade of
multi-mode units) is swept in the eigenbasis of Ω = UΛU†, with no Schur
form of the non-normal A.  With W = CU, d_j = s + iλ_j, D = diag(d) and
K = W D⁻¹W†, sI − A = U(D + ½W†W)U†, so push-through gives, for
M = I + K/2, xi = M⁻¹W D⁻¹U† and Xi = M⁻¹(I − K/2)S = (2M⁻¹ − I)S.  One
eigh serves the grid, then batched products over all points.  The form
loses up to u·|w_j|²/|d_j| next to an eigenvalue of Ω (at most 0.57× that
over 1600 probes 1e-9 to 1e-6 from one).  A mode where that reaches
PIVOT_REL/10·max(1, ‖A‖₁), a tenth of the 1e-12·max(1, ‖A‖₂) the tests
allow, gets d_j' = 1 + |s| instead, and e_j = d_j − d_j' joins a per-point
Woodbury core Z = I + B D'⁻¹B†H of size n + p in M's place: B is W over
rows √(2|e_j|)·e_jᵀ, and H = ½·diag(1, …, 1, e_j/|e_j|, …).
  eval_transfer rejects s only when κ₁(sI − A) ≥ 1/(m·PIVOT_REL): a pivot
u_ii of P·L·U gives ‖U⁻¹‖₁ ≥ 1/|u_ii| and ‖U⁻¹‖₁ ≤ m·‖(sI − A)⁻¹‖₁, as
|l_ij| ≤ 1, and zgecon's estimate of ‖(sI − A)⁻¹‖₁ is a lower bound.  By
Woodbury, ‖(sI − A)⁻¹‖₂ ≤ ρ = 1/min|d_j'| + ½‖B D'⁻¹‖_F²·‖Z⁻¹‖_F, and
κ₁ ≤ (|s| + ‖A‖₁)·√m·ρ.  So s is a candidate when (|s| + ‖A‖₁)·ρ ≥
½/(m^1.5·PIVOT_REL), the ½ covering the rounding of ρ and of
eval_transfer's LU: the candidates hold every eval_transfer pole, and both
decide every point alike.  An Ω that is not bitwise hermitian (an invalid
component), or a Z that LAPACK finds exactly singular, makes every point a
candidate.  Triangular drifts keep their route: on the 128-unit benchmark
cascade the Cayley route took 1.4–1.7× as long (an eigh of the 128×128 Ω,
and more candidates), and sat up to 6e-13 from the unit oracle, not 1.6e-13.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import matkit
from .slh import LinearComponent, drift

#: Right-half-plane offset used to realize s = 0⁺ + iω on the axis.
SIGMA_MIN = 1e-10


class SingularAtS(ValueError):
    """Evaluation requested at a pole of the resolvent (sI − A singular)."""


class NotCommuting(ValueError):
    """Omega is not a function of C†C, so no all-pass closed form exists."""


class ZeroModeAmbiguity(ValueError):
    """CC† has a zero eigenvalue, whose detuning is invisible in Xi."""


@dataclass(frozen=True)
class TransferEvaluation:
    """Xi(s) and xi(s) at one Laplace point."""

    s: complex
    Xi: np.ndarray
    xi: np.ndarray


@dataclass(frozen=True)
class FreqPoint:
    """One grid point of a frequency response; evaluation is None at poles."""

    omega: float
    evaluation: TransferEvaluation | None

    @property
    def singular(self) -> bool:
        return self.evaluation is None


@dataclass(frozen=True)
class ResidualReport:
    """Residuals at a set of points against a pass tolerance.

    check_unitary_on_axis reports ‖Xi·Xi† − I‖_max per frequency ω.
    """

    points: tuple
    residuals: tuple[float, ...]
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals)


def eval_transfer(comp: LinearComponent, s: complex) -> TransferEvaluation:
    """Evaluate Xi(s) = S − C(sI−A)⁻¹C†S and xi(s) = C(sI−A)⁻¹.

    Raises SingularAtS when s is a pole (matkit.factor rejects sI − A)
    and ValueError when s is not finite.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"s = {s} is not finite")
    A = drift(comp)
    m = comp.m_modes
    resolvent_arg = s * np.eye(m) - A
    rhs = np.concatenate([comp.C.conj().T @ comp.S, np.eye(m)], axis=1)
    try:
        X = matkit.solve(resolvent_arg, rhs)
    except matkit.SingularMatrix as exc:
        raise SingularAtS(f"s = {s} is a pole of the transfer function") from exc
    n = comp.n_ports
    Xi = comp.S - comp.C @ X[:, :n]
    xi = comp.C @ X[:, n:]
    return TransferEvaluation(s=s, Xi=Xi, xi=xi)


def freq_response(comp: LinearComponent, omegas,
                  sigma: float = SIGMA_MIN) -> list[FreqPoint]:
    """Evaluate along s = sigma + iω for each ω, in grid order.

    Poles are reported per point (evaluation None) rather than aborting
    the sweep: a point is a pole exactly when its route (triangular when the
    drift permutes to triangular form, Cayley otherwise; see the module
    docstring) flags it and eval_transfer raises SingularAtS there.  A
    flagged point eval_transfer accepts takes its Xi and xi.  Raises
    ValueError on a non-finite ω or sigma.
    """
    omegas = np.array([float(w) for w in omegas])
    sigma = float(sigma)
    if not (np.isfinite(sigma) and np.all(np.isfinite(omegas))):
        raise ValueError("frequency grid and sigma must be finite")
    if omegas.size == 0:
        return []
    A = drift(comp)
    s = sigma + 1j * omegas
    order = _triangular_order(A)
    Xi, xi, singular = (_cayley_sweep(comp, A, s) if order is None
                        else _triangular_sweep(comp, A, s, order))
    # a flagged point stays a pole only if eval_transfer rejects it too
    for k in np.flatnonzero(singular):
        try:
            evaluation = eval_transfer(comp, s[k])
        except SingularAtS:
            continue
        singular[k] = False
        Xi[k], xi[k] = evaluation.Xi, evaluation.xi
    return [FreqPoint(omega=float(omegas[k]),
                      evaluation=None if singular[k] else
                      TransferEvaluation(s=complex(s[k]), Xi=Xi[k], xi=xi[k]))
            for k in range(omegas.size)]


def _triangular_sweep(comp: LinearComponent, A: np.ndarray, s: np.ndarray, order: np.ndarray):
    """Xi, xi and the pole candidates from one triangular solve per point; see freq_response."""
    T = np.triu(A[np.ix_(order, order)])
    t = np.diag(T)
    # column 1-norms of sI − A from its diagonal and the fixed off-diagonal part
    a = np.diag(A)
    off = np.sum(np.abs(A - np.diag(a)), axis=0)
    col_scale = np.max(np.abs(s[:, None] - a) + off, axis=1, initial=0.0)
    gap = np.min(np.abs(s[:, None] - t), axis=1, initial=np.inf)
    singular = gap <= matkit.PIVOT_REL * col_scale
    # Y = C (sI − T)⁻¹ in T's mode order solves (sI − T)ᵀ Yᵀ = Cᵀ; only the diagonal
    # of −T changes per point.  LAPACK rejects the zero-size systems of n or m = 0.
    C = comp.C[:, order]
    shifted = np.asfortranarray(-T)
    Y = np.zeros((s.size, comp.n_ports, comp.m_modes), dtype=complex)
    trtrs, = get_lapack_funcs(("trtrs",), (shifted, C.T))
    for k in np.flatnonzero(~singular) if C.size else ():
        np.fill_diagonal(shifted, s[k] - t)
        Y[k] = trtrs(shifted, C.T, trans=1)[0].T
    Xi = comp.S - Y @ (C.conj().T @ comp.S)
    xi = np.empty_like(Y)
    xi[..., order] = Y
    return Xi, xi, singular


def _cayley_sweep(comp: LinearComponent, A: np.ndarray, s: np.ndarray):
    """Xi, xi and the pole candidates in the eigenbasis of Omega; see freq_response."""
    G, n, m = s.size, comp.n_ports, comp.m_modes
    lam, U = np.linalg.eigh(comp.Omega)
    W = comp.C @ U
    norm = np.abs(A).sum(axis=0).max()
    d = s[:, None] + 1j * lam
    near = (np.finfo(float).eps * np.sum(np.abs(W) ** 2, axis=0)
            / (matkit.PIVOT_REL / 10 * max(1.0, norm)) >= np.abs(d))
    shift = 1 + np.abs(s)
    shifted = np.where(near, shift[:, None], d)
    corner, R, rho = _core(W, 0.5, shifted, n)
    for k in np.flatnonzero(near.any(axis=1)):    # the batch left out e_j at these points
        e = d[k, near[k]] - shift[k]
        B = np.vstack([W, np.sqrt(2 * np.abs(e))[:, None] * np.eye(m)[near[k]]])
        h = np.r_[np.full(n, 0.5), e / np.abs(e) / 2]
        corner[k], R[k], rho[k] = (x[0] for x in _core(B, h, shifted[k:k + 1], n))
    Xi = ((2 * corner - np.eye(n)).reshape(G * n, n) @ comp.S).reshape(G, n, n)
    xi = (R.reshape(G * n, m) @ U.conj().T).reshape(G, n, m)
    invalid = not np.array_equal(comp.Omega, comp.Omega.conj().T)
    return Xi, xi, ~(rho < 0.5 / (m ** 1.5 * matkit.PIVOT_REL) / (np.abs(s) + norm)) | invalid


def _core(B: np.ndarray, h: float | np.ndarray, d: np.ndarray, n: int):
    """Z⁻¹'s leading n×n block, the first n rows of Z⁻¹·B·diag(1/d) and ρ, per row of d.

    Z = I + B·diag(1/d)·B†·diag(h).  If LAPACK finds some Z exactly
    singular, every ρ reads inf and both blocks read 0.
    """
    (g, m), r = d.shape, len(B)
    inv_d = 1 / d
    outer = (B.T[:, :, None] * B.T.conj()[:, None, :]).reshape(m, r * r)   # row j: b_j b_j†
    Z = np.eye(r) + (inv_d @ outer).reshape(g, r, r) * h
    try:
        Zinv = np.linalg.inv(Z)
    except np.linalg.LinAlgError:
        return np.zeros((g, n, n), dtype=complex), np.zeros((g, n, m), dtype=complex), \
            np.full(g, np.inf)
    R = (Zinv[:, :n].reshape(g * n, r) @ B).reshape(g, n, m) * inv_d[:, None, :]
    size = np.abs(inv_d)    # ‖B·diag(1/d)‖_F² from the column norms of B
    rho = (size.max(axis=1) + size ** 2 @ np.sum(np.abs(B) ** 2, axis=0) / 2
           * np.linalg.norm(Zinv, axis=(1, 2)))
    return Zinv[:, :n, :n], R, rho


def _triangular_order(A: np.ndarray) -> np.ndarray | None:
    """``_blocks``' order of A's modes when it makes A upper triangular, else None.

    Mode j drives mode i when |a_ij| > m·u·‖A‖₁; the entries this drops are at most that.
    """
    m = len(A)
    magnitude = np.abs(A)
    blocks = _blocks((magnitude > m * np.finfo(float).eps
                      * np.max(np.sum(magnitude, axis=0), initial=0.0)).T)
    if blocks is None:
        return np.arange(m) if m < 2 else None
    order, bounds = blocks
    return order if len(bounds) == m + 1 else None


def _blocks(drives: np.ndarray) -> tuple[np.ndarray, list[int]] | None:
    """The strongly connected components of ``drives``, None when there is one.

    ``drives[j, i]`` is whether mode j drives mode i.  Returns the modes
    component by component, each component after every component it
    drives, and the bounds of the components in that order.  Reachability
    R comes from squaring drives | I as a float32 product until it stops
    changing (Fischer & Meyer 1971); path counts are at most m, which
    float32 holds exactly.  Each product doubles the paths covered, so a
    transitively closed graph (a cascade, a chain) takes one product and a
    path graph, where mode j drives only j + 1, all ⌈log₂ m⌉ + 1: 90 ms at
    m = 800 on one BLAS thread, where a depth-first search takes 18 ms.  A
    mode's component is R & Rᵀ, labelled by its least mode.  A component
    driven by another is reached from strictly more modes, so the modes go
    by the count that reach them, largest first, and by label among equal
    counts.
    """
    reach, closed = None, drives | np.eye(len(drives), dtype=bool)
    while not np.array_equal(reach, closed):
        reach, paths = closed, closed.astype(np.float32)
        closed = paths @ paths > 0
    if reach.all():
        return None
    label = np.argmax(reach & reach.T, axis=1)
    order = np.lexsort((label, -reach.sum(axis=0)))
    return order, [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), len(order)]


def axis_xi(points: list[FreqPoint], n: int) -> np.ndarray:
    """The (G, n, n) stack of Xi at the points of a sweep that are not poles."""
    stack = [p.evaluation.Xi for p in points if p.evaluation is not None]
    return np.array(stack, dtype=complex).reshape(len(stack), n, n)


def axis_residual(Xi: np.ndarray) -> np.ndarray:
    """‖Xi·Xi† − I‖_max of each matrix of a (G, n, n) stack, shape (G,); inf on overflow.

    A finite Xi yields NaN only through overflow (inf − inf), so NaN reads inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = Xi @ Xi.conj().swapaxes(1, 2) - np.eye(Xi.shape[1])
    worst = np.max(np.abs(deviation), axis=(1, 2), initial=0.0)
    worst[np.isnan(worst)] = np.inf
    return worst


def check_unitary_on_axis(comp: LinearComponent, omegas, tol: float = 1e-8,
                          sigma: float = SIGMA_MIN) -> ResidualReport:
    """Sweep the axis and report ‖Xi(iω)Xi(iω)† − I‖_max per frequency.

    A pole on the grid counts as an infinite residual.
    """
    points = freq_response(comp, omegas, sigma=sigma)
    singular = np.array([p.singular for p in points], dtype=bool)
    residuals = np.full(len(points), np.inf)
    residuals[~singular] = axis_residual(axis_xi(points, comp.n_ports))
    return ResidualReport(tuple(p.omega for p in points), tuple(residuals.tolist()), tol)


@dataclass(frozen=True)
class CommutingForm:
    """Spectral data of the all-pass closed form.

    Xi(s) = Σ_k (s − γ_k/2 + iε_k)/(s + γ_k/2 + iε_k) · E_k · S, where
    {γ_k, E_k} is the clustered spectral decomposition of CC† and ε_k the
    detuning seen by that cluster.  A γ_k = 0 term contributes the
    constant factor 1 (its pole and zero coincide and cancel).
    """

    gammas: np.ndarray
    epsilons: np.ndarray
    projectors: tuple[np.ndarray, ...]
    S: np.ndarray

    def evaluate(self, s: complex) -> np.ndarray:
        s = complex(s)
        n = self.S.shape[0]
        acc = np.zeros((n, n), dtype=complex)
        for gamma, eps, proj in zip(self.gammas, self.epsilons, self.projectors):
            if gamma == 0.0:
                factor = 1.0
            else:
                factor = (s - gamma / 2 + 1j * eps) / (s + gamma / 2 + 1j * eps)
            acc += factor * proj
        return acc @ self.S


def spectral_clusters(comp: LinearComponent, comm_tol: float = 1e-9
                      ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], np.ndarray]:
    """{γ_k}, {ε_k}, {E_k} and CC† for ``commuting_form``, before its bound decides.

    ε_k is the Rayleigh quotient tr(WΩW†)/tr(WW†) of W = E_k C, whose
    rounding scales with ‖W‖ = √γ_k rather than with ‖C‖²: forming CΩC†
    first would cost the smallest cluster u·‖C‖²‖Ω‖/γ_k in ε_k, and the
    all-pass factor moves by 4/γ_k per unit of ε_k at its resonance.
    Raises NotCommuting when [C†C, Omega] exceeds ``comm_tol`` and
    ZeroModeAmbiguity when CC† has a zero eigenvalue.
    """
    CtC = comp.C.conj().T @ comp.C
    comm = matkit.max_abs(CtC @ comp.Omega - comp.Omega @ CtC)
    if comm > comm_tol:
        raise NotCommuting(f"[C†C, Omega] has max norm {comm:.3e}")
    CCt = matkit.herm_real(comp.C @ comp.C.conj().T)
    gammas, projectors = matkit.eig_hermitian(CCt)
    gammas = np.maximum(gammas, 0.0)
    if np.any(gammas <= 1e-10):
        raise ZeroModeAmbiguity(
            "CC† has a zero eigenvalue; its detuning cannot be recovered from Xi")
    weights = [proj @ comp.C for proj in projectors]
    epsilons = np.array([float(np.vdot(W, W @ comp.Omega).real / np.vdot(W, W).real)
                         for W in weights])
    return gammas, epsilons, projectors, CCt


def commuting_form(comp: LinearComponent, comm_tol: float = 1e-9,
                   recon_tol: float = 1e-8) -> CommutingForm:
    """Extract {γ_k, ε_k, E_k} when Omega is a function of C†C.

    Raises NotCommuting when [C†C, Omega] exceeds ``comm_tol`` or when the
    all-pass sum may differ from Xi anywhere on the imaginary axis by more
    than ``recon_tol`` (which happens when Omega merely commutes with C†C
    without being a function of it).  To first order that difference is
    at most 4‖Γ⁻¹RΓ⁻¹‖₂ + ‖Γ⁻¹CC† − I‖₂, with Γ⁻¹ = Σ_k E_k/γ_k, the
    detuning residual R = CΩC† − (Σ_k ε_kE_k)CC† and the second term the
    relative spread of CC† inside each cluster.  Both terms are computed
    in floating point and cannot see the rounding of ε_k and γ_k
    themselves, of about u(m+n)‖Ω‖ and u·n·γ_max; a factor moves by 4/γ_k
    per unit of ε_k and by 2/γ_k per unit of γ_k at its resonance, so
    u(4(m+n)‖Ω‖_F + 2n·γ_max)/γ_min is added.  Raises ZeroModeAmbiguity
    when CC† has a zero eigenvalue: that cluster's detuning is
    unobservable in Xi and no value is invented.
    """
    gammas, epsilons, projectors, CCt = spectral_clusters(comp, comm_tol)
    COmC = comp.C @ comp.Omega @ comp.C.conj().T
    n, m = comp.n_ports, comp.m_modes
    detuning, inv = np.zeros((n, n)), np.zeros((n, n))   # with n = 0 both stay empty
    for gamma, eps, proj in zip(gammas, epsilons, projectors):
        detuning = detuning + eps * proj
        inv = inv + proj / gamma
    bound = (4 * np.linalg.norm(inv @ (COmC - detuning @ CCt) @ inv, 2)
             + np.linalg.norm(inv @ CCt - np.eye(n), 2))
    if n:
        bound += (np.finfo(float).eps
                  * (4 * (m + n) * np.linalg.norm(comp.Omega) + 2 * n * gammas[-1]) / gammas[0])
    if bound > recon_tol:
        raise NotCommuting(
            "Omega commutes with C†C but is not a function of it "
            f"(the all-pass sum may miss Xi on the axis by {bound:.3e})")
    return CommutingForm(gammas=gammas, epsilons=epsilons,
                         projectors=tuple(projectors), S=comp.S.copy())


def poles_zeros_commuting(cf: CommutingForm) -> tuple[list[complex], list[complex]]:
    """Pole/zero pairs of the all-pass factors, one per spectral cluster.

    Poles sit at −γ_k/2 − iε_k and zeros at +γ_k/2 − iε_k: each zero is
    the reflection of its pole through the imaginary axis.  For a γ_k = 0
    cluster the two coincide at −iε_k and the factor cancels.
    """
    poles = [complex(-g / 2, -e) for g, e in zip(cf.gammas, cf.epsilons)]
    zeros = [complex(+g / 2, -e) for g, e in zip(cf.gammas, cf.epsilons)]
    return poles, zeros
