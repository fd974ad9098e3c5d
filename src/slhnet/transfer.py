"""Transfer-function evaluation and the all-pass spectral closed form.

The transfer matrix of a component is Xi(s) = S − C(sI − A)⁻¹C†S with
A the drift matrix; the initial-condition kernel is xi(s) = C(sI − A)⁻¹.
On the imaginary axis (approached from the right half-plane) Xi is
unitary for every valid component; when Omega is a function of C†C the
whole matrix collapses to a sum of scalar all-pass factors over the
spectrum of CC†, which this module extracts.  It accepts that form only
when an algebraic first-order bound on |form − Xi| over the whole
imaginary axis stays within tolerance; Xi itself is never evaluated.

A single point costs one LU solve of the m×m resolvent, gated by
matkit.factor: s is a pole when a pivot of sI − A, or its 1-norm
reciprocal condition estimate, is ≤ 1e-12.  A frequency sweep over G
points instead brings the drift to triangular form once, A = Q T Q†
(Laub 1981), and pays one O(n·m²) triangular solve per point.  The
sweep takes s for a pole candidate when min_i |s − T_ii| ≤ 1e-12 ×
(largest column 1-norm of sI − A), and hands each candidate to
eval_transfer: it stays a pole only if eval_transfer rejects it too, and
otherwise takes eval_transfer's Xi and xi.

The triangular form is found block by block (``block_schur``).  In a
network, instance j's modes drive instance l's only along a wired path
from j to l, so the strongly connected components of the drift's graph,
in topological order, make A block upper triangular; one reachability
closure by Boolean squaring finds them.  An entry |a_ij| ≤ m·u·‖A‖₁
makes no edge: below the block diagonal such entries are rounding of
exact zeros (≤ 0.9·u·‖A‖₁ in random cascades), and dropping them moves A
by less than m²·u·‖A‖₁ in the 1-norm.  Only diagonal blocks larger than
1×1 get a complex Schur form, each with a backward error of a few
m·u·‖A‖₁.  A strongly connected drift (a dense component) is one block
and gets scipy's Schur form of the whole of A, unchanged.  A cascade of
one-mode units splits into 1×1 blocks: Q is a permutation, the Schur form
costs nothing, and T_ii are the drift's diagonal, the units' own drift
eigenvalues.

A sweep pole is thus a pole for eval_transfer exactly; the gap alone
(σ_min(sI − A) ≤ min_i |s − T_ii|) missed that at the threshold itself,
where a 2-unit cascade met an rcond 1.4e-7 above it with a gap 3e-6
below it.  The converse fails in a band: for a far-from-normal A, σ_min
can lie well below the eigenvalue gap.  Of 3000 random dense
components probed at 10^[−1.5, 1.5] times the sweep's threshold from a
drift eigenvalue, 216 were poles for eval_transfer alone and none for
the sweep alone.  A cascade's drift is far from normal as well, so one
Schur form of the whole of it returns eigenvalues up to 0.16 from the
units' own at 64 and 128 units; swept through a unit's pole, 16 of 20
random 64-unit cascades missed it that way, where the block form flags
all 20, as eval_transfer does.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, schur

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

    One triangular form of the drift, A = Q T Q† from one Schur form per
    strongly connected block (``block_schur``), serves the whole grid; see
    the module docstring for the cost, the pole rule and the entries the
    form drops.  Poles are reported per point (evaluation None) rather
    than aborting the sweep; a point is a pole exactly when its eigenvalue
    gap flags it and eval_transfer raises SingularAtS there, and a flagged
    point eval_transfer accepts takes its Xi and xi.  In a cascade of
    one-mode units the T_ii are the units' drift eigenvalues themselves,
    so a grid point on a unit's pole is flagged.  Raises ValueError on a
    non-finite ω or sigma.
    """
    omegas = np.array([float(w) for w in omegas])
    sigma = float(sigma)
    if not (np.isfinite(sigma) and np.all(np.isfinite(omegas))):
        raise ValueError("frequency grid and sigma must be finite")
    if omegas.size == 0:
        return []
    A = drift(comp)
    T, Q, order = block_schur(A)
    s = sigma + 1j * omegas
    t = np.diag(T)
    # column 1-norms of sI − A from its diagonal and the fixed off-diagonal part
    a = np.diag(A)
    off = np.sum(np.abs(A - np.diag(a)), axis=0)
    col_scale = np.max(np.abs(s[:, None] - a) + off, axis=1, initial=0.0)
    gap = np.min(np.abs(s[:, None] - t), axis=1, initial=np.inf)
    singular = gap <= matkit.PIVOT_REL * col_scale

    # Y = C Q (sI − T)⁻¹ solves (sI − T)ᵀ Yᵀ = (C Q)ᵀ; only the diagonal of
    # the working copy of −T changes from point to point.  With no ports or
    # no modes Y is empty, and LAPACK rejects zero-size systems.  C is taken
    # in T's mode order, and Q is None when that order alone triangularizes A.
    C = comp.C[:, order]
    CQ_t = (C if Q is None else C @ Q).T
    shifted = np.asfortranarray(-T)
    Y = np.zeros((omegas.size, comp.n_ports, comp.m_modes), dtype=complex)
    trtrs, = get_lapack_funcs(("trtrs",), (shifted, CQ_t))
    for k in np.flatnonzero(~singular) if CQ_t.size else ():
        np.fill_diagonal(shifted, s[k] - t)
        Y[k] = trtrs(shifted, CQ_t, trans=1)[0].T
    CQ_h = C.conj().T if Q is None else Q.conj().T @ C.conj().T
    Xi = comp.S - Y @ (CQ_h @ comp.S)
    xi = np.empty_like(Y)
    xi[..., order] = Y if Q is None else Y @ Q.conj().T
    # a point the gap flags stays a pole only if eval_transfer rejects it too
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


def block_schur(A: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | slice]:
    """(T, Q, order) with A[order][:, order] = Q T Q†, T upper triangular.

    The modes are ordered by the strongly connected components of the
    graph in which mode j drives mode i when |a_ij| > m·u·‖A‖₁, each
    component after every component it drives, so that A[order][:, order]
    is block upper triangular.  Only diagonal blocks larger than 1×1 get
    a Schur form; Q is block diagonal, and None when every block is 1×1.
    A strongly connected A returns ``schur(A, output="complex")`` itself
    with order ``slice(None)``.  The entries below the block diagonal,
    each at most m·u·‖A‖₁, are dropped from T.
    """
    m = A.shape[0]
    magnitude = np.abs(A)
    blocks = _blocks((magnitude > m * np.finfo(float).eps
                      * np.max(np.sum(magnitude, axis=0), initial=0.0)).T)
    if blocks is None:
        T, Q = schur(A, output="complex")
        return T, Q, slice(None)
    order, bounds = blocks
    T = A[np.ix_(order, order)]
    Q = None
    for start, stop in zip(bounds, bounds[1:]):
        if stop - start == 1:
            continue
        Tb, Qb = schur(T[start:stop, start:stop], output="complex")
        T[start:stop, stop:] = Qb.conj().T @ T[start:stop, stop:]
        T[:start, start:stop] = T[:start, start:stop] @ Qb
        T[start:stop, start:stop] = Tb
        if Q is None:
            Q = np.eye(m, dtype=complex)
        Q[start:stop, start:stop] = Qb
    return np.triu(T), Q, order


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
