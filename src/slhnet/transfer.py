"""Transfer-function evaluation and the all-pass spectral closed form.

The transfer matrix of a component is Xi(s) = S − C(sI − A)⁻¹C†S with
A = −½C†C − iΩ the drift matrix; the initial-condition kernel is
xi(s) = C(sI − A)⁻¹.  On the imaginary axis (approached from the right
half-plane) Xi is unitary for every valid component; when Omega is a
function of C†C the whole matrix collapses to a sum of scalar all-pass
factors over the spectrum of CC†, which this module extracts.  It accepts
that form only when an algebraic first-order bound on |form − Xi| over the
whole imaginary axis stays within tolerance; Xi itself is never evaluated.

A single point costs one LU of sI − A, gated by matkit.factor: s is a
pole when a pivot is ≤ PIVOT_REL = 1e-12 times ‖sI − A‖₁, or the 1-norm
reciprocal condition estimate is ≤ PIVOT_REL.  The same LU solves
(sI − A)ᵀ·xiᵀ = Cᵀ, n right-hand sides, and Xi = S − xi·(C†S).  A sweep
over G points flags pole candidates and hands each to eval_transfer: it
stays a pole only if eval_transfer rejects it too, and otherwise takes
eval_transfer's Xi and xi.  The candidates hold every eval_transfer pole,
so the sweep and eval_transfer decide every point alike.

The sweep works in the eigenbasis of Ω = UΛU†, with no Schur form of the
non-normal A.  With W = CU, d_j = s + iλ_j, D = diag(d) and
K = W D⁻¹W†, sI − A = U(D + ½W†W)U†, so push-through gives, for
M = I + K/2, xi = M⁻¹W D⁻¹U† and Xi = M⁻¹(I − K/2)S = (2M⁻¹ − I)S.  One
eigh serves the grid, then batched products over all points.  The form
loses up to u·|w_j|²/|d_j| next to an eigenvalue of Ω (at most 0.57× that
over 1600 probes 1e-9 to 1e-6 from one).  A point where that reaches
PIVOT_REL/10·max(1, ‖A‖₁) for some mode, a tenth of the
1e-12·max(1, ‖A‖₂) the tests allow, is a candidate; its d_j is replaced
by 1 + |s| only to keep its row of the batch finite.
  eval_transfer rejects s only when κ₁(sI − A) ≥ 1/(m·PIVOT_REL): a pivot
u_ii of P·L·U gives ‖U⁻¹‖₁ ≥ 1/|u_ii| and ‖U⁻¹‖₁ ≤ m·‖(sI − A)⁻¹‖₁, as
|l_ij| ≤ 1, and zgecon's estimate of ‖(sI − A)⁻¹‖₁ is a lower bound.  By
Woodbury, ‖(sI − A)⁻¹‖₂ ≤ ρ = 1/min|d_j| + ½‖W·diag(1/d)‖_F²·‖M⁻¹‖_F,
and κ₁ ≤ (|s| + ‖A‖₁)·√m·ρ.  So s is a candidate when (|s| + ‖A‖₁)·ρ ≥
½/(m^1.5·PIVOT_REL), the ½ covering the rounding of ρ and of
eval_transfer's LU: the candidates hold every eval_transfer pole.  Where
|s| + ‖A‖₁ = 0, sI − A is 0 and ρ (∞, but finite after rounding) cannot
tell, so s is a candidate too.  An Ω that is not bitwise hermitian (an
invalid component), or an M that LAPACK finds exactly singular at some
point, makes every point a candidate.
  A cascade of one-mode units, whose drift permutes to triangular form, is
swept the same way.  A triangular solve per point would need no eigh and
would sweep such cascades of 256 and 400 units about 2× and 3× faster, but
it is not faster on cascades of up to 128 units, and its cheap pole test
(the gap to the diagonal) misses points eval_transfer rejects.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import matkit
from .slh import LinearComponent, drift

#: Right-half-plane offset used to realize s = 0⁺ + iω on the axis.
SIGMA_MIN = 1e-10
#: commuting_form's bounds on ‖[C†C, Ω]‖_max and on its all-pass sum's distance from Xi.
COMM_TOL, RECON_TOL = 1e-9, 1e-8


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
class ResidualReport:
    """Residuals at a set of points against a pass tolerance.

    check_unitary_on_axis reports ‖Xi·Xi† − I‖_max per frequency ω, inf at
    a pole.
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
    try:    # xiᵀ from (sI − A)ᵀ·xiᵀ = Cᵀ
        xi = matkit.solve(s * np.eye(comp.m_modes) - drift(comp), comp.C.T, trans=1).T
    except matkit.SingularMatrix as exc:
        raise SingularAtS(f"s = {s} is a pole of the transfer function") from exc
    Xi = comp.S - xi @ (comp.C.conj().T @ comp.S)
    return TransferEvaluation(s=s, Xi=Xi, xi=xi)


def freq_response(comp: LinearComponent, omegas, sigma: float = SIGMA_MIN
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Xi, xi and the poles along s = sigma + iω for each ω, in grid order.

    Returns (Xi, xi, singular) of shapes (G, n, n), (G, n, m) and (G,),
    singular of dtype bool; an empty grid gives length-0 arrays.  Poles
    are reported per point rather than aborting the sweep, their rows of
    Xi and xi all NaN: a point is a pole exactly when eval_transfer raises
    SingularAtS there.  The sweep flags candidates in the eigenbasis of
    Omega (see the module docstring) and hands each to eval_transfer; a
    candidate eval_transfer accepts takes its Xi and xi.  Raises
    ValueError on a non-finite ω or sigma.
    """
    omegas = np.array([float(w) for w in omegas])
    sigma = float(sigma)
    if not (np.isfinite(sigma) and np.all(np.isfinite(omegas))):
        raise ValueError("frequency grid and sigma must be finite")
    A = drift(comp)
    s = sigma + 1j * omegas
    Xi, xi, singular = _cayley_sweep(comp, A, s)
    # a flagged point stays a pole only if eval_transfer rejects it too
    for k in np.flatnonzero(singular):
        try:
            evaluation = eval_transfer(comp, s[k])
        except SingularAtS:
            Xi[k] = xi[k] = np.nan
        else:
            singular[k], Xi[k], xi[k] = False, evaluation.Xi, evaluation.xi
    return Xi, xi, singular


def _cayley_sweep(comp: LinearComponent, A: np.ndarray, s: np.ndarray):
    """Xi, xi and the pole candidates in the eigenbasis of Omega; see freq_response.

    A d so small that 1/d overflows (a subnormal s next to an uncoupled
    mode) makes that row's ρ inf or NaN, which flags it, with no warning.
    """
    G, n, m = s.size, comp.n_ports, comp.m_modes
    lam, U = np.linalg.eigh(comp.Omega)
    W = comp.C @ U
    weight = np.sum(np.abs(W) ** 2, axis=0)    # |w_j|²
    norm = np.abs(A).sum(axis=0).max(initial=0.0)
    d = s[:, None] + 1j * lam
    near = np.finfo(float).eps * weight / (matkit.PIVOT_REL / 10 * max(1.0, norm)) >= np.abs(d)
    outer = (W.T[:, :, None] * W.T.conj()[:, None, :]).reshape(m, n * n)   # row j: w_j w_j†
    with np.errstate(over="ignore", invalid="ignore"):
        inv_d = 1 / np.where(near, 1 + np.abs(s)[:, None], d)    # keeps a near row finite
        try:    # M = I + K/2
            Minv = np.linalg.inv(np.eye(n) + (inv_d @ outer).reshape(G, n, n) * 0.5)
        except np.linalg.LinAlgError:
            return np.zeros((G, n, n), complex), np.zeros((G, n, m), complex), np.ones(G, bool)
        R = (Minv.reshape(G * n, n) @ W).reshape(G, n, m) * inv_d[:, None, :]
        size = np.abs(inv_d)    # ‖W·diag(1/d)‖_F² from the column norms of W
        rho = (size.max(axis=1, initial=0.0)
               + size ** 2 @ weight / 2 * np.linalg.norm(Minv, axis=(1, 2)))
        scale = np.abs(s) + norm    # ≥ ‖sI − A‖₁, 0 only where sI − A = 0
        fine = rho * (m ** 1.5 * matkit.PIVOT_REL) * scale < 0.5    # not for inf or NaN
    Xi = ((2 * Minv - np.eye(n)).reshape(G * n, n) @ comp.S).reshape(G, n, n)
    xi = (R.reshape(G * n, m) @ U.conj().T).reshape(G, n, m)
    invalid = not np.array_equal(comp.Omega, comp.Omega.conj().T)
    return Xi, xi, ~fine | near.any(axis=1) | (scale == 0) | invalid


def check_unitary_on_axis(comp: LinearComponent, omegas, tol: float = 1e-8,
                          sigma: float = SIGMA_MIN) -> ResidualReport:
    """Sweep the axis and report ‖Xi(iω)Xi(iω)† − I‖_max per frequency.

    A pole on the grid counts as an infinite residual, as matkit.gram_residual
    reads its NaN row of Xi, except with no ports, where the row is empty.
    """
    omegas = np.array([float(w) for w in omegas])
    Xi, _, singular = freq_response(comp, omegas, sigma=sigma)
    residuals = np.where(singular, np.inf, matkit.gram_residual(Xi))
    return ResidualReport(tuple(omegas.tolist()), tuple(residuals.tolist()), tol)


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


def spectral_clusters(comp: LinearComponent
                      ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], np.ndarray]:
    """{γ_k}, {ε_k}, {E_k} and CC† for ``commuting_form``, before its bound decides.

    ε_k is the Rayleigh quotient tr(WΩW†)/tr(WW†) of W = E_k C, whose
    rounding scales with ‖W‖ = √γ_k rather than with ‖C‖²: forming CΩC†
    first would cost the smallest cluster u·‖C‖²‖Ω‖/γ_k in ε_k, and the
    all-pass factor moves by 4/γ_k per unit of ε_k at its resonance.
    Raises NotCommuting when [C†C, Omega] exceeds COMM_TOL and
    ZeroModeAmbiguity when CC† has a zero eigenvalue.
    """
    CtC = comp.C.conj().T @ comp.C
    comm = matkit.max_abs(CtC @ comp.Omega - comp.Omega @ CtC)
    if comm > COMM_TOL:
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


def commuting_form(comp: LinearComponent) -> CommutingForm:
    """Extract {γ_k, ε_k, E_k} when Omega is a function of C†C.

    Raises NotCommuting when [C†C, Omega] exceeds COMM_TOL or when the
    all-pass sum may differ from Xi anywhere on the imaginary axis by more
    than RECON_TOL (which happens when Omega merely commutes with C†C
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
    gammas, epsilons, projectors, CCt = spectral_clusters(comp)
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
    if bound > RECON_TOL:
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
