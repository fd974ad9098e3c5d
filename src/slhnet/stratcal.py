"""Conversion between Stratonovich and Ito parameterizations.

A Stratonovich generator triple (E, F, K) — hermitian scattering
generator, linear coupling coefficients, hermitian Hamiltonian constant —
describes the same dynamics as an Ito-side component (S, C, Omega).  The
two are linked by the consistency system

    (S − I) = −iE − (i/2)E(S − I)
    C       = −iF − (i/2)EC
    −½C†C − iΩ = −iK − (i/2)F†C

whose solution is the Cayley transform S = (I − iE/2)(I + iE/2)⁻¹ with
C = −i(I + iE/2)⁻¹F, taken in the eigenbasis of E; Ω follows from the
third equation.  The residuals of these three equations are the single
source of truth for both directions and are exposed directly for use as
an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit
from .slh import LinearComponent, _triple, drift


class CayleySingular(ValueError):
    """S has −1 in its spectrum, so no finite generator E exists."""


_MINUS_ONE = "-1 is an eigenvalue of S; no finite Stratonovich generator"


@dataclass(frozen=True, eq=False)
class StratonovichModel:
    """Generator triple (E, F, K); E and K must be hermitian."""

    E: np.ndarray
    F: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        E, F, K = _triple(("E", "F", "K"), self.E, self.F, self.K)
        if matkit.max_abs(E - E.conj().T) > matkit.STRUCT_TOL:
            raise ValueError("E must be hermitian")
        if matkit.max_abs(K - K.conj().T) > matkit.STRUCT_TOL:
            raise ValueError("K must be hermitian")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "K", K)

    @property
    def n_ports(self) -> int:
        return self.E.shape[0]

    @property
    def m_modes(self) -> int:
        return self.K.shape[0]


def strat_to_ito(sm: StratonovichModel) -> LinearComponent:
    """Solve the consistency system for (S, C, Omega).

    With herm_real(E) = U·diag(λ)·U†, S = U·diag((1 − iλ/2)/(1 + iλ/2))·U†
    and C = −i·U·diag(1/(1 + iλ/2))·U†·F: no matrix is inverted, so every
    hermitian E is accepted, and S is unitary to roundoff however large
    ‖E‖ is.  Omega is the hermitian solution of the third equation.  The
    residuals are at roundoff level, c·u·max(1, ‖E‖₂)·max(1, ‖F‖₂)² with
    u the unit roundoff (c = 64 covers n ≤ 4, tests/test_stratcal.py),
    plus what E's own anti-hermitian part A = (E − E†)/2 (at most
    matkit.STRUCT_TOL per entry) leaves: ‖A‖₂·(1 + ‖S − I‖₂/2) ≤ 2‖A‖₂ in
    the scattering equation and ‖A‖₂·‖C‖₂/2 in the coupling one.
    """
    lam, U = np.linalg.eigh(matkit.herm_real(sm.E))
    inverse = 1 / (1 + 0.5j * lam)     # the eigenvalues of (I + iE/2)⁻¹
    S = (U * ((1 - 0.5j * lam) * inverse)) @ U.conj().T
    C = -1j * ((U * inverse) @ (U.conj().T @ sm.F))
    Omega = matkit.herm_real(sm.K + 0.5 * sm.F.conj().T @ C
                             + 0.5j * C.conj().T @ C)
    return LinearComponent(S, C, Omega)


def ito_to_strat(comp: LinearComponent) -> StratonovichModel:
    """Invert the Cayley transform: E = 2i(S − I)(S + I)⁻¹, F = i(I + iE/2)C.

    Raises CayleySingular when −1 is in the spectrum of S (no finite E):
    when matkit.factor rejects S + I, or when 1/‖(S + I)⁻¹‖₁ < 1e-9, with
    ‖(S + I)⁻¹‖₁ estimated on the same LU.  For unitary S that quantity is
    within √n of d, the distance from −1 to the spectrum.

    Conditioning: E and F grow like 1/d = ‖(S + I)⁻¹‖₂ (unitary S), and
    so does the rounding they carry.  A round trip through strat_to_ito
    returns (S, C, Omega) to within c·u·‖(S + I)⁻¹‖₂·max(1, ‖C‖₂², ‖Omega‖₂)
    with u the unit roundoff; c = 16 covers n ≤ 4 (tests/test_stratcal.py).
    """
    S, C, Omega = comp.S, comp.C, comp.Omega
    n = comp.n_ports
    try:
        lu = matkit.factor(S + np.eye(n))
    except matkit.SingularMatrix as exc:
        raise CayleySingular(_MINUS_ONE) from exc
    if lu.inverse_norm() > 1e9:
        raise CayleySingular(_MINUS_ONE)
    E = matkit.herm_real(2j * lu.solve(S - np.eye(n)))
    F = 1j * (C + 0.5j * E @ C)
    K = matkit.herm_real(Omega - 0.5 * F.conj().T @ C - 0.5j * C.conj().T @ C)
    return StratonovichModel(E=E, F=F, K=K)


@dataclass(frozen=True)
class ConsistencyResiduals:
    """Max-norm residuals of the three consistency equations."""

    scattering: float
    coupling: float
    drift: float

    @property
    def worst(self) -> float:
        return max(self.scattering, self.coupling, self.drift)

    def __str__(self) -> str:
        return (f"scattering={self.scattering:.3e} coupling={self.coupling:.3e} "
                f"drift={self.drift:.3e}")


def ito_table_residuals(sm: StratonovichModel,
                        comp: LinearComponent) -> ConsistencyResiduals:
    """Evaluate the three consistency equations for a candidate pair.

    Serves as the acceptance oracle for both conversion directions: a
    matched pair leaves every residual at roundoff level, and each
    equation responds linearly to perturbations of its own unknown.
    """
    if sm.n_ports != comp.n_ports or sm.m_modes != comp.m_modes:
        raise ValueError("dimension mismatch between Stratonovich and Ito models")
    n = sm.n_ports
    S, C = comp.S, comp.C
    d = S - np.eye(n)
    r1 = d + 1j * sm.E + 0.5j * sm.E @ d
    r2 = C + 1j * sm.F + 0.5j * sm.E @ C
    rhs = -1j * sm.K - 0.5j * sm.F.conj().T @ C
    return ConsistencyResiduals(scattering=matkit.max_abs(r1),
                                coupling=matkit.max_abs(r2),
                                drift=matkit.max_abs(drift(comp) - rhs))
