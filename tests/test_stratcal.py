"""Unit tests for Stratonovich <-> Ito conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slhnet import (LinearComponent, StratonovichModel, ito_table_residuals,
                    ito_to_strat, make_cavity, matkit, strat_to_ito, validate)
from slhnet.stratcal import CayleySingular

from support import cayley_from_generator, haar_unitary, random_component, random_hermitian


def _random_model(rng, n, m):
    F = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return StratonovichModel(E=random_hermitian(rng, n), F=F,
                             K=random_hermitian(rng, m))


class TestStratToIto:
    def test_zero_generator(self):
        F = np.array([[1.0 + 0.5j], [0.3j]])
        sm = StratonovichModel(E=np.zeros((2, 2)), F=F, K=np.array([[0.7]]))
        comp = strat_to_ito(sm)
        assert matkit.max_abs(comp.S - np.eye(2)) <= 1e-14
        assert matkit.max_abs(comp.C + 1j * F) <= 1e-14
        res = ito_table_residuals(sm, comp)
        assert res.worst <= 1e-12

    def test_scalar_cayley_point(self):
        sm = StratonovichModel(E=[[2.0]], F=[[0.0]], K=[[0.0]])
        comp = strat_to_ito(sm)
        assert comp.S[0, 0] == pytest.approx(-1j, abs=1e-14)
        # cross-check against the exponential-of-arctan form
        assert abs(comp.S[0, 0] - np.exp(-2j * np.arctan(1.0))) <= 1e-14

    def test_cayley_unitarity_and_functional_calculus(self):
        rng = np.random.default_rng(211)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            sm = _random_model(rng, n, int(rng.integers(1, 4)))
            comp = strat_to_ito(sm)
            assert matkit.unitarity_residual(comp.S) <= 1e-10
            assert matkit.max_abs(comp.S - cayley_from_generator(sm.E)) <= 1e-9
            assert validate(comp).ok

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(0, 3),
           log_top=st.floats(-3.0, 14.0))
    @settings(max_examples=200, deadline=None)
    def test_large_generators_are_accepted(self, seed, n, m, log_top):
        # eigenvalues of E spread over 10^[-3, log_top], either sign, in a random basis
        rng = np.random.default_rng(seed)
        lam = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, log_top, n)
        U = haar_unitary(rng, n)
        F = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        sm = StratonovichModel(E=matkit.herm_real((U * lam) @ U.conj().T), F=F,
                               K=random_hermitian(rng, m))
        comp = strat_to_ito(sm)
        u = np.finfo(float).eps / 2
        assert matkit.unitarity_residual(comp.S) <= 64 * u
        scale = max(1.0, np.linalg.norm(sm.E, 2)) * max(1.0, np.linalg.norm(F, 2)) ** 2
        assert ito_table_residuals(sm, comp).worst <= 64 * u * scale

    def test_nearly_hermitian_generator_uses_its_hermitian_part(self):
        rng = np.random.default_rng(233)
        H = random_hermitian(rng, 3)
        A = 1e-10 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        F = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        K = random_hermitian(rng, 2)
        sm = StratonovichModel(E=H + A, F=F, K=K)
        comp = strat_to_ito(sm)
        exact = strat_to_ito(StratonovichModel(E=matkit.herm_real(sm.E), F=F, K=K))
        for a, b in ((comp.S, exact.S), (comp.C, exact.C), (comp.Omega, exact.Omega)):
            assert a.tobytes() == b.tobytes()
        # the anti-hermitian part A = (E − E†)/2 shows in the residuals, above roundoff
        skew = np.linalg.norm(sm.E - matkit.herm_real(sm.E), 2)
        floor = (32 * np.finfo(float).eps * max(1.0, np.linalg.norm(sm.E, 2))
                 * max(1.0, np.linalg.norm(F, 2)) ** 2)
        res = ito_table_residuals(sm, comp)
        assert floor < res.scattering <= 2 * skew + floor
        assert res.coupling <= skew * np.linalg.norm(comp.C, 2) / 2 + floor
        assert res.drift <= floor


class TestItoToStrat:
    def test_identity_scattering(self):
        comp = make_cavity(2.0, omega=0.4)
        sm = ito_to_strat(comp)
        assert matkit.max_abs(sm.E) <= 1e-12
        assert matkit.max_abs(sm.F - 1j * comp.C) <= 1e-12
        # K absorbs the coupling correction of the third equation
        assert ito_table_residuals(sm, comp).worst <= 1e-12

    def test_cayley_pole(self):
        comp = LinearComponent([[-1.0]], [[1.0]], [[0.0]])
        with pytest.raises(CayleySingular):
            ito_to_strat(comp)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(0, 4),
           log_d=st.floats(-9.0, -1.0), log_c=st.floats(-3.0, 3.0),
           log_omega=st.floats(-3.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_near_minus_one(self, seed, n, m, log_d, log_c, log_omega):
        # S has an eigenvalue at distance d = 10^log_d from −1, the others anywhere
        rng = np.random.default_rng(seed)
        phases = rng.uniform(-np.pi, np.pi, n)
        phases[0] = np.pi - 2 * np.arcsin(10 ** log_d / 2)
        U = haar_unitary(rng, n)
        S = (U * np.exp(1j * phases)) @ U.conj().T
        C = 10 ** log_c * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        comp = LinearComponent(S, C, 10 ** log_omega * random_hermitian(rng, m))
        gap = np.linalg.svd(S + np.eye(n), compute_uv=False)[-1]   # 1/‖(S + I)⁻¹‖₂
        try:
            back = strat_to_ito(ito_to_strat(comp))
        except CayleySingular:
            # 1/‖(S + I)⁻¹‖₁ < 1e-9 needs the distance to −1 below √n·1e-9
            assert gap < np.sqrt(n) * 1e-9 * (1 + 1e-6)
            return
        scale = 1.0 if m == 0 else max(1.0, np.linalg.norm(C, 2) ** 2,
                                       np.linalg.norm(comp.Omega, 2))
        bound = 16 * np.finfo(float).eps / 2 / gap * scale
        assert matkit.max_abs(back.S - comp.S) <= bound
        assert matkit.max_abs(back.C - comp.C) <= bound
        assert matkit.max_abs(back.Omega - comp.Omega) <= bound

    def test_round_trip(self):
        rng = np.random.default_rng(223)
        checked = 0
        while checked < 40:
            comp = random_component(rng, int(rng.integers(1, 5)),
                                    int(rng.integers(1, 4)))
            if np.min(np.abs(np.linalg.eigvals(comp.S) + 1.0)) < 0.1:
                continue
            sm = ito_to_strat(comp)
            back = strat_to_ito(sm)
            assert matkit.max_abs(back.S - comp.S) <= 1e-9
            assert matkit.max_abs(back.C - comp.C) <= 1e-9
            assert matkit.max_abs(back.Omega - comp.Omega) <= 1e-9
            checked += 1


class TestResidualOracle:
    def test_matched_pair(self):
        rng = np.random.default_rng(227)
        sm = _random_model(rng, 3, 2)
        comp = strat_to_ito(sm)
        assert ito_table_residuals(sm, comp).worst <= 1e-10

    def test_perturbation_sensitivity(self):
        rng = np.random.default_rng(229)
        sm = _random_model(rng, 2, 2)
        comp = strat_to_ito(sm)
        delta = np.full((2, 2), 1e-3)
        bumped = LinearComponent(comp.S, comp.C + delta, comp.Omega)
        res = ito_table_residuals(sm, bumped)
        # coupling equation responds linearly: residual = (I + iE/2) delta
        expected = matkit.max_abs((np.eye(2) + 0.5j * sm.E) @ delta)
        assert res.coupling == pytest.approx(expected, rel=1e-9)
        assert 1e-4 < res.coupling < 1e-2

    def test_all_zero(self):
        sm = StratonovichModel(E=np.zeros((2, 2)), F=np.zeros((2, 1)),
                               K=np.zeros((1, 1)))
        comp = LinearComponent(np.eye(2), np.zeros((2, 1)), np.zeros((1, 1)))
        res = ito_table_residuals(sm, comp)
        assert res.scattering == res.coupling == res.drift == 0.0

    def test_dimension_guard(self):
        sm = StratonovichModel(E=np.zeros((2, 2)), F=np.zeros((2, 1)),
                               K=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            ito_table_residuals(sm, make_cavity(1.0))


class TestModelConstruction:
    @pytest.mark.parametrize("name", ["E", "K"])
    def test_hermiticity_compared_with_struct_tol(self, name):
        def model(offset):
            mats = {"E": np.zeros((2, 2)), "F": np.zeros((2, 2)), "K": np.zeros((2, 2))}
            mats[name] = np.array([[0.0, offset], [0.0, 0.0]])
            return StratonovichModel(**mats)
        model(matkit.STRUCT_TOL)     # ‖M − M†‖_max = STRUCT_TOL is still hermitian
        with pytest.raises(ValueError) as info:
            model(2 * matkit.STRUCT_TOL)
        assert str(info.value) == f"{name} must be hermitian"

    def test_nonhermitian_rejected(self):
        with pytest.raises(ValueError):
            StratonovichModel(E=[[0.0, 1.0], [0.0, 0.0]], F=np.zeros((2, 1)),
                              K=[[0.0]])
        with pytest.raises(ValueError):
            StratonovichModel(E=np.zeros((1, 1)), F=[[0.0]], K=[[1j]])

    def test_empty_coupling(self):
        sm = StratonovichModel(E=[[1.0]], F=np.zeros((1, 0)), K=np.zeros((0, 0)))
        comp = strat_to_ito(sm)
        assert comp.n_ports == 1 and comp.m_modes == 0
