"""Unit tests for the component model."""

import numpy as np
import pytest

from slhnet import (LinearComponent, concatenate, drift, make_cavity, matkit,
                    validate)

from support import random_component, realize


class TestValidate:
    def test_cavity_valid(self):
        report = validate(make_cavity(1.0, 0.0, 0.0))
        assert report.ok
        assert str(report) == "valid"

    def test_nonunitary_s_reported_with_residual(self):
        comp = LinearComponent([[2.0]], [[0.0]], [[0.0]])
        report = validate(comp)
        assert not report.ok
        issue = next(i for i in report.issues if i.check == "S not unitary")
        assert issue.residual == pytest.approx(3.0, abs=1e-12)

    def test_nonhermitian_omega_reported(self):
        comp = LinearComponent(np.eye(2), np.zeros((2, 2)),
                               [[0.0, 1.0], [0.0, 0.0]])
        report = validate(comp)
        assert any(i.check == "Omega not hermitian" for i in report.issues)


class TestDrift:
    def test_cavity(self):
        comp = make_cavity(2.4, omega=1.3, phi=0.7)
        assert drift(comp)[0, 0] == pytest.approx(-1.2 - 1.3j, abs=1e-14)

    def test_decoupled_is_zero(self):
        comp = LinearComponent([[1.0]], [[0.0]], [[0.0]])
        assert matkit.max_abs(drift(comp)) == 0.0

    def test_two_ports_one_mode(self):
        comp = LinearComponent(np.eye(2), [[1.0], [1.0]], [[0.0]])
        assert drift(comp)[0, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_dissipative_spectrum(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            comp = random_component(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            eigs = np.linalg.eigvals(drift(comp))
            assert np.all(eigs.real <= 1e-10)


class TestRealize:
    def test_cavity_block_matrix(self):
        gamma, omega, phi = 2.0, 0.7, 0.3
        ss = realize(make_cavity(gamma, omega, phi))
        phase = np.exp(1j * phi)
        assert abs(ss.A[0, 0] - (-gamma / 2 - 1j * omega)) <= 1e-12
        assert abs(ss.B[0, 0] - (-np.sqrt(gamma) * phase)) <= 1e-12
        assert abs(ss.C[0, 0] - np.sqrt(gamma)) <= 1e-12
        assert abs(ss.D[0, 0] - phase) <= 1e-12

    def test_decoupled(self):
        comp = LinearComponent([[1j]], np.zeros((1, 2)), np.diag([1.0, 2.0]))
        ss = realize(comp)
        assert np.allclose(ss.A, -1j * comp.Omega)
        assert matkit.max_abs(ss.B) == 0.0
        assert np.array_equal(ss.D, comp.S)

    def test_statespace_invariants(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            comp = random_component(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            ss = realize(comp)
            assert matkit.max_abs(ss.A + ss.A.conj().T + ss.C.conj().T @ ss.C) <= 1e-9
            assert matkit.max_abs(ss.B + ss.C.conj().T @ ss.D) <= 1e-9


class TestMakeCavity:
    def test_unit_cavity(self):
        comp = make_cavity(1.0, 0.0, 0.0)
        assert comp.S[0, 0] == 1.0 and comp.C[0, 0] == 1.0 and comp.Omega[0, 0] == 0.0

    def test_decoupled_oscillator(self):
        comp = make_cavity(0.0, omega=2.0)
        assert comp.C[0, 0] == 0.0 and comp.Omega[0, 0] == 2.0

    def test_pi_phase(self):
        comp = make_cavity(4.0, phi=np.pi)
        assert abs(comp.S[0, 0] + 1.0) <= 1e-12
        assert comp.C[0, 0] == 2.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            make_cavity(-0.5)


class TestConcatenate:
    def test_two_cavities_block_diagonal(self):
        a, b = make_cavity(1.0), make_cavity(4.0, omega=2.0, phi=0.5)
        both = concatenate(a, b)
        assert both.n_ports == 2 and both.m_modes == 2
        assert np.array_equal(both.S[:1, :1], a.S)
        assert np.array_equal(both.S[1:, 1:], b.S)
        assert both.S[0, 1] == 0.0 and both.S[1, 0] == 0.0
        assert np.array_equal(both.C[:1, :1], a.C)
        assert np.array_equal(both.Omega[1:, 1:], b.Omega)

    def test_empty_identity(self):
        empty = LinearComponent(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)))
        a = make_cavity(2.0, 1.0, 0.1)
        both = concatenate(a, empty)
        assert np.array_equal(both.S, a.S)
        assert np.array_equal(both.C, a.C)
        assert np.array_equal(both.Omega, a.Omega)

    def test_valid_components_concatenate_valid(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = random_component(rng, int(rng.integers(1, 4)), int(rng.integers(0, 3)))
            b = random_component(rng, int(rng.integers(1, 4)), int(rng.integers(0, 3)))
            assert validate(concatenate(a, b, prefixes=("x", "y"))).ok

    def test_associative_blocks(self):
        rng = np.random.default_rng(37)
        a = random_component(rng, 2, 1)
        b = random_component(rng, 1, 2)
        c = random_component(rng, 3, 1)
        left = concatenate(concatenate(a, b, ("a", "b")), c, ("ab", "c"))
        right = concatenate(a, concatenate(b, c, ("b", "c")), ("a", "bc"))
        assert np.array_equal(left.S, right.S)
        assert np.array_equal(left.C, right.C)
        assert np.array_equal(left.Omega, right.Omega)

    def test_label_collision_autoprefixed(self):
        a = make_cavity(1.0)
        both = concatenate(a, a)
        assert both.port_labels == ("a.p0", "b.p0")

    def test_collision_left_by_equal_prefixes_rejected(self):
        a = make_cavity(1.0)
        with pytest.raises(ValueError) as info:
            concatenate(a, a, prefixes=("x", "x"))
        assert str(info.value) == "label sets still collide after prefixing"


class TestConstruction:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearComponent(np.eye(2), np.zeros((3, 1)), np.zeros((1, 1)))

    @pytest.mark.parametrize("args, message", [
        ((np.ones((2, 3)), np.zeros((2, 1)), [[0.0]]), "S must be square, got shape (2, 3)"),
        ((np.eye(2), np.zeros((2, 2)), np.ones((2, 1))),
         "Omega must be square, got shape (2, 1)"),
        ((np.eye(2), np.zeros((2, 1)), [[0.0]], ("in",)), "expected 2 port labels, got 1"),
        ((np.eye(2), np.zeros((2, 1)), [[0.0]], (), ("a", "b")),
         "expected 1 mode labels, got 2"),
    ], ids=["S-not-square", "Omega-not-square", "port-labels", "mode-labels"])
    def test_rejection_messages(self, args, message):
        with pytest.raises(ValueError) as info:
            LinearComponent(*args)
        assert str(info.value) == message

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LinearComponent([[np.nan]], [[0.0]], [[0.0]])

    def test_arrays_frozen(self):
        comp = make_cavity(1.0)
        with pytest.raises(ValueError):
            comp.S[0, 0] = 2.0

    def test_default_labels(self):
        comp = LinearComponent(np.eye(2), np.zeros((2, 1)), [[0.0]])
        assert comp.port_labels == ("p0", "p1")
        assert comp.mode_labels == ("m0",)

    def test_public_constructor_copies(self):
        S, C, Omega = np.eye(2), np.ones((2, 1)), np.array([[0.5]])
        comp = LinearComponent(S, C, Omega)
        S[0, 0], C[1, 0], Omega[0, 0] = 7.0, 7.0, 7.0
        assert comp.S[0, 0] == 1.0 and comp.C[1, 0] == 1.0 and comp.Omega[0, 0] == 0.5
        fresh = np.eye(2, dtype=complex)
        LinearComponent(fresh, C, Omega)
        assert fresh.flags.writeable     # the caller's array is not frozen

    def test_adopted_arrays_are_kept_checked_and_frozen(self):
        S, C, Omega = (np.eye(2, dtype=complex), np.ones((2, 1), dtype=complex),
                       np.array([[0.5 + 0j]]))
        comp = LinearComponent._adopt(S, C, Omega, ("in", "out"))
        assert comp.S is S and comp.C is C and comp.Omega is Omega
        assert not (S.flags.writeable or C.flags.writeable or Omega.flags.writeable)
        assert comp.port_labels == ("in", "out") and comp.mode_labels == ("m0",)
        assert comp == LinearComponent(np.eye(2), np.ones((2, 1)), [[0.5]], ("in", "out"))
        with pytest.raises(ValueError, match="C must have 2 rows"):
            LinearComponent._adopt(np.eye(2, dtype=complex), np.ones((3, 1), dtype=complex),
                                   np.zeros((1, 1), dtype=complex))
        with pytest.raises(ValueError, match="non-finite"):
            LinearComponent._adopt(np.array([[np.inf + 0j]]), np.zeros((1, 0), dtype=complex),
                                   np.zeros((0, 0), dtype=complex))
