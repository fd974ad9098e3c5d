"""Unit tests for the composition algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slhnet import (BeamSplitter, LinearComponent, PartitionedComponent,
                    beamsplitter_loop, beamsplitter_network, build_partitioned,
                    concatenate, drift, eval_transfer, feedback_reduce,
                    make_cavity, matkit, mixing_splitter, mobius,
                    redheffer_star, series_product, validate)
from slhnet.network import AlgebraicLoop, BadPartition, DimensionMismatch, \
    OutsideDomain

from support import (cascade_transfer_check, haar_unitary, path_expansion_check,
                     random_component, random_network, random_partitioned,
                     random_rhp_points, random_splitter, reference_feedback_reduce,
                     sequential_star, splitter_blocks)


def _series_wiring(g1, g2):
    """Section-style series network: g1's outputs feed g2's inputs, eta = 1."""
    comp = concatenate(g1, g2, prefixes=("g1", "g2"))
    n = g1.n_ports
    return PartitionedComponent(comp, internal_out=tuple(range(n)),
                                internal_in=tuple(range(n, 2 * n)),
                                eta=np.eye(n))


def _lft_eliminate(comp, pc, s):
    """Frequency-domain oracle: eliminate internal blocks of the full Xi(s)."""
    Xi = eval_transfer(comp, s).Xi
    io, ii = list(pc.internal_out), list(pc.internal_in)
    eo, ei = list(pc.external_out), list(pc.external_in)
    Xi_ii = Xi[np.ix_(io, ii)]
    Xi_ie = Xi[np.ix_(io, ei)]
    Xi_ei = Xi[np.ix_(eo, ii)]
    Xi_ee = Xi[np.ix_(eo, ei)]
    return Xi_ee + Xi_ei @ np.linalg.solve(pc.eta - Xi_ii, Xi_ie)


class TestFeedbackReduce:
    def test_series_wiring_matches_series_product(self):
        rng = np.random.default_rng(71)
        g1 = random_component(rng, 2, 1)
        g2 = random_component(rng, 2, 2)
        red = feedback_reduce(_series_wiring(g1, g2))
        ser = series_product(g2, g1)
        assert matkit.max_abs(red.S - ser.S) <= 1e-12
        assert matkit.max_abs(red.C - ser.C) <= 1e-12
        assert matkit.max_abs(red.Omega - ser.Omega) <= 1e-12

    def test_uncoupled_loop_leaves_external_block(self):
        # internal ports carry no coupling and scatter nothing back
        rng = np.random.default_rng(73)
        U = haar_unitary(rng, 2)
        S = np.zeros((4, 4), dtype=complex)
        S[:2, :2] = U
        C = np.zeros((4, 1), dtype=complex)
        C[:2] = np.array([[0.3], [0.1j]])
        comp = LinearComponent(S, C, [[0.2]])
        pc = PartitionedComponent(comp, internal_out=(2, 3), internal_in=(2, 3),
                                  eta=np.array([[0.0, 1.0], [1.0, 0.0]]))
        red = feedback_reduce(pc)
        assert np.array_equal(red.S, U)
        assert np.array_equal(red.C, C[:2])
        assert np.array_equal(red.Omega, comp.Omega)

    def test_matches_frequency_domain_oracle(self):
        rng = np.random.default_rng(79)
        comp = random_component(rng, 3, 2)
        pc = PartitionedComponent(comp, internal_out=(1,), internal_in=(1,),
                                  eta=np.eye(1))
        red = feedback_reduce(pc)
        for s in random_rhp_points(rng, 20):
            got = eval_transfer(red, s).Xi
            assert matkit.max_abs(got - _lft_eliminate(comp, pc, s)) <= 1e-8

    def test_reduction_preserves_validity(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            pc = random_partitioned(rng, n, int(rng.integers(1, 4)),
                                    int(rng.integers(1, n)))
            assert validate(feedback_reduce(pc)).ok

    def test_reduced_drift_formula(self):
        rng = np.random.default_rng(89)
        pc = random_partitioned(rng, 4, 3, 2)
        comp = pc.comp
        red = feedback_reduce(pc)
        io, ii = list(pc.internal_out), list(pc.internal_in)
        eo = list(pc.external_out)
        Y = np.linalg.solve(pc.eta - comp.S[np.ix_(io, ii)], comp.C[io, :])
        coupl = (comp.C[io, :].conj().T @ comp.S[np.ix_(io, ii)]
                 + comp.C[eo, :].conj().T @ comp.S[np.ix_(eo, ii)])
        expected = drift(comp) - coupl @ Y
        assert matkit.max_abs(drift(red) - expected) <= 1e-10

    def test_imaginary_part_identity_matched_labels(self):
        # with channel labels matched (eta = 1):
        # Im{C_i† S_ii (1-S_ii)^-1 C_i} equals Im{C_i† (1-S_ii)^-1 C_i}
        rng = np.random.default_rng(97)
        done = 0
        while done < 10:
            pc = random_partitioned(rng, 4, 2, 2)
            comp = pc.comp
            io, ii = list(pc.internal_out), list(pc.internal_in)
            S_ii = comp.S[np.ix_(io, ii)]
            if np.linalg.cond(np.eye(2) - S_ii) > 1e6:
                continue
            C_i = comp.C[io, :]
            Y = np.linalg.solve(np.eye(2) - S_ii, C_i)
            lhs = matkit.herm_imag(C_i.conj().T @ S_ii @ Y)
            rhs = matkit.herm_imag(C_i.conj().T @ Y)
            assert matkit.max_abs(lhs - rhs) <= 1e-10
            done += 1

    def test_imaginary_part_identity_general_permutation(self):
        # unmatched labelling inserts eta on the right-hand side:
        # Im{C_i† S_ii (eta-S_ii)^-1 C_i} equals Im{C_i† eta (eta-S_ii)^-1 C_i}
        rng = np.random.default_rng(98)
        for _ in range(10):
            pc = random_partitioned(rng, 4, 2, 2)
            comp = pc.comp
            io, ii = list(pc.internal_out), list(pc.internal_in)
            C_i = comp.C[io, :]
            Y = np.linalg.solve(pc.eta - comp.S[np.ix_(io, ii)], C_i)
            lhs = matkit.herm_imag(C_i.conj().T @ comp.S[np.ix_(io, ii)] @ Y)
            rhs = matkit.herm_imag(C_i.conj().T @ pc.eta @ Y)
            assert matkit.max_abs(lhs - rhs) <= 1e-10

    def test_algebraic_loop_detected(self):
        S = np.zeros((3, 3), dtype=complex)
        S[0, 0] = 1.0
        S[1:, 1:] = haar_unitary(np.random.default_rng(101), 2)
        comp = LinearComponent(S, np.zeros((3, 1)), [[0.0]])
        pc = PartitionedComponent(comp, internal_out=(0,), internal_in=(0,),
                                  eta=np.eye(1))
        with pytest.raises(AlgebraicLoop):
            feedback_reduce(pc)

    def test_bad_partition_rejected(self):
        comp = make_cavity(1.0)
        with pytest.raises(BadPartition):
            PartitionedComponent(comp, internal_out=(0,), internal_in=(),
                                 eta=np.zeros((1, 0)))
        with pytest.raises(BadPartition):
            PartitionedComponent(comp, internal_out=(0, 0), internal_in=(0, 0),
                                 eta=np.eye(2))
        with pytest.raises(BadPartition):
            PartitionedComponent(concatenate(make_cavity(1.0), make_cavity(2.0)),
                                 internal_out=(0, 1), internal_in=(0, 1),
                                 eta=np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_empty_partition_is_identity(self):
        rng = np.random.default_rng(103)
        comp = random_component(rng, 2, 1)
        pc = PartitionedComponent(comp, internal_out=(), internal_in=(),
                                  eta=np.zeros((0, 0)))
        red = feedback_reduce(pc)
        assert np.array_equal(red.S, comp.S)
        assert np.array_equal(red.C, comp.C)
        assert np.array_equal(red.Omega, comp.Omega)


def _assert_same_reduction(pc):
    """feedback_reduce against the reference: same decision, same S and C bits."""
    try:
        want = reference_feedback_reduce(pc)
    except AlgebraicLoop:
        with pytest.raises(AlgebraicLoop):
            feedback_reduce(pc)
        return False
    got = feedback_reduce(pc)
    for a, b in ((got.S, want.S), (got.C, want.C)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (got.port_labels, got.mode_labels) == (want.port_labels, want.mode_labels)
    scale = max(1.0, matkit.max_abs(want.Omega))
    assert matkit.max_abs(got.Omega - want.Omega) <= 1e-12 * scale
    assert np.array_equal(got.Omega, got.Omega.conj().T)
    return True


def _pi_phase_loop(eps: float, gamma: float = 1.0) -> PartitionedComponent:
    """mixing_splitter(1 − eps) closed around a π-phase cavity: det(η − S_ii) = −eps."""
    return beamsplitter_network(mixing_splitter(1.0 - eps), make_cavity(gamma, phi=np.pi))


def _unit_pivot_loop(k: int) -> PartitionedComponent:
    """A loop η − S_ii = I − (strict upper triangle of ones): unit pivots, κ₁ = k·2^(k−1)."""
    S = np.zeros((k + 1, k + 1), dtype=complex)
    S[:k, :k] = np.triu(np.ones((k, k)), 1)
    S[0, k] = S[k, 0] = S[k, k] = 0.5
    C = np.zeros((k + 1, 1))
    C[k, 0] = 1.0
    return PartitionedComponent(LinearComponent(S, C, [[0.3]]), internal_out=tuple(range(k)),
                                internal_in=tuple(range(k)), eta=np.eye(k))


def _reduction_case(rng: np.random.Generator, kind: str) -> PartitionedComponent:
    if kind == "partitioned":
        n = int(rng.integers(1, 7))
        return random_partitioned(rng, n, int(rng.integers(0, 5)), int(rng.integers(0, n + 1)))
    if kind == "network":
        return build_partitioned(random_network(rng, 12))
    if kind == "splitter":
        n2 = int(rng.integers(1, 3))
        T = random_splitter(rng, int(rng.integers(1, 3)), n2)
        return beamsplitter_network(T, random_component(rng, n2, int(rng.integers(0, 3))))
    # near-singular loops a decade apart, on both sides of the 1e-12 gate
    return _pi_phase_loop(10.0 ** -int(rng.integers(8, 17)), float(rng.uniform(0.1, 3.0)))


class TestReductionMatchesReference:
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["partitioned", "network", "splitter", "near_singular"]))
    @settings(max_examples=200, deadline=None)
    def test_same_decision_and_result(self, seed, kind):
        _assert_same_reduction(_reduction_case(np.random.default_rng(seed), kind))

    @pytest.mark.parametrize("exponent, accepted", [
        (9, True), (10, True), (11, True),
        (12, False), (13, False), (14, False), (15, False)])
    def test_near_singular_splitter_loop_decisions(self, exponent, accepted):
        assert _assert_same_reduction(_pi_phase_loop(10.0 ** -exponent)) is accepted

    @pytest.mark.parametrize("k, accepted", [
        (30, True), (33, True), (35, True), (37, False), (38, False), (44, False)])
    def test_condition_gate_decisions_with_unit_pivots(self, k, accepted):
        # every LU pivot is 1, so only the condition gate can reject the loop
        assert _assert_same_reduction(_unit_pivot_loop(k)) is accepted

    def test_condition_gate_uses_the_one_norm(self):
        # κ₁ = k·2^(k−1) exceeds κ₂ by ~2.5 here: 1/κ₂ = 1.98e-12 passes the
        # reference's SVD gate, 1/κ₁ = 8.08e-13 fails the LU estimate
        pc = _unit_pivot_loop(36)
        assert reference_feedback_reduce(pc).n_ports == 1
        with pytest.raises(AlgebraicLoop, match="condition estimate 1.237e"):
            feedback_reduce(pc)

    def test_exactly_singular_ring_rejected_by_both(self):
        ring = PartitionedComponent(make_cavity(1.0), internal_out=(0,),
                                    internal_in=(0,), eta=np.eye(1))
        assert _assert_same_reduction(ring) is False

    def test_one_factorization_and_no_svd(self, monkeypatch):
        pc = random_partitioned(np.random.default_rng(107), 5, 3, 3)
        want = reference_feedback_reduce(pc)
        singular = _pi_phase_loop(1e-14)

        def refuse(*args, **kwargs):
            raise AssertionError("feedback_reduce must not take an SVD")

        monkeypatch.setattr(np.linalg, "cond", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        calls = []
        factor = matkit.factor
        monkeypatch.setattr(matkit, "factor", lambda *a, **k: calls.append(1) or factor(*a, **k))
        assert np.array_equal(feedback_reduce(pc).S, want.S)
        assert calls == [1]
        with pytest.raises(AlgebraicLoop):
            feedback_reduce(singular)
        assert calls == [1, 1]


class TestSeriesProduct:
    def test_two_cavities(self):
        g1, g2 = make_cavity(1.0), make_cavity(4.0)
        ser = series_product(g2, g1)
        assert ser.S[0, 0] == 1.0
        assert np.allclose(ser.C, [[1.0, 2.0]])
        off = ser.Omega[0, 1]
        assert abs(abs(off) - np.sqrt(1.0 * 4.0) / 2) <= 1e-12
        assert validate(ser).ok

    def test_identity_passthrough(self):
        rng = np.random.default_rng(107)
        g2 = random_component(rng, 3, 2)
        passthrough = LinearComponent(np.eye(3), np.zeros((3, 0)), np.zeros((0, 0)))
        ser = series_product(g2, passthrough)
        assert np.array_equal(ser.S, g2.S)
        assert np.array_equal(ser.C, g2.C)
        assert np.array_equal(ser.Omega, g2.Omega)

    def test_port_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            series_product(make_cavity(1.0), random_component(np.random.default_rng(1), 2, 1))

    def test_associativity(self):
        rng = np.random.default_rng(109)
        a = random_component(rng, 2, 1)
        b = random_component(rng, 2, 2)
        c = random_component(rng, 2, 1)
        left = series_product(c, series_product(b, a))
        right = series_product(series_product(c, b), a)
        assert matkit.max_abs(left.S - right.S) <= 1e-10
        assert matkit.max_abs(left.C - right.C) <= 1e-10
        assert matkit.max_abs(left.Omega - right.Omega) <= 1e-10


class TestCascade:
    def test_two_cavities_factorize(self):
        rng = np.random.default_rng(113)
        report = cascade_transfer_check(make_cavity(2.0, omega=0.3),
                                        make_cavity(1.0, phi=0.4),
                                        random_rhp_points(rng, 20))
        assert report.passed
        assert report.max_residual <= 1e-10

    def test_static_upstream(self):
        rng = np.random.default_rng(127)
        g2 = random_component(rng, 2, 1)
        g1 = LinearComponent(haar_unitary(rng, 2), np.zeros((2, 0)), np.zeros((0, 0)))
        report = cascade_transfer_check(g2, g1, random_rhp_points(rng, 5))
        assert report.passed
        s = 0.5 + 0.1j
        assert matkit.max_abs(eval_transfer(series_product(g2, g1), s).Xi
                              - eval_transfer(g2, s).Xi @ g1.S) <= 1e-12

    def test_random_pairs(self):
        rng = np.random.default_rng(131)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            g1 = random_component(rng, n, int(rng.integers(1, 4)))
            g2 = random_component(rng, n, int(rng.integers(1, 4)))
            assert cascade_transfer_check(g2, g1, random_rhp_points(rng, 10)).passed


class TestMobius:
    def test_swap_is_identity(self):
        T = BeamSplitter(np.array([[0.0, 1.0], [1.0, 0.0]]), 1, 1)
        X = np.array([[0.3 + 0.4j]])
        assert matkit.max_abs(mobius(T, X) - X) <= 1e-15

    def test_scalar_fixed_point(self):
        T = mixing_splitter(0.6)
        assert mobius(T, np.eye(1))[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_unimodular_on_phases(self):
        rng = np.random.default_rng(137)
        for _ in range(20):
            T = random_splitter(rng, 1, 1)
            X = np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])
            assert abs(abs(mobius(T, X)[0, 0]) - 1.0) <= 1e-9

    def test_preserves_unitarity(self):
        rng = np.random.default_rng(139)
        for _ in range(50):
            n1 = int(rng.integers(1, 3))
            n2 = int(rng.integers(1, 3))
            T = random_splitter(rng, n1, n2)
            X = haar_unitary(rng, n2)
            assert matkit.unitarity_residual(mobius(T, X)) <= 1e-9

    def test_outside_domain(self):
        T = mixing_splitter(0.5)   # T22 = -0.5
        with pytest.raises(OutsideDomain):
            mobius(T, np.array([[-2.0]]))


class TestBeamSplitterLoop:
    def test_real_mixing_rate_renormalization(self):
        loop = beamsplitter_loop(mixing_splitter(0.5), make_cavity(3.0))
        assert abs(abs(loop.C[0, 0]) ** 2 - 1.0) <= 1e-10   # (1-a)/(1+a)*3 = 1
        assert matkit.max_abs(loop.Omega) <= 1e-10
        assert abs(loop.S[0, 0] - 1.0) <= 1e-12

    def test_pure_interferometer(self):
        rng = np.random.default_rng(149)
        T = random_splitter(rng, 1, 1)
        plant = LinearComponent([[1.0]], [[0.0]], [[0.4]])
        loop = beamsplitter_loop(T, plant)
        T11, T12, T21, T22 = splitter_blocks(T)
        expected_S = T11 + T12 @ np.linalg.solve(np.eye(1) - T22, T21)
        assert matkit.max_abs(loop.S - expected_S) <= 1e-12
        assert matkit.max_abs(loop.C) == 0.0

    def test_closed_loop_transfer_is_mobius_of_plant(self):
        rng = np.random.default_rng(151)
        for _ in range(10):
            n2 = int(rng.integers(1, 3))
            T = random_splitter(rng, int(rng.integers(1, 3)), n2)
            plant = random_component(rng, n2, int(rng.integers(1, 3)))
            loop = beamsplitter_loop(T, plant)
            for s in random_rhp_points(rng, 20):
                lhs = eval_transfer(loop, s).Xi
                rhs = mobius(T, eval_transfer(plant, s).Xi)
                assert matkit.max_abs(lhs - rhs) <= 1e-9

    def test_equals_network_reduction(self):
        rng = np.random.default_rng(157)
        for _ in range(10):
            n2 = int(rng.integers(1, 3))
            T = random_splitter(rng, int(rng.integers(1, 3)), n2)
            plant = random_component(rng, n2, int(rng.integers(1, 3)))
            direct = beamsplitter_loop(T, plant)
            red = feedback_reduce(beamsplitter_network(T, plant))
            assert matkit.max_abs(direct.S - red.S) <= 1e-12
            assert matkit.max_abs(direct.C - red.C) <= 1e-12
            assert matkit.max_abs(direct.Omega - red.Omega) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            beamsplitter_loop(mixing_splitter(0.5),
                              random_component(np.random.default_rng(2), 2, 1))


class TestRedhefferStar:
    def test_identity_passthrough(self):
        rng = np.random.default_rng(163)
        a = random_component(rng, 2, 2)
        cross = LinearComponent(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                np.zeros((2, 0)), np.zeros((0, 0)))
        star = redheffer_star(a, cross, 1)
        assert matkit.max_abs(star.S - a.S) <= 1e-14
        assert matkit.max_abs(star.C - a.C) <= 1e-14
        assert matkit.max_abs(star.Omega - a.Omega) <= 1e-14

    def test_no_loop_gain_truncates(self):
        rng = np.random.default_rng(167)
        # unitary 2x2 blocks with vanishing loop reflections S22A and S33B
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        SA = np.array([[0.0, phases[0]], [phases[1], 0.0]])
        SB = np.array([[0.0, phases[2]], [phases[3], 0.0]])
        a = LinearComponent(SA, (rng.standard_normal((2, 1))
                                 + 1j * rng.standard_normal((2, 1))), [[0.3]])
        b = LinearComponent(SB, (rng.standard_normal((2, 1))
                                 + 1j * rng.standard_normal((2, 1))), [[-0.2]])
        star = redheffer_star(a, b, 1)
        expected = np.array([[SA[0, 0], SA[0, 1] * SB[0, 1]],
                             [SB[1, 0] * SA[1, 0], SB[1, 1]]])
        assert matkit.max_abs(star.S - expected) <= 1e-12

    def test_order_independent_elimination(self):
        rng = np.random.default_rng(173)
        for _ in range(10):
            a = random_component(rng, 2, int(rng.integers(1, 3)))
            b = random_component(rng, 2, int(rng.integers(1, 3)))
            star = redheffer_star(a, b, 1)
            for order in (1, 2):
                seq = sequential_star(a, b, order)
                assert matkit.max_abs(star.S - seq.S) <= 1e-10
                assert matkit.max_abs(star.C - seq.C) <= 1e-10
                assert matkit.max_abs(star.Omega - seq.Omega) <= 1e-10

    def test_star_of_valid_is_valid(self):
        rng = np.random.default_rng(179)
        a = random_component(rng, 3, 2)
        b = random_component(rng, 3, 1)
        assert validate(redheffer_star(a, b, 2)).ok

    def test_channel_count_must_be_an_integer(self):
        rng = np.random.default_rng(182)
        a, b = random_component(rng, 2, 1), random_component(rng, 2, 1)
        with pytest.raises(DimensionMismatch) as info:
            redheffer_star(a, b, 1.7)
        assert str(info.value) == "channel count 1.7 is not an integer"
        star = redheffer_star(a, b, np.int64(1))
        assert np.array_equal(star.S, redheffer_star(a, b, 1).S)

    def test_channel_count_bounds(self):
        rng = np.random.default_rng(181)
        with pytest.raises(DimensionMismatch):
            redheffer_star(random_component(rng, 2, 1),
                           random_component(rng, 2, 1), 3)


class TestPathExpansion:
    def test_no_internal_scattering_is_exact(self):
        rng = np.random.default_rng(191)
        g1 = random_component(rng, 2, 1)
        g2 = random_component(rng, 2, 1)
        report = path_expansion_check(_series_wiring(g1, g2), order=0)
        assert report.spectral_radius <= 1e-12
        assert report.residuals[0] <= 1e-12

    def test_scalar_loop_halves_per_order(self):
        # 2-port component whose loop reflection has modulus 0.5
        alpha = 0.5
        beta = np.sqrt(1 - alpha ** 2)
        S = np.array([[alpha, beta], [beta, -alpha]])
        comp = LinearComponent(S, np.zeros((2, 0)), np.zeros((0, 0)))
        pc = PartitionedComponent(comp, internal_out=(1,), internal_in=(1,),
                                  eta=np.eye(1))
        report = path_expansion_check(pc, order=12)
        assert report.convergent
        assert report.spectral_radius == pytest.approx(0.5, abs=1e-12)
        assert report.decay_rate == pytest.approx(0.5, abs=1e-9)
        ratios = [report.residuals[j + 1] / report.residuals[j] for j in range(11)]
        assert np.allclose(ratios, 0.5, atol=1e-9)

    def test_divergent_loop_reported(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]]) @ np.diag([1.0, -1.0])
        comp = LinearComponent(np.diag([1j, -1.0]), np.zeros((2, 0)), np.zeros((0, 0)))
        pc = PartitionedComponent(comp, internal_out=(1,), internal_in=(1,),
                                  eta=np.eye(1))
        report = path_expansion_check(pc, order=3)
        assert not report.convergent
        # closed form still exists: eta - S_ii = 1 - (-1) = 2
        assert report.spectral_radius >= 1.0 - 1e-12
        del S


def _reduce_on(pc: PartitionedComponent, sparse_min: int, sparse_fill: float):
    """feedback_reduce with matkit.SPARSE_MIN and matkit.SPARSE_FILL set: the result,
    or None on AlgebraicLoop, and whether each factorization was given a sparse matrix."""
    kinds = []
    factor = matkit.factor

    def spy(m):
        kinds.append(isinstance(m, matkit._Compressed))
        return factor(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matkit, "SPARSE_MIN", sparse_min)
        mp.setattr(matkit, "SPARSE_FILL", sparse_fill)
        mp.setattr(matkit, "factor", spy)
        try:
            return feedback_reduce(pc), kinds
        except AlgebraicLoop:
            return None, kinds


def _assert_sparse_matches_dense(pc: PartitionedComponent) -> bool:
    """The sparse path against the dense kernel: same decision, S, C and Ω within
    1e-12·max(1, ‖·‖_max), Ω exactly hermitian; True when the loop was accepted."""
    k = len(pc.internal_out)
    want, dense = _reduce_on(pc, k + 1, matkit.SPARSE_FILL)
    got, kinds = _reduce_on(pc, 1, 1.0)
    assert dense == [False] * len(dense) and kinds == [k > 0]
    assert (got is None) == (want is None)
    if got is None:
        return False
    for a, b in ((got.S, want.S), (got.C, want.C), (got.Omega, want.Omega)):
        assert a.shape == b.shape
        assert matkit.max_abs(a - b) <= 1e-12 * max(1.0, matkit.max_abs(b))
    assert np.array_equal(got.Omega, got.Omega.conj().T)
    assert (got.port_labels, got.mode_labels) == (want.port_labels, want.mode_labels)
    return True


class TestSparsePath:
    """From matkit.SPARSE_MIN channels on, η − S_ii of a sparse S and C is factored
    by SuperLU.

    SPARSE_MIN = 1 with SPARSE_FILL = 1 sends every reduction with a loop there.
    """

    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["partitioned", "network", "splitter"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_kernel(self, seed, kind):
        _assert_sparse_matches_dense(_reduction_case(np.random.default_rng(seed), kind))

    @pytest.mark.parametrize("seed", [401, 402])
    def test_large_network_above_the_crossover(self, seed):
        pc = build_partitioned(random_network(np.random.default_rng(seed), units=300))
        assert len(pc.internal_out) >= matkit.SPARSE_MIN
        got, kinds = _reduce_on(pc, matkit.SPARSE_MIN, matkit.SPARSE_FILL)
        assert kinds == [True]
        assert _assert_sparse_matches_dense(pc)

    @pytest.mark.parametrize("exponent, accepted", [
        (9, True), (10, True), (11, True),
        (12, False), (13, False), (14, False), (15, False)])
    def test_near_singular_splitter_loop_decisions(self, exponent, accepted):
        got, kinds = _reduce_on(_pi_phase_loop(10.0 ** -exponent), 1, 1.0)
        assert kinds == [True] and (got is not None) is accepted

    @pytest.mark.parametrize("k, accepted", [
        (30, True), (33, True), (35, True), (37, False), (38, False), (44, False)])
    def test_condition_gate_decisions_with_unit_pivots(self, k, accepted):
        got, kinds = _reduce_on(_unit_pivot_loop(k), 1, 1.0)
        assert kinds == [True] and (got is not None) is accepted

    def test_condition_gate_reports_the_same_estimate(self, monkeypatch):
        monkeypatch.setattr(matkit, "SPARSE_MIN", 1)
        monkeypatch.setattr(matkit, "SPARSE_FILL", 1.0)
        with pytest.raises(AlgebraicLoop, match="condition estimate 1.237e"):
            feedback_reduce(_unit_pivot_loop(36))

    def test_fill_share_boundary(self):
        # the sparse path takes S and C while neither has more than a SPARSE_FILL share nonzero
        pc = build_partitioned(random_network(np.random.default_rng(401), units=300))
        S, C = pc.comp.S, pc.comp.C
        fill = max(np.count_nonzero(S) / S.size, np.count_nonzero(C) / C.size)
        assert fill <= matkit.SPARSE_FILL
        assert _reduce_on(pc, matkit.SPARSE_MIN, fill)[1] == [True]
        assert _reduce_on(pc, matkit.SPARSE_MIN, fill * (1 - 1e-9))[1] == [False]

    def test_full_coupling_matrix_stays_dense(self):
        pc = build_partitioned(random_network(np.random.default_rng(402), units=300))
        comp = pc.comp
        full = LinearComponent(comp.S, np.ones_like(comp.C), comp.Omega,
                               comp.port_labels, comp.mode_labels)
        pc = PartitionedComponent(full, pc.internal_out, pc.internal_in, pc._perm)
        assert _reduce_on(pc, matkit.SPARSE_MIN, matkit.SPARSE_FILL)[1] == [False]

    def test_series_product_of_dense_components_stays_dense(self, monkeypatch):
        # the direct sum is half full; S_ii is zero but S_ei is a full block
        rng = np.random.default_rng(439)
        g1, g2 = (random_component(rng, matkit.SPARSE_MIN, 3) for _ in range(2))
        kinds = []
        factor = matkit.factor
        monkeypatch.setattr(matkit, "factor", lambda m: kinds.append(
            isinstance(m, matkit._Compressed)) or factor(m))
        series_product(g2, g1)
        assert kinds == [False]

    def test_dense_kernel_is_exact_above_the_sparse_minimum(self):
        # k = SPARSE_MIN, but the direct sum is half full: the dense blocks must
        # still give the reference's S and C bit for bit
        rng = np.random.default_rng(443)
        g1, g2 = (random_component(rng, matkit.SPARSE_MIN, 3) for _ in range(2))
        pc = _series_wiring(g1, g2)
        assert _reduce_on(pc, matkit.SPARSE_MIN, matkit.SPARSE_FILL)[1] == [False]
        assert _assert_same_reduction(pc)

    def test_dense_loop_stays_dense(self):
        # S_ii = strict upper triangle of ones is half full: not sparse
        got, kinds = _reduce_on(_unit_pivot_loop(matkit.SPARSE_MIN + 2), matkit.SPARSE_MIN,
                                matkit.SPARSE_FILL)
        assert got is None and kinds == [False]


class TestPermutationVector:
    def test_vector_and_matrix_give_the_same_partition(self):
        rng = np.random.default_rng(409)
        pc = random_partitioned(rng, 7, 2, 5)
        by_vector = PartitionedComponent(pc.comp, pc.internal_out, pc.internal_in, pc._perm)
        assert np.array_equal(by_vector._perm, pc._perm)
        assert np.array_equal(by_vector.eta, pc.eta) and by_vector.eta.dtype == complex
        assert not by_vector.eta.flags.writeable
        a, b = feedback_reduce(pc), feedback_reduce(by_vector)
        assert all(x.tobytes() == y.tobytes()
                   for x, y in ((a.S, b.S), (a.C, b.C), (a.Omega, b.Omega)))

    def test_build_partitioned_passes_the_vector(self):
        pc = build_partitioned(random_network(np.random.default_rng(419), units=12))
        eta = pc.eta
        assert np.array_equal(eta[np.arange(len(pc._perm)), pc._perm], np.ones(len(pc._perm)))
        assert np.count_nonzero(eta) == len(pc._perm)

    @pytest.mark.parametrize("eta", [[0, 0, 1], [0, 1, 3], [0, 1, -1], [0, 1], [0, 1, 2, 3],
                                     [0.0, 1.0, 2.0], np.eye(3)[[0, 0, 1]], np.ones((3, 3))])
    def test_non_permutations_rejected(self, eta):
        comp = random_component(np.random.default_rng(421), 4, 1)
        with pytest.raises(BadPartition):
            PartitionedComponent(comp, (0, 1, 2), (1, 2, 3), eta)


@pytest.mark.parametrize("kwargs, message", [
    (dict(internal_out=(0, 2), internal_in=(0, 1), eta=np.eye(2)),
     "internal_out index out of range 0..1"),
    (dict(internal_out=(0,), internal_in=(0,), eta=np.eye(1), external_out=(0,)),
     "external_out must be the complement of internal_out"),
    (dict(internal_out=(0,), internal_in=(1,), eta=np.eye(1), external_in=(0, 1)),
     "external_in must be the complement of internal_in"),
    (dict(internal_out=(0.9,), internal_in=(1,), eta=np.eye(1)),
     "internal_out index 0.9 is not an integer"),
    (dict(internal_out=(0,), internal_in=(1.2,), eta=np.eye(1)),
     "internal_in index 1.2 is not an integer"),
    (dict(internal_out=("0",), internal_in=(1,), eta=np.eye(1)),
     "internal_out index '0' is not an integer"),
    (dict(internal_out=(0,), internal_in=(1,), eta=np.eye(1), external_out=(1.0,)),
     "external_out index 1.0 is not an integer"),
], ids=["index-out-of-range", "external-out-overlaps", "external-in-overlaps",
        "float-internal-out", "float-internal-in", "str-internal-out", "float-external-out"])
def test_partition_rejection_messages(kwargs, message):
    comp = concatenate(make_cavity(1.0), make_cavity(2.0))
    with pytest.raises(BadPartition) as info:
        PartitionedComponent(comp, **kwargs)
    assert str(info.value) == message


def test_partition_takes_numpy_integers():
    comp = concatenate(make_cavity(1.0), make_cavity(2.0))
    pc = PartitionedComponent(comp, internal_out=np.array([0]), internal_in=(np.int32(1),),
                              eta=np.eye(1), external_out=np.array([1], dtype=np.uint8))
    got = (pc.internal_out, pc.internal_in, pc.external_out, pc.external_in)
    assert got == ((0,), (1,), (1,), (0,))
    assert all(type(i) is int for indices in got for i in indices)


@pytest.mark.parametrize("build, error, message", [
    (lambda: BeamSplitter(np.eye(3), 1, 1), ValueError, "T must be 2×2 for block dims (1, 1)"),
    (lambda: BeamSplitter(np.eye(1), -1, 2), ValueError,
     "T must be 1×1 for block dims (-1, 2)"),
    (lambda: BeamSplitter(np.diag([1.0, 1.0 + 1e-9]), 1, 1), ValueError,
     "beam splitter matrix must be unitary"),
    (lambda: mixing_splitter(1.5), ValueError, "mixing amplitude must lie in [-1, 1]"),
    (lambda: beamsplitter_network(mixing_splitter(0.5),
                                  random_component(np.random.default_rng(2), 2, 1)),
     DimensionMismatch, "plant has 2 ports, splitter loop block expects 1"),
], ids=["shape", "negative-block", "not-unitary", "mixing-amplitude", "plant-ports"])
def test_splitter_rejection_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_beamsplitter_requires_unitary():
    with pytest.raises(ValueError):
        BeamSplitter(np.array([[1.0, 0.0], [0.0, 2.0]]), 1, 1)


class TestOnePermutation:
    """η is read once: the exact permutation serves validation, reduction and paths."""

    def _near_permutation(self, k, seed, offset):
        rng = np.random.default_rng(seed)
        pc = random_partitioned(rng, k + 2, 2, k)
        noise = rng.uniform(-offset, offset, (k, k)) + 1j * rng.uniform(-offset, offset, (k, k))
        near = PartitionedComponent(pc.comp, pc.internal_out, pc.internal_in, pc.eta + noise)
        return pc, near

    def test_near_permutation_reduces_bit_identically(self):
        for seed, k in ((307, 1), (311, 3), (313, 4)):
            exact, near = self._near_permutation(k, seed, 5e-13)
            assert np.array_equal(near.eta, exact.eta)
            a, b = feedback_reduce(exact), feedback_reduce(near)
            for x, y in ((a.S, b.S), (a.C, b.C), (a.Omega, b.Omega)):
                assert x.tobytes() == y.tobytes()
            pa, pb = path_expansion_check(exact, 6), path_expansion_check(near, 6)
            assert pa.residuals == pb.residuals and pa.spectral_radius == pb.spectral_radius

    def test_eta_beyond_tolerance_rejected(self):
        with pytest.raises(BadPartition):
            self._near_permutation(3, 317, 5e-12)

    def test_path_series_matches_explicit_inverse(self):
        # ξ = η† gathered by rows gives the series ξ multiplies out
        pc = random_partitioned(np.random.default_rng(331), 5, 1, 3)
        io, ii, ei = list(pc.internal_out), list(pc.internal_in), list(pc.external_in)
        S_ii, S_ie = pc.comp.S[np.ix_(io, ii)], pc.comp.S[np.ix_(io, ei)]
        S_ei = pc.comp.S[np.ix_(list(pc.external_out), ii)]
        xi = pc.eta.conj().T
        report = path_expansion_check(pc, 4)
        assert report.spectral_radius == pytest.approx(
            np.max(np.abs(np.linalg.eigvals(S_ii @ xi))), abs=1e-12)
        partial = pc.comp.S[np.ix_(list(pc.external_out), ei)].astype(complex)
        term = xi @ S_ie
        closed = feedback_reduce(pc).S
        for j in range(5):
            partial = partial + S_ei @ term
            assert report.residuals[j] == matkit.max_abs(partial - closed)
            term = xi @ S_ii @ term
