"""Every wiring is an index pattern of the one elimination kernel.

Series products, beam-splitter loops, Redheffer stars and the Möbius
transform share ``feedback_reduce``'s LU, Ω formula and singularity gate.
Their closed forms live in ``support`` as oracles.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slhnet import (PartitionedComponent, beamsplitter_loop, beamsplitter_network,
                    feedback_reduce, make_cavity, matkit, mixing_splitter, mobius,
                    network, redheffer_star, series_product, slh)
from slhnet.network import AlgebraicLoop, OutsideDomain

from support import (closed_form_loop, closed_form_mobius, closed_form_series,
                     haar_unitary, random_component, random_partitioned,
                     random_splitter, reference_star, sequential_reduce)


def _close(got, want, rel: float) -> bool:
    return matkit.max_abs(got - want) <= rel * max(1.0, matkit.max_abs(want))


def _assert_close_components(got, want, rel: float) -> None:
    for a, b in ((got.S, want.S), (got.C, want.C), (got.Omega, want.Omega)):
        assert a.shape == b.shape and _close(a, b, rel)


def _assert_bitwise_hermitian(omega) -> None:
    assert np.array_equal(omega, omega.conj().T)


def _decision(route):
    try:
        return route()
    except (AlgebraicLoop, OutsideDomain):
        return None


class TestSingleGate:
    @pytest.mark.parametrize("exponent, accepted", [
        (9, True), (10, True), (11, True),
        (12, False), (13, False), (14, False), (15, False)])
    def test_near_singular_splitter_loop_same_decision_on_every_route(self, exponent,
                                                                      accepted):
        # mixing_splitter(1 − ε) around a π-phase cavity: det of the loop is −ε
        T = mixing_splitter(1.0 - 10.0 ** -exponent)
        plant = make_cavity(1.0, phi=np.pi)
        loop = _decision(lambda: beamsplitter_loop(T, plant))
        reduced = _decision(lambda: feedback_reduce(beamsplitter_network(T, plant)))
        transform = _decision(lambda: mobius(T, [[-1.0]]))
        assert (loop is not None, reduced is not None, transform is not None) == (accepted,) * 3
        if accepted:
            # the splitter loop and its explicit network are the same elimination
            for a, b in ((loop.S, reduced.S), (loop.C, reduced.C), (loop.Omega, reduced.Omega)):
                assert a.tobytes() == b.tobytes()

    def test_mobius_outside_domain_names_the_loop(self):
        with pytest.raises(OutsideDomain, match=r"\(I - X T22\) is singular") as info:
            mobius(mixing_splitter(0.5), [[-2.0]])
        assert isinstance(info.value.__cause__, AlgebraicLoop)


class TestOneKernel:
    def test_each_wiring_factors_once_without_building_a_network(self, monkeypatch):
        rng = np.random.default_rng(211)
        a, b = random_component(rng, 3, 2), random_component(rng, 3, 1)
        T = random_splitter(rng, 2, 2)
        plant = random_component(rng, 2, 2)
        calls = []
        factor = matkit.factor

        def refuse(*args, **kwargs):
            raise AssertionError("a wiring must not assemble a network")

        monkeypatch.setattr(matkit, "factor", lambda *a, **k: calls.append(1) or factor(*a, **k))
        monkeypatch.setattr(matkit, "solve", refuse)
        monkeypatch.setattr(slh, "concatenate", refuse)
        monkeypatch.setattr(network, "concatenate", refuse)
        monkeypatch.setattr(PartitionedComponent, "__post_init__", refuse)
        for run in (lambda: series_product(b, a), lambda: beamsplitter_loop(T, plant),
                    lambda: redheffer_star(a, b, 2), lambda: mobius(T, haar_unitary(rng, 2))):
            calls.clear()
            run()
            assert calls == [1]


# a seed, a port count n ≤ 4 and two mode counts m ≤ 4
_wiring_cases = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4),
                          st.tuples(st.integers(0, 4), st.integers(0, 4)))


class TestClosedFormOracles:
    @given(_wiring_cases)
    @settings(max_examples=100, deadline=None)
    def test_series_matches_closed_form(self, case):
        seed, n, (m1, m2) = case
        rng = np.random.default_rng(seed)
        g1, g2 = random_component(rng, n, m1), random_component(rng, n, m2)
        got, want = series_product(g2, g1), closed_form_series(g2, g1)
        assert got.S.tobytes() == want.S.tobytes()
        # C's g1 block is S₂C₁ computed as part of the wider S₂[C₁, 0], and
        # BLAS may pick another micro-kernel for it: equal to rounding only
        assert got.C.shape == want.C.shape and _close(got.C, want.C, 1e-14)
        assert np.array_equal(got.C[:, g1.m_modes:], want.C[:, g1.m_modes:])
        assert _close(got.Omega, want.Omega, 1e-12)
        _assert_bitwise_hermitian(got.Omega)
        assert (got.port_labels, got.mode_labels) == (want.port_labels, want.mode_labels)

    @given(_wiring_cases)
    @settings(max_examples=100, deadline=None)
    def test_star_matches_reference_bit_for_bit(self, case):
        seed, n, (ma, mb) = case
        rng = np.random.default_rng(seed)
        a = random_component(rng, n, ma)
        b = random_component(rng, int(rng.integers(1, 5)), mb)
        k = int(rng.integers(0, min(a.n_ports, b.n_ports) + 1))
        got, want = _decision(lambda: redheffer_star(a, b, k)), _decision(
            lambda: reference_star(a, b, k))
        assert (got is None) == (want is None)
        if got is not None:
            for x, y in ((got.S, want.S), (got.C, want.C), (got.Omega, want.Omega)):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()
            _assert_bitwise_hermitian(got.Omega)
            assert (got.port_labels, got.mode_labels) == (want.port_labels, want.mode_labels)

    @given(_wiring_cases)
    @settings(max_examples=100, deadline=None)
    def test_loop_and_mobius_match_closed_forms(self, case):
        seed, n2, (m, _) = case
        rng = np.random.default_rng(seed)
        T = random_splitter(rng, int(rng.integers(1, 5)), n2)
        plant = random_component(rng, n2, m)
        got, want = _decision(lambda: beamsplitter_loop(T, plant)), _decision(
            lambda: closed_form_loop(T, plant))
        if got is not None and want is not None:
            _assert_close_components(got, want, 1e-12)
            _assert_bitwise_hermitian(got.Omega)
            assert got.mode_labels == want.mode_labels
        X = haar_unitary(rng, n2)
        got, want = _decision(lambda: mobius(T, X)), _decision(lambda: closed_form_mobius(T, X))
        if got is not None and want is not None:
            assert got.shape == want.shape and _close(got, want, 1e-12)


def _permuted(pc: PartitionedComponent, p, q) -> PartitionedComponent:
    """The same partition with internal outputs listed in order p and inputs in order q."""
    return PartitionedComponent(pc.comp, tuple(pc.internal_out[i] for i in p),
                                tuple(pc.internal_in[j] for j in q), pc.eta[np.ix_(p, q)])


class TestEliminationOrder:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(0, 4),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_listing_order_of_internal_channels_is_irrelevant(self, seed, n, m, data):
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(0, n))
        pc = random_partitioned(rng, n, m, k)
        shuffled = _permuted(pc, rng.permutation(k), rng.permutation(k))
        _assert_close_components(feedback_reduce(shuffled), feedback_reduce(pc), 1e-10)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), m=st.integers(0, 4),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_edge_at_a_time_equals_all_at_once(self, seed, n, m, data):
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(1, n))
        pc = random_partitioned(rng, n, m, k)
        whole = feedback_reduce(pc)
        # a single edge of a well-posed loop may itself close an algebraic
        # loop; the order theorem covers the orders whose every step exists
        stepwise = _decision(lambda: sequential_reduce(pc, rng.permutation(k)))
        assume(stepwise is not None)
        _assert_close_components(stepwise, whole, 1e-10)
        assert stepwise.port_labels == whole.port_labels


class TestAssociativity:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           modes=st.tuples(*[st.integers(0, 3)] * 3))
    @settings(max_examples=100, deadline=None)
    def test_series_product(self, seed, n, modes):
        rng = np.random.default_rng(seed)
        a, b, c = (random_component(rng, n, m) for m in modes)
        left = series_product(c, series_product(b, a))
        right = series_product(series_product(c, b), a)
        _assert_close_components(left, right, 1e-10)

    @given(seed=st.integers(0, 2**32 - 1), ports=st.tuples(*[st.integers(1, 4)] * 3),
           modes=st.tuples(*[st.integers(0, 3)] * 3), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_redheffer_star(self, seed, ports, modes, data):
        rng = np.random.default_rng(seed)
        a, b, c = (random_component(rng, n, m) for n, m in zip(ports, modes))
        k1 = data.draw(st.integers(0, min(a.n_ports, b.n_ports)))
        k2 = data.draw(st.integers(0, min(b.n_ports - k1, c.n_ports)))
        left = _decision(lambda: redheffer_star(redheffer_star(a, b, k1), c, k2))
        right = _decision(lambda: redheffer_star(a, redheffer_star(b, c, k2), k1))
        assume(left is not None and right is not None)
        _assert_close_components(left, right, 1e-10)

