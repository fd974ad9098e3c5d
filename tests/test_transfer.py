"""Unit tests for transfer-function evaluation and the all-pass closed form."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, schur
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from slhnet import (SIGMA_MIN, CommutingForm, LinearComponent, build_partitioned,
                    check_unitary_on_axis, commuting_form, drift, eval_transfer,
                    feedback_reduce, freq_response, make_cavity, matkit,
                    poles_zeros_commuting, series_product)
from slhnet.netfile import Edge, NetDocument
from slhnet.transfer import (NotCommuting, SingularAtS, ZeroModeAmbiguity, _blocks,
                             block_schur)

from support import haar_unitary, random_component, random_hermitian


def _cavity_xi(gamma, omega, phi, s):
    return np.exp(1j * phi) * (s + 1j * omega - gamma / 2) / (s + 1j * omega + gamma / 2)


class TestEvalTransfer:
    def test_cavity_zero_crossing(self):
        ev = eval_transfer(make_cavity(1.0), 0.5)
        assert abs(ev.Xi[0, 0]) <= 1e-14

    def test_cavity_dc_limit(self):
        ev = eval_transfer(make_cavity(1.0), 1e-12)
        assert abs(ev.Xi[0, 0] + 1.0) <= 1e-8

    def test_decoupled_component(self):
        comp = LinearComponent([[1j]], [[0.0]], [[2.0]])
        ev = eval_transfer(comp, 0.7 + 0.2j)
        assert np.array_equal(ev.Xi, comp.S)
        assert matkit.max_abs(ev.xi) <= 1e-14

    def test_pole_raises(self):
        comp = make_cavity(0.0, omega=1.0)   # drift eigenvalue at -1i
        with pytest.raises(SingularAtS):
            eval_transfer(comp, -1j)

    @pytest.mark.parametrize("s", [complex(np.nan, 0), complex(0, np.inf),
                                   complex(-np.inf, 1), complex(np.inf, np.nan)])
    @pytest.mark.parametrize("modes", [0, 2])
    def test_non_finite_s_raises_before_solving(self, s, modes, monkeypatch):
        comp = random_component(np.random.default_rng(17), 2, modes)

        def refuse(*args, **kwargs):
            raise AssertionError("no solve for a non-finite s")

        monkeypatch.setattr(matkit, "solve", refuse)
        monkeypatch.setattr(matkit, "factor", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite") as info:
                eval_transfer(comp, s)
        assert not isinstance(info.value, SingularAtS)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            comp = random_component(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            s = complex(rng.uniform(0.1, 2), rng.uniform(-2, 2))
            ev = eval_transfer(comp, s)
            resolvent = np.linalg.solve(s * np.eye(comp.m_modes) - drift(comp),
                                        comp.C.conj().T)
            alt = (np.eye(comp.n_ports) - comp.C @ resolvent) @ comp.S
            assert matkit.max_abs(ev.Xi - alt) <= 1e-10

    def test_xi_kernel(self):
        rng = np.random.default_rng(43)
        comp = random_component(rng, 2, 3)
        s = 0.9 - 0.4j
        ev = eval_transfer(comp, s)
        expected = comp.C @ np.linalg.solve(s * np.eye(3) - drift(comp), np.eye(3))
        assert matkit.max_abs(ev.xi - expected) <= 1e-12


class TestFreqResponse:
    def test_cavity_three_points(self):
        points = freq_response(make_cavity(1.0), [-1.0, 0.0, 1.0])
        assert [p.omega for p in points] == [-1.0, 0.0, 1.0]
        for p in points:
            assert not p.singular
            assert abs(abs(p.evaluation.Xi[0, 0]) - 1.0) <= 1e-8
        assert abs(points[1].evaluation.Xi[0, 0] + 1.0) <= 1e-8

    def test_empty_grid(self):
        assert freq_response(make_cavity(1.0), []) == []

    @pytest.mark.parametrize("grid,sigma", [([0.0, np.nan], SIGMA_MIN),
                                            ([np.inf], SIGMA_MIN),
                                            ([-np.inf, 1.0], 0.0),
                                            ([0.0], np.nan),
                                            ([0.0], np.inf),
                                            ([], -np.inf)])
    def test_non_finite_input_raises(self, grid, sigma):
        with pytest.raises(ValueError, match="finite"):
            freq_response(make_cavity(1.0), grid, sigma=sigma)

    def test_unit_determinant_sweep(self):
        rng = np.random.default_rng(47)
        comp = random_component(rng, 3, 2)
        for p in freq_response(comp, np.linspace(-5, 5, 101)):
            assert abs(abs(np.linalg.det(p.evaluation.Xi)) - 1.0) <= 1e-8


def _chain(units):
    """Series chain of ``units``, the first one upstream."""
    comp = units[0]
    for unit in units[1:]:
        comp = series_product(unit, comp)
    return comp


def _cascade(rng, n, units):
    """Series chain of one-mode units: triangular, strongly non-normal drift."""
    return _chain([random_component(rng, n, 1) for _ in range(units)])


@st.composite
def _sweep_cases(draw):
    """(component, grid, sigma) over random, cascaded and mode-free components."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "cascade", "no_modes"]))
    if kind == "random":
        comp = random_component(rng, n, draw(st.integers(1, 8)))
    elif kind == "cascade":
        comp = _cascade(rng, n, draw(st.integers(2, 24)))
    else:
        comp = LinearComponent(haar_unitary(rng, n), np.zeros((n, 0)), np.zeros((0, 0)))
    grid = draw(st.lists(st.floats(-20, 20), min_size=1, max_size=12))
    sigma = draw(st.sampled_from([SIGMA_MIN, 0.0, 0.5, 3.0]))
    return comp, grid, sigma


class TestSweepProperties:
    @given(_sweep_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_pointwise_evaluation(self, case):
        comp, grid, sigma = case
        points = freq_response(comp, grid, sigma=sigma)
        assert [p.omega for p in points] == grid
        scale = max(1.0, np.linalg.norm(drift(comp), 2)) if comp.m_modes else 1.0
        for p in points:
            ev = eval_transfer(comp, sigma + 1j * p.omega)
            assert not p.singular
            assert p.evaluation.s == ev.s
            assert matkit.max_abs(p.evaluation.Xi - ev.Xi) <= 1e-12 * scale
            assert matkit.max_abs(p.evaluation.xi - ev.xi) <= 1e-12 * scale
        assert freq_response(comp, [], sigma=sigma) == []

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), data=st.data(),
           dark=st.lists(st.integers(-8, 8), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_singular_exactly_on_uncoupled_modes(self, seed, n, data, dark):
        # coupled block with C†C positive definite (every mode damped) plus
        # uncoupled modes at integer frequencies, mixed by a random unitary
        rng = np.random.default_rng(seed)
        coupled = data.draw(st.integers(1, n))
        Cc = rng.standard_normal((n, coupled)) + 1j * rng.standard_normal((n, coupled))
        assume(np.linalg.eigvalsh(Cc.conj().T @ Cc)[0] >= 0.05)
        m = coupled + len(dark)
        C = np.zeros((n, m), dtype=complex)
        C[:, :coupled] = Cc
        Omega = np.zeros((m, m), dtype=complex)
        Omega[:coupled, :coupled] = random_hermitian(rng, coupled)
        Omega[coupled:, coupled:] = np.diag(np.array(dark, dtype=float))
        V = haar_unitary(rng, m) if data.draw(st.booleans()) else np.eye(m)
        comp = LinearComponent(haar_unitary(rng, n), C @ V,
                               matkit.herm_real(V.conj().T @ Omega @ V))
        # quarter-spaced grid: a miss lies >= 0.25 from every uncoupled pole
        grid = np.arange(-40, 41) / 4
        points = freq_response(comp, grid, sigma=0.0)
        # the uncoupled mode at frequency f has its pole at s = −i·f
        assert [p.singular for p in points] == [-w in dark for w in grid]

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 8),
           log_offset=st.floats(-1.5, 1.5), angle=st.floats(0.0, 2 * np.pi))
    @settings(max_examples=200, deadline=None)
    def test_sweep_pole_is_a_pole_for_eval_transfer(self, seed, n, m, log_offset, angle):
        # probe next to a drift eigenvalue λ, at 10^log_offset times the sweep's threshold
        rng = np.random.default_rng(seed)
        C = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
        comp = LinearComponent(haar_unitary(rng, n), C, random_hermitian(rng, m))
        A = drift(comp)
        lam = np.linalg.eigvals(A)[rng.integers(m)]
        threshold = matkit.PIVOT_REL * np.abs(lam * np.eye(m) - A).sum(axis=0).max()
        s = lam + 10 ** log_offset * threshold * np.exp(1j * angle)
        if freq_response(comp, [s.imag], sigma=s.real)[0].singular:
            with pytest.raises(SingularAtS):
                eval_transfer(comp, s)


class TestCascadePoles:
    """A sweep through a unit's pole flags it, as eval_transfer does."""

    @pytest.mark.parametrize("seed", range(20))
    def test_sweep_through_a_unit_pole_flags_exactly_that_point(self, seed):
        rng = np.random.default_rng(seed)
        units = [random_component(rng, 2, 1) for _ in range(64)]
        lam = complex(drift(units[rng.integers(64)])[0, 0])
        comp = _chain(units)
        points = freq_response(comp, [lam.imag - 0.5, lam.imag, lam.imag + 0.5],
                               sigma=lam.real)
        assert [p.singular for p in points] == [False, True, False]
        with pytest.raises(SingularAtS):
            eval_transfer(comp, lam)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), units=st.integers(2, 24),
           log_offset=st.floats(-1.5, 1.5), angle=st.floats(0.0, 2 * np.pi))
    @settings(max_examples=100, deadline=None)
    # gaps on T 3e-6 (relative) below the threshold, eval_transfer's rcond 1.4e-7 and 3e-5 above it
    @example(seed=1618, n=2, units=2, log_offset=0.0, angle=0.0)
    @example(seed=31229, n=2, units=2, log_offset=0.0, angle=0.0)
    def test_cascade_sweep_pole_is_a_pole_for_eval_transfer(self, seed, n, units,
                                                            log_offset, angle):
        # probe next to a unit's drift eigenvalue λ, at 10^log_offset times the sweep's threshold
        rng = np.random.default_rng(seed)
        chain = [random_component(rng, n, 1) for _ in range(units)]
        comp = _chain(chain)
        A = drift(comp)
        lam = drift(chain[rng.integers(units)])[0, 0]
        threshold = matkit.PIVOT_REL * np.abs(lam * np.eye(units) - A).sum(axis=0).max()
        s = lam + 10 ** log_offset * threshold * np.exp(1j * angle)
        if freq_response(comp, [s.imag], sigma=s.real)[0].singular:
            with pytest.raises(SingularAtS):
                eval_transfer(comp, s)


def _unit_xi(comp, s):
    """Xi(s) of one component from a dense solve."""
    resolvent = np.linalg.solve(s * np.eye(comp.m_modes) - drift(comp), comp.C.conj().T)
    return comp.S - comp.C @ resolvent @ comp.S


def _network_xi(pc, units, s):
    """Xi(s) of the reduced network from its units' Xi(s), the wiring eliminated at s."""
    X = block_diag(*[_unit_xi(u, s) for u in units])
    i_out, i_in = list(pc.internal_out), list(pc.internal_in)
    e_out, e_in = list(pc.external_out), list(pc.external_in)
    loop = pc.eta - X[np.ix_(i_out, i_in)]
    return (X[np.ix_(e_out, e_in)]
            + X[np.ix_(e_out, i_in)] @ np.linalg.solve(loop, X[np.ix_(i_out, e_in)]))


@st.composite
def _networks(draw):
    """(kind, component, units, partition) over three families of drift.

    "acyclic": 1 to 8 units of 1-3 ports and 1-3 modes, each after the first
    fed by a free output of an earlier one.  "loop": the same with the last
    unit also feeding the first, which closes a loop through every unit on
    the path between them.  "dense": one random component (units and
    partition None).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["acyclic", "loop", "dense"]))
    if kind == "dense":
        return kind, random_component(rng, draw(st.integers(1, 4)), draw(st.integers(1, 8))), \
            None, None
    units = [random_component(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
             for _ in range(draw(st.integers(1, 8)))]
    free_out = [(0, port) for port in range(units[0].n_ports)]
    edges = []
    for j, unit in enumerate(units[1:], start=1):
        src, port = free_out.pop(int(rng.integers(len(free_out))))
        edges.append(Edge(f"u{src}", port, f"u{j}", int(rng.integers(unit.n_ports))))
        free_out += [(j, p) for p in range(unit.n_ports)]
    if kind == "loop":
        edges.append(Edge(f"u{len(units) - 1}", 0, "u0", 0))
    doc = NetDocument(components={f"c{j}": u for j, u in enumerate(units)},
                      instances={f"u{j}": f"c{j}" for j in range(len(units))},
                      edges=tuple(edges), externals=())
    pc = build_partitioned(doc)
    return kind, feedback_reduce(pc), units, pc


class TestBlockSchur:
    @given(_networks())
    @settings(max_examples=80, deadline=None)
    def test_factorization(self, case):
        kind, comp, units, _ = case
        A = drift(comp)
        m = A.shape[0]
        T, Q, order = block_schur(A)
        U = np.zeros((m, m), dtype=complex)
        U[order] = np.eye(m) if Q is None else Q
        u, norm = np.finfo(float).eps, np.abs(A).sum(axis=0).max()
        # fewer than m dropped entries per column, each ≤ m·u·‖A‖₁, plus the
        # Schur form's own error: ≤ 4.4·m·u·‖A‖₁ and ≤ 3.7·m·u from unitary
        # over 3000 random drifts with m ≤ 24
        bound = (m + 8) * m * u
        assert matkit.max_abs(U.conj().T @ U - np.eye(m)) <= bound
        assert np.abs(A - U @ T @ U.conj().T).sum(axis=0).max() <= bound * norm
        assert np.array_equal(T, np.triu(T))
        if kind == "acyclic":
            spectra = np.concatenate([np.linalg.eigvals(drift(unit)) for unit in units])
            dist = np.abs(spectra[:, None] - np.diag(T)[None, :])
            rows, cols = linear_sum_assignment(dist)
            assert dist[rows, cols].max() <= 64 * u * norm
        if kind == "dense":
            assert isinstance(order, slice)
            T_ref, Q_ref = schur(A, output="complex")
            assert np.array_equal(T, T_ref) and np.array_equal(Q, Q_ref)

    @given(_networks(), st.sampled_from([SIGMA_MIN, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_the_unit_oracle(self, case, sigma):
        kind, comp, units, pc = case
        grid = np.linspace(-5, 5, 7)
        for p in freq_response(comp, grid, sigma=sigma):
            s = sigma + 1j * p.omega
            want = _unit_xi(comp, s) if units is None else _network_xi(pc, units, s)
            assert not p.singular
            assert matkit.max_abs(p.evaluation.Xi - want) <= 1e-12

    def test_cascade_of_one_mode_units_needs_only_the_order(self):
        rng = np.random.default_rng(5)
        units = [random_component(rng, 2, 1) for _ in range(16)]
        A = drift(_chain(units))
        T, Q, order = block_schur(A)
        assert Q is None
        # each unit drives every unit downstream: the most downstream comes first
        assert order.tolist() == list(range(15, -1, -1))
        assert np.array_equal(T, np.triu(A[np.ix_(order, order)]))
        assert matkit.max_abs(np.diag(T) - [drift(u)[0, 0] for u in units[::-1]]) <= 1e-14


@st.composite
def _block_graphs(draw):
    """A drift whose graph has known strong components, its modes shuffled.

    Blocks in topological order, each an isolated mode, a 2-cycle or a ring
    of 3-6 modes with random chords.  "path": up to 64 single modes, each
    driving only the next, which is far from transitively closed.
    "mixed": blocks of any size, each perhaps driving the next and any
    later block perhaps driven at random.  a_ij ≠ 0 when mode j drives
    mode i; the diagonal is random.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["path", "mixed"])) == "path":
        sizes, p_next, p_later = [1] * draw(st.integers(0, 64)), 1.0, 0.0
    else:
        sizes = draw(st.lists(st.sampled_from([1, 1, 2, 3, 4, 6]), max_size=16))
        p_next, p_later = draw(st.sampled_from([0.0, 0.5, 1.0])), draw(st.sampled_from([0.0, 0.1]))
    m = sum(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum([0, *sizes])
    drives = (rng.random((m, m)) < p_later) & (block[:, None] < block[None, :])
    for b, size in enumerate(sizes):
        ring = np.arange(starts[b], starts[b + 1])
        if size > 1:
            drives[ring, np.roll(ring, -1)] = True
            drives[np.ix_(ring, ring)] |= rng.random((size, size)) < 0.2
        if b + 1 < len(sizes) and rng.random() < p_next:
            drives[rng.choice(ring), rng.integers(starts[b + 1], starts[b + 2])] = True
    np.fill_diagonal(drives, True)
    perm = rng.permutation(m)
    values = rng.uniform(0.5, 2.0, (m, m)) * np.exp(2j * np.pi * rng.random((m, m)))
    return np.where(drives[np.ix_(perm, perm)].T, values, 0)


class TestBlocks:
    @given(_block_graphs())
    @example(np.zeros((0, 0), dtype=complex))
    @example(np.array([[-0.5 + 1j]]))
    @settings(max_examples=100, deadline=None)
    def test_blocks_are_the_strong_components_in_order(self, A):
        m = len(A)
        drives = A.T != 0
        count, label = connected_components(drives.astype(int), connection="strong") \
            if m else (0, None)
        blocks = _blocks(drives)
        order = block_schur(A)[2]
        if blocks is None:
            assert count <= 1 and order == slice(None)
            return
        assert np.array_equal(order, blocks[0])
        spans = list(zip(blocks[1], blocks[1][1:]))
        assert ({frozenset(order[a:b].tolist()) for a, b in spans}
                == {frozenset(np.flatnonzero(label == c).tolist()) for c in range(count)})
        # a_ij ≠ 0 only when mode i's block comes no later than mode j's
        block_of = np.empty(m, dtype=int)
        for b, (start, stop) in enumerate(spans):
            block_of[order[start:stop]] = b
        i, j = np.nonzero(A)
        assert np.all(block_of[i] <= block_of[j])


class TestUnitaryOnAxis:
    def test_cavity_passes(self):
        report = check_unitary_on_axis(make_cavity(1.0), np.arange(-10, 10.05, 0.1),
                                       tol=1e-8)
        assert report.passed
        assert report.max_residual <= 1e-8

    def test_random_component_passes(self):
        rng = np.random.default_rng(53)
        comp = random_component(rng, 3, 2)
        report = check_unitary_on_axis(comp, np.linspace(-10, 10, 101), tol=1e-8)
        assert report.passed

    def test_corrupted_component_fails(self):
        # non-hermitian Omega breaks axis unitarity
        comp = LinearComponent(np.eye(2), np.eye(2), [[0.0, 2.0], [0.0, 0.0]])
        report = check_unitary_on_axis(comp, np.linspace(-3, 3, 31), tol=1e-8)
        assert not report.passed


class TestCommutingForm:
    def test_cavity_single_term(self):
        cf = commuting_form(make_cavity(2.0, omega=0.7, phi=0.2))
        assert cf.gammas.shape == (1,)
        assert cf.gammas[0] == pytest.approx(2.0, abs=1e-12)
        assert cf.epsilons[0] == pytest.approx(0.7, abs=1e-12)
        assert np.allclose(cf.projectors[0], np.eye(1))

    def test_two_rates_zero_detuning(self):
        comp = LinearComponent(np.eye(2), np.diag([1.0, np.sqrt(2.0)]),
                               np.zeros((2, 2)))
        cf = commuting_form(comp)
        assert np.allclose(sorted(cf.gammas), [1.0, 2.0], atol=1e-12)
        assert np.allclose(cf.epsilons, 0.0, atol=1e-12)
        poles, zeros = poles_zeros_commuting(cf)
        assert np.allclose(sorted(p.real for p in poles), [-1.0, -0.5])
        assert all(abs(p.imag) <= 1e-12 for p in poles)
        # epsilon = 0 makes the DC limit equal -S
        ev = eval_transfer(comp, 1e-12)
        assert matkit.max_abs(ev.Xi + comp.S) <= 1e-8

    def test_noncommuting_raises(self):
        C = np.diag([1.0, 2.0]).astype(complex)
        Omega = np.array([[0.0, 1.0], [1.0, 0.0]])
        comp = LinearComponent(np.eye(2), C, Omega)
        with pytest.raises(NotCommuting):
            commuting_form(comp)

    def test_commuting_but_not_function_raises(self):
        # C†C = I commutes with any Omega, but Omega here is not a function of it
        comp = LinearComponent(np.eye(2), np.eye(2), np.diag([1.0, 2.0]))
        with pytest.raises(NotCommuting):
            commuting_form(comp)

    def test_zero_mode_ambiguity(self):
        comp = LinearComponent(np.eye(2), [[1.0], [0.0]], [[0.5]])
        with pytest.raises(ZeroModeAmbiguity):
            commuting_form(comp)

    def test_reconstruction_matches_transfer(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = n + int(rng.integers(0, 3))
            C = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
            CtC = C.conj().T @ C
            coeffs = rng.uniform(-1, 1, size=3)
            Omega = coeffs[0] * np.eye(m) + coeffs[1] * CtC + coeffs[2] * CtC @ CtC
            comp = LinearComponent(np.eye(n), C, matkit.herm_real(Omega))
            cf = commuting_form(comp)
            poles = np.linalg.eigvals(drift(comp))
            checked = 0
            while checked < 50:
                s = complex(rng.uniform(0.05, 3), rng.uniform(-4, 4))
                assert matkit.max_abs(cf.evaluate(s) - eval_transfer(comp, s).Xi) <= 1e-8
                checked += 1
            checked = 0
            while checked < 10:
                s = complex(rng.uniform(-2.5, -0.1), rng.uniform(-4, 4))
                if np.min(np.abs(poles - s)) < 0.25:
                    continue
                assert matkit.max_abs(cf.evaluate(s) - eval_transfer(comp, s).Xi) <= 1e-8
                checked += 1


class TestPolesZeros:
    def test_cavity(self):
        poles, zeros = poles_zeros_commuting(commuting_form(make_cavity(1.0)))
        assert poles == [(-0.5 + 0j)]
        assert zeros == [(0.5 + 0j)]

    def test_mirror_symmetry(self):
        cf = commuting_form(make_cavity(3.0, omega=1.5))
        poles, zeros = poles_zeros_commuting(cf)
        for p, z in zip(poles, zeros):
            assert z == pytest.approx(-np.conj(p), abs=1e-12)

    def test_zero_rate_term_cancels(self):
        cf = CommutingForm(gammas=np.array([0.0]), epsilons=np.array([1.5]),
                           projectors=(np.eye(1, dtype=complex),),
                           S=np.array([[1j]]))
        poles, zeros = poles_zeros_commuting(cf)
        assert poles[0] == zeros[0] == -1.5j
        assert np.array_equal(cf.evaluate(0.3 + 0.1j), cf.S)


def test_all_poles_left_half_plane():
    rng = np.random.default_rng(61)
    for _ in range(20):
        comp = random_component(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        assert np.all(np.linalg.eigvals(drift(comp)).real <= 1e-10)


def test_sweep_pole_rule_scale_does_not_overflow():
    # the pole threshold takes column 1-norms of sI − A: no entry is squared
    comp = LinearComponent(np.eye(2), np.zeros((2, 2)), [[0.0, 1e200], [1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = freq_response(comp, [0.0, 1.0])
    assert not any(p.singular for p in points)
    assert all(np.array_equal(p.evaluation.Xi, np.eye(2)) for p in points)
