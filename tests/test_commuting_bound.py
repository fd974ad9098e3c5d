"""commuting_form decides from an algebraic bound that covers the whole axis.

The all-pass sum may differ from Xi on the imaginary axis by at most
4‖Γ⁻¹RΓ⁻¹‖₂ + ‖Γ⁻¹CC† − I‖₂ to first order (see ``commuting_form``), so
an accepted form must match ``eval_transfer`` within ``RECON_TOL`` on a
grid dense around every resonance −ε_k, not only at probe points.  The
probe-based decision is kept as the oracle ``reference_commuting_form``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slhnet import LinearComponent, commuting_form, eval_transfer, matkit, transfer
from slhnet.transfer import (RECON_TOL, SIGMA_MIN, NotCommuting, SingularAtS,
                             ZeroModeAmbiguity)

from support import haar_unitary, random_hermitian, reference_commuting_form

# a non-scalar hermitian 2×2 block of spectral norm 1
NON_SCALAR = np.array([[1.0, 1j], [-1j, -1.0]]) / np.sqrt(2)


def spectral_component(rng, gammas, omega_block, extra_modes: int = 0) -> LinearComponent:
    """C = U[diag(√γ), 0]V† and Ω = V(omega_block ⊕ H)V† with random U, V, S, H.

    Ω commutes with C†C; it is a function of C†C iff ``omega_block`` is
    one of diag(γ) (and H lives on the modes C does not couple).
    """
    n = len(gammas)
    m = n + extra_modes
    U, V = haar_unitary(rng, n), haar_unitary(rng, m)
    D = np.zeros((n, m))
    D[:, :n] = np.diag(np.sqrt(gammas))
    Omega = np.zeros((m, m), dtype=complex)
    Omega[:n, :n] = omega_block
    Omega[n:, n:] = random_hermitian(rng, extra_modes)
    return LinearComponent(haar_unitary(rng, n), U @ D @ V.conj().T,
                           matkit.herm_real(V @ Omega @ V.conj().T))


def polynomial_component(rng, n: int, m: int, coeffs, c_scale: float = 1.0,
                         omega_scale: float = 1.0) -> LinearComponent:
    """Gaussian C times ``c_scale`` and Ω = Σ_j coeffs[j] (C†C)^j times ``omega_scale``."""
    C = c_scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
    CtC = C.conj().T @ C
    unit = CtC / np.linalg.norm(CtC, 2)   # keeps the powers of C†C at O(1) before scaling
    Omega = sum(c * np.linalg.matrix_power(unit, j) for j, c in enumerate(coeffs))
    return LinearComponent(haar_unitary(rng, n), C, matkit.herm_real(omega_scale * Omega))


def axis_error(comp: LinearComponent, form) -> float:
    """Worst |form − Xi| over ω = −ε_k + γ_k·t, t dense in [−4, 4] plus ±10, ±100."""
    t = np.concatenate([np.linspace(-4.0, 4.0, 81), [-100.0, -10.0, 10.0, 100.0]])
    worst = 0.0
    for gamma, eps in zip(form.gammas, form.epsilons):
        for omega in -eps + gamma * t:
            s = complex(SIGMA_MIN, omega)
            try:
                Xi = eval_transfer(comp, s).Xi
            except SingularAtS:   # an uncoupled mode of Ω sits on the axis
                continue
            worst = max(worst, matkit.max_abs(form.evaluate(s) - Xi))
    return worst


def _decision(route, comp):
    try:
        return route(comp)
    except (NotCommuting, ZeroModeAmbiguity):
        return None


class TestDecisionTable:
    @pytest.mark.parametrize("case, accepted, reference_error", [
        # degenerate cluster γ = 1e-3 with a 1e-7 non-scalar Ω block
        ("degenerate_small_gamma", False, 1e-4),
        # exact function of C†C with γ_min = 1e-8: eigh rounds that γ by ~3e-8 of itself
        ("exact_function_tiny_gamma", False, RECON_TOL),
        # γ = 1e3 with a 1e-6 non-scalar block: true error ~4e-9
        ("degenerate_large_gamma", True, None),
    ])
    def test_bound_against_probe_decision(self, case, accepted, reference_error):
        rng = np.random.default_rng(2)
        if case == "degenerate_small_gamma":
            comp = spectral_component(rng, [1e-3, 1e-3], 0.3 * np.eye(2) + 1e-7 * NON_SCALAR)
        elif case == "exact_function_tiny_gamma":
            gammas = np.array([1e-8, 1.0, 2.0])
            comp = spectral_component(rng, gammas, np.diag(0.7 + 1.5 * gammas - 0.4 * gammas**2))
        else:
            comp = spectral_component(rng, [1e3, 1e3], 0.3 * np.eye(2) + 1e-6 * NON_SCALAR)
        # the probes accept all three
        reference = reference_commuting_form(comp)
        if accepted:
            form = commuting_form(comp)
            assert axis_error(comp, form) <= RECON_TOL
            for got, want in ((form.gammas, reference.gammas), (form.epsilons, reference.epsilons),
                              (form.S, reference.S)):
                assert np.array_equal(got, want)
            assert all(np.array_equal(a, b) for a, b in zip(form.projectors, reference.projectors))
        else:
            with pytest.raises(NotCommuting, match="may miss Xi on the axis"):
                commuting_form(comp)
            assert axis_error(comp, reference) > reference_error

    def test_merged_cluster_decay_spread_rejected(self):
        # Ω = 0 and two decay rates 1e-3 apart by 5e-10 share one projector:
        # R = 0, and only the cluster's relative spread 5e-7 shows the miss
        comp = spectral_component(np.random.default_rng(5), [1e-3, 1e-3 + 5e-10], np.zeros((2, 2)),
                                  extra_modes=1)
        reference = reference_commuting_form(comp)
        assert len(reference.gammas) == 1
        assert axis_error(comp, reference) > 1e-7
        with pytest.raises(NotCommuting):
            commuting_form(comp)

    def test_decides_without_evaluating_xi_or_the_drift_spectrum(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("commuting_form must not probe Xi or eigensolve the drift")

        monkeypatch.setattr(transfer, "eval_transfer", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        comp = polynomial_component(np.random.default_rng(3), 2, 4, [0.3, -0.5, 0.2])
        assert len(commuting_form(comp).gammas) == 2

    def test_zero_ports_give_the_empty_form(self):
        comp = LinearComponent(np.zeros((0, 0)), np.zeros((0, 2)), np.diag([1.0, -1.0]))
        form = commuting_form(comp)
        assert form.gammas.shape == form.epsilons.shape == (0,)
        assert form.projectors == () and form.S.shape == (0, 0)

    def test_zero_modes_are_ambiguous(self):
        with pytest.raises(ZeroModeAmbiguity):
            commuting_form(LinearComponent(np.eye(2), np.zeros((2, 0)), np.zeros((0, 0))))


seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 4)
extra = st.integers(0, 2)


def _assert_accepted_form_matches_axis(comp):
    form = _decision(commuting_form, comp)
    if form is not None:
        assert axis_error(comp, form) <= RECON_TOL


@settings(max_examples=60, deadline=None)
@given(seeds, sizes, extra, st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
def test_polynomial_omega(seed, n, k, coeffs):
    rng = np.random.default_rng(seed)
    _assert_accepted_form_matches_axis(polynomial_component(rng, n, n + k, coeffs))


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(2, 4), extra, st.floats(-3.0, 3.0), st.floats(-11.0, -6.0))
def test_degenerate_cluster_with_non_scalar_block(seed, n, k, log_gamma, log_delta):
    rng = np.random.default_rng(seed)
    gammas = 10.0 ** rng.uniform(-3.0, 3.0, n)
    gammas[:2] = 10.0 ** log_gamma
    block = np.diag(rng.uniform(-3.0, 3.0, n)).astype(complex)
    block[:2, :2] = block[0, 0] * np.eye(2) + 10.0 ** log_delta * NON_SCALAR
    _assert_accepted_form_matches_axis(spectral_component(rng, gammas, block, k))


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(2, 4), extra, st.floats(-3.0, 2.0), st.floats(-12.0, -9.0),
       st.sampled_from(["equal", "split", "zero"]))
def test_near_degenerate_merged_clusters(seed, n, k, log_gamma, log_gap, detuning):
    rng = np.random.default_rng(seed)
    gammas = 10.0 ** rng.uniform(-3.0, 2.0, n)
    gammas[0] = 10.0 ** log_gamma
    gammas[1] = gammas[0] + 10.0 ** log_gap * max(1.0, gammas.max())   # inside the merge gap
    eps = rng.uniform(-3.0, 3.0, n)
    eps[1] = {"equal": eps[0], "split": eps[0] + 10.0 ** rng.uniform(-12, -6), "zero": 0.0}[detuning]
    if detuning == "zero":
        eps[0] = 0.0
    _assert_accepted_form_matches_axis(spectral_component(rng, gammas, np.diag(eps), k))


@settings(max_examples=60, deadline=None)
@given(seeds, sizes, extra, st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       st.floats(-2.0, 2.0), st.floats(-4.0, 4.0))
def test_scaled_polynomial_omega(seed, n, k, coeffs, log_c, log_omega):
    rng = np.random.default_rng(seed)
    comp = polynomial_component(rng, n, n + k, coeffs, 10.0 ** log_c, 10.0 ** log_omega)
    _assert_accepted_form_matches_axis(comp)


@settings(max_examples=100, deadline=None)
@given(seeds, sizes, extra, st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
def test_bound_accepts_where_probes_accept_at_unit_scale(seed, n, k, coeffs):
    # polynomial Ω at O(1) scale and κ(CC†) ≤ 1e4: the bound gives up no accepted input
    comp = polynomial_component(np.random.default_rng(seed), n, n + k, coeffs)
    assume(np.linalg.cond(comp.C @ comp.C.conj().T) <= 1e4)
    reference = _decision(reference_commuting_form, comp)
    if reference is not None:
        form = commuting_form(comp)
        assert np.array_equal(form.gammas, reference.gammas)
        assert np.array_equal(form.epsilons, reference.epsilons)
