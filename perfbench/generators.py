"""Seeded input generators for the benchmark.

Everything here is plain numpy and never imports slhnet, so the inputs do
not depend on the code under test.  Every constructor does a fixed amount
of work: no rejection sampling, no loop that waits for a lucky draw.
Conditioning is bounded by construction instead (contractive loop blocks,
Cayley-safe spectra, mode damping tied to the level spacing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class Comp:
    """An (S, C, Omega) triple as plain complex arrays."""

    S: np.ndarray
    C: np.ndarray
    Omega: np.ndarray

    @property
    def n(self) -> int:
        return self.S.shape[0]

    @property
    def m(self) -> int:
        return self.Omega.shape[0]


@dataclass(eq=False)
class Network:
    """A QNET network: component types, instances, edges and named inputs."""

    components: dict[str, Comp] = field(default_factory=dict)
    instances: list[tuple[str, str]] = field(default_factory=list)
    edges: list[tuple[str, int, str, int]] = field(default_factory=list)
    externals: list[tuple[str, int, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# matrices

def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def contractive_unitary(rng: np.random.Generator, k: int, alpha: float) -> np.ndarray:
    """Unitary 2k×2k matrix whose two diagonal k×k blocks have norm ``alpha``.

    diag(U1, U2)·[[αI, βI], [βI, −αI]]·diag(V1, V2) with β = √(1 − α²).
    A feedback loop closed through either diagonal block has
    cond(I − X·block) ≤ (1 + α)/(1 − α) for every contraction X.
    """
    beta = np.sqrt(1.0 - alpha * alpha)
    eye = np.eye(k)
    mix = np.block([[alpha * eye, beta * eye], [beta * eye, -alpha * eye]])
    left = np.zeros((2 * k, 2 * k), dtype=complex)
    right = np.zeros((2 * k, 2 * k), dtype=complex)
    left[:k, :k], left[k:, k:] = haar_unitary(rng, k), haar_unitary(rng, k)
    right[:k, :k], right[k:, k:] = haar_unitary(rng, k), haar_unitary(rng, k)
    return left @ mix @ right


def dense_component(rng: np.random.Generator, n: int, m: int) -> Comp:
    """Random component whose m modes are all damped, with roughly normal drift.

    Omega has one eigenvalue per unit interval of [−m/2, m/2] (jittered),
    and the coupling is weak against that spacing: each mode's damping is
    about 0.1 on average, and bounded away from zero because every mode
    couples to all n ports.
    """
    levels = np.linspace(-m / 2, m / 2, m) + rng.uniform(-0.25, 0.25, m)
    u = haar_unitary(rng, m)
    omega = (u * levels) @ u.conj().T
    omega = (omega + omega.conj().T) / 2
    scale = np.sqrt(0.2 / (2 * n))
    C = scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    return Comp(haar_unitary(rng, n), C, omega)


def cayley_safe_component(rng: np.random.Generator, n: int, m: int) -> Comp:
    """Dense component whose S keeps −1 out of its spectrum (phases in ±2.5 rad)."""
    comp = dense_component(rng, n, m)
    u = haar_unitary(rng, n)
    S = (u * np.exp(-1j * rng.uniform(-2.5, 2.5, n))) @ u.conj().T
    return Comp(S, comp.C, comp.Omega)


def commuting_component(rng: np.random.Generator, n: int, m: int) -> Comp:
    """Component with Omega = a·C†C + b·(C†C)², a function of C†C."""
    C = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
    ctc = C.conj().T @ C
    a, b = rng.uniform(-1.0, 1.0), rng.uniform(-0.1, 0.1)
    omega = a * ctc + b * ctc @ ctc
    return Comp(haar_unitary(rng, n), C, (omega + omega.conj().T) / 2)


# ---------------------------------------------------------------------------
# network units

def cavity(rng: np.random.Generator, detuning: float) -> Comp:
    """One-port single-mode cavity with decay in [0.5, 2] and random phases."""
    gamma = rng.uniform(0.5, 2.0)
    S = np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])
    C = np.array([[np.sqrt(gamma) * np.exp(1j * rng.uniform(0, 2 * np.pi))]])
    return Comp(S, C, np.array([[rng.uniform(-detuning, detuning)]], dtype=complex))


def splitter(rng: np.random.Generator) -> Comp:
    """Two-port mixing splitter with |T22| = α in [0.2, 0.8] and random phases."""
    alpha = rng.uniform(0.2, 0.8)
    beta = np.sqrt(1 - alpha * alpha)
    ph_out = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    ph_in = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    T = ph_out[:, None] * np.array([[alpha, beta], [beta, -alpha]]) * ph_in[None, :]
    return Comp(T, np.zeros((2, 0), dtype=complex), np.zeros((0, 0), dtype=complex))


def two_port_unit(rng: np.random.Generator, detuning: float) -> Comp:
    """Two-port single-mode unit: Haar S, total decay in [0.5, 2]."""
    gamma = rng.uniform(0.5, 2.0)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c *= np.sqrt(gamma) / np.linalg.norm(c)
    omega = np.array([[rng.uniform(-detuning, detuning)]], dtype=complex)
    return Comp(haar_unitary(rng, 2), c.reshape(2, 1), omega)


def lossless_unit(rng: np.random.Generator, frequency: float) -> Comp:
    """Two-port mode with no coupling: a pole exactly at s = −i·frequency."""
    return Comp(haar_unitary(rng, 2), np.zeros((2, 1), dtype=complex),
                np.array([[frequency]], dtype=complex))


N_TYPES = 8          # distinct component types per network file
DETUNING = 10.0      # unit detunings are drawn from [−DETUNING, DETUNING]


def cascade(rng: np.random.Generator, n_units: int,
            lossless: tuple[int, float] | None = None) -> tuple[Network, list[Comp]]:
    """Two-port cascade: unit j's outputs feed unit j+1's inputs port by port.

    Units draw from N_TYPES two-port types.  ``lossless = (position,
    frequency)`` puts an uncoupled mode at that position, whose pole lies
    on the imaginary axis.  Returns the network and the units in chain
    order (upstream first).
    """
    net = Network()
    types = [two_port_unit(rng, DETUNING) for _ in range(N_TYPES)]
    for t, comp in enumerate(types):
        net.components[f"unit{t}"] = comp
    choice = rng.integers(0, N_TYPES, n_units)
    units = [types[t] for t in choice]
    names = [f"unit{t}" for t in choice]
    if lossless is not None:
        pos, freq = lossless
        net.components["dark"] = lossless_unit(rng, freq)
        units[pos], names[pos] = net.components["dark"], "dark"
    for j, name in enumerate(names):
        net.instances.append((f"u{j}", name))
        if j:
            for p in (0, 1):
                net.edges.append((f"u{j - 1}", p, f"u{j}", p))
    net.externals = [("u0", 0, "a"), ("u0", 1, "b")]
    return net, units


def chain(rng: np.random.Generator, n_units: int,
          loop_share: float = 0.25) -> tuple[Network, list[tuple]]:
    """One-port chain of cavities and splitter+cavity loops.

    ``round(loop_share · n_units)`` units, at seeded positions, are loops:
    the chain enters the splitter's port 0, splitter port 1 drives a cavity
    whose output returns to splitter port 1.  Units are ("cav", comp) or
    ("loop", splitter, comp), upstream first.
    """
    net = Network()
    cavs = [cavity(rng, DETUNING) for _ in range(N_TYPES)]
    bss = [splitter(rng) for _ in range(N_TYPES // 2)]
    for t, comp in enumerate(cavs):
        net.components[f"cav{t}"] = comp
    for t, comp in enumerate(bss):
        net.components[f"bs{t}"] = comp
    is_loop = np.zeros(n_units, dtype=bool)
    is_loop[rng.choice(n_units, int(round(loop_share * n_units)), replace=False)] = True
    cav_choice = rng.integers(0, len(cavs), n_units)
    bs_choice = rng.integers(0, len(bss), n_units)
    units: list[tuple] = []
    prev_out = None
    for j in range(n_units):
        cav_name = f"cav{cav_choice[j]}"
        if is_loop[j]:
            bs_name = f"bs{bs_choice[j]}"
            net.instances += [(f"b{j}", bs_name), (f"c{j}", cav_name)]
            net.edges += [(f"b{j}", 1, f"c{j}", 0), (f"c{j}", 0, f"b{j}", 1)]
            entry, exit_ = (f"b{j}", 0), (f"b{j}", 0)
            units.append(("loop", net.components[bs_name], net.components[cav_name]))
        else:
            net.instances.append((f"c{j}", cav_name))
            entry, exit_ = (f"c{j}", 0), (f"c{j}", 0)
            units.append(("cav", net.components[cav_name]))
        if prev_out is None:
            net.externals.append((entry[0], entry[1], "drive"))
        else:
            net.edges.append((prev_out[0], prev_out[1], entry[0], entry[1]))
        prev_out = exit_
    return net, units


# ---------------------------------------------------------------------------
# QNET text

def _num(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    if im == 0.0:
        return repr(re)
    return f"{re!r}{'+' if im > 0 else '-'}{abs(im)!r}i"


def _matrix(a: np.ndarray) -> str:
    if a.size == 0:
        return "[]"
    return "[" + ",".join("[" + ",".join(_num(z) for z in row) + "]" for row in a) + "]"


def component_block(name: str, comp: Comp) -> str:
    return (f"component {name} {{\n  inputs = {comp.n};\n  modes = {comp.m};\n"
            f"  S = {_matrix(comp.S)};\n  C = {_matrix(comp.C)};\n"
            f"  Omega = {_matrix(comp.Omega)};\n}}\n")


def network_text(net: Network) -> str:
    out = [component_block(name, comp) for name, comp in net.components.items()]
    out.append("network {\n")
    out += [f"  use {inst} : {comp};\n" for inst, comp in net.instances]
    out += [f"  connect {a}.out[{p}] -> {b}.in[{q}];\n" for a, p, b, q in net.edges]
    out += [f"  external {inst}.in[{p}] as {alias};\n" for inst, p, alias in net.externals]
    out.append("}\n")
    return "".join(out)
