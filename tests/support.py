"""Random model generators and oracles shared across the test modules."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from slhnet import (BeamSplitter, CommutingForm, LinearComponent, PartitionedComponent,
                    concatenate, drift, eval_transfer, feedback_reduce, matkit,
                    series_product)
from slhnet.netfile import Edge, ExternalPort, NetDocument, ParseError
from slhnet.network import AlgebraicLoop, DimensionMismatch, OutsideDomain
from slhnet.transfer import RECON_TOL, NotCommuting, ResidualReport, spectral_clusters


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fixing."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (w + w.conj().T) / 2


# Draws the resampling generators make before giving up.  The rarest size
# the tests use, (n, m) = (1, 8), passes about one draw in 60, so it
# fails about once in 10⁷ calls.
MAX_DRAWS = 1000


def random_component(rng: np.random.Generator, n: int, m: int,
                     min_damping: float = 0.1) -> LinearComponent:
    """Valid random component: Haar S, Gaussian C, hermitian Omega.

    Resamples until every mode decays at rate >= ``min_damping``.  Nearly
    undamped modes put transfer-function poles within ~gamma of the
    imaginary axis, where the finite 1e-10 offset realizing 0+ costs
    ~8*sigma/gamma in axis-unitarity residual; bounding the damping keeps
    the ensemble generic while staying far from that degeneracy.  Raises
    ValueError after MAX_DRAWS draws, as for modes far outnumbering ports.
    """
    for _ in range(MAX_DRAWS):
        C = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
        comp = LinearComponent(haar_unitary(rng, n), C, random_hermitian(rng, m))
        if m == 0 or np.min(-np.linalg.eigvals(drift(comp)).real) >= min_damping:
            return comp
    raise ValueError(f"no random component with (n, m) = ({n}, {m}) damps every mode "
                     f"at rate >= {min_damping} in {MAX_DRAWS} draws")


def random_splitter(rng: np.random.Generator, n1: int, n2: int) -> BeamSplitter:
    return BeamSplitter(haar_unitary(rng, n1 + n2), n1, n2)


def random_partitioned(rng: np.random.Generator, n: int, m: int,
                       k: int) -> PartitionedComponent:
    """Random valid component with k internal channels and a random eta.

    Regenerates until (eta - S_ii) is comfortably nonsingular so that
    reduction is well-posed for oracle comparisons; raises ValueError
    after MAX_DRAWS draws.
    """
    for _ in range(MAX_DRAWS):
        comp = random_component(rng, n, m)
        internal_out = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        internal_in = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        perm = rng.permutation(k)
        eta = np.zeros((k, k))
        eta[np.arange(k), perm] = 1.0
        pc = PartitionedComponent(comp, internal_out, internal_in, eta)
        S_ii = comp.S[np.ix_(list(internal_out), list(internal_in))]
        if k == 0 or np.linalg.cond(eta - S_ii) < 1e6:
            return pc
    raise ValueError(f"no random partition with (n, m, k) = ({n}, {m}, {k}) has a "
                     f"well-conditioned loop in {MAX_DRAWS} draws")


def reference_feedback_reduce(pc: PartitionedComponent) -> LinearComponent:
    """Reference reduction: an SVD condition gate in front of scipy's LU.

    Rejects the loop when 1/cond₂(η − S_ii) from ``np.linalg.cond`` (a full
    SVD) is ≤ 1e-12 or when an LU pivot falls below ``matkit.PIVOT_REL``
    times the largest column norm; solves with ``lu_factor``/``lu_solve``
    and forms Ω as Im{C_i† S_ii X_C} + Im{C_e† S_ei X_C}.
    ``feedback_reduce`` must make the same decisions and give the same S
    and C bit for bit.
    """
    comp = pc.comp
    S, C = comp.S, comp.C
    io, ii = list(pc.internal_out), list(pc.internal_in)
    eo, ei = list(pc.external_out), list(pc.external_in)
    S_ii = S[np.ix_(io, ii)]
    S_ie = S[np.ix_(io, ei)]
    S_ei = S[np.ix_(eo, ii)]
    S_ee = S[np.ix_(eo, ei)]
    C_i = C[io, :]
    C_e = C[eo, :]
    loop = pc.eta - S_ii
    rhs = np.concatenate([S_ie, C_i], axis=1)
    X = np.zeros_like(rhs)
    if loop.size:
        cond = np.linalg.cond(loop)
        if not np.isfinite(cond) or 1.0 / cond <= 1e-12:
            raise AlgebraicLoop(f"(eta - S_ii) is singular (condition estimate {cond:.3e})")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(loop)
        col_scale = float(np.max(np.linalg.norm(loop, axis=0)))
        if np.min(np.abs(np.diag(lu))) <= matkit.PIVOT_REL * col_scale:
            raise AlgebraicLoop("(eta - S_ii) is singular")
        X = lu_solve((lu, piv), rhs)
    k = len(ei)
    loop_S = X[:, :k]
    loop_C = X[:, k:]
    S_red = S_ee + S_ei @ loop_S
    C_red = C_e + S_ei @ loop_C
    Omega_red = (comp.Omega
                 + matkit.herm_imag(C_i.conj().T @ S_ii @ loop_C)
                 + matkit.herm_imag(C_e.conj().T @ S_ei @ loop_C))
    labels = tuple(comp.port_labels[i] for i in ei)
    return LinearComponent(S_red, C_red, Omega_red, labels, comp.mode_labels)


def random_rhp_points(rng: np.random.Generator, count: int) -> list[complex]:
    """Laplace points with positive real part."""
    return [complex(rng.uniform(0.05, 3.0), rng.uniform(-4.0, 4.0))
            for _ in range(count)]


def sequential_star(a: LinearComponent, b: LinearComponent,
                    first_edge: int) -> LinearComponent:
    """Star-product oracle: eliminate the two crossed edges one at a time.

    Single-channel blocks only: a's last port and b's first port are the
    loop ports.  ``first_edge`` selects which crossing goes first (1: a's
    output into b, 2: b's output into a); the surviving edge's indices are
    remapped into the once-reduced component before the second elimination.
    """
    comp = concatenate(a, b, prefixes=("a", "b"))
    na = a.n_ports
    a_out, b_in = na - 1, na
    b_out, a_in = na, na - 1
    if first_edge == 1:
        out1, in1, out2, in2 = a_out, b_in, b_out, a_in
    else:
        out1, in1, out2, in2 = b_out, a_in, a_out, b_in
    pc = PartitionedComponent(comp, internal_out=(out1,), internal_in=(in1,),
                              eta=np.eye(1))
    red = feedback_reduce(pc)
    out_map = [i for i in range(comp.n_ports) if i != out1]
    in_map = [i for i in range(comp.n_ports) if i != in1]
    pc2 = PartitionedComponent(red, internal_out=(out_map.index(out2),),
                               internal_in=(in_map.index(in2),), eta=np.eye(1))
    return feedback_reduce(pc2)


def sequential_reduce(pc: PartitionedComponent, order) -> LinearComponent:
    """Reduction oracle: eliminate pc's internal edges one at a time.

    Edge s joins internal output ``internal_out[s]`` to the internal input
    η pairs it with; ``order`` lists the edges in elimination order.  Each
    step reduces one edge with η = [[1]] and the default (ascending)
    external orders, so the result has the port layout of
    ``feedback_reduce(pc)`` when pc uses the default external orders.
    """
    perm = pc.eta.real.argmax(axis=1)
    n = pc.comp.n_ports
    outs, ins = list(range(n)), list(range(n))   # current port index -> original port
    comp = pc.comp
    for s in order:
        out, into = pc.internal_out[s], pc.internal_in[perm[s]]
        comp = feedback_reduce(PartitionedComponent(
            comp, internal_out=(outs.index(out),), internal_in=(ins.index(into),),
            eta=np.eye(1)))
        outs = [p for p in outs if p != out]
        ins = [p for p in ins if p != into]
    return comp


# ---------------------------------------------------------------------------
# Closed forms of the standard wirings: oracles for the elimination kernel

def closed_form_series(g2: LinearComponent, g1: LinearComponent,
                       prefixes: tuple[str, str] | None = None) -> LinearComponent:
    """Series product from its closed form.

    S = S₂S₁, C = [S₂C₁, C₂], Ω = Ω₁ ⊕ Ω₂ + Im{C₂†S₂C₁} placed below the
    diagonal; labels as ``series_product``.
    """
    if g1.n_ports != g2.n_ports:
        raise DimensionMismatch(
            f"series product needs equal port counts, got {g1.n_ports} and {g2.n_ports}")
    if prefixes is None and set(g1.mode_labels) & set(g2.mode_labels):
        prefixes = ("g1", "g2")
    if prefixes is not None:
        g1 = g1.relabeled(prefixes[0])
        g2 = g2.relabeled(prefixes[1])
    m1, m2 = g1.m_modes, g2.m_modes
    S = g2.S @ g1.S
    C = np.concatenate([g2.S @ g1.C, g2.C], axis=1)
    coupling = np.zeros((m1 + m2, m1 + m2), dtype=complex)
    coupling[m1:, :m1] = g2.C.conj().T @ g2.S @ g1.C   # from Im{L₂†S₂L₁}
    Omega = np.zeros((m1 + m2, m1 + m2), dtype=complex)
    Omega[:m1, :m1] = g1.Omega
    Omega[m1:, m1:] = g2.Omega
    Omega = Omega + matkit.herm_imag(coupling)
    return LinearComponent(S, C, Omega, g2.port_labels,
                           g1.mode_labels + g2.mode_labels)


def splitter_blocks(T: BeamSplitter) -> tuple[np.ndarray, ...]:
    """T₁₁, T₁₂, T₂₁, T₂₂ of a splitter: its external block first, then the in-loop one."""
    n1 = T.n1
    return T.T[:n1, :n1], T.T[:n1, n1:], T.T[n1:, :n1], T.T[n1:, n1:]


def closed_form_loop(T: BeamSplitter, plant: LinearComponent) -> LinearComponent:
    """Beam-splitter loop from its closed form, gated by matkit.solve.

        S = T₁₁ + T₁₂(1 − S₀T₂₂)⁻¹S₀T₂₁
        C = T₁₂(1 − S₀T₂₂)⁻¹C₀
        Ω = Ω₀ + Im{C₀†(1 − S₀T₂₂)⁻¹C₀}
    """
    if plant.n_ports != T.n2:
        raise DimensionMismatch(
            f"plant has {plant.n_ports} ports, splitter loop block expects {T.n2}")
    S0, C0 = plant.S, plant.C
    T11, T12, T21, T22 = splitter_blocks(T)
    loop = np.eye(T.n2) - S0 @ T22
    try:
        X = matkit.solve(loop, np.concatenate([S0 @ T21, C0], axis=1))
    except matkit.SingularMatrix as exc:
        raise AlgebraicLoop("(1 - S0 T22) is singular") from exc
    loop_S = X[:, :T.n1]
    loop_C = X[:, T.n1:]
    S = T11 + T12 @ loop_S
    C = T12 @ loop_C
    Omega = plant.Omega + matkit.herm_imag(C0.conj().T @ loop_C)
    return LinearComponent(S, C, Omega, mode_labels=plant.mode_labels)


def closed_form_mobius(T: BeamSplitter, X) -> np.ndarray:
    """T₁₁ + T₁₂(I − X·T₂₂)⁻¹X·T₂₁, gated by matkit.solve."""
    X = matkit.as_matrix(X, rows=T.n2, cols=T.n2, name="X")
    T11, T12, T21, T22 = splitter_blocks(T)
    try:
        inner = matkit.solve(np.eye(T.n2) - X @ T22, X @ T21)
    except matkit.SingularMatrix as exc:
        raise OutsideDomain("(I - X T22) is singular") from exc
    return T11 + T12 @ inner


def reference_star(a: LinearComponent, b: LinearComponent, channels: int) -> LinearComponent:
    """Star product as ``feedback_reduce`` of an explicit ``concatenate`` partition.

    a's last ``channels`` outputs feed b's first inputs and back.
    """
    k = int(channels)
    if k < 0 or k > a.n_ports or k > b.n_ports:
        raise DimensionMismatch(
            f"cannot cross {k} channels between {a.n_ports}- and {b.n_ports}-port components")
    comp = concatenate(a, b, prefixes=("a", "b"))
    na = a.n_ports
    a_loop = tuple(range(na - k, na))
    b_loop = tuple(range(na, na + k))
    eta = np.roll(np.eye(2 * k), k, axis=1)   # a's loop outputs feed b's inputs and back
    pc = PartitionedComponent(comp, internal_out=a_loop + b_loop,
                              internal_in=a_loop + b_loop, eta=eta)
    return feedback_reduce(pc)


# ---------------------------------------------------------------------------
# Second routes to library quantities: cascade factorization, path series,
# spectral Cayley transform and state-space realization

def cascade_transfer_check(g2: LinearComponent, g1: LinearComponent,
                           s_points, tol: float = 1e-10) -> ResidualReport:
    """Verify that the series transfer function factors as Xi₂·Xi₁ pointwise."""
    combined = series_product(g2, g1)
    s_points = tuple(complex(s) for s in s_points)
    residuals = []
    for s in s_points:
        lhs = eval_transfer(combined, s).Xi
        rhs = eval_transfer(g2, s).Xi @ eval_transfer(g1, s).Xi
        residuals.append(matkit.max_abs(lhs - rhs))
    return ResidualReport(s_points, tuple(residuals), tol)


def _blocks(pc: PartitionedComponent) -> tuple[np.ndarray, ...]:
    """S_ii, S_ie, S_ei and S_ee: the internal/external blocks of pc's S."""
    io, ii = list(pc.internal_out), list(pc.internal_in)
    eo, ei = list(pc.external_out), list(pc.external_in)
    S = pc.comp.S
    return S[np.ix_(io, ii)], S[np.ix_(io, ei)], S[np.ix_(eo, ii)], S[np.ix_(eo, ei)]


@dataclass(frozen=True)
class PathExpansionReport:
    """Truncated loop-path series against the closed-form reduction.

    ``residuals[j]`` is the max-norm gap between the order-j partial sum
    of S_ee + Σ_n S_ei ξ (S_ii ξ)ⁿ S_ie (ξ = η⁻¹) and the closed form.
    ``decay_rate`` is the geometric mean of successive residual ratios,
    None when fewer than two nonzero residuals exist.
    """

    order: int
    spectral_radius: float
    convergent: bool
    residuals: tuple[float, ...]
    decay_rate: float | None


def path_expansion_check(pc: PartitionedComponent, order: int) -> PathExpansionReport:
    """Compare the geometric path series with the closed-form S_red.

    The series converges iff the spectral radius of S_ii·ξ is below one;
    a report with ``convergent=False`` is returned otherwise (the closed
    form may still exist there).
    """
    S_ii, S_ie, S_ei, S_ee = _blocks(pc)
    inv = np.argsort(pc._perm)   # ξ = η⁻¹ gathers rows: (ξM)[r] = M[inv[r]]
    hop = S_ii[inv]              # ξ·S_ii, similar to S_ii·ξ
    if hop.size:
        radius = float(np.max(np.abs(np.linalg.eigvals(hop))))
    else:
        radius = 0.0
    convergent = radius < 1.0 - 1e-12
    closed = feedback_reduce(pc).S
    partial = S_ee.astype(complex).copy()
    term = S_ie[inv]
    residuals = []
    for _ in range(int(order) + 1):
        partial = partial + S_ei @ term
        residuals.append(matkit.max_abs(partial - closed))
        term = hop @ term
    ratios = [residuals[j + 1] / residuals[j]
              for j in range(len(residuals) - 1) if residuals[j] > 0 and residuals[j + 1] > 0]
    decay = float(np.exp(np.mean(np.log(ratios)))) if ratios else None
    return PathExpansionReport(order=int(order), spectral_radius=radius,
                               convergent=convergent,
                               residuals=tuple(residuals), decay_rate=decay)


def cayley_from_generator(E: np.ndarray) -> np.ndarray:
    """S = e^{−iJ} with J = 2·arctan(E/2), via the spectral calculus of E.

    Mathematically identical to the Cayley transform used by
    :func:`strat_to_ito`; kept as an independent route for cross-checks.
    """
    E = np.asarray(E, dtype=complex)
    values, projectors = matkit.eig_hermitian(E)
    n = E.shape[0]
    S = np.zeros((n, n), dtype=complex)
    for lam, proj in zip(values, projectors):
        S += np.exp(-2j * np.arctan(lam / 2)) * proj
    return S


@dataclass(frozen=True)
class StateSpace:
    """Realization quadruple of the transfer function D + C(sI−A)⁻¹B."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


def realize(comp: LinearComponent) -> StateSpace:
    """State-space realization [A | −C†S ; C | S] of the transfer function."""
    A = drift(comp)
    B = -comp.C.conj().T @ comp.S
    return StateSpace(A=A, B=B, C=comp.C.copy(), D=comp.S.copy())


# ---------------------------------------------------------------------------
# The all-pass closed form checked by probing Xi: an oracle for commuting_form

def _selfcheck_points(comp: LinearComponent) -> list[complex]:
    # fixed probe grid: right half-plane plus continuation points kept away
    # from the drift spectrum
    points = [0.37 + 0.93j, 1.2 - 0.5j, 2.0 + 3.0j, 0.05 + 0.01j, 1.0 + 0.0j]
    candidates = [-0.31 + 0.77j, -0.8 - 1.3j, -1.7 + 0.39j, -0.12 - 2.1j]
    eigs = np.linalg.eigvals(drift(comp))
    for s in candidates:
        if eigs.size == 0 or np.min(np.abs(eigs - s)) > 0.15:
            points.append(s)
    return points


def reference_commuting_form(comp: LinearComponent) -> CommutingForm:
    """``commuting_form`` decided by probing: the all-pass sum against
    ``eval_transfer`` at 5 right half-plane points and up to 4 continuation
    points at least 0.15 from the drift spectrum.

    Extracts the same {γ_k, ε_k, E_k}; the probes can miss resonances,
    so it may accept forms that miss Xi on the axis by more than
    RECON_TOL.
    """
    gammas, epsilons, projectors, _ = spectral_clusters(comp)
    form = CommutingForm(gammas=gammas, epsilons=epsilons,
                         projectors=tuple(projectors), S=comp.S.copy())
    for s in _selfcheck_points(comp):
        residual = matkit.max_abs(form.evaluate(s) - eval_transfer(comp, s).Xi)
        if residual > RECON_TOL:
            raise NotCommuting(
                "Omega commutes with C†C but is not a function of it "
                f"(reconstruction residual {residual:.3e} at s = {s})")
    return form


# ---------------------------------------------------------------------------
# QNET networks and the reference assembly/serialization paths

def random_network(rng: np.random.Generator, max_units: int = 8,
                   units: int | None = None) -> NetDocument:
    """Random valid network document built as a chain of units.

    The chain has ``units`` units, or a random number up to ``max_units``.

    Unit kinds: a 1-port cavity, a 2-port component with modes (port 1
    left open), a zero-mode splitter (port 1 left open) and a splitter
    loop (splitter port 1 wired through a cavity and back).  Instances
    are declared in shuffled order, unrelated to the wiring, and a random
    subset of the open inputs is declared external in shuffled order.
    """
    components = {
        "cav": random_component(rng, 1, 1),
        "pair": random_component(rng, 2, int(rng.integers(1, 3))),
        "bs": LinearComponent(haar_unitary(rng, 2), np.zeros((2, 0)), np.zeros((0, 0))),
    }
    instances: list[tuple[str, str]] = []
    edges: list[Edge] = []
    open_inputs: list[tuple[str, int]] = []
    prev_out = None
    for j in range(int(rng.integers(0, max_units + 1)) if units is None else units):
        kind = ("cav", "pair", "bs", "loop")[int(rng.integers(0, 4))]
        if kind == "loop":
            instances += [(f"b{j}", "bs"), (f"c{j}", "cav")]
            edges += [Edge(f"b{j}", 1, f"c{j}", 0), Edge(f"c{j}", 0, f"b{j}", 1)]
            head = f"b{j}"
        else:
            head = f"u{j}"
            instances.append((head, kind))
            if kind != "cav":
                open_inputs.append((head, 1))
        if prev_out is None:
            open_inputs.append((head, 0))
        else:
            edges.append(Edge(prev_out, 0, head, 0))
        prev_out = head
    instances = [instances[i] for i in rng.permutation(len(instances))]
    chosen = [open_inputs[i] for i in rng.permutation(len(open_inputs))]
    chosen = chosen[:int(rng.integers(0, len(chosen) + 1))]
    externals = tuple(ExternalPort(inst, port, f"x{i}")
                      for i, (inst, port) in enumerate(chosen))
    return NetDocument(components=components, instances=dict(instances),
                       edges=tuple(edges), externals=externals)


def fold_partitioned(doc: NetDocument) -> PartitionedComponent:
    """Reference assembly: fold ``concatenate`` over the instances pairwise.

    Every step relabels, copies and re-validates the growing component,
    so this costs ~N³ for N instances; ``build_partitioned`` must return
    exactly the same partition.
    """
    combined: LinearComponent | None = None
    offsets: dict[str, int] = {}
    total = 0
    for inst, comp_name in doc.instances.items():
        part = doc.components[comp_name].relabeled(inst)
        offsets[inst] = total
        total += part.n_ports
        combined = part if combined is None else concatenate(combined, part)
    if combined is None:
        combined = LinearComponent(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)))

    internal_out = sorted(offsets[e.src_instance] + e.src_port for e in doc.edges)
    internal_in = sorted(offsets[e.dst_instance] + e.dst_port for e in doc.edges)
    out_pos = {g: j for j, g in enumerate(internal_out)}
    in_pos = {g: j for j, g in enumerate(internal_in)}
    eta = np.zeros((len(internal_out), len(internal_in)))
    for e in doc.edges:
        eta[out_pos[offsets[e.src_instance] + e.src_port],
            in_pos[offsets[e.dst_instance] + e.dst_port]] = 1.0

    labels = list(combined.port_labels)
    declared = []
    for ext in doc.externals:
        g = offsets[ext.instance] + ext.port
        labels[g] = ext.alias
        declared.append(g)
    combined = LinearComponent(combined.S, combined.C, combined.Omega,
                               tuple(labels), combined.mode_labels)

    external_in = tuple(declared) + tuple(
        g for g in range(total) if g not in set(internal_in) and g not in set(declared))
    external_out = tuple(g for g in range(total) if g not in set(internal_out))
    return PartitionedComponent(combined, internal_out=tuple(internal_out),
                                internal_in=tuple(internal_in), eta=eta,
                                external_out=external_out, external_in=external_in)


def format_float(x: float) -> str:
    """Reference canonical number: 17 significant digits (lossless for binary64)."""
    return f"{float(x):.17g}"


def entrywise_format_cnum(z: complex) -> str:
    """Reference canonical entry, one f-string per part."""
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.17g}"
    if z.real == 0.0:
        return f"{z.imag:.17g}i"
    return f"{z.real:.17g}{z.imag:+.17g}i"      # the sign as "%+.17g" writes it, "+nan" too


def entrywise_format_matrix(m) -> str:
    """Reference matrix literal: the per-entry join of entrywise_format_cnum."""
    m = np.asarray(m)
    if m.size == 0:
        return "[]"
    return "[" + ",".join("[" + ",".join(entrywise_format_cnum(z) for z in row) + "]"
                          for row in m) + "]"


# ---------------------------------------------------------------------------
# QNET parsing: the character-loop lexer and token parser as the reference

_PUNCT = {"{", "}", "[", "]", "=", ";", ",", ":", "."}
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789")
_DIGITS = set("0123456789")


@dataclass(frozen=True)
class _Token:
    kind: str          # NAME, NUMBER, punctuation text, ->, +, -, EOF
    text: str
    line: int
    col: int
    value: float = 0.0
    imag: bool = False


def _scan_number(source: str, i: int) -> int:
    """Return the end index of the numeric literal starting at i."""
    n = len(source)
    j = i
    while j < n and source[j] in _DIGITS:
        j += 1
    if j < n and source[j] == ".":
        j += 1
        while j < n and source[j] in _DIGITS:
            j += 1
    if j < n and source[j] in "eE":
        k = j + 1
        if k < n and source[k] in "+-":
            k += 1
        if k < n and source[k] in _DIGITS:
            j = k
            while j < n and source[j] in _DIGITS:
                j += 1
    return j


def _tokenize(source: str, lines: list[str]) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def err(message: str):
        snippet = lines[line - 1] if line <= len(lines) else ""
        raise ParseError(line, col, message, snippet)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == "-" and i + 1 < n and source[i + 1] == ">":
            tokens.append(_Token("->", "->", line, start_col))
            i += 2
            col += 2
            continue
        if ch in "+-":
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            end = _scan_number(source, i)
            text = source[i:end]
            imag = False
            if end < n and source[end] == "i" and (end + 1 >= n or source[end + 1] not in _NAME_CHARS):
                imag = True
                end += 1
                text = source[i:end]
            tokens.append(_Token("NUMBER", text, line, start_col,
                                 value=float(text[:-1] if imag else text), imag=imag))
            col += end - i
            i = end
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch in _NAME_START:
            end = i + 1
            while end < n and source[end] in _NAME_CHARS:
                end += 1
            text = source[i:end]
            tokens.append(_Token("NAME", text, line, start_col))
            col += end - i
            i = end
            continue
        err(f"unexpected character {ch!r}")
    tokens.append(_Token("EOF", "", line, col))
    return tokens


_COMPONENT_KEYS = ("inputs", "modes", "S", "C", "Omega")


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.lines = source.split("\n")
        self.tokens = _tokenize(source, self.lines)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, token: _Token, message: str):
        snippet = self.lines[token.line - 1] if token.line <= len(self.lines) else ""
        raise ParseError(token.line, token.col, message, snippet)

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(tok, f"expected {what or kind!r}, found {tok.text or 'end of file'!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != word:
            self.error(tok, f"expected '{word}', found {tok.text or 'end of file'!r}")
        return self.advance()

    def expect_int(self, what: str) -> tuple[int, _Token]:
        tok = self.expect("NUMBER", what)
        if tok.imag or not tok.value.is_integer():   # also rejects 1e400 (inf)
            self.error(tok, f"expected {what} to be a nonnegative integer")
        return int(tok.value), tok

    # -- grammar -----------------------------------------------------------

    def parse_document(self) -> NetDocument:
        raw_components: list[tuple[_Token, dict]] = []
        statements: list[tuple] = []
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "NAME" and tok.text == "component":
                raw_components.append(self.parse_component())
            elif tok.kind == "NAME" and tok.text == "network":
                statements.extend(self.parse_network())
            else:
                self.error(tok, "expected 'component' or 'network'")
        return self.analyze(raw_components, statements)

    def parse_component(self) -> tuple[_Token, dict]:
        self.expect_keyword("component")
        name_tok = self.expect("NAME", "component name")
        self.expect("{")
        entries: dict[str, tuple[_Token, object]] = {}
        while self.peek().kind != "}":
            key_tok = self.expect("NAME", "component key")
            if key_tok.text not in _COMPONENT_KEYS:
                self.error(key_tok, f"unknown key {key_tok.text!r} in component block")
            if key_tok.text in entries:
                self.error(key_tok, f"duplicate key {key_tok.text!r}")
            self.expect("=")
            if key_tok.text in ("inputs", "modes"):
                value, tok = self.expect_int(key_tok.text)
                if value > len(self.source):
                    self.error(tok, f"expected {key_tok.text} to be at most "
                                    f"{len(self.source)}, the length of the file")
            else:
                value = self.parse_matrix()
            self.expect(";")
            entries[key_tok.text] = (key_tok, value)
        self.expect("}")
        return name_tok, entries

    def parse_matrix(self) -> list[list[complex]]:
        self.expect("[", "matrix")
        if self.peek().kind == "]":
            self.advance()
            return []
        rows = [self.parse_row()]
        while self.peek().kind == ",":
            self.advance()
            rows.append(self.parse_row())
        self.expect("]")
        return rows

    def parse_row(self) -> list[complex]:
        self.expect("[", "matrix row")
        entries = [self.parse_cnum()]
        while self.peek().kind == ",":
            self.advance()
            entries.append(self.parse_cnum())
        self.expect("]")
        return entries

    def parse_cnum(self) -> complex:
        sign = 1.0
        tok = self.peek()
        if tok.kind in ("+", "-"):
            self.advance()
            sign = -1.0 if tok.kind == "-" else 1.0
        first = self.expect("NUMBER", "number")
        if first.imag:
            return complex(0.0, sign * first.value)
        value = complex(sign * first.value, 0.0)
        nxt = self.peek()
        if nxt.kind in ("+", "-"):
            self.advance()
            imag_sign = -1.0 if nxt.kind == "-" else 1.0
            second = self.expect("NUMBER", "imaginary part")
            if not second.imag:
                self.error(second, "expected imaginary part with 'i' suffix")
            return complex(value.real, imag_sign * second.value)
        return value

    def parse_network(self) -> list[tuple]:
        self.expect_keyword("network")
        self.expect("{")
        statements: list[tuple] = []
        while self.peek().kind != "}":
            tok = self.peek()
            if tok.kind != "NAME":
                self.error(tok, "expected 'use', 'connect' or 'external'")
            if tok.text == "use":
                self.advance()
                inst_tok = self.expect("NAME", "instance name")
                self.expect(":")
                comp_tok = self.expect("NAME", "component name")
                self.expect(";")
                statements.append(("use", inst_tok, comp_tok))
            elif tok.text == "connect":
                self.advance()
                src_inst = self.expect("NAME", "instance name")
                self.expect(".")
                self.expect_keyword("out")
                self.expect("[")
                src_port, src_port_tok = self.expect_int("port index")
                self.expect("]")
                self.expect("->", "'->'")
                dst_inst = self.expect("NAME", "instance name")
                self.expect(".")
                self.expect_keyword("in")
                self.expect("[")
                dst_port, dst_port_tok = self.expect_int("port index")
                self.expect("]")
                self.expect(";")
                statements.append(("connect", src_inst, src_port, src_port_tok,
                                   dst_inst, dst_port, dst_port_tok))
            elif tok.text == "external":
                self.advance()
                inst_tok = self.expect("NAME", "instance name")
                self.expect(".")
                self.expect_keyword("in")
                self.expect("[")
                port, port_tok = self.expect_int("port index")
                self.expect("]")
                self.expect_keyword("as")
                alias_tok = self.expect("NAME", "external port name")
                self.expect(";")
                statements.append(("external", inst_tok, port, port_tok, alias_tok))
            else:
                self.error(tok, "expected 'use', 'connect' or 'external'")
        self.expect("}")
        return statements

    # -- semantic pass -----------------------------------------------------

    def _shape_matrix(self, key_tok: _Token, rows: list[list[complex]],
                      shape: tuple[int, int], what: str) -> np.ndarray:
        want_r, want_c = shape
        if not rows:
            if want_r * want_c != 0:
                self.error(key_tok, f"{what} must be {want_r}x{want_c}, got empty matrix")
            return np.zeros(shape, dtype=complex)
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            self.error(key_tok, f"{what} has rows of unequal length")
        got = (len(rows), widths.pop())
        if got != shape:
            self.error(key_tok, f"{what} must be {want_r}x{want_c}, got {got[0]}x{got[1]}")
        return np.array(rows, dtype=complex)

    def analyze(self, raw_components, statements) -> NetDocument:
        components: dict[str, LinearComponent] = {}
        for name_tok, entries in raw_components:
            if name_tok.text in components:
                self.error(name_tok, f"duplicate component name {name_tok.text!r}")
            for key in _COMPONENT_KEYS:
                if key not in entries:
                    self.error(name_tok,
                               f"component {name_tok.text!r} is missing key {key!r}")
            n = entries["inputs"][1]
            m = entries["modes"][1]
            S = self._shape_matrix(entries["S"][0], entries["S"][1], (n, n), "S")
            C = self._shape_matrix(entries["C"][0], entries["C"][1], (n, m), "C")
            Omega = self._shape_matrix(entries["Omega"][0], entries["Omega"][1],
                                       (m, m), "Omega")
            try:
                components[name_tok.text] = LinearComponent(S, C, Omega)
            except ValueError as exc:
                self.error(name_tok, f"invalid component {name_tok.text!r}: {exc}")

        instances: dict[str, str] = {}
        edges: list[Edge] = []
        externals: list[ExternalPort] = []
        fed_inputs: set[tuple[str, int]] = set()
        used_outputs: set[tuple[str, int]] = set()
        external_ports: set[tuple[str, int]] = set()
        aliases: set[str] = set()

        def check_port(inst_tok: _Token, port: int, port_tok: _Token) -> str:
            if inst_tok.text not in instances:
                self.error(inst_tok, f"unknown instance {inst_tok.text!r}")
            n_ports = components[instances[inst_tok.text]].n_ports
            if port >= n_ports:
                self.error(port_tok,
                           f"port index {port} out of range for instance "
                           f"{inst_tok.text!r} with {n_ports} ports")
            return inst_tok.text

        for st in statements:
            if st[0] == "use":
                _, inst_tok, comp_tok = st
                if inst_tok.text in instances:
                    self.error(inst_tok, f"duplicate instance name {inst_tok.text!r}")
                if comp_tok.text not in components:
                    self.error(comp_tok, f"unknown component {comp_tok.text!r}")
                instances[inst_tok.text] = comp_tok.text
            elif st[0] == "connect":
                _, src_inst, src_port, src_tok, dst_inst, dst_port, dst_tok = st
                src = check_port(src_inst, src_port, src_tok)
                dst = check_port(dst_inst, dst_port, dst_tok)
                if (src, src_port) in used_outputs:
                    self.error(src_tok,
                               f"output {src}.out[{src_port}] already feeds an edge")
                if (dst, dst_port) in fed_inputs:
                    self.error(dst_tok,
                               f"input {dst}.in[{dst_port}] is already fed by an edge")
                if (dst, dst_port) in external_ports:
                    self.error(dst_tok,
                               f"input {dst}.in[{dst_port}] is declared external and "
                               "cannot be internally driven")
                used_outputs.add((src, src_port))
                fed_inputs.add((dst, dst_port))
                edges.append(Edge(src, src_port, dst, dst_port))
            else:
                _, inst_tok, port, port_tok, alias_tok = st
                inst = check_port(inst_tok, port, port_tok)
                if (inst, port) in fed_inputs:
                    self.error(port_tok,
                               f"input {inst}.in[{port}] is internally driven and "
                               "cannot be external")
                if (inst, port) in external_ports:
                    self.error(port_tok,
                               f"input {inst}.in[{port}] declared external twice")
                if alias_tok.text in aliases:
                    self.error(alias_tok, f"duplicate external name {alias_tok.text!r}")
                external_ports.add((inst, port))
                aliases.add(alias_tok.text)
                externals.append(ExternalPort(inst, port, alias_tok.text))

        return NetDocument(components=components, instances=instances,
                           edges=tuple(edges), externals=tuple(externals))


def reference_parse(source: str) -> NetDocument:
    """Reference for ``netfile.parse``: the same documents and ParseErrors."""
    return _Parser(source).parse_document()


def reference_parse_matrix_assignments(source: str) -> dict[str, np.ndarray]:
    """Reference for ``netfile.parse_matrix_assignments``."""
    parser = _Parser(source)
    result: dict[str, np.ndarray] = {}
    while parser.peek().kind != "EOF":
        name_tok = parser.expect("NAME", "matrix name")
        if name_tok.text in result:
            parser.error(name_tok, f"duplicate matrix name {name_tok.text!r}")
        parser.expect("=")
        rows = parser.parse_matrix()
        parser.expect(";")
        if not rows:
            result[name_tok.text] = np.zeros((0, 0), dtype=complex)
        else:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                parser.error(name_tok, f"matrix {name_tok.text!r} has rows of unequal length")
            result[name_tok.text] = np.array(rows, dtype=complex)
    return result


# Spellings the canonical serializer never writes: separators that may
# stand between any two tokens, and other forms of real and imaginary numbers.
_SEPARATORS = (" ", "\n", "\t", "\r\n", "  # note [1, 2i];\n", "#\n")
_NUMBER_FORMS = ((".5", "1.", "0", "1.0", "3E+2", "1e-3"),
                 ("2i", "1e-3i", ".5i", "0.25e1i", "1.i"))


def respell(source: str, rng: np.random.Generator) -> str:
    """The tokens of ``source`` with other separators and some numbers replaced.

    Each gap between tokens may gain a separator; a number may be replaced
    by another form, of the same kind (real or imaginary) unless it starts
    a matrix entry, or lose the "0" of a leading "0."; an unsigned matrix
    entry may gain a "-".  Rates are drawn per call, so some texts change
    in one place and some in many.
    """
    lines = source.split("\n")
    line_starts = np.cumsum([0] + [len(line) + 1 for line in lines]).tolist()
    rate = rng.uniform(0.0, 0.1)
    out, end, prev = [], 0, None
    for tok in _tokenize(source, lines)[:-1]:
        start = line_starts[tok.line - 1] + tok.col - 1
        out.append(source[end:start])
        end = start + len(tok.text)
        if rng.random() < rate:
            out.append(_SEPARATORS[int(rng.integers(len(_SEPARATORS)))])
        text = tok.text
        if tok.kind == "NUMBER" and rng.random() < rate:
            forms = (_NUMBER_FORMS[0] + _NUMBER_FORMS[1] if prev in ("[", ",")
                     else _NUMBER_FORMS[tok.imag])
            text = forms[int(rng.integers(len(forms)))]
        elif tok.kind == "NUMBER" and text.startswith("0.") and rng.random() < rate:
            text = text[1:]
        if tok.kind == "NUMBER" and prev in ("[", ",") and rng.random() < rate:
            text = "-" + text
        out.append(text)
        prev = tok.kind
    return "".join(out) + source[end:]
