"""Random model generators and oracles shared across the test modules."""

from __future__ import annotations

import numpy as np

from slhnet import (BeamSplitter, LinearComponent, PartitionedComponent,
                    concatenate, feedback_reduce)
from slhnet.netfile import Edge, ExternalPort, NetDocument


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


def random_component(rng: np.random.Generator, n: int, m: int,
                     min_damping: float = 0.1) -> LinearComponent:
    """Valid random component: Haar S, Gaussian C, hermitian Omega.

    Resamples until every mode decays at rate >= ``min_damping``.  Nearly
    undamped modes put transfer-function poles within ~gamma of the
    imaginary axis, where the finite 1e-10 offset realizing 0+ costs
    ~8*sigma/gamma in axis-unitarity residual; bounding the damping keeps
    the ensemble generic while staying far from that degeneracy.
    """
    from slhnet import drift
    while True:
        C = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
        comp = LinearComponent(haar_unitary(rng, n), C, random_hermitian(rng, m))
        if m == 0 or np.min(-np.linalg.eigvals(drift(comp)).real) >= min_damping:
            return comp


def random_splitter(rng: np.random.Generator, n1: int, n2: int) -> BeamSplitter:
    return BeamSplitter(haar_unitary(rng, n1 + n2), n1, n2)


def random_partitioned(rng: np.random.Generator, n: int, m: int,
                       k: int) -> PartitionedComponent:
    """Random valid component with k internal channels and a random eta.

    Regenerates until (eta - S_ii) is comfortably nonsingular so that
    reduction is well-posed for oracle comparisons.
    """
    while True:
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


# ---------------------------------------------------------------------------
# QNET networks and the reference assembly/serialization paths

def random_network(rng: np.random.Generator, max_units: int = 8) -> NetDocument:
    """Random valid network document built as a chain of units.

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
    for j in range(int(rng.integers(0, max_units + 1))):
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


def entrywise_format_cnum(z: complex) -> str:
    """Reference canonical entry, one f-string per part."""
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.17g}"
    if z.real == 0.0:
        return f"{z.imag:.17g}i"
    sign = "+" if z.imag > 0 else "-"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


def entrywise_format_matrix(m) -> str:
    """Reference matrix literal: the per-entry join of entrywise_format_cnum."""
    m = np.asarray(m)
    if m.size == 0:
        return "[]"
    return "[" + ",".join("[" + ",".join(entrywise_format_cnum(z) for z in row) + "]"
                          for row in m) + "]"
