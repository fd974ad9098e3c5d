"""Composition algebra for feedback networks of linear components.

Closing internal channels of a component eliminates them and leaves a
smaller component over the external ports:

    S_red = S_ee + S_ei (η − S_ii)⁻¹ S_ie
    C_red = S_ei (η − S_ii)⁻¹ C_i + C_e
    Ω_red = Ω + Im{C_i† S_ii (η − S_ii)⁻¹ C_i} + Im{C_e† S_ei (η − S_ii)⁻¹ C_i}

with η the permutation pairing internal outputs to internal inputs and
Im{M} = (M − M†)/(2i).  As S_ii (η − S_ii)⁻¹ = η (η − S_ii)⁻¹ − I and
Im{C_i† C_i} = 0, the first Ω term is Im{C_i† η (η − S_ii)⁻¹ C_i}, where
η X is a row gather.  One kernel computes it; the wirings below are index
patterns of it over a direct sum (Gough & James, arXiv:0804.3442) and
share its LU and singularity gate: series (g1's outputs feed g2's inputs),
star (a's last k ports cross b's first k), beam-splitter loop (star of
splitter and plant) and Möbius transform (S of the star of T and X).

η is kept as the vector perm, η[s, perm[s]] = 1.  The formula is written
once, over blocks of S and C that are either dense copies or, from
matkit.SPARSE_MIN internal channels on when at most a matkit.SPARSE_FILL
share of S and of C is nonzero, as in a network of many small components,
compressed sparse arrays sorted out of their nonzeros (``matkit._Compressed``,
the arrays ``scipy.sparse`` would build); SuperLU then factors η − S_ii in a
fill-reducing order (elimination order does not change the result).
The direct sum of two dense components, as in a series product, is half
full and stays dense.  The two agree to rounding, about 1e-14 relative on
the networks tested, but not bit for bit, since their pivot orders differ.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import matkit
from .slh import LinearComponent, block_diag, concatenate


class BadPartition(ValueError):
    """Internal/external port bookkeeping is inconsistent."""


class AlgebraicLoop(ValueError):
    """(η − S_ii) is singular: instantaneous elimination impossible."""


class DimensionMismatch(ValueError):
    """Port or block dimensions of the operands do not line up."""


class OutsideDomain(ValueError):
    """Argument outside the domain of the Möbius transform."""


@dataclass(frozen=True, eq=False)
class PartitionedComponent:
    """A component whose ports are split into internal and external sets.

    ``internal_out``/``internal_in`` are ordered port indices; ``eta`` is
    the permutation over internal channels, given as the integer vector
    perm (output s feeds input perm[s]) or as the matrix η with rows
    following ``internal_out`` and columns ``internal_in`` (η[s, r] = 1
    when output s feeds input r).  A matrix within 1e-12 of a permutation
    matrix is read as that permutation.  Only the vector is kept, as
    ``_perm``; ``eta`` reads back as the exact matrix.  External orders
    default to the ascending complements but may be given explicitly to
    control the port layout of the reduced component.
    """

    comp: LinearComponent
    internal_out: tuple[int, ...]
    internal_in: tuple[int, ...]
    eta: InitVar[np.ndarray]
    external_out: tuple[int, ...] | None = None
    external_in: tuple[int, ...] | None = None
    _perm: np.ndarray = field(init=False, repr=False)   # η[s, _perm[s]] = 1

    def __post_init__(self, eta):
        n = self.comp.n_ports
        i_out = tuple(_index("internal_out index", i) for i in self.internal_out)
        i_in = tuple(_index("internal_in index", i) for i in self.internal_in)
        if len(i_out) != len(i_in):
            raise BadPartition(
                f"{len(i_out)} internal outputs vs {len(i_in)} internal inputs")
        for name, idx in (("internal_out", i_out), ("internal_in", i_in)):
            if len(set(idx)) != len(idx):
                raise BadPartition(f"duplicate port index in {name}")
            if any(i < 0 or i >= n for i in idx):
                raise BadPartition(f"{name} index out of range 0..{n - 1}")
        perm = _permutation(eta, len(i_out))
        for side, internal in (("out", i_out), ("in", i_in)):
            external = getattr(self, f"external_{side}")
            if external is None:
                skip = set(internal)
                external = tuple(i for i in range(n) if i not in skip)
            else:
                external = tuple(_index(f"external_{side} index", i) for i in external)
                if sorted(external + internal) != list(range(n)):
                    raise BadPartition(
                        f"external_{side} must be the complement of internal_{side}")
            object.__setattr__(self, f"external_{side}", external)
        object.__setattr__(self, "internal_out", i_out)
        object.__setattr__(self, "internal_in", i_in)
        object.__setattr__(self, "_perm", perm)


def _index(what: str, i, error: type = BadPartition) -> int:
    """``i`` as an int by operator.index, or ``error`` naming ``what`` and i."""
    try:
        return operator.index(i)
    except TypeError:
        raise error(f"{what} {i!r} is not an integer") from None


def _eta_matrix(pc: PartitionedComponent) -> np.ndarray:
    """The exact permutation matrix η of ``pc``, as a new read-only array."""
    eta = np.eye(len(pc._perm), dtype=complex)[pc._perm]
    eta.flags.writeable = False
    return eta


PartitionedComponent.eta = property(_eta_matrix)   # the init argument, read back as a matrix


def _permutation(eta, k: int) -> np.ndarray:
    """The vector perm of η, given as perm itself or as a k×k matrix; BadPartition if none."""
    eta = np.asarray(eta)
    perm = None
    if eta.size == 0 and k == 0:
        perm = np.zeros(0, dtype=np.intp)
    elif eta.shape == (k,) and np.issubdtype(eta.dtype, np.integer):
        perm = eta.astype(np.intp)
    elif eta.shape == (k, k):
        eta = eta.astype(complex)
        perm = eta.real.argmax(axis=1)
        if matkit.max_abs(eta - np.eye(k)[perm]) > 1e-12:
            perm = None
    if perm is None or (k and (perm.min() < 0 or perm.max() >= k
                               or np.bincount(perm, minlength=k).max() > 1)):
        raise BadPartition("eta must be a permutation matrix over internal channels")
    perm.flags.writeable = False
    return perm


def _eliminate(S, C, Omega, i_out, i_in, perm, e_out, e_in):
    """Reduce (S, C, Omega), output i_out[s] feeding input i_in[perm[s]], onto e_out × e_in.

    One LU of (η − S_ii) gives the solve and the gate: AlgebraicLoop when
    matkit.factor finds it singular, with the 1-norm condition estimate
    (inf when the pivot rule fired).  The blocks come from :func:`_blocks`,
    dense or sparse.  S_ei multiplies the two parts of the solution in two
    products: one product split afterwards rounds differently and loses
    the exact S = S₂S₁ of a series product.
    """
    n_e = len(e_in)
    loop, rhs, C_ih, S_ei, S_ee = _blocks(S, C, i_out, i_in, perm, e_out, e_in)
    try:
        X = matkit.factor(loop).solve(rhs)
    except matkit.SingularMatrix as exc:
        raise AlgebraicLoop("(eta - S_ii) is singular (condition estimate "
                            f"{exc.condition:.3e})") from exc
    del loop, rhs   # X is all the rest needs: free the k-row arrays first
    C_e = C.take(e_out, axis=0)
    loop_C = X[:, n_e:]       # (η − S_ii)⁻¹ C_i
    coupled = S_ei @ loop_C
    Omega = Omega + matkit.herm_imag(C_ih @ loop_C[perm] + C_e.conj().T @ coupled)
    return S_ee + S_ei @ X[:, :n_e], C_e + coupled, Omega


def _blocks(S, C, i_out, i_in, perm, e_out, e_in):
    """η − S_ii, [S_ie, C_i], C_i†, S_ei and S_ee of (S, C) for :func:`_eliminate`.

    Below matkit.SPARSE_MIN internal channels, or when more than a
    matkit.SPARSE_FILL share of S or of C is nonzero, these are C-ordered
    dense copies.  Otherwise the nonzeros of S and C are sorted into the
    blocks by index arithmetic, so no block with k rows is copied dense:
    η − S_ii and C_i† are CSCs and S_ei a CSR (``matkit._Compressed``, bit
    for bit the arrays SciPy's ``csc_array`` or ``csr_array`` builds of the
    same entries), and only the right-hand side [S_ie, C_i] and S_ee are
    dense.  The share counts all of S and C: a fuller S_ii fills the factor
    in, and a full S_ei, as in a series product, where S_ii is zero, makes
    S_ei·X a scalar loop in place of one BLAS product.
    """
    k, n = len(i_out), len(S)
    nonzero = k >= matkit.SPARSE_MIN and (S != 0, C != 0)
    if not nonzero or max(np.count_nonzero(nz) / max(nz.size, 1)
                          for nz in nonzero) > matkit.SPARSE_FILL:
        S_i, S_e, C_i = S.take(i_out, axis=0), S.take(e_out, axis=0), C.take(i_out, axis=0)
        return (np.eye(k, dtype=complex)[perm] - S_i.take(i_in, axis=1),
                np.concatenate([S_i.take(e_in, axis=1), C_i], axis=1), C_i.conj().T,
                S_e.take(i_in, axis=1), S_e.take(e_in, axis=1))
    n_e, n_m = len(e_in), C.shape[1]
    # positions in [internal, external] order: a block index is < k iff internal
    out_pos, in_pos = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    out_pos[np.concatenate([i_out, e_out]).astype(np.intp)] = np.arange(n)
    in_pos[np.concatenate([i_in, e_in]).astype(np.intp)] = np.arange(n)
    flat = np.flatnonzero(nonzero[0])
    rows, cols = np.divmod(flat, n)
    rows, cols, values = out_pos.take(rows), in_pos.take(cols), S.ravel().take(flat)
    quadrant = 2 * (rows >= k) + (cols >= k)    # S_ii, S_ie, S_ei, S_ee
    ii, ie, ei, ee = np.split(np.argsort(quadrant, kind="stable"),
                              np.cumsum(np.bincount(quadrant, minlength=4))[:3])
    compressed = matkit._Compressed.of_entries
    loop = compressed("csc", np.concatenate([np.arange(k), rows.take(ii)]),
                      np.concatenate([perm, cols.take(ii)]),
                      np.concatenate([np.ones(k), -values.take(ii)]), (k, k))
    flat = np.flatnonzero(nonzero[1])
    c_rows, c_cols = np.divmod(flat, n_m)
    c_rows = out_pos.take(c_rows)
    inner = np.flatnonzero(c_rows < k)     # C_i; C_e is taken dense
    c_rows, c_cols, c_values = c_rows.take(inner), c_cols.take(inner), C.ravel().take(flat[inner])
    rhs = np.zeros((k, n_e + n_m), dtype=complex, order="F")
    rhs[rows.take(ie), cols.take(ie) - k] = values.take(ie)
    rhs[c_rows, n_e + c_cols] = c_values
    S_ee = np.zeros((n_e, n_e), dtype=complex)
    S_ee[rows.take(ee) - k, cols.take(ee) - k] = values.take(ee)
    return (loop, rhs, compressed("csc", c_cols, c_rows, c_values.conj(), (n_m, k)),
            compressed("csr", rows.take(ei) - k, cols.take(ei), values.take(ei), (n_e, k)), S_ee)


def feedback_reduce(pc: PartitionedComponent) -> LinearComponent:
    """Eliminate the internal channels of ``pc``; AlgebraicLoop as in :func:`_eliminate`."""
    comp = pc.comp
    S, C, Omega = _eliminate(comp.S, comp.C, comp.Omega, pc.internal_out, pc.internal_in,
                             pc._perm, pc.external_out, pc.external_in)
    return LinearComponent._adopt(S, C, Omega,
                                  tuple(comp.port_labels[i] for i in pc.external_in),
                                  comp.mode_labels)


def _prefixed(prefix: str | None, labels: tuple[str, ...]) -> tuple[str, ...]:
    return labels if prefix is None else tuple(f"{prefix}.{label}" for label in labels)


def series_product(g2: LinearComponent, g1: LinearComponent,
                   prefixes: tuple[str, str] | None = None) -> LinearComponent:
    """Feed every output of g1 into the matching input of g2.

    Argument order follows the composition law S = S₂S₁: the second
    argument is the upstream system.  Modes are concatenated g1 first.
    """
    if g1.n_ports != g2.n_ports:
        raise DimensionMismatch(
            f"series product needs equal port counts, got {g1.n_ports} and {g2.n_ports}")
    if prefixes is None and set(g1.mode_labels) & set(g2.mode_labels):
        prefixes = ("g1", "g2")
    p1, p2 = prefixes or (None, None)
    up, down = np.arange(g1.n_ports), np.arange(g1.n_ports, 2 * g1.n_ports)   # g1's, g2's ports
    pairs = zip((g1.S, g1.C, g1.Omega), (g2.S, g2.C, g2.Omega))
    S, C, Omega = _eliminate(*map(block_diag, pairs), up, down, up, down, up)
    return LinearComponent._adopt(S, C, Omega, _prefixed(p2, g2.port_labels),
                                  _prefixed(p1, g1.mode_labels) + _prefixed(p2, g2.mode_labels))


def _static(S: np.ndarray):
    return S, np.zeros((len(S), 0)), np.zeros((0, 0))   # (S, C, Omega) without modes


def _star(a, b, k: int):
    """Star product of (S, C, Omega) triples: a's last k ports cross b's first k.

    The result has a's leading ports, then b's trailing ones.
    """
    na, nb = len(a[0]), len(b[0])
    loop = np.arange(na - k, na + k)
    outer = np.concatenate([np.arange(na - k), np.arange(na + k, na + nb)])
    cross = (np.arange(2 * k) + k) % (2 * k)   # channel s feeds channel (s + k) mod 2k
    return _eliminate(*map(block_diag, zip(a, b)), loop, loop, cross, outer, outer)


@dataclass(frozen=True, eq=False)
class BeamSplitter:
    """Static unitary scatterer with a 2×2 block structure.

    ``T`` mixes the (n1 + n2)-dimensional field vector; the first block
    of dimension n1 faces the external world, the second block of
    dimension n2 faces the in-loop side.  Construction rejects
    non-unitary matrices.
    """

    T: np.ndarray
    n1: int
    n2: int

    def __post_init__(self):
        T = matkit.as_matrix(self.T, name="T")
        n = self.n1 + self.n2
        if self.n1 < 0 or self.n2 < 0 or T.shape != (n, n):
            raise ValueError(f"T must be {n}×{n} for block dims ({self.n1}, {self.n2})")
        if matkit.unitarity_residual(T) > matkit.STRUCT_TOL:
            raise ValueError("beam splitter matrix must be unitary")
        T.flags.writeable = False
        object.__setattr__(self, "T", T)

    def to_component(self) -> LinearComponent:
        """The splitter as a static component: S = T, no modes."""
        return LinearComponent(*_static(self.T))


def mixing_splitter(alpha: float) -> BeamSplitter:
    """Real 2×2 splitter [[α, β], [β, −α]] with β = √(1 − α²)."""
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("mixing amplitude must lie in [-1, 1]")
    beta = np.sqrt(1.0 - alpha * alpha)
    return BeamSplitter(np.array([[alpha, beta], [beta, -alpha]]), 1, 1)


def mobius(T: BeamSplitter, X) -> np.ndarray:
    """Non-commutative Möbius transform T₁₁ + T₁₂(I − X·T₂₂)⁻¹X·T₂₁.

    Maps unitary X in its domain to unitary results.  It is the S block of
    the star of T and the static X; OutsideDomain when that loop is singular.
    """
    X = matkit.as_matrix(X, rows=T.n2, cols=T.n2, name="X")
    try:
        return _star(_static(T.T), _static(X), T.n2)[0]
    except AlgebraicLoop as exc:
        raise OutsideDomain("(I - X T22) is singular") from exc


def beamsplitter_loop(T: BeamSplitter, plant: LinearComponent) -> LinearComponent:
    """Close a feedback loop around ``plant`` through beam splitter ``T``.

    The plant's n2 ports are wired to the splitter's in-loop block; the
    closed-loop component lives on the splitter's n1 external ports:

        S = T₁₁ + T₁₂(1 − S₀T₂₂)⁻¹S₀T₂₁
        C = T₁₂(1 − S₀T₂₂)⁻¹C₀
        Ω = Ω₀ + Im{C₀†(1 − S₀T₂₂)⁻¹C₀}
    """
    if plant.n_ports != T.n2:
        raise DimensionMismatch(
            f"plant has {plant.n_ports} ports, splitter loop block expects {T.n2}")
    S, C, Omega = _star(_static(T.T), (plant.S, plant.C, plant.Omega), T.n2)
    return LinearComponent._adopt(S, C, Omega, mode_labels=plant.mode_labels)


def beamsplitter_network(T: BeamSplitter, plant: LinearComponent) -> PartitionedComponent:
    """The splitter-plant wiring as an explicit two-edge network.

    Internal edges: splitter loop outputs feed plant inputs, plant
    outputs feed splitter loop inputs.  Reducing this partition must give
    the same component as :func:`beamsplitter_loop`.
    """
    if plant.n_ports != T.n2:
        raise DimensionMismatch(
            f"plant has {plant.n_ports} ports, splitter loop block expects {T.n2}")
    comp = concatenate(T.to_component(), plant, prefixes=("bs", "plant"))
    n1, n2 = T.n1, T.n2
    loop_ports = tuple(range(n1, n1 + n2))
    plant_ports = tuple(range(n1 + n2, n1 + 2 * n2))
    # splitter loop outputs feed plant inputs and plant outputs feed loop inputs
    return PartitionedComponent(comp, internal_out=loop_ports + plant_ports,
                                internal_in=loop_ports + plant_ports,
                                eta=(np.arange(2 * n2) + n2) % (2 * n2))


def redheffer_star(a: LinearComponent, b: LinearComponent,
                   channels: int) -> LinearComponent:
    """Star-compose two components through ``channels`` crossed edges.

    The last ``channels`` ports of ``a`` and the first ``channels`` ports
    of ``b`` become internal: a's loop outputs feed b's loop inputs and
    vice versa.  The composite keeps a's leading ports followed by b's
    trailing ports; labels are prefixed "a."/"b.".
    """
    k = _index("channel count", channels, DimensionMismatch)
    if k < 0 or k > a.n_ports or k > b.n_ports:
        raise DimensionMismatch(
            f"cannot cross {k} channels between {a.n_ports}- and {b.n_ports}-port components")
    S, C, Omega = _star((a.S, a.C, a.Omega), (b.S, b.C, b.Omega), k)
    return LinearComponent._adopt(S, C, Omega, _prefixed("a", a.port_labels[:a.n_ports - k])
                                  + _prefixed("b", b.port_labels[k:]),
                                  _prefixed("a", a.mode_labels) + _prefixed("b", b.mode_labels))
