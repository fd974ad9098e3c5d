"""Linear open-system components, their validation and their drift matrices.

A component with n ports and m internal modes is described entirely by the
triple (S, C, Omega): an n×n scattering matrix, an n×m coupling matrix
(rows follow ports, units sqrt(rate)) and an m×m hermitian frequency
matrix (rad/s).  The coupling operators are linear (L = C·a) and the
Hamiltonian quadratic (H = a†·Omega·a), so every operation in this package
works at the level of these three matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit


def _triple(names: tuple[str, str, str], first, middle, last, copy: bool = True) -> tuple:
    """(first, middle, last) as read-only complex arrays: first n×n, middle n×m, last m×m.

    An empty ``middle`` of any shape reads as n×m zeros when n·m = 0; with
    ``copy=False`` complex arrays are kept, not copied.
    """
    first = matkit.as_matrix(first, name=names[0], copy=copy)
    if first.shape[0] != first.shape[1]:
        raise ValueError(f"{names[0]} must be square, got shape {first.shape}")
    last = matkit.as_matrix(last, name=names[2], copy=copy)
    if last.shape[0] != last.shape[1]:
        raise ValueError(f"{names[2]} must be square, got shape {last.shape}")
    n, m = len(first), len(last)
    middle = np.asarray(middle, dtype=complex)
    middle = (np.zeros((n, m), dtype=complex) if middle.size == 0 and n * m == 0
              else matkit.as_matrix(middle, rows=n, cols=m, name=names[1], copy=copy))
    for arr in (first, middle, last):
        arr.flags.writeable = False
    return first, middle, last


@dataclass(frozen=True, eq=False)
class LinearComponent:
    """Immutable (S, C, Omega) triple with port and mode labels.

    Construction enforces dimensional consistency and finiteness only;
    unitarity of S and hermiticity of Omega are soft invariants checked
    by :func:`validate`, so malformed models can be loaded, inspected and
    reported on rather than rejected outright.
    """

    S: np.ndarray
    C: np.ndarray
    Omega: np.ndarray
    port_labels: tuple[str, ...] = ()
    mode_labels: tuple[str, ...] = ()

    def __post_init__(self):
        self._store(self.S, self.C, self.Omega, self.port_labels, self.mode_labels, copy=True)

    @classmethod
    def _adopt(cls, S, C, Omega, port_labels: tuple[str, ...] = (),
               mode_labels: tuple[str, ...] = ()) -> "LinearComponent":
        """A component that keeps S, C and Omega without copying them.

        For complex arrays that the caller has just built and never touches
        again: they are checked as by the constructor and made read-only.
        """
        comp = object.__new__(cls)
        comp._store(S, C, Omega, port_labels, mode_labels, copy=False)
        return comp

    def _store(self, S, C, Omega, port_labels, mode_labels, copy: bool):
        S, C, Omega = _triple(("S", "C", "Omega"), S, C, Omega, copy)
        n, m = C.shape
        ports = tuple(port_labels) or tuple(f"p{i}" for i in range(n))
        modes = tuple(mode_labels) or tuple(f"m{j}" for j in range(m))
        if len(ports) != n:
            raise ValueError(f"expected {n} port labels, got {len(ports)}")
        if len(modes) != m:
            raise ValueError(f"expected {m} mode labels, got {len(modes)}")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Omega", Omega)
        object.__setattr__(self, "port_labels", ports)
        object.__setattr__(self, "mode_labels", modes)

    @property
    def n_ports(self) -> int:
        return self.S.shape[0]

    @property
    def m_modes(self) -> int:
        return self.Omega.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearComponent):
            return NotImplemented
        return (np.array_equal(self.S, other.S)
                and np.array_equal(self.C, other.C)
                and np.array_equal(self.Omega, other.Omega)
                and self.port_labels == other.port_labels
                and self.mode_labels == other.mode_labels)

    def relabeled(self, prefix: str) -> "LinearComponent":
        """Copy with every port/mode label prefixed by ``prefix.``."""
        return LinearComponent(
            self.S, self.C, self.Omega,
            tuple(f"{prefix}.{p}" for p in self.port_labels),
            tuple(f"{prefix}.{q}" for q in self.mode_labels))

    def __repr__(self) -> str:
        return f"LinearComponent(n_ports={self.n_ports}, m_modes={self.m_modes})"


@dataclass(frozen=True)
class ValidationIssue:
    check: str
    residual: float

    def __str__(self) -> str:
        return f"{self.check} (max-norm residual {self.residual:.6g})"


@dataclass(frozen=True)
class ValidationReport:
    """List of violated model invariants; empty means the component is valid."""

    issues: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(str(issue) for issue in self.issues)


def validate(comp: LinearComponent, tol: float = matkit.STRUCT_TOL) -> ValidationReport:
    """Check unitarity of S and hermiticity of Omega at tolerance ``tol``.

    Dimension consistency and finiteness are enforced at construction, so
    the report only ever mentions the two algebraic invariants.
    """
    issues = []
    res_s = matkit.unitarity_residual(comp.S)
    if res_s > tol:
        issues.append(ValidationIssue("S not unitary", res_s))
    res_o = matkit.max_abs(comp.Omega - comp.Omega.conj().T)
    if res_o > tol:
        issues.append(ValidationIssue("Omega not hermitian", res_o))
    return ValidationReport(tuple(issues))


def drift(comp: LinearComponent) -> np.ndarray:
    """Drift matrix A = −½C†C − iΩ (m×m, always dissipative for valid input)."""
    return -0.5 * comp.C.conj().T @ comp.C - 1j * comp.Omega


def make_cavity(gamma: float, omega: float = 0.0, phi: float = 0.0) -> LinearComponent:
    """Single-mode cavity: S = e^{iφ}, C = √γ, Omega = ω.

    ``gamma`` is the decay rate (must be ≥ 0), ``omega`` the detuning and
    ``phi`` an extra output phase.
    """
    if gamma < 0:
        raise ValueError(f"decay rate must be nonnegative, got {gamma}")
    S = np.array([[np.exp(1j * phi)]])
    C = np.array([[np.sqrt(gamma)]], dtype=complex)
    Omega = np.array([[omega]], dtype=complex)
    return LinearComponent(S, C, Omega)


def block_diag(blocks) -> np.ndarray:
    """Complex block-diagonal matrix of ``blocks``, built in one allocation."""
    blocks = list(blocks)
    rows = cols = 0
    for b in blocks:
        rows += b.shape[0]
        cols += b.shape[1]
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        p, q = b.shape
        out[r:r + p, c:c + q] = b
        r += p
        c += q
    return out


def concatenate(a: LinearComponent, b: LinearComponent,
                prefixes: tuple[str, str] | None = None) -> LinearComponent:
    """Place two independent components side by side (block-diagonal triple).

    Port order is a's ports followed by b's; same for modes.  If the label
    sets collide and no prefixes are given, labels are prefixed "a."/"b.".
    """
    if prefixes is None:
        collides = (set(a.port_labels) & set(b.port_labels)
                    or set(a.mode_labels) & set(b.mode_labels))
        if collides:
            prefixes = ("a", "b")
    if prefixes is not None:
        a = a.relabeled(prefixes[0])
        b = b.relabeled(prefixes[1])
    if set(a.port_labels) & set(b.port_labels) or set(a.mode_labels) & set(b.mode_labels):
        raise ValueError("label sets still collide after prefixing")
    return LinearComponent(
        block_diag((a.S, b.S)),
        block_diag((a.C, b.C)),
        block_diag((a.Omega, b.Omega)),
        a.port_labels + b.port_labels,
        a.mode_labels + b.mode_labels)
