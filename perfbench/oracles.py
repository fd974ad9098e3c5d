"""Reference formulas and output checks, independent of slhnet.

The formulas are the paper's, written here again with plain numpy:

* Xi(s) = S − C(sI − A)⁻¹C†S and xi(s) = C(sI − A)⁻¹ with
  A = −½C†C − iΩ, solved with numpy.linalg.solve;
* the closed form of a single-mode unit, Xi(s) = (I − cc†/(s + |c|²/2 + iω))S,
  and the cascade law Xi_series = Xi₂·Xi₁, so a chain's transfer function
  is the product of its units' closed forms;
* the Möbius transform T₁₁ + T₁₂(I − X·T₂₂)⁻¹X·T₂₁ of a beam-splitter loop;
* elimination of wired channels from a frequency-domain transfer matrix;
* the three Stratonovich consistency equations.

Program output is read with this module's own parsers (QNET component
blocks and freqresp CSV), never with slhnet's.  Every check raises
OracleMismatch with a reason.
"""

from __future__ import annotations

import re

import numpy as np

TOL = 1e-8            # absolute max-entry tolerance on O(1) transfer matrices
EXACT_TOL = 1e-12     # columns the program derives from numbers it also prints


class OracleMismatch(AssertionError):
    """Program output disagrees with the reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise OracleMismatch(message)


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


# ---------------------------------------------------------------------------
# formulas

def transfer(S, C, Omega, s: complex) -> tuple[np.ndarray, np.ndarray]:
    """(Xi(s), xi(s)) by a dense solve of the resolvent."""
    m = Omega.shape[0]
    A = -0.5 * C.conj().T @ C - 1j * Omega
    M = s * np.eye(m) - A
    Xi = S - C @ np.linalg.solve(M, C.conj().T @ S)
    xi = np.linalg.solve(M.T, C.T).T
    return Xi, xi


def unit_transfer(S, C, Omega, s: np.ndarray) -> np.ndarray:
    """Closed-form Xi over an array of points for a unit with at most one mode.

    Returns shape (len(s), n, n).  A mode with zero coupling drops out.
    """
    s = np.asarray(s, dtype=complex)
    n = S.shape[0]
    out = np.broadcast_to(S, (s.size, n, n)).astype(complex)
    c = C[:, 0] if Omega.shape[0] == 1 else np.zeros(0)
    if np.any(c):
        gain = 1.0 / (s + 0.5 * np.vdot(c, c).real + 1j * Omega[0, 0])
        out = out - gain[:, None, None] * (np.outer(c, c.conj()) @ S)[None]
    return out


def mobius(T, n1: int, X: np.ndarray) -> np.ndarray:
    """T₁₁ + T₁₂(I − X·T₂₂)⁻¹X·T₂₁; X may be a stack (..., n2, n2)."""
    T11, T12 = T[:n1, :n1], T[:n1, n1:]
    T21, T22 = T[n1:, :n1], T[n1:, n1:]
    eye = np.eye(T.shape[0] - n1)
    return T11 + T12 @ np.linalg.solve(eye - X @ T22, X @ T21)


def eliminate(X: np.ndarray, wires: list[tuple[int, int]]) -> np.ndarray:
    """Close ``wires`` (output port → input port) in a transfer matrix X.

    With the wired inputs driven by the wired outputs, u_w = y_w, the
    remaining outputs (ascending) as functions of the remaining inputs
    (ascending) are X_ee + X_ew (I − X_ww)⁻¹ X_we, where rows of X_ww follow
    the wired outputs and columns the inputs they drive.
    """
    outs = [o for o, _ in wires]
    ins = [i for _, i in wires]
    eo = [p for p in range(X.shape[0]) if p not in outs]
    ei = [p for p in range(X.shape[1]) if p not in ins]
    X_ww = X[np.ix_(outs, ins)]
    X_we = X[np.ix_(outs, ei)]
    X_ew = X[np.ix_(eo, ins)]
    X_ee = X[np.ix_(eo, ei)]
    return X_ee + X_ew @ np.linalg.solve(np.eye(len(wires)) - X_ww, X_we)


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def strat_residuals(E, F, K, S, C, Omega) -> float:
    """Worst residual of the three Stratonovich ↔ Ito consistency equations."""
    d = S - np.eye(S.shape[0])
    r1 = d + 1j * E + 0.5j * E @ d
    r2 = C + 1j * F + 0.5j * E @ C
    r3 = (-0.5 * C.conj().T @ C - 1j * Omega) - (-1j * K - 0.5j * F.conj().T @ C)
    return max(max_abs(r1), max_abs(r2), max_abs(r3))


# ---------------------------------------------------------------------------
# networks of units

def cascade_transfer(units, s: np.ndarray) -> np.ndarray:
    """Xi_N ⋯ Xi_1 of a two-port cascade, shape (len(s), 2, 2)."""
    acc = None
    for u in units:
        f = unit_transfer(u.S, u.C, u.Omega, s)
        acc = f if acc is None else f @ acc
    return acc


def chain_transfer(units, s: np.ndarray) -> np.ndarray:
    """Scalar transfer function of a one-port chain, shape (len(s),)."""
    acc = np.ones(np.asarray(s).size, dtype=complex)
    for u in units:
        cav = u[-1]
        f = unit_transfer(cav.S, cav.C, cav.Omega, s)
        if u[0] == "loop":
            f = mobius(u[1].S, 1, f)
        acc = acc * f[:, 0, 0]
    return acc


# ---------------------------------------------------------------------------
# reading program output

def parse_number(text: str) -> complex:
    """A QNET/CSV number: "1.5", "-2e-3i", "0.5-0.25i"."""
    return complex(text.replace("i", "j")) if text.endswith("i") else complex(float(text))


def parse_matrix(text: str, shape: tuple[int, int]) -> np.ndarray:
    out = np.zeros(shape, dtype=complex)
    if text == "[]":
        expect(shape[0] * shape[1] == 0, f"empty matrix where {shape} expected")
        return out
    expect(text.startswith("[[") and text.endswith("]]"), "malformed matrix literal")
    rows = text[2:-2].split("],[")
    expect(len(rows) == shape[0], f"{len(rows)} rows, expected {shape[0]}")
    for r, row in enumerate(rows):
        cells = row.split(",")
        expect(len(cells) == shape[1], f"row {r} has {len(cells)} entries")
        out[r] = [parse_number(c) for c in cells]
    return out


_KEY = re.compile(r"^\s*(\w+)\s*=\s*(.*);\s*$")


def read_component(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """(S, C, Omega, comment lines) of a one-component QNET document."""
    values: dict[str, str] = {}
    comments = []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
            continue
        match = _KEY.match(line)
        if match:
            values[match.group(1)] = match.group(2)
    expect(set(values) == {"inputs", "modes", "S", "C", "Omega"},
           f"component keys {sorted(values)}")
    n, m = int(values["inputs"]), int(values["modes"])
    return (parse_matrix(values["S"], (n, n)), parse_matrix(values["C"], (n, m)),
            parse_matrix(values["Omega"], (m, m)), comments)


def read_csv(text: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(omega, Xi with NaN on NA rows, residual, NA mask) of a freqresp CSV."""
    lines = text.rstrip("\n").split("\n")
    width = 2 + 2 * n * n
    header = lines[0].split(",")   # quoted labels hold one comma each
    expect(header[0] == "omega" and header[-1] == "unitarity_residual"
           and len(header) == 1 + 4 * n * n + 1, "unexpected CSV header")
    rows = [line.split(",") for line in lines[1:]]
    omega = np.array([float(r[0]) for r in rows])
    na = np.array([r[1] == "NA" for r in rows])
    Xi = np.full((len(rows), n, n), np.nan, dtype=complex)
    residual = np.full(len(rows), np.nan)
    for k, r in enumerate(rows):
        expect(len(r) == width, f"CSV row {k} has {len(r)} cells, expected {width}")
        if na[k]:
            expect(all(c == "NA" for c in r[1:]), f"CSV row {k} is partly NA")
            continue
        vals = np.array([float(c) for c in r[1:]])
        Xi[k] = (vals[:-1:2] + 1j * vals[1:-1:2]).reshape(n, n)
        residual[k] = vals[-1]
    return omega, Xi, residual, na


# ---------------------------------------------------------------------------
# checks

def check_sweep(text: str, n: int, grid: np.ndarray, expect_na: set[int],
                reference) -> None:
    """Check a freqresp CSV row by row.

    ``reference(rows)`` gives the expected Xi at those row indices, shape
    (len(rows), n, n).  Rows in ``expect_na`` must be NA and no other row
    may be; the residual column must match ‖Xi·Xi† − I‖_max of the row.
    """
    omega, Xi, residual, na = read_csv(text, n)
    expect(omega.shape == grid.shape and np.array_equal(omega, grid),
           "omega column differs from the requested grid")
    expect(set(np.flatnonzero(na).tolist()) == expect_na,
           f"NA rows {np.flatnonzero(na).tolist()}, expected {sorted(expect_na)}")
    rows = np.flatnonzero(~na)
    own = np.abs(Xi[rows] @ np.conj(np.swapaxes(Xi[rows], 1, 2)) - np.eye(n))
    gap = max_abs(own.max(axis=(1, 2)) - residual[rows]) if rows.size else 0.0
    expect(gap <= EXACT_TOL, f"residual column off by {gap:.3e}")
    expected = reference(rows)
    err = max_abs(Xi[rows] - expected)
    expect(err <= TOL, f"Xi off the reference by {err:.3e}")


def check_reduced(text: str, ports: int, modes: int, probes, reference) -> None:
    """Check a reduced QNET component at probe points.

    ``reference(probes)`` gives the expected Xi there, shape
    (len(probes), ports, ports); the component's own Xi is computed here
    with a dense solve.  The trailing "# |C| = ..." comment must match C.
    """
    S, C, Omega, comments = read_component(text)
    expect(S.shape == (ports, ports) and Omega.shape == (modes, modes),
           f"reduced shape {S.shape}/{Omega.shape}, expected {ports} ports, {modes} modes")
    got = np.array([transfer(S, C, Omega, s)[0] for s in probes])
    err = max_abs(got - reference(np.asarray(probes)))
    expect(err <= TOL, f"reduced Xi off the reference by {err:.3e}")
    if modes:
        expect(len(comments) == 1 and comments[0].startswith("# |C| = "),
               "missing |C| comment")
        mags = parse_matrix(comments[0][len("# |C| = "):], C.shape)
        err = max_abs(mags - np.abs(C))
        expect(err <= EXACT_TOL, f"|C| comment off by {err:.3e}")
