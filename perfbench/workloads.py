"""The three workloads: pools of seeded jobs with their oracles.

A workload is a fixed pool of distinct jobs.  Sizes are fixed per pool
slot; the seed draws every parameter, the placement of loops and poles,
and the order in which the timed loop visits the pool.  Each slot draws
from its own generator ``default_rng([seed, slot])``, so any subset of the
pool can be rebuilt on its own (the set-up probe rebuilds only the slots
it warms up).

Jobs call slhnet through module attributes looked up at call time, so a
span recorder that rebinds those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import generators as gen
import oracles as orc


class ExitCodeError(RuntimeError):
    """The command line returned a nonzero exit code."""


@dataclass
class Job:
    kind: str
    sizes: dict                       # n ports, m modes, k channels, G grid points
    run: Callable[[], object]         # one call into slhnet; returns its output
    digest: Callable[[object], bytes]
    check: Callable[[object], None]   # raises orc.OracleMismatch


def _lib(module: str):
    return sys.modules[f"slhnet.{module}"]


def _cli(argv: list[str]) -> Callable[[], str]:
    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _lib("cli").main(argv)
        if code != 0:
            raise ExitCodeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()
    return run


def _text_digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode()).digest()


def _array_digest(*arrays) -> bytes:
    h = hashlib.blake2b()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _rng(seed: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, slot])


# ---------------------------------------------------------------------------
# freqresp_sweep

# Every pool below has 5·(2j+1) slots (15 or 35) and the timed loop runs
# each slot once per pass.  Over whole passes the 50th and 90th percentile
# ranks then fall mid-way through one slot's block of samples in cost
# order, never on the edge between two slots, whatever the slots cost.

# (units, grid points) of the two-port cascades; the drift of a cascade is
# triangular in chain order, so strongly non-normal.
CASCADES = [(16, 101), (16, 401), (24, 301), (32, 101), (32, 201), (48, 101),
            (48, 201), (64, 101), (64, 301), (96, 201), (128, 201)]
# (ports, modes, grid points) of the dense components; roughly normal drift.
DENSE = [(2, 8, 201), (4, 32, 101), (8, 64, 101), (8, 128, 51)]
SINGULAR_CASCADES = 2     # cascades swept at sigma = 0 with a pole on the grid
SIGMA_MIN = 1e-10         # the command line's default offset for 0+


def _sweep_job(kind: str, path: str, text: str, n: int, span: float, count: int,
               sigma: float | None, expect_na: set[int], reference, sizes: dict) -> Job:
    """``qnet freqresp`` of ``text`` on the grid linspace(−span, span, count)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    argv = ["freqresp", path, "--grid", f"{-span!r}:{span!r}:{count}"]
    if sigma is not None:
        argv += ["--sigma", repr(sigma)]
    s_real = SIGMA_MIN if sigma is None else sigma
    grid = np.linspace(-span, span, count)

    def check(out: str) -> None:
        orc.check_sweep(out, n, grid, expect_na,
                        lambda rows: reference(s_real + 1j * grid[rows]))
    return Job(kind, sizes, _cli(argv), _text_digest, check)


def singular_cascades(seed: int) -> set[int]:
    """The cascade slots that this seed sweeps at sigma = 0 with a pole on the grid."""
    rng = np.random.default_rng([seed, len(CASCADES) + len(DENSE)])
    return set(rng.choice(len(CASCADES), SINGULAR_CASCADES, replace=False).tolist())


def freqresp_sweep(seed: int, workdir: str, slots=None) -> list[Job]:
    singular = singular_cascades(seed)
    jobs = []
    for slot in (range(len(CASCADES) + len(DENSE)) if slots is None else slots):
        rng = _rng(seed, slot)
        path = os.path.join(workdir, f"sweep{slot}.qnet")
        if slot < len(CASCADES):
            units, count = CASCADES[slot]
            span = gen.DETUNING + 5.0
            grid = np.linspace(-span, span, count)
            lossless, sigma, expect_na = None, None, set()
            if slot in singular:
                row = int(rng.integers(1, count - 1))
                lossless = (int(rng.integers(0, units)), -float(grid[row]))
                sigma, expect_na = 0.0, {row}
            net, chain_units = gen.cascade(rng, units, lossless)
            job = _sweep_job("freqresp_cascade", path, gen.network_text(net), 2, span, count,
                             sigma, expect_na,
                             lambda s, u=chain_units: orc.cascade_transfer(u, s),
                             {"n": 2, "m": units, "k": len(net.edges), "G": count})
        else:
            n, m, count = DENSE[slot - len(CASCADES)]
            comp = gen.dense_component(rng, n, m)
            span = m / 2 + 2.0

            def reference(s, c=comp):
                return np.array([orc.transfer(c.S, c.C, c.Omega, x)[0] for x in s])
            job = _sweep_job("freqresp_dense", path, gen.component_block("dense", comp), n,
                             span, count, None, set(), reference,
                             {"n": n, "m": m, "k": 0, "G": count})
        jobs.append(job)
    return jobs


# ---------------------------------------------------------------------------
# reduce_chain

# Chain lengths.  Two of fifteen slots (2/15 of the jobs) are at the top size,
# so the 90th percentile falls among them and is set by the ~N^3 assembly.
# The median of a pass is the middle one of three equal chains.
CHAINS = [50, 50, 55, 60, 65, 70, 100, 100, 100, 125, 140, 160, 200, 400, 400]
LOOP_SHARE = 0.05
PROBES = [0.4 + 0.9j, 1.3 - 2.6j, 0.15 + 7.3j, 2.0 + 0.0j]


def reduce_chain(seed: int, workdir: str, slots=None) -> list[Job]:
    jobs = []
    for slot in (range(len(CHAINS)) if slots is None else slots):
        rng = _rng(seed, slot)
        units = CHAINS[slot]
        net, chain_units = gen.chain(rng, units, LOOP_SHARE)
        path = os.path.join(workdir, f"chain{slot}.qnet")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.network_text(net))

        def check(out: str, u=chain_units, m=units) -> None:
            orc.check_reduced(out, 1, m, PROBES,
                              lambda s: orc.chain_transfer(u, s)[:, None, None])
        jobs.append(Job("reduce", {"n": 1, "m": units, "k": len(net.edges), "G": 0},
                        _cli(["reduce", path]), _text_digest, check))
    return jobs


# ---------------------------------------------------------------------------
# algebra_mix

# A job makes one call of each kind on inputs of one size: single calls take
# 0.05-3 ms, and which of them sits at a given percentile shifts from one
# process to the next, while the sum of seven calls holds steady.
ALGEBRA_KINDS = ["series_product", "redheffer_star", "beamsplitter_loop", "mobius",
                 "eval_transfer", "commuting_form", "strat_roundtrip"]
# (ports, modes) per slot: 9 small and 6 larger jobs, 15 slots.
ALGEBRA_LAYOUT = [(2, 4)] * 9 + [(4, 32)] * 6
ALPHA = 0.7               # norm of every loop block: loop solves stay well posed


def _component(comp: gen.Comp):
    return _lib("slh").LinearComponent(comp.S, comp.C, comp.Omega)


def _comp_digest(c) -> bytes:
    return _array_digest(c.S, c.C, c.Omega)


def _same_transfer(got, want, probes) -> None:
    """Xi of ``got`` equals want(s) at every probe."""
    for s in probes:
        err = orc.max_abs(orc.transfer(got.S, got.C, got.Omega, s)[0] - want(s))
        orc.expect(err <= orc.TOL, f"Xi off the reference by {err:.3e} at s={s}")


def _xi(c: gen.Comp, s: complex) -> np.ndarray:
    return orc.transfer(c.S, c.C, c.Omega, s)[0]


def algebra_call(kind: str, n: int, m: int, rng: np.random.Generator) -> Job:
    """One library call of ``kind`` on fresh seeded inputs with n ports, m modes."""
    probes = PROBES[:3]
    sizes = {"n": n, "m": m, "k": 0, "G": 0}
    if kind == "series_product":
        g1, g2 = gen.dense_component(rng, n, m), gen.dense_component(rng, n, m)
        a1, a2 = _component(g1), _component(g2)
        sizes.update(m=2 * m, k=n)
        return Job(kind, sizes, lambda: _lib("network").series_product(a2, a1),
                   _comp_digest,
                   lambda r: _same_transfer(r, lambda s: _xi(g2, s) @ _xi(g1, s), probes))
    if kind == "redheffer_star":
        k = n // 2
        a, b = gen.dense_component(rng, n, m), gen.dense_component(rng, n, m)
        a = gen.Comp(gen.contractive_unitary(rng, k, ALPHA), a.C, a.Omega)
        b = gen.Comp(gen.contractive_unitary(rng, k, ALPHA), b.C, b.Omega)
        la, lb = _component(a), _component(b)
        wires = [(n - k + j, n + j) for j in range(k)] + [(n + j, n - k + j) for j in range(k)]
        sizes.update(n=2 * n - 2 * k, m=2 * m, k=2 * k)
        return Job(kind, sizes, lambda: _lib("network").redheffer_star(la, lb, k),
                   _comp_digest,
                   lambda r: _same_transfer(
                       r, lambda s: orc.eliminate(orc.block_diag(_xi(a, s), _xi(b, s)),
                                                  wires), probes))
    if kind in ("beamsplitter_loop", "mobius"):
        T = gen.contractive_unitary(rng, n, ALPHA)
        splitter = _lib("network").BeamSplitter(T, n, n)
        sizes.update(k=2 * n)
        if kind == "mobius":
            X = gen.haar_unitary(rng, n)
            sizes.update(m=0)

            def check(r):
                want = orc.mobius(T, n, X)
                orc.expect(orc.max_abs(r - want) <= orc.TOL, "Möbius transform differs")
                orc.expect(orc.max_abs(r @ r.conj().T - np.eye(n)) <= orc.TOL,
                           "Möbius transform of a unitary is not unitary")
            return Job(kind, sizes, lambda: _lib("network").mobius(splitter, X),
                       _array_digest, check)
        plant = gen.dense_component(rng, n, m)
        lp = _component(plant)
        return Job(kind, sizes, lambda: _lib("network").beamsplitter_loop(splitter, lp),
                   _comp_digest,
                   lambda r: _same_transfer(r, lambda s: orc.mobius(T, n, _xi(plant, s)),
                                            probes))
    if kind == "eval_transfer":
        c = gen.dense_component(rng, n, m)
        lc = _component(c)
        s = complex(rng.uniform(0.05, 2.0), rng.uniform(-m / 2, m / 2))
        sizes.update(G=1)

        def check(r):
            Xi, xi = orc.transfer(c.S, c.C, c.Omega, s)
            err = max(orc.max_abs(r.Xi - Xi), orc.max_abs(r.xi - xi))
            orc.expect(err <= orc.TOL, f"eval_transfer off by {err:.3e}")
        return Job(kind, sizes, lambda: _lib("transfer").eval_transfer(lc, s),
                   lambda r: _array_digest(r.Xi, r.xi), check)
    if kind == "commuting_form":
        c = gen.commuting_component(rng, n, m)
        lc = _component(c)

        def check(r):
            gammas = np.linalg.eigvalsh(c.C @ c.C.conj().T)
            orc.expect(r.gammas.shape == gammas.shape
                       and orc.max_abs(np.sort(r.gammas) - gammas) <= orc.TOL * max(1, gammas[-1]),
                       "commuting_form spectrum differs from eig(CC†)")

            def allpass(s):
                acc = sum((s - g / 2 + 1j * e) / (s + g / 2 + 1j * e) * P
                          for g, e, P in zip(r.gammas, r.epsilons, r.projectors))
                return acc @ c.S
            for s in probes:
                err = orc.max_abs(allpass(s) - _xi(c, s))
                orc.expect(err <= orc.TOL, f"all-pass sum off Xi by {err:.3e}")
        return Job(kind, sizes, lambda: _lib("transfer").commuting_form(lc),
                   lambda r: _array_digest(r.gammas, r.epsilons, r.S, *r.projectors),
                   check)
    if kind == "strat_roundtrip":
        c = gen.cayley_safe_component(rng, n, m)
        lc = _component(c)

        def roundtrip():
            sm = _lib("stratcal").ito_to_strat(lc)
            return sm, _lib("stratcal").strat_to_ito(sm)

        def check(r):
            sm, back = r
            res = orc.strat_residuals(sm.E, sm.F, sm.K, c.S, c.C, c.Omega)
            orc.expect(res <= orc.TOL, f"consistency residual {res:.3e}")
            err = max(orc.max_abs(back.S - c.S), orc.max_abs(back.C - c.C),
                      orc.max_abs(back.Omega - c.Omega))
            orc.expect(err <= orc.TOL, f"round trip moved the triple by {err:.3e}")
        return Job(kind, sizes, roundtrip,
                   lambda r: _array_digest(r[0].E, r[0].F, r[0].K, r[1].S, r[1].C, r[1].Omega),
                   check)
    raise ValueError(f"unknown algebra kind {kind!r}")


def _bundle(n: int, m: int, calls: list[Job]) -> Job:
    def digest(outs) -> bytes:
        return b"".join(c.digest(o) for c, o in zip(calls, outs))

    def check(outs) -> None:
        for c, o in zip(calls, outs):
            c.check(o)
    sizes = {"n": n, "m": m, "k": sum(c.sizes["k"] for c in calls),
             "G": sum(c.sizes["G"] for c in calls)}
    return Job("algebra", sizes, lambda: [c.run() for c in calls], digest, check)


def algebra_mix(seed: int, workdir: str, slots=None) -> list[Job]:
    jobs = []
    for slot in (range(len(ALGEBRA_LAYOUT)) if slots is None else slots):
        rng = _rng(seed, slot)
        n, m = ALGEBRA_LAYOUT[slot]
        jobs.append(_bundle(n, m, [algebra_call(kind, n, m, rng) for kind in ALGEBRA_KINDS]))
    return jobs


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    build: Callable[..., list[Job]]
    warmup_slots: tuple[int, ...]     # one slot per job kind, at fixed sizes


WORKLOADS = {
    "freqresp_sweep": Workload(freqresp_sweep, (4, len(CASCADES) + 1)),
    "reduce_chain": Workload(reduce_chain, (7,)),
    "algebra_mix": Workload(algebra_mix, (0,)),
}
