"""Tests of the benchmark itself: generators, oracles, the failure gate, spans.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import slhnet  # noqa: E402
import slhnet.cli  # noqa: E402

import generators as gen  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SMALL_SWEEPS = [0, len(wl.CASCADES)]          # 16-unit cascade, n=2/m=8 dense
SMALL_ALGEBRA = [0]                            # one (2, 4) job: every kind of call


def _build(name, seed, tmp_path, slots):
    workdir = tmp_path / f"{name}-{seed}-{len(os.listdir(tmp_path))}"
    workdir.mkdir()
    return wl.WORKLOADS[name].build(seed, str(workdir), slots=slots), workdir


def _files(workdir):
    return {p: (workdir / p).read_text() for p in sorted(os.listdir(workdir))}


# ---------------------------------------------------------------------------
# generators

@pytest.mark.parametrize("name,slots", [("freqresp_sweep", SMALL_SWEEPS),
                                        ("reduce_chain", [0, 1])])
def test_network_inputs_are_deterministic_per_seed(name, slots, tmp_path):
    _, a = _build(name, 3, tmp_path, slots)
    _, b = _build(name, 3, tmp_path, slots)
    _, c = _build(name, 4, tmp_path, slots)
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)


@pytest.mark.parametrize("make", [
    lambda r: gen.dense_component(r, 4, 32),
    lambda r: gen.cayley_safe_component(r, 2, 4),
    lambda r: gen.commuting_component(r, 4, 32),
    lambda r: gen.Comp(gen.contractive_unitary(r, 2, 0.7), np.zeros((4, 0)), np.zeros((0, 0))),
])
def test_component_generators_are_deterministic_per_seed(make):
    a, b, c = (make(np.random.default_rng(s)) for s in (5, 5, 6))
    for x, y in ((a.S, b.S), (a.C, b.C), (a.Omega, b.Omega)):
        assert np.array_equal(x, y)
    assert not np.array_equal(a.S, c.S)


def test_generated_components_are_valid():
    rng = np.random.default_rng(0)
    for comp in (gen.dense_component(rng, 8, 128), gen.cayley_safe_component(rng, 4, 32),
                 gen.commuting_component(rng, 4, 32)):
        assert slhnet.validate(slhnet.LinearComponent(comp.S, comp.C, comp.Omega)).ok
    dense = gen.dense_component(rng, 8, 128)
    damping = -np.linalg.eigvals(-0.5 * dense.C.conj().T @ dense.C - 1j * dense.Omega).real
    assert damping.min() > 1e-3
    T = gen.contractive_unitary(rng, 3, 0.7)
    assert np.allclose(T @ T.conj().T, np.eye(6))
    assert np.isclose(np.linalg.norm(T[3:, 3:], 2), 0.7)


# ---------------------------------------------------------------------------
# oracles against the library

def test_transfer_formula_matches_library():
    comp = gen.dense_component(np.random.default_rng(1), 4, 32)
    lib = slhnet.eval_transfer(slhnet.LinearComponent(comp.S, comp.C, comp.Omega), 0.3 + 2j)
    Xi, xi = orc.transfer(comp.S, comp.C, comp.Omega, 0.3 + 2j)
    assert orc.max_abs(Xi - lib.Xi) < 1e-12 and orc.max_abs(xi - lib.xi) < 1e-12


def test_strat_residuals_match_library():
    comp = gen.cayley_safe_component(np.random.default_rng(2), 2, 4)
    lc = slhnet.LinearComponent(comp.S, comp.C, comp.Omega)
    sm = slhnet.ito_to_strat(lc)
    assert orc.strat_residuals(sm.E, sm.F, sm.K, comp.S, comp.C, comp.Omega) < 1e-12
    assert orc.strat_residuals(sm.E, sm.F, sm.K, comp.S, 1.01 * comp.C, comp.Omega) > 1e-3


@pytest.mark.parametrize("name,slots", [("freqresp_sweep", SMALL_SWEEPS),
                                        ("reduce_chain", [0]),
                                        ("algebra_mix", SMALL_ALGEBRA)])
def test_every_oracle_accepts_the_library(name, slots, tmp_path):
    jobs, _ = _build(name, 7, tmp_path, slots)
    for job in jobs:
        job.check(job.run())


def test_pole_on_the_grid_gives_exactly_one_na_row(tmp_path):
    seed = 7
    (job,), _ = _build("freqresp_sweep", seed, tmp_path, [min(wl.singular_cascades(seed))])
    out = job.run()
    job.check(out)
    assert sum(line.split(",")[1] == "NA" for line in out.splitlines()[1:]) == 1


# ---------------------------------------------------------------------------
# the gate

def _bump_cell(csv_text, row, col, by=1e-3):
    lines = csv_text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + by)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _rotate_s(qnet_text):
    """Multiply the scattering entry of a reduced one-port by e^{0.01i}."""
    lines = qnet_text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("  S = "))
    S = orc.parse_number(lines[row][len("  S = [["):-len("]];")])
    lines[row] = f"  S = [[{gen._num(S * np.exp(0.01j))}]];"
    return "\n".join(lines) + "\n"


def test_corrupted_sweep_fails_the_oracle(tmp_path):
    (job,), _ = _build("freqresp_sweep", 7, tmp_path, [0])
    out = job.run()
    for col in (0, 3, 9):        # omega, an entry of Xi, the residual column
        with pytest.raises(orc.OracleMismatch):
            job.check(_bump_cell(out, 4, col, by=1e-3 if col < 9 else 1e-9))
    lines = out.splitlines()
    cells = lines[3].split(",")
    lines[3] = ",".join([cells[0]] + ["NA"] * (len(cells) - 1))
    with pytest.raises(orc.OracleMismatch):
        job.check("\n".join(lines) + "\n")


def test_corrupted_reduction_fails_the_oracle(tmp_path):
    (job,), _ = _build("reduce_chain", 7, tmp_path, [0])
    with pytest.raises(orc.OracleMismatch):
        job.check(_rotate_s(job.run()))


def test_perturbed_algebra_results_fail_the_oracle():
    rng = np.random.default_rng(7)
    for job in (wl.algebra_call(kind, 2, 4, rng) for kind in wl.ALGEBRA_KINDS):
        out = job.run()
        if job.kind == "mobius":
            bad = out * np.exp(1e-6j)
        elif job.kind == "eval_transfer":
            bad = type(out)(s=out.s, Xi=out.Xi + 1e-6, xi=out.xi)
        elif job.kind == "commuting_form":
            bad = type(out)(gammas=out.gammas * (1 + 1e-6), epsilons=out.epsilons,
                            projectors=out.projectors, S=out.S)
        elif job.kind == "strat_roundtrip":
            sm, back = out
            bad = (sm, slhnet.LinearComponent(back.S, back.C * (1 + 1e-6), back.Omega))
        else:
            bad = slhnet.LinearComponent(out.S, out.C, out.Omega + 1e-6 * np.eye(out.m_modes))
        with pytest.raises(orc.OracleMismatch):
            job.check(bad)


def test_failures_are_counted(tmp_path):
    jobs, _ = _build("reduce_chain", 7, tmp_path, [0, 1, 2])
    digests, verdicts = run.reference_pass(jobs)
    assert verdicts == [None, None, None]

    honest = jobs[1].run
    jobs[1].run = lambda: honest() + " "          # output no longer deterministic

    def boom():
        raise RuntimeError("boom")
    jobs[2].run = boom
    records, passes = run.timed_loop(jobs, digests, verdicts, seed=1, seconds=0.5)
    assert passes
    assert {r.slot for r in records if r.failure} == {1, 2}
    assert {r.slot for r in records if not r.failure} == {0}
    assert run.end_to_end(records, passes, [1.0])["ok_ratio"][0] < 1.0

    out = jobs[0].run()
    wrong = dataclasses.replace(jobs[0], run=lambda: _rotate_s(out))
    _, verdicts = run.reference_pass([wrong])
    assert verdicts[0].startswith("oracle:")


def test_bare_checkout_is_refused(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "algebra_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# spans

def test_recorder_sees_nested_calls_and_restores_functions(tmp_path):
    (job,), _ = _build("freqresp_sweep", 7, tmp_path, [0])
    originals = (slhnet.cli.parse, slhnet.transfer.eval_transfer, slhnet.matkit.solve)
    rec = spans.Recorder()
    rec.job = 0
    with rec.installed():
        assert slhnet.cli.parse is not originals[0]
        job.run()
    assert (slhnet.cli.parse, slhnet.transfer.eval_transfer, slhnet.matkit.solve) == originals

    names = {s.id: s.name for s in rec.spans}
    parents = {(s.name, names.get(s.parent)) for s in rec.spans}
    assert ("transfer.eval_transfer", "transfer.freq_response") in parents
    assert ("matkit.solve", "transfer.eval_transfer") in parents
    assert ("netfile.parse", "cli.main") in parents
    totals = spans.layer_totals(rec.spans)
    G = job.sizes["G"]
    assert totals["transfer.eval_transfer"]["calls"] == G
    assert totals["transfer.freq_response"]["points"] == G
    assert all(t["self_s"] >= 0 for t in totals.values())
    root = next(s for s in rec.spans if s.parent is None)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root.end - root.start)


def test_metrics_match_the_benchmark_declaration(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    jobs, _ = _build("reduce_chain", 7, tmp_path, [0, 1, 2])
    digests, verdicts = run.reference_pass(jobs)

    records, passes = run.timed_loop(jobs, digests, verdicts, seed=1, seconds=0.3)
    e2e = run.end_to_end(records, passes, [1.0])
    assert [(k, u) for k, (_, u) in e2e.items()] == [
        (m["name"], m["unit"]) for m in declared["end_to_end"]]

    rec = spans.Recorder()
    records, passes = run.timed_loop(jobs, digests, verdicts, seed=1, seconds=0.3,
                                     recorder=rec)
    layers = run.per_layer(records, passes, rec)
    assert [(k, u) for k, (_, u) in layers.items()] == [
        (m["name"], m["unit"]) for m in declared["per_layer"]]
    assert layers["network.feedback_reduce.channels"][0] > 0
    assert layers["slh.concatenate.copy_ratio"][0] > 1
    assert layers["transfer.freq_response.points"][0] == 0
