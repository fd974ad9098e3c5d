"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Every tolerance here is pinned by the criterion it checks.
"""

import numpy as np

from slhnet import (LinearComponent, PartitionedComponent, StratonovichModel,
                    beamsplitter_loop, check_unitary_on_axis, concatenate,
                    eval_transfer, feedback_reduce, ito_table_residuals,
                    ito_to_strat, make_cavity, matkit, mixing_splitter, mobius,
                    parse, redheffer_star, serialize, series_product,
                    strat_to_ito, validate)
from slhnet.netfile import ParseError, component_document

from support import (cascade_transfer_check, cayley_from_generator, haar_unitary,
                     random_component, random_hermitian, random_partitioned,
                     random_rhp_points, random_splitter, sequential_star)


def _report(num: int, name: str, worst: float, tol: float, extra: str = ""):
    ok = worst <= tol
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {name}: worst residual {worst:.3e} "
          f"(tolerance {tol:.0e}){extra}")
    assert ok, f"criterion {num} ({name}): {worst:.3e} > {tol:.0e}"


def test_criterion_01_cavity_transfer_closed_form():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        gamma = rng.uniform(1e-6, 10.0)
        omega = rng.uniform(-5.0, 5.0)
        phi = rng.uniform(0.0, 2 * np.pi)
        cav = make_cavity(gamma, omega, phi)
        for s in random_rhp_points(rng, 20):
            got = eval_transfer(cav, s).Xi[0, 0]
            want = np.exp(1j * phi) * (s + 1j * omega - gamma / 2) \
                / (s + 1j * omega + gamma / 2)
            worst = max(worst, abs(got - want))
    _report(1, "cavity closed form", worst, 1e-12)


def test_criterion_02_axis_unitarity_sweep():
    rng = np.random.default_rng(1002)
    grid = np.linspace(-10.0, 10.0, 101)
    worst = 0.0
    for _ in range(100):
        comp = random_component(rng, int(rng.integers(1, 5)),
                                int(rng.integers(1, 5)))
        report = check_unitary_on_axis(comp, grid, tol=1e-8)
        worst = max(worst, report.max_residual)
    _report(2, "axis unitarity sweep", worst, 1e-8)


def test_criterion_03_feedback_reduction_oracle():
    rng = np.random.default_rng(1003)
    worst = 0.0
    all_valid = True
    for _ in range(100):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        pc = random_partitioned(rng, n, int(rng.integers(1, 4)), k)
        red = feedback_reduce(pc)
        all_valid = all_valid and validate(red).ok
        io, ii = list(pc.internal_out), list(pc.internal_in)
        eo, ei = list(pc.external_out), list(pc.external_in)
        for s in random_rhp_points(rng, 20):
            Xi = eval_transfer(pc.comp, s).Xi
            oracle = Xi[np.ix_(eo, ei)] + Xi[np.ix_(eo, ii)] @ np.linalg.solve(
                pc.eta - Xi[np.ix_(io, ii)], Xi[np.ix_(io, ei)])
            worst = max(worst, matkit.max_abs(eval_transfer(red, s).Xi - oracle))
    assert all_valid, "some reduced component failed validate()"
    _report(3, "feedback reduction vs frequency-domain elimination", worst, 1e-8,
            "; all reduced components valid")


def test_criterion_04_series_law():
    rng = np.random.default_rng(1004)
    worst = 0.0
    exact_s = True
    for _ in range(25):
        n = int(rng.integers(1, 4))
        g1 = random_component(rng, n, int(rng.integers(0, 3)))
        g2 = random_component(rng, n, int(rng.integers(0, 3)))
        combined = concatenate(g1, g2, prefixes=("g1", "g2"))
        pc = PartitionedComponent(combined, internal_out=tuple(range(n)),
                                  internal_in=tuple(range(n, 2 * n)),
                                  eta=np.eye(n))
        red = feedback_reduce(pc)
        ser = series_product(g2, g1)
        worst = max(worst, matkit.max_abs(red.S - ser.S),
                    matkit.max_abs(red.C - ser.C),
                    matkit.max_abs(red.Omega - ser.Omega))
        exact_s = exact_s and np.array_equal(red.S, g2.S @ g1.S)
    assert exact_s, "S block of the series reduction deviates from S2@S1"
    _report(4, "series law (eta = 1 wiring vs product form)", worst, 1e-12,
            "; S block exact")


def test_criterion_05_cascade_factorization():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        g1 = random_component(rng, n, int(rng.integers(1, 4)))
        g2 = random_component(rng, n, int(rng.integers(1, 4)))
        report = cascade_transfer_check(g2, g1, random_rhp_points(rng, 20),
                                        tol=1e-10)
        worst = max(worst, report.max_residual)
    _report(5, "cascade transfer factorization", worst, 1e-10)


def test_criterion_06_beamsplitter_closed_loop_rates():
    rng = np.random.default_rng(1006)
    gamma0 = 3.0
    worst = 0.0
    for alpha in np.arange(-0.9, 0.95, 0.1):
        loop = beamsplitter_loop(mixing_splitter(float(alpha)),
                                 make_cavity(gamma0))
        gamma_expected = (1 - alpha) / (1 + alpha) * gamma0
        worst = max(worst, abs(abs(loop.C[0, 0]) ** 2 - gamma_expected))
        worst = max(worst, matkit.max_abs(loop.Omega))
        for s in random_rhp_points(rng, 10):
            want = (s - gamma_expected / 2) / (s + gamma_expected / 2)
            worst = max(worst, abs(eval_transfer(loop, s).Xi[0, 0] - want))
    _report(6, "beam-splitter loop rate renormalization", worst, 1e-10)


def test_criterion_07_mobius_consistency():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(50):
        n2 = int(rng.integers(1, 3))
        T = random_splitter(rng, int(rng.integers(1, 3)), n2)
        plant = random_component(rng, n2, int(rng.integers(1, 3)))
        loop = beamsplitter_loop(T, plant)
        for s in random_rhp_points(rng, 20):
            got = eval_transfer(loop, s).Xi
            want = mobius(T, eval_transfer(plant, s).Xi)
            worst = max(worst, matkit.max_abs(got - want))
    unitary_worst = 0.0
    for _ in range(200):
        n2 = int(rng.integers(1, 4))
        T = random_splitter(rng, int(rng.integers(1, 4)), n2)
        X = haar_unitary(rng, n2)
        unitary_worst = max(unitary_worst, matkit.unitarity_residual(mobius(T, X)))
    worst = max(worst, unitary_worst)
    _report(7, "Moebius transform consistency", worst, 1e-9,
            f"; unitarity preservation worst {unitary_worst:.3e}")


def test_criterion_08_redheffer_star():
    rng = np.random.default_rng(1008)
    worst_order = 0.0
    for _ in range(50):
        a = random_component(rng, 2, int(rng.integers(1, 3)))
        b = random_component(rng, 2, int(rng.integers(1, 3)))
        star = redheffer_star(a, b, 1)
        for first_edge in (1, 2):
            seq = sequential_star(a, b, first_edge)
            worst_order = max(worst_order,
                              matkit.max_abs(star.S - seq.S),
                              matkit.max_abs(star.C - seq.C),
                              matkit.max_abs(star.Omega - seq.Omega))
    worst_display = 0.0
    for _ in range(50):
        a = random_component(rng, 2, int(rng.integers(1, 3)))
        b = random_component(rng, 2, int(rng.integers(1, 3)))
        star = redheffer_star(a, b, 1)
        s11a, s12a, s21a, s22a = a.S[0, 0], a.S[0, 1], a.S[1, 0], a.S[1, 1]
        s33b, s34b, s43b, s44b = b.S[0, 0], b.S[0, 1], b.S[1, 0], b.S[1, 1]
        gain = 1.0 / (1.0 - s22a * s33b)
        display = np.array([
            [s11a + s12a * s33b * gain * s21a, s12a * gain * s34b],
            [s43b * gain * s21a, s44b + s43b * gain * s22a * s34b]])
        worst_display = max(worst_display, matkit.max_abs(star.S - display))
    worst = max(worst_order, worst_display)
    _report(8, "Redheffer star product", worst, 1e-10,
            f"; displayed S-block formulas worst {worst_display:.3e}")


def test_criterion_09_stratonovich_round_trip():
    rng = np.random.default_rng(1009)
    worst_trip = 0.0
    worst_exp = 0.0
    worst_res = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        F = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        sm = StratonovichModel(E=random_hermitian(rng, n), F=F,
                               K=random_hermitian(rng, m))
        comp = strat_to_ito(sm)
        worst_res = max(worst_res, ito_table_residuals(sm, comp).worst)
        worst_exp = max(worst_exp,
                        matkit.max_abs(comp.S - cayley_from_generator(sm.E)))
        back = ito_to_strat(comp)
        worst_trip = max(worst_trip,
                         matkit.max_abs(back.E - sm.E),
                         matkit.max_abs(back.F - sm.F),
                         matkit.max_abs(back.K - sm.K))
        again = strat_to_ito(back)
        worst_trip = max(worst_trip,
                         matkit.max_abs(again.S - comp.S),
                         matkit.max_abs(again.C - comp.C),
                         matkit.max_abs(again.Omega - comp.Omega))
    assert worst_res <= 1e-10, f"consistency residuals {worst_res:.3e} > 1e-10"
    assert worst_exp <= 1e-9, f"exponential form deviation {worst_exp:.3e} > 1e-9"
    _report(9, "Stratonovich round trip", worst_trip, 1e-9,
            f"; residuals {worst_res:.3e}; exp-form {worst_exp:.3e}")


CAVITY_SRC = """\
component cavity {
  inputs = 1;
  modes = 1;
  S = [[1]];
  C = [[1]];
  Omega = [[0]];
}
"""

FIGURE6_SRC = """\
component cavity {
  inputs = 1;
  modes = 1;
  S = [[1]];
  C = [[1.7320508075688772]];
  Omega = [[0]];
}
component splitter {
  inputs = 2;
  modes = 0;
  S = [[0.5,0.86602540378443871],[0.86602540378443871,-0.5]];
  C = [];
  Omega = [];
}
network {
  use bs : splitter;
  use cav : cavity;
  connect bs.out[1] -> cav.in[0];
  connect cav.out[0] -> bs.in[1];
  external bs.in[0] as drive;
}
"""


def _corpus() -> list[str]:
    rng = np.random.default_rng(1010)
    sources = [CAVITY_SRC, FIGURE6_SRC]
    # parametrized cavities exercising the number syntax
    for gamma, omega, phi in [(2.0, -1.5, 0.3), (0.25, 4.0, 2.0),
                              (9.5, 0.0, 5.5), (1e-3, -0.125, 1.0)]:
        comp = make_cavity(gamma, omega, phi)
        sources.append(serialize(component_document("cavity", comp)))
    # random multiport components with complex entries
    for i in range(8):
        n = int(rng.integers(1, 4))
        comp = random_component(rng, n, int(rng.integers(0, 3)))
        sources.append(serialize(component_document(f"block{i}", comp)))
    # series chain of three cavities
    sources.append(CAVITY_SRC + """\
network {
  use a : cavity;
  use b : cavity;
  use c : cavity;
  connect a.out[0] -> b.in[0];
  connect b.out[0] -> c.in[0];
  external a.in[0] as drive;
}
""")
    # two-component file without a network
    sources.append(CAVITY_SRC + CAVITY_SRC.replace("component cavity",
                                                   "component cavity2"))
    # comments, shuffled keys, ugly whitespace
    sources.append("""\
# shuffled keys and comments
component odd {
  Omega = [[0.5]] ;   # detuning
  C=[[0.1-0.2i]];
  modes = 1;
  S = [ [ 0-1i ] ];
  inputs=1;
}
""")
    # fully fed-back ring (no external inputs)
    sources.append(CAVITY_SRC + """\
network {
  use a : cavity;
  connect a.out[0] -> a.in[0];
}
""")
    # unconnected instances with declared externals in reverse order
    sources.append(CAVITY_SRC + """\
network {
  use a : cavity;
  use b : cavity;
  external b.in[0] as probe;
  external a.in[0] as drive;
}
""")
    # network block before its component definitions
    sources.append("""\
network {
  use x : late;
}
component late {
  inputs = 1;
  modes = 0;
  S = [[0-1i]];
  C = [];
  Omega = [];
}
""")
    return sources


VIOLATIONS = [
    ("component cavity {\n  inputs = 1\n  modes = 1;\n}\n", 3),
    ("component cavity {\n  inputs = 1;\n  modes = 1;\n  S = [[1]];\n"
     "  C = [[1]];\n  Omega = [[0];\n}\n", 6),
    ("network {\n  use a cavity;\n}\n", 2),
    ("component c {\n  inputs = 1;\n  modes = 1;\n  S = [[1]];\n  C = [[1]];\n"
     "  Omega = [[0]];\n}\nnetwork {\n  use a : c;\n"
     "  connect a.out[0] -> a.out[0];\n}\n", 10),
    ("component c {\n  inputs = 1;\n  modes = 1;\n  S = [[1,2]];\n  C = [[1]];\n"
     "  Omega = [[0]];\n}\n", 4),
    ("component c {\n  inputs = 1;\n  beans = 3;\n}\n", 3),
]


def test_criterion_10_parser_round_trip():
    sources = _corpus()
    assert len(sources) >= 20, f"corpus has only {len(sources)} files"
    for i, src in enumerate(sources):
        doc = parse(src)
        again = parse(serialize(doc))
        assert again == doc, f"round trip failed on corpus file {i}"
    for src, line in VIOLATIONS:
        try:
            parse(src)
        except ParseError as err:
            assert err.line == line, \
                f"expected error on line {line}, got line {err.line}: {err.message}"
        else:
            raise AssertionError(f"fixture expected ParseError on line {line}")
    print(f"[criterion 10] PASS parser round trip: {len(sources)}-file corpus "
          f"exact; {len(VIOLATIONS)} violations located correctly")
