"""End-to-end tests of the qnet command line."""

import csv
import io
import warnings

import numpy as np
import pytest

from slhnet import (LinearComponent, build_partitioned, check_unitary_on_axis, drift,
                    feedback_reduce, matkit, parse, series_product)
from slhnet.cli import _build_parser, main
from slhnet.netfile import (component_document, parse_matrix_assignments,
                            serialize)
from slhnet.matkit import gram_residual as axis_residual
from slhnet.transfer import SingularAtS, eval_transfer, freq_response

from support import format_float, haar_unitary, random_component, random_network

CAVITY = """\
component cavity {
  inputs = 1;
  modes = 1;
  S = [[1]];
  C = [[1]];
  Omega = [[0]];
}
"""

BSLOOP = """\
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


@pytest.fixture
def cavity_file(tmp_path):
    path = tmp_path / "cavity.qnet"
    path.write_text(CAVITY)
    return str(path)


@pytest.fixture
def bsloop_file(tmp_path):
    path = tmp_path / "bsloop.qnet"
    path.write_text(BSLOOP)
    return str(path)


class TestCheck:
    def test_valid_file(self, cavity_file, capsys):
        assert main(["check", cavity_file]) == 0
        assert "cavity: valid" in capsys.readouterr().out

    def test_invalid_component(self, tmp_path, capsys):
        path = tmp_path / "bad.qnet"
        path.write_text(CAVITY.replace("S = [[1]];", "S = [[2]];"))
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "S not unitary" in out
        assert "3" in out   # residual |2^2 - 1|

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.qnet"
        path.write_text("component { }")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_file_without_components(self, tmp_path, capsys):
        path = tmp_path / "empty.qnet"
        path.write_text("# no blocks\n")
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == "no components defined\n"

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "/nonexistent/nothing.qnet"]) == 4

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300", "abc"])
    def test_bad_tol_usage(self, tmp_path, tol, capsys):
        # S = [[2]] is invalid at every finite nonnegative tolerance below 3
        path = tmp_path / "bad.qnet"
        path.write_text(CAVITY.replace("S = [[1]];", "S = [[2]];"))
        assert main(["check", str(path), "--tol", tol]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err and "--tol" in captured.err

    @pytest.mark.parametrize("tol, code", [("0", 1), ("-0", 1), ("2.9", 1), ("3", 0), ("1e300", 0)])
    def test_finite_nonnegative_tol(self, tmp_path, tol, code, capsys):
        path = tmp_path / "bad.qnet"
        path.write_text(CAVITY.replace("S = [[1]];", "S = [[2]];"))
        assert main(["check", str(path), "--tol", tol]) == code

    @pytest.mark.parametrize("old, new", [
        ("inputs = 1;", "inputs = 1e400;"),
        ("modes = 1;", "modes = 1e400;"),
        ("out[0]", "out[1e400]"),
        ("in[0]", "in[1e400]"),
    ])
    def test_overflowing_integer_is_parse_error(self, tmp_path, capsys, old, new):
        path = tmp_path / "overflow.qnet"
        path.write_text(BSLOOP.replace(old, new, 1))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "nonnegative integer" in err and "Traceback" not in err


    @pytest.mark.parametrize("count", ["1e300", "1e18"])
    @pytest.mark.parametrize("command", ["check", "reduce", "freqresp"])
    def test_huge_count_is_parse_error(self, tmp_path, capsys, command, count):
        path = tmp_path / "huge.qnet"
        path.write_text("component c {\n  inputs = 0;\n  modes = COUNT;\n"
                        "  S = [];\n  C = [];\n  Omega = [];\n}\n".replace("COUNT", count))
        extra = ["--grid", "0:1:2"] if command == "freqresp" else []
        assert main([command, str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert "line 3, column 11" in err and "at most" in err

class TestReduce:
    def test_two_components_without_network_usage(self, tmp_path, capsys):
        path = tmp_path / "two.qnet"
        path.write_text(CAVITY + CAVITY.replace("cavity", "other"))
        assert main(["reduce", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: {path}: defines 2 components "
                                "but no network block\n")

    def test_bsloop_coupling_rate(self, bsloop_file, capsys):
        # alpha = 0.5 splitter around a gamma0 = 3 cavity: |C| = 1
        assert main(["reduce", bsloop_file]) == 0
        out = capsys.readouterr().out
        doc = parse(out)
        comp = doc.components["reduced"]
        assert abs(abs(comp.C[0, 0]) - 1.0) <= 1e-10
        assert matkit.max_abs(comp.Omega) <= 1e-10
        assert "# |C| =" in out

    def test_no_network_single_component_passthrough(self, cavity_file, capsys):
        assert main(["reduce", cavity_file]) == 0
        doc = parse(capsys.readouterr().out)
        assert doc.components["reduced"].S[0, 0] == 1.0

    def test_algebraic_loop_exit_code(self, tmp_path, capsys):
        path = tmp_path / "loop.qnet"
        path.write_text(CAVITY + """\
network {
  use a : cavity;
  connect a.out[0] -> a.in[0];
}
""")
        assert main(["reduce", str(path)]) == 3

    def test_coupling_magnitudes_comment(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        C = rng.standard_normal((2, 40)) + 1j * rng.standard_normal((2, 40))
        comp = LinearComponent(haar_unitary(rng, 2), C, np.zeros((40, 40)))
        path = tmp_path / "dense.qnet"
        path.write_text(serialize(component_document("dense", comp)))
        assert main(["reduce", str(path)]) == 0
        comment = capsys.readouterr().out.splitlines()[-1]
        mags = ",".join("[" + ",".join(format_float(abs(z)) for z in row) + "]"
                        for row in comp.C)
        assert comment == f"# |C| = [{mags}]"

    def test_large_chain_is_deterministic_and_draws_no_random_numbers(self, tmp_path, capsys,
                                                                        monkeypatch):
        doc = random_network(np.random.default_rng(431), units=400)
        path = tmp_path / "chain.qnet"
        path.write_text(serialize(doc))
        sparse_factors = []
        factor = matkit.factor
        monkeypatch.setattr(matkit, "factor", lambda m: sparse_factors.append(
            isinstance(m, matkit._Compressed)) or factor(m))
        state = np.random.get_state()
        outputs = []
        for _ in range(2):
            assert main(["reduce", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        after = np.random.get_state()
        assert sparse_factors == [True, True]      # k > matkit.SPARSE_MIN: the sparse LU
        assert outputs[0] == outputs[1] and outputs[0].startswith("component reduced")
        assert state[0] == after[0] and np.array_equal(state[1], after[1])
        assert state[2:] == after[2:]

    def test_output_file(self, bsloop_file, tmp_path, capsys):
        target = tmp_path / "reduced.qnet"
        assert main(["reduce", bsloop_file, "-o", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert "component reduced" in target.read_text()


class TestTf:
    def test_cavity_at_half(self, cavity_file, capsys):
        assert main(["tf", cavity_file, "--s", "0.5,0"]) == 0
        out = capsys.readouterr().out
        found = parse_matrix_assignments(
            "\n".join(l for l in out.splitlines() if not l.startswith("#")))
        assert abs(found["Xi"][0, 0]) <= 1e-14
        assert abs(found["xi"][0, 0] - 1.0) <= 1e-14

    def test_pole_exit_code(self, tmp_path, capsys):
        path = tmp_path / "osc.qnet"
        path.write_text(CAVITY.replace("C = [[1]];", "C = [[0]];")
                        .replace("Omega = [[0]];", "Omega = [[1]];"))
        assert main(["tf", str(path), "--s", "0,-1"]) == 3

    def test_bad_s_usage(self, cavity_file):
        assert main(["tf", cavity_file, "--s", "abc"]) == 4

    @pytest.mark.parametrize("s", ["nan,0", "0,inf", "1e400,0", "-inf,nan", "1,abc"])
    def test_non_finite_s_usage(self, cavity_file, s, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["tf", cavity_file, "--s", s]) == 4
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "--s" in captured.err
        assert "invalid model" not in captured.err
        assert captured.out == ""


class TestFreqresp:
    def test_csv_shape_and_unitarity(self, cavity_file, capsys):
        assert main(["freqresp", cavity_file, "--grid", "-5:5:101"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 102
        header = rows[0]
        assert header[0] == "omega"
        assert header[1] == "re(Xi[0,0])" and header[2] == "im(Xi[0,0])"
        assert header[-1] == "unitarity_residual"
        assert len(header) == 1 + 2 * 1 * 1 + 1
        for row in rows[1:]:
            assert len(row) == len(header)
            assert float(row[-1]) <= 1e-8
        omegas = [float(r[0]) for r in rows[1:]]
        assert omegas == list(np.linspace(-5, 5, 101))

    def test_multiport_column_count(self, tmp_path, capsys):
        path = tmp_path / "two.qnet"
        path.write_text("""\
component pair {
  inputs = 2;
  modes = 1;
  S = [[0,1],[1,0]];
  C = [[1],[1i]];
  Omega = [[0.3]];
}
""")
        assert main(["freqresp", str(path), "--grid", "0:1:3"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows[0]) == 1 + 2 * 4 + 1
        assert all(len(r) == len(rows[0]) for r in rows[1:])

    def test_pole_marked_na(self, tmp_path, capsys):
        path = tmp_path / "osc.qnet"
        path.write_text(CAVITY.replace("C = [[1]];", "C = [[0]];")
                        .replace("Omega = [[0]];", "Omega = [[1]];"))
        # sigma 0 puts the grid point omega = -1 exactly on the pole
        assert main(["freqresp", str(path), "--grid", "-1:1:3",
                     "--sigma", "0"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[1].split(",")[1] == "NA"
        assert rows[1].split(",")[-1] == "NA"
        assert rows[3].split(",")[1] != "NA"

    def test_pole_row_between_finite_rows_matches_cellwise_format(self, tmp_path, capsys):
        path = tmp_path / "osc.qnet"
        path.write_text(CAVITY.replace("C = [[1]];", "C = [[0]];")
                        .replace("Omega = [[0]];", "Omega = [[1]];"))
        # 201 points, so the cells take the array route; omega = -1, the pole, is row 101
        assert main(["freqresp", str(path), "--grid", "-2:0:201", "--sigma", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()
        comp = parse(path.read_text()).components["cavity"]
        expected = ['omega,"re(Xi[0,0])","im(Xi[0,0])",unitarity_residual']
        grid = np.linspace(-2, 0, 201)
        Xi, _, singular = freq_response(comp, grid, sigma=0.0)
        for w, X, pole in zip(grid.tolist(), Xi, singular):
            if pole:
                expected.append(format_float(w) + ",NA,NA,NA")
                continue
            residual = axis_residual(X[None])[0]
            expected.append(",".join(format_float(v) for v in
                                     (w, X[0, 0].real, X[0, 0].imag, residual)))
        assert [i for i, row in enumerate(rows) if "NA" in row] == [101]
        assert rows == expected

    def test_determinism(self, bsloop_file, capsys):
        assert main(["freqresp", bsloop_file, "--grid", "-2:2:21"]) == 0
        first = capsys.readouterr().out
        assert main(["freqresp", bsloop_file, "--grid", "-2:2:21"]) == 0
        assert capsys.readouterr().out == first

    def test_bad_grid_usage(self, cavity_file):
        assert main(["freqresp", cavity_file, "--grid", "1:2"]) == 4
        assert main(["freqresp", cavity_file, "--grid", "1:2:0"]) == 4

    def test_cascade_unit_pole_marked_na(self, tmp_path, capsys):
        # a 64-unit cascade swept through one unit's drift eigenvalue λ, at sigma = Re λ
        rng = np.random.default_rng(1)
        units = [random_component(rng, 2, 1) for _ in range(64)]
        lam = complex(drift(units[rng.integers(64)])[0, 0])
        comp = units[0]
        for unit in units[1:]:
            comp = series_product(unit, comp)
        path = tmp_path / "cascade.qnet"
        path.write_text(serialize(component_document("cascade", comp)))
        grid = f"{lam.imag - 0.5!r}:{lam.imag + 0.5!r}:3"
        assert main(["freqresp", str(path), "--grid", grid, "--sigma", repr(lam.real)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert set(rows[2][1:]) == {"NA"}
        # a neighbour is NA exactly when eval_transfer rejects it
        for w, row in zip((lam.imag - 0.5, lam.imag + 0.5), rows[1::2]):
            try:
                eval_transfer(comp, lam.real + 1j * w)
            except SingularAtS:
                assert set(row[1:]) == {"NA"}
            else:
                assert "NA" not in row
        # on the axis the cascade has no pole
        grid = f"{lam.imag - 0.5!r}:{lam.imag + 0.5!r}:2"
        assert main(["freqresp", str(path), "--grid", grid]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3 and not any("NA" in row for row in rows)

    def test_grid_too_large_for_memory_usage(self, cavity_file, capsys):
        # 1e15 float64 points are 7 PiB: the allocation fails at once and commits nothing
        assert main(["freqresp", cavity_file, "--grid", "0:1:1000000000000000"]) == 4
        captured = capsys.readouterr()
        assert captured.err == ("usage error: grid of 1000000000000000 points "
                                "does not fit in memory\n")
        assert captured.out == ""

    @pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3", "-inf:0:1",
                                      "-1e308:1e308:3"])
    def test_non_finite_grid_usage(self, cavity_file, grid, capsys):
        assert main(["freqresp", cavity_file, "--grid", grid]) == 4
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, reason", [
        ("a:1:3", "could not convert string to float: 'a'"),
        ("0:1:x", "invalid literal for int() with base 10: 'x'"),
    ])
    def test_unparsable_grid_usage(self, cavity_file, grid, reason, capsys):
        assert main(["freqresp", cavity_file, "--grid", grid]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: bad grid {grid!r}: {reason}\n"

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "abc"])
    def test_bad_sigma_usage(self, cavity_file, sigma, capsys):
        assert main(["freqresp", cavity_file, "--grid", "0:1:3", "--sigma", sigma]) == 4
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "--sigma" in captured.err
        assert captured.out == ""

    def test_residual_column_matches_axis_check(self, bsloop_file, capsys):
        assert main(["freqresp", bsloop_file, "--grid", "-2:2:21"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        comp = feedback_reduce(build_partitioned(parse(BSLOOP)))
        report = check_unitary_on_axis(comp, np.linspace(-2, 2, 21))
        assert [float(r[-1]) for r in rows] == list(report.residuals)


class TestCompose:
    def test_series_of_two_cavities(self, cavity_file, capsys):
        assert main(["series", cavity_file, cavity_file]) == 0
        doc = parse(capsys.readouterr().out)
        comp = doc.components["series"]
        assert comp.n_ports == 1 and comp.m_modes == 2
        assert comp.S[0, 0] == 1.0
        assert np.allclose(comp.C, [[1.0, 1.0]])

    def test_star_identity_wiring(self, tmp_path, capsys):
        a = tmp_path / "a.qnet"
        a.write_text("""\
component two {
  inputs = 2;
  modes = 1;
  S = [[0.6,0.8],[0.8,-0.6]];
  C = [[1],[0.5i]];
  Omega = [[0.2]];
}
""")
        cross = tmp_path / "cross.qnet"
        cross.write_text("""\
component cross {
  inputs = 2;
  modes = 0;
  S = [[0,1],[1,0]];
  C = [];
  Omega = [];
}
""")
        assert main(["star", str(a), str(cross), "--channels", "1"]) == 0
        doc = parse(capsys.readouterr().out)
        comp = doc.components["star"]
        assert np.allclose(comp.S, [[0.6, 0.8], [0.8, -0.6]], atol=1e-12)

    def test_channels_required(self, cavity_file):
        assert main(["star", cavity_file, cavity_file]) == 4


class TestStratCommands:
    def test_strat2ito_and_back(self, tmp_path, capsys):
        gen = tmp_path / "gen.txt"
        gen.write_text("E = [[0,0.5],[0.5,0]];\nF = [[1],[1i]];\nK = [[0.25]];\n")
        assert main(["strat2ito", str(gen)]) == 0
        out = capsys.readouterr().out
        assert "# residuals:" in out
        data = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        triple = tmp_path / "triple.txt"
        triple.write_text(data)
        assert main(["ito2strat", str(triple)]) == 0
        back = parse_matrix_assignments(
            "\n".join(l for l in capsys.readouterr().out.splitlines()
                      if not l.startswith("#")))
        assert matkit.max_abs(back["E"] - np.array([[0, 0.5], [0.5, 0]])) <= 1e-9
        assert matkit.max_abs(back["F"] - np.array([[1], [1j]])) <= 1e-9
        assert matkit.max_abs(back["K"] - np.array([[0.25]])) <= 1e-9

    def test_strat2ito_rejects_nonhermitian(self, tmp_path, capsys):
        gen = tmp_path / "gen.txt"
        gen.write_text("E = [[0,1],[0,0]];\nF = [[1],[1]];\nK = [[0]];\n")
        assert main(["strat2ito", str(gen)]) == 1

    def test_strat2ito_accepts_large_generator(self, tmp_path, capsys):
        # hermitian E with κ₁(I + iE/2) ≈ ‖E‖/2 = 5e12: solved in E's eigenbasis
        gen = tmp_path / "gen.txt"
        gen.write_text("E = [[1e13, 0], [0, 1]];\nF = [[1], [0]];\nK = [[0]];\n")
        assert main(["strat2ito", str(gen)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        got = parse_matrix_assignments(
            "\n".join(l for l in captured.out.splitlines() if not l.startswith("#")))
        cayley = (1 - 0.5j * np.array([1e13, 1])) / (1 + 0.5j * np.array([1e13, 1]))
        assert matkit.max_abs(got["S"] - np.diag(cayley)) <= 1e-15
        assert matkit.max_abs(got["C"] - [[-1j / (1 + 5e12j)], [0]]) <= 1e-28
        residuals = captured.out.splitlines()[-1]
        assert residuals.startswith("# residuals: ")
        assert all(float(word.split("=")[1]) <= 1e-15 for word in residuals.split()[2:])

    def test_ito2strat_cayley_pole(self, tmp_path, capsys):
        triple = tmp_path / "triple.txt"
        triple.write_text("S = [[-1]];\nC = [[1]];\nOmega = [[0]];\n")
        assert main(["ito2strat", str(triple)]) == 3

    def test_ito2strat_rejects_nonunitary_s(self, tmp_path, capsys):
        triple = tmp_path / "triple.txt"
        triple.write_text("S = [[2]];\nC = [];\nOmega = [];\n")
        assert main(["ito2strat", str(triple)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid model: S not unitary (max-norm residual 3)\n"

    def test_missing_key_usage(self, tmp_path):
        gen = tmp_path / "gen.txt"
        gen.write_text("E = [[0]];\nF = [[1]];\n")
        assert main(["strat2ito", str(gen)]) == 4

    @pytest.mark.parametrize("command, text, out", [
        ("strat2ito", "E = [[0.5]];\nF = [];\nK = [];\n",
         "S = [[0.88235294117647056-0.47058823529411764i]];\nC = [];\nOmega = [];\n"),
        ("strat2ito", "E = [];\nF = [];\nK = [[0.25]];\n",
         "S = [];\nC = [];\nOmega = [[0.25]];\n"),
        ("ito2strat", "S = [[1,0],[0,1i]];\nC = [];\nOmega = [];\n",
         "E = [[0,0],[0,-2]];\nF = [];\nK = [];\n"),
        ("ito2strat", "S = [];\nC = [];\nOmega = [[0.25]];\n",
         "E = [];\nF = [];\nK = [[0.25]];\n"),
    ], ids=["strat2ito-no-modes", "strat2ito-no-ports", "ito2strat-no-modes",
            "ito2strat-no-ports"])
    def test_empty_coupling_without_ports_or_modes(self, tmp_path, capsys, command, text, out):
        path = tmp_path / "model.txt"
        path.write_text(text)
        assert main([command, str(path)]) == 0
        assert capsys.readouterr().out.startswith(out)

    @pytest.mark.parametrize("command, text, name", [
        ("strat2ito", "E = [[0,0.5],[0.5,0]];\nF = [];\nK = [[0.25]];\n", "F"),
        ("ito2strat", "S = [[1,0],[0,1i]];\nC = [];\nOmega = [[0.25]];\n", "C"),
    ], ids=["strat2ito", "ito2strat"])
    def test_empty_coupling_with_ports_and_modes_is_invalid(self, tmp_path, capsys,
                                                           command, text, name):
        path = tmp_path / "model.txt"
        path.write_text(text)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid model: {name} must have 2 rows, got 0\n"


def test_unknown_command_usage():
    assert main(["frobnicate"]) == 4


OVERFLOW = """\
component big {
  inputs = 2;
  modes = 0;
  S = [[1e300, 1], [1, 1e300]];
  C = [];
  Omega = [];
}
"""


class TestOverflowingModel:
    """Residuals whose products overflow are reported as inf, without warnings."""

    @pytest.fixture
    def overflow_file(self, tmp_path):
        path = tmp_path / "big.qnet"
        path.write_text(OVERFLOW)
        return str(path)

    def _run(self, capsys, args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        captured = capsys.readouterr()
        assert caught == [] and captured.err == ""
        return code, captured.out

    def test_check_reports_inf(self, overflow_file, capsys):
        code, out = self._run(capsys, ["check", overflow_file])
        assert code == 1
        assert out == "component big: S not unitary (max-norm residual inf)\n"

    def test_freqresp_inf_column(self, overflow_file, capsys):
        code, out = self._run(capsys, ["freqresp", overflow_file, "--grid", "-1:1:3"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 4 and rows[0][-1] == "unitarity_residual"
        assert [r[-1] for r in rows[1:]] == ["inf"] * 3
        assert all(r[1] == "1.0000000000000001e+300" for r in rows[1:])

    def test_freqresp_overflow_with_a_mode_is_inf_not_nan(self, tmp_path, capsys):
        # the mode turns a diagonal entry of Xi·Xi† into inf + (inf − inf)i
        path = tmp_path / "big.qnet"
        path.write_text(OVERFLOW.replace("modes = 0", "modes = 1")
                        .replace("C = []", "C = [[1], [0]]")
                        .replace("Omega = []", "Omega = [[0]]"))
        code, out = self._run(capsys, ["freqresp", str(path), "--grid", "-1:1:3"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [(r[0], r[-1]) for r in rows[1:]] == [("-1", "inf"), ("0", "inf"), ("1", "inf")]


class TestParserReuse:
    def test_reused_parser_answers_as_a_fresh_one(self, cavity_file, capsys):
        # a usage error, a good run and --help, each on a new parser and then in turn on one
        calls = [["freqresp", cavity_file], ["check", cavity_file], ["--help"]]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(run(argv))
        assert [code for code, _, _ in fresh] == [4, 0, 0]
        parser = _build_parser()
        assert [run(argv) for argv in calls] == fresh
        assert _build_parser() is parser
