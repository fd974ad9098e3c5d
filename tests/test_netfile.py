"""Unit tests for the QNET parser, serializer and network assembly."""

import contextlib
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slhnet import (LinearComponent, beamsplitter_loop, feedback_reduce,
                    make_cavity, matkit, mixing_splitter, netfile, series_product,
                    validate)
from slhnet.netfile import (Edge, NetDocument, ParseError, build_partitioned,
                            component_document, format_cnum, format_matrix,
                            format_matrix_assignments, format_table, parse,
                            parse_matrix_assignments, serialize)

from support import (entrywise_format_cnum, entrywise_format_matrix,
                     fold_partitioned, format_float, haar_unitary, random_component,
                     random_network, reference_parse,
                     reference_parse_matrix_assignments, respell)

CAVITY = """\
component cavity {
  inputs = 1;
  modes = 1;
  S = [[1]];
  C = [[1]];
  Omega = [[0]];
}
"""

SERIES = CAVITY + """\
network {
  use a : cavity;
  use b : cavity;
  connect a.out[0] -> b.in[0];
}
"""

FIGURE6 = """\
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


def _loc_of(source: str, needle: str, occurrence: int = 1) -> tuple[int, int]:
    """1-based line/column of the nth occurrence of ``needle``."""
    idx = -1
    for _ in range(occurrence):
        idx = source.index(needle, idx + 1)
    line = source.count("\n", 0, idx) + 1
    col = idx - (source.rfind("\n", 0, idx) + 1) + 1
    return line, col


def _assert_error_at(source: str, needle: str, occurrence: int = 1) -> ParseError:
    line, col = _loc_of(source, needle, occurrence)
    with pytest.raises(ParseError) as excinfo:
        parse(source)
    err = excinfo.value
    assert (err.line, err.column) == (line, col), \
        f"expected error at {line}:{col}, got {err.line}:{err.column}: {err.message}"
    sliced = err.snippet[err.column - 1:err.column - 1 + len(needle)]
    assert sliced == needle
    return err


class TestParse:
    def test_single_cavity(self):
        doc = parse(CAVITY)
        assert list(doc.components) == ["cavity"]
        assert doc.instances == {} and doc.edges == () and doc.externals == ()
        comp = doc.components["cavity"]
        assert comp.n_ports == 1 and comp.m_modes == 1
        assert comp.S[0, 0] == 1.0

    def test_series_edge_and_eta(self):
        doc = parse(SERIES)
        assert len(doc.edges) == 1
        pc = build_partitioned(doc)
        assert np.array_equal(pc.eta.real, np.eye(1))
        assert pc.internal_out == (0,) and pc.internal_in == (1,)

    def test_complex_entries(self):
        src = CAVITY.replace("S = [[1]];", "S = [[0.5-0.25i]];")
        doc = parse(src)
        assert doc.components["cavity"].S[0, 0] == 0.5 - 0.25j

    def test_pure_imaginary_entry(self):
        # hermiticity is a soft invariant, so this parses fine
        src = CAVITY.replace("Omega = [[0]];", "Omega = [[2i]];")
        doc = parse(src)
        assert doc.components["cavity"].Omega[0, 0] == 2j

    def test_comments_and_whitespace(self):
        src = "# leading comment\n" + CAVITY.replace(
            "inputs = 1;", "inputs = 1;  # trailing comment")
        assert parse(src) == parse(CAVITY)

    def test_shuffled_keys_accepted(self):
        src = """\
component cavity {
  Omega = [[0]];
  S = [[1]];
  modes = 1;
  C = [[1]];
  inputs = 1;
}
"""
        assert parse(src) == parse(CAVITY)


class TestParseErrors:
    def test_connect_to_output_port(self):
        src = CAVITY + """\
network {
  use a : cavity;
  connect a.out[0] -> a.out[0];
}
"""
        err = _assert_error_at(src, "out", occurrence=2)
        assert "'in'" in err.message

    def test_unexpected_character(self):
        _assert_error_at("component c @ {", "@")

    def test_unknown_key(self):
        src = CAVITY.replace("inputs = 1;", "gain = 1;")
        err = _assert_error_at(src, "gain")
        assert "unknown key" in err.message

    def test_duplicate_key(self):
        src = CAVITY.replace("modes = 1;", "modes = 1;\n  modes = 1;")
        err = _assert_error_at(src, "modes", occurrence=2)
        assert "duplicate key" in err.message

    def test_missing_key(self):
        src = CAVITY.replace("  Omega = [[0]];\n", "")
        err = _assert_error_at(src, "cavity")
        assert "missing key 'Omega'" in err.message

    def test_duplicate_component(self):
        src = CAVITY + CAVITY
        line, col = _loc_of(src, "component cavity", 2)
        with pytest.raises(ParseError) as excinfo:
            parse(src)
        assert excinfo.value.line == line

    def test_dimension_mismatch(self):
        src = CAVITY.replace("C = [[1]];", "C = [[1],[2]];")
        err = _assert_error_at(src, "C = [[1],[2]]")
        assert "must be 1x1" in err.message

    def test_ragged_matrix(self):
        src = CAVITY.replace("S = [[1]];", "S = [[1,2],[3]];")
        with pytest.raises(ParseError) as excinfo:
            parse(src)
        assert "unequal" in excinfo.value.message or "must be" in excinfo.value.message

    def test_unknown_component_reference(self):
        src = CAVITY + "network {\n  use a : laser;\n}\n"
        err = _assert_error_at(src, "laser")
        assert "unknown component" in err.message

    def test_duplicate_instance(self):
        src = CAVITY + "network {\n  use a : cavity;\n  use a : cavity;\n}\n"
        line, col = _loc_of(src, "use a", occurrence=2)
        with pytest.raises(ParseError) as excinfo:
            parse(src)
        assert (excinfo.value.line, excinfo.value.column) == (line, col + 4)

    def test_unknown_instance_in_connect(self):
        src = CAVITY + """\
network {
  use a : cavity;
  connect a.out[0] -> ghost.in[0];
}
"""
        err = _assert_error_at(src, "ghost")
        assert "unknown instance" in err.message

    def test_port_out_of_range(self):
        src = CAVITY + """\
network {
  use a : cavity;
  connect a.out[3] -> a.in[0];
}
"""
        err = _assert_error_at(src, "3")
        assert "out of range" in err.message

    def test_fan_in_rejected(self):
        src = CAVITY + """\
network {
  use a : cavity;
  use b : cavity;
  use c : cavity;
  connect a.out[0] -> c.in[0];
  connect b.out[0] -> c.in[0];
}
"""
        with pytest.raises(ParseError) as excinfo:
            parse(src)
        assert "already fed" in excinfo.value.message
        assert excinfo.value.line == _loc_of(src, "connect b")[0]

    def test_fan_out_rejected(self):
        src = CAVITY + """\
network {
  use a : cavity;
  use b : cavity;
  use c : cavity;
  connect a.out[0] -> b.in[0];
  connect a.out[0] -> c.in[0];
}
"""
        with pytest.raises(ParseError) as excinfo:
            parse(src)
        assert "already feeds" in excinfo.value.message

    def test_external_on_driven_input(self):
        src = CAVITY + """\
network {
  use a : cavity;
  use b : cavity;
  connect a.out[0] -> b.in[0];
  external b.in[0] as tap;
}
"""
        with pytest.raises(ParseError) as excinfo:
            parse(src)
        assert "internally driven" in excinfo.value.message

    def test_duplicate_external_alias(self):
        src = CAVITY + """\
network {
  use a : cavity;
  use b : cavity;
  external a.in[0] as drive;
  external b.in[0] as drive;
}
"""
        err = _assert_error_at(src, "drive", occurrence=2)
        assert "duplicate external name" in err.message

    def test_nonfinite_entry(self):
        src = CAVITY.replace("S = [[1]];", "S = [[1e999]];")
        with pytest.raises(ParseError) as excinfo:
            parse(src)
        assert "non-finite" in str(excinfo.value.message)

    def test_error_str_mentions_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse("component {")
        assert "line 1" in str(excinfo.value)

    @pytest.mark.parametrize("old, new", [
        ("inputs = 1;", "inputs = 1e400;"),
        ("modes = 1;", "modes = 1e400;"),
        ("connect a.out[0]", "connect a.out[1e400]"),
        ("-> b.in[0]", "-> b.in[1e400]"),
    ])
    def test_overflowing_integer(self, old, new):
        err = _assert_error_at(SERIES.replace(old, new), "1e400")
        assert "nonnegative integer" in err.message

    def test_overflowing_external_port(self):
        src = CAVITY + """\
network {
  use a : cavity;
  external a.in[1e400] as drive;
}
"""
        err = _assert_error_at(src, "1e400")
        assert "nonnegative integer" in err.message


HUGE_COUNT = """\
component c {
  inputs = 0;
  modes = COUNT;
  S = [];
  C = [];
  Omega = [];
}
"""


class TestCounts:
    @pytest.mark.parametrize("count", ["1e300", "1e18"])
    def test_huge_count_fails_at_literal(self, count):
        # an empty C with no inputs once reached np.zeros((0, m)) first
        err = _assert_error_at(HUGE_COUNT.replace("COUNT", count), count)
        assert "at most" in err.message

    def test_empty_omega_with_modes_fails_at_omega(self):
        err = _assert_error_at(HUGE_COUNT.replace("COUNT", "3"), "Omega")
        assert "must be 3x3, got empty matrix" in err.message

class TestRoundTrip:
    def test_cavity_round_trip(self):
        doc = parse(CAVITY)
        assert parse(serialize(doc)) == doc

    def test_complex_value_survives_exactly(self):
        src = CAVITY.replace("S = [[1]];", "S = [[0.5-0.25i]];")
        doc = parse(src)
        again = parse(serialize(doc))
        assert again.components["cavity"].S[0, 0] == 0.5 - 0.25j
        assert again == doc

    def test_seventeen_digit_floats(self):
        value = 0.1234567890123456789
        comp = LinearComponent([[np.exp(1j * value)]], [[np.sqrt(value)]], [[value]])
        doc = component_document("c", comp)
        again = parse(serialize(doc))
        assert again.components["c"].Omega[0, 0] == value
        assert again == doc

    def test_canonical_is_key_ordered(self):
        shuffled = """\
component cavity {
  Omega = [[0]];
  C = [[1]];
  inputs = 1;
  S = [[1]];
  modes = 1;
}
"""
        text = serialize(parse(shuffled))
        assert text.index("inputs") < text.index("modes") < text.index("S =") \
            < text.index("C =") < text.index("Omega")

    def test_figure6_round_trip(self):
        doc = parse(FIGURE6)
        assert parse(serialize(doc)) == doc

    def test_network_statements_preserved(self):
        doc = parse(SERIES)
        again = parse(serialize(doc))
        assert again.edges == doc.edges
        assert list(again.instances.items()) == list(doc.instances.items())


class TestBuildPartitioned:
    def test_series_doc_matches_series_product(self):
        doc = parse(SERIES)
        red = feedback_reduce(build_partitioned(doc))
        cav = doc.components["cavity"]
        ser = series_product(cav, cav, prefixes=("b", "a"))
        assert matkit.max_abs(red.S - ser.S) <= 1e-12
        assert matkit.max_abs(red.C - ser.C) <= 1e-12
        assert matkit.max_abs(red.Omega - ser.Omega) <= 1e-12

    def test_no_edges_all_external(self):
        doc = parse(CAVITY + "network {\n  use a : cavity;\n  use b : cavity;\n}\n")
        pc = build_partitioned(doc)
        assert pc.internal_out == () and pc.internal_in == ()
        assert pc.eta.shape == (0, 0)
        red = feedback_reduce(pc)
        assert red.n_ports == 2
        assert np.array_equal(red.S, pc.comp.S)

    def test_figure6_matches_beamsplitter_loop(self):
        doc = parse(FIGURE6)
        red = feedback_reduce(build_partitioned(doc))
        direct = beamsplitter_loop(mixing_splitter(0.5), make_cavity(3.0))
        assert matkit.max_abs(red.S - direct.S) <= 1e-12
        assert matkit.max_abs(red.C - direct.C) <= 1e-12
        assert matkit.max_abs(red.Omega - direct.Omega) <= 1e-12
        assert red.port_labels == ("drive",)

    def test_port_bookkeeping(self):
        doc = parse(FIGURE6)
        pc = build_partitioned(doc)
        n = pc.comp.n_ports
        assert len(pc.internal_in) + len(pc.external_in) == n
        assert len(pc.internal_out) + len(pc.external_out) == n
        assert sorted(pc.internal_in + pc.external_in) == list(range(n))
        ints = pc.eta.real.astype(int)
        assert np.all(ints.sum(axis=0) == 1) and np.all(ints.sum(axis=1) == 1)

    def test_declared_externals_come_first(self):
        src = CAVITY + """\
network {
  use a : cavity;
  use b : cavity;
  external b.in[0] as tap;
}
"""
        pc = build_partitioned(parse(src))
        assert pc.external_in == (1, 0)   # declared port first, then residual order
        red = feedback_reduce(pc)
        assert red.port_labels[0] == "tap"


class TestAssemblyProperty:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_pairwise_fold(self, seed):
        # block copies do no arithmetic, so the one-pass assembly must
        # reproduce the pairwise concatenate fold exactly
        doc = random_network(np.random.default_rng(seed))
        got, want = build_partitioned(doc), fold_partitioned(doc)
        assert got.comp == want.comp
        assert (got.internal_out, got.internal_in) == (want.internal_out, want.internal_in)
        assert (got.external_out, got.external_in) == (want.external_out, want.external_in)
        assert np.array_equal(got.eta, want.eta)
        assert parse(serialize(doc)) == doc



def _outcome(fn, text):
    """What ``fn`` makes of ``text``: its result, or the ParseError's fields."""
    try:
        return fn(text)
    except ParseError as exc:
        return (exc.line, exc.column, exc.message, exc.snippet)


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


def _assert_same_document(text):
    got, want = _outcome(parse, text), _outcome(reference_parse, text)
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got == want
        for a, b in zip(got.components.values(), want.components.values()):
            assert _bits((a.S, a.C, a.Omega)) == _bits((b.S, b.C, b.Omega))


def _assert_same_assignments(text):
    got = _outcome(parse_matrix_assignments, text)
    want = _outcome(reference_parse_matrix_assignments, text)
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert list(got) == list(want)
        assert _bits(got.values()) == _bits(want.values())


def _edit(text, edits):
    """Apply (operation, relative position, character) edits in turn."""
    for op, where, ch in edits:
        i = int(where * (len(text) + 1))
        text = text[:i] + ("" if op == "delete" else ch) + text[i + (op != "insert"):]
    return text


_EDITS = st.lists(st.tuples(st.sampled_from(("insert", "delete", "replace")),
                            st.floats(0, 1, exclude_max=True),
                            st.sampled_from(" \t\r\n#[]{},;:.=+->i0123456789eE_aZ@\x0c")),
                  max_size=3)

SPELLED = """\
component c {  # comment after a brace
  inputs = 2; modes = 1.;
  S = [[1.0 + 2i, .5],   # comment inside a matrix
       [ -0 , 1e-3i ]];
  C = [[-2i],
       [- 1.5e1 -.25i]];
  Omega = [[1.]];
}
network { use a : c; use b:c;
  connect a . out [ 0 ] -> b.in[1e0]; external a.in[0] as x; }
"""


# Matrix literals of every entry form, spelled many ways: separators,
# comments among them, may stand between any two tokens, a sign and its
# number included.
_LITERAL_GAPS = st.sampled_from(["", " ", "\n", "\t", "\r\n", "  # c [1, 2i];\n", "#\n"])
_LITERAL_NUMBERS = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.sampled_from(["0", "00.000", ".5", "5.", "1.e5", "3E+2", "2.5e-310", "5e-324",
                     "1e400", "1e-400", "1.7976931348623157e308"]),
    st.from_regex(r"(?:[0-9]{1,25}(?:\.[0-9]{0,25})?|\.[0-9]{1,25})(?:[eE][+-]?[0-9]{1,3})?",
                  fullmatch=True))


@st.composite
def _matrix_literal(draw):
    """(text of a matrix literal, (rows, entries in its first row)); rows may be ragged."""
    def gap():
        return draw(_LITERAL_GAPS)

    def signed():
        sign = draw(st.sampled_from(["", "-", "+"]))
        return (sign + gap() if sign else "") + draw(_LITERAL_NUMBERS)

    def entry():
        form = draw(st.sampled_from(["real", "imaginary", "both"]))
        if form == "real":
            return signed()
        if form == "imaginary":
            return signed() + "i"
        return signed() + gap() + draw(st.sampled_from("+-")) + gap() + draw(_LITERAL_NUMBERS) + "i"

    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    if not draw(st.booleans()):
        widths = [widths[0]] * len(widths)
    rows = ["[" + ",".join(gap() + entry() + gap() for _ in range(w)) + "]" for w in widths]
    return "[" + ",".join(gap() + row + gap() for row in rows) + "]", (len(rows), widths[0])


class TestParserEquivalence:
    """``parse`` against the character-loop reference in ``support``."""

    @given(seed=st.integers(0, 2**32 - 1), respelled=st.booleans(), edits=_EDITS)
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_reference(self, seed, respelled, edits):
        rng = np.random.default_rng(seed)
        text = serialize(random_network(rng, max_units=4))
        _assert_same_document(_edit(respell(text, rng) if respelled else text, edits))

    @given(seed=st.integers(0, 2**32 - 1), respelled=st.booleans(), edits=_EDITS)
    @settings(max_examples=200, deadline=None)
    def test_matrix_assignments_match_reference(self, seed, respelled, edits):
        rng = np.random.default_rng(seed)
        comp = random_network(rng, max_units=0).components["pair"]
        text = format_matrix_assignments([("S", comp.S), ("C", comp.C), ("K", comp.Omega),
                                          ("Z", np.zeros((0, 0)))])
        _assert_same_assignments(_edit(respell(text, rng) if respelled else text, edits))

    @given(_matrix_literal())
    @settings(max_examples=300, deadline=None)
    @example(("[[-0, -0i, -2i, 1 - 0i]]", (1, 4)))     # -2i has real part +0
    @example(("[[- # c\n 1.5e1, 1.e5i], [.5, 5.]]", (2, 2)))
    @example(("[[2.5e-310], [1e400]]", (2, 1)))         # 1e400 makes the component invalid
    @pytest.mark.filterwarnings("error")                 # numpy may warn on no accepted row
    def test_matrix_rows_match_reference(self, case):
        """Each row's numbers, read in one conversion, equal the reference's bit for bit."""
        literal, (n, m) = case
        _assert_same_assignments(f"M = {literal};")
        _assert_same_document(f"component c {{ inputs = {n}; modes = {m}; "
                              f"S = {format_matrix(np.eye(n))}; C = {literal}; "
                              f"Omega = {format_matrix(np.zeros((m, m)))}; }}")

    @pytest.mark.parametrize("text", [
        SPELLED,
        "component c {  # no newline at the end",
        "component c { inputs = 1; # comment\n  modes",
        "component c {\n S = [[1 -> 2]];",
        "component c {\r\n S = [[1,\x0c2]];",
        "# \u00fc in a comment\ncomponent c { S = [[\u0661]]; }",
        "component c { S = [[1e]]; }",
        "component c { S = [[ ]]; }",
        "component c { S = [[1],]; }",
        "component c { S = [[1] [2]]; }",
        "component c { S = [[1+2]]; }",
        "component c { S = [[1 + 2 i]]; }",
        "component c { S = [[2ix]]; }",
        "component c { S = [[--1]]; }",
        "network { use a : b; connect a.out[1e300] -> a.in[0]; }",
        "network { connect a . out [ 2i ] -> b.in[0]; }",
        "network { external a.in[0] as 1; }",
        "network { usea : b; }",
        "",
        "#",
    ])
    def test_hand_written_texts_match_reference(self, text):
        _assert_same_document(text)
        _assert_same_assignments(text)

    def test_spelled_values(self):
        comp = parse(SPELLED).components["c"]
        assert comp.S.tolist() == [[1 + 2j, 0.5], [0.0, 1e-3j]]
        assert np.signbit(comp.S[1, 0].real)
        assert comp.C.tolist() == [[-2j], [-15 - 0.25j]]
        assert not np.signbit(comp.C[0, 0].real)
        assert comp.Omega.tolist() == [[1.0]]


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` of real time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_ENTRIES = [str(j) for j in range(1, 41)]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
class TestLongBadRows:
    """A bad row is rejected in time linear in its length.

    If a row pattern lets a run of whitespace split between two separators,
    a failed match retries every split of every earlier entry, ~2**40 steps
    for each row below.  The regex engine checks for signals while it
    matches, so the time limit interrupts such a match.
    """

    @pytest.mark.parametrize("row", [
        "[" + ", ".join(_ENTRIES) + ",]",
        "[" + ",\n      ".join(_ENTRIES) + ",\n      ]",
        "[" + ", ".join(_ENTRIES) + " 41]",
        "[" + ",  # entry\n   ".join(f"{e} + {e}i" for e in _ENTRIES) + " x]",
    ])
    def test_matches_reference_promptly(self, row):
        network = f"component c {{ inputs = 1; modes = 0; S = [{row}]; C = []; Omega = []; }}"
        assignments = f"S = [{row}];"
        with _time_limit(2.0):
            got = [_outcome(parse, network), _outcome(parse_matrix_assignments, assignments)]
        want = [_outcome(reference_parse, network),
                _outcome(reference_parse_matrix_assignments, assignments)]
        assert got == want
        assert all(isinstance(outcome, tuple) for outcome in got)   # both ParseErrors


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 0.1]
_PARTS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
_SHAPES = st.one_of(st.tuples(st.just(1), st.integers(0, 6)),
                    st.tuples(st.integers(0, 6), st.just(1)),
                    st.tuples(st.integers(0, 6), st.integers(0, 6)))


def _matrices():
    return _SHAPES.flatmap(lambda shape: arrays(complex, shape,
                                                elements=st.builds(complex, _PARTS, _PARTS)))


class TestSerializerProperty:
    @given(_matrices())
    @settings(max_examples=300, deadline=None)
    @example(np.array([[complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 5e-324)]]))
    @example(np.array([[complex(5e-324, -1.7976931348623157e308)],
                       [complex(-1.7976931348623157e308, 5e-324)]]))
    @example(np.zeros((0, 3), dtype=complex))
    @example(np.array([[0.5, 3.0], [-0.0, 0.1]]))   # real dtype, as for the |C| comment
    def test_matches_entrywise_join(self, m):
        assert format_matrix(m) == entrywise_format_matrix(m)
        for z in m.ravel():
            assert format_cnum(z) == entrywise_format_cnum(z)

    @given(_matrices())
    @settings(max_examples=150, deadline=None)
    def test_component_round_trip(self, m):
        n, k = m.shape
        comp = LinearComponent(np.eye(n), m, np.zeros((k, k)))
        doc = component_document("c", comp)
        assert parse(serialize(doc)) == doc


# Every float class: st.floats() draws zeros, subnormals, extremes, inf and
# nan; the rest are the places a 17-digit conversion can go wrong.
_ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.integers(-330, 330).map(lambda k: float(f"1e{k}")),                 # powers of ten
    st.tuples(st.integers(-330, 330), st.sampled_from([-np.inf, np.inf])).map(
        lambda kd: float(np.nextafter(float(f"1e{kd[0]}"), kd[1]))),       # and their neighbours
    st.integers(-2**62, 2**62).map(float),
    st.tuples(st.integers(0, 2**40), st.integers(1, 60)).map(
        lambda nk: (2 * nk[0] + 1) / 2**nk[1]),                            # many-digit dyadics, ties
)
_ARRAY_LENGTH = 2 * netfile._CHUNK + 7      # three chunks, the last one short


def _assert_same_text(got: str, want: str):
    """got == want, reported by its first difference: a diff of the whole text is too slow."""
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        lo = max(i - 40, 0)
        raise AssertionError(f"first difference at {i}: {got[lo:i + 40]!r} != {want[lo:i + 40]!r}")


class TestCanonicalNumbers:
    """The array route is byte-identical to "%.17g" and spans chunks."""

    @given(st.lists(_ANY_FLOAT, min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    @example([0.0, -0.0])
    @example([5e-324, -5e-324])
    @example([1.7976931348623157e308, -1.7976931348623157e308])
    @example([1e16, 1e17])
    @example([99999999999999999.0])                # rounds to 1e+17
    @example([9.9999999999999996e+216])            # log10 says 217
    @example([1e-14, 1e98])                        # below 10^k, round up to it
    @example([1e-5, 1e-4])                         # scientific and fixed
    @example([26215 / 2**18])                      # 17 digits end on an exact tie
    @example([np.inf, -np.inf, np.nan])            # the residual column can read inf
    def test_matches_percent_format(self, values):
        x = np.resize(np.array(values), _ARRAY_LENGTH)
        text = format_table(x[:, None], np.zeros(len(x), dtype=bool))
        _assert_same_text(text, "".join(format_float(v) + "\n" for v in x.tolist()))

    @given(st.lists(st.builds(complex, _PARTS, _PARTS), min_size=1, max_size=30),
           st.integers(1, 300))
    @settings(max_examples=10, deadline=None)
    @example([complex(0.5, -0.0), complex(-0.0, 3.0), complex(1e300, -1e-300)], 97)
    def test_matrix_spanning_chunks_matches_entrywise_join(self, entries, cols):
        m = np.resize(np.array(entries), (_ARRAY_LENGTH // cols + 1, cols))
        _assert_same_text(format_matrix(m), entrywise_format_matrix(m))

    @given(st.lists(_ANY_FLOAT, min_size=1, max_size=40),
           st.sampled_from([(1, 1), (1, 3), (2, 5), (129, 1), (9, 300)]))
    @settings(max_examples=30, deadline=None)
    @example([-0.0], (1, 1))
    @example([5e-324, -0.0, 0.0, 1e-300], (2, 5))          # tiny numbers, both zeros
    @example([-0.0, 2.5e-310, np.inf, np.nan], (129, 1))    # the array route's size
    def test_real_array_formats_as_its_complex_copy(self, values, shape):
        x = np.resize(np.array(values), shape)
        assert format_matrix(x) == format_matrix(x.astype(complex))

    def test_table_marks_missing_rows(self):
        table = np.arange(12.0).reshape(4, 3) / 8
        assert format_table(table, np.array([False, True, False, True])) == (
            "0,0.125,0.25\n0.375,NA,NA\n0.75,0.875,1\n1.125,NA,NA\n")


# Parts of a hermitian matrix: both zeros, subnormals, extremes, a 17-digit tie
_MIRROR_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -3e-320, 1e300, -1e300, 26215 / 2**18, 1e17, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False))
# 1×1; every number of the upper triangle on the "%" route (n ≤ 8); the
# array route; and 8281 entries, more than one _CHUNK
_MIRROR_SIZES = [1, 2, 5, 12, 91]
# an edit of an exactly hermitian matrix, and whether every mirror pair
# still prints as a conjugate pair afterwards
_MIRROR_EDITS = {"none": True, "real ulp": False, "imag ulp": False, "signed zero real": False,
                 "nan real": True, "nan imag": False, "imaginary only": True,
                 "diagonal imag": False}


def _ulp_off(x: float) -> float:
    """A neighbour of x: one ulp toward zero, which cannot overflow, or 5e-324 at ±0."""
    return float(np.nextafter(x, 0.0)) if x else 5e-324


@st.composite
def _near_hermitian(draw):
    """(m, whether m's mirror pairs print as conjugates): hermitian, or one edit off."""
    n = draw(st.sampled_from(_MIRROR_SIZES))
    entries = draw(st.lists(st.builds(complex, _MIRROR_PARTS, _MIRROR_PARTS),
                            min_size=1, max_size=20))
    m = np.resize(np.array(entries), (n, n))
    rows, cols = np.triu_indices(n, 1)
    m[cols, rows] = m[rows, cols].conj()
    m.imag[np.diag_indices(n)] = draw(st.sampled_from([0.0, -0.0]))
    edit = draw(st.sampled_from(sorted(_MIRROR_EDITS)))
    if n == 1 and edit not in ("none", "imaginary only", "diagonal imag"):
        edit = "none"
    i = draw(st.integers(0, max(n - 2, 0)))
    j = draw(st.integers(i + 1, n - 1)) if n > 1 else 0
    up, down = m[i, j], m[j, i]
    if edit == "real ulp":
        m[i, j] = complex(_ulp_off(up.real), up.imag)
    elif edit == "imag ulp":
        m[i, j] = complex(up.real, _ulp_off(up.imag))
    elif edit == "signed zero real":
        m[i, j], m[j, i] = complex(0.0, up.imag), complex(-0.0, down.imag)
    elif edit == "nan real":
        m[i, j], m[j, i] = complex(np.nan, up.imag), complex(np.nan, down.imag)
    elif edit == "nan imag":
        m[i, j], m[j, i] = complex(up.real, np.nan), complex(down.real, np.nan)
    elif edit == "imaginary only":
        m.real[:] = 0.0
    elif edit == "diagonal imag":
        m[j, j] = complex(m[j, j].real, 0.5)
    return m, _MIRROR_EDITS[edit]


def _chain_document(rng: np.random.Generator, units: int) -> NetDocument:
    """A one-port chain of cavities; every fourth unit is a splitter loop around one."""
    components = {"cav": random_component(rng, 1, 1),
                  "bs": LinearComponent(haar_unitary(rng, 2), np.zeros((2, 0)), np.zeros((0, 0)))}
    instances: dict[str, str] = {}
    edges: list[Edge] = []
    prev = None
    for j in range(units):
        if j % 4 == 3:
            head = f"b{j}"
            instances[head], instances[f"c{j}"] = "bs", "cav"
            edges += [Edge(head, 1, f"c{j}", 0), Edge(f"c{j}", 0, head, 1)]
        else:
            head = f"u{j}"
            instances[head] = "cav"
        if prev is not None:
            edges.append(Edge(prev, 0, head, 0))
        prev = head
    return NetDocument(components, instances, tuple(edges), ())


class TestMirrorRoute:
    """A matrix whose mirror pairs print as conjugates formats its upper triangle only."""

    @given(_near_hermitian())
    @settings(max_examples=80, deadline=None)
    @example((np.array([[1.0, complex(0, 2)], [complex(0, -2), 1.0]]), True))  # byte 0 NUL
    @example((np.array([[0.0, complex(0.0, 2)], [complex(-0.0, -2), 0.0]]), False))  # 0 vs -0
    @example((np.array([[complex(0.5, -0.0)]]), True))
    @example((np.array([[1.0, complex(np.nan, 1)], [complex(np.nan, -1), 1.0]]), True))
    @example((np.array([[1.0, complex(1, np.nan)], [complex(1, np.nan), 1.0]]), False))
    def test_matches_entrywise_join(self, case):
        m, mirrored = case
        assert netfile._is_hermitian(m) == mirrored
        _assert_same_text(format_matrix(m), entrywise_format_matrix(m))

    def test_reduced_chain_formats_upper_triangle_only(self, monkeypatch):
        reduced = feedback_reduce(build_partitioned(_chain_document(np.random.default_rng(64), 64)))
        m = reduced.m_modes
        assert (reduced.n_ports, m) == (1, 64)
        assert not reduced.Omega.flags.writeable
        assert netfile._is_hermitian(reduced.Omega)
        counts = []
        entry_words = netfile._entry_words
        monkeypatch.setattr(netfile, "_entry_words",
                            lambda z: counts.append(len(z)) or entry_words(z))
        text = serialize(component_document("reduced", reduced))
        assert sum(counts) == 1 + m + (m * m + m) // 2      # S, C and half of Omega
        back = parse(text).components["reduced"]
        for got, want in ((back.S, reduced.S), (back.C, reduced.C), (back.Omega, reduced.Omega)):
            assert np.array_equal(got, want)


class TestMatrixAssignments:
    def test_round_trip(self):
        text = "E = [[0,1],[1,0]];\nF = [[1i],[0]];\nK = [[0.5]];\n"
        found = parse_matrix_assignments(text)
        assert set(found) == {"E", "F", "K"}
        assert found["F"][0, 0] == 1j
        again = parse_matrix_assignments(
            format_matrix_assignments(sorted(found.items())))
        for key in found:
            assert np.array_equal(found[key], again[key])

    def test_duplicate_name_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix_assignments("E = [[1]];\nE = [[2]];\n")

    def test_empty_matrix(self):
        found = parse_matrix_assignments("K = [];\n")
        assert found["K"].shape == (0, 0)


def test_format_cnum_forms():
    assert format_cnum(1.0) == "1"
    assert format_cnum(-2.5) == "-2.5"
    assert format_cnum(2j) == "2i"
    assert format_cnum(-0.25j) == "-0.25i"
    assert format_cnum(0.5 - 0.25j) == "0.5-0.25i"
    assert format_cnum(complex(0.0, 0.0)) == "0"


def test_document_equality_is_structural():
    a, b = parse(CAVITY), parse(CAVITY)
    assert a == b
    c = parse(CAVITY.replace("Omega = [[0]];", "Omega = [[1]];"))
    assert a != c
