"""Parser and canonical serializer for the QNET network description format.

A QNET file declares named components and, optionally, one network wiring
them together:

    component cavity {
      inputs = 1;
      modes = 1;
      S = [[1]];
      C = [[1]];
      Omega = [[0]];
    }
    network {
      use a : cavity;
      use b : cavity;
      connect a.out[0] -> b.in[0];
      external a.in[0] as drive;
    }

Matrix entries are floats with an optional imaginary part ("1.0",
"0.5-0.25i", "2i", ".5", "1e-3i"); a sign and its number are separate
tokens.  A matrix with zero rows or zero columns is written "[]", its
shape recovered from the declared inputs/modes, and a count larger than
the file itself is rejected at its literal.  Channels are point-to-point:
every input is fed by at most one edge and every output feeds at most one
edge; splitting a field needs an explicit beam-splitter component.
Whitespace and comments, from "#" to end of line, may stand between any
two tokens.  Port indices are 0-based, and the canonical serialization
(fixed key order, 17 significant digits, one declaration per line)
round-trips exactly through the parser.

The parser reads each matrix row and each network statement with one
compiled pattern, so its cost is a few regex passes over the text plus
one float() per number part.  Only a row or statement that its pattern
rejects is walked token by token, to name the first offending token;
errors carry the same line and column as a token-by-token parse would.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .network import PartitionedComponent
from .slh import LinearComponent, block_diag


class ParseError(Exception):
    """Syntax or semantic error with the offending source location."""

    def __init__(self, line: int, column: int, message: str, snippet: str = ""):
        super().__init__(message)
        self.line = line
        self.column = column
        self.message = message
        self.snippet = snippet

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


@dataclass(frozen=True)
class Edge:
    src_instance: str
    src_port: int
    dst_instance: str
    dst_port: int


@dataclass(frozen=True)
class ExternalPort:
    instance: str
    port: int
    alias: str


@dataclass(eq=False)
class NetDocument:
    """Parsed QNET file: component definitions plus the network wiring."""

    components: dict[str, LinearComponent]
    instances: dict[str, str]
    edges: tuple[Edge, ...]
    externals: tuple[ExternalPort, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetDocument):
            return NotImplemented
        return (list(self.components.items()) == list(other.components.items())
                and list(self.instances.items()) == list(other.instances.items())
                and self.edges == other.edges
                and self.externals == other.externals)


# ---------------------------------------------------------------------------
# scanner

# Token grammar.  A number is digits with an optional fraction, or a
# fraction alone, then an optional exponent; a trailing "i" that no name
# character follows makes it imaginary.  Whitespace and comments separate
# tokens; a comment always runs to the end of its line, which the
# lookahead in _SKIP enforces so that no match ends inside one.
_WORD_END = r"(?![A-Za-z0-9_])"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_SKIP = r"[ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*"

# Every character outside a comment starts or continues a token, except
# ">" not preceded by "-"; a match ends at the first character that does not.
# Each turn of the outer loop costs the matcher memory, so "-" sits in the
# long runs, and only comments and ">" take a turn of their own.
_LEXABLE = re.compile(r"(?:[ \t\r\n{}\[\]=;,:.+\-0-9A-Za-z_]+|(?<=-)>|#[^\n]*)*")
_TOKEN = re.compile(rf"{_SKIP}(?:({_NUMBER}(?:i{_WORD_END})?)|({_NAME})|(->|[-+{{}}\[\]=;,:.]))?")
_TOKEN_KINDS = (None, "NUMBER", "NAME", None)   # by group; punctuation is its own kind

# One matrix row, "[" entries "]", plus the "," that may follow it.  No
# name character can follow an entry's "i" there, so it needs no _WORD_END.
# No two _SKIPs may stand side by side, so a sign owns the _SKIP after it:
# a whitespace run that could split between two _SKIPs would make a
# rejected row retry every split of every entry, exponential in its length.
# _ENTRY reads the entries of a row _ROW accepted, one match per entry.
_CNUM = rf"(?:[+-]{_SKIP})?{_NUMBER}(?:i|{_SKIP}[+-]{_SKIP}{_NUMBER}i)?"
_ROW = re.compile(rf"{_SKIP}\[({_SKIP}{_CNUM}{_SKIP}(?:,{_SKIP}{_CNUM}{_SKIP})*)\]{_SKIP}(,?)")
_ENTRY = re.compile(rf"{_SKIP}(?:([+-]){_SKIP})?({_NUMBER})"
                    rf"(?:(i)|{_SKIP}([+-]){_SKIP}({_NUMBER})i)?{_SKIP},?")

# Network statements, one step per token: a keyword, or the (kind, what)
# of an expected token.  NAME and NUMBER steps are the statement's fields.
_STATEMENTS = {
    "use": ("use", ("NAME", "instance name"), (":", None), ("NAME", "component name"),
            (";", None)),
    "connect": ("connect", ("NAME", "instance name"), (".", None), "out", ("[", None),
                ("NUMBER", "port index"), ("]", None), ("->", "'->'"),
                ("NAME", "instance name"), (".", None), "in", ("[", None),
                ("NUMBER", "port index"), ("]", None), (";", None)),
    "external": ("external", ("NAME", "instance name"), (".", None), "in", ("[", None),
                 ("NUMBER", "port index"), ("]", None), "as",
                 ("NAME", "external port name"), (";", None)),
}


def _statement_pattern(steps) -> re.Pattern:
    parts = [step + _WORD_END if isinstance(step, str)
             else f"({_NAME})" if step[0] == "NAME"
             else f"({_NUMBER})" if step[0] == "NUMBER"
             else re.escape(step[0]) for step in steps]
    return re.compile(_SKIP.join(parts))


_STATEMENT_PATTERNS = {word: _statement_pattern(steps) for word, steps in _STATEMENTS.items()}


class _Token(NamedTuple):
    kind: str          # NAME, NUMBER, EOF or the punctuation itself
    text: str          # an imaginary NUMBER keeps its "i"
    start: int         # offsets into the source
    end: int


def _row_values(entries) -> list[float]:
    """Interleaved (real, imag) parts of the _ENTRY matches of one row."""
    out: list[float] = []
    for sign, number, imag, imag_sign, imag_number in entries:
        x = -float(number) if sign == "-" else float(number)
        if imag:
            out += (0.0, x)
        elif imag_number:
            out += (x, -float(imag_number) if imag_sign == "-" else float(imag_number))
        else:
            out += (x, 0.0)
    return out


# ---------------------------------------------------------------------------
# parser

_COMPONENT_KEYS = ("inputs", "modes", "S", "C", "Omega")


class _Parser:
    """Recursive descent over tokens scanned on demand from an offset.

    Matrix rows and network statements are matched whole by one pattern
    each; when a pattern rejects one, walking its tokens finds the error.
    """

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        bad = _LEXABLE.match(source).end()
        if bad < len(source):
            self.fail(bad, f"unexpected character {source[bad]!r}")

    # -- token plumbing ----------------------------------------------------

    def fail(self, offset: int, message: str):
        src = self.source
        start = src.rfind("\n", 0, offset) + 1
        if offset == len(src) and "#" in src[start:]:
            offset = src.index("#", start)    # end of file is placed before a last comment
        end = src.find("\n", start)
        raise ParseError(src.count("\n", 0, offset) + 1, offset - start + 1, message,
                         src[start:] if end < 0 else src[start:end])

    def peek(self) -> _Token:
        m = _TOKEN.match(self.source, self.pos)
        group = m.lastindex
        if group is None:
            return _Token("EOF", "", m.end(), m.end())
        text = m.group(group)
        return _Token(_TOKEN_KINDS[group] or text, text, m.start(group), m.end())

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(tok.start, f"expected {what or kind!r}, found {tok.text or 'end of file'!r}")
        self.pos = tok.end
        return tok

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != word:
            self.fail(tok.start, f"expected '{word}', found {tok.text or 'end of file'!r}")
        self.pos = tok.end
        return tok

    def accept(self, *kinds: str) -> _Token | None:
        """Consume the next token if it is of one of ``kinds``."""
        tok = self.peek()
        if tok.kind not in kinds:
            return None
        self.pos = tok.end
        return tok

    def expect_int(self, what: str) -> tuple[int, _Token]:
        tok = self.expect("NUMBER", what)
        return self.to_int(tok.text, tok.start, what), tok

    def to_int(self, text: str, offset: int, what: str) -> int:
        if text[-1] == "i" or not float(text).is_integer():   # also rejects 1e400 (inf)
            self.fail(offset, f"expected {what} to be a nonnegative integer")
        return int(float(text))

    # -- grammar -----------------------------------------------------------

    def parse_document(self) -> NetDocument:
        raw_components: list[tuple[_Token, dict]] = []
        statements: list[tuple] = []
        while (tok := self.peek()).kind != "EOF":
            if tok.kind == "NAME" and tok.text == "component":
                raw_components.append(self.parse_component())
            elif tok.kind == "NAME" and tok.text == "network":
                statements.extend(self.parse_network())
            else:
                self.fail(tok.start, "expected 'component' or 'network'")
        return self.analyze(raw_components, statements)

    def parse_component(self) -> tuple[_Token, dict]:
        self.expect_keyword("component")
        name_tok = self.expect("NAME", "component name")
        self.expect("{")
        entries: dict[str, tuple[int, object]] = {}
        while self.peek().kind != "}":
            key = self.expect("NAME", "component key")
            if key.text not in _COMPONENT_KEYS:
                self.fail(key.start, f"unknown key {key.text!r} in component block")
            if key.text in entries:
                self.fail(key.start, f"duplicate key {key.text!r}")
            self.expect("=")
            if key.text in ("inputs", "modes"):
                value, tok = self.expect_int(key.text)
                # every counted row is written out, so no valid count exceeds the file
                if value > len(self.source):
                    self.fail(tok.start, f"expected {key.text} to be at most "
                                         f"{len(self.source)}, the length of the file")
            else:
                value = self.parse_matrix()
            self.expect(";")
            entries[key.text] = (key.start, value)
        self.expect("}")
        return name_tok, entries

    def parse_matrix(self) -> list[list[float]]:
        """Rows of a matrix literal, each as interleaved (real, imag) parts."""
        self.expect("[", "matrix")
        if self.accept("]"):
            return []
        rows = []
        more = True
        while more:
            m = _ROW.match(self.source, self.pos)
            if m is None:
                self.reject_row()
            rows.append(_row_values(_ENTRY.findall(self.source, m.start(1), m.end(1))))
            self.pos = m.end()
            more = bool(m.group(2))
        self.expect("]")
        return rows

    def reject_row(self):
        """Raise at the first token of a row that _ROW rejected."""
        self.expect("[", "matrix row")
        while True:
            self.accept("+", "-")
            first = self.expect("NUMBER", "number")
            if first.text[-1] != "i" and self.accept("+", "-"):
                second = self.expect("NUMBER", "imaginary part")
                if second.text[-1] != "i":
                    self.fail(second.start, "expected imaginary part with 'i' suffix")
            if not self.accept(","):
                break
        self.expect("]")
        raise AssertionError("the row pattern rejected a valid row")

    def parse_network(self) -> list[tuple]:
        self.expect_keyword("network")
        self.expect("{")
        statements: list[tuple] = []
        while (tok := self.peek()).kind != "}":
            steps = _STATEMENTS.get(tok.text) if tok.kind == "NAME" else None
            if steps is None:
                self.fail(tok.start, "expected 'use', 'connect' or 'external'")
            m = _STATEMENT_PATTERNS[tok.text].match(self.source, tok.start)
            if m is None:
                self.reject_statement(steps)
            # (value, offset) per NAME or NUMBER step; only a number starts
            # with a digit or "."
            fields = [(self.to_int(text, m.start(g), "port index")
                       if text[0] in "0123456789." else text, m.start(g))
                      for g, text in enumerate(m.groups(), 1)]
            statements.append((tok.text, *fields))
            self.pos = m.end()
        self.expect("}")
        return statements

    def reject_statement(self, steps):
        """Raise at the first token of a statement its pattern rejected."""
        for step in steps:
            if isinstance(step, str):
                self.expect_keyword(step)
            elif step[0] == "NUMBER":
                self.expect_int(step[1])
            else:
                self.expect(*step)
        raise AssertionError("the statement pattern rejected a valid statement")

    # -- semantic pass -----------------------------------------------------

    def check_shape(self, key_at: int, rows: list, shape: tuple[int, int], what: str):
        want_r, want_c = shape
        if not rows:
            if want_r * want_c != 0:
                self.fail(key_at, f"{what} must be {want_r}x{want_c}, got empty matrix")
            return
        widths = {len(r) // 2 for r in rows}
        if len(widths) != 1:
            self.fail(key_at, f"{what} has rows of unequal length")
        got = (len(rows), widths.pop())
        if got != shape:
            self.fail(key_at, f"{what} must be {want_r}x{want_c}, got {got[0]}x{got[1]}")

    def analyze(self, raw_components, statements) -> NetDocument:
        components: dict[str, LinearComponent] = {}
        for name_tok, entries in raw_components:
            name = name_tok.text
            if name in components:
                self.fail(name_tok.start, f"duplicate component name {name!r}")
            for key in _COMPONENT_KEYS:
                if key not in entries:
                    self.fail(name_tok.start, f"component {name!r} is missing key {key!r}")
            n, m = entries["inputs"][1], entries["modes"][1]
            shapes = {"S": (n, n), "C": (n, m), "Omega": (m, m)}
            for key, shape in shapes.items():     # every shape before any allocation
                self.check_shape(entries[key][0], entries[key][1], shape, key)
            S, C, Omega = (_to_array(entries[key][1], shape) for key, shape in shapes.items())
            try:
                components[name] = LinearComponent(S, C, Omega)
            except ValueError as exc:
                self.fail(name_tok.start, f"invalid component {name!r}: {exc}")

        instances: dict[str, str] = {}
        edges: list[Edge] = []
        externals: list[ExternalPort] = []
        fed_inputs: set[tuple[str, int]] = set()
        used_outputs: set[tuple[str, int]] = set()
        external_ports: set[tuple[str, int]] = set()
        aliases: set[str] = set()

        def check_port(inst: str, inst_at: int, port: int, port_at: int):
            if inst not in instances:
                self.fail(inst_at, f"unknown instance {inst!r}")
            n_ports = components[instances[inst]].n_ports
            if port >= n_ports:
                self.fail(port_at, f"port index {port} out of range for instance "
                                   f"{inst!r} with {n_ports} ports")

        for kind, *fields in statements:
            if kind == "use":
                (inst, inst_at), (comp, comp_at) = fields
                if inst in instances:
                    self.fail(inst_at, f"duplicate instance name {inst!r}")
                if comp not in components:
                    self.fail(comp_at, f"unknown component {comp!r}")
                instances[inst] = comp
            elif kind == "connect":
                ((src, src_inst_at), (src_port, src_at),
                 (dst, dst_inst_at), (dst_port, dst_at)) = fields
                check_port(src, src_inst_at, src_port, src_at)
                check_port(dst, dst_inst_at, dst_port, dst_at)
                if (src, src_port) in used_outputs:
                    self.fail(src_at, f"output {src}.out[{src_port}] already feeds an edge")
                if (dst, dst_port) in fed_inputs:
                    self.fail(dst_at, f"input {dst}.in[{dst_port}] is already fed by an edge")
                if (dst, dst_port) in external_ports:
                    self.fail(dst_at, f"input {dst}.in[{dst_port}] is declared external and "
                                      "cannot be internally driven")
                used_outputs.add((src, src_port))
                fed_inputs.add((dst, dst_port))
                edges.append(Edge(src, src_port, dst, dst_port))
            else:
                (inst, inst_at), (port, port_at), (alias, alias_at) = fields
                check_port(inst, inst_at, port, port_at)
                if (inst, port) in fed_inputs:
                    self.fail(port_at, f"input {inst}.in[{port}] is internally driven and "
                                       "cannot be external")
                if (inst, port) in external_ports:
                    self.fail(port_at, f"input {inst}.in[{port}] declared external twice")
                if alias in aliases:
                    self.fail(alias_at, f"duplicate external name {alias!r}")
                external_ports.add((inst, port))
                aliases.add(alias)
                externals.append(ExternalPort(inst, port, alias))

        return NetDocument(components=components, instances=instances,
                           edges=tuple(edges), externals=tuple(externals))


def _to_array(rows: list[list[float]], shape: tuple[int, int]) -> np.ndarray:
    """Complex array of parsed rows; ``shape`` is used only when there are none."""
    if not rows:
        return np.zeros(shape, dtype=complex)
    return np.array(rows, dtype=float).view(complex)


def parse(source: str) -> NetDocument:
    """Parse QNET text; raises ParseError at the first offending location."""
    return _Parser(source).parse_document()


# ---------------------------------------------------------------------------
# serializer

def format_float(x: float) -> str:
    """Canonical float form: 17 significant digits (lossless for binary64)."""
    return f"{float(x):.17g}"


# Canonical entry forms, indexed by _entry_form: real part only when the
# imaginary part is zero, imaginary part only when the real part is zero,
# both otherwise.  Each form consumes the (real, imag) pair; "%.0s" prints
# the unused part as nothing.
_ENTRY_FORMS = np.array(("%.17g%.0s", "%.0s%.17gi", "%.17g%+.17gi"), dtype=object)


def _entry_form(z):
    """Index into _ENTRY_FORMS for complex scalars or arrays."""
    return np.where(z.imag == 0.0, 0, np.where(z.real == 0.0, 1, 2))


def format_cnum(z: complex) -> str:
    z = complex(z)
    return _ENTRY_FORMS[_entry_form(z)] % (z.real, z.imag)


def format_matrix(m: np.ndarray) -> str:
    """Canonical matrix literal, one row per ``%`` call.

    Rows are converted to Python floats one at a time so the temporaries
    stay the size of a row.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    if m.size == 0:
        return "[]"
    pairs = m.view(np.float64)   # real and imaginary parts interleaved by row
    rows = ["[" + ",".join(_ENTRY_FORMS[_entry_form(row)].tolist())
            % tuple(pair.tolist()) + "]" for row, pair in zip(m, pairs)]
    return "[" + ",".join(rows) + "]"


def serialize(doc: NetDocument) -> str:
    """Canonical QNET text: fixed key order, one declaration per line."""
    out: list[str] = []
    for name, comp in doc.components.items():
        out.append(f"component {name} {{")
        out.append(f"  inputs = {comp.n_ports};")
        out.append(f"  modes = {comp.m_modes};")
        out.append(f"  S = {format_matrix(comp.S)};")
        out.append(f"  C = {format_matrix(comp.C)};")
        out.append(f"  Omega = {format_matrix(comp.Omega)};")
        out.append("}")
    if doc.instances or doc.edges or doc.externals:
        out.append("network {")
        for inst, comp_name in doc.instances.items():
            out.append(f"  use {inst} : {comp_name};")
        for e in doc.edges:
            out.append(f"  connect {e.src_instance}.out[{e.src_port}] -> "
                       f"{e.dst_instance}.in[{e.dst_port}];")
        for ext in doc.externals:
            out.append(f"  external {ext.instance}.in[{ext.port}] as {ext.alias};")
        out.append("}")
    return "\n".join(out) + "\n"


def component_document(name: str, comp: LinearComponent) -> NetDocument:
    """Wrap a single component as a standalone document."""
    return NetDocument(components={name: comp}, instances={},
                       edges=(), externals=())


# ---------------------------------------------------------------------------
# network assembly

def build_partitioned(doc: NetDocument) -> PartitionedComponent:
    """Assemble the instances into one component plus its port partition.

    The component is the direct sum of the instances in declaration order.
    One pass over the instances collects their blocks, labels and port
    offsets; S, C and Omega are then allocated once and each instance's
    blocks copied into place, so assembly costs O(P² + P·M + M²) for P
    ports and M modes, the size of its output.  Connected ports become
    internal channels with a permutation adjacency built over ascending
    global port indices.  External inputs are ordered by declaration
    first, then remaining inputs ascending; external outputs are
    inferred, ascending.
    """
    parts: list[LinearComponent] = []
    offsets: dict[str, int] = {}
    port_labels: list[str] = []
    mode_labels: list[str] = []
    for inst, comp_name in doc.instances.items():
        comp = doc.components[comp_name]
        parts.append(comp)
        offsets[inst] = len(port_labels)
        port_labels.extend(f"{inst}.{p}" for p in comp.port_labels)
        mode_labels.extend(f"{inst}.{q}" for q in comp.mode_labels)
    total = len(port_labels)
    declared = []
    for ext in doc.externals:
        g = offsets[ext.instance] + ext.port
        port_labels[g] = ext.alias
        declared.append(g)
    combined = LinearComponent(block_diag(c.S for c in parts),
                               block_diag(c.C for c in parts),
                               block_diag(c.Omega for c in parts),
                               tuple(port_labels), tuple(mode_labels))

    internal_out = sorted(offsets[e.src_instance] + e.src_port for e in doc.edges)
    internal_in = sorted(offsets[e.dst_instance] + e.dst_port for e in doc.edges)
    out_pos = {g: j for j, g in enumerate(internal_out)}
    in_pos = {g: j for j, g in enumerate(internal_in)}
    eta = np.zeros((len(internal_out), len(internal_in)))
    for e in doc.edges:
        eta[out_pos[offsets[e.src_instance] + e.src_port],
            in_pos[offsets[e.dst_instance] + e.dst_port]] = 1.0

    taken_in = set(internal_in).union(declared)
    external_in = tuple(declared) + tuple(g for g in range(total) if g not in taken_in)
    external_out = tuple(g for g in range(total) if g not in out_pos)
    return PartitionedComponent(combined, internal_out=tuple(internal_out),
                                internal_in=tuple(internal_in), eta=eta,
                                external_out=external_out, external_in=external_in)


# ---------------------------------------------------------------------------
# bare matrix files (used by the Stratonovich CLI commands)

def parse_matrix_assignments(source: str) -> dict[str, np.ndarray]:
    """Parse a file of ``NAME = matrix;`` lines into named arrays.

    An empty literal "[]" comes back with shape (0, 0); callers that know
    the intended shape may reshape it.
    """
    parser = _Parser(source)
    result: dict[str, np.ndarray] = {}
    while parser.peek().kind != "EOF":
        name = parser.expect("NAME", "matrix name")
        if name.text in result:
            parser.fail(name.start, f"duplicate matrix name {name.text!r}")
        parser.expect("=")
        rows = parser.parse_matrix()
        parser.expect(";")
        if len({len(r) for r in rows}) > 1:
            parser.fail(name.start, f"matrix {name.text!r} has rows of unequal length")
        result[name.text] = _to_array(rows, (0, 0))
    return result


def format_matrix_assignments(pairs) -> str:
    """Inverse of parse_matrix_assignments, canonical form."""
    return "".join(f"{name} = {format_matrix(value)};\n" for name, value in pairs)
