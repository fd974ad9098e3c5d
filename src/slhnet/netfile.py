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
"0.5-0.25i", "2i").  A matrix with zero rows or zero columns is written
"[]", its shape recovered from the declared inputs/modes.  Channels are
point-to-point: every input is fed by at most one edge and every output
feeds at most one edge; splitting a field needs an explicit beam-splitter
component.  Comments run from "#" to end of line, port indices are
0-based, and the canonical serialization (fixed key order, 17 significant
digits, one declaration per line) round-trips exactly through the parser.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# lexer

_PUNCT = {"{", "}", "[", "]", "=", ";", ",", ":", "."}
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789")
_DIGITS = set("0123456789")


@dataclass(frozen=True)
class _Token:
    kind: str          # NAME, NUMBER, punctuation text, ->, +, -, EOF
    text: str
    line: int
    col: int
    value: float = 0.0
    imag: bool = False


def _scan_number(source: str, i: int) -> int:
    """Return the end index of the numeric literal starting at i."""
    n = len(source)
    j = i
    while j < n and source[j] in _DIGITS:
        j += 1
    if j < n and source[j] == ".":
        j += 1
        while j < n and source[j] in _DIGITS:
            j += 1
    if j < n and source[j] in "eE":
        k = j + 1
        if k < n and source[k] in "+-":
            k += 1
        if k < n and source[k] in _DIGITS:
            j = k
            while j < n and source[j] in _DIGITS:
                j += 1
    return j


def _tokenize(source: str, lines: list[str]) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def err(message: str):
        snippet = lines[line - 1] if line <= len(lines) else ""
        raise ParseError(line, col, message, snippet)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == "-" and i + 1 < n and source[i + 1] == ">":
            tokens.append(_Token("->", "->", line, start_col))
            i += 2
            col += 2
            continue
        if ch in "+-":
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            end = _scan_number(source, i)
            text = source[i:end]
            imag = False
            if end < n and source[end] == "i" and (end + 1 >= n or source[end + 1] not in _NAME_CHARS):
                imag = True
                end += 1
                text = source[i:end]
            tokens.append(_Token("NUMBER", text, line, start_col,
                                 value=float(text[:-1] if imag else text), imag=imag))
            col += end - i
            i = end
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch in _NAME_START:
            end = i + 1
            while end < n and source[end] in _NAME_CHARS:
                end += 1
            text = source[i:end]
            tokens.append(_Token("NAME", text, line, start_col))
            col += end - i
            i = end
            continue
        err(f"unexpected character {ch!r}")
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser

_COMPONENT_KEYS = ("inputs", "modes", "S", "C", "Omega")


class _Parser:
    def __init__(self, source: str):
        self.lines = source.split("\n")
        self.tokens = _tokenize(source, self.lines)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, token: _Token, message: str):
        snippet = self.lines[token.line - 1] if token.line <= len(self.lines) else ""
        raise ParseError(token.line, token.col, message, snippet)

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(tok, f"expected {what or kind!r}, found {tok.text or 'end of file'!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != word:
            self.error(tok, f"expected '{word}', found {tok.text or 'end of file'!r}")
        return self.advance()

    def expect_int(self, what: str) -> tuple[int, _Token]:
        tok = self.expect("NUMBER", what)
        if tok.imag or not tok.value.is_integer():   # also rejects 1e400 (inf)
            self.error(tok, f"expected {what} to be a nonnegative integer")
        return int(tok.value), tok

    # -- grammar -----------------------------------------------------------

    def parse_document(self) -> NetDocument:
        raw_components: list[tuple[_Token, dict]] = []
        statements: list[tuple] = []
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "NAME" and tok.text == "component":
                raw_components.append(self.parse_component())
            elif tok.kind == "NAME" and tok.text == "network":
                statements.extend(self.parse_network())
            else:
                self.error(tok, "expected 'component' or 'network'")
        return self.analyze(raw_components, statements)

    def parse_component(self) -> tuple[_Token, dict]:
        self.expect_keyword("component")
        name_tok = self.expect("NAME", "component name")
        self.expect("{")
        entries: dict[str, tuple[_Token, object]] = {}
        while self.peek().kind != "}":
            key_tok = self.expect("NAME", "component key")
            if key_tok.text not in _COMPONENT_KEYS:
                self.error(key_tok, f"unknown key {key_tok.text!r} in component block")
            if key_tok.text in entries:
                self.error(key_tok, f"duplicate key {key_tok.text!r}")
            self.expect("=")
            if key_tok.text in ("inputs", "modes"):
                value, _ = self.expect_int(key_tok.text)
            else:
                value = self.parse_matrix()
            self.expect(";")
            entries[key_tok.text] = (key_tok, value)
        self.expect("}")
        return name_tok, entries

    def parse_matrix(self) -> list[list[complex]]:
        self.expect("[", "matrix")
        if self.peek().kind == "]":
            self.advance()
            return []
        rows = [self.parse_row()]
        while self.peek().kind == ",":
            self.advance()
            rows.append(self.parse_row())
        self.expect("]")
        return rows

    def parse_row(self) -> list[complex]:
        self.expect("[", "matrix row")
        entries = [self.parse_cnum()]
        while self.peek().kind == ",":
            self.advance()
            entries.append(self.parse_cnum())
        self.expect("]")
        return entries

    def parse_cnum(self) -> complex:
        sign = 1.0
        tok = self.peek()
        if tok.kind in ("+", "-"):
            self.advance()
            sign = -1.0 if tok.kind == "-" else 1.0
        first = self.expect("NUMBER", "number")
        if first.imag:
            return complex(0.0, sign * first.value)
        value = complex(sign * first.value, 0.0)
        nxt = self.peek()
        if nxt.kind in ("+", "-"):
            self.advance()
            imag_sign = -1.0 if nxt.kind == "-" else 1.0
            second = self.expect("NUMBER", "imaginary part")
            if not second.imag:
                self.error(second, "expected imaginary part with 'i' suffix")
            return complex(value.real, imag_sign * second.value)
        return value

    def parse_network(self) -> list[tuple]:
        self.expect_keyword("network")
        self.expect("{")
        statements: list[tuple] = []
        while self.peek().kind != "}":
            tok = self.peek()
            if tok.kind != "NAME":
                self.error(tok, "expected 'use', 'connect' or 'external'")
            if tok.text == "use":
                self.advance()
                inst_tok = self.expect("NAME", "instance name")
                self.expect(":")
                comp_tok = self.expect("NAME", "component name")
                self.expect(";")
                statements.append(("use", inst_tok, comp_tok))
            elif tok.text == "connect":
                self.advance()
                src_inst = self.expect("NAME", "instance name")
                self.expect(".")
                self.expect_keyword("out")
                self.expect("[")
                src_port, src_port_tok = self.expect_int("port index")
                self.expect("]")
                self.expect("->", "'->'")
                dst_inst = self.expect("NAME", "instance name")
                self.expect(".")
                self.expect_keyword("in")
                self.expect("[")
                dst_port, dst_port_tok = self.expect_int("port index")
                self.expect("]")
                self.expect(";")
                statements.append(("connect", src_inst, src_port, src_port_tok,
                                   dst_inst, dst_port, dst_port_tok))
            elif tok.text == "external":
                self.advance()
                inst_tok = self.expect("NAME", "instance name")
                self.expect(".")
                self.expect_keyword("in")
                self.expect("[")
                port, port_tok = self.expect_int("port index")
                self.expect("]")
                self.expect_keyword("as")
                alias_tok = self.expect("NAME", "external port name")
                self.expect(";")
                statements.append(("external", inst_tok, port, port_tok, alias_tok))
            else:
                self.error(tok, "expected 'use', 'connect' or 'external'")
        self.expect("}")
        return statements

    # -- semantic pass -----------------------------------------------------

    def _shape_matrix(self, key_tok: _Token, rows: list[list[complex]],
                      shape: tuple[int, int], what: str) -> np.ndarray:
        want_r, want_c = shape
        if not rows:
            if want_r * want_c != 0:
                self.error(key_tok, f"{what} must be {want_r}x{want_c}, got empty matrix")
            return np.zeros(shape, dtype=complex)
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            self.error(key_tok, f"{what} has rows of unequal length")
        got = (len(rows), widths.pop())
        if got != shape:
            self.error(key_tok, f"{what} must be {want_r}x{want_c}, got {got[0]}x{got[1]}")
        return np.array(rows, dtype=complex)

    def analyze(self, raw_components, statements) -> NetDocument:
        components: dict[str, LinearComponent] = {}
        for name_tok, entries in raw_components:
            if name_tok.text in components:
                self.error(name_tok, f"duplicate component name {name_tok.text!r}")
            for key in _COMPONENT_KEYS:
                if key not in entries:
                    self.error(name_tok,
                               f"component {name_tok.text!r} is missing key {key!r}")
            n = entries["inputs"][1]
            m = entries["modes"][1]
            S = self._shape_matrix(entries["S"][0], entries["S"][1], (n, n), "S")
            C = self._shape_matrix(entries["C"][0], entries["C"][1], (n, m), "C")
            Omega = self._shape_matrix(entries["Omega"][0], entries["Omega"][1],
                                       (m, m), "Omega")
            try:
                components[name_tok.text] = LinearComponent(S, C, Omega)
            except ValueError as exc:
                self.error(name_tok, f"invalid component {name_tok.text!r}: {exc}")

        instances: dict[str, str] = {}
        edges: list[Edge] = []
        externals: list[ExternalPort] = []
        fed_inputs: set[tuple[str, int]] = set()
        used_outputs: set[tuple[str, int]] = set()
        external_ports: set[tuple[str, int]] = set()
        aliases: set[str] = set()

        def check_port(inst_tok: _Token, port: int, port_tok: _Token) -> str:
            if inst_tok.text not in instances:
                self.error(inst_tok, f"unknown instance {inst_tok.text!r}")
            n_ports = components[instances[inst_tok.text]].n_ports
            if port >= n_ports:
                self.error(port_tok,
                           f"port index {port} out of range for instance "
                           f"{inst_tok.text!r} with {n_ports} ports")
            return inst_tok.text

        for st in statements:
            if st[0] == "use":
                _, inst_tok, comp_tok = st
                if inst_tok.text in instances:
                    self.error(inst_tok, f"duplicate instance name {inst_tok.text!r}")
                if comp_tok.text not in components:
                    self.error(comp_tok, f"unknown component {comp_tok.text!r}")
                instances[inst_tok.text] = comp_tok.text
            elif st[0] == "connect":
                _, src_inst, src_port, src_tok, dst_inst, dst_port, dst_tok = st
                src = check_port(src_inst, src_port, src_tok)
                dst = check_port(dst_inst, dst_port, dst_tok)
                if (src, src_port) in used_outputs:
                    self.error(src_tok,
                               f"output {src}.out[{src_port}] already feeds an edge")
                if (dst, dst_port) in fed_inputs:
                    self.error(dst_tok,
                               f"input {dst}.in[{dst_port}] is already fed by an edge")
                if (dst, dst_port) in external_ports:
                    self.error(dst_tok,
                               f"input {dst}.in[{dst_port}] is declared external and "
                               "cannot be internally driven")
                used_outputs.add((src, src_port))
                fed_inputs.add((dst, dst_port))
                edges.append(Edge(src, src_port, dst, dst_port))
            else:
                _, inst_tok, port, port_tok, alias_tok = st
                inst = check_port(inst_tok, port, port_tok)
                if (inst, port) in fed_inputs:
                    self.error(port_tok,
                               f"input {inst}.in[{port}] is internally driven and "
                               "cannot be external")
                if (inst, port) in external_ports:
                    self.error(port_tok,
                               f"input {inst}.in[{port}] declared external twice")
                if alias_tok.text in aliases:
                    self.error(alias_tok, f"duplicate external name {alias_tok.text!r}")
                external_ports.add((inst, port))
                aliases.add(alias_tok.text)
                externals.append(ExternalPort(inst, port, alias_tok.text))

        return NetDocument(components=components, instances=instances,
                           edges=tuple(edges), externals=tuple(externals))


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
        name_tok = parser.expect("NAME", "matrix name")
        if name_tok.text in result:
            parser.error(name_tok, f"duplicate matrix name {name_tok.text!r}")
        parser.expect("=")
        rows = parser.parse_matrix()
        parser.expect(";")
        if not rows:
            result[name_tok.text] = np.zeros((0, 0), dtype=complex)
        else:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                parser.error(name_tok, f"matrix {name_tok.text!r} has rows of unequal length")
            result[name_tok.text] = np.array(rows, dtype=complex)
    return result


def format_matrix_assignments(pairs) -> str:
    """Inverse of parse_matrix_assignments, canonical form."""
    return "".join(f"{name} = {format_matrix(value)};\n" for name, value in pairs)
