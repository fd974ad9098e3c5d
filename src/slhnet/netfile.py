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
compiled pattern, so its cost is a few regex passes over the text.  Once
its pattern has accepted a row, numpy converts all of the row's numbers
in one call, correctly rounded as float() rounds them.  Only a row or
statement that its pattern rejects is walked token by token, to name the
first offending token; errors carry the same line and column as a
token-by-token parse would.

The canonical number is Python's "%.17g" (17 significant digits, enough
to round-trip any binary64 value), and "%+.17g" for an imaginary part
that follows a real one; format_matrix, format_cnum, serialize and
format_table all write it.  They format whole arrays at once, in chunks:
numpy takes the 17 digits from a double-double product with an exact
table of powers of ten, then lays out the bytes; that table and the
digit tables are built on first use.  A real array is formatted without
the imaginary parts, which would all be zero.  A number whose rounding
that product cannot settle (a remainder within 1e-9 of a tie), a nonzero
|x| outside [1e-290, 1e290) (subnormals included), inf and nan are
formatted by "%" itself instead, and so is an array of fewer than
_VECTOR_MIN numbers; either way the bytes are those of "%.17g".

A square complex matrix whose mirror entries print as conjugates (real
parts equal bit for bit, imaginary parts exact negatives, as in every
hermitian Omega the library builds) is formatted from its upper triangle
alone, (n² + n)/2 entries: an entry below the diagonal takes the bytes of
its mirror entry with the sign of the imaginary part flipped.  Any other
matrix is formatted entry by entry.
"""

from __future__ import annotations

import functools
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
# Stripped of comments and whitespace, and with "j" for "i", the entries of
# a row _ROW accepted are numpy's complex text, read in one call.
_CNUM = rf"(?:[+-]{_SKIP})?{_NUMBER}(?:i|{_SKIP}[+-]{_SKIP}{_NUMBER}i)?"
_ROW = re.compile(rf"{_SKIP}\[({_SKIP}{_CNUM}{_SKIP}(?:,{_SKIP}{_CNUM}{_SKIP})*)\]{_SKIP}(,?)")
_COMMENT = re.compile(r"#[^\n]*")
_TO_NUMPY = str.maketrans({" ": None, "\t": None, "\r": None, "\n": None, "i": "j"})

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

    def parse_matrix(self) -> list[np.ndarray]:
        """Rows of a matrix literal, each a complex array."""
        self.expect("[", "matrix")
        if self.accept("]"):
            return []
        rows = []
        more = True
        while more:
            m = _ROW.match(self.source, self.pos)
            if m is None:
                self.reject_row()
            row = m.group(1)
            if "#" in row:
                row = _COMMENT.sub("", row)
            rows.append(np.fromstring(row.translate(_TO_NUMPY), dtype=complex, sep=","))
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
        widths = {len(r) for r in rows}
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
                components[name] = LinearComponent._adopt(S, C, Omega)
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


def _to_array(rows: list[np.ndarray], shape: tuple[int, int]) -> np.ndarray:
    """Complex array of parsed rows; ``shape`` is used only when there are none."""
    if not rows:
        return np.zeros(shape, dtype=complex)
    return np.array(rows, dtype=complex)


def parse(source: str) -> NetDocument:
    """Parse QNET text; raises ParseError at the first offending location."""
    return _Parser(source).parse_document()


# ---------------------------------------------------------------------------
# canonical numbers
#
# _number_words writes each number into _WORDS uint64 words, NUL-padded;
# _text drops the NULs.  In byte order the words hold:
#
#   word 0      the sign (byte 0, NUL when there is none), "0." and up to three
#               leading zeros; the first digit (byte 6)
#   words 1-2   the digits after the first up to the decimal point; the point (byte 15)
#   words 3-4   the digits after the point, up to the last nonzero one
#   word 5      "e" and the signed exponent, in scientific notation
#
# An entry (_entry_words) is the words of its real part, then those of its
# imaginary part, then a tail word; a part that is not printed is all NUL.
# So the conjugate entry differs in one byte, byte 0 of the imaginary part.
#
# The digits are the integer D nearest |x|·10^(16-E), E = ⌊log10 |x|⌋,
# from Dekker's double-double product (Numer. Math. 18:224, 1971) with
# the exact table of 10^k, built with the others on first use by _tables():
# the fraction that decides the rounding is off by less than 5e-15, far
# inside _TIE.

_CHUNK = 8192            # entries per pass: bounds the temporaries, not the text
_VECTOR_MIN = 128        # fewer numbers than this are formatted one by one
_TIE = 1e-9              # a fraction this close to ½ is left to "%"
_WORDS = 6
_K_MIN, _K_MAX = -275, 308     # 10^(16-E) for every E of |x| in [1e-290, 1e290)
_E = np.arange(16 - _K_MAX, 18 - _K_MIN)     # those E, and E + 1 after a rounding carry


def _items(words: np.ndarray) -> np.ndarray:
    """The rows of a word array, each one item: a copy moves whole rows at once."""
    return words.view(np.dtype((np.void, 8 * words.shape[-1])))[..., 0]


def _ascii_words(texts) -> np.ndarray:
    """One uint64 word per text of at most 8 bytes, NUL-padded."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)


_I = _ascii_words([b"\0" * 7 + b"i"])[0]     # after any number, in its last byte


def _pow10_table() -> np.ndarray:
    """Rows hi, lo, hh, hl of 10^k for k = _K_MIN.._K_MAX.

    hi and lo are 10^k and its remainder, each rounded correctly from exact
    integer arithmetic; hh + hl = hi splits hi into 26 and 27 significant
    bits, so Dekker's product needs no split of hi that could overflow.
    """
    hi, lo = [], []
    p = 10 ** -_K_MIN
    for _ in range(_K_MIN, 0):            # int / int rounds correctly
        h = 1 / p
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append((den - num * p) / (den * p))
        p //= 10
    for _ in range(_K_MAX + 1):
        hi.append(float(p))
        lo.append(float(p - int(float(p))))
        p *= 10
    hi = np.array(hi)
    hh = (hi.view(np.uint64) & np.uint64(2**64 - 2**27)).view(np.float64)
    return np.stack([hi, np.array(lo), hh, hi - hh])


class _Tables(NamedTuple):
    P10: np.ndarray           # _pow10_table()
    QUAD: np.ndarray          # the 4 ASCII digits of n < 10000, as one uint32
    SIGNIFICANT: np.ndarray   # row k, group n: digits up to the group's last nonzero one
    SPLIT: np.ndarray         # by E: digits after the first that precede the point
    PREFIX: np.ndarray        # by sign and E: the sign or NUL, and "0.000" for a small E
    FIRST: np.ndarray         # by digit: that digit in byte 6 of word 0
    EXPONENT: np.ndarray      # by E: "e" and the exponent, in scientific notation
    MASKS: np.ndarray         # by split and significant digits: masks of words 1-4, one item
    POINT: np.ndarray         # by split and significant digits: the point in word 2, or 0


@functools.cache
def _tables() -> _Tables:
    """The tables of the array route, built on its first use, not at import."""
    n = np.arange(10000, dtype=np.uint16)
    quad = (np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + 48
            ).astype(np.uint8)
    # row k, for group k of the 16 digits after the first: how many of those 16
    # run up to its last nonzero digit, 0 for a group 0000
    last = ((quad != 48) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)
    significant = np.where(last > 0, last + np.arange(0, 16, 4, dtype=np.uint8)[:, None], 0
                           ).astype(np.uint8)
    sci = (_E < -4) | (_E > 16)
    # 17 for "0.000d...", whose point is in word 0
    split = np.where(sci, 0, np.where(_E < 0, 17, np.minimum(_E, 16)))
    prefix = _ascii_words([sign + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
                           for sign in (b"\0", b"-", b"+") for e in _E.tolist()])
    first = _ascii_words([b"\0" * 6 + bytes([48 + d]) for d in range(10)])
    exponent = _ascii_words([b"e%+03d" % e if s else b""
                             for e, s in zip(_E.tolist(), sci.tolist())])
    # by (split, significant digits): masks of words 1-2 and 3-4, and the point for word 2
    head = np.tril(np.full((17, 16), 255, np.uint8), -1).view(np.uint64)   # row j: first j bytes
    masks = np.zeros((18, 17, 5), np.uint64)
    masks[:17, :, :2] = head[:, None]
    masks[:17, :, 2:4] = head[None, :] & ~head[:, None]
    masks[:17, :, 4] = np.where(n[:17] > n[:17, None], _ascii_words([b"\0" * 7 + b"."])[0], 0)
    masks[17, :, 2:4] = head                   # "0.000d...": no digits before the point
    masks = masks.reshape(-1, 5)
    tables = _Tables(_pow10_table(), quad.view(np.uint32).ravel(), significant, split, prefix,
                     first, exponent, _items(np.ascontiguousarray(masks[:, :4])),
                     masks[:, 4].copy())
    for table in tables:                       # shared by every caller from now on
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, E: np.ndarray):
    """a·10^(16-E) as its integer part and the fraction in [0, 1) left over."""
    hi, lo, hh, hl = (row.take(16 - _K_MIN - E) for row in _tables().P10)
    p = a * hi
    t = a * 134217729.0            # Dekker's split of a: ah + al, 26 bits each
    ah = t - (t - a)
    al = a - ah
    rest = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    floor = np.floor(rest)
    return p.astype(np.int64) + floor.astype(np.int64), rest - floor


def _scalar_words(x: np.ndarray, plus) -> np.ndarray:
    """The words of x formatted one number at a time by "%", byte 0 the sign or NUL."""
    forms = (["%.17g"] * len(x) if plus is None
             else [("%.17g", "%+.17g")[p] for p in plus.tolist()])
    texts = (form % v for form, v in zip(forms, x.tolist()))
    text = b"".join((t if t[0] in "+-" else "\0" + t).encode().ljust(8 * _WORDS, b"\0")
                    for t in texts)
    return np.frombuffer(bytearray(text), np.uint64).reshape(len(x), _WORDS)


def _number_words(x: np.ndarray, plus=None) -> np.ndarray:
    """(len(x), _WORDS) words of "%.17g" % x[i], or "%+.17g" where plus[i]."""
    if len(x) < _VECTOR_MIN:
        return _scalar_words(x, plus)
    t = _tables()
    a = np.abs(x)
    fast = (a >= 1e-290) & (a < 1e290)          # not 0, subnormal, inf or nan
    zero = a == 0.0
    a[~fast] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, E)
    off = (whole < 10**16) | (whole >= 10**17)   # log10 missed a power of ten; fix before rounding
    if off.any():
        i = np.flatnonzero(off)
        E[i] += np.where(whole[i] < 10**16, -1, 1)
        whole[i], frac[i] = _scaled(a[i], E[i])
    fast &= np.abs(frac - 0.5) > _TIE
    D = whole + (frac > 0.5)
    carry = D == 10**17
    D[carry] = 10**16
    E += carry
    D[zero] = 0
    E[zero] = 0
    top = D // 10**8                  # D = first digit, then four groups of four
    low = D - top * 10**8
    first = top // 10**8
    mid = top - first * 10**8
    quads = np.empty((len(x), 8), np.uint32)          # the 16 digits, for words 1-2 and 3-4
    significant = np.zeros(len(x), np.int64)
    g1, g3 = mid // 10**4, low // 10**4
    for k, g in enumerate((g1, mid - g1 * 10**4, g3, low - g3 * 10**4)):
        quads[:, k] = quads[:, k + 4] = t.QUAD.take(g)
        np.maximum(significant, t.SIGNIFICANT[k].take(g), out=significant)
    e = E - _E[0]
    layout = t.SPLIT.take(e) * 17 + significant
    digits = t.MASKS.take(layout).view(np.uint64).reshape(-1, 4)
    digits &= quads.view(np.uint64)
    digits[:, 1] |= t.POINT.take(layout)
    sign = np.signbit(x).astype(np.intp)             # "", "-", "+"
    if plus is not None:
        sign[plus & (sign == 0)] = 2
    words = np.empty((len(x), _WORDS), np.uint64)
    words[:, 0] = t.PREFIX.take(sign * len(_E) + e) | t.FIRST.take(first)
    _items(words[:, 1:5])[:] = _items(digits)
    words[:, 5] = t.EXPONENT.take(e)
    slow = np.flatnonzero(~(fast | zero))
    if len(slow):
        words[slow] = _scalar_words(x[slow], None if plus is None else plus[slow])
    return words


def _entry_words(z: np.ndarray) -> np.ndarray:
    """Words of canonical complex entries, plus one tail word each, left unset.

    An entry is its real part alone when the imaginary part is zero, its
    imaginary part and "i" alone when only the real part is zero, and
    otherwise both, the imaginary part with its sign.
    """
    n = len(z)
    has_im = z.imag != 0.0
    has_re = (z.real != 0.0) | ~has_im
    parts = _number_words(np.concatenate([z.real, z.imag]),   # one call: half the fixed cost
                          plus=np.concatenate([np.zeros(n, dtype=bool), has_re]))
    parts[np.concatenate([~has_re, ~has_im])] = 0
    parts[n:, -1] |= has_im * _I
    words = np.empty((n, 2 * _WORDS + 1), np.uint64)
    _items(words[:, :_WORDS])[:] = _items(parts[:n])
    _items(words[:, _WORDS:-1])[:] = _items(parts[n:])
    return words


def _real_words(x: np.ndarray) -> np.ndarray:
    """Words of canonical real numbers, plus one tail word each, left unset."""
    words = np.empty((len(x), _WORDS + 1), np.uint64)
    words[:, :-1] = _number_words(x)
    return words


def _text(words: np.ndarray) -> str:
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _row_pieces(size: int, cols: int, chunks, tails: np.ndarray) -> list[str]:
    """Text of ``size`` entries in rows of ``cols``, one piece per chunk.

    ``chunks`` yields the entries' words in order, each with a last tail
    word that is set here: tails[0] inside a row, tails[1] after a row and
    tails[2] after the last one.
    """
    pieces = []
    start = 0
    for words in chunks:
        stop = start + len(words)
        end = np.zeros(len(words), np.intp)
        end[(cols - 1 - start) % cols::cols] = 1
        if stop == size:
            end[-1] = 2
        words[:, -1] = tails.take(end)
        pieces.append(_text(words))
        start = stop
    return pieces


_MATRIX_TAILS = _ascii_words([b",", b"],[", b"]]"])
_TABLE_TAILS = _ascii_words([b",", b"\n", b"\n"])
_NA = _ascii_words([b"NA"] + [b""] * (_WORDS - 1))


def _is_hermitian(m: np.ndarray) -> bool:
    """Whether each mirror pair of the square complex m prints as a conjugate pair.

    The real parts must agree bit for bit (0 and -0 compare equal but
    print differently) and the imaginary parts be exact negatives.
    """
    re = m.real.view(np.uint64)
    return bool(np.array_equal(re, re.T) and np.array_equal(m.imag, -m.imag.T))


def _conjugate(words: np.ndarray) -> None:
    """Turn entry words, in place, into the words of the conjugate entries.

    Only byte 0 of the imaginary part changes: "+" and "-" swap (XOR 0x06)
    after a printed real part, NUL and "-" (XOR 0x2D) when the imaginary
    part stands alone, and nothing when it is not printed.
    """
    flip = np.where(words[..., 0] != 0, np.uint8(0x06), np.uint8(0x2D))
    flip[words[..., _WORDS] == 0] = 0
    words.view(np.uint8)[..., 8 * _WORDS] ^= flip


def _hermitian_chunks(m: np.ndarray):
    """Entry words of a matrix that passed _is_hermitian, in blocks of whole rows.

    Only the (n² + n)/2 entries on and above the diagonal are formatted.
    Their words, without the tail word, go into one store, row by row; an
    entry below the diagonal takes the words of its mirror entry from the
    store, conjugated.  The store is the only array that outlives a block,
    and it is freed after the last one.
    """
    n = len(m)
    rows = max(1, _CHUNK // n)
    r = np.arange(n + 1)
    start = r * n - r * (r - 1) // 2                    # where row r starts in the store
    store = np.empty((start[n], 2 * _WORDS), np.uint64)
    triangle = np.triu(np.ones((rows, n), dtype=bool))
    for a in range(0, n, rows):
        b = min(a + rows, n)
        upper = triangle[:b - a, :n - a]
        new = _entry_words(m[a:b, a:][upper])
        store[start[a]:start[b]] = new[:, :-1]
        words = np.empty((b - a, n, 2 * _WORDS + 1), np.uint64)
        _items(words)[:, a:][upper] = _items(new)
        # entry (i, j) below the diagonal mirrors (j, i), stored at start[j] + i - j
        i, j = np.arange(a, b)[:, None], np.arange(b)
        lower = j < i
        mirrored = store[(start[:b] + i - j)[lower]]
        _conjugate(mirrored)
        _items(words[:, :b, :-1])[lower] = _items(mirrored)
        yield words.reshape(-1, 2 * _WORDS + 1)


def _matrix_pieces(m) -> list[str]:
    """The canonical matrix literal in pieces of at most _CHUNK entries, or of one row.

    A real array is formatted as its real parts alone: the imaginary
    parts of its entries would all be zero, which an entry leaves out.
    A square complex array whose mirror pairs print as conjugates (every
    hermitian Omega) formats only its upper triangle (_hermitian_chunks).
    """
    m = np.asarray(m)
    if m.size == 0:
        return ["[]"]
    real = m.dtype.kind in "biuf"
    m = np.ascontiguousarray(m, dtype=float if real else complex)
    if not real and m.shape[0] == m.shape[1] and _is_hermitian(m):
        chunks = _hermitian_chunks(m)
    else:
        flat = m.reshape(-1)
        words_of = _real_words if real else _entry_words
        chunks = (words_of(flat[start:start + _CHUNK]) for start in range(0, flat.size, _CHUNK))
    return ["[[", *_row_pieces(m.size, m.shape[1], chunks, _MATRIX_TAILS)]


def format_cnum(z: complex) -> str:
    """Canonical complex number, as one matrix entry."""
    words = _entry_words(np.array([complex(z)]))
    words[:, -1] = 0
    return _text(words)


def format_matrix(m: np.ndarray) -> str:
    """Canonical matrix literal: rows of canonical entries, "[]" when empty."""
    return "".join(_matrix_pieces(m))


def format_table(table: np.ndarray, missing: np.ndarray) -> str:
    """CSV lines of a float table, cells in the canonical number form.

    The cells after the first of each row where ``missing`` is set read NA.
    """
    table = np.asarray(table, dtype=float)
    na = np.zeros(table.shape, dtype=bool)
    na[missing, 1:] = True
    flat, na = table.reshape(-1), na.reshape(-1)

    def chunks():
        for start in range(0, flat.size, _CHUNK):
            words = _real_words(flat[start:start + _CHUNK])
            words[na[start:start + _CHUNK], :-1] = _NA
            yield words

    return "".join(_row_pieces(flat.size, table.shape[1], chunks(), _TABLE_TAILS))


# ---------------------------------------------------------------------------
# serializer

def serialize(doc: NetDocument) -> str:
    """Canonical QNET text: fixed key order, one declaration per line.

    Every piece goes into one list, joined once, so the text of a large
    matrix is copied once.
    """
    out: list[str] = []
    for name, comp in doc.components.items():
        out.append(f"component {name} {{\n  inputs = {comp.n_ports};\n"
                   f"  modes = {comp.m_modes};\n  S = ")
        out += _matrix_pieces(comp.S)
        out.append(";\n  C = ")
        out += _matrix_pieces(comp.C)
        out.append(";\n  Omega = ")
        out += _matrix_pieces(comp.Omega)
        out.append(";\n}\n")
    if doc.instances or doc.edges or doc.externals:
        out.append("network {\n")
        for inst, comp_name in doc.instances.items():
            out.append(f"  use {inst} : {comp_name};\n")
        for e in doc.edges:
            out.append(f"  connect {e.src_instance}.out[{e.src_port}] -> "
                       f"{e.dst_instance}.in[{e.dst_port}];\n")
        for ext in doc.externals:
            out.append(f"  external {ext.instance}.in[{ext.port}] as {ext.alias};\n")
        out.append("}\n")
    return "".join(out) or "\n"


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
    internal channels, listed by ascending global port index, and η is
    passed as the vector that pairs them.  External inputs are ordered by
    declaration first, then remaining inputs ascending; external outputs
    are inferred, ascending.
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
    combined = LinearComponent._adopt(block_diag(c.S for c in parts),
                                      block_diag(c.C for c in parts),
                                      block_diag(c.Omega for c in parts),
                                      tuple(port_labels), tuple(mode_labels))

    src = np.array([offsets[e.src_instance] + e.src_port for e in doc.edges], dtype=np.intp)
    dst = np.array([offsets[e.dst_instance] + e.dst_port for e in doc.edges], dtype=np.intp)
    by_src, by_dst = np.argsort(src), np.argsort(dst)
    rank_dst = np.empty_like(by_dst)
    rank_dst[by_dst] = np.arange(len(dst))
    taken_in = set(dst.tolist()).union(declared)
    internal_out = set(src.tolist())
    external_in = tuple(declared) + tuple(g for g in range(total) if g not in taken_in)
    external_out = tuple(g for g in range(total) if g not in internal_out)
    return PartitionedComponent(combined, internal_out=tuple(src[by_src].tolist()),
                                internal_in=tuple(dst[by_dst].tolist()), eta=rank_dst[by_src],
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
    out: list[str] = []
    for name, value in pairs:
        out += [f"{name} = ", *_matrix_pieces(value), ";\n"]
    return "".join(out)
