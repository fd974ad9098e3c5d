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

The parser reads each block head, each component entry ("key = value;",
a whole matrix literal included) and each network statement with one
compiled pattern, so its cost is about one regex pass over the text.
Every repeat in those patterns is possessive: a run of separators, digits
or rows is never split two ways, so a rejected text costs one pass too.
Once its pattern has accepted a matrix, numpy converts all of its numbers
in one call, correctly rounded as float() rounds them.  Only where no
pattern matches, or a matched construct fails a check, are tokens walked
one by one, to name the first offending token; errors carry the same line
and column as a token-by-token parse would.

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
# tokens; a comment runs to the end of its line.  Every repeat below is
# possessive: like a token-by-token scan it takes the longest run and never
# gives part of it back, so a pattern accepts the same texts as the scan
# and rejects a text in one pass, with no retries; even two _SKIPs side by
# side cannot split a run of whitespace between them.  (Python >= 3.11.)
_WORD_END = r"(?![A-Za-z0-9_])"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*+"
_NUMBER = r"(?:[0-9]++(?:\.[0-9]*+)?+|\.[0-9]++)(?:[eE][+-]?+[0-9]++)?+"
_SKIP = r"[ \t\r\n]*+(?:#[^\n]*+[ \t\r\n]*+)*+"

# Every character outside a comment starts or continues a token, except
# ">" not preceded by "-"; a match ends at the first character that does not.
# Each turn of the outer loop costs the matcher memory, so "-" sits in the
# long runs, and only comments and ">" take a turn of their own.
_LEXABLE = r"(?:[ \t\r\n{}\[\]=;,:.+\-0-9A-Za-z_]+|(?<=-)>|#[^\n]*)*"
_TOKEN = rf"{_SKIP}(?:({_NUMBER}(?:i{_WORD_END})?)|({_NAME})|(->|.))?"
_TOKEN_KINDS = (None, "NUMBER", "NAME", None)   # by group; any other character is its own kind

# A matrix literal: "[]", or "[" rows "]" with the rows in its one group.
# No name character can follow an entry's "i" there, so it needs no
# _WORD_END.  Stripped of comments, whitespace and brackets, and with "j"
# for "i", the rows are numpy's complex text, read in one call.
_CNUM = rf"(?:[+-]{_SKIP})?+{_NUMBER}(?:i|{_SKIP}[+-]{_SKIP}{_NUMBER}i)?+"
_ROW = rf"\[{_SKIP}{_CNUM}{_SKIP}(?:,{_SKIP}{_CNUM}{_SKIP})*+\]"
_MATRIX = rf"\[{_SKIP}(?:\]|({_ROW}(?:{_SKIP},{_SKIP}{_ROW})*+){_SKIP}\])"
# Each pattern is compiled where it is used, through re's own cache, by the first
# parse that needs it; a valid QNET or matrix file never compiles _TOKEN, _LEXABLE
# or _ROWS.
_ROWS = rf"(?:{_SKIP}{_ROW}{_SKIP},)*+"     # the rows a matrix walk skips, each with its ","
_COMMENT = r"#[^\n]*"
_TO_NUMPY = str.maketrans({" ": None, "\t": None, "\r": None, "\n": None, "[": None, "]": None,
                           "i": "j"})

# A component entry or matrix assignment: a name (group 1), "=", a count
# (group 2) or a matrix (rows in group 3), ";"; the "}" that closes a block; and
# the end of a matrix file.
_ENTRY = rf"{_SKIP}({_NAME}){_SKIP}={_SKIP}(?:({_NUMBER})|{_MATRIX}){_SKIP};"
_CLOSE = rf"{_SKIP}\}}"
_EOF = rf"{_SKIP}\Z"

# Block heads and network statements by keyword, for their pattern and walk: one
# step per token, a keyword or a token's (kind, what), NAME and NUMBER the fields.
_HEADS = {
    "component": ("component", ("NAME", "component name"), ("{", None)),
    "network": ("network", ("{", None)),
}
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


def _statement_pattern(steps) -> str:
    parts = [step + _WORD_END if isinstance(step, str)
             else f"({_NAME})" if step[0] == "NAME"
             else f"({_NUMBER})" if step[0] == "NUMBER"
             else re.escape(step[0]) for step in steps]
    return _SKIP.join(parts)


# One block head or statement of any kind; m.lastindex tells the kind.  A head
# has a component's name in group 1 or the end of the file in group 2, and a
# statement its fields in groups 1-2 (use), 3-6 (connect) or 7-9 (external).
_HEAD = rf"{_SKIP}(?:{'|'.join(map(_statement_pattern, _HEADS.values()))}|(\Z))"
_COMPONENT, _END = 1, 2
_STATEMENT = rf"{_SKIP}(?:{'|'.join(map(_statement_pattern, _STATEMENTS.values()))})"
_USE, _CONNECT, _EXTERNAL = 2, 6, 9
_PORT_GROUPS = {_USE: (), _CONNECT: (4, 6), _EXTERNAL: (8,)}


class _Token(NamedTuple):
    kind: str          # NAME, NUMBER, EOF or any other character itself
    text: str          # an imaginary NUMBER keeps its "i"
    start: int         # offsets into the source
    end: int


def _matrix(rows: str | None) -> np.ndarray | None:
    """The matrix of a literal's rows (group 3 of _ENTRY), None if they are ragged.

    An empty literal gives shape (0, 0).
    """
    if rows is None:
        return np.zeros((0, 0), dtype=complex)
    if "#" in rows:
        rows = re.compile(_COMMENT).sub("", rows)
    # each row, with the "," before it, holds one "," per entry
    widths = {row.count(",") for row in ("," + rows).split("]")[:-1]}
    if len(widths) > 1:
        return None
    values = np.fromstring(rows.translate(_TO_NUMPY), dtype=complex, sep=",")
    return values.reshape(-1, widths.pop())


# ---------------------------------------------------------------------------
# parser

_COMPONENT_KEYS = ("inputs", "modes", "S", "C", "Omega")


class _Parser:
    """One pattern match per construct, and a token walk to report an error.

    Each block head, component entry, network statement and closing "}"
    of an accepted file is matched whole by one compiled pattern, and its
    fields are read from the match.  Where no pattern matches, or a matched
    construct fails a check, the walk methods scan tokens on demand from
    its start, as a recursive-descent parser would, and raise at the first
    offending token.
    """

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.ints: dict[str, int] = {}     # port index text -> its value

    # -- token plumbing ----------------------------------------------------

    def fail(self, offset: int, message: str):
        """Raise at ``offset``, or at the first character that no token can hold.

        A scan of the whole text before parsing would stop at that character
        first.  The patterns accept no such character, so an accepted text
        needs no scan.
        """
        src = self.source
        bad = re.compile(_LEXABLE).match(src).end()
        if bad < len(src):
            offset, message = bad, f"unexpected character {src[bad]!r}"
        start = src.rfind("\n", 0, offset) + 1
        if offset == len(src) and "#" in src[start:]:
            offset = src.index("#", start)    # end of file is placed before a last comment
        end = src.find("\n", start)
        raise ParseError(src.count("\n", 0, offset) + 1, offset - start + 1, message,
                         src[start:] if end < 0 else src[start:end])

    def peek(self) -> _Token:
        m = re.compile(_TOKEN).match(self.source, self.pos)
        group = m.lastindex
        if group is None:
            return _Token("EOF", "", m.end(), m.end())
        text = m.group(group)
        return _Token(_TOKEN_KINDS[group] or text, text, m.start(group), m.end())

    def expect(self, kind: str, what: str | None = None, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or text not in (None, tok.text):
            self.fail(tok.start, f"expected {what or text or kind!r}, "
                                 f"found {tok.text or 'end of file'!r}")
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
        if tok.text[-1] == "i" or not float(tok.text).is_integer():   # also rejects 1e400 (inf)
            self.fail(tok.start, f"expected {what} to be a nonnegative integer")
        return int(float(tok.text)), tok

    # -- grammar -----------------------------------------------------------

    def parse_document(self) -> NetDocument:
        src = self.source
        raw_components: list[tuple[re.Match, dict]] = []
        statements: list[re.Match] = []
        pos = 0
        match_head = re.compile(_HEAD).match
        while (head := match_head(src, pos)) and head.lastindex != _END:
            if head.lastindex == _COMPONENT:
                entries, pos = self.parse_component(head.end())
                raw_components.append((head, entries))
            else:
                pos = self.parse_network(head.end(), statements)
        if head is None:
            self.walk(pos, _HEADS)
        return self.analyze(raw_components, statements)

    def parse_component(self, pos: int) -> tuple[dict, int]:
        """The entries of a component block from ``pos``, and the end of its "}"."""
        src = self.source
        entries: dict[str, tuple[re.Match, object]] = {}
        match_entry = re.compile(_ENTRY).match
        while m := match_entry(src, pos):
            key, count, rows = m.groups()
            counted = key in ("inputs", "modes")
            if key in entries or key not in _COMPONENT_KEYS or counted != (count is not None):
                self.walk_entry(m.start(), entries)
            if counted:
                value = float(count)
                if not value.is_integer() or value > len(src):   # also rejects 1e400 (inf)
                    self.walk_entry(m.start(), entries)
                value = int(value)
            else:
                value = _matrix(rows)
            entries[key] = (m, value)
            pos = m.end()
        if (end := re.compile(_CLOSE).match(src, pos)) is None:
            self.walk_entry(pos, entries)
        return entries, end.end()

    def parse_network(self, pos: int, statements: list) -> int:
        """Append the statements of a network block from ``pos``; the end of its "}"."""
        src, ints = self.source, self.ints
        match_statement = re.compile(_STATEMENT).match
        while m := match_statement(src, pos):
            for g in _PORT_GROUPS[m.lastindex]:
                text = m.group(g)
                if text not in ints:
                    value = float(text)
                    if not value.is_integer():      # also rejects 1e400 (inf)
                        self.walk(m.start(), _STATEMENTS)
                    ints[text] = int(value)
            statements.append(m)
            pos = m.end()
        if (end := re.compile(_CLOSE).match(src, pos)) is None:
            self.walk(pos, _STATEMENTS)
        return end.end()

    # -- token walks, each raising at the first offending token --------------

    def walk(self, pos: int, table: dict):
        self.pos = pos
        tok = self.peek()
        steps = table.get(tok.text) if tok.kind == "NAME" else None
        if steps is None:
            *keywords, last = map(repr, table)
            self.fail(tok.start, f"expected {', '.join(keywords)} or {last}")
        for step in steps:
            if isinstance(step, str):
                self.expect("NAME", text=step)
            elif step[0] == "NUMBER":
                self.expect_int(step[1])
            else:
                self.expect(*step)
        raise AssertionError("a table's pattern rejected what its steps accept")

    def walk_entry(self, pos: int, entries: dict):
        self.pos = pos
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
            self.walk_matrix()
        self.expect(";")
        raise AssertionError("the entry pattern rejected a valid entry")

    def walk_assignment(self, pos: int, names):
        self.pos = pos
        name = self.expect("NAME", "matrix name")
        if name.text in names:
            self.fail(name.start, f"duplicate matrix name {name.text!r}")
        self.expect("=")
        self.walk_matrix()
        self.expect(";")
        raise AssertionError("the entry pattern rejected a valid assignment")

    def walk_matrix(self):
        self.expect("[", "matrix")
        if self.accept("]"):
            return
        self.pos = re.compile(_ROWS).match(self.source, self.pos).end()
        while True:
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
            if not self.accept(","):
                break
        self.expect("]")

    # -- semantic pass -----------------------------------------------------

    def check_shape(self, key_at: int, value, shape: tuple[int, int], what: str):
        want_r, want_c = shape
        if value is None:
            self.fail(key_at, f"{what} has rows of unequal length")
        if value.size == 0:
            if want_r * want_c != 0:
                self.fail(key_at, f"{what} must be {want_r}x{want_c}, got empty matrix")
        elif value.shape != shape:
            got_r, got_c = value.shape
            self.fail(key_at, f"{what} must be {want_r}x{want_c}, got {got_r}x{got_c}")

    def analyze(self, raw_components, statements) -> NetDocument:
        components: dict[str, LinearComponent] = {}
        for head, entries in raw_components:
            name, name_at = head.group(1), head.start(1)
            if name in components:
                self.fail(name_at, f"duplicate component name {name!r}")
            for key in _COMPONENT_KEYS:
                if key not in entries:
                    self.fail(name_at, f"component {name!r} is missing key {key!r}")
            n, m = entries["inputs"][1], entries["modes"][1]
            shapes = {"S": (n, n), "C": (n, m), "Omega": (m, m)}
            for key, shape in shapes.items():     # every shape before any allocation
                self.check_shape(entries[key][0].start(1), entries[key][1], shape, key)
            try:    # _triple reads an empty C as n×m zeros
                components[name] = LinearComponent._adopt(*(entries[key][1] for key in shapes))
            except ValueError as exc:
                self.fail(name_at, f"invalid component {name!r}: {exc}")

        instances: dict[str, str] = {}
        n_ports: dict[str, int] = {}
        edges: list[Edge] = []
        externals: list[ExternalPort] = []
        fed_inputs: set[tuple[str, int]] = set()
        used_outputs: set[tuple[str, int]] = set()
        external_ports: set[tuple[str, int]] = set()
        aliases: set[str] = set()
        ints = self.ints

        def port(m: re.Match, fields: tuple, g: int) -> tuple[str, int]:
            """The checked (instance, port) in groups g and g + 1 of m; fields = m.groups()."""
            inst, value = fields[g - 1], ints[fields[g]]
            size = n_ports.get(inst)
            if size is None:
                self.fail(m.start(g), f"unknown instance {inst!r}")
            if value >= size:
                self.fail(m.start(g + 1), f"port index {value} out of range for instance "
                                          f"{inst!r} with {size} ports")
            return inst, value

        for m in statements:
            kind, fields = m.lastindex, m.groups()
            if kind == _USE:
                inst, comp = fields[:2]
                if inst in instances:
                    self.fail(m.start(1), f"duplicate instance name {inst!r}")
                if comp not in components:
                    self.fail(m.start(2), f"unknown component {comp!r}")
                instances[inst] = comp
                n_ports[inst] = components[comp].n_ports
            elif kind == _CONNECT:
                src, dst = port(m, fields, 3), port(m, fields, 5)
                if src in used_outputs:
                    self.fail(m.start(4), f"output {src[0]}.out[{src[1]}] already feeds an edge")
                if dst in fed_inputs:
                    self.fail(m.start(6), f"input {dst[0]}.in[{dst[1]}] is already fed by an edge")
                if dst in external_ports:
                    self.fail(m.start(6), f"input {dst[0]}.in[{dst[1]}] is declared external "
                                          "and cannot be internally driven")
                used_outputs.add(src)
                fed_inputs.add(dst)
                edges.append(Edge(*src, *dst))
            else:
                dst, alias = port(m, fields, 7), fields[8]
                if dst in fed_inputs:
                    self.fail(m.start(8), f"input {dst[0]}.in[{dst[1]}] is internally driven "
                                          "and cannot be external")
                if dst in external_ports:
                    self.fail(m.start(8), f"input {dst[0]}.in[{dst[1]}] declared external twice")
                if alias in aliases:
                    self.fail(m.start(9), f"duplicate external name {alias!r}")
                external_ports.add(dst)
                aliases.add(alias)
                externals.append(ExternalPort(*dst, alias))

        return NetDocument(components=components, instances=instances,
                           edges=tuple(edges), externals=tuple(externals))


def parse(source: str) -> NetDocument:
    """Parse QNET text; raises ParseError at the first offending location."""
    return _Parser(source).parse_document()


# ---------------------------------------------------------------------------
# canonical numbers
#
# _number_words gives each number _WORDS = 3 uint64 words, 24 bytes, enough
# for the longest "%.17g" text ("-1.2345678901234567e+100"), NUL-padded;
# _text drops the NULs.  Byte 0 holds the sign, or NUL.  Then, by layout:
#
#   0.000d...   "0." and up to three zeros from byte 1, the first digit in
#               byte 6, the other digits from byte 7
#   d.ddd       (E = 0) the first digit in byte 5, the point in byte 6 and the
#               other digits from byte 7
#   dd.dd       (E = 1..16) the first digit in byte 5, the E digits before the
#               point from byte 6, the point in byte 6 + E, and the digits after
#               it from byte 7 + E, where d.ddd has them too
#   d.ddde±xx   the first digit in byte 1, the point in byte 2, the other digits
#               from byte 3, and "e" and the exponent in bytes 19-23
#
# The 16 digits after the first are laid out once, in two words (bytes 8-23),
# and placed by shifting those words down: 2 bytes for the digits before the
# point, and 1 byte, or 5 in scientific notation, for the others.  No digit
# is moved on its own; masks by layout keep the digits of each copy, up to
# the last nonzero one, and set the point.
#
# An entry (_entry_words) is the words of its real part, then those of its
# imaginary part, then a tail word: 7 words, 56 bytes, for the 41.5 bytes of
# text of a typical entry of a reduced Omega.  A part that is not printed is
# all NUL.  The tail word holds the "i" of a printed imaginary part in byte 0
# and, once _row_pieces has set it, the separator after the entry.  So the
# conjugate entry differs in one byte, byte 0 of the imaginary part.
#
# The digits are the integer D nearest |x|·10^(16-E), E = ⌊log10 |x|⌋,
# from Dekker's double-double product (Numer. Math. 18:224, 1971) with
# the exact table of 10^k, built with the others on first use by _tables():
# the fraction that decides the rounding is off by less than 5e-15, far
# inside _TIE.
#
# A pass formats _CHUNK entries, 2·_CHUNK numbers, so each float64 or int64
# temporary of a full pass is 125 KiB: under glibc's initial mmap threshold
# of 128 KiB, above which a library caller's allocator maps and faults in a
# temporary afresh on every pass.

_CHUNK = 8000            # entries per pass: bounds the temporaries, not the text
_VECTOR_MIN = 128        # fewer numbers than this are formatted one by one
_TIE = 1e-9              # a fraction this close to ½ is left to "%"
_WORDS = 3
_K_MIN, _K_MAX = -275, 308     # 10^(16-E) for every E of |x| in [1e-290, 1e290)
_E = np.arange(16 - _K_MAX, 18 - _K_MIN)     # those E, and E + 1 after a rounding carry


def _items(words: np.ndarray) -> np.ndarray:
    """The rows of a word array, each one item: a copy moves whole rows at once."""
    return words.view(np.dtype((np.void, 8 * words.shape[-1])))[..., 0]


def _ascii_words(texts) -> np.ndarray:
    """One uint64 word per text of at most 8 bytes, NUL-padded."""
    return np.array(list(texts), dtype="S8").view(np.uint64)


_I = _ascii_words([b"i"])[0]     # byte 0 of a tail word


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
    LAYOUT: np.ndarray        # by E: 0-16 digits before the point, 17 "0.000d...", 18 scientific
    SHIFT: np.ndarray         # by E: bits the digits after the first are shifted down
    HEAD: np.ndarray          # by sign, E and first digit: the sign, "0.000" and the first digit
    EXPONENT: np.ndarray      # by E: "e" and the exponent in bytes 3-7, in scientific notation
    MASKS: np.ndarray         # by layout and significant digits: 9 words, one item


@functools.cache
def _tables() -> _Tables:
    """The tables of the array route, built on its first use, not at import."""
    digit = np.arange(48, 58, dtype=np.uint8)
    quad = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    # row k, for group k of the 16 digits after the first: how many of those 16
    # run up to its last nonzero digit, 0 for a group 0000
    n = np.arange(10000)
    last = np.count_nonzero([n, n % 1000, n % 100, n % 10], axis=0)
    significant = np.where(last > 0, last + np.arange(0, 16, 4)[:, None], 0).astype(np.uint8)
    sci = (_E < -4) | (_E > 16)
    layout = np.where(sci, 18, np.where(_E < 0, 17, np.minimum(_E, 16)))
    prefix = _ascii_words([sign + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
                           for sign in (b"\0", b"-") for e in _E.tolist()])
    first_at = np.where(sci, 1, np.where(_E < 0, 6, 5)).astype(np.uint64) * np.uint64(8)
    first = np.arange(48, 58, dtype=np.uint64) << first_at[:, None]
    exponent = _ascii_words([b"\0\0\0" + b"e%+03d" % e if s else b""
                             for e, s in zip(_E.tolist(), sci.tolist())])
    # by (layout, significant digits t), 3 words each of: the mask of the digits
    # before the point (shifted down 2 bytes), the mask of the other digits
    # (shifted down 1 byte, or 5 in scientific notation), and the point
    kind, t, byte = np.arange(19)[:, None, None], np.arange(17)[:, None], np.arange(24)
    split = np.where(kind <= 16, kind, 0)
    after = np.where(kind == 18, 3, 7) + split           # byte of the digit after the point
    masks = np.stack(np.broadcast_arrays((byte >= 6) & (byte < 6 + split),
                                         (byte >= after) & (byte < after - split + t),
                                         (byte == after - 1) & (t > split) & (kind != 17)),
                     axis=2)
    masks = (masks * np.array([255, 255, ord(".")], np.uint8)[:, None]).astype(np.uint8)
    tables = _Tables(_pow10_table(), quad.view(np.uint32).ravel(), significant, layout,
                     np.where(sci, 40, 8).astype(np.uint64),
                     (prefix.reshape(2, -1, 1) | first).ravel(), exponent,
                     _items(masks.view(np.uint64).reshape(-1, 3 * _WORDS)))
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


def _scalar_words(x: np.ndarray) -> np.ndarray:
    """The words of x formatted one number at a time by "%", byte 0 the sign or NUL."""
    texts = ("%.17g" % v for v in x.tolist())
    text = b"".join((t if t[0] == "-" else "\0" + t).encode().ljust(8 * _WORDS, b"\0")
                    for t in texts)
    return np.frombuffer(bytearray(text), np.uint64).reshape(len(x), _WORDS)


def _number_words(x: np.ndarray) -> np.ndarray:
    """(_WORDS, len(x)) words of "%.17g" % x[i]: word k of every number, then word k + 1."""
    if len(x) < _VECTOR_MIN:
        return _scalar_words(x).T
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
    quads = np.empty((4, len(x)), np.uint32)          # the 16 digits after the first
    significant = np.zeros(len(x), np.int64)
    g1, g3 = mid // 10**4, low // 10**4
    for k, g in enumerate((g1, mid - g1 * 10**4, g3, low - g3 * 10**4)):
        quads[k] = t.QUAD.take(g)
        np.maximum(significant, t.SIGNIFICANT[k].take(g), out=significant)
    lo = quads[0] | quads[1].astype(np.uint64) << 32
    hi = quads[2] | quads[3].astype(np.uint64) << 32
    e = E - _E[0]
    masks = t.MASKS.take(t.LAYOUT.take(e) * 17 + significant).view(np.uint64).reshape(-1, 9)
    down = t.SHIFT.take(e)
    up = 64 - down
    sign = np.signbit(x).astype(np.intp)             # "", "-"
    words = np.empty((_WORDS, len(x)), np.uint64)
    # each word: the digits before the point, the other digits, the point
    words[0] = (lo << 48) & masks[:, 0]
    words[0] |= (lo << up) & masks[:, 3]
    words[0] |= masks[:, 6] | t.HEAD.take((sign * len(_E) + e) * 10 + first)
    words[1] = ((lo >> 16) | (hi << 48)) & masks[:, 1]
    words[1] |= ((lo >> down) | (hi << up)) & masks[:, 4]
    words[1] |= masks[:, 7]
    words[2] = (hi >> 16) & masks[:, 2]
    words[2] |= (hi >> down) & masks[:, 5]
    words[2] |= masks[:, 8] | t.EXPONENT.take(e)
    slow = np.flatnonzero(~(fast | zero))
    if len(slow):
        words[:, slow] = _scalar_words(x[slow]).T
    return words


def _entry_words(z: np.ndarray) -> np.ndarray:
    """Words of canonical complex entries, each with its tail word: "i" or NUL in byte 0.

    An entry is its real part alone when the imaginary part is zero, its
    imaginary part and "i" alone when only the real part is zero, and
    otherwise both, the imaginary part with its sign.
    """
    n = len(z)
    x = np.ascontiguousarray(z).view(np.float64)
    has_im = x[1::2] != 0.0
    has_re = (x[0::2] != 0.0) | ~has_im
    parts = _number_words(x)           # both parts in one call: half the fixed cost
    im_sign = parts[0, 1::2]           # byte 0: "-" or NUL
    im_sign |= (has_re & ((im_sign & 0xFF) == 0)) * np.uint64(ord("+"))   # "%+.17g"
    words = np.empty((n, 2 * _WORDS + 1), np.uint64)
    for k in range(_WORDS):
        np.multiply(parts[k, 0::2], has_re, out=words[:, k])
        np.multiply(parts[k, 1::2], has_im, out=words[:, _WORDS + k])
    np.multiply(has_im, _I, out=words[:, -1])
    return words


def _real_words(x: np.ndarray) -> np.ndarray:
    """Words of canonical real numbers, each with a NUL tail word."""
    words = np.empty((len(x), _WORDS + 1), np.uint64)
    words[:, :-1] = _number_words(x).T
    words[:, -1] = 0
    return words


def _text(words: np.ndarray) -> str:
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _row_pieces(size: int, cols: int, chunks, tails: np.ndarray) -> list[str]:
    """Text of ``size`` entries in rows of ``cols``, one piece per chunk.

    ``chunks`` yields the entries' words in order, each with a last tail
    word whose bytes 1-7 are NUL; the separator set there is tails[0]
    inside a row, tails[1] after a row and tails[2] after the last one.
    """
    pieces = []
    start = 0
    for words in chunks:
        stop = start + len(words)
        end = np.zeros(len(words), np.intp)
        end[(cols - 1 - start) % cols::cols] = 1
        if stop == size:
            end[-1] = 2
        words[:, -1] |= tails.take(end)
        pieces.append(_text(words))
        start = stop
    return pieces


_MATRIX_TAILS = _ascii_words([b"\0,", b"\0],[", b"\0]]"])
_TABLE_TAILS = _ascii_words([b"\0,", b"\0\n", b"\0\n"])
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
    Their words go into one store, row by row; an entry below the diagonal
    takes the words of its mirror entry from the store, conjugated.  The
    store is the only array that outlives a block, and it is freed after
    the last one.
    """
    n = len(m)
    rows = max(1, _CHUNK // n)
    r = np.arange(n + 1)
    start = r * n - r * (r - 1) // 2                    # where row r starts in the store
    store = np.empty((start[n], 2 * _WORDS + 1), np.uint64)
    triangle = np.triu(np.ones((rows, n), dtype=bool))
    for a in range(0, n, rows):
        b = min(a + rows, n)
        upper = triangle[:b - a, :n - a]
        new = store[start[a]:start[b]]
        new[:] = _entry_words(m[a:b, a:][upper])
        words = np.empty((b - a, n, 2 * _WORDS + 1), np.uint64)
        _items(words)[:, a:][upper] = _items(new)
        # entry (i, j) below the diagonal mirrors (j, i), stored at start[j] + i - j:
        # for each column j < b, the rows i of the block are one run of the store
        runs = store.take((start[:b] - r[:b])[:, None] + r[a:b], axis=0)     # [j, i - a]
        _conjugate(runs)
        runs = _items(runs).T                                                # [i - a, j]
        _items(words)[:, :a] = runs[:, :a]
        lower = r[a:b, None] > r[a:b]
        _items(words)[:, a:b][lower] = runs[:, a:][lower]
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
    return _text(_entry_words(np.array([complex(z)])))


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
    external_in = tuple(declared) + tuple(g for g in range(total) if g not in taken_in)
    return PartitionedComponent(combined, internal_out=tuple(src[by_src].tolist()),
                                internal_in=tuple(dst[by_dst].tolist()), eta=rank_dst[by_src],
                                external_in=external_in)


# ---------------------------------------------------------------------------
# bare matrix files (used by the Stratonovich CLI commands)

def parse_matrix_assignments(source: str) -> dict[str, np.ndarray]:
    """Parse a file of ``NAME = matrix;`` lines into named arrays.

    An empty literal "[]" comes back with shape (0, 0); callers that know
    the intended shape may reshape it.
    """
    parser = _Parser(source)
    result: dict[str, np.ndarray] = {}
    pos = 0
    match_entry = re.compile(_ENTRY).match
    while m := match_entry(source, pos):
        name, count, rows = m.groups()
        if name in result or count is not None:
            parser.walk_assignment(m.start(), result)
        value = _matrix(rows)
        if value is None:
            parser.fail(m.start(1), f"matrix {name!r} has rows of unequal length")
        result[name] = value
        pos = m.end()
    if not re.compile(_EOF).match(source, pos):
        parser.walk_assignment(pos, result)
    return result


def format_matrix_assignments(pairs) -> str:
    """Inverse of parse_matrix_assignments, canonical form."""
    out: list[str] = []
    for name, value in pairs:
        out += [f"{name} = ", *_matrix_pieces(value), ";\n"]
    return "".join(out)
