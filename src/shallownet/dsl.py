"""Line-oriented text format for networks (``.qnet`` files).

Grammar (one construct per line; ``#`` starts a comment, blank lines are
ignored)::

    qubits N            header, required first
    ldim L              optional header, default 2
    step                begins a step block
    gate NAME s [s2]    library gate: H X Y Z S T | CNOT CZ SWAP | DEPOL(p)
    gate UNITARY s [s2] followed by l^k rows of l^k complex entries
    channel kraus K s [s2]
                        followed by K * l^k rows of l^k complex entries

Complex entries are written ``re,im`` with plain decimal floats (optional
exponent), whitespace-separated within a row.  Two-site instructions list the
sites in acting order (for CNOT the first site is the control).

Parse errors carry a line, a column, and one of the closed categories:
``syntax``, ``unknown-gate``, ``arity``, ``site-range``, ``overlap``,
``local-dimension``.
"""

from __future__ import annotations

import re

import numpy as np

from . import linalg
from .network import (
    ONE_SITE_GATES,
    TWO_SITE_GATES,
    LocalChannel,
    Network,
    Step,
    depolarizing_kraus,
)

MATCH_ATOL = 1e-15

_DEPOL_RE = re.compile(r"^DEPOL\((?P<p>[^()]*)\)$")
_TOKEN_RE = re.compile(r"\S+")


class CircuitParseError(Exception):
    """Parse failure with source location and a closed error category."""

    def __init__(self, message: str, line: int, column: int, category: str):
        super().__init__(f"line {line}, column {column}: {category}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.category = category


def _tokens(line: str):
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _parse_float(tok: str, line: int, col: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise CircuitParseError(f"bad number {tok!r}", line, col, "syntax") from None


def _parse_int(tok: str, line: int, col: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CircuitParseError(f"bad integer {tok!r}", line, col, "syntax") from None


def _parse_complex(tok: str, line: int, col: int) -> complex:
    parts = tok.split(",")
    if len(parts) != 2:
        raise CircuitParseError(f"complex entry {tok!r} must be re,im", line, col, "syntax")
    z = complex(_parse_float(parts[0], line, col), _parse_float(parts[1], line, col))
    if not np.isfinite(z):
        raise CircuitParseError(f"complex entry {tok!r} is not finite", line, col, "syntax")
    return z


def _channel(sites: tuple, kraus: tuple, line: int, col: int) -> LocalChannel:
    """The channel, or a located ``syntax`` error with the reason its Kraus
    family was refused (not trace preserving, for one)."""
    try:
        return LocalChannel(sites, kraus)
    except ValueError as err:
        raise CircuitParseError(str(err), line, col, "syntax") from None


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0  # index of the next line to consume

    def next_significant(self):
        """Next (line_number, tokens) pair, skipping blanks and comments."""
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            return self.pos, _tokens(raw)
        return None

    def read_matrix(self, dim: int, line: int) -> np.ndarray:
        rows = []
        for _ in range(dim):
            item = self.next_significant()
            if item is None:
                raise CircuitParseError(
                    f"expected {dim} matrix row(s), file ended early", line, 1, "local-dimension"
                )
            row_line, toks = item
            if toks[0][0] in ("step", "gate", "channel", "qubits", "ldim"):
                raise CircuitParseError(
                    f"expected a matrix row of {dim} entries", row_line, toks[0][1], "local-dimension"
                )
            if len(toks) != dim:
                raise CircuitParseError(
                    f"matrix row has {len(toks)} entries, expected {dim}",
                    row_line, toks[0][1], "local-dimension",
                )
            rows.append([_parse_complex(t, row_line, c) for t, c in toks])
        return np.array(rows, dtype=complex)


def _check_sites(sites, n: int, line: int) -> tuple:
    if not 1 <= len(sites) <= 2:
        col = sites[0][1] if sites else 1
        raise CircuitParseError(
            f"instructions take 1 or 2 sites, got {len(sites)}", line, col, "arity"
        )
    out = []
    for (tok, col) in sites:
        s = _parse_int(tok, line, col)
        if not 1 <= s <= n:
            raise CircuitParseError(f"site {s} out of range 1..{n}", line, col, "site-range")
        out.append(s)
    if len(set(out)) != len(out):
        raise CircuitParseError(f"duplicate sites {out}", line, sites[0][1], "arity")
    return tuple(out)


def parse(text: str) -> Network:
    """Parse a circuit document into a validated Network."""
    p = _Parser(text)
    n = None
    l = 2
    steps: list[Step] = []
    current: list[LocalChannel] | None = None
    site_lines: dict[int, int] = {}

    def flush():
        nonlocal current
        if current is not None:
            steps.append(Step(tuple(current)))
        current = None

    while True:
        item = p.next_significant()
        if item is None:
            break
        line, toks = item
        key, key_col = toks[0]

        if key == "qubits":
            if n is not None:
                raise CircuitParseError("duplicate qubits header", line, key_col, "syntax")
            if len(toks) != 2:
                raise CircuitParseError("usage: qubits N", line, key_col, "syntax")
            n = _parse_int(toks[1][0], line, toks[1][1])
            if n < 1:
                raise CircuitParseError("qubit count must be positive", line, toks[1][1], "syntax")
            continue
        if key == "ldim":
            if steps or current is not None:
                raise CircuitParseError("ldim must precede step blocks", line, key_col, "syntax")
            if len(toks) != 2:
                raise CircuitParseError("usage: ldim L", line, key_col, "syntax")
            l = _parse_int(toks[1][0], line, toks[1][1])
            if l < 2:
                raise CircuitParseError("local dimension must be at least 2", line, toks[1][1], "syntax")
            continue
        if n is None:
            raise CircuitParseError("expected 'qubits N' header first", line, key_col, "syntax")

        if key == "step":
            if len(toks) != 1:
                raise CircuitParseError("'step' takes no arguments", line, key_col, "syntax")
            flush()
            current = []
            site_lines = {}
            continue

        if key in ("gate", "channel"):
            if current is None:
                raise CircuitParseError("instruction outside a step block", line, key_col, "syntax")
            if key == "gate":
                channel = _parse_gate(p, toks, n, l, line)
            else:
                channel = _parse_channel(p, toks, n, l, line)
            for s in channel.support:
                if s in site_lines:
                    raise CircuitParseError(
                        f"site {s} already used in this step by the instruction on "
                        f"line {site_lines[s]}",
                        line, key_col, "overlap",
                    )
                site_lines[s] = line
            current.append(channel)
            continue

        raise CircuitParseError(f"unrecognized directive {key!r}", line, key_col, "syntax")

    if n is None:
        raise CircuitParseError("missing 'qubits N' header", max(len(p.lines), 1), 1, "syntax")
    flush()
    return Network(n, l, tuple(steps))


def _parse_gate(p: _Parser, toks, n: int, l: int, line: int) -> LocalChannel:
    if len(toks) < 3:
        raise CircuitParseError("usage: gate NAME s [s2]", line, toks[0][1], "syntax")
    name, name_col = toks[1]
    sites = _check_sites(toks[2:], n, line)
    dim = l ** len(sites)

    depol = _DEPOL_RE.match(name)
    if depol:
        strength = _parse_float(depol.group("p"), line, name_col)
        if not 0.0 <= strength <= 1.0:
            raise CircuitParseError(
                f"depolarizing strength {strength} outside [0, 1]", line, name_col, "syntax"
            )
        return LocalChannel(sites, tuple(depolarizing_kraus(strength, dim)))

    if name == "UNITARY":
        return _channel(sites, (p.read_matrix(dim, line),), line, name_col)

    if name in ONE_SITE_GATES:
        if len(sites) != 1:
            raise CircuitParseError(f"gate {name} takes 1 site", line, name_col, "arity")
        if l != 2:
            raise CircuitParseError(f"gate {name} requires ldim 2", line, name_col, "local-dimension")
        return LocalChannel(sites, (ONE_SITE_GATES[name],))
    if name in TWO_SITE_GATES:
        if len(sites) != 2:
            raise CircuitParseError(f"gate {name} takes 2 sites", line, name_col, "arity")
        if l != 2:
            raise CircuitParseError(f"gate {name} requires ldim 2", line, name_col, "local-dimension")
        return LocalChannel(sites, (TWO_SITE_GATES[name],))

    raise CircuitParseError(f"unknown gate {name!r}", line, name_col, "unknown-gate")


def _parse_channel(p: _Parser, toks, n: int, l: int, line: int) -> LocalChannel:
    if len(toks) < 4 or toks[1][0] != "kraus":
        raise CircuitParseError("usage: channel kraus K s [s2]", line, toks[0][1], "syntax")
    count = _parse_int(toks[2][0], line, toks[2][1])
    if count < 1:
        raise CircuitParseError("Kraus count must be positive", line, toks[2][1], "syntax")
    sites = _check_sites(toks[3:], n, line)
    dim = l ** len(sites)
    ops = tuple(p.read_matrix(dim, line) for _ in range(count))
    return _channel(sites, ops, line, toks[0][1])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _format_complex(z: complex) -> str:
    return f"{float(z.real)!r},{float(z.imag)!r}"


def _matrix_rows(m: np.ndarray) -> list[str]:
    return ["    " + " ".join(_format_complex(z) for z in row) for row in m]


def _swap_permutation(l: int) -> np.ndarray:
    p = np.zeros((l * l, l * l))
    for i in range(l):
        for j in range(l):
            p[i * l + j, j * l + i] = 1.0
    return p


def _match_library_unitary(ch: LocalChannel, l: int) -> str | None:
    if not ch.unitary_flag or l != 2:
        return None
    gate = ch.kraus[0]
    if len(ch.support) == 1:
        for name, ref in ONE_SITE_GATES.items():
            if linalg.close(gate, ref, MATCH_ATOL):
                return f"gate {name} {ch.support[0]}"
        return None
    swap = _swap_permutation(l)
    swapped = swap @ gate @ swap
    a, b = ch.support
    for name, ref in TWO_SITE_GATES.items():
        if linalg.close(gate, ref, MATCH_ATOL):
            return f"gate {name} {a} {b}"
        if linalg.close(swapped, ref, MATCH_ATOL):
            return f"gate {name} {b} {a}"
    return None


def _match_depolarizing(ch: LocalChannel) -> str | None:
    d = ch.dim
    if len(ch.kraus) != d * d:
        return None
    k0 = ch.kraus[0]
    scale = k0[0, 0]
    if scale.imag != 0.0 or scale.real <= 0.0:
        return None
    if not np.array_equal(k0, scale.real * np.eye(d)):
        return None
    p = float(1.0 - scale.real**2) * d * d / (d * d - 1)
    p = min(max(round(p, 12), 0.0), 1.0)
    candidate = depolarizing_kraus(p, d)
    for got, want in zip(ch.kraus, candidate):
        if not linalg.close(got, want, MATCH_ATOL):
            return None
    sites = " ".join(str(s) for s in ch.support)
    return f"gate DEPOL({p!r}) {sites}"


def serialize(net: Network) -> str:
    """Canonical text form: library names when entries match, inline otherwise."""
    lines = [f"qubits {net.n}"]
    if net.l != 2:
        lines.append(f"ldim {net.l}")
    for step in net.steps:
        lines.append("step")
        for ch in sorted(step.channels, key=lambda c: min(c.support)):
            library = _match_library_unitary(ch, net.l)
            if library is not None:
                lines.append("  " + library)
                continue
            depol = _match_depolarizing(ch)
            if depol is not None:
                lines.append("  " + depol)
                continue
            sites = " ".join(str(s) for s in ch.support)
            if ch.unitary_flag:
                lines.append(f"  gate UNITARY {sites}")
                lines.extend(_matrix_rows(ch.kraus[0]))
            else:
                lines.append(f"  channel kraus {len(ch.kraus)} {sites}")
                for k in ch.kraus:
                    lines.extend(_matrix_rows(k))
    return "\n".join(lines) + "\n"
