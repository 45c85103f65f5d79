"""Trigonometric symbols.

A Symbol is a 2pi-periodic function represented by a finite table of
Fourier coefficients a_k, |k| <= degree.  Real-valued symbols satisfy
a_{-k} = conj(a_k).  The interval convention is [0, 2pi) throughout.
"""

from __future__ import annotations

import re
from typing import Mapping

import numpy as np

from .errors import ParseError

REALNESS_TOL = 1e-12


class Symbol:
    """Finite trigonometric coefficient table, immutable by convention."""

    def __init__(self, coefficients: Mapping[int, complex], label: str = ""):
        self.coefficients = {int(k): complex(v) for k, v in coefficients.items() if v != 0}
        self.label = label

    @property
    def degree(self) -> int:
        return max((abs(k) for k in self.coefficients), default=0)

    @property
    def is_real(self) -> bool:
        scale = 1.0 + max((abs(v) for v in self.coefficients.values()), default=0.0)
        for k, v in self.coefficients.items():
            if abs(self.coefficients.get(-k, 0.0) - v.conjugate()) > REALNESS_TOL * scale:
                return False
        return True

    def coefficient(self, k: int) -> complex:
        return self.coefficients.get(int(k), 0.0 + 0.0j)

    def coefficient_array(self, lo: int, hi: int) -> np.ndarray:
        """[a_lo, ..., a_{hi-1}] as a complex array, zero off the table.

        The stored coefficients are scattered into a zero array, so a
        window of any width costs O(degree) Python work.
        """
        out = np.zeros(max(hi - lo, 0), dtype=np.complex128)
        for k, v in self.coefficients.items():
            if lo <= k < hi:
                out[k - lo] = v
        return out

    def eval(self, x):
        """Evaluate sum_k a_k exp(i k x); accepts scalars or arrays."""
        xs = np.asarray(x, dtype=np.float64)
        out = np.zeros(xs.shape, dtype=np.complex128)
        for k, a in self.coefficients.items():
            out += a * np.exp(1j * k * xs)
        return complex(out) if np.isscalar(x) or xs.ndim == 0 else out

    def eval_real(self, x):
        """Evaluate and drop the imaginary round-off of a real symbol."""
        val = self.eval(x)
        return val.real if isinstance(val, np.ndarray) else float(val.real)

    def scaled(self, alpha: complex) -> "Symbol":
        return Symbol({k: alpha * v for k, v in self.coefficients.items()}, self.label)

    def plus(self, other: "Symbol", label: str = "") -> "Symbol":
        out = dict(self.coefficients)
        for k, v in other.coefficients.items():
            out[k] = out.get(k, 0.0) + v
        return Symbol(out, label)


def constant(c: float | complex = 1.0, label: str = "") -> Symbol:
    return Symbol({0: complex(c)}, label or f"{c}")


def cosine(k: int = 1, label: str = "") -> Symbol:
    return Symbol({k: 0.5, -k: 0.5}, label or (f"cos{k}x" if k != 1 else "cos"))


def sine(k: int = 1, label: str = "") -> Symbol:
    a = 1.0 / 2.0j
    return Symbol({k: a, -k: -a}, label or (f"sin{k}x" if k != 1 else "sin"))


def product(s: Symbol, t: Symbol, label: str = "") -> Symbol:
    """Pointwise product: coefficient convolution, degrees add."""
    out: dict[int, complex] = {}
    for k, a in s.coefficients.items():
        for l, b in t.coefficients.items():
            out[k + l] = out.get(k + l, 0.0) + a * b
    if not label and s.label and t.label:
        label = f"({s.label})*({t.label})"
    return Symbol(out, label)


def standard_test_set(name: str) -> list[Symbol]:
    """Korovkin test sets.

    'classical' is the periodic substitute for {1, x, x^2}: the generators
    {1, cos, sin} together with their squares.  'fourier_basic' is just the
    generators.
    """
    one = constant(1.0, label="1")
    c, s = cosine(), sine()
    if name == "classical":
        return [
            one,
            c,
            s,
            product(c, c, label="cos^2"),
            product(s, s, label="sin^2"),
        ]
    if name == "fourier_basic":
        return [one, c, s]
    raise ValueError(f"unknown test set {name!r}")


# ---------------------------------------------------------------------------
# numbers in user input: ASCII only.  int() and float() also read other
# scripts' digits and "_" between digits: "١٠٠" as 100, "1_0" as 10.

_ASCII_NUMBER = re.compile(
    r"\s*[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)\s*",
    re.ASCII | re.IGNORECASE,
)


def ascii_number(text: str, kind=float):
    """kind(text), int or float, for an ASCII number; ValueError otherwise."""
    value = kind(text)  # text that kind rejects keeps kind's own message
    if not _ASCII_NUMBER.fullmatch(text):
        raise ValueError(f"not an ASCII number: {text!r}")
    return value


# ---------------------------------------------------------------------------
# serialization: one coefficient per line, "k re im"

def symbol_to_lines(s: Symbol) -> list[str]:
    return [
        f"{k} {v.real!r} {v.imag!r}" for k, v in sorted(s.coefficients.items())
    ]


def symbol_from_lines(lines, label: str = "") -> Symbol:
    coeffs: dict[int, complex] = {}
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'k re im', got {text!r}")
        try:
            k = ascii_number(parts[0], int)
            value = complex(ascii_number(parts[1]), ascii_number(parts[2]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if not np.isfinite(value):
            raise ParseError(f"line {lineno}: non-finite coefficient in {text!r}")
        if k in coeffs:
            raise ParseError(f"line {lineno}: duplicate frequency {k}")
        coeffs[k] = value
    return Symbol(coeffs, label)


def load_symbol(path) -> Symbol:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read symbol file: {exc}") from exc
    return symbol_from_lines(lines, label=str(path))


def resolve_symbol(spec: str) -> Symbol:
    """Resolve `preset:<expr>` or `file:<path>` (bare text is a preset)."""
    if spec.startswith("file:"):
        return load_symbol(spec[len("file:"):])
    if spec.startswith("preset:"):
        spec = spec[len("preset:"):]
    return parse_trig_expression(spec)


def resolve_symbol_list(spec: str) -> list[Symbol]:
    """Resolve a semicolon-separated list of symbol specs with distinct labels."""
    resolved = [resolve_symbol(part) for part in spec.split(";") if part]
    if not resolved:
        raise ParseError(f"symbol list {spec!r} names no symbol")
    labels = [s.label for s in resolved]
    if len(set(labels)) < len(labels):
        raise ParseError(f"labels in a symbol list key the outputs and must differ: {labels}")
    return resolved


# ---------------------------------------------------------------------------
# preset grammar: terms like "2", "1e-3", "cos", "2cos", "0.5sin3x",
# "delta(0.01)".  Numbers are ASCII only: unicode \d, or float() on any
# text, would read "1٠cos" (Arabic-Indic zero) as 10cos.

_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?)"
    r"(?:\*?(?:(?P<fn>cos|sin)(?P<freq>\d*)x?|(?P<delta>delta\((?P<dval>[-+.\deE]+)\))))?$",
    re.ASCII,
)


def _split_terms(src: str) -> list[str]:
    """Split at the signs that start a term.

    A sign inside parentheses, as in ``delta(-0.01)``, or right after the
    exponent ``e`` of a number, as in ``1e-3``, belongs to the term.
    """
    terms, start, depth = [], 0, 0
    for i, ch in enumerate(src):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and i > start and depth == 0:
            exponent = src[i - 1] in "eE" and i >= 2 and src[i - 2] in "0123456789."
            if not exponent:
                terms.append(src[start:i])
                start = i
    terms.append(src[start:])
    return terms


def parse_trig_expression(text: str) -> Symbol:
    """Parse a preset like ``2+cos``, ``2-2cos+delta(0.01)``, ``1+0.5cos2x``."""
    src = text.replace(" ", "")
    if not src:
        raise ParseError("empty symbol expression")
    total = Symbol({}, label=text)
    for term in _split_terms(src):
        m = _TERM_RE.match(term)
        # a term needs a number, cos/sin or delta: a sign alone is no term
        if not m or not (m.group("coef").strip("+-") or m.group("fn") or m.group("delta")):
            raise ParseError(f"bad term {term!r} in symbol expression {text!r}")
        coef_text = m.group("coef")
        if coef_text in ("", "+", "-"):
            coef = 1.0 if coef_text != "-" else -1.0
        else:
            coef = float(coef_text)
        if m.group("fn"):
            freq = int(m.group("freq") or 1)
            if freq < 1:
                raise ParseError(f"bad frequency in term {term!r}")
            part = (cosine(freq) if m.group("fn") == "cos" else sine(freq)).scaled(coef)
        elif m.group("delta"):
            try:
                shift = float(m.group("dval"))
            except ValueError as exc:
                raise ParseError(f"bad delta value in term {term!r}") from exc
            part = constant(coef * shift)
        else:
            part = constant(coef)
        total = total.plus(part)
        if not all(np.isfinite(v) for v in total.coefficients.values()):
            raise ParseError(f"non-finite coefficient from term {term!r} in {text!r}")
    return Symbol(total.coefficients, label=text)
