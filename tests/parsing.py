"""Text parsers for the tests: "1+z^3", "z/(1+z)", "z+z^2 + z*I + J + IJ".

The package only prints values (`binpoly.to_string`, `to_string` of the
value classes); the tests write their expected values as text and read them
back with these, which also makes printing round-trip checkable.
"""

from __future__ import annotations

import re

from quatlat.quaternion import Quaternion, QuaternionAlgebra
from quatlat.rational import ZERO_RF, RationalFunction

_TERM_RE = re.compile(r"^(?:1|(?P<var>[A-Za-z])(?:\^(?P<exp>\d+))?)$")


def parse_poly(text: str, var: str = "z") -> int:
    """Parse "1+z^3" style text; whitespace is ignored, terms may repeat."""
    s = text.replace(" ", "")
    if s == "0":
        return 0
    bits = 0
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse term {term!r}")
        if term == "1":
            bits ^= 1
        else:
            if m.group("var") != var:
                raise ValueError(f"unexpected variable {m.group('var')!r}, wanted {var!r}")
            exp = int(m.group("exp") or 1)
            bits ^= 1 << exp
    return bits


def parse_rational(text: str, var: str = "z") -> RationalFunction:
    """Parse "z/(1+z)" style text: one optional '/', parentheses optional."""
    s = text.replace(" ", "")
    if "/" in s:
        top, _, bottom = s.partition("/")
        return RationalFunction(_parse_part(top, var), _parse_part(bottom, var))
    return RationalFunction(_parse_part(s, var))


def _parse_part(s: str, var: str) -> int:
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    return parse_poly(s, var)


def parse_quaternion(text: str, algebra: QuaternionAlgebra) -> Quaternion:
    """Parse "x0 + x1*I + x2*J + x3*IJ"; components are rational functions."""
    coords = [ZERO_RF, ZERO_RF, ZERO_RF, ZERO_RF]
    slot = {"": 0, "I": 1, "J": 2, "IJ": 3}
    for part in text.split(" + "):
        part = part.strip()
        if not part or part == "0":
            continue
        name = ""
        if part.endswith("*IJ"):
            name, part = "IJ", part[:-3]
        elif part.endswith("*J"):
            name, part = "J", part[:-2]
        elif part.endswith("*I"):
            name, part = "I", part[:-2]
        elif part == "IJ":
            name, part = "IJ", "1"
        elif part == "J":
            name, part = "J", "1"
        elif part == "I":
            name, part = "I", "1"
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        coords[slot[name]] = coords[slot[name]] + parse_rational(part, algebra.var)
    return Quaternion(algebra, tuple(coords))
