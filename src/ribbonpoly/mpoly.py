"""Exact sparse polynomials in the variables X, Y, Z and t.

Coefficients are Python integers, so they never overflow; evaluation is
over :class:`fractions.Fraction`, never floats.  The variable set is fixed
at exactly these four: X, Y, Z for the three-variable ribbon-graph
polynomial, t for the genus-counting specialization, and the X/Y slots
double as the Tutte variables x/y for abstract multigraphs.

The canonical text form sorts terms by descending ``(x, y, z, t)``
exponent lexicographic order and omits unit coefficients and exponents,
e.g. ``X^2*Y^2 + 2*X^2*Y + ... + 1``.  It and the JSON term list of
:meth:`MPoly.to_json_terms` are output forms; the package reads neither.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import NegativeExponent, RibbonPolyError

ExponentKey = tuple[int, int, int, int]

_VAR_NAMES = ("X", "Y", "Z", "t")
_VAR_INDEX = {name: i for i, name in enumerate(_VAR_NAMES)}


class MPoly:
    """Immutable sparse polynomial in Z[X, Y, Z, t]."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ExponentKey, int] | None = None):
        """Raises ValueError on a coefficient or exponent that is not an int;
        one that is a ``bool`` is stored as the plain int 0 or 1."""
        clean: dict[ExponentKey, int] = {}
        if terms:
            for key, coeff in terms.items():
                if len(key) != 4 or not all(isinstance(e, int) and e >= 0 for e in key):
                    raise ValueError(f"bad exponent vector {key!r}")
                if not isinstance(coeff, int):
                    raise ValueError(f"coefficient {coeff!r} is not an integer")
                if coeff:
                    clean[tuple(map(int, key))] = int(coeff)
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> MPoly:
        return cls()

    @classmethod
    def constant(cls, value: int) -> MPoly:
        return cls({(0, 0, 0, 0): value})

    @classmethod
    def monomial(cls, coeff: int, x: int = 0, y: int = 0, z: int = 0, t: int = 0) -> MPoly:
        return cls({(x, y, z, t): coeff})

    @classmethod
    def variable(cls, name: str) -> MPoly:
        key = [0, 0, 0, 0]
        key[_VAR_INDEX[name]] = 1
        return cls({tuple(key): 1})

    # -- inspection ----------------------------------------------------

    def items(self) -> Iterable[tuple[ExponentKey, int]]:
        """Read-only view of (exponent vector, coefficient) pairs, unsorted."""
        return self._terms.items()

    def sorted_terms(self) -> list[tuple[ExponentKey, int]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def uses_variable(self, name: str) -> bool:
        idx = _VAR_INDEX[name]
        return any(key[idx] for key in self._terms)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(value: MPoly | int) -> MPoly:
        if isinstance(value, MPoly):
            return value
        if isinstance(value, int):
            return MPoly.constant(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: MPoly | int) -> MPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            new = terms.get(key, 0) + coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        out = MPoly.__new__(MPoly)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        out = MPoly.__new__(MPoly)
        out._terms = {key: -coeff for key, coeff in self._terms.items()}
        return out

    def __sub__(self, other: MPoly | int) -> MPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: MPoly | int) -> MPoly:
        return (-self) + other

    def __mul__(self, other: MPoly | int) -> MPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[ExponentKey, int] = {}
        for (a1, b1, c1, d1), u in self._terms.items():
            for (a2, b2, c2, d2), v in other._terms.items():
                key = (a1 + a2, b1 + b2, c1 + c2, d1 + d2)
                new = terms.get(key, 0) + u * v
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
        out = MPoly.__new__(MPoly)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> MPoly:
        if type(exponent) is not int or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = MPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MPoly.constant(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals the int of the same value, so it hashes like it
        if self._terms.keys() <= {(0, 0, 0, 0)}:
            return hash(self._terms.get((0, 0, 0, 0), 0))
        return hash(frozenset(self._terms.items()))

    # -- evaluation and substitution ----------------------------------

    def evaluate(
        self,
        x: Fraction | int = 0,
        y: Fraction | int = 0,
        z: Fraction | int = 0,
        t: Fraction | int = 0,
    ) -> Fraction:
        """Exact rational evaluation; the all-zero point gives the constant term."""
        point = (Fraction(x), Fraction(y), Fraction(z), Fraction(t))
        total = Fraction(0)
        for key, coeff in self._terms.items():
            value = Fraction(coeff)
            for base, exp in zip(point, key):
                if exp:
                    value *= base**exp
            total += value
        return total

    def substitute(
        self,
        x: MPoly | int | None = None,
        y: MPoly | int | None = None,
        z: MPoly | int | None = None,
        t: MPoly | int | None = None,
    ) -> MPoly:
        """Simultaneously replace variables by polynomials (or integers).

        Unmentioned variables are kept.  Replacements may reuse any of the
        four variables; the substitution reads only the original exponents.
        """
        replacements = []
        for name, value in zip(_VAR_NAMES, (x, y, z, t)):
            if value is None:
                replacements.append(MPoly.variable(name))
            else:
                coerced = self._coerce(value)
                if coerced is NotImplemented:
                    raise TypeError(f"cannot substitute {value!r} for {name}")
                replacements.append(coerced)
        total = MPoly.zero()
        for key, coeff in self._terms.items():
            term = MPoly.constant(coeff)
            for rep, exp in zip(replacements, key):
                if exp:
                    term = term * rep**exp
            total = total + term
        return total

    # -- text form ---------------------------------------------------------

    def _term_string(self, key: ExponentKey, coeff: int) -> str:
        factors = []
        for name, exp in zip(_VAR_NAMES, key):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        magnitude = abs(coeff)
        if not factors:
            return str(magnitude)
        if magnitude == 1:
            return "*".join(factors)
        return "*".join([str(magnitude)] + factors)

    def to_string(self, ascending: bool = False) -> str:
        """Canonical text form; ``ascending=True`` reverses the term order."""
        if not self._terms:
            return "0"
        ordered = self.sorted_terms()
        if ascending:
            ordered.reverse()
        pieces = []
        for pos, (key, coeff) in enumerate(ordered):
            body = self._term_string(key, coeff)
            if pos == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"MPoly({self.to_string()})"

    # -- JSON term-list form -----------------------------------------------

    def to_json_terms(self) -> list[dict[str, int]]:
        return [
            {"coeff": coeff, "x": key[0], "y": key[1], "z": key[2], "t": key[3]}
            for key, coeff in self.sorted_terms()
        ]


ONE = MPoly.constant(1)
X = MPoly.variable("X")
Y = MPoly.variable("Y")
Z = MPoly.variable("Z")
T = MPoly.variable("t")


def counting_substitution(poly: MPoly) -> MPoly:
    """Genus-grading substitution: X := 1, then Y^n Z^g -> t^g Y^(n - 2g).

    Valid whenever the input is the three-variable polynomial of a
    connected ribbon graph, where every surviving monomial has nullity at
    least twice the genus; anything else raises
    :class:`~ribbonpoly.errors.NegativeExponent`.  Setting t = 1, Y = 0 in
    the result counts quasi-trees, graded by genus via t.
    """
    if poly.uses_variable("t"):
        raise ValueError("input polynomial already uses t")
    collapsed = poly.substitute(x=1)
    terms: dict[ExponentKey, int] = {}
    for (x_exp, nullity, genus, _), coeff in collapsed.items():
        if x_exp:
            raise RibbonPolyError(f"X^{x_exp} survived the substitution X := 1")
        if nullity - 2 * genus < 0:
            raise NegativeExponent(
                f"monomial Y^{nullity}*Z^{genus} has nullity < 2*genus; "
                "input is not the polynomial of a connected ribbon graph"
            )
        key = (0, nullity - 2 * genus, 0, genus)
        terms[key] = terms.get(key, 0) + coeff
    return MPoly(terms)


def genus_counting_series(poly: MPoly) -> MPoly:
    """``q(t, 0)``: the quasi-tree count of each genus as a polynomial in t."""
    return counting_substitution(poly).substitute(y=0)
