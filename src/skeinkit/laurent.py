"""Sparse Laurent polynomials over Python integers, in one or two variables.

``LaurentPoly2`` is a polynomial in v and z (the HOMFLYPT ring);
``LaurentPoly1`` is a polynomial in one variable ``a``, the value type of
the Jones polynomials that ``jones.py`` returns (it computes them on packed
ints, not with this arithmetic).  Both are immutable and hashable and share
one sparse core: a dict mapping exponent keys to nonzero int coefficients,
where a key is an int for one variable and a pair (e_v, e_z) for two.  The
zero polynomial stores no terms, and two polynomials are equal iff their
term dicts are equal.  The operations are ``+``, ``*`` and ``**``, and for
``LaurentPoly2`` a sum of products in one pass (``sum_of_products``, the
value of a skein node); there is no division, subtraction or negation.
Polynomials of the two types never mix: adding or multiplying one with the
other raises ``TypeError``; ints mix with both in ``+``, ``*`` and ``==``.

Canonical text form of ``LaurentPoly2``: terms sorted by (e_z, e_v)
ascending, each rendered ``c*v^a*z^b``, joined by `` + ``; the zero
polynomial prints as ``0``.  This is the cache and CLI exchange format.
Its one grammar, ``TEXT_PATTERN``, also admits terms in any order, and
``parse_text`` refuses any other text.  The grammar's exponents have at
most 9 digits: the constructor refuses larger ones, and ``format_text``
raises ``OverflowError`` rather than write one (a product can reach
them), so every text it writes parses.

The distinguished constant ``DELTA`` is (v^-1 - v) * z^-1, the value of a
two-component unlink; disjoint unions multiply by it.
"""

from __future__ import annotations

import functools
import re

from .errors import ZeroPolynomialError

__all__ = ["LaurentPoly1", "LaurentPoly2", "DELTA", "ZERO", "ONE", "delta_power"]

_EXP_BOUND = 10**9  # |e| < 10**9: at most the grammar's 9 digits
_TERM = r"(-?[1-9][0-9]*)\*v\^(0|-?[1-9][0-9]{0,8})\*z\^(0|-?[1-9][0-9]{0,8})"
_TERM_RE = re.compile(_TERM)
_PLAIN_TERM = _TERM.replace("(", "(?:")  # groups slow a match
TEXT_PATTERN = rf"0|{_PLAIN_TERM}(?: \+ {_PLAIN_TERM})*"
_TEXT_RE = re.compile(TEXT_PATTERN)


class _SparseLaurent:
    """The shared core: normalization, equality, addition and powers.

    Subclasses set ``_CONST`` (the key of the constant term) and define
    what depends on the key shape: ``_in_range`` (every exponent of a term
    dict is below ``_EXP_BOUND`` in absolute value) and ``__mul__``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, c in (terms.items() if isinstance(terms, dict) else terms):
                if not isinstance(c, int):
                    raise TypeError(f"coefficient {c!r} is not an int")
                if c:
                    c2 = data.get(key, 0) + c
                    if c2:
                        data[key] = c2
                    elif key in data:
                        del data[key]
        if not self._in_range(data):
            raise OverflowError("exponent out of range: |e| >= 10**9")
        self._terms = data

    @classmethod
    def _raw(cls, data: dict):
        """Wrap an already normalized term dict without copying it."""
        p = cls.__new__(cls)
        p._terms = data
        return p

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, cls):
            return x
        if isinstance(x, int):
            return cls._raw({cls._CONST: x} if x else {})
        return NotImplemented

    # -- basic protocol -----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict:
        """A copy of the term dict {key: coeff}."""
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its int, so it must hash as that int.
        terms = self._terms
        if terms.keys() <= {self._CONST}:
            return hash(terms.get(self._CONST, 0))
        return hash(frozenset(terms.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.format_text()!r})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for key, c in other._terms.items():
            c2 = data.get(key, 0) + c
            if c2:
                data[key] = c2
            elif key in data:
                del data[key]
        return self._raw(data)

    __radd__ = __add__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative powers are not defined for {type(self).__name__}")
        result = self._raw({self._CONST: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result


class LaurentPoly1(_SparseLaurent):
    """One-variable Laurent polynomial over Python ints (variable ``a``): a
    Jones value."""

    __slots__ = ()
    _CONST = 0

    @staticmethod
    def _in_range(data: dict) -> bool:
        return not data or (-_EXP_BOUND < min(data) and max(data) < _EXP_BOUND)

    # The package multiplies no Jones values; the tests do, and the
    # benchmark's tracer wraps this method by name.
    def __mul__(self, other) -> "LaurentPoly1":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                c = data.get(e, 0) + c1 * c2
                if c:
                    data[e] = c
                elif e in data:
                    del data[e]
        return self._raw(data)

    __rmul__ = __mul__

    def format_text(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{self._terms[e]}*a^{e}" for e in sorted(self._terms))


class LaurentPoly2(_SparseLaurent):
    """An exact Laurent polynomial in v and z with integer coefficients."""

    __slots__ = ()
    _CONST = (0, 0)

    @staticmethod
    def _in_range(data: dict) -> bool:
        return all(abs(ev) < _EXP_BOUND and abs(ez) < _EXP_BOUND for ev, ez in data)

    # Own entries in the class dict, so that a per-class wrapper (a
    # profiler, say) can replace them without touching LaurentPoly1.
    __add__ = __radd__ = _SparseLaurent.__add__

    @staticmethod
    def monomial(coeff: int, v: int = 0, z: int = 0) -> "LaurentPoly2":
        return LaurentPoly2({(v, z): coeff})

    def coefficient(self, v: int, z: int) -> int:
        return self._terms.get((v, z), 0)

    def __mul__(self, other) -> "LaurentPoly2":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        short, long = (self, other) if len(self._terms) <= len(other._terms) else (other, self)
        a, b = short._terms, long._terms
        if len(a) == 1:
            # A monomial shifts the other operand's exponents, and 1 keeps it.
            ((av, az), ac), = a.items()
            if ac == 1 and av == az == 0:
                return long
            return self._raw({(bv + av, bz + az): bc * ac for (bv, bz), bc in b.items()})
        data = {}
        for (av, az), ac in a.items():
            for (bv, bz), bc in b.items():
                key = (av + bv, az + bz)
                c2 = data.get(key, 0) + ac * bc
                if c2:
                    data[key] = c2
                elif key in data:
                    del data[key]
        return self._raw(data)

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs) -> "LaurentPoly2":
        """sum(a * b for a, b in pairs), built in one term dict: no product
        or partial sum is made.  Cheapest when each ``a`` is a monomial."""
        data = {}
        get = data.get
        for a, b in pairs:
            for (av, az), ac in a._terms.items():
                for (bv, bz), bc in b._terms.items():
                    key = (av + bv, az + bz)
                    data[key] = get(key, 0) + ac * bc
        return LaurentPoly2._raw({key: c for key, c in data.items() if c})

    # -- degree queries -----------------------------------------------

    def max_z_degree(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("max_z_degree of the zero polynomial")
        return max(ez for _, ez in self._terms)

    # -- substitutions ------------------------------------------------

    def mirror_image(self) -> "LaurentPoly2":
        """The polynomial of the mirror link: (v, z) -> (v^-1, -z).

        This is v -> v^-1 alone whenever every z-exponent is even (all
        links with an odd number of components); for even-component links
        the rows of odd z-degree change sign as well.
        """
        return self._raw(
            {(-ev, ez): (c if ez % 2 == 0 else -c) for (ev, ez), c in self._terms.items()}
        )

    # -- text and JSON forms ------------------------------------------

    def format_text(self) -> str:
        """The canonical text; an exponent it cannot hold raises ``OverflowError``."""
        terms = self._terms
        if not self._in_range(terms):
            raise OverflowError("exponent out of range: |e| >= 10**9")
        if not terms:
            return "0"
        return " + ".join(f"{terms[k]}*v^{k[0]}*z^{k[1]}" for k in sorted(terms, key=lambda k: (k[1], k[0])))

    @staticmethod
    def parse_text(text: str) -> "LaurentPoly2":
        """The polynomial of text in the ``TEXT_PATTERN`` grammar; any other
        text raises ``ValueError``."""
        if not _TEXT_RE.fullmatch(text):
            raise ValueError(f"not canonical polynomial text: {text!r}")
        return LaurentPoly2(((int(ev), int(ez)), int(c)) for c, ev, ez in _TERM_RE.findall(text))

    def to_json_terms(self) -> list:
        return [
            {"v": ev, "z": ez, "c": str(self._terms[(ev, ez)])}
            for (ev, ez) in sorted(self._terms, key=lambda k: (k[1], k[0]))
        ]


ZERO = LaurentPoly2()
ONE = LaurentPoly2.monomial(1)
DELTA = LaurentPoly2({(-1, -1): 1, (1, -1): -1})


@functools.lru_cache(maxsize=None)
def delta_power(k: int) -> LaurentPoly2:
    """delta^k, the HOMFLYPT polynomial of a (k+1)-component unlink."""
    return DELTA ** k
