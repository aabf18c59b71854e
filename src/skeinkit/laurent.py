"""Sparse Laurent polynomials over Python integers, in one or two variables.

``LaurentPoly2`` is a polynomial in v and z (the HOMFLYPT ring);
``LaurentPoly1`` is a polynomial in one variable ``a`` (the Jones ring of
the bracket oracle).  Both are immutable and hashable and share one sparse
core: a dict mapping exponent keys to nonzero int coefficients, where a key
is an int for one variable and a pair (e_v, e_z) for two.  The zero
polynomial stores no terms, and two polynomials are equal iff their term
dicts are equal.  Polynomials of the two types never mix: adding or
multiplying one with the other raises ``TypeError``; ints mix with both.

Canonical text form of ``LaurentPoly2``: terms sorted by (e_z, e_v)
ascending, each rendered ``c*v^a*z^b``, joined by `` + ``; the zero
polynomial prints as ``0``.  This is the cache and CLI exchange format, and
``parse_text`` round-trips it.

The distinguished constant ``DELTA`` is (v^-1 - v) * z^-1, the value of a
two-component unlink; disjoint unions multiply by it.
"""

from __future__ import annotations

import functools
import re

from .errors import SkeinKitError, ZeroPolynomialError

__all__ = ["LaurentPoly1", "LaurentPoly2", "DELTA", "ZERO", "ONE", "delta_power"]

_TERM_RE = re.compile(r"^(-?\d+)\*v\^(-?\d+)\*z\^(-?\d+)$")

_EXP_BOUND = 2**31


class _SparseLaurent:
    """The shared core: normalization, equality, addition and powers.

    Subclasses set ``_CONST`` (the key of the constant term) and define
    what depends on the key shape: ``_in_range`` (every exponent of a term
    dict is below ``2**31`` in absolute value) and ``__mul__``.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    c2 = data.get(key, 0) + c
                    if c2:
                        data[key] = c2
                    elif key in data:
                        del data[key]
        if not self._in_range(data):
            raise OverflowError("exponent out of range: |e| >= 2**31")
        self._terms = data
        self._hash = None

    @classmethod
    def _raw(cls, data: dict):
        """Wrap an already normalized term dict without copying it."""
        p = cls.__new__(cls)
        p._terms = data
        p._hash = None
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
        if self._hash is None:
            terms = self._terms
            if terms.keys() <= {self._CONST}:
                self._hash = hash(terms.get(self._CONST, 0))
            else:
                self._hash = hash(frozenset(terms.items()))
        return self._hash

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

    def __neg__(self):
        return self._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

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
    """One-variable Laurent polynomial over Python ints (variable ``a``)."""

    __slots__ = ()
    _CONST = 0

    @staticmethod
    def _in_range(data: dict) -> bool:
        return not data or (-_EXP_BOUND < min(data) and max(data) < _EXP_BOUND)

    @staticmethod
    def monomial(coeff: int, e: int = 0) -> "LaurentPoly1":
        return LaurentPoly1({e: coeff})

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

    def exact_div(self, divisor: "LaurentPoly1") -> "LaurentPoly1":
        """Exact quotient; raises if the division leaves a remainder.

        Laurent division from the top descends forever on inexact input,
        so the quotient exponent is bounded below by the difference of the
        bottom degrees: falling past it proves the division inexact.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly1()
        rem = dict(self._terms)
        d_top = max(divisor._terms)
        d_lead = divisor._terms[d_top]
        e_min = min(self._terms) - min(divisor._terms)
        quot = {}
        while rem:
            top = max(rem)
            c, r = divmod(rem[top], d_lead)
            e = top - d_top
            if r or e < e_min:
                raise SkeinKitError("inexact Laurent division")
            quot[e] = c
            for de, dc in divisor._terms.items():
                key = de + e
                c2 = rem.get(key, 0) - dc * c
                if c2:
                    rem[key] = c2
                elif key in rem:
                    del rem[key]
        return self._raw(quot)

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
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
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

    # -- degree queries -----------------------------------------------

    def max_z_degree(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("max_z_degree of the zero polynomial")
        return max(ez for _, ez in self._terms)

    # -- substitutions ------------------------------------------------

    def substitute_v_inverse(self) -> "LaurentPoly2":
        """Map every term (e_v, e_z, c) to (-e_v, e_z, c)."""
        return self._raw({(-ev, ez): c for (ev, ez), c in self._terms.items()})

    def mirror_image(self) -> "LaurentPoly2":
        """The polynomial of the mirror link: (v, z) -> (v^-1, -z).

        Agrees with ``substitute_v_inverse`` whenever every z-exponent is
        even (all knots); for even-component links the rows of odd z-degree
        change sign as well.
        """
        return self._raw(
            {(-ev, ez): (c if ez % 2 == 0 else -c) for (ev, ez), c in self._terms.items()}
        )

    # -- text and JSON forms ------------------------------------------

    def format_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (ev, ez) in sorted(self._terms, key=lambda k: (k[1], k[0])):
            parts.append(f"{self._terms[(ev, ez)]}*v^{ev}*z^{ez}")
        return " + ".join(parts)

    @staticmethod
    def parse_text(text: str) -> "LaurentPoly2":
        text = text.strip()
        if text == "0":
            return ZERO
        terms = []
        for chunk in text.split(" + "):
            m = _TERM_RE.match(chunk.strip())
            if not m:
                raise ValueError(f"bad polynomial term: {chunk!r}")
            c, ev, ez = (int(g) for g in m.groups())
            terms.append(((ev, ez), c))
        return LaurentPoly2(terms)

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
    if k < 0:
        raise ValueError("delta_power requires k >= 0")
    return DELTA ** k
