"""Exact coefficient fields: the rationals and the prime fields F_p.

Everything here is exact integer arithmetic; no floating point is used
anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

__all__ = ["FieldSpec", "Scalar"]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Miller-Rabin with the witnesses above decides primality exactly below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017); without 41 it fails at
# 318665857834031151167461 = 399165290221 * 798330580441.
MAX_CHARACTERISTIC = 3317044064679887385961981


def _is_prime(m: int) -> bool:
    # Deterministic for m < MAX_CHARACTERISTIC.
    if m < 2:
        return False
    for p in _MR_WITNESSES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _check_int(value, name: str) -> int:
    """The value, if it is an int; TypeError for any other type, bool included."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}: {value!r}")
    return value


def _check_spec(spec) -> None:
    """TypeError unless spec is a FieldSpec."""
    if not isinstance(spec, FieldSpec):
        raise TypeError(f"spec must be a FieldSpec, got {type(spec).__name__}: {spec!r}")


def _check_shape(n: int, d: int) -> None:
    """The sizes the paper's theorem is stated for: int n >= 2 and int d >= 1."""
    _check_int(n, "n")
    _check_int(d, "d")
    if n < 2:
        raise ValueError(f"algebra order must be at least 2, got {n}")
    if d < 1:
        raise ValueError(f"matrix dimension must be at least 1, got {d}")


# The one FieldSpec of each characteristic accepted so far.
_FIELDS: Dict[int, "FieldSpec"] = {}


class FieldSpec:
    """Coefficient field, identified by its characteristic.

    Characteristic 0 means the rationals; a prime p means the field of
    residues mod p.  Any other characteristic is rejected.  There is one
    instance per characteristic, so a characteristic is checked once per
    process, and equality and hashing are those of identity.
    """

    __slots__ = ("characteristic",)

    def __new__(cls, characteristic: int = 0) -> "FieldSpec":
        # Type first: 2.0 and True would otherwise find the instances for 2 and 1.
        c = _check_int(characteristic, "characteristic")
        spec = _FIELDS.get(c)
        if spec is not None:
            return spec
        if c >= MAX_CHARACTERISTIC:
            raise ValueError(
                f"characteristic must be below {MAX_CHARACTERISTIC}, the limit of "
                f"the exact primality test, got {c}"
            )
        if c < 0 or (c != 0 and not _is_prime(c)):
            raise ValueError(f"characteristic must be 0 or a prime, got {c}")
        spec = object.__new__(cls)
        object.__setattr__(spec, "characteristic", c)
        return _FIELDS.setdefault(c, spec)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return FieldSpec, (self.characteristic,)

    def __repr__(self) -> str:
        return f"FieldSpec(characteristic={self.characteristic!r})"

    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def from_int(self, m: int) -> "Scalar":
        """Image of the integer m under the canonical ring map into the field."""
        return Scalar(self, m)

    def divides(self, m: int) -> bool:
        """Whether m * 1 = 0 in this field.

        In characteristic 0 that means m = 0; in characteristic p it is
        ordinary divisibility p | m (sign-independent).
        """
        if self.characteristic == 0:
            return m == 0
        return m % self.characteristic == 0

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"


class Scalar:
    """An exact field element in canonical form.

    Over the rationals the value is a reduced `Fraction`; over F_p it is
    the residue in [0, p).  Scalars are immutable and hashable.
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        p = spec.characteristic
        if p == 0:
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"rational scalar needs int or Fraction, got {type(value).__name__}")
            value = Fraction(value)
        else:
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise TypeError("residue scalar cannot be built from a non-integer fraction")
                value = value.numerator
            if not isinstance(value, int):
                raise TypeError(f"residue scalar needs an integer, got {type(value).__name__}")
            value = value % p
        self.spec = spec
        self.value = value

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.spec != self.spec:
            raise ValueError(f"mismatched fields: {self.spec} vs {other.spec}")

    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.spec, self.value + other.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.spec, self.value - other.value)

    def __mul__(self, other: "Scalar") -> "Scalar":
        # Another operand (an element or a matrix) gets to scale itself by
        # self through its __rmul__.
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return Scalar(self.spec, self.value * other.value)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self * other.inv()

    def __neg__(self) -> "Scalar":
        return Scalar(self.spec, -self.value)

    def inv(self) -> "Scalar":
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in {self.spec}")
        p = self.spec.characteristic
        if p == 0:
            return Scalar(self.spec, 1 / self.value)
        return Scalar(self.spec, pow(self.value, -1, p))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.spec == other.spec
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.spec, self.value))

    def __str__(self) -> str:
        # Self-describing form: "a/b" or "a" over Q, "r mod p" over F_p.
        if self.spec.characteristic == 0:
            return str(self.value)
        return f"{self.value} mod {self.spec.characteristic}"

    def __repr__(self) -> str:
        return f"Scalar({self.spec}, {self.value})"

