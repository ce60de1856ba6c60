"""Exact arithmetic and invariants for Q and quadratic fields Q(sqrt d).

Elements of Q(sqrt d) are stored as a + b*omega with exact rational a, b,
where omega = (1+sqrt d)/2 if d = 1 mod 4 and omega = sqrt d otherwise.
Conversion to floating point happens only at embedding time; the first
embedding sends sqrt d to the positive root (d > 0) or +i*sqrt|d| (d < 0).

Fractional ideals carry a canonical Hermite-normal-form presentation
q*(a*Z + (b + c*omega)*Z); ideals of the class-number-one base fields are
usually built from a single generator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .errors import UnsupportedFieldError

# discriminants of the imaginary quadratic fields accepted in the base-field
# role (all class number 1, norm-Euclidean)
SUPPORTED_BASE_DISCRIMINANTS = (-3, -4, -7, -8, -11)


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


# ---------------------------------------------------------------------------
# field descriptors


@dataclass(frozen=True)
class FieldDescriptor:
    kind: str                      # "Q" | "quadratic"
    d: Optional[int]               # squarefree generator, None for Q
    discriminant: int              # signed fundamental discriminant
    r1: int
    r2: int
    w: int                         # number of roots of unity
    regulator: float               # 1.0 unless real quadratic
    fundamental_unit_coeffs: Optional[tuple]   # (a, b) Fractions, real quadratic
    fundamental_unit_norm: Optional[int]       # +1 / -1, real quadratic
    is_supported_base: bool
    label: str

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return self.r1 + 2 * self.r2

    @property
    def is_rational(self) -> bool:
        return self.kind == "Q"

    @property
    def is_real_quadratic(self) -> bool:
        return self.kind == "quadratic" and self.d > 0

    @property
    def is_imaginary_quadratic(self) -> bool:
        return self.kind == "quadratic" and self.d < 0

    @property
    def omega_is_half(self) -> bool:
        # True when omega = (1 + sqrt d)/2
        return self.kind == "quadratic" and self.d % 4 == 1

    # -- embeddings ----------------------------------------------------------

    def omega_embeddings(self):
        """The two embeddings of omega (conjugate pair).

        Real quadratic: two floats; imaginary quadratic: two complex values,
        the first with positive imaginary part.
        """
        if self.kind == "Q":
            raise UnsupportedFieldError("Q has no omega")
        if self.d > 0:
            r = math.sqrt(self.d)
            if self.omega_is_half:
                return (1 + r) / 2, (1 - r) / 2
            return r, -r
        r = math.sqrt(-self.d)
        if self.omega_is_half:
            return complex(0.5, r / 2), complex(0.5, -r / 2)
        return complex(0.0, r), complex(0.0, -r)

    def embed(self, x: "QuadElement | Fraction | int", place: int = 0):
        """Embed x at the given infinite place (0 = first embedding)."""
        if isinstance(x, QuadElement):
            w = self.omega_embeddings()[place]
            return float(x.a) + float(x.b) * w
        return float(x)

    # -- distinguished elements ----------------------------------------------

    @property
    def fundamental_unit(self) -> "QuadElement":
        if self.fundamental_unit_coeffs is None:
            raise UnsupportedFieldError(f"{self.label} has no fundamental unit")
        a, b = self.fundamental_unit_coeffs
        return QuadElement(self, a, b)

    def different_generator(self) -> "QuadElement":
        """A generator of the different ideal (sqrt D as an element)."""
        if self.kind == "Q":
            raise UnsupportedFieldError("use Fraction(1) for the different of Q")
        if self.omega_is_half:
            # sqrt d = 2*omega - 1
            return QuadElement(self, Fraction(-1), Fraction(2))
        # sqrt(4d) = 2*omega
        return QuadElement(self, Fraction(0), Fraction(2))

    def one(self) -> "QuadElement":
        return QuadElement(self, Fraction(1), Fraction(0))

    def omega(self) -> "QuadElement":
        return QuadElement(self, Fraction(0), Fraction(1))

    def __repr__(self):
        return f"FieldDescriptor({self.label})"


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class QuadElement:
    """a + b*omega with exact rational coordinates."""

    field: FieldDescriptor
    a: Fraction
    b: Fraction

    def _coerce(self, other):
        if isinstance(other, QuadElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement(self.field, Fraction(other), Fraction(0))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadElement(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        F = self.field
        cross = self.a * o.b + self.b * o.a
        if F.omega_is_half:
            # omega^2 = omega + (d-1)/4
            m = Fraction(F.d - 1, 4)
            return QuadElement(F, self.a * o.a + self.b * o.b * m,
                               cross + self.b * o.b)
        return QuadElement(F, self.a * o.a + self.b * o.b * F.d, cross)

    __rmul__ = __mul__

    def conj(self) -> "QuadElement":
        if self.field.omega_is_half:
            # omega' = 1 - omega
            return QuadElement(self.field, self.a + self.b, -self.b)
        return QuadElement(self.field, self.a, -self.b)

    def norm(self) -> Fraction:
        F = self.field
        if F.omega_is_half:
            return self.a * self.a + self.a * self.b \
                + self.b * self.b * Fraction(1 - F.d, 4)
        return self.a * self.a - self.b * self.b * F.d

    def trace(self) -> Fraction:
        if self.field.omega_is_half:
            return 2 * self.a + self.b
        return 2 * self.a

    def inverse(self) -> "QuadElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element")
        c = self.conj()
        return QuadElement(self.field, c.a / n, c.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def embeddings(self):
        return (self.field.embed(self, 0), self.field.embed(self, 1))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self):
        return f"{self.a}{'+' if self.b >= 0 else ''}{self.b}w"


# ---------------------------------------------------------------------------
# fundamental units


def _cf_sqrt_unit(d: int):
    """Fundamental solution of x^2 - d y^2 = +-1 via the continued fraction
    of sqrt d.  Returns (x, y, norm)."""
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d must not be a square")
    m, q, a = 0, 1, a0
    # convergents
    p_prev, p_cur = 1, a0
    q_prev, q_cur = 0, 1
    period = 0
    while True:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        period += 1
        if q == 1:
            break
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    x, y = p_cur, q_cur
    norm = 1 if period % 2 == 0 else -1
    assert x * x - d * y * y == norm
    return x, y, norm


def _fundamental_unit(d: int):
    """Fundamental unit of the maximal order of Q(sqrt d), d > 1 squarefree.

    Returns omega-coordinates (a, b) as Fractions plus the exact norm.
    The continued fraction of sqrt d gives the unit of Z[sqrt d]; for
    d = 1 mod 4 the smaller half-integer solutions of x^2 - d y^2 = +-4
    are scanned first (the scan is bounded because (2x, 2y) always solves it).
    """
    x1, y1, n1 = _cf_sqrt_unit(d)
    if d % 4 != 1:
        return (Fraction(x1), Fraction(y1)), n1
    for y in range(1, 2 * y1 + 1):
        for sign in (-4, 4):
            t = d * y * y + sign
            if t <= 0:
                continue
            x = math.isqrt(t)
            if x * x == t:
                nrm = sign // 4          # x^2 - d y^2 = sign
                # (x + y sqrt d)/2 = (x - y)/2 + y*omega
                assert (x - y) % 2 == 0
                return (Fraction(x - y, 2), Fraction(y)), nrm
    raise AssertionError("unit scan failed")  # unreachable: (2*x1, 2*y1) solves


# ---------------------------------------------------------------------------
# construction


@lru_cache(maxsize=None)
def _make_field_cached(d: Optional[int]) -> FieldDescriptor:
    if d is None:
        return FieldDescriptor(
            kind="Q", d=None, discriminant=1, r1=1, r2=0, w=2,
            regulator=1.0, fundamental_unit_coeffs=None,
            fundamental_unit_norm=None, is_supported_base=True, label="Q")
    if d in (0, 1):
        raise ValueError("d must differ from 0 and 1")
    if not is_squarefree(d):
        raise ValueError(f"d={d} is not squarefree")
    disc = d if d % 4 == 1 else 4 * d
    if d > 0:
        coeffs, unit_norm = _fundamental_unit(d)
        r = math.sqrt(d)
        if d % 4 == 1:
            eps1 = float(coeffs[0]) + float(coeffs[1]) * (1 + r) / 2
        else:
            eps1 = float(coeffs[0]) + float(coeffs[1]) * r
        return FieldDescriptor(
            kind="quadratic", d=d, discriminant=disc, r1=2, r2=0, w=2,
            regulator=math.log(eps1), fundamental_unit_coeffs=coeffs,
            fundamental_unit_norm=unit_norm, is_supported_base=False,
            label=f"Q(sqrt{d})")
    w = 4 if d == -1 else 6 if d == -3 else 2
    return FieldDescriptor(
        kind="quadratic", d=d, discriminant=disc, r1=0, r2=1, w=w,
        regulator=1.0, fundamental_unit_coeffs=None, fundamental_unit_norm=None,
        is_supported_base=disc in SUPPORTED_BASE_DISCRIMINANTS,
        label=f"Q(sqrt{d})")


def make_field(kind: Union[str, int, None] = "Q", *, base: bool = False) -> FieldDescriptor:
    """Build a field descriptor.

    kind: "Q" / None for the rationals, or a squarefree integer d for
    Q(sqrt d).  With base=True the field must be usable as a base field for
    lattice and Eisenstein work (Q, or imaginary quadratic of discriminant
    -3, -4, -7, -8, -11).
    """
    if kind in ("Q", "q", None):
        return _make_field_cached(None)
    F = _make_field_cached(int(kind))
    if base and not F.is_supported_base:
        raise UnsupportedFieldError(
            f"{F.label} is not supported in the base-field role "
            f"(allowed: Q and imaginary quadratic with discriminant in "
            f"{SUPPORTED_BASE_DISCRIMINANTS})")
    return F


_FIELD_RE = re.compile(r"^Q(?:\(\s*sqrt\{?\s*(-?\d+)\s*\}?\s*\))?$")


def parse_field(spec: str, *, base: bool = False) -> FieldDescriptor:
    """Parse a field specification string: "Q", "Q(sqrt5)", "Q(sqrt{-5})"."""
    m = _FIELD_RE.match(spec.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse field specification {spec!r}")
    if m.group(1) is None:
        return make_field("Q", base=base)
    return make_field(int(m.group(1)), base=base)


# ---------------------------------------------------------------------------
# fractional ideals


def _bezout(u, v):
    """g, s, t with s*u + t*v = g = gcd(u, v)."""
    if u == 0 and v == 0:
        return 0, 0, 0
    old_r, r = u, v
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf_2col(rows):
    """Hermite normal form of the Z-module spanned by integer rows (u, v),
    i.e. elements u + v*omega.  Returns (a, b, c) with the module equal to
    a*Z + (b + c*omega)*Z, a > 0, c > 0, 0 <= b < a."""
    rows = [r for r in rows if r != (0, 0)]
    if not rows:
        raise ValueError("zero module")
    # combined row achieving c = gcd of omega-coordinates
    ub, vb = 0, 0
    for (u, v) in rows:
        if v == 0:
            continue
        g, s, t = _bezout(vb, v)
        ub, vb = s * ub + t * u, g
    a = 0
    for (u, v) in rows:
        if vb != 0:
            u = u - (v // vb) * ub
        a = math.gcd(a, u)
    if a == 0:
        raise ValueError("module has rank < 2")
    if vb == 0:
        raise ValueError("module has rank < 2")
    b = ub % a
    return a, b, vb


class FracIdeal:
    """A fractional ideal.

    For Q: a positive rational generator.  For quadratic fields: the
    canonical presentation q*(a*Z + (b + c*omega)*Z) with a > 0, c > 0,
    c | a, c | b, 0 <= b < a and a*c dividing N(b/c + omega)*c^2.  A known
    principal generator is kept alongside when available.
    """

    def __init__(self, field: FieldDescriptor, *, gen=None, hnf=None):
        self.field = field
        if field.is_rational:
            g = Fraction(gen)
            if g == 0:
                raise ValueError("zero ideal")
            self.gen = abs(g)
            self.hnf = None
            return
        if hnf is None:
            if gen is None or (isinstance(gen, QuadElement) and gen.is_zero()):
                raise ValueError("zero ideal")
            if not isinstance(gen, QuadElement):
                gen = QuadElement(field, Fraction(gen), Fraction(0))
            hnf = _ideal_hnf_from_gens(field, [gen])
        q, a, b, c = hnf
        self._validate(q, a, b, c)
        self.hnf = (q, a, b, c)
        self.gen = gen if isinstance(gen, QuadElement) else None

    # -- validation ----------------------------------------------------------

    def _validate(self, q, a, b, c):
        F = self.field
        if q <= 0 or a <= 0 or c <= 0 or not (0 <= b < a):
            raise ValueError(f"malformed HNF {(q, a, b, c)}")
        if a % c or b % c:
            raise ValueError(f"{(a, b, c)} is not an O-module (c divides a, b)")
        # O-stability: omega * (b + c*omega) must lie in a*Z + (b + c*omega)*Z
        nrm = QuadElement(F, Fraction(b), Fraction(c)).norm()
        if (nrm / (a * c)).denominator != 1:
            raise ValueError(f"{(a, b, c)} fails the ideal norm-divisibility test")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def unit_ideal(cls, field):
        if field.is_rational:
            return cls(field, gen=1)
        return cls(field, gen=field.one())

    @classmethod
    def from_z_module(cls, field, gens):
        """Ideal from a list of QuadElement generators (as an O-module:
        generators are multiplied by 1 and omega)."""
        return cls(field, hnf=_ideal_hnf_from_gens(field, gens))

    @classmethod
    def from_hnf(cls, field, a: int, b: int, c: int, q=Fraction(1)):
        return cls(field, hnf=_canonical_hnf(Fraction(q), a, b, c))

    # -- data ----------------------------------------------------------------

    def absolute_norm(self) -> Fraction:
        if self.field.is_rational:
            return self.gen
        q, a, b, c = self.hnf
        return q * q * a * c

    def z_basis(self):
        """Z-basis as exact elements (one for Q, two for quadratic fields)."""
        if self.field.is_rational:
            return [self.gen]
        q, a, b, c = self.hnf
        return [QuadElement(self.field, q * a, Fraction(0)),
                QuadElement(self.field, q * b, q * c)]

    def contains(self, x) -> bool:
        if self.field.is_rational:
            return (Fraction(x) / self.gen).denominator == 1
        q, a, b, c = self.hnf
        t = x.b / (q * c)
        if t.denominator != 1:
            return False
        s = (x.a - t * q * b) / (q * a)
        return s.denominator == 1

    # -- arithmetic ------------------------------------------------------------

    def __mul__(self, other):
        if self.field.is_rational:
            return FracIdeal(self.field, gen=self.gen * other.gen)
        gens = []
        for g1 in self.z_basis():
            for g2 in other.z_basis():
                gens.append(g1 * g2)
        out = FracIdeal.from_z_module(self.field, gens)
        if self.gen is not None and other.gen is not None:
            out.gen = self.gen * other.gen
        return out

    def inverse(self):
        if self.field.is_rational:
            return FracIdeal(self.field, gen=1 / self.gen)
        n = self.absolute_norm()
        gens = [g.conj() * QuadElement(self.field, 1 / n, Fraction(0))
                for g in self.z_basis()]
        out = FracIdeal.from_z_module(self.field, gens)
        if self.gen is not None:
            out.gen = self.gen.inverse()
        return out

    def scale(self, c):
        """The ideal c * a for a nonzero field element c."""
        if self.field.is_rational:
            return FracIdeal(self.field, gen=self.gen * abs(Fraction(c)))
        if not isinstance(c, QuadElement):
            c = QuadElement(self.field, Fraction(c), Fraction(0))
        gens = [g * c for g in self.z_basis()]
        out = FracIdeal.from_z_module(self.field, gens)
        if self.gen is not None:
            out.gen = self.gen * c
        return out

    def __eq__(self, other):
        if not isinstance(other, FracIdeal):
            return NotImplemented
        if self.field.is_rational and other.field.is_rational:
            return self.gen == other.gen
        return self.field == other.field and self.hnf == other.hnf

    def __hash__(self):
        if self.field.is_rational:
            return hash(("QI", self.gen))
        return hash((self.field.label, self.hnf))

    def __repr__(self):
        if self.field.is_rational:
            return f"({self.gen})Z"
        q, a, b, c = self.hnf
        return f"{q}*[{a}, {b}+{c}w] in {self.field.label}"


def _canonical_hnf(q, a, b, c):
    g = math.gcd(math.gcd(a, abs(b)), c)
    if g > 1:
        q, a, b, c = q * g, a // g, b // g, c // g
    return q, a, b % a, c


def _ideal_hnf_from_gens(field, gens):
    """HNF of the O-module generated by gens (each multiplied by 1, omega)."""
    rows_frac = []
    for g in gens:
        if g.is_zero():
            continue
        rows_frac.append((g.a, g.b))
        go = g * field.omega()
        rows_frac.append((go.a, go.b))
    if not rows_frac:
        raise ValueError("zero ideal")
    den = 1
    for (u, v) in rows_frac:
        den = den * u.denominator // math.gcd(den, u.denominator)
        den = den * v.denominator // math.gcd(den, v.denominator)
    rows = [(int(u * den), int(v * den)) for (u, v) in rows_frac]
    a, b, c = _hnf_2col(rows)
    return _canonical_hnf(Fraction(1, den), a, b, c)


# ---------------------------------------------------------------------------
# operations of the module surface


@lru_cache(maxsize=512)
def dual_ideal(F: FieldDescriptor, a: FracIdeal) -> FracIdeal:
    """The trace-dual ideal: the set of y with Tr(x*y) integral for all x in a.

    Equals (a * different)^{-1}; the pairing exp(2 pi i Tr(x y)) is trivial
    exactly on a x dual(a).  Computed once per field and ideal (equal
    ideals hash alike): the result is shared, and no caller may change it.
    """
    if F.is_rational:
        return FracIdeal(F, gen=1 / a.gen)
    diff = FracIdeal(F, gen=F.different_generator())
    out = (a * diff).inverse()
    if a.gen is not None:
        out.gen = (a.gen * F.different_generator()).inverse()
    return out
