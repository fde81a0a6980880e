"""Sparse linear combinations of basis symbols over an exact coefficient ring.

A basis symbol is a plain tuple: ("A", n) and ("G", m) for the Onsager-side
basis, ("Wm", k), ("Wp", k), ("Gt", k) for the alternative presentation.
Tuples compare lexicographically, which happens to give exactly the normal
ordering used for PBW words (A's by index, then G's by index).

Coefficients follow the rule of `scalars`: an int when integral, else a
Fraction, or a LaurentPoly (negative exponents allowed).  Mixed coefficients
combine through the arithmetic dunders of those types.

Sums, differences, scalings, quotient division, and the linear and bilinear
extensions of per-symbol maps (brackets, automorphisms, change of
presentation, PBW ordering), go through `scalars.accumulate`, which adds into
one dict in place under the coefficient rule instead of copying a dict per
term; a bracket adds each pair of terms through `scalars.accumulate_product`,
which scales by the product of the two coefficients without building it.

Polynomial coefficients are summed in place as well: `accumulate` updates a
polynomial it built in the caller's dict without copying it, and copies any
other (a coefficient of an existing element) on its first update.  The
constructor, `SparseCombination.__init__`, keeps `scalars.frozen` of the map
it is given, which drops zeros and ends every such sum, so an element never
changes after it is built.
"""

from .scalars import accumulate, frozen


def linear_extension(f, x):
    """The linear extension of the per-key map `f`, applied to `x`."""
    out = {}
    for key, c in x.terms.items():
        accumulate(out, f(key).terms, c)
    return type(x)(out)


class SparseCombination:
    """A finite combination of keys with nonzero coefficients.  Immutable by
    convention; `+` and `-` combine two of one class, and subclasses fix the
    keys and may define a `str`, which `repr` wraps in the class name."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = frozen(terms) if terms else {}

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(accumulate(dict(self.terms), other.terms))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(accumulate(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return type(self)({s: -c for s, c in self.terms.items()})

    def scale(self, coeff):
        return type(self)(accumulate({}, self.terms, coeff))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def coeff(self, key):
        return self.terms.get(tuple(key), 0)

    def __str__(self):
        return str(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class AlgElem(SparseCombination):
    """A finite linear combination of basis symbols."""

    __slots__ = ()

    @classmethod
    def basis(cls, sym: tuple) -> "AlgElem":
        return cls({sym: 1})

    # Bound here too: `benchmarks/layers.py` wraps `vars(AlgElem)["__add__"]`.
    __add__ = SparseCombination.__add__

    def __mul__(self, coeff):
        if isinstance(coeff, AlgElem):
            raise TypeError(
                "algebra elements have no associative product; use bracket()"
            )
        return self.scale(coeff)

    __rmul__ = __mul__

    def map_coeffs(self, f) -> "AlgElem":
        return AlgElem({s: f(c) for s, c in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for sym, coeff in sorted(self.terms.items(), key=lambda t: t[0]):
            name = f"{sym[0]}({sym[1]})"
            cs = str(coeff)
            if cs == "1":
                parts.append(name)
            elif cs == "-1":
                parts.append(f"-{name}")
            elif ("+" in cs) or ("-" in cs[1:]) or (" " in cs):
                parts.append(f"({cs})*{name}")
            else:
                parts.append(f"{cs}*{name}")
        return " + ".join(parts)


ZERO = AlgElem()
