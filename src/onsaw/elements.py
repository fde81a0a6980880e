"""Sparse linear combinations of basis symbols over an exact coefficient ring.

A basis symbol is a plain tuple: ("A", n) and ("G", m) for the Onsager-side
basis, ("Wm", k), ("Wp", k), ("Gt", k) for the alternative presentation.
Tuples compare lexicographically, which happens to give exactly the normal
ordering used for PBW words (A's by index, then G's by index).

Coefficients follow the rule of `scalars`: int when integral, else Fraction,
or a LaurentPoly (negative exponents allowed); RatFunc only for real
quotients such as `OperatorMatrix.entry`.  Mixed coefficients combine through
the arithmetic dunders of those types.

The linear and bilinear extensions of per-symbol maps (brackets,
automorphisms, quotient reduction, change of presentation, PBW ordering) sum
through `accumulate`, which adds into one dict in place instead of copying a
dict per term.
"""

Sym = tuple


def accumulate(acc: dict, terms: dict, k) -> dict:
    """Add `terms` scaled by `k` (unscaled when `k` is None) into `acc`.

    Each product is `term_coeff * k` and a zero product is skipped; a key
    whose sum cancels is removed, so `acc` never holds a zero.  `acc` is
    changed in place and returned.  It must be a dict the caller owns, never
    the `terms` of an element: elements, quotient caches and `ZERO` share
    theirs.
    """
    for key, c in terms.items():
        if k is not None:
            c = c * k
            if not c:
                continue
        old = acc.get(key)
        if old is not None:
            c = old + c
        if c:
            acc[key] = c
        elif old is not None:
            del acc[key]
    return acc


def linear_extension(f, x):
    """The linear extension of the per-key map `f`, applied to `x`."""
    out = {}
    for key, c in x.terms.items():
        accumulate(out, f(key).terms, c)
    return type(x)(out)


class SparseCombination:
    """A finite combination of keys with nonzero coefficients.  Immutable by
    convention; subclasses fix the keys and define `+` through `accumulate`."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        if terms:
            self.terms = {s: c for s, c in terms.items() if c}
        else:
            self.terms = {}

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)({s: -c for s, c in self.terms.items()})

    def scale(self, coeff):
        return type(self)({s: c * coeff for s, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(other.terms[s] == c for s, c in self.terms.items())

    __hash__ = None

    def coeff(self, key):
        return self.terms.get(tuple(key), 0)


class AlgElem(SparseCombination):
    """A finite linear combination of basis symbols."""

    __slots__ = ()

    @classmethod
    def basis(cls, sym: Sym, coeff=1) -> "AlgElem":
        return cls({sym: coeff})

    def __add__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        return AlgElem(accumulate(dict(self.terms), other.terms, None))

    def __mul__(self, coeff):
        if isinstance(coeff, AlgElem):
            raise TypeError(
                "algebra elements have no associative product; use bracket()"
            )
        return self.scale(coeff)

    __rmul__ = __mul__

    def map_coeffs(self, f) -> "AlgElem":
        return AlgElem({s: f(c) for s, c in self.terms.items()})

    def symbols(self):
        return set(self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0])

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for sym, coeff in self.sorted_terms():
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

    def __repr__(self):
        return f"AlgElem({self})"


ZERO = AlgElem()
