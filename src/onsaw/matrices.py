"""Dense ring-generic matrices plus tensor-leg embedding and partial traces.

Entries may be rationals (int when integral, per the coefficient rule of
`scalars`), Laurent polynomials or algebra elements; anything supporting
+, -, * and truth testing works.  A matrix over rational functions is kept
as a pair (numerator matrix, common denominator).  All matrices
in this project are small (2x2 up to 16x16), so a dense tuple-of-tuples
representation is used and values are immutable after construction.
`scale` is the one way to multiply by a scalar; `*` is the matrix product.

Every tensor leg has dimension 2, and leg 1 is the most significant bit of
an index: on n legs, bit n - k of an index is the state of leg k.
`embed_leg` and `partial_trace` read and write indices this way.
"""

import operator
from fractions import Fraction


class Matrix:
    __slots__ = ("entries",)

    def __init__(self, rows):
        self.entries = tuple(tuple(row) for row in rows)
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise ValueError("ragged matrix rows")

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other, op):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix dimensions do not match")
        rows = zip(self.entries, other.entries)
        return Matrix([list(map(op, r1, r2)) for r1, r2 in rows])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = tuple(zip(*other.entries))
        out = []
        for row in self.entries:
            out_row = []
            for col in cols:
                acc = None
                for a, b in zip(row, col):
                    if not a or not b:
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                if acc is None:  # every pair had a zero, so this product is zero
                    acc = row[0] * col[0]
                out_row.append(acc)
            out.append(out_row)
        return Matrix(out)

    def scale(self, c):
        return Matrix([[c * a for a in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def is_zero(self) -> bool:
        return all(not a for row in self.entries for a in row)

    def map(self, f):
        return Matrix([[f(a) for a in row] for row in self.entries])

    def evaluate(self, bindings):
        return self.map(lambda a: a.evaluate(bindings) if hasattr(a, "evaluate") else Fraction(a))

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(a) for a in row) + "]" for row in self.entries
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def commutator(x: Matrix, y: Matrix) -> Matrix:
    return x * y - y * x


def kron(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                for l in range(b.cols):
                    row.append(a[i, j] * b[k, l])
            out.append(row)
    return Matrix(out)


def flip_matrix() -> Matrix:
    """Permutation matrix exchanging the two tensor factors of dimension 2."""
    return Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


def embed_leg(m: Matrix, legs, total: int) -> Matrix:
    """Place an operator on tensor positions `legs` of `total` legs.

    `legs` is one leg (j,) or two distinct legs (i, j), 1-based, and m is
    2^len(legs) square; its first factor acts on legs[0].  Entry (x, y) is m
    at the bits of x and y on `legs` when x and y agree on every other bit,
    and m's typed zero otherwise.
    """
    if not 1 <= len(legs) <= 2 or len(set(legs)) != len(legs) or not all(
        1 <= k <= total for k in legs
    ):
        raise ValueError(f"invalid legs {legs} for {total} tensor factors")
    width = 1 << len(legs)
    if m.rows != width or m.cols != width:
        raise ValueError(f"an operator on {len(legs)} legs must be {width}x{width}")
    shifts = [total - k for k in legs]  # leg k is bit total - k of an index
    spread = [0]  # index b of m -> its bits placed on `legs`, legs[0] highest
    for s in shifts:
        spread = [bits | bit << s for bits in spread for bit in (0, 1)]
    on_legs = sum(1 << s for s in shifts)
    zero = m[0, 0] * 0
    size = 1 << total
    rows = []
    for x in range(size):
        row = [zero] * size
        a = spread.index(x & on_legs)
        rest = x & ~on_legs
        for b, bits in enumerate(spread):
            row[rest | bits] = m[a, b]
        rows.append(row)
    return Matrix(rows)


def partial_trace(m: Matrix, leg: int) -> Matrix:
    """Trace out tensor leg `leg` (1-based) of a matrix on n legs."""
    size = m.rows
    if not size or size & (size - 1) or m.cols != size:
        raise ValueError("matrix size is not a power of 2")
    n = size.bit_length() - 1
    if not 1 <= leg <= n:
        raise ValueError(f"leg {leg} out of range for {n} tensor factors")
    s = n - leg  # the bit of `leg` in an index of m
    lifts = []  # index x of the result -> the indices of m with bit s at 0 and 1
    for x in range(size >> 1):
        x0 = (x >> s << (s + 1)) | (x & ((1 << s) - 1))
        lifts.append((x0, x0 | 1 << s))
    return Matrix([[m[x0, y0] + m[x1, y1] for y0, y1 in lifts] for x0, x1 in lifts])
