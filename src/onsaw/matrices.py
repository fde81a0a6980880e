"""Dense ring-generic matrices plus tensor-leg embedding and partial traces.

Entries may be rationals (int when integral, per the coefficient rule of
`scalars`), Laurent polynomials or algebra elements; anything supporting
+, -, * and truth testing works.  A matrix over rational functions is kept
as a pair (numerator matrix, common denominator).  All matrices
in this project are small (2x2 up to 16x16), so a dense tuple-of-tuples
representation is used and values are immutable after construction.
"""

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

    @classmethod
    def zeros(cls, r, c, zero=0):
        return cls([[zero] * c for _ in range(r)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other):
        self._conform(other)
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        self._conform(other)
        return Matrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
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

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        return Matrix([[c * a for a in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(
            a == b
            for r1, r2 in zip(self.entries, other.entries)
            for a, b in zip(r1, r2)
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return all(not a for row in self.entries for a in row)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = None
        for i in range(self.rows):
            a = self.entries[i][i]
            acc = a if acc is None else acc + a
        return acc

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

    def _conform(self, other):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix dimensions do not match")


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
    d = 2
    n = d * d
    rows = []
    for i in range(d):
        for j in range(d):
            row = [0] * n
            row[j * d + i] = 1
            rows.append(row)
    return Matrix(rows)


def _digits(x: int, n: int, d: int):
    out = [0] * n
    for k in range(n - 1, -1, -1):
        out[k] = x % d
        x //= d
    return out


def embed_leg(m: Matrix, legs, total: int) -> Matrix:
    """Place a two-leg operator on tensor positions legs=(i, j) of `total` legs.

    The first factor of m acts on leg i, the second on leg j (1-based, i != j);
    all other legs carry the identity.  Each leg has dimension d, where m is
    d^2 x d^2.
    """
    i, j = legs
    if i == j or not (1 <= i <= total) or not (1 <= j <= total):
        raise ValueError(f"invalid legs {legs} for {total} tensor factors")
    d = round(m.rows**0.5)
    if m.rows != d * d or m.cols != d * d:
        raise ValueError("operator must be d^2 x d^2")
    zero = m[0, 0] * 0
    size = d**total
    i -= 1
    j -= 1
    rows = []
    for x in range(size):
        xd = _digits(x, total, d)
        row = [zero] * size
        for y in range(size):
            yd = _digits(y, total, d)
            if any(
                xd[k] != yd[k] for k in range(total) if k != i and k != j
            ):
                continue
            row[y] = m[xd[i] * d + xd[j], yd[i] * d + yd[j]]
        rows.append(row)
    return Matrix(rows)


def partial_trace(m: Matrix, leg: int) -> Matrix:
    """Trace out tensor leg `leg` (1-based) of a matrix on n legs of dimension 2."""
    d = 2
    size = m.rows
    n = 0
    s = 1
    while s < size:
        s *= d
        n += 1
    if s != size or m.cols != size:
        raise ValueError("matrix size is not a power of the leg dimension")
    if not (1 <= leg <= n):
        raise ValueError(f"leg {leg} out of range for {n} tensor factors")
    leg -= 1
    out_size = size // d
    rows = []
    for x in range(out_size):
        xd = _digits(x, n - 1, d)
        row = []
        for y in range(out_size):
            yd = _digits(y, n - 1, d)
            acc = None
            for s_ in range(d):
                xfull = xd[:leg] + [s_] + xd[leg:]
                yfull = yd[:leg] + [s_] + yd[leg:]
                xi = 0
                yi = 0
                for a, b in zip(xfull, yfull):
                    xi = xi * d + a
                    yi = yi * d + b
                term = m[xi, yi]
                acc = term if acc is None else acc + term
            row.append(acc)
        rows.append(row)
    return Matrix(rows)
