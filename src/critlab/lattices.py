"""Integer lattices kept as row-echelon (Hermite-style) bases.

A ``Lattice`` holds a basis of a sublattice of Z^n with one pivot column per
row, positive pivots, and entries in each pivot column reduced modulo the
pivot in every other row.  That form makes membership an exact
back-substitution and keeps entries from blowing up while vectors are added.

No CLI command uses this module.  It backs ``filtration_M`` / ``filtration_N``,
the membership API and the reference route that the tests hold
``verify_filtration_dims`` against.  That route shares the elimination kernel
``exact._eliminate_mod`` and the image check ``filtration._checked_images``
with the function it checks, so it is not an independent oracle; the integer
Smith form (``integer_snf`` in ``tests/oracles.py``) is.
"""

from __future__ import annotations

from bisect import bisect_left

from .arith import is_prime, xgcd
from .exact import _rank_rows_mod_p
from .intmatrix import IntMatrix


class Lattice:
    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, vectors=()):
        self.ambient = ambient
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []  # pivot column of each row, strictly increasing
        for v in vectors:
            self.add_vector(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_vector(self, vec) -> None:
        """Add a generator, restoring echelon form."""
        v = [int(x) for x in vec]
        if len(v) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        while True:
            j = next((idx for idx, x in enumerate(v) if x), -1)
            if j < 0:
                return
            pos = bisect_left(self.pivots, j)
            if pos < len(self.pivots) and self.pivots[pos] == j:
                row = self.rows[pos]
                a, b = row[j], v[j]
                if b % a == 0:
                    q = b // a
                    v = [x - q * y for x, y in zip(v, row)]
                else:
                    g, x, y = xgcd(a, b)
                    ag, bg = a // g, b // g
                    combined = [x * ra + y * rb for ra, rb in zip(row, v)]
                    v = [ag * rb - bg * ra for ra, rb in zip(row, v)]
                    self.rows[pos] = combined
                    self._reduce_column(pos)
            else:
                if v[j] < 0:
                    v = [-x for x in v]
                self.rows.insert(pos, v)
                self.pivots.insert(pos, j)
                self._reduce_column(pos)
                return

    def _reduce_column(self, pos: int) -> None:
        # entry-size control: reduce the new pivot's column in the other rows
        j = self.pivots[pos]
        row = self.rows[pos]
        a = row[j]
        for k, other in enumerate(self.rows):
            if k != pos and other[j]:
                q = other[j] // a
                if q:
                    self.rows[k] = [x - q * y for x, y in zip(other, row)]

    def __contains__(self, vec) -> bool:
        v = [int(x) for x in vec]
        if len(v) != self.ambient:
            return False
        for pos, j in enumerate(self.pivots):
            lead = next((idx for idx, x in enumerate(v) if x), -1)
            if lead < 0:
                return True
            if lead < j:
                return False
            if lead > j:
                continue
            row = self.rows[pos]
            if v[j] % row[j]:
                return False
            q = v[j] // row[j]
            v = [x - q * y for x, y in zip(v, row)]
        return all(x == 0 for x in v)

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(row in self for row in other.rows)

    def dim_mod(self, p: int) -> int:
        """Dimension over F_p of (lattice + p*Z^n) / p*Z^n."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return _rank_rows_mod_p(self.rows, p)

    def __repr__(self) -> str:
        return f"Lattice(ambient={self.ambient}, rank={self.rank})"


def kernel_basis(m: IntMatrix) -> list[list[int]]:
    """Echelon basis (as rows) of the integer kernel {x : m @ x = 0}.

    Works on the columns of m augmented with an identity block: rows of the
    combined lattice whose pivot falls in the identity block carry exactly
    the integer relations among the columns.  The kernel of a map into a
    free module is saturated, so this basis is a genuine lattice basis.
    """
    R, C = m.rows, m.cols
    lat = Lattice(R + C)
    for j in range(C):
        vec = [m[i, j] for i in range(R)]
        vec.extend(int(k == j) for k in range(C))
        lat.add_vector(vec)
    return [row[R:] for row, piv in zip(lat.rows, lat.pivots) if piv >= R]
