"""Dense matrices of arbitrary-precision integers.

The whole package computes over exact Python ints, so the matrix type is a
thin immutable wrapper around a flat tuple in row-major order.  Algorithms
that need to mutate entries work on ``to_rows()`` copies.

Text format (used by the CLI): first line ``rows cols``, then the entries
row by row, whitespace separated, as decimal integers.
"""

from __future__ import annotations

import operator


class IntMatrix:
    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data):
        rows, cols = operator.index(rows), operator.index(cols)
        data = tuple(map(operator.index, data))
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self._data = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [x for r in rows for x in r])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "IntMatrix":
        entries = list(entries)
        n = len(entries)
        data = [0] * (n * n)
        for i, x in enumerate(entries):
            data[i * n + i] = x
        return cls(n, n, data)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self._data[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        """Mutable copy as a list of row lists."""
        c = self.cols
        return [list(self._data[i * c : (i + 1) * c]) for i in range(self.rows)]

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        if self.rows * self.cols <= 36:
            body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
            return f"IntMatrix({self.rows}x{self.cols}: {body})"
        return f"IntMatrix({self.rows}x{self.cols})"


def parse_matrix(text: str) -> IntMatrix:
    """Parse the plain-text matrix format ("rows cols" header, then entries)."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text must start with 'rows cols'")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ValueError(f"bad matrix header {tokens[:2]!r}") from exc
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ValueError(
            f"matrix body has {len(body)} entries, expected {rows * cols}"
        )
    try:
        data = [int(t) for t in body]
    except ValueError as exc:
        raise ValueError("matrix entries must be integers") from exc
    return IntMatrix(rows, cols, data)
