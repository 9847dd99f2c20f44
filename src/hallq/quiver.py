"""Quiver combinatorics: vertices, arrows, dimension vectors, and the bilinear
forms and twist exponents attached to them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Quiver:
    """Acyclic quiver with an ordered vertex set.

    `vertices` are names in input order (the order fixes all tables and
    labels); `arrows` are (source_index, target_index) pairs, parallel arrows
    allowed, loops and directed cycles rejected.
    """

    vertices: tuple[str, ...]
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate vertex names")
        for s, t in self.arrows:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"arrow ({s},{t}) out of range")
            if s == t:
                raise ValueError("loops are not allowed")
        if self._has_cycle():
            raise ValueError("quiver must be acyclic")

    def _has_cycle(self) -> bool:
        n = len(self.vertices)
        indeg = [0] * n
        for _, t in self.arrows:
            indeg[t] += 1
        stack = [v for v in range(n) if indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        stack.append(t)
        return seen != n

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_index(self, name: str) -> int:
        try:
            return self.vertices.index(name)
        except ValueError:
            raise KeyError(f"unknown vertex {name!r}") from None

    def unit(self, i: int) -> "DimVector":
        """Unit dimension vector at vertex index i; ValueError outside range(n)."""
        if not 0 <= i < self.n:
            raise ValueError(f"vertex index {i} out of range for {self.n} vertices")
        return DimVector(tuple(1 if k == i else 0 for k in range(self.n)))

    def zero_dim(self) -> "DimVector":
        return DimVector((0,) * self.n)

    # -- text format ---------------------------------------------------------

    def to_text(self) -> str:
        lines = ["vertices: " + " ".join(self.vertices)]
        for s, t in self.arrows:
            lines.append(f"arrow: {self.vertices[s]} -> {self.vertices[t]}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Quiver":
        vertices: tuple[str, ...] | None = None
        arrows: list[tuple[int, int]] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("vertices:"):
                if vertices is not None:
                    raise ValueError("multiple vertices lines")
                vertices = tuple(line[len("vertices:"):].split())
            elif line.startswith("arrow:"):
                if vertices is None:
                    raise ValueError("arrow line before vertices line")
                body = line[len("arrow:"):]
                parts = [p.strip() for p in body.split("->")]
                if len(parts) != 2:
                    raise ValueError(f"bad arrow line {raw!r}")
                idx = {name: k for k, name in enumerate(vertices)}
                try:
                    arrows.append((idx[parts[0]], idx[parts[1]]))
                except KeyError as e:
                    raise ValueError(f"unknown vertex in arrow line {raw!r}") from e
            else:
                raise ValueError(f"unrecognized line {raw!r}")
        if vertices is None:
            raise ValueError("missing vertices line")
        return Quiver(vertices, tuple(arrows))


@dataclass(frozen=True)
class DimVector:
    """Componentwise nonnegative integer vector indexed by quiver vertices.

    Entries are checked where a negative one can arise: construction, `from_csv`,
    `__sub__` and `scale` by a negative factor. Sums and nonnegative multiples
    of valid vectors are built unchecked."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.entries):
            raise ValueError(f"negative entry in dimension vector {self.entries}")

    @staticmethod
    def _unchecked(entries: tuple[int, ...]) -> "DimVector":
        d = object.__new__(DimVector)
        object.__setattr__(d, "entries", entries)
        return d

    def __add__(self, other: "DimVector") -> "DimVector":
        self._match(other)
        return DimVector._unchecked(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "DimVector") -> "DimVector":
        """Componentwise difference; only defined when it stays nonnegative."""
        self._match(other)
        return DimVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, m: int) -> "DimVector":
        entries = tuple(m * a for a in self.entries)
        return DimVector(entries) if m < 0 else DimVector._unchecked(entries)

    def __le__(self, other: "DimVector") -> bool:
        self._match(other)
        return all(a <= b for a, b in zip(self.entries, other.entries))

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def _match(self, other: "DimVector") -> None:
        if len(self.entries) != len(other.entries):
            raise ValueError("dimension vectors over different vertex sets")

    @property
    def total(self) -> int:
        return sum(self.entries)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def to_csv(self) -> str:
        return ",".join(str(e) for e in self.entries)

    @staticmethod
    def from_csv(text: str, n: int) -> "DimVector":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != n:
            raise ValueError(f"expected {n} comma-separated entries, got {len(parts)}")
        return DimVector(tuple(int(p) for p in parts))

    def __str__(self) -> str:
        return "(" + self.to_csv() + ")"


def _match_quiver(Q: Quiver, *dims: DimVector) -> None:
    for d in dims:
        if len(d) != Q.n:
            raise ValueError("dimension vector does not match quiver vertex set")


def euler_form(Q: Quiver, a: DimVector, b: DimVector) -> int:
    """Non-symmetric Euler pairing: sum_i a_i b_i - sum_{h} a_{s(h)} b_{t(h)}."""
    _match_quiver(Q, a, b)
    out = sum(x * y for x, y in zip(a.entries, b.entries))
    for s, t in Q.arrows:
        out -= a[s] * b[t]
    return out


def symmetric_form(Q: Quiver, a: DimVector, b: DimVector) -> int:
    """Symmetrized Euler form (a,b) = <a,b> + <b,a>."""
    return euler_form(Q, a, b) + euler_form(Q, b, a)


def induction_twist(Q: Quiver, a: DimVector, b: DimVector) -> int:
    """Shift exponent of the induction operator: sum_i a_i b_i + sum_h a_{s(h)} b_{t(h)}."""
    _match_quiver(Q, a, b)
    out = sum(x * y for x, y in zip(a.entries, b.entries))
    for s, t in Q.arrows:
        out += a[s] * b[t]
    return out


def stratum_data(
    Q: Quiver, a: DimVector, b: DimVector, i: int, m: int
) -> tuple[int, int, list[tuple[int, int, int]]]:
    """Stratum index range and twist exponents for the derivation of a product.

    Returns (lo, hi, strata) with lo = max(0, m - b_i), hi = min(m, a_i) and
    strata = [(t, P_t, P'_t)] for t in lo..hi, where P_t = (a - t*i, (m-t)*i)
    and P'_t = (t*i, b - (m-t)*i) in the symmetric form. An empty range gives
    an empty list. Since (i, i) = 2 (quivers have no loops), the twists are
    P_t = (m-t)((a, i) - 2t) and P'_t = t((i, b) - 2(m-t)), where (d, i) is
    2 d_i minus d at the far end of each arrow at i.
    """
    _match_quiver(Q, a, b)
    if not (0 <= i < Q.n):
        raise ValueError("vertex index out of range")
    if m < 0:
        raise ValueError("m must be nonnegative")
    lo = max(0, m - b[i])
    hi = min(m, a[i])
    ai, ib = (2 * d[i] - sum(d[t] if s == i else d[s] for s, t in Q.arrows if i in (s, t))
              for d in (a, b))
    return lo, hi, [(t, (m - t) * (ai - 2 * t), t * (ib - 2 * (m - t))) for t in range(lo, hi + 1)]


# the slot of a (quotient, sub) split that holds the rest of a derivation:
# derive_sub puts the quotient at m*e_i and keeps the sub, derive_quot the mirror
SPLIT_SLOT = {"quot": 0, "sub": 1}


def derivation_split(
    Q: Quiver, dim: DimVector, i: int, m: int, side: str
) -> tuple[DimVector, DimVector] | None:
    """The (quotient, sub) split at which a derivation of side "sub" or "quot"
    restricts: (m*e_i, dim - m*e_i) for "sub", (dim - m*e_i, m*e_i) for
    "quot", so the rest sits at `SPLIT_SLOT[side]`. The restriction twist
    -<quotient, sub> is the derivation twist. None when dim cannot drop by
    m*e_i."""
    if side not in SPLIT_SLOT:
        raise ValueError("side must be 'sub' or 'quot'")
    if m < 0:
        raise ValueError("m must be nonnegative")
    mi = Q.unit(i).scale(m)
    if not mi <= dim:
        return None
    split = [mi, mi]
    split[SPLIT_SLOT[side]] = dim - mi
    return split[0], split[1]


# -- built-in quivers used by the verification sweep --------------------------

_BUILTIN = {
    "single": ("vertices: 1\n"),
    "a2": ("vertices: 1 2\narrow: 1 -> 2\n"),
    "a3": ("vertices: 1 2 3\narrow: 1 -> 2\narrow: 2 -> 3\n"),
    "kronecker": ("vertices: 1 2\narrow: 1 -> 2\narrow: 1 -> 2\n"),
    "disconnected": ("vertices: 1 2\n"),
}


def builtin_quiver(name: str) -> Quiver:
    try:
        return Quiver.from_text(_BUILTIN[name])
    except KeyError:
        raise KeyError(f"no builtin quiver {name!r}; known: {sorted(_BUILTIN)}") from None


def builtin_names() -> Iterable[str]:
    return tuple(_BUILTIN)
