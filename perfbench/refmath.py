"""Reference mathematics for the benchmark, written with numpy only.

Nothing here imports whsymm.  The input generator uses it to plant
symbols whose factors and indices are known in closed form, and the
output checker uses it to rebuild every target matrix from the group's
documented element enumeration, so a check never relies on the code it
checks.

A symbol is a ``Sym``: t**shift * num(t) / den(t) with ascending
coefficient arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P


class Sym:
    """t**shift * num(t) / den(t); ``num`` and ``den`` hold ascending
    coefficients and ``den`` has no factor t."""

    __slots__ = ("shift", "num", "den")

    def __init__(self, shift, num, den=(1.0,)) -> None:
        self.shift = int(shift)
        self.num = np.atleast_1d(np.asarray(num, dtype=complex))
        self.den = np.atleast_1d(np.asarray(den, dtype=complex))

    @property
    def is_zero(self) -> bool:
        return not np.any(self.num)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=complex)
        if self.is_zero:
            return np.zeros(t.shape, dtype=complex)
        return t**self.shift * P.polyval(t, self.num) / P.polyval(t, self.den)

    def scale(self, c: complex) -> "Sym":
        return Sym(self.shift, self.num * c, self.den)


ZERO = Sym(0, [0.0])


def poly_from_roots(roots, lead: complex = 1.0) -> np.ndarray:
    """Ascending coefficients of lead * prod (t - r)."""
    c = np.array([complex(lead)])
    for r in roots:
        c = np.convolve(c, [-complex(r), 1.0])
    return c


def lincomb(weights, syms) -> Sym:
    """sum_k weights[k] * syms[k] for symbols that share one denominator."""
    live = [(w, s) for w, s in zip(weights, syms) if w != 0 and not s.is_zero]
    if not live:
        return ZERO
    den = live[0][1].den
    lo = min(s.shift for _, s in live)
    width = max(s.shift - lo + s.num.size for _, s in live)
    acc = np.zeros(width, dtype=complex)
    for w, s in live:
        if s.den.shape != den.shape or not np.array_equal(s.den, den):
            raise ValueError("lincomb needs one shared denominator")
        off = s.shift - lo
        acc[off : off + s.num.size] += w * s.num
    return Sym(lo, acc, den)


# ---------------------------------------------------------------------
# planted scalar symbols
# ---------------------------------------------------------------------


@dataclass
class Planted:
    """lead * t**shift * prod(t - z) / prod(t - p), with every zero and
    pole placed off the circle, so the Wiener-Hopf factors and the index
    are known before any program runs."""

    lead: complex
    shift: int
    zeros_in: list = field(default_factory=list)
    zeros_out: list = field(default_factory=list)
    poles_in: list = field(default_factory=list)
    poles_out: list = field(default_factory=list)

    @property
    def index(self) -> int:
        return self.shift + len(self.zeros_in) - len(self.poles_in)

    def sym(self) -> Sym:
        return Sym(
            self.shift,
            poly_from_roots(self.zeros_in + self.zeros_out, self.lead),
            poly_from_roots(self.poles_in + self.poles_out),
        )

    def minus(self) -> Sym:
        """prod(1 - z/t) / prod(1 - p/t) over the roots inside; 1 at infinity."""
        return Sym(
            len(self.poles_in) - len(self.zeros_in),
            poly_from_roots(self.zeros_in),
            poly_from_roots(self.poles_in),
        )

    def plus(self) -> Sym:
        return Sym(0, poly_from_roots(self.zeros_out, self.lead), poly_from_roots(self.poles_out))


def root_in(rng, lo: float = 0.15, hi: float = 0.6) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.random()))


def root_out(rng, lo: float = 1.6, hi: float = 3.5) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.random()))


def lead(rng) -> complex:
    """A leading coefficient of modulus between 0.5 and 2."""
    return complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random()))


# ---------------------------------------------------------------------
# groups from their documented element enumeration
# ---------------------------------------------------------------------

_PERM_LABELS = {
    "klein4": ["e", "(12)(34)", "(13)(24)", "(14)(23)"],
    "s3": ["e", "(12)", "(13)", "(23)", "(123)", "(132)"],
    "a4": [
        "e", "(12)(34)", "(13)(24)", "(14)(23)",
        "(123)", "(132)", "(124)", "(142)",
        "(134)", "(143)", "(234)", "(243)",
    ],
}
_PERM_POINTS = {"klein4": 4, "s3": 3, "a4": 4}
_Q8_LABELS = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def _perm_from_cycles(label: str, points: int) -> tuple[int, ...]:
    image = list(range(points))
    for cycle in label.replace(")", " ").replace("(", " ").split():
        if cycle == "e":
            continue
        pts = [int(c) - 1 for c in cycle]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            image[a] = b
    return tuple(image)


def _quat(label: str) -> np.ndarray:
    sign = -1.0 if label.startswith("-") else 1.0
    axis = "1ijk".index(label.lstrip("-"))
    q = np.zeros(4)
    q[axis] = sign
    return q


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def _table_from(elements, mul) -> np.ndarray:
    n = len(elements)
    key = {tuple(np.round(np.asarray(e, dtype=float), 9)): i for i, e in enumerate(elements)}
    table = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = key[tuple(np.round(np.asarray(mul(a, b), dtype=float), 9))]
    return table


def ref_group(spec: dict) -> tuple[list[str], np.ndarray]:
    """(labels, Cayley table) of a catalog group, rebuilt from the
    documented enumeration; permutations compose right to left."""
    kind = spec["kind"]
    if kind == "cyclic":
        n = spec["n"]
        labels = ["e"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
        idx = np.arange(n)
        return labels, (idx[:, None] + idx[None, :]) % n
    if kind in _PERM_LABELS:
        labels = _PERM_LABELS[kind]
        perms = [_perm_from_cycles(lab, _PERM_POINTS[kind]) for lab in labels]
        table = _table_from(perms, lambda a, b: tuple(a[b[x]] for x in range(len(a))))
        return labels, table
    if kind == "q8":
        return _Q8_LABELS, _table_from([_quat(lab) for lab in _Q8_LABELS], _quat_mul)
    if kind == "product":
        labels, table = ref_group(spec["factors"][0])
        for sub in spec["factors"][1:]:
            labels2, table2 = ref_group(sub)
            n2 = len(labels2)
            table = (table[:, None, :, None] * n2 + table2[None, :, None, :]).reshape(
                len(labels) * n2, len(labels) * n2
            )
            labels = [f"({a},{b})" for a in labels for b in labels2]
        return labels, table
    raise ValueError(f"no reference for group kind {kind!r}")


def inverse(table: np.ndarray) -> np.ndarray:
    return np.argmax(table == 0, axis=1)


@dataclass(frozen=True)
class Classes:
    members: tuple[tuple[int, ...], ...]  # ordered by smallest member
    constants: np.ndarray  # c[i, j, m]: K_i K_j = sum_m c[i, j, m] K_m

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.members)


def ref_classes(table: np.ndarray) -> Classes:
    n = table.shape[0]
    inv = inverse(table)
    seen: dict[int, int] = {}
    members = []
    for x in range(n):
        if x in seen:
            continue
        cls = sorted({int(table[table[g, x], inv[g]]) for g in range(n)})
        for y in cls:
            seen[y] = len(members)
        members.append(tuple(cls))
    s = len(members)
    c = np.zeros((s, s, s))
    for m, cls_m in enumerate(members):
        z = cls_m[0]
        for i, cls_i in enumerate(members):
            for j, cls_j in enumerate(members):
                c[i, j, m] = sum(1 for x in cls_i for y in cls_j if table[x, y] == z)
    return Classes(tuple(members), c)


def abelian_characters(spec: dict, table: np.ndarray) -> np.ndarray:
    """Character table (rows = characters) of a cyclic group or klein4,
    checked against the multiplication table."""
    kind = spec["kind"]
    n = table.shape[0]
    if kind == "cyclic":
        k = np.arange(n)
        chars = np.exp(2j * np.pi * np.outer(k, k) / n)
    elif kind == "klein4":
        chars = np.array(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=complex
        )
    else:
        raise ValueError(f"no abelian character table for {kind!r}")
    for x, y in itertools.product(range(n), repeat=2):
        if not np.allclose(chars[:, table[x, y]], chars[:, x] * chars[:, y]):
            raise ValueError(f"character table of {kind} is not multiplicative")
    return chars


def group_matrix(table: np.ndarray, coeffs, t: np.ndarray) -> np.ndarray:
    """Samples of A(t)[i, j] = a(g_i g_j^-1), shape (len(t), n, n)."""
    vals = np.stack([s(t) for s in coeffs])  # (n, N)
    idx = table[:, inverse(table)]
    return np.moveaxis(vals[idx], -1, 0)


def center_matrix(classes: Classes, coeffs, t: np.ndarray) -> np.ndarray:
    """Samples of the class-basis matrix, entry (m, j) = sum_i a_i c[i, j, m]."""
    vals = np.stack([s(t) for s in coeffs])  # (s, N)
    return np.einsum("ijm,iN->Nmj", classes.constants, vals)
