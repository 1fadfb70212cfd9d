"""Finite groups as validated Cayley tables.

Element 0 is always the identity, and the element enumeration of every
catalog group is frozen: downstream matrix layouts (and therefore every
document this package emits) depend on it.

    cyclic(n)   e, g, g^2, ..., g^(n-1)
    klein4      e, (12)(34), (13)(24), (14)(23)
    s3          e, (12), (13), (23), (123), (132)
    q8          1, -1, i, -i, j, -j, k, -k
    a4          e, the three double transpositions, then 3-cycles in
                lexicographic cycle order: (123),(132),(124),(142),
                (134),(143),(234),(243)
    product     row-major: the first factor varies slowest

Permutations compose right-to-left: (a.b)(x) = a(b(x)).

q8 and a4 are each defined once, by a model that the representation
module reads too: q8 by its elements as 2x2 complex quaternion matrices
(``Q8_MATRICES``, also its degree-2 irrep), a4 by its permutations of
the tetrahedron's vertices (``A4_PERMUTATIONS``, from which its
rotation irrep follows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DocumentError, GroupConstructionError, UnsupportedGroupError, WhsymmError

SIZE_CAP = 256

#: q8 in element order 1, -1, i, -i, j, -j, k, -k: signed copies of the
#: units 1, i, j and k = ij, whose entries 0, +-1 and +-i multiply exactly
_Q8_UNITS = ([[1, 0], [0, 1]], [[1j, 0], [0, -1j]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]])
Q8_MATRICES = np.array([s * np.array(u) for u in _Q8_UNITS for s in (1, -1)], dtype=complex)
Q8_MATRICES.flags.writeable = False

#: a4 in element order, as images of the vertices 0..3
A4_PERMUTATIONS = [
    (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0),  # e, (12)(34), (13)(24), (14)(23)
    (1, 2, 0, 3), (2, 0, 1, 3), (1, 3, 2, 0), (3, 0, 2, 1),  # (123), (132), (124), (142)
    (2, 1, 3, 0), (3, 1, 0, 2), (0, 2, 3, 1), (0, 3, 1, 2),  # (134), (143), (234), (243)
]


def _check_order(n: int) -> None:
    if n > SIZE_CAP:
        raise UnsupportedGroupError(f"group order {n} exceeds the cap of {SIZE_CAP}")


class FiniteGroup:
    """A finite group given by its Cayley table.

    ``cayley[i, j]`` is the index of g_i * g_j.  The table is fully
    validated on construction: two-sided identity at index 0, Latin
    square rows and columns, associativity on every triple, and
    two-sided inverses.  Orders above 256 are rejected.
    """

    __slots__ = ("cayley", "labels", "name", "spec", "order", "inverse", "label_index")

    def __init__(self, cayley, labels, name: str, spec: dict) -> None:
        table = np.asarray(cayley, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupConstructionError(f"Cayley table must be square, got shape {table.shape}")
        n = table.shape[0]
        if n == 0:
            raise GroupConstructionError("empty Cayley table")
        _check_order(n)
        if table.min() < 0 or table.max() >= n:
            raise GroupConstructionError("Cayley entries must be element indices 0..n-1")

        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise GroupConstructionError(f"need {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise GroupConstructionError("labels must be distinct")

        idx = np.arange(n)
        if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
            raise GroupConstructionError("element 0 is not a two-sided identity")
        if not np.all(np.sort(table, axis=1) == idx):
            raise GroupConstructionError("some row is not a permutation (left translation fails)")
        if not np.all(np.sort(table, axis=0) == idx[:, None]):
            raise GroupConstructionError("some column is not a permutation (right translation fails)")

        # every triple, one byte each, in steps of at most 2^18 triples
        # (one step up to order 64): (g_i g_j) g_k against g_i (g_j g_k)
        # for the rows i of a step
        t = table.astype(np.min_scalar_type(n - 1))
        step = max(1, 2**18 // (n * n))
        for lo in range(0, n, step):
            left = np.take(t, table[lo : lo + step], axis=0)
            right = np.take(t[lo : lo + step], table, axis=1)
            if not np.array_equal(left, right):
                i, j, k = map(int, np.argwhere(left != right)[0])
                i += lo
                raise GroupConstructionError(
                    f"associativity fails at ({i},{j},{k}): "
                    f"(g{i} g{j}) g{k} != g{i} (g{j} g{k})"
                )

        inverse = np.empty(n, dtype=np.int64)
        for i in range(n):
            j = int(np.flatnonzero(table[i] == 0)[0])
            if table[j, i] != 0:
                raise GroupConstructionError(f"element {i} has no two-sided inverse")
            inverse[i] = j

        self.cayley = table
        self.labels = labels
        self.name = name
        self.spec = spec
        self.order = n
        self.inverse = inverse
        self.label_index = {lab: i for i, lab in enumerate(labels)}

    def mul(self, i: int, j: int) -> int:
        return int(self.cayley[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class ConjugacyPartition:
    """Conjugacy classes ordered by smallest member; the identity class
    comes first.  ``representatives[j]`` is that smallest member."""

    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    sizes: tuple[int, ...]
    representatives: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class CommutatorSubgroup:
    elements: tuple[int, ...]
    index: int


@dataclass(frozen=True)
class CenterStructure:
    """Structure constants of the class-sum basis: C_i C_j = sum_m
    constants[i, j, m] C_m."""

    constants: np.ndarray
    partition: ConjugacyPartition


def conjugacy_classes(group: FiniteGroup) -> ConjugacyPartition:
    n = group.order
    table, inv = group.cayley, group.inverse
    class_of = np.full(n, -1, dtype=np.int64)
    classes = []
    for i in range(n):
        if class_of[i] >= 0:
            continue
        orbit = sorted({int(table[table[x, i], inv[x]]) for x in range(n)})
        for e in orbit:
            class_of[e] = len(classes)
        classes.append(tuple(orbit))
    return ConjugacyPartition(
        classes=tuple(classes),
        class_of=class_of,
        sizes=tuple(len(c) for c in classes),
        representatives=tuple(c[0] for c in classes),
    )


def commutator_subgroup(group: FiniteGroup) -> CommutatorSubgroup:
    """Subgroup generated by all commutators x y x^-1 y^-1, by closure."""
    table, inv = group.cayley, group.inverse
    n = group.order
    gens = {
        int(table[table[x, y], table[inv[x], inv[y]]])
        for x in range(n)
        for y in range(n)
    }
    members = set(gens) | {0}
    while True:
        new = {int(table[a, b]) for a in members for b in members} - members
        if not new:
            break
        members |= new
    if n % len(members) != 0:
        raise WhsymmError("commutator closure size does not divide the group order")
    return CommutatorSubgroup(tuple(sorted(members)), n // len(members))


def center_structure(group: FiniteGroup, partition: ConjugacyPartition | None = None) -> CenterStructure:
    """Integer structure constants of the center algebra.

    constants[i, j, m] counts pairs (x, y) in K_i x K_j with x y equal
    to a fixed element of K_m; the count is checked to be the same for
    every choice of that element before it is accepted.
    """
    p = partition if partition is not None else conjugacy_classes(group)
    s = p.count
    table = group.cayley
    out = np.zeros((s, s, s), dtype=np.int64)
    for i in range(s):
        for j in range(s):
            tally = np.zeros(group.order, dtype=np.int64)
            for x in p.classes[i]:
                row = table[x]
                for y in p.classes[j]:
                    tally[row[y]] += 1
            for m in range(s):
                vals = tally[list(p.classes[m])]
                if not np.all(vals == vals[0]):
                    raise WhsymmError(
                        f"structure constant c[{i},{j},{m}] is not "
                        f"representative-independent: counts {sorted(set(vals))}"
                    )
                out[i, j, m] = vals[0]
    return CenterStructure(out, p)


# ----------------------------------------------------------------------
# catalog constructions
# ----------------------------------------------------------------------


def _perm_group(perms: list[tuple[int, ...]], labels: list[str], name: str, spec: dict) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(perms):
        for j, b in enumerate(perms):
            table[i, j] = index[tuple(a[b[x]] for x in range(len(a)))]
    return FiniteGroup(table, labels, name, spec)


def _cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise DocumentError(f"cyclic group order must be >= 1, got {n}")
    _check_order(n)
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    labels = ["e"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return FiniteGroup(table, labels, f"cyclic({n})", {"kind": "cyclic", "n": n})


def _klein4() -> FiniteGroup:
    idx = np.arange(4)
    table = idx[:, None] ^ idx[None, :]
    labels = ["e", "(12)(34)", "(13)(24)", "(14)(23)"]
    return FiniteGroup(table, labels, "klein4", {"kind": "klein4"})


def _s3() -> FiniteGroup:
    perms = [
        (0, 1, 2),  # e
        (1, 0, 2),  # (12)
        (2, 1, 0),  # (13)
        (0, 2, 1),  # (23)
        (1, 2, 0),  # (123)
        (2, 0, 1),  # (132)
    ]
    labels = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]
    return _perm_group(perms, labels, "s3", {"kind": "s3"})


def _a4() -> FiniteGroup:
    labels = [
        "e", "(12)(34)", "(13)(24)", "(14)(23)",
        "(123)", "(132)", "(124)", "(142)",
        "(134)", "(143)", "(234)", "(243)",
    ]
    return _perm_group(A4_PERMUTATIONS, labels, "a4", {"kind": "a4"})


def _q8() -> FiniteGroup:
    """The Cayley table of ``Q8_MATRICES``: g_i g_j is the element whose
    matrix equals the (exact) product of theirs."""
    m = Q8_MATRICES
    products = m[:, None] @ m[None, :]
    table = np.argmax((products[:, :, None] == m).all(axis=(3, 4)), axis=2)
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup(table, labels, "q8", {"kind": "q8"})


def _product(factors: list[FiniteGroup]) -> FiniteGroup:
    g = factors[0]
    for h in factors[1:]:
        n1, n2 = g.order, h.order
        _check_order(n1 * n2)
        table = (
            g.cayley[:, None, :, None] * n2 + h.cayley[None, :, None, :]
        ).reshape(n1 * n2, n1 * n2)
        labels = [f"({a},{b})" for a in g.labels for b in h.labels]
        name = f"product({g.name},{h.name})"
        spec = {"kind": "product", "factors": [g.spec, h.spec]}
        g = FiniteGroup(table, labels, name, spec)
    return g


def build_group(spec: dict) -> FiniteGroup:
    """Construct a group from a specification document."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DocumentError("group spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "cyclic":
        if "n" not in spec or not isinstance(spec["n"], int):
            raise DocumentError("cyclic group spec needs an integer field 'n'")
        return _cyclic(spec["n"])
    if kind == "product":
        factors = spec.get("factors")
        if not isinstance(factors, list) or not factors:
            raise DocumentError("product group spec needs a nonempty 'factors' list")
        return _product([build_group(f) for f in factors])
    if kind == "klein4":
        return _klein4()
    if kind == "s3":
        return _s3()
    if kind == "q8":
        return _q8()
    if kind == "a4":
        return _a4()
    if kind == "custom":
        if "cayley" not in spec:
            raise DocumentError("custom group spec needs a 'cayley' table")
        cayley = spec["cayley"]
        n = len(cayley)
        labels = spec.get("labels", [f"g{i}" for i in range(n)])
        return FiniteGroup(cayley, labels, "custom", {"kind": "custom", "cayley": [list(map(int, r)) for r in cayley], "labels": list(labels)})
    raise UnsupportedGroupError(f"unknown group kind {kind!r}")


#: specs of the built-in groups, in the order the CLI lists them
CATALOG = [
    {"kind": "cyclic", "n": 2},
    {"kind": "cyclic", "n": 3},
    {"kind": "cyclic", "n": 4},
    {"kind": "klein4"},
    {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}]},
    {"kind": "s3"},
    {"kind": "q8"},
    {"kind": "a4"},
]
