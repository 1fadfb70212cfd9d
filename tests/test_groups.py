"""Finite groups, their validation, and derived structure.

Every derived quantity is checked against a brute-force oracle written
here from scratch, working only off the raw Cayley table: conjugacy by
orbiting each element under all inner automorphisms, the commutator
subgroup by explicit generator closure, and the center structure
constants by counting pairs against every representative.  Textbook
facts about the catalog groups (orders, class counts, commutator
indices, quaternion relations) are asserted directly.
"""

import re
import tracemalloc

import numpy as np
import pytest

from whsymm import (
    CATALOG,
    DocumentError,
    FiniteGroup,
    GroupConstructionError,
    UnsupportedGroupError,
    build_group,
    center_structure,
    commutator_subgroup,
    conjugacy_classes,
)
from whsymm.errors import WhsymmError


def catalog_groups():
    return [build_group(spec) for spec in CATALOG]


# -- brute-force oracles ------------------------------------------------


def brute_inverse(table):
    n = len(table)
    inv = [-1] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0 and table[j][i] == 0:
                inv[i] = j
    return inv


def brute_classes(table):
    """Conjugacy classes as frozensets, via x g x^-1 over all x."""
    n = len(table)
    inv = brute_inverse(table)
    out = set()
    for g in range(n):
        out.add(frozenset(table[table[x][g]][inv[x]] for x in range(n)))
    return out


def brute_commutator(table):
    """Closure of {x y x^-1 y^-1} under the group operation."""
    n = len(table)
    inv = brute_inverse(table)
    members = {0}
    for x in range(n):
        for y in range(n):
            members.add(table[table[x][y]][table[inv[x]][inv[y]]])
    while True:
        grown = {table[a][b] for a in members for b in members}
        if grown <= members:
            return frozenset(members)
        members |= grown


def brute_structure_constant(table, classes, i, j, m):
    """Count pairs (x, y) in K_i x K_j with x y = z, for every z in K_m;
    all counts must agree."""
    counts = set()
    for z in classes[m]:
        counts.add(sum(1 for x in classes[i] for y in classes[j] if table[x][y] == z))
    assert len(counts) == 1, f"constant depends on the representative: {counts}"
    return counts.pop()


def element_order(table, g):
    k, acc = 1, g
    while acc != 0:
        acc = table[acc][g]
        k += 1
    return k


# -- derived structure vs oracles ----------------------------------------


class TestDerivedStructure:
    def test_conjugacy_matches_brute_force(self):
        for g in catalog_groups():
            table = g.cayley.tolist()
            part = conjugacy_classes(g)
            assert {frozenset(c) for c in part.classes} == brute_classes(table)
            # bookkeeping is self-consistent
            assert part.classes[0] == (0,)
            assert part.sizes == tuple(len(c) for c in part.classes)
            assert part.representatives == tuple(min(c) for c in part.classes)
            for j, cls in enumerate(part.classes):
                assert all(part.class_of[e] == j for e in cls)
            assert sum(part.sizes) == g.order

    def test_commutator_matches_brute_force(self):
        for g in catalog_groups():
            table = g.cayley.tolist()
            got = commutator_subgroup(g)
            want = brute_commutator(table)
            assert set(got.elements) == want
            assert got.index == g.order // len(want)

    def test_structure_constants_match_brute_force(self):
        for g in catalog_groups():
            table = g.cayley.tolist()
            cs = center_structure(g)
            classes = cs.partition.classes
            k = cs.partition.count
            for i in range(k):
                for j in range(k):
                    for m in range(k):
                        assert cs.constants[i, j, m] == brute_structure_constant(
                            table, classes, i, j, m
                        )

    def test_structure_constants_row_sums(self):
        # sum_m c_ijm |K_m| = |K_i| |K_j|: every product pair lands somewhere
        for g in catalog_groups():
            cs = center_structure(g)
            sizes = np.array(cs.partition.sizes)
            k = cs.partition.count
            for i in range(k):
                for j in range(k):
                    assert int(cs.constants[i, j] @ sizes) == sizes[i] * sizes[j]


# -- catalog facts --------------------------------------------------------


class TestCatalog:
    def test_orders_and_names(self):
        got = [(g.name, g.order) for g in catalog_groups()]
        assert got == [
            ("cyclic(2)", 2),
            ("cyclic(3)", 3),
            ("cyclic(4)", 4),
            ("klein4", 4),
            ("product(cyclic(2),cyclic(3))", 6),
            ("s3", 6),
            ("q8", 8),
            ("a4", 12),
        ]

    def test_class_counts(self):
        groups = {g.name: g for g in catalog_groups()}
        counts = {name: conjugacy_classes(g).count for name, g in groups.items()}
        assert counts["s3"] == 3
        assert counts["q8"] == 5
        assert counts["a4"] == 4
        # abelian groups: every class is a singleton
        for name in ("cyclic(2)", "cyclic(3)", "cyclic(4)", "klein4",
                     "product(cyclic(2),cyclic(3))"):
            assert counts[name] == groups[name].order

    def test_commutator_indices(self):
        idx = {g.name: commutator_subgroup(g).index for g in catalog_groups()}
        assert idx["s3"] == 2  # derived subgroup A3
        assert idx["q8"] == 4  # derived subgroup {1, -1}
        assert idx["a4"] == 3  # derived subgroup V4
        for name in ("cyclic(2)", "cyclic(3)", "cyclic(4)", "klein4",
                     "product(cyclic(2),cyclic(3))"):
            g = next(h for h in catalog_groups() if h.name == name)
            assert idx[name] == g.order  # abelian: trivial derived subgroup

    def test_identity_is_element_zero(self):
        for g in catalog_groups():
            assert all(g.mul(0, i) == i == g.mul(i, 0) for i in range(g.order))

    def test_quaternion_relations(self):
        q8 = build_group({"kind": "q8"})
        e = {lab: i for i, lab in enumerate(q8.labels)}
        assert q8.mul(e["i"], e["i"]) == e["-1"]
        assert q8.mul(e["j"], e["j"]) == e["-1"]
        assert q8.mul(e["k"], e["k"]) == e["-1"]
        assert q8.mul(e["i"], e["j"]) == e["k"]
        assert q8.mul(e["j"], e["i"]) == e["-k"]
        assert q8.mul(e["j"], e["k"]) == e["i"]
        assert q8.mul(e["k"], e["j"]) == e["-i"]
        assert q8.mul(e["-1"], e["-1"]) == e["1"]

    def test_s3_composes_right_to_left(self):
        s3 = build_group({"kind": "s3"})
        e = {lab: i for i, lab in enumerate(s3.labels)}
        # (12) after (13): x -> (13)x -> (12)(13)x sends 1->3, 3->2, 2->1
        assert s3.mul(e["(12)"], e["(13)"]) == e["(132)"]
        assert s3.mul(e["(13)"], e["(12)"]) == e["(123)"]

    def test_klein4_all_involutions(self):
        k4 = build_group({"kind": "klein4"})
        assert all(k4.mul(i, i) == 0 for i in range(4))

    def test_product_is_row_major(self):
        g = build_group(
            {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}]}
        )
        assert g.order == 6
        assert g.labels[0] == "(e,e)"
        assert g.labels[1] == "(e,g)"
        assert g.labels[3] == "(g,e)"
        # (a1,b1)(a2,b2) = (a1 a2, b1 b2) under index = 3*a + b
        c2 = build_group({"kind": "cyclic", "n": 2})
        c3 = build_group({"kind": "cyclic", "n": 3})
        for a1 in range(2):
            for b1 in range(3):
                for a2 in range(2):
                    for b2 in range(3):
                        lhs = g.mul(3 * a1 + b1, 3 * a2 + b2)
                        assert lhs == 3 * c2.mul(a1, a2) + c3.mul(b1, b2)

    def test_c2xc3_element_orders_match_c6(self):
        g = build_group(
            {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}]}
        )
        table = g.cayley.tolist()
        orders = sorted(element_order(table, i) for i in range(6))
        assert orders == [1, 2, 3, 3, 6, 6]

    def test_inverse_table(self):
        for g in catalog_groups():
            assert list(g.inverse) == brute_inverse(g.cayley.tolist())
            assert all(g.inv(i) == int(g.inverse[i]) for i in range(g.order))


# -- construction validation ----------------------------------------------


# a Latin square with two-sided identity and inverses that is NOT
# associative: (1*1)*2 = 2 but 1*(1*2) = 4
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(GroupConstructionError):
            FiniteGroup([[0, 1]], ["e", "g"], "bad", {})

    def test_rejects_empty(self):
        with pytest.raises(GroupConstructionError):
            FiniteGroup(np.zeros((0, 0), dtype=int), [], "bad", {})

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(GroupConstructionError):
            FiniteGroup([[0, 1], [1, 2]], ["e", "g"], "bad", {})

    def test_rejects_missing_identity(self):
        with pytest.raises(GroupConstructionError, match="identity"):
            FiniteGroup([[1, 0], [0, 1]], ["e", "g"], "bad", {})

    def test_rejects_non_latin_row(self):
        table = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]
        with pytest.raises(GroupConstructionError):
            FiniteGroup(table, ["e", "a", "b"], "bad", {})

    def test_rejects_non_associative_loop(self):
        with pytest.raises(GroupConstructionError, match="associativity"):
            FiniteGroup(NONASSOC_LOOP, list("eabcd"), "loop", {})

    def test_rejects_bad_labels(self):
        with pytest.raises(GroupConstructionError):
            FiniteGroup([[0, 1], [1, 0]], ["e"], "bad", {})
        with pytest.raises(GroupConstructionError):
            FiniteGroup([[0, 1], [1, 0]], ["e", "e"], "bad", {})

    def test_rejects_oversized_group(self):
        with pytest.raises(UnsupportedGroupError):
            build_group({"kind": "cyclic", "n": 257})

    def test_oversized_builders_decline_before_building_a_table(self):
        # the order alone declines: no n x n table of 4096 is allocated
        specs = [
            {"kind": "cyclic", "n": 4096},
            {"kind": "product", "factors": [{"kind": "cyclic", "n": 64}] * 2},
        ]
        for spec in specs:
            tracemalloc.start()
            try:
                with pytest.raises(UnsupportedGroupError, match="4096") as exc:
                    build_group(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert exc.value.exit_code == 4
            assert peak < 2**20, (spec, peak)

    def test_large_group_full_validation(self):
        g = build_group({"kind": "cyclic", "n": 128})
        assert g.order == 128
        assert element_order(g.cayley.tolist(), 1) == 128

    def test_associativity_is_checked_on_every_triple(self):
        # swapping an intercalate of cyclic(128) keeps a Latin square with
        # identity and inverses; only some triples show it is no group
        table = build_group({"kind": "cyclic", "n": 128}).cayley.copy()
        table[1, 2], table[1, 66], table[65, 2], table[65, 66] = 67, 3, 3, 67
        with pytest.raises(GroupConstructionError, match="associativity fails at") as exc:
            FiniteGroup(table, [f"g{i}" for i in range(128)], "tampered", {})
        i, j, k = map(int, re.search(r"\((\d+),(\d+),(\d+)\)", str(exc.value)).groups())
        assert table[table[i, j], k] != table[i, table[j, k]]


class TestBuildGroup:
    def test_document_errors(self):
        for bad in (
            None,
            {},
            {"kind": "cyclic"},
            {"kind": "cyclic", "n": "3"},
            {"kind": "product"},
            {"kind": "product", "factors": []},
            {"kind": "custom"},
        ):
            with pytest.raises(DocumentError):
                build_group(bad)
        with pytest.raises(DocumentError):
            build_group({"kind": "cyclic", "n": 0})

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedGroupError):
            build_group({"kind": "dihedral", "n": 5})

    def test_custom_round_trip(self):
        s3 = build_group({"kind": "s3"})
        custom = build_group(
            {"kind": "custom", "cayley": s3.cayley.tolist(), "labels": list(s3.labels)}
        )
        assert np.array_equal(custom.cayley, s3.cayley)
        assert {frozenset(c) for c in conjugacy_classes(custom).classes} == {
            frozenset(c) for c in conjugacy_classes(s3).classes
        }

    def test_custom_default_labels(self):
        g = build_group({"kind": "custom", "cayley": [[0, 1], [1, 0]]})
        assert g.labels == ("g0", "g1")

    def test_specs_rebuild_identically(self):
        for g in catalog_groups():
            again = build_group(g.spec)
            assert np.array_equal(again.cayley, g.cayley)
            assert again.labels == g.labels
