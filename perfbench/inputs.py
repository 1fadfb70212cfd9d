"""Seeded input generator for the three workloads.

Every symbol is planted: its zeros and poles are placed away from the
unit circle, so each scalar block's index and each larger block's
determinant index are known before whsymm runs.  Group symbols come
from planted blocks through whsymm's ``symbol_from_blocks``; center
symbols from planted class eigenvalues through the character table.
All pieces of one job share a denominator, which keeps degrees small.

Round ``r`` of seed ``s`` draws from ``default_rng([s, r])``: the same
seed gives the same inputs, and no two rounds repeat one.  A round's
make-up (which jobs, in which order) never depends on the seed.
"""

from __future__ import annotations

import json

import numpy as np

import check
import refmath as R
from jobs import CenterFactor, Cli, GroupFactor, Indices, Scalar, to_program
from refmath import Planted, Sym


def C(n: int) -> dict:
    return {"kind": "cyclic", "n": n}


def PRODUCT(*factors: dict) -> dict:
    return {"kind": "product", "factors": list(factors)}


FACTOR_SPECS = [
    C(2), C(3), C(4), {"kind": "klein4"}, PRODUCT(C(2), C(3)), PRODUCT(C(2), C(4)),
    {"kind": "s3"}, {"kind": "q8"}, {"kind": "a4"}, PRODUCT(C(2), {"kind": "s3"}),
]
NONABELIAN = [{"kind": "s3"}, {"kind": "q8"}, {"kind": "a4"}]
LARGE_SPECS = [C(32), PRODUCT(C(4), C(8))]
SCALAR_JOBS = 4
# The faults are reproduced on fixed inputs: klein4 with t - 0.3 and 2
# on its first two elements, scaled by c.
FAULT_LARGE_SCALE = 1e8
FAULT_SMALL_SCALE = 1e-14


def _name(spec: dict) -> str:
    if spec["kind"] == "cyclic":
        return f"cyclic{spec['n']}"
    if spec["kind"] == "product":
        return "x".join(_name(f) for f in spec["factors"])
    return spec["kind"]


class _Group:
    """Facts about one group: whsymm's representation set and character
    table (needed to plant inputs) and the reference Cayley table."""

    def __init__(self, W, spec: dict) -> None:
        g = W.build_group(spec)
        self.spec = spec
        self.labels = list(g.labels)
        self.repset = W.irreps_for(g)
        self.degrees = self.repset.degrees
        self.table = R.ref_group(spec)[1]
        self._W, self._g = W, g
        self._center = None

    def center_weights(self) -> np.ndarray:
        """M with Lambda_j = sum_i M[j, i] a_i."""
        if self._center is None:
            W = self._W
            ct = W.character_table(self.repset)
            h = np.asarray(W.conjugacy_classes(self._g).sizes, dtype=float)
            self._center = ct.values * h[None, :] / ct.values[:, :1].real
        return self._center


class _Draw:
    """Planted pieces for one job.  All pieces share one denominator and
    one degree span (same power of t, same number of zeros), and every
    coupling entry stays inside that span: whsymm keeps the roundoff
    that cancellation leaves in coefficients outside a block's own span,
    and root finding then turns it into spurious roots near 0 and
    infinity (see CHANGES.md)."""

    def __init__(self, rng, slot: int, inside=(0.1, 0.5), outside=(2.0, 4.0),
                 poles=((0.05, 0.3), (3.0, 6.0)), zeros=(2, 2)) -> None:
        self.rng = rng
        self.inside, self.outside = inside, outside
        self.zeros = int(rng.integers(zeros[0], zeros[1] + 1))
        self.shift = int(rng.integers(-1, 2))
        # The pole layout (none, inside, outside, both) follows the job's
        # place in the round, so a job's cost does not swing with the seed.
        pin, pout = poles
        self.poles_in = [R.root_in(rng, *pin)] if slot % 4 in (1, 3) else []
        self.poles_out = [R.root_out(rng, *pout)] if slot % 4 in (2, 3) else []
        self.den = R.poly_from_roots(self.poles_in + self.poles_out)

    def piece(self, min_inside: int = 0) -> Planted:
        rng = self.rng
        k = int(rng.integers(min_inside, self.zeros + 1))
        return Planted(
            lead=R.lead(rng),
            shift=self.shift,
            zeros_in=[R.root_in(rng, *self.inside) for _ in range(k)],
            zeros_out=[R.root_out(rng, *self.outside) for _ in range(self.zeros - k)],
            poles_in=list(self.poles_in),
            poles_out=list(self.poles_out),
        )

    def coupling(self) -> Sym:
        width = int(self.rng.integers(1, self.zeros + 2))
        offset = int(self.rng.integers(0, self.zeros + 2 - width))
        c = self.rng.normal(size=width) + 1j * self.rng.normal(size=width)
        return Sym(self.shift + offset, c, self.den)

    def invertible(self, d: int) -> np.ndarray:
        while True:
            m = np.eye(d) + 0.5 * (self.rng.normal(size=(d, d)) + 1j * self.rng.normal(size=(d, d)))
            if np.linalg.cond(m) < 10:
                return m


class _Blocks:
    """Planted blocks for a representation set, with what is known of
    their indices: per-copy index tuples where every block is
    triangular or diagonal, determinant indices always."""

    def __init__(self, draw: _Draw, degrees, dense: bool) -> None:
        self.rows, self.expected, self.det_indices = [], [], []
        self.explicit, self.total = {}, 0
        zero = R.ZERO
        pos = 1
        for d in degrees:
            pieces = [draw.piece() for _ in range(d)]
            idx = [p.index for p in pieces]
            syms = [p.sym() for p in pieces]
            if d == 1:
                rows = [[syms[0]]]
                self.explicit[pos] = idx[0]
            elif dense:
                a, b = draw.invertible(d), draw.invertible(d)
                rows = [[R.lincomb(a[i, :] * b[:, j], syms) for j in range(d)] for i in range(d)]
            elif d == 2:
                # a triangular block whose diagonal indices are in the
                # order that needs no gap correction has exactly those
                # partial indices
                upper = draw.rng.random() < 0.5
                if (idx[0] > idx[1]) == upper:
                    syms.reverse()
                    idx.reverse()
                b = draw.coupling()
                rows = [[syms[0], b], [zero, syms[1]]] if upper else [[syms[0], zero], [b, syms[1]]]
            else:
                rows = [[syms[i] if i == j else zero for j in range(d)] for i in range(d)]
            self.rows.append(rows)
            self.expected += [tuple(idx)] * d
            if d > 1:
                self.det_indices.append(sum(idx))
            self.total += d * sum(idx)
            pos += d * d


def _program_rows(W, rows):
    return W.RationalMatrix([[to_program(W, s) for s in row] for row in rows])


def _labelled(labels, coeffs) -> dict:
    return {lab: check.sym_doc(s) for lab, s in zip(labels, coeffs) if not s.is_zero}


def _rows_doc(rows) -> list:
    return [[check.sym_doc(s) for s in row] for row in rows]


class Generator:
    """Builds the jobs of one round of a workload from (seed, round)."""

    def __init__(self, W, seed: int) -> None:
        self.W = W
        self.seed = seed
        self._groups: dict[str, _Group] = {}

    def group(self, spec: dict) -> _Group:
        key = json.dumps(spec, sort_keys=True)
        if key not in self._groups:
            self._groups[key] = _Group(self.W, spec)
        return self._groups[key]

    def round(self, workload: str, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        return {"catalog-mix": self._catalog, "cyclic-large": self._large,
                "cli-batch": self._cli}[workload](rng)

    # -- planted group and center symbols ------------------------------

    def _group_symbol(self, g: _Group, draw: _Draw, dense: bool = False):
        blocks = _Blocks(draw, g.degrees, dense)
        gs = self.W.symbol_from_blocks([_program_rows(self.W, b) for b in blocks.rows], g.repset)
        return [check.sym_from_program(c) for c in gs.coeffs], blocks

    def _center_symbol(self, g: _Group, draw: _Draw):
        pieces = [draw.piece() for _ in g.degrees]
        inv = np.linalg.inv(g.center_weights())
        coeffs = [R.lincomb(inv[i], [p.sym() for p in pieces]) for i in range(len(pieces))]
        return coeffs, [(p.index,) for p in pieces]

    # -- workloads ------------------------------------------------------

    def _catalog(self, rng) -> list:
        jobs = []
        for spec in FACTOR_SPECS:
            g = self.group(spec)
            coeffs, blocks = self._group_symbol(g, _Draw(rng, len(jobs)))
            jobs.append(GroupFactor(f"factor-{_name(spec)}", spec, g.table, coeffs,
                                    blocks.expected, blocks.total))
        for spec in NONABELIAN:
            g = self.group(spec)
            coeffs, expected = self._center_symbol(g, _Draw(rng, len(jobs)))
            jobs.append(CenterFactor(f"center-{_name(spec)}", spec, g.table, coeffs,
                                     expected, sum(i for (i,) in expected)))
        for spec in NONABELIAN:
            g = self.group(spec)
            coeffs, blocks = self._group_symbol(g, _Draw(rng, len(jobs)), dense=True)
            jobs.append(Indices(f"indices-{_name(spec)}", spec, g.table, coeffs,
                                blocks.explicit, blocks.det_indices, blocks.total))
        for k in range(SCALAR_JOBS):
            p = _Draw(rng, len(jobs), zeros=(0, 5)).piece()
            jobs.append(Scalar(f"scalar-{k + 1}", p.sym(), p.index))
        g = self.group({"kind": "klein4"})
        c = FAULT_LARGE_SCALE
        fault = [Sym(0, [-0.3 * c, c]), Sym(0, [2 * c]), R.ZERO, R.ZERO]
        jobs.append(GroupFactor("factor-klein4-scale-1e8", g.spec, g.table, fault,
                                [(0,)] * 4, 0, known_fault=True))
        return jobs

    def _large(self, rng) -> list:
        jobs = []
        for spec in LARGE_SPECS:
            g = self.group(spec)
            # whsymm's verifier declines a determinant whose modulus
            # varies by more than 1e13 over the circle; with 32 blocks
            # that range is a 32nd power, so roots stay further out.
            # slots 2 and 3: a pole outside, then one on each side
            draw = _Draw(rng, 2 + len(jobs), inside=(0.05, 0.3), outside=(3.0, 6.0),
                         poles=((0.02, 0.1), (8.0, 15.0)), zeros=(1, 1))
            coeffs, blocks = self._group_symbol(g, draw)
            jobs.append(GroupFactor(f"factor-{_name(spec)}", spec, g.table, coeffs,
                                    blocks.expected, blocks.total))
        return jobs

    # -- CLI ------------------------------------------------------------

    def _cli(self, rng) -> list:
        jobs = []
        for spec in ({"kind": "klein4"}, {"kind": "s3"}):
            g = self.group(spec)
            coeffs, blocks = self._group_symbol(g, _Draw(rng, len(jobs)))
            doc = {"group": spec, "symbol": _labelled(g.labels, coeffs)}
            jobs.append(Cli(f"factorize-{_name(spec)}", ["factorize", "--job", json.dumps(doc)], 0,
                            _factorization_doc(g.table, coeffs, blocks.expected, blocks.total)))

        p = _Draw(rng, len(jobs), zeros=(0, 5)).piece()
        jobs.append(Cli("factorize-scalar",
                        ["factorize", "--job", json.dumps({"scalar": check.sym_doc(p.sym())})], 0,
                        _scalar_doc(p)))

        g = self.group({"kind": "q8"})
        coeffs, expected = self._center_symbol(g, _Draw(rng, len(jobs)))
        doc = {"group": g.spec, "class_coeffs": [check.sym_doc(s) for s in coeffs]}
        classes = R.ref_classes(g.table)
        jobs.append(Cli("center-factorize-q8", ["center-factorize", "--job", json.dumps(doc)], 0,
                        _factorization_doc(None, coeffs, expected, sum(i for (i,) in expected),
                                           classes)))

        g = self.group({"kind": "a4"})
        coeffs, blocks = self._group_symbol(g, _Draw(rng, len(jobs)), dense=True)
        doc = {"group": g.spec, "symbol": _labelled(g.labels, coeffs)}
        jobs.append(Cli("indices-a4", ["indices", "--job", json.dumps(doc)], 0,
                        _index_doc(g.table, coeffs, blocks)))

        g = self.group({"kind": "s3"})
        coeffs, blocks = self._group_symbol(g, _Draw(rng, len(jobs)), dense=True)
        doc = {"group": g.spec, "symbol": _labelled(g.labels, coeffs)}
        jobs.append(Cli("reduce-s3", ["reduce", "--job", json.dumps(doc)], 0,
                        _reduce_doc(blocks.rows)))

        jobs.append(Cli("catalog", ["catalog"], 0, _catalog_doc))

        for name, spec, variant in (
            ("verify-cyclic4", C(4), "right"),
            ("verify-klein4-doubled", {"kind": "klein4"}, "doubled"),
            ("verify-cyclic4-moved-zero", C(4), "moved"),
        ):
            jobs.append(_verify_job(name, self.group(spec), _Draw(rng, len(jobs)), variant))
        jobs.append(_verify_job("verify-klein4-scale-1e-14-doubled",
                                self.group({"kind": "klein4"}), None, "doubled",
                                known_fault=True))
        return jobs


# ---------------------------------------------------------------------
# CLI document checks
# ---------------------------------------------------------------------


def _report_passed(doc) -> list[str]:
    report = doc.get("report", {})
    return [] if report.get("overall") == "pass" else ["report overall is not 'pass'"]


def _factorization_doc(table, coeffs, expected, total, classes=None):
    if classes is None:
        sample = lambda t: R.group_matrix(table, coeffs, t)  # noqa: E731
    else:
        sample = lambda t: R.center_matrix(classes, coeffs, t)  # noqa: E731

    def check_doc(doc):
        return _report_passed(doc) + check.factorization(
            sample, check.rows_from_doc(doc["minus"]), list(doc["d"]),
            check.rows_from_doc(doc["plus"]), expected, total)
    return check_doc


def _scalar_doc(p: Planted):
    def check_doc(doc):
        return _report_passed(doc) + check.scalar(
            p.sym(), check.sym_from_doc(doc["minus"]), doc["index"],
            check.sym_from_doc(doc["plus"]), p.index)
    return check_doc


def _index_doc(table, coeffs, blocks: _Blocks):
    def check_doc(doc):
        got = {
            "explicit": {e["position"]: e["value"] for e in doc["explicit"]},
            "det": [b["det_index"] for b in doc["blocks"] if b["degree"] > 1],
            "total": doc["total_index"],
        }
        return check.index_report(lambda t: R.group_matrix(table, coeffs, t),
                                  blocks.explicit, blocks.det_indices, blocks.total, got)
    return check_doc


def _reduce_doc(planted_rows):
    def check_doc(doc):
        got = [check.rows_from_doc(m) for m in doc["blocks"]]
        return _report_passed(doc) + check.blocks_match(got, planted_rows)
    return check_doc


def _catalog_doc(doc) -> list[str]:
    problems = []
    for entry in doc["groups"]:
        table = R.ref_group(entry["spec"])[1]
        classes = R.ref_classes(table)
        degrees = entry["degrees"]
        if entry["order"] != table.shape[0] or sum(d * d for d in degrees) != table.shape[0]:
            problems.append(f"{entry['name']}: order or degrees are wrong")
        if list(entry["class_sizes"]) != list(classes.sizes) or len(degrees) != len(classes.sizes):
            problems.append(f"{entry['name']}: class sizes are wrong")
    return problems


def _verify_job(name: str, g: _Group, draw: _Draw | None, variant: str, known_fault=False) -> Cli:
    """A factorization document made without whsymm, from the characters
    of an abelian group: A = V diag(lambda) V*, V[i, k] = chi_k(g_i)/sqrt(n).

    ``right`` is correct; ``doubled`` doubles the plus factor;
    ``moved`` moves a zero inside the circle from lambda_minus to
    lambda_plus, which keeps the product but breaks the indices.  With
    ``draw`` None the target is the fixed small-scale fault input.
    """
    chars = R.abelian_characters(g.spec, g.table)
    n = g.table.shape[0]
    if draw is None:
        c = FAULT_SMALL_SCALE
        pieces = [Planted(c, 0, zeros_out=[0.3 - 2.0 * chars[k, 1].real]) for k in range(n)]
        coeffs = [Sym(0, [-0.3 * c, c]), Sym(0, [2 * c])] + [R.ZERO] * (n - 2)
    else:
        pieces = [draw.piece(min_inside=1 if k == 0 else 0) for k in range(n)]
        coeffs = [R.lincomb(chars[:, x] / n, [p.sym() for p in pieces]) for x in range(n)]
    expected = [(p.index,) for p in pieces]
    total = sum(p.index for p in pieces)
    if variant == "moved":
        p = pieces[0]
        pieces[0] = Planted(p.lead, p.shift, p.zeros_in[1:], p.zeros_out + p.zeros_in[:1],
                            p.poles_in, p.poles_out)
    v = chars.T / np.sqrt(n)
    minus = [[pieces[k].minus().scale(v[i, k]) for k in range(n)] for i in range(n)]
    plus_scale = 2.0 if variant == "doubled" else 1.0
    plus = [[pieces[k].plus().scale(plus_scale * np.conj(v[j, k])) for j in range(n)]
            for k in range(n)]
    d = [p.index for p in pieces]
    sample = lambda t: R.group_matrix(g.table, coeffs, t)  # noqa: E731
    valid = not check.factorization(sample, minus, d, plus, expected, total)
    doc = {
        "target": {"group": g.spec, "symbol": _labelled(g.labels, coeffs)},
        "factorization": {"minus": _rows_doc(minus), "d": d, "plus": _rows_doc(plus)},
    }

    def check_doc(report):
        if (report.get("overall") == "pass") != valid:
            return [f"report overall {report.get('overall')!r} disagrees with the checker"]
        return []

    return Cli(name, ["verify", "--job", json.dumps(doc)], 0 if valid else 1, check_doc,
               known_fault=known_fault)
