"""The four workloads: seeded inputs, rounds of a fixed amount of work, and
checks.

Every workload calls freenil2's public functions through their modules
(``autgroup.apply``, not a local copy), so a traced round sees every call.
A round returns its wall time, appends the time of each operation in it,
and returns how many operations it attempted and how many failed.  Checks
run outside the round's timing and compare the program's outputs with the
independent arithmetic in ``oracles``; each ``check_*`` function takes
plain tuples and returns a list of error strings, so the benchmark's own
test can feed it corrupted outputs.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stdout

import oracles

clock = time.perf_counter


def _seeded(*parts) -> random.Random:
    return random.Random("|".join(str(p) for p in parts))


def _plain(element) -> tuple:
    return element.abelian, element.comm


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------

VERIFY_RANKS = (2, 5)
VERIFY_TRIALS = 6
VERIFY_CHECK_COUNT = 23
SINGLE_CONSTRUCTION = "order_three_product"


def check_verify_report(rc: int, text: str, trials: int) -> list[str]:
    """Properties every report of the suite must have."""
    errors = []
    if rc != 0:
        errors.append(f"verify exited {rc}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return errors + [f"report is not JSON: {exc}"]
    if report.get("all_passed") is not True:
        errors.append("all_passed is not true")
    checks = report.get("checks", [])
    ranks = range(VERIFY_RANKS[0], VERIFY_RANKS[1] + 1)
    by_base: dict[str, set[int]] = {}
    for check in checks:
        base, _, rest = check["name"].partition("[rank=")
        by_base.setdefault(base, set()).add(int(rest.rstrip("]")))
        expected = 1 if base == SINGLE_CONSTRUCTION else trials
        if check["trials"] != expected:
            errors.append(f"{check['name']} ran {check['trials']} trials, expected {expected}")
        if check["status"] != "pass":
            errors.append(f"{check['name']} has status {check['status']}")
    if len(checks) != VERIFY_CHECK_COUNT * len(ranks):
        errors.append(f"{len(checks)} checks, expected {VERIFY_CHECK_COUNT * len(ranks)}")
    if len(by_base) != VERIFY_CHECK_COUNT or any(r != set(ranks) for r in by_base.values()):
        errors.append("checks do not cover every name at every rank")
    return errors


class VerifySuite:
    """``freenil2 verify --json`` in-process; an operation is one check at
    one rank, timed at the suite's check table."""

    name = "verify-suite"
    ref_per_gap = 5

    def __init__(self, seed: int):
        from freenil2 import cli, verify

        self.cli = cli
        self.seed = seed
        self.statuses: list[str] = []
        for name, fn in list(verify.CHECKS.items()):
            verify.CHECKS[name] = self._timed(fn)
        self.op_times: list[float] = []
        self.first: tuple[int, str] | None = None
        self.mismatches = 0

    def _timed(self, fn):
        def timed_check(rank, trials, seed):
            t0 = clock()
            result = fn(rank, trials, seed)
            self.op_times.append(clock() - t0)
            self.statuses.append(result.status)
            return result

        return timed_check

    def argv(self, seed: int) -> list[str]:
        lo, hi = VERIFY_RANKS
        return ["verify", "--rank-min", str(lo), "--rank-max", str(hi),
                "--trials", str(VERIFY_TRIALS), "--seed", str(seed), "--json"]

    def _run(self, seed: int) -> tuple[int, str]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = self.cli.main(self.argv(seed))
        return rc, buf.getvalue()

    def round(self, op_times: list[float]) -> tuple[float, int, int]:
        self.op_times = op_times
        self.statuses = []
        expected = VERIFY_CHECK_COUNT * (VERIFY_RANKS[1] - VERIFY_RANKS[0] + 1)
        t0 = clock()
        try:
            out = self._run(self.seed)
        except Exception:  # a crash fails every check it did not finish
            out = (None, "")
        dt = clock() - t0
        if self.first is None:
            self.first = out
        elif out != self.first:
            self.mismatches += 1
        passed = sum(s == "pass" for s in self.statuses)
        return dt, expected, expected - passed

    def check(self) -> list[str]:
        rc, text = self.first
        errors = check_verify_report(rc, text, VERIFY_TRIALS)
        if self.mismatches:
            errors.append(f"{self.mismatches} rounds gave a report differing from the first")
        other = self.seed + 104729
        self.op_times = []
        rc2, text2 = self._run(other)
        errors += [f"seed {other}: {e}" for e in check_verify_report(rc2, text2, VERIFY_TRIALS)]
        return errors


# ---------------------------------------------------------------------------
# aut-reuse-r8 and aut-churn-r6
# ---------------------------------------------------------------------------

def check_apply(images, g, got) -> list[str]:
    """sigma(g) from freenil2 against substitution into sigma's images."""
    want = oracles.oracle_apply(images, g)
    return [] if (tuple(got[0]), tuple(got[1])) == want else [f"apply gave {got}, expected {want}"]


def check_compose(spec_s, spec_r, got_images) -> list[str]:
    """sigma o rho: images are sigma applied to rho's images, and the matrix
    is the product of the two matrices."""
    errors = []
    for k, (img, got) in enumerate(zip(spec_r["images"], got_images)):
        if oracles.oracle_apply(spec_s["images"], img) != (tuple(got[0]), tuple(got[1])):
            errors.append(f"compose image {k + 1} is {got}")
    product = oracles.matmul(spec_s["matrix"], spec_r["matrix"])
    if oracles.columns(product) != [tuple(g[0]) for g in got_images]:
        errors.append("compose matrix is not the product of the two matrices")
    return errors


def check_invert(spec, got_images) -> list[str]:
    """sigma^-1: its matrix is the known inverse of sigma's generating word,
    and sigma maps its images back to the generators."""
    n = len(spec["images"])
    errors = []
    if oracles.columns(spec["inverse"]) != [tuple(g[0]) for g in got_images]:
        errors.append("invert matrix differs from the inverse of the generating word")
    for k, got in enumerate(got_images):
        if oracles.oracle_apply(spec["images"], got) != oracles.c2_generator(n, k):
            errors.append(f"sigma does not map inverse image {k + 1} back to x{k + 1}")
    return errors


def _automorphism(spec):
    from freenil2.autgroup import Automorphism
    from freenil2.nilcore import Element

    n = len(spec["images"])
    return Automorphism([Element(n, a, c) for a, c in spec["images"]])


class AutReuse:
    """A few rank-8 automorphisms, each applied to many elements.

    The automorphisms stay for the whole run; every round draws new
    elements, so a run averages over many elements rather than resting on
    one seed's few dozen.
    """

    name = "aut-reuse-r8"
    ref_per_gap = 1
    RANK, AUTS = 8, 8
    # exponent bound of each element drawn per round: a quarter are large,
    # so the 90th percentile sits among them
    BOUNDS = (6,) * 9 + (10**4,) * 3

    def __init__(self, seed: int):
        from freenil2 import autgroup

        self.autgroup = autgroup
        self.seed = seed
        self.rounds = 0
        rng = _seeded(self.name, seed)
        self.specs = [oracles.random_automorphism(rng, self.RANK, length=96, coef=1, cbound=3)
                      for _ in range(self.AUTS)]
        self.sigmas = [_automorphism(spec) for spec in self.specs]
        self.errors: list[str] = []

    def round(self, op_times: list[float]) -> tuple[float, int, int]:
        from freenil2.nilcore import Element

        apply = self.autgroup.apply
        rng = _seeded(self.name, self.seed, self.rounds)
        self.rounds += 1
        element_specs = [oracles.random_element(rng, self.RANK, abound=bound, cbound=bound)
                         for bound in self.BOUNDS]
        elements = [Element(self.RANK, a, c) for a, c in element_specs]
        outputs, failed = [], 0
        t_round = clock()
        for sigma in self.sigmas:
            for g in elements:
                t0 = clock()
                try:
                    out = apply(sigma, g)
                except Exception:
                    out = None
                    failed += 1
                op_times.append(clock() - t0)
                outputs.append(out)
        dt = clock() - t_round
        got = iter(outputs)
        for spec in self.specs:
            for g in element_specs:
                out = next(got)
                self.errors += (["apply failed"] if out is None
                                else check_apply(spec["images"], g, _plain(out)))
        return dt, len(outputs), failed

    def check(self) -> list[str]:
        return self.errors


class AutChurn:
    """A stream of fresh rank-6 automorphisms, each used once in ``compose``
    and once in ``invert``.  Every round draws new automorphisms, so nothing
    computed in an earlier round can be reused."""

    name = "aut-churn-r6"
    ref_per_gap = 1
    RANK, AUTS = 6, 24

    def __init__(self, seed: int):
        from freenil2 import autgroup

        self.autgroup = autgroup
        self.seed = seed
        self.rounds = 0
        self.errors: list[str] = []

    def round(self, op_times: list[float]) -> tuple[float, int, int]:
        compose, invert = self.autgroup.compose, self.autgroup.invert
        rng = _seeded(self.name, self.seed, self.rounds)
        self.rounds += 1
        specs = [oracles.random_automorphism(rng, self.RANK, length=10, coef=2, cbound=2)
                 for _ in range(self.AUTS)]
        calls = [(compose, (k, k + 1)) for k in range(0, self.AUTS, 2)]
        calls += [(invert, (k,)) for k in range(self.AUTS)]
        outputs, failed = [], 0
        t_round = clock()
        sigmas = [_automorphism(spec) for spec in specs]
        for fn, idx in calls:
            t0 = clock()
            try:
                out = fn(*(sigmas[k] for k in idx))
            except Exception:
                out = None
                failed += 1
            op_times.append(clock() - t0)
            outputs.append(out)
        dt = clock() - t_round
        for (fn, idx), out in zip(calls, outputs):
            if out is None:
                self.errors.append(f"{fn.__name__} failed")
                continue
            images = [_plain(img) for img in out.images]
            if fn is compose:
                self.errors += check_compose(specs[idx[0]], specs[idx[1]], images)
            else:
                self.errors += check_invert(specs[idx[0]], images)
        return dt, len(calls), failed

    def check(self) -> list[str]:
        return self.errors


# ---------------------------------------------------------------------------
# lattice-r8
# ---------------------------------------------------------------------------

def check_lattice(spec, out) -> list[str]:
    """One involution's outputs against its construction F = W B W^-1."""
    f = spec["f"]
    n = spec["rank"]
    p, m, s = spec["type"]
    errors = []
    if tuple(out["type"]) != (p, m, s):
        errors.append(f"block type {out['type']}, built as {(p, m, s)}")
    basis = out["basis"]
    cols = oracles.columns(basis)
    if abs(oracles.det(basis)) != 1:
        errors.append("canonical basis is not unimodular")
    bp, bm, bs = out["type"]
    if bp + bm + 2 * bs != n or len(cols) != n:
        return errors + ["canonical form does not cover the rank"]
    for k, col in enumerate(cols):
        image = oracles.matvec(f, col)
        if k < bp:
            ok = image == col
        elif k < bp + bm:
            ok = image == tuple(-x for x in col)
        else:
            partner = cols[k + 1] if (k - bp - bm) % 2 == 0 else cols[k - 1]
            ok = image == partner
        if not ok:
            errors.append(f"canonical basis column {k} does not act as its block says")
    u, d, v = out["smith"]
    f_minus_i = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(f)]
    if oracles.matmul(oracles.matmul(u, f_minus_i), v) != [list(r) for r in d]:
        errors.append("U (F - I) V != D")
    if abs(oracles.det(u)) != 1 or abs(oracles.det(v)) != 1:
        errors.append("Smith transforms are not unimodular")
    diagonal = [1] * s + [2] * m + [0] * (p + s)
    expected_d = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    if [list(r) for r in d] != expected_d:
        errors.append(f"Smith form of F - I has diagonal {[d[i][i] for i in range(n)]}, "
                      f"expected {diagonal}")
    kernel = out["kernel"]
    if len(kernel) != p + s or any(oracles.matvec(f, vec) != tuple(vec) for vec in kernel):
        errors.append("kernel of F - I is not a basis of the fixed vectors")
    if "g" in spec:
        g = spec["g"]
        want = {(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}
        for pair in spec["sign_pairs"]:
            want[pair] += 1
        parts = out["commuting"]
        for (sf, sg), part in zip(((1, 1), (1, -1), (-1, 1), (-1, -1)), parts):
            if len(part) != want[(sf, sg)]:
                errors.append(f"({sf:+d},{sg:+d}) part has rank {len(part)}")
            for vec in part:
                if (oracles.matvec(f, vec) != tuple(sf * x for x in vec)
                        or oracles.matvec(g, vec) != tuple(sg * x for x in vec)):
                    errors.append(f"({sf:+d},{sg:+d}) part holds a vector of another eigenspace")
        vectors = [vec for part in parts for vec in part]
        if len(vectors) != n or abs(oracles.det(oracles.columns(vectors))) != 1:
            errors.append("commuting parts do not form a basis")
        if oracles.matmul(out["sqrt"], out["sqrt"]) != [list(r) for r in f]:
            errors.append("square root does not square to F")
    return errors


class Lattice:
    """Involution matrices at ranks 6-8 with large entries through the
    lattice routines; an operation is one matrix.  Every round draws new
    matrices."""

    name = "lattice-r8"
    ref_per_gap = 1
    RANKS, PER_RANK = (6, 7, 8), 16

    def __init__(self, seed: int):
        from freenil2 import involutions, zlinalg

        self.involutions = involutions
        self.zlinalg = zlinalg
        self.seed = seed
        self.rounds = 0
        self.errors: list[str] = []

    def round(self, op_times: list[float]) -> tuple[float, int, int]:
        inv, zl = self.involutions, self.zlinalg
        rng = _seeded(self.name, self.seed, self.rounds)
        self.rounds += 1
        specs = [
            oracles.random_involution(rng, n, length=60, coef=4, swaps=k % 2 == 0,
                                      entry_digits=(4, 6))
            for n in self.RANKS for k in range(self.PER_RANK)
        ]
        inputs = []
        for spec in specs:
            f_minus_i = [[x - (i == j) for j, x in enumerate(row)]
                         for i, row in enumerate(spec["f"])]
            g = zl.IntMatrix(spec["g"]) if "g" in spec else None
            inputs.append((zl.IntMatrix(spec["f"]), zl.IntMatrix(f_minus_i), g))
        outputs, failed = [], 0
        t_round = clock()
        for f, f_minus_i, g in inputs:
            t0 = clock()
            try:
                out = (
                    inv.canonicalize_involution(f),
                    zl.smith_decompose(f_minus_i),
                    zl.kernel_summand_basis(f_minus_i),
                    None if g is None else inv.commuting_decomposition(f, g),
                    None if g is None else inv.sqrt_of_involution(f),
                )
            except Exception:
                out = None
                failed += 1
            op_times.append(clock() - t0)
            outputs.append(out)
        dt = clock() - t_round
        for spec, out in zip(specs, outputs):
            self.errors += (["lattice routines failed"] if out is None
                            else check_lattice(spec, self._plain(out)))
        return dt, len(outputs), failed

    @staticmethod
    def _plain(out) -> dict:
        form, (u, d, v), kernel, parts, root = out
        return {
            "type": form.block_type(),
            "basis": form.basis.rows,
            "smith": (u.rows, d.rows, v.rows),
            "kernel": kernel.vectors,
            "commuting": None if parts is None else [b.vectors for b in parts],
            "sqrt": None if root is None else root.rows,
        }

    def check(self) -> list[str]:
        return self.errors


WORKLOADS = {w.name: w for w in (VerifySuite, AutReuse, AutChurn, Lattice)}
