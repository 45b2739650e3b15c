"""spectra: full scalar analysis of dense states at d = 4, 8, 16, 32 and 64.

One operation is validate_density, hermitian_eigensystem, measure_report and
classify on one state; two-qubit states also get concurrence_2q and eof_2q
called directly. The Jacobi eigensolver does nearly all the work, and its
cost grows about as d^3 per sweep, so the mix of dimensions sets the tail.

A round holds 54 operations. The counts are chosen so that the median falls
in the middle of the block of 8-dim product and 4- and 8-dim global states
(20 operations of about 25 ms, above 20 cheaper ones) and the 90th
percentile in the middle of the block of 16-dim product and global states,
never on the edge between two blocks of different cost, where it would jump
from run to run.
"""

import numpy as np

import infospace as isp

import oracles as ref

# (dim_a, dim_b, family, operations per round)
ROUND = [
    (2, 2, "pure", 4),
    (2, 2, "bell-diagonal", 4),
    (2, 4, "pure", 4),
    (2, 2, "product", 8),
    (2, 4, "product", 6),
    (2, 2, "global", 8),
    (2, 4, "global", 6),
    (4, 4, "pure", 4),
    (4, 4, "product", 4),
    (4, 4, "global", 4),
    (4, 8, "product", 1),
    (8, 8, "global", 1),
]
TINY_ROUND = [(2, 2, fam, 1) for fam in ("product", "bell-diagonal", "pure", "global")] + [
    (4, 4, "global", 1),
    (8, 8, "global", 1),
]
POOL_ROUNDS = 8  # distinct seeded inputs per slot; later rounds reuse them in turn


class Case:
    """One seeded state and the values the program must reproduce."""

    def __init__(self, dim_a, dim_b, family, matrix, expect):
        self.dim_a, self.dim_b, self.family = dim_a, dim_b, family
        self.matrix = matrix
        self.expect = expect  # name -> value; "category" and "never" hold category names


def _spectrum(rng, n):
    return rng.dirichlet(np.ones(n))


def _make(rng, dim_a, dim_b, family) -> Case:
    d = dim_a * dim_b
    if family == "product":
        p, q = _spectrum(rng, dim_a), _spectrum(rng, dim_b)
        ua, ub = ref.haar_unitary(rng, dim_a), ref.haar_unitary(rng, dim_b)
        m = np.kron((ua * p) @ ua.conj().T, (ub * q) @ ub.conj().T)
        expect = {
            "s_total": ref.entropy(p) + ref.entropy(q),
            "s_a": ref.entropy(p),
            "s_b": ref.entropy(q),
            "ppt_min_eig": float(p.min() * q.min()),
            "never": "MixedNPT",
        }
        if d == 4:
            expect.update(concurrence=0.0, eof=0.0)
        return Case(dim_a, dim_b, family, m, expect)
    if family == "bell-diagonal":
        while True:
            lam = _spectrum(rng, 4)
            gaps = np.diff(np.sort(lam))
            if gaps.min() > 1e-6 and abs(lam.max() - 0.5) > 1e-6:
                break
        u = np.kron(ref.haar_unitary(rng, 2), ref.haar_unitary(rng, 2)) @ ref.BELL
        m = (u * lam) @ u.conj().T
        c = max(0.0, 2.0 * float(lam.max()) - 1.0)
        expect = {
            "s_total": ref.entropy(lam),
            "s_a": 1.0,
            "s_b": 1.0,
            "ppt_min_eig": 0.5 - float(lam.max()),
            "concurrence": c,
            "eof": ref.eof_from_concurrence(c),
            "category": "MixedNPT" if lam.max() > 0.5 else "MixedPPT",
        }
        return Case(dim_a, dim_b, family, m, expect)
    if family == "pure":
        r = min(dim_a, dim_b)
        c2 = _spectrum(rng, r)
        c = np.sqrt(c2)
        ua, ub = ref.haar_unitary(rng, dim_a), ref.haar_unitary(rng, dim_b)
        psi = sum(c[k] * np.kron(ua[:, k], ub[:, k]) for k in range(r))
        top = np.sort(c)[::-1]
        expect = {
            "s_total": 0.0,
            "s_a": ref.entropy(c2),
            "s_b": ref.entropy(c2),
            "ppt_min_eig": -float(top[0] * top[1]),
            "category": "PureEntangled",
        }
        if d == 4:
            expect.update(concurrence=2.0 * float(c[0] * c[1]), eof=ref.entropy(c2))
        return Case(dim_a, dim_b, family, np.outer(psi, psi.conj()), expect)
    if family == "global":
        while True:
            lam = _spectrum(rng, d)
            u = ref.haar_unitary(rng, d)
            m = (u * lam) @ u.conj().T
            m = (m + m.conj().T) / 2.0
            pt = ref.ppt_min(m, dim_a, dim_b)
            if abs(pt) > 1e-6:  # keep the NPT/PPT verdict away from its threshold
                break
        expect = {
            "s_total": ref.entropy(lam),
            "s_a": ref.matrix_entropy(ref.reduced(m, dim_a, dim_b, "A")),
            "s_b": ref.matrix_entropy(ref.reduced(m, dim_a, dim_b, "B")),
            "ppt_min_eig": pt,
            "category": "MixedNPT" if pt < 0 else "MixedPPT",
        }
        if d == 4:
            c = ref.concurrence(m)
            expect.update(concurrence=c, eof=ref.eof_from_concurrence(c))
        return Case(dim_a, dim_b, family, m, expect)
    raise ValueError(f"unknown family {family!r}")


def setup(seed: int, tiny: bool = False) -> list[list[Case]]:
    """Seeded inputs: a pool of rounds, each a list of cases in ROUND order."""
    rng = np.random.default_rng([seed, 1])
    layout = TINY_ROUND if tiny else ROUND
    rounds = []
    for _ in range(1 if tiny else POOL_ROUNDS):
        rounds.append(
            [_make(rng, da, db, fam) for da, db, fam, count in layout for _ in range(count)]
        )
    return rounds


def warm_up(pool, rec) -> None:
    """One two-qubit state of each family: every code path, little time."""
    seen = set()
    for case in pool[0]:
        if case.dim_a * case.dim_b == 4 and case.family not in seen:
            seen.add(case.family)
            _analyse(case, rec)


def _analyse(case: Case, rec):
    d = case.dim_a * case.dim_b
    out = {}
    with rec.span("linalg.validate_density", d=d):
        rho = isp.validate_density(case.matrix, case.dim_a, case.dim_b)
    with rec.span("linalg.hermitian_eigensystem", d=d):
        out["eig"] = isp.hermitian_eigensystem(rho.matrix)
    with rec.span("measures.measure_report", d=d):
        out["report"] = isp.measure_report(rho)
    with rec.span("families.classify", d=d):
        out["class"] = isp.classify(rho)
    if d == 4:
        with rec.span("measures.concurrence_2q", d=d):
            out["concurrence"] = isp.concurrence_2q(rho)
        with rec.span("measures.eof_2q", d=d):
            out["eof"] = isp.eof_2q(rho)
    return out


def _check(case: Case, out: dict, rec) -> None:
    tag = f"spectra {case.family} {case.dim_a}x{case.dim_b}"
    exp = case.expect
    report = out["report"]
    w, v = out["eig"]
    rec.check(bool(np.all(np.diff(w) >= 0)), f"{tag}: eigenvalues not ascending")
    resid = np.abs(case.matrix @ v - v * w).max()
    rec.close(resid, 0.0, ref.TOL, f"{tag}: eigenpair residual")
    rec.close(report.s_total, exp["s_total"], ref.TOL, f"{tag}: S")
    rec.close(report.s_a, exp["s_a"], ref.TOL, f"{tag}: S_A")
    rec.close(report.s_b, exp["s_b"], ref.TOL, f"{tag}: S_B")
    n = int(np.log2(case.dim_a * case.dim_b))
    rec.close(report.info, n - exp["s_total"], ref.TOL, f"{tag}: info")
    rec.close(report.ppt_min_eig, exp["ppt_min_eig"], ref.TOL, f"{tag}: ppt_min_eig")
    rec.close(out["class"].ppt_min_eig, exp["ppt_min_eig"], ref.TOL, f"{tag}: classify ppt_min_eig")
    category = out["class"].category.value
    if "category" in exp:
        rec.check(category == exp["category"], f"{tag}: category {category}, want {exp['category']}")
    if "never" in exp:
        rec.check(category != exp["never"], f"{tag}: category {category}")
    if "concurrence" in exp:
        for source in (report.concurrence, out["concurrence"]):
            rec.close(source, exp["concurrence"], ref.TOL, f"{tag}: concurrence")
        for source in (report.eof, out["eof"]):
            rec.close(source, exp["eof"], ref.TOL, f"{tag}: EoF")


def run_round(pool, index: int, rec) -> None:
    for case in pool[index % len(pool)]:
        kind = f"{case.family}-d{case.dim_a * case.dim_b}"
        try:
            with rec.op(kind):
                out = _analyse(case, rec)
        except Exception as exc:  # a raising operation is a wrong result; keep running
            rec.check(False, f"spectra {kind}: raised {exc!r}")
            continue
        _check(case, out, rec)
