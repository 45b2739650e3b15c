"""decisions: two-qubit verdicts, decompositions and diagram curves.

One operation passes one state through classify, product_eigenbasis_check
and assumed_exact_values. Bell-mixture members also get formation_point on
the split decomposition, bell_formation_points, build_lower_envelope (built
twice: once from the points and once from its own vertices) and a phase_scan.
Certified ensembles also get formation_point, reversible_cost_bound and
formation_surplus_bound; product_eigenbasis_check is two-qubit only, so the
4x4 ensemble skips it and assumed_exact_values.

The randomized product-basis search does most of the work: a degenerate
eigenspace without an orthonormal product basis is searched with 32 restarts
before the verdict is left INCONCLUSIVE. Four of the 21 operations per round
are such states, so the 90th percentile falls in the middle of their block.

The fault-probe states come from a fixed generator, not from the seed. They
have a product eigenbasis by construction, but _schmidt_factors takes
sqrt(1 - lambda_max) of a roundoff-sized quantity and reports a false NO for
some of them. Each wrong result is counted as a failed operation; the same
states run in every round, so the failed share is the same in every run.
"""

import numpy as np

import infospace as isp

import oracles as ref

ROUND = [
    ("bell-mixture", 3),
    ("bell-diagonal", 2),
    ("global-aabb", 4),
    ("product-diagonal", 2),
    ("ensemble-2x2", 1),
    ("ensemble-4x4", 1),
]
TINY_ROUND = [(kind, 1) for kind, _ in ROUND]
POOL_ROUNDS = 32  # about one run's rounds, so a run sees ~130 distinct searched states
FAULT_SEED = 3  # fixed: the fault-probe states must not depend on --seed
FAULT_STATES = 8
SCAN_POINTS = 400
P_RANGE = (0.05, 0.49)  # below p ~ 0.03 the split point leaves the envelope


class Case:
    def __init__(self, kind, rho, expect, extra=None):
        self.kind = kind
        self.rho = rho
        self.expect = expect
        self.extra = extra or {}


def _bell_member(rng, grid_expect) -> Case:
    p = float(rng.uniform(*P_RANGE))
    ec = ref.bell_ec(p)
    hp = ref.binary_entropy(p)
    expect = {
        "category": "MixedNPT",
        "verdict": {"no"},
        "aev": (hp, 1.0),
        "split": (1.0 - 2.0 * p, 2.0 - 2.0 * p),
        "points": [(ec, 2.0), (1.0 - 2.0 * p, 2.0 - 2.0 * p), (1.0, 2.0 - hp)],
        "scan": grid_expect,
    }
    cc = isp.classically_correlated([0.5, 0.5])
    phi_minus = isp.PureState(ref.BELL[:, 1], 2, 2)
    split = isp.Ensemble(((2.0 * p, cc), (1.0 - 2.0 * p, phi_minus)))
    return Case("bell-mixture", None, expect, {"p": p, "split": split})


def _bell_diagonal(rng) -> Case:
    while True:
        lam = rng.dirichlet(np.ones(4))
        if np.diff(np.sort(lam)).min() > 1e-6 and abs(lam.max() - 0.5) > 1e-6:
            break
    u = np.kron(ref.haar_unitary(rng, 2), ref.haar_unitary(rng, 2)) @ ref.BELL
    m = (u * lam) @ u.conj().T
    expect = {
        "category": "MixedNPT" if lam.max() > 0.5 else "MixedPPT",
        "verdict": {"no"},
        "aev": (ref.entropy(lam), 1.0),
    }
    return Case("bell-diagonal", isp.validate_density(m, 2, 2), expect)


def _global_aabb(rng) -> Case:
    while True:
        a = float(rng.uniform(0.01, 0.49))
        lam = np.array([a, a, 0.5 - a, 0.5 - a])
        u = ref.haar_unitary(rng, 4)
        m = (u * lam) @ u.conj().T
        m = (m + m.conj().T) / 2.0
        pt = ref.ppt_min(m, 2, 2)
        _, v = np.linalg.eigh(m)
        product = ref.eigenspace_has_product_basis(v[:, :2]) and ref.eigenspace_has_product_basis(v[:, 2:])
        if abs(a - 0.25) > 1e-3 and abs(pt) > 1e-6 and not product:
            break
    expect = {
        "category": "MixedNPT" if pt < 0 else "MixedPPT",
        "verdict": {"no", "inconclusive"},  # the true verdict is no; the search may not prove it
        "aev": (ref.entropy(lam), min(
            ref.matrix_entropy(ref.reduced(m, 2, 2, "A")), ref.matrix_entropy(ref.reduced(m, 2, 2, "B"))
        )),
        "aev_may_refuse": True,
    }
    return Case("global-aabb", isp.validate_density(m, 2, 2), expect)


def _product_diagonal(rng) -> Case:
    while True:
        a = float(rng.uniform(0.02, 0.48))
        if abs(a - 0.25) > 1e-3:
            break
    b = 0.5 - a
    pattern = [(a, a, b, b), (a, b, a, b), (a, b, b, a)][int(rng.integers(3))]
    u = np.kron(ref.haar_unitary(rng, 2), ref.haar_unitary(rng, 2))
    m = (u * np.array(pattern)) @ u.conj().T
    m = (m + m.conj().T) / 2.0
    # every eigenspace is 2-dim, so the program decides it by search, never by _schmidt_factors
    expect = {"category": "MixedPPT", "verdict": {"product"}, "aev": None}
    return Case("product-diagonal", isp.validate_density(m, 2, 2), expect)


def _ensemble_2x2(rng) -> Case:
    """(w, |a0><a0| (x) I/2) + (1-w, |a1><a1| (x) I/2): certified on side A."""
    while True:
        w = float(rng.uniform(0.1, 0.9))
        if abs(w - 0.5) > 1e-2:
            break
    ua = ref.haar_unitary(rng, 2)
    comps = []
    for weight, k in ((w, 0), (1.0 - w, 1)):
        proj = np.outer(ua[:, k], ua[:, k].conj())
        comps.append((weight, isp.validate_density(np.kron(proj, np.eye(2) / 2.0), 2, 2)))
    ens = isp.Ensemble(tuple(comps))
    s_avg = 1.0 + ref.binary_entropy(w)
    expect = {
        "category": "MixedPPT",
        "verdict": {"product"},
        "aev": None,
        "formation": (0.0, 2.0 - s_avg),
        "reversible": 0.0,
        "surplus": 1.0,
        "s_avg": s_avg,
        "local_min": min(ref.binary_entropy(w), 1.0),
    }
    return Case("ensemble-2x2", isp.ensemble_average(ens), expect, {"ensemble": ens})


def _ensemble_4x4(rng) -> Case:
    """Two Schmidt-rank-2 pure states on orthogonal halves of A: certified on side A."""
    w = float(rng.uniform(0.2, 0.8))
    ua = ref.haar_unitary(rng, 4)
    comps, costs, pt_terms = [], [], []
    for weight, k in ((w, 0), (1.0 - w, 1)):
        c2 = rng.dirichlet(np.ones(2))
        c = np.sqrt(c2)
        vb = ref.haar_unitary(rng, 4)[:, :2]
        psi = c[0] * np.kron(ua[:, 2 * k], vb[:, 0]) + c[1] * np.kron(ua[:, 2 * k + 1], vb[:, 1])
        comps.append((weight, isp.PureState(psi, 4, 4)))
        costs.append(weight * ref.entropy(c2))
        pt_terms.append(weight * float(c[0] * c[1]))
    ens = isp.Ensemble(tuple(comps))
    m = sum(weight * np.outer(psi.amplitudes, psi.amplitudes.conj()) for weight, psi in comps)
    avg = isp.DensityOperator(m, 4, 4)
    s_avg = ref.binary_entropy(w)
    expect = {
        "category": "MixedNPT",
        "ppt_min_eig": -max(pt_terms),
        "formation": (sum(costs), 4.0 - s_avg),
        "reversible": sum(costs),
        "surplus": 0.0,
        "s_avg": s_avg,
        "local_min": min(
            ref.matrix_entropy(ref.reduced(m, 4, 4, "A")), ref.matrix_entropy(ref.reduced(m, 4, 4, "B"))
        ),
    }
    return Case("ensemble-4x4", avg, expect, {"ensemble": ens})


def fault_states() -> list[Case]:
    """Locally rotated classically correlated and product-diagonal states, fixed seed."""
    rng = np.random.default_rng(FAULT_SEED)
    cases = []
    for k in range(FAULT_STATES):
        u = np.kron(ref.haar_unitary(rng, 2), ref.haar_unitary(rng, 2))
        if k % 2 == 0:
            p = rng.dirichlet(np.ones(2))
            lam, category = np.array([p[0], 0.0, 0.0, p[1]]), "ClassicallyCorrelated"
        else:
            lam, category = rng.dirichlet(np.ones(4)), "MixedPPT"
        m = (u * lam) @ u.conj().T
        m = (m + m.conj().T) / 2.0
        expect = {"category": category, "verdict": {"product"}, "aev": None}
        cases.append(Case("fault-probe", isp.validate_density(m, 2, 2), expect))
    return cases


def _scan_expect(grid) -> dict:
    slopes = []
    for p in grid:
        ec = ref.bell_ec(p)
        slopes.append(2.0 * p / (ec - 1.0 + 2.0 * p))
    live = [abs(s) for s in slopes]
    tail = live[(3 * len(live)) // 4 :]
    flag = live[-1] > 50.0 and all(b > a for a, b in zip(tail, tail[1:]))
    return {"grid": list(grid), "slopes": slopes, "flag": flag}


def setup(seed: int, tiny: bool = False) -> dict:
    rng = np.random.default_rng([seed, 2])
    grid = np.sort(rng.uniform(P_RANGE[0], 0.495, 40 if tiny else SCAN_POINTS))
    grid_expect = _scan_expect(grid)
    makers = {
        "bell-mixture": lambda: _bell_member(rng, grid_expect),
        "bell-diagonal": lambda: _bell_diagonal(rng),
        "global-aabb": lambda: _global_aabb(rng),
        "product-diagonal": lambda: _product_diagonal(rng),
        "ensemble-2x2": lambda: _ensemble_2x2(rng),
        "ensemble-4x4": lambda: _ensemble_4x4(rng),
    }
    layout = TINY_ROUND if tiny else ROUND
    rounds = [
        [makers[kind]() for kind, count in layout for _ in range(count)]
        for _ in range(1 if tiny else POOL_ROUNDS)
    ]
    return {"rounds": rounds, "faults": fault_states()}


def warm_up(plan, rec) -> None:
    for case in plan["rounds"][0]:
        if case.kind != "global-aabb":
            _run(case, rec)


def _verdicts(rho, rec, two_qubit: bool) -> dict:
    out = {}
    with rec.span("families.classify", d=rho.dim):
        out["class"] = isp.classify(rho)
    if two_qubit:
        with rec.span("ensembles.product_eigenbasis_check", d=rho.dim) as tags:
            out["verdict"] = isp.product_eigenbasis_check(rho).status.value
            tags["verdict"] = out["verdict"]
        with rec.span("ensembles.assumed_exact_values", d=rho.dim):
            try:
                aev = isp.assumed_exact_values(rho)
                out["aev"] = (aev.surplus, aev.reversible_cost)
            except isp.NotApplicable:
                out["aev"] = None
    return out


def _run(case: Case, rec) -> dict:
    if case.kind == "bell-mixture":
        p = case.extra["p"]
        with rec.span("families.bell_mixture", d=4):
            rho = isp.bell_mixture(p)
        out = _verdicts(rho, rec, True)
        with rec.span("ensembles.formation_point", d=4):
            out["split"] = isp.formation_point(case.extra["split"])
        with rec.span("families.bell_formation_points"):
            points = isp.bell_formation_points(p)
        with rec.span("curves.build_lower_envelope", points=len(points)):
            out["curve"] = isp.build_lower_envelope(points)
        env = out["curve"].envelope
        kinds = [isp.PointKind.FORMATION_ENDPOINT_EC] + [isp.PointKind.FORMATION_INTERMEDIATE] * (
            len(env) - 2
        ) + [isp.PointKind.FORMATION_ENDPOINT_ER]
        again = [isp.ProtocolPoint(q, i, k) for (q, i), k in zip(env, kinds)]
        with rec.span("curves.build_lower_envelope", points=len(again)):
            out["rebuilt"] = isp.build_lower_envelope(again)
        grid = case.expect["scan"]["grid"]
        with rec.span("curves.phase_scan", samples=len(grid)):
            out["scan"] = isp.phase_scan(isp.bell_formation_points, grid)
        return out
    out = _verdicts(case.rho, rec, case.kind != "ensemble-4x4")
    if case.kind.startswith("ensemble"):
        ens = case.extra["ensemble"]
        with rec.span("ensembles.formation_point", d=case.rho.dim):
            out["formation"] = isp.formation_point(ens)
        with rec.span("ensembles.reversible_cost_bound", d=case.rho.dim):
            out["reversible"] = isp.reversible_cost_bound(ens)
        with rec.span("ensembles.formation_surplus_bound", d=case.rho.dim):
            out["surplus"] = isp.formation_surplus_bound(ens)
    return out


def _wrong(case: Case, out: dict) -> list[str]:
    """Mismatches between the program's results and the expected ones."""
    exp = case.expect
    bad = []
    category = out["class"].category.value
    if category != exp["category"]:
        bad.append(f"category {category}, want {exp['category']}")
    if "ppt_min_eig" in exp and abs(out["class"].ppt_min_eig - exp["ppt_min_eig"]) > ref.TOL:
        bad.append(f"ppt_min_eig {out['class'].ppt_min_eig!r}, want {exp['ppt_min_eig']!r}")
    if "verdict" in exp:
        if out["verdict"] not in exp["verdict"]:
            bad.append(f"product-eigenbasis verdict {out['verdict']}, want {sorted(exp['verdict'])}")
        aev = out["aev"]
        if aev is None:
            if exp["aev"] is not None and not exp.get("aev_may_refuse"):
                bad.append("assumed_exact_values refused")
        elif exp["aev"] is None:
            bad.append(f"assumed_exact_values returned {aev}, must refuse")
        elif max(abs(x - y) for x, y in zip(aev, exp["aev"])) > ref.TOL:
            bad.append(f"assumed_exact_values {aev}, want {exp['aev']}")
    return bad


def _check(case: Case, out: dict, rec) -> None:
    tag = f"decisions {case.kind}"
    for msg in _wrong(case, out):
        rec.check(False, f"{tag}: {msg}")
    exp = case.expect
    if case.kind == "bell-mixture":
        split = out["split"]
        rec.close(split.q, exp["split"][0], ref.TOL, f"{tag}: split q")
        rec.close(split.i, exp["split"][1], ref.TOL, f"{tag}: split i")
        env = out["curve"].envelope
        want = exp["points"]
        rec.check(len(env) == 3, f"{tag}: envelope has {len(env)} vertices, want 3")
        for (q, i), (wq, wi) in zip(env, want):
            rec.close(q, wq, ref.TOL, f"{tag}: envelope vertex q")
            rec.close(i, wi, ref.TOL, f"{tag}: envelope vertex i")
        rec.check(out["rebuilt"].envelope == env, f"{tag}: rebuilding the envelope changed it")
        scan = out["scan"]
        slopes = exp["scan"]["slopes"]
        rec.check(len(scan.samples) == len(slopes), f"{tag}: scan sample count")
        for sample, slope in zip(scan.samples, slopes):
            rec.close(sample.slope, slope, ref.TOL * max(1.0, abs(slope)), f"{tag}: scan slope at p={sample.p}")
            rec.close(sample.chi * sample.slope, 1.0, ref.TOL, f"{tag}: chi*slope at p={sample.p}")
        rec.check(scan.divergence_flag == exp["scan"]["flag"], f"{tag}: divergence flag")
    if case.kind.startswith("ensemble"):
        f = out["formation"]
        rec.close(f.q, exp["formation"][0], ref.TOL, f"{tag}: formation q")
        rec.close(f.i, exp["formation"][1], ref.TOL, f"{tag}: formation i")
        rec.close(out["reversible"], exp["reversible"], ref.TOL, f"{tag}: reversible_cost_bound")
        rec.close(out["surplus"], exp["surplus"], ref.TOL, f"{tag}: formation_surplus_bound")
        rec.check(out["surplus"] <= exp["s_avg"] + ref.TOL, f"{tag}: surplus bound above S(avg)")
        rec.check(out["reversible"] <= exp["local_min"] + ref.TOL, f"{tag}: reversible bound above min(S_A, S_B)")


def run_round(plan, index: int, rec) -> None:
    rounds = plan["rounds"]
    for case in rounds[index % len(rounds)]:
        try:
            with rec.op(case.kind):
                out = _run(case, rec)
        except Exception as exc:  # a raising operation is a wrong result; keep running
            rec.check(False, f"decisions {case.kind}: raised {exc!r}")
            continue
        _check(case, out, rec)
    for case in plan["faults"]:
        try:
            with rec.op(case.kind):
                out = _run(case, rec)
            wrong = _wrong(case, out)
        except Exception as exc:  # counted like a wrong result, never a stop of the run
            wrong = [f"raised {exc!r}"]
        if wrong:
            rec.fail_op(case.kind)
