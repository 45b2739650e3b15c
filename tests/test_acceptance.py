"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import contextlib

import mpmath as mp
import numpy as np

from infospace import (
    DensityOperator,
    Ensemble,
    PureState,
    StateCategory,
    assumed_exact_values,
    bell_formation_points,
    bell_mixture,
    bell_mixture_ec,
    binary_entropy,
    build_lower_envelope,
    chi,
    classically_correlated,
    classify,
    ensemble_average,
    eof_2q,
    formation_endpoints,
    formation_surplus_bound,
    hermitian_eigensystem,
    information_content,
    local_entropies,
    partial_trace,
    phase_scan,
    pure_extraction_line,
    reversible_cost_bound,
    von_neumann_entropy,
)
from infospace.cli import main
from helpers import (
    BELL_PLUS,
    KET_00,
    KET_11,
    envelope_at,
    random_density_matrix,
    random_hermitian,
)


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def oracle_entropy(x) -> float:
    with mp.workdps(40):
        x = mp.mpf(x)
        if x in (0, 1):
            return 0.0
        return float(-x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2))


def test_criterion_1_closed_form_cost():
    with criterion("1 closed-form cost reproduction"):
        reference = oracle_entropy(mp.mpf("0.5") + mp.sqrt(3) / 4)
        assert abs(reference - 0.354578902665) < 1e-9
        assert abs(bell_mixture_ec(0.25) - reference) <= 1e-9
        for p in np.linspace(0.0, 0.5, 50):
            assert abs(eof_2q(bell_mixture(p)) - bell_mixture_ec(p)) <= 1e-9


def test_criterion_2_extreme_points():
    with criterion("2 extreme-point reproduction"):
        rho = bell_mixture(0.25)
        info = information_content(rho)
        values = assumed_exact_values(rho)
        low, high = formation_endpoints(
            info, values.surplus, bell_mixture_ec(0.25), values.reversible_cost
        )
        assert abs(low.q - 0.354578) <= 1e-6 and abs(low.i - 2.0) <= 1e-6
        assert abs(high.q - 1.0) <= 1e-6 and abs(high.i - 1.188722) <= 1e-6
        assert abs((low.i - info) - von_neumann_entropy(rho)) <= 1e-9
        assert abs(von_neumann_entropy(rho) - binary_entropy(0.25)) <= 1e-9


def test_criterion_3_intermediate_point_cheapness():
    with criterion("3 intermediate-point cheapness"):
        for p in np.arange(0.05, 0.5, 0.05):
            pts = bell_formation_points(p)
            curve = build_lower_envelope(pts)
            mid_q, mid_i = 1.0 - 2.0 * p, 2.0 - 2.0 * p
            ec = bell_mixture_ec(p)
            chord = 2.0 + (mid_q - ec) / (1.0 - ec) * (-binary_entropy(p))
            assert chord - mid_i > 0.0
            assert (mid_q, mid_i) in curve.envelope


def test_criterion_4_phase_transition_signature():
    with criterion("4 phase-transition signature"):
        grid = np.linspace(0.05, 0.49, 45)
        result = phase_scan(bell_formation_points, grid)
        magnitudes = []
        for sample in result.samples:
            p = sample.p
            predicted = 2.0 * p / (bell_mixture_ec(p) - 1.0 + 2.0 * p)
            assert abs(sample.slope - predicted) <= 1e-6
            assert abs(sample.chi * sample.slope - 1.0) <= 1e-9
            magnitudes.append(abs(sample.slope))
        assert all(b > a for a, b in zip(magnitudes, magnitudes[1:]))
        assert abs(magnitudes[-1] - 52.9) < 0.1
        assert result.divergence_flag


def test_criterion_5_pure_state_lines():
    with criterion("5 pure-state lines"):
        for n, e in ((2.0, 1.0), (2.0, binary_entropy(0.9)), (4.0, 2.0)):
            line = pure_extraction_line(n, e)
            probes = np.linspace(0.0, e, 12)[1:-1]
            for q in probes:
                assert abs(chi(line, q).slope + 1.0) <= 1e-9
                # one local bit per distilled singlet: I(q) + q <= I(0), saturated
                margin = envelope_at(line, 0.0) - (envelope_at(line, q) + q)
                assert abs(margin) <= 1e-9


def _certified_ensembles():
    amp1 = np.zeros(16, dtype=complex)
    amp1[0] = amp1[5] = 1 / np.sqrt(2)
    amp2 = np.zeros(16, dtype=complex)
    amp2[10] = amp2[15] = 1 / np.sqrt(2)
    return [
        Ensemble(((0.5, PureState(KET_00, 2, 2)), (0.5, PureState(KET_11, 2, 2)))),
        Ensemble(((1.0, PureState(BELL_PLUS, 2, 2)),)),
        Ensemble(((0.5, PureState(amp1, 4, 4)), (0.5, PureState(amp2, 4, 4)))),
        Ensemble(
            (
                (0.5, DensityOperator(np.diag([0.5, 0.5, 0, 0]).astype(complex), 2, 2)),
                (0.5, DensityOperator(np.diag([0, 0, 0.5, 0.5]).astype(complex), 2, 2)),
            )
        ),
        Ensemble(((1.0, classically_correlated([0.3, 0.7])),)),
        Ensemble(((0.25, classically_correlated([1.0, 0.0])), (0.75, classically_correlated([0.0, 1.0])))),
    ]


def test_criterion_6_bound_chains():
    with criterion("6 decomposition bound chains"):
        for ensemble in _certified_ensembles():
            avg = ensemble_average(ensemble)
            assert formation_surplus_bound(ensemble) <= von_neumann_entropy(avg) + 1e-9
            assert reversible_cost_bound(ensemble) <= min(local_entropies(avg)) + 1e-9


def test_criterion_7_classification():
    # the p = 0 member is a pure Bell state, so the purity gate assigns the
    # pure-entangled category there; its partial-transpose evidence still
    # matches p - 1/2 like the rest of the family
    with criterion("7 classification"):
        for p in (0.0, 0.1, 0.25, 0.4):
            result = classify(bell_mixture(p))
            assert abs(result.ppt_min_eig - (p - 0.5)) <= 1e-9
            if p == 0.0:
                assert result.category is StateCategory.PURE_ENTANGLED
            else:
                assert result.category is StateCategory.MIXED_NPT
        assert classify(bell_mixture(0.5)).category is StateCategory.CLASSICALLY_CORRELATED


def test_criterion_8_numerical_core(capsys):
    with criterion("8 numerical core"):
        rng = np.random.default_rng(2026)
        for dim in (4, 16):
            for _ in range(100):
                m = random_hermitian(rng, dim)
                w, v = hermitian_eigensystem(m)
                assert np.max(np.abs((v * w) @ v.conj().T - m)) <= 1e-8
        for _ in range(20):
            rho = DensityOperator(random_density_matrix(rng, 4), 2, 2)
            for side in ("A", "B"):
                tr = complex(np.trace(partial_trace(rho, side).matrix))
                assert abs(tr - 1.0) <= 1e-10
        goldens = [
            ["curve", "--family", "bell-mixture", "--p", "0.25"],
            ["curve", "--family", "bell-mixture", "--p", "0.05"],
            ["curve", "--family", "bell-mixture", "--p", "0.45"],
            ["phase-scan", "--p-min", "0.05", "--p-max", "0.49", "--steps", "45"],
        ]
        for argv in goldens:
            runs = []
            for _ in range(2):
                assert main(argv) == 0
                runs.append(capsys.readouterr().out)
            assert runs[0] == runs[1]
            assert runs[0]  # nonempty
