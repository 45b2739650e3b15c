"""Each DensityOperator decomposes itself, builds its reduced states and decides its
category, product-eigenbasis verdict, closed-form values and component cost at most
once per tolerance value, each Ensemble its certificate, formation point and bounds,
each PureState builds its reduced states at most once and never a projector, and no
check is weakened."""

import dataclasses
import functools
import inspect
import pickle
import sys

import numpy as np
import pytest

from infospace import (
    DEFAULT,
    ComponentCostUnknown,
    DensityOperator,
    EigenConvergenceError,
    Ensemble,
    NotApplicable,
    NotCertifiedOrthogonal,
    NotHermitian,
    ProductBasis,
    PureState,
    assumed_exact_values,
    bell_mixture,
    classically_correlated,
    classify,
    concurrence_2q,
    ensemble_average,
    eof_2q,
    formation_point,
    formation_surplus_bound,
    hermitian_eigensystem,
    local_entropies,
    local_orthogonality_check,
    measure_report,
    partial_trace,
    partial_transpose,
    product_eigenbasis_check,
    pure_state_entanglement,
    reversible_cost_bound,
    support_projector,
    validate_density,
    von_neumann_entropy,
)
from infospace import ensembles
from infospace.cli import main
from infospace.ensembles import _component_cost, _mixed_component_cost
from infospace.linalg import _decided
from infospace.tolerances import Tolerances
from helpers import (
    BELL_MINUS,
    BELL_PLUS,
    KET_00,
    KET_11,
    global_aabb,
    random_density_matrix,
    random_local_unitary,
    random_state_vector,
    random_unitary,
    record_eigh,
    record_svd,
    rotated_spectrum,
    split_decomposition,
)


def _two_qubit_states():
    rng = np.random.default_rng(17)
    return {
        "bell-mixture": bell_mixture(0.2).matrix,
        "random-mixed": random_density_matrix(rng, 4),
        "global-aabb": global_aabb(rng, 0.1),
        "pure": np.outer(BELL_PLUS, BELL_PLUS.conj()),
    }


def _readers(rho):
    """Every public reader of the stored results, as functions of ``tol``."""
    # side B: the Hermiticity test's perturbation shows in that reduced state only
    readers = [
        rho.eigensystem,
        rho.partial_transpose_spectrum,
        lambda tol: partial_trace(rho, "B").eigensystem(tol),
    ]
    fns = [von_neumann_entropy, measure_report, classify, support_projector, local_entropies]
    if (rho.dim_a, rho.dim_b) == (2, 2):
        fns += [concurrence_2q, eof_2q, product_eigenbasis_check, assumed_exact_values]
    return readers + [functools.partial(f, rho) for f in fns]


def _locally_rotated_states():
    """Two-qubit states of known verdict, each under its own random local unitary."""
    rng = np.random.default_rng(43)
    psi_plus = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    psi_minus = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    bell = np.column_stack([BELL_PLUS, BELL_MINUS, psi_plus, psi_minus])
    states = {}
    for k in range(3):
        a = float(rng.uniform(0.05, 0.2))
        aabb = [a, a, 0.5 - a, 0.5 - a]
        p = rng.dirichlet(np.ones(2))
        states[f"classical-{k}"] = (
            rotated_spectrum(random_local_unitary(rng), [p[0], 0.0, 0.0, p[1]]),
            ProductBasis.PRODUCT,
        )
        states[f"product-{k}"] = (
            rotated_spectrum(random_local_unitary(rng), rng.dirichlet(np.ones(4))),
            ProductBasis.PRODUCT,
        )
        states[f"product-aabb-{k}"] = (
            rotated_spectrum(random_local_unitary(rng), aabb),
            ProductBasis.PRODUCT,
        )
        states[f"bell-diagonal-{k}"] = (
            rotated_spectrum(random_local_unitary(rng) @ bell, rng.dirichlet(np.ones(4))),
            ProductBasis.NO,
        )
        u = random_local_unitary(rng) @ random_unitary(rng, 4)
        states[f"global-aabb-{k}"] = (rotated_spectrum(u, aabb), ProductBasis.NO)
    return states


_LOCALLY_ROTATED = _locally_rotated_states()


def _verdict_pass(rho):
    """classify, the direct check and the closed form on one state."""
    classify(rho)
    product_eigenbasis_check(rho)
    try:
        assumed_exact_values(rho)
    except NotApplicable:  # product eigenbasis
        pass


def _certified_pair():
    return Ensemble(((0.5, PureState(KET_00, 2, 2)), (0.5, PureState(KET_11, 2, 2))))


def _pure_state(name):
    rng = np.random.default_rng(71)
    dims = {"bell": None, "random-2x2": (2, 2), "random-2x4": (2, 4), "random-4x4": (4, 4)}[name]
    if dims is None:
        return PureState(BELL_PLUS, 2, 2)
    return PureState(random_state_vector(rng, dims[0] * dims[1]), *dims)


_PURE_STATES = ["bell", "random-2x2", "random-2x4", "random-4x4"]


def _pure_blocks_4x4():
    """Two Schmidt-rank-2 pure states on orthogonal halves of A: certified on side A."""
    rng = np.random.default_rng(73)
    comps = []
    for k, weight in enumerate((0.3, 0.7)):
        b = random_unitary(rng, 4)
        amp = (np.kron(np.eye(4)[2 * k], b[:, 0]) + np.kron(np.eye(4)[2 * k + 1], b[:, 1])) / np.sqrt(2)
        comps.append((weight, PureState(amp, 4, 4)))
    return Ensemble(tuple(comps))


def _mixed_components():
    """Component matrices and dims, one per cost rule (rotated ones by seed)."""
    rng = np.random.default_rng(79)
    a = random_unitary(rng, 2)[:, 0]
    return {
        "classical": (classically_correlated([0.5, 0.5]).matrix, 2, 2),
        "classical-rotated": (rotated_spectrum(random_local_unitary(rng), [0.5, 0, 0, 0.5]), 2, 2),
        "half-mixed-block": (np.kron(np.outer(a, a.conj()), np.eye(2) / 2), 2, 2),
        "bell-diagonal": (bell_mixture(0.2).matrix, 2, 2),
        "classical-4x4": (classically_correlated([0.2, 0.3, 0.1, 0.4]).matrix, 4, 4),
    }


_MIXED = _mixed_components()


# input builder, call, eigh calls the call makes on an input built beforehand
_ENSEMBLE_CALLS = {
    "formation_point-split": (lambda: split_decomposition(0.25), formation_point, 7),
    "formation_point-pair": (_certified_pair, formation_point, 3),
    "reversible_cost_bound": (_certified_pair, reversible_cost_bound, 4),
    "formation_surplus_bound": (_certified_pair, formation_surplus_bound, 3),
    "assumed_exact_values": (lambda: bell_mixture(0.25), assumed_exact_values, 2),
}


class TestIdentity:
    def test_states_compare_and_hash_by_identity(self):
        rho, other = bell_mixture(0.2), bell_mixture(0.2)
        assert rho == rho and rho != other
        assert rho in [rho] and rho not in [other]
        assert len({rho, other, rho}) == 2
        psi = PureState(BELL_PLUS, 2, 2)
        assert psi == psi and psi != PureState(BELL_PLUS, 2, 2)
        assert hash(psi) == hash(psi)

    def test_stored_decompositions_do_not_enter_comparisons(self):
        rho = bell_mixture(0.2)
        before = hash(rho)
        von_neumann_entropy(rho)
        classify(rho)
        assert hash(rho) == before and rho == rho


class TestDecompositionCounts:
    @pytest.mark.parametrize("name", sorted(_two_qubit_states()))
    def test_one_decomposition_per_operator(self, monkeypatch, name):
        m = _two_qubit_states()[name]
        shapes = record_eigh(monkeypatch)
        rho = validate_density(m, 2, 2)
        measure_report(rho)
        classify(rho)
        concurrence_2q(rho)
        eof_2q(rho)
        # rho and its partial transpose, then the two reduced states; a pure state's
        # local entropies come from its eigenvector, so it decomposes no reduced state
        want = [(4, 4), (4, 4)] if name == "pure" else [(2, 2), (2, 2), (4, 4), (4, 4)]
        assert sorted(shapes) == want

    def test_verdict_and_closed_form_pass(self, monkeypatch):
        m = global_aabb(np.random.default_rng(5), 0.15)
        shapes = record_eigh(monkeypatch)
        rho = validate_density(m, 2, 2)
        classify(rho)
        product_eigenbasis_check(rho)
        assumed_exact_values(rho)
        assert sorted(shapes) == [(2, 2), (2, 2), (4, 4), (4, 4)]

    def test_larger_state(self, monkeypatch):
        m = random_density_matrix(np.random.default_rng(8), 16)
        shapes = record_eigh(monkeypatch)
        rho = validate_density(m, 4, 4)
        measure_report(rho)
        classify(rho)
        assert sorted(shapes) == [(4, 4), (4, 4), (16, 16), (16, 16)]

    def test_component_cost_reuses_the_component(self, monkeypatch):
        rho = bell_mixture(0.2)
        shapes = record_eigh(monkeypatch)
        cost = _component_cost(rho, DEFAULT)
        assert (4, 4) not in shapes
        assert cost.s == pytest.approx(von_neumann_entropy(rho), abs=1e-15)

    @pytest.mark.parametrize("name", ["bell-diagonal-0", "product-0", "classical-0"])
    def test_one_verdict_per_operator(self, monkeypatch, name):
        m, _ = _LOCALLY_ROTATED[name]
        shapes = record_svd(monkeypatch)
        product_eigenbasis_check(validate_density(m, 2, 2))
        once = len(shapes)
        _verdict_pass(validate_density(m, 2, 2))
        assert once > 0 and len(shapes) == 2 * once

    def test_second_closed_form_pass_decomposes_nothing(self, monkeypatch):
        rho = bell_mixture(0.25)
        first = assumed_exact_values(rho)
        shapes = record_eigh(monkeypatch)
        assert assumed_exact_values(rho) == first
        assert shapes == []

    @pytest.mark.parametrize("name", sorted(_ENSEMBLE_CALLS))
    def test_ensemble_call_counts(self, monkeypatch, name):
        build, call, count = _ENSEMBLE_CALLS[name]
        arg = build()
        shapes = record_eigh(monkeypatch)
        call(arg)
        assert len(shapes) == count


class TestPureComponents:
    @pytest.mark.parametrize("name", _PURE_STATES)
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_reduced_states_come_from_the_amplitudes(self, name, side):
        psi = _pure_state(name)
        reduced = partial_trace(psi, side)
        assert partial_trace(psi, side) is reduced
        want = partial_trace(psi.projector(), side)
        assert (reduced.dim_a, reduced.dim_b) == (want.dim_a, want.dim_b)
        assert np.max(np.abs(reduced.matrix - want.matrix)) <= 1e-15
        with pytest.raises(ValueError):
            reduced.matrix[0, 0] = 0.0

    @pytest.mark.parametrize("name", _PURE_STATES)
    def test_local_entropies_equal_the_entanglement(self, name):
        psi = _pure_state(name)
        e = pure_state_entanglement(psi)
        s_a, s_b = local_entropies(psi)
        assert abs(s_a - e) <= 1e-12 and abs(s_b - e) <= 1e-12

    @pytest.mark.parametrize("build", [_certified_pair, _pure_blocks_4x4], ids=["2x2", "4x4"])
    def test_no_component_becomes_a_projector(self, monkeypatch, build):
        e = build()
        monkeypatch.setattr(PureState, "projector", lambda self: pytest.fail("projector built"))
        for call in (ensemble_average, formation_point, reversible_cost_bound, formation_surplus_bound):
            call(e)

    @pytest.mark.parametrize("call", [formation_point, reversible_cost_bound, formation_surplus_bound])
    @pytest.mark.parametrize("build", [_certified_pair, _pure_blocks_4x4], ids=["2x2", "4x4"])
    def test_second_call_decomposes_nothing(self, monkeypatch, build, call):
        e = build()
        first = call(e)
        shapes = record_eigh(monkeypatch)
        assert call(e) is first
        assert shapes == []


class TestStoredComponentCost:
    @pytest.mark.parametrize("name", sorted(_MIXED))
    def test_stored_cost_equals_a_fresh_one(self, monkeypatch, name):
        m, dim_a, dim_b = _MIXED[name]
        rho = validate_density(m, dim_a, dim_b)
        cost = _component_cost(rho, DEFAULT)
        shapes = record_eigh(monkeypatch) + record_svd(monkeypatch)
        assert _component_cost(rho, DEFAULT) is cost
        assert shapes == []
        assert _component_cost(validate_density(m, dim_a, dim_b), DEFAULT) == cost

    def test_other_tolerances_decide_afresh(self, monkeypatch):
        m, _, _ = _MIXED["classical-rotated"]
        rho = validate_density(m, 2, 2)
        cost = _component_cost(rho, DEFAULT)
        strict = dataclasses.replace(DEFAULT, eigen_residual=1e-30)
        with pytest.raises(EigenConvergenceError):
            _component_cost(rho, strict)
        shapes = record_svd(monkeypatch)
        other = _component_cost(rho, dataclasses.replace(DEFAULT, overlap=2e-9))
        assert shapes and other == cost and other is not cost

    def test_unknown_cost_is_not_stored(self):
        odd = validate_density(
            0.5 * np.outer(BELL_PLUS, BELL_PLUS.conj()) + 0.5 * np.outer(KET_00, KET_00), 2, 2
        )
        for _ in range(2):
            with pytest.raises(ComponentCostUnknown):
                _component_cost(odd, DEFAULT)
        assert [decide for decide, _ in odd._decisions] != []
        assert all(decide is not _mixed_component_cost for decide, _ in odd._decisions)


def _mixed_two_qubit():
    return validate_density(random_density_matrix(np.random.default_rng(37), 4), 2, 2)


def _mixed_4x4():
    return validate_density(random_density_matrix(np.random.default_rng(41), 16), 4, 4)


def _mixed_component():
    return validate_density(*_MIXED["classical-rotated"])


# every stored decision: input builder (a new object with the same content per
# call, and residuals above 1e-30) and the decorated call
_DECISIONS = {
    "_mixed_component_cost": (_mixed_component, _mixed_component_cost),
    "classify": (_mixed_two_qubit, classify),
    "classify-4x4": (_mixed_4x4, classify),
    "product_eigenbasis_check": (_mixed_two_qubit, product_eigenbasis_check),
    "assumed_exact_values": (_mixed_two_qubit, assumed_exact_values),
    "local_orthogonality_check": (_pure_blocks_4x4, local_orthogonality_check),
    "formation_point": (_pure_blocks_4x4, formation_point),
    "reversible_cost_bound": (_pure_blocks_4x4, reversible_cost_bound),
    "formation_surplus_bound": (_pure_blocks_4x4, formation_surplus_bound),
}


class TestStoredDecisions:
    @pytest.mark.parametrize("name", sorted(_DECISIONS))
    def test_keyed_by_the_decorated_function(self, name):
        build, call = _DECISIONS[name]
        obj = build()
        call(obj)
        assert (call, DEFAULT) in obj._decisions

    @pytest.mark.parametrize("name", sorted(_DECISIONS))
    def test_keeps_name_module_docstring_and_signature(self, name):
        _, call = _DECISIONS[name]
        assert call.__name__ == name.split("-")[0]
        assert getattr(sys.modules[call.__module__], call.__name__) is call
        assert call.__doc__ and call.__doc__ != _decided.__doc__
        first, tol = inspect.signature(call).parameters.values()
        assert first.kind is inspect.Parameter.POSITIONAL_ONLY
        assert tol.name == "tol" and tol.default is DEFAULT

    @pytest.mark.parametrize("name", sorted(_DECISIONS))
    def test_equal_tolerances_return_the_stored_result(self, monkeypatch, name):
        build, call = _DECISIONS[name]
        obj = build()
        first = call(obj)
        shapes = record_eigh(monkeypatch) + record_svd(monkeypatch)
        assert call(obj) is first
        assert call(obj, Tolerances()) is first
        assert shapes == []

    @pytest.mark.parametrize("name", sorted(_DECISIONS))
    def test_stored_result_equals_a_fresh_one(self, name):
        build, call = _DECISIONS[name]
        obj = build()
        call(obj)
        stored = call(obj)
        assert stored == call(build())

    @pytest.mark.parametrize("name", sorted(_DECISIONS))
    def test_other_tolerances_decide_afresh(self, name):
        build, call = _DECISIONS[name]
        obj = build()
        first = call(obj)
        strict = dataclasses.replace(DEFAULT, eigen_residual=1e-30)
        with pytest.raises(EigenConvergenceError):
            call(obj, strict)
        other = dataclasses.replace(DEFAULT, overlap=2e-9)
        before = set(obj._decisions)
        again = call(obj, other)
        assert any(tol is other for _, tol in set(obj._decisions) - before)
        assert again == first and call(obj) is first

    @pytest.mark.parametrize(
        "rho",
        [PureState(BELL_PLUS, 2, 2).projector(), classically_correlated([0.3, 0.7])],
        ids=["pure", "product-basis"],
    )
    def test_refused_closed_form_is_not_stored(self, rho):
        for _ in range(2):
            with pytest.raises(NotApplicable):
                assumed_exact_values(rho)
        assert all(decide is not assumed_exact_values for decide, _ in rho._decisions)

    def test_uncertified_bounds_are_not_stored(self):
        e = split_decomposition(0.25)
        for _ in range(2):
            for call in (reversible_cost_bound, formation_surplus_bound):
                with pytest.raises(NotCertifiedOrthogonal):
                    call(e)
        decided = [decide for decide, _ in e._decisions]
        assert decided == [local_orthogonality_check]
        assert local_orthogonality_check(e).certified is False

    @pytest.mark.parametrize("build", [_certified_pair, _pure_blocks_4x4], ids=["2x2", "4x4"])
    def test_one_certificate_for_the_point_and_both_bounds(self, monkeypatch, build):
        calls = []
        original = ensembles.support_projector

        def counted(rho, tol=DEFAULT):
            calls.append(rho)
            return original(rho, tol)

        monkeypatch.setattr(ensembles, "support_projector", counted)
        local_orthogonality_check(build())
        once = len(calls)
        calls.clear()
        e = build()
        for call in (formation_point, reversible_cost_bound, formation_surplus_bound):
            call(e)
        assert once > 0 and len(calls) == once


class TestTolerancesHash:
    def test_equal_instances_hash_equal_and_share_one_decision(self):
        same, other = Tolerances(), dataclasses.replace(DEFAULT, overlap=2e-9)
        assert same == DEFAULT and same is not DEFAULT and hash(same) == hash(DEFAULT)
        assert dataclasses.replace(DEFAULT, overlap=2e-9) == other
        assert hash(dataclasses.replace(DEFAULT, overlap=2e-9)) == hash(other)
        fields = tuple(getattr(other, f.name) for f in dataclasses.fields(other))
        assert hash(other) == hash(fields)
        rho = _mixed_two_qubit()
        assert classify(rho, same) is classify(rho, DEFAULT)
        assert len(rho._decisions) == 2  # classify and the product-eigenbasis verdict

    def test_replace_and_pickle_keep_values_and_hash(self):
        other = dataclasses.replace(DEFAULT, schmidt=1e-8)
        assert other.schmidt == 1e-8 and other.overlap == DEFAULT.overlap
        back = pickle.loads(pickle.dumps(other))
        assert back == other and hash(back) == hash(other)
        assert dataclasses.replace(other, schmidt=DEFAULT.schmidt) == DEFAULT
        assert repr(DEFAULT).startswith("Tolerances(hermiticity=1e-10,")
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT.overlap = 1.0


class TestSupportProjector:
    @pytest.mark.parametrize(
        "rho, rank",
        [
            (PureState(BELL_PLUS, 2, 2).projector(), 2),
            (PureState(KET_00, 2, 2).projector(), 1),
            (classically_correlated([0.3, 0.7]), 2),
        ],
        ids=["bell", "product", "classical"],
    )
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_projector_onto_the_support(self, rho, rank, side):
        p = support_projector(partial_trace(rho, side))
        assert np.max(np.abs(p - p.conj().T)) <= 1e-15
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        assert np.trace(p).real == pytest.approx(rank, abs=1e-12)


class TestChecksStayFull:
    def test_residual_certificate_after_default_use(self):
        rho = validate_density(random_density_matrix(np.random.default_rng(23), 4), 2, 2)
        strict = dataclasses.replace(DEFAULT, eigen_residual=1e-30)
        for reader in _readers(rho):
            reader(DEFAULT)
            with pytest.raises(EigenConvergenceError, match="residual"):
                reader(strict)

    def test_hermiticity_checked_on_every_call(self):
        m = random_density_matrix(np.random.default_rng(29), 4)
        m[0, 1] += 1e-11  # outside a 1e-12 tolerance, inside the default 1e-10
        rho = DensityOperator(m, 2, 2)
        tight = dataclasses.replace(DEFAULT, hermiticity=1e-12)
        for _ in range(2):
            for reader in _readers(rho):
                with pytest.raises(NotHermitian):
                    reader(tight)
                reader(DEFAULT)
        assert np.array_equal(rho.eigensystem()[0], hermitian_eigensystem(m)[0])
        pt_raw, _ = hermitian_eigensystem(partial_transpose(rho))
        assert np.array_equal(rho.partial_transpose_spectrum(), pt_raw)
        with pytest.raises(NotHermitian):
            hermitian_eigensystem(partial_transpose(rho), tight)

    def test_returned_arrays_are_read_only(self):
        rho = bell_mixture(0.2)
        w, v = rho.eigensystem()
        pt = rho.partial_transpose_spectrum()
        for a in (w, v, pt):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert np.array_equal(rho.eigensystem()[0], w)

    @pytest.mark.parametrize(
        "rho",
        [
            classically_correlated([0.3, 0.7]),  # 1-dim and 2-dim eigenspaces
            PureState(KET_00, 2, 2).projector(),  # a 3-dim kernel
            validate_density(np.eye(4) / 4, 2, 2),  # one 4-dim eigenspace
        ],
        ids=["classical", "pure-product", "maximally-mixed"],
    )
    def test_stored_reduced_states_and_factors_are_read_only(self, rho):
        for side in ("A", "B"):
            reduced = partial_trace(rho, side)
            assert partial_trace(rho, side) is reduced
            with pytest.raises(ValueError):
                reduced.matrix[0, 0] = 0.0
        result = product_eigenbasis_check(rho)
        assert result.status is ProductBasis.PRODUCT and len(result.values) == 4
        assert result.factors.shape == (4, 2, 2) and not result.factors.flags.writeable
        assert all(type(val) is float for val in result.values)
        for a, b in result.factors:
            for factor in (a, b):
                with pytest.raises(ValueError):
                    factor[0] = 0.0
        assert product_eigenbasis_check(rho) is result

    @pytest.mark.parametrize("name", sorted(_LOCALLY_ROTATED))
    def test_stored_verdict_equals_a_fresh_one(self, name):
        m, status = _LOCALLY_ROTATED[name]
        rho = validate_density(m, 2, 2)
        _verdict_pass(rho)
        stored = product_eigenbasis_check(rho)
        fresh = product_eigenbasis_check(validate_density(m, 2, 2))
        assert stored.status is fresh.status is status
        if status is ProductBasis.NO:
            assert stored.factors is fresh.factors is None
            assert stored.values == fresh.values == ()
            return
        assert len(stored.values) == len(fresh.values) == 4
        assert stored.values == fresh.values
        assert np.array_equal(stored.factors, fresh.factors)

    def test_lapack_failure_is_not_stored(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        v = random_state_vector(np.random.default_rng(31), 4)
        rho = DensityOperator(0.5 * np.outer(v, v.conj()) + np.eye(4) / 8, 2, 2)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", fail)
            for reader in (von_neumann_entropy, classify, measure_report):
                with pytest.raises(EigenConvergenceError):
                    reader(rho)
            assert main(["classify", "--family", "bell-mixture", "--p", "0.25"]) == 2
            assert "did not converge" in capsys.readouterr().err
        w, _ = rho.eigensystem()
        assert np.array_equal(w, hermitian_eigensystem(rho.matrix)[0])
        assert classify(rho).ppt_min_eig == pytest.approx(
            hermitian_eigensystem(partial_transpose(rho))[0][0], abs=1e-15
        )
