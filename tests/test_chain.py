import numpy as np
import pytest
from numpy.testing import assert_allclose

from cqi_sim import chain, hilbert
from cqi_sim.chain import ChainSpec, run_chain, unmeasured_comparison
from cqi_sim.errors import NumericalValidationError
from cqi_sim.utils import haar_unitary

from oracles import chain_distribution_exhaustive, general_interaction_probe_loop

RNG = np.random.default_rng(42)

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def random_spec(rng, d, n_observers):
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    amps /= np.linalg.norm(amps)
    overlaps = tuple(haar_unitary(rng, d) for _ in range(n_observers - 1))
    return ChainSpec(amps, overlaps)


class TestValidation:
    def test_unnormalized_initial(self):
        with pytest.raises(NumericalValidationError):
            ChainSpec(np.array([1.0, 1.0]), ())

    def test_non_unitary_overlap(self):
        with pytest.raises(NumericalValidationError):
            ChainSpec(np.array([1.0, 0.0]), (np.array([[1, 1], [0, 1]]),))


class TestTwoObservers:
    def test_first_observer_sees_amplitudes_squared(self):
        spec = ChainSpec(np.array([0.6, 0.8]), (haar_unitary(RNG, 2),))
        res = run_chain(spec)
        assert_allclose(res.distributions[0].probs, [0.36, 0.64], atol=1e-12)

    def test_second_observer_incoherent_sum(self):
        u = haar_unitary(RNG, 2)
        alpha = np.array([0.6, 0.8j])
        res = run_chain(ChainSpec(alpha, (u,)))
        expect = [
            sum(abs(alpha[i]) ** 2 * abs(u[i, j]) ** 2 for i in range(2))
            for j in range(2)
        ]
        assert_allclose(res.distributions[1].probs, expect, atol=1e-12)

    def test_identity_overlap_repeats_statistics(self):
        spec = ChainSpec(np.array([0.6, 0.8]), (np.eye(2),))
        res = run_chain(spec)
        assert_allclose(res.distributions[1].probs, res.distributions[0].probs, atol=1e-14)
        assert res.entropies[1] == pytest.approx(res.entropies[0], abs=1e-12)


class TestChainRule:
    def test_qutrit_chain_matches_exhaustive_sum(self):
        spec = random_spec(RNG, 3, 3)
        res = run_chain(spec)
        for n in range(3):
            oracle = chain_distribution_exhaustive(spec.initial, spec.overlaps, n + 1)
            assert_allclose(res.distributions[n].probs, oracle, atol=1e-12)

    def test_random_chains_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            spec = random_spec(rng, d, n)
            res = run_chain(spec)
            oracle = chain_distribution_exhaustive(spec.initial, spec.overlaps, n)
            assert_allclose(res.distributions[-1].probs, oracle, atol=1e-10)


class TestEffectiveCollapse:
    def test_basis_state_input_insensitive(self):
        # initial basis state: measured and unmeasured agree
        spec = ChainSpec(np.array([1.0, 0.0]), (HADAMARD,))
        with_alice = run_chain(spec).distributions[1].probs
        without = unmeasured_comparison(spec).probs
        assert_allclose(with_alice, [0.5, 0.5], atol=1e-14)
        assert_allclose(without, [0.5, 0.5], atol=1e-14)

    def test_superposition_interference_destroyed(self):
        spec = ChainSpec(np.array([1.0, 1.0]) / np.sqrt(2), (HADAMARD,))
        with_alice = run_chain(spec).distributions[1].probs
        without = unmeasured_comparison(spec).probs
        assert_allclose(without, [1.0, 0.0], atol=1e-14)
        assert_allclose(with_alice, [0.5, 0.5], atol=1e-14)

    def test_identity_overlap_no_difference(self):
        alpha = np.array([0.6, 0.8j])
        spec = ChainSpec(alpha, (np.eye(2),))
        assert_allclose(
            unmeasured_comparison(spec).probs,
            run_chain(spec).distributions[1].probs,
            atol=1e-14,
        )

    def test_needs_two_observers(self):
        with pytest.raises(NumericalValidationError):
            unmeasured_comparison(ChainSpec(np.array([1.0, 0.0]), ()))


class TestEntropyArrow:
    def test_identity_chain_constant(self):
        spec = ChainSpec(np.array([0.6, 0.8]), (np.eye(2), np.eye(2)))
        ents = list(run_chain(spec).entropies)
        assert_allclose(ents, [ents[0]] * 3, atol=1e-12)

    def test_mutually_unbiased_stage(self):
        spec = ChainSpec(np.array([0.6, 0.8]), (HADAMARD,))
        ents = list(run_chain(spec).entropies)
        h = -0.36 * np.log2(0.36) - 0.64 * np.log2(0.64)
        assert_allclose(ents, [h, 1.0], atol=1e-12)
        assert ents[0] <= ents[1] + 1e-9

    def test_random_chains_monotone(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            res = run_chain(random_spec(rng, d, n))
            ents = res.entropies
            assert all(ents[i + 1] >= ents[i] - 1e-9 for i in range(len(ents) - 1))

    def test_system_matches_last_observer(self):
        res = run_chain(random_spec(RNG, 3, 3))
        assert chain.system_entropy(res) == pytest.approx(res.entropies[-1], abs=1e-9)

    def test_global_state_pure(self):
        res = run_chain(random_spec(RNG, 4, 3))
        assert res.global_state.norm() == pytest.approx(1.0, abs=1e-12)
        s = hilbert.von_neumann_entropy(hilbert.density(res.global_state))
        assert s == pytest.approx(0.0, abs=1e-9)


class TestPreferredBasisOfObservers:
    def test_second_observer_diagonal_in_outcome_basis(self):
        spec = random_spec(RNG, 3, 2)
        res = run_chain(spec)
        pb = hilbert.preferred_basis(res.observer_states[1])
        if not pb.degenerate:
            # eigenvectors are computational basis vectors up to order/phase
            overlap = np.abs(pb.basis)
            assert_allclose(np.sort(overlap.max(axis=0)), [1.0] * 3, atol=1e-9)


class TestInefficientDetector:
    def test_perfect_detector_limit(self):
        rho_qa, rho_qda = chain.inefficient_detector(0.6, 0.0, 0.8)
        assert_allclose(rho_qa.matrix, np.diag([0.36, 0.64]), atol=1e-14)
        assert_allclose(rho_qda.matrix, np.diag([0.36, 0.64]), atol=1e-14)

    def test_equal_amplitudes(self):
        s = 1 / np.sqrt(3)
        rho_qa, rho_qda = chain.inefficient_detector(s, s, s)
        assert_allclose(rho_qda.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)
        # two-factor model keeps an off-diagonal term of size |gamma * delta|
        assert abs(rho_qa.matrix[0, 1]) == pytest.approx(1 / 3, abs=1e-12)

    def test_three_factor_model_always_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            _, rho_qda = chain.inefficient_detector(*v)
            off = rho_qda.matrix[0, 1]
            assert abs(off) < 1e-12

    def test_three_factor_preferred_basis_is_computational(self):
        _, rho_qda = chain.inefficient_detector(0.8, 0.36, np.sqrt(1 - 0.64 - 0.36**2))
        pb = hilbert.preferred_basis(rho_qda)
        assert not pb.degenerate
        assert_allclose(np.abs(pb.basis), np.eye(2), atol=1e-12)

    def test_normalization_enforced(self):
        with pytest.raises(NumericalValidationError):
            chain.inefficient_detector(1.0, 1.0, 1.0)


@pytest.mark.parametrize("d, n_cases", [(2, 50), (2, 1), (3, 12), (2, 0)])
@pytest.mark.parametrize("seed", [0, 3])
def test_general_interaction_probe_matches_per_case_oracle(seed, d, n_cases):
    got = chain.general_interaction_probe(seed, n_cases, d)
    want = general_interaction_probe_loop(seed, n_cases, d)
    for key in ("cases", "monotone", "violations"):
        assert got[key] == want[key]
    assert abs(got["worst_entropy_drop_bits"] - want["worst_entropy_drop_bits"]) <= 1e-15


def test_general_interaction_probe_reports():
    out = chain.general_interaction_probe(seed=1, n_cases=10)
    assert out["cases"] == 10
    assert out["monotone"] + out["violations"] == 10
    assert out["worst_entropy_drop_bits"] >= 0.0
