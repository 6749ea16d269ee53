import numpy as np
import pytest
from numpy.testing import assert_allclose

from cqi_sim import epr, hilbert
from cqi_sim.epr import EprConfig
from cqi_sim.errors import NumericalValidationError
from cqi_sim.utils import haar_unitary, is_unitary

from oracles import haar_unitary_single, no_communication_loop

RNG = np.random.default_rng(11)

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def random_pair(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return v[0], v[1]


class TestFinalState:
    def test_unentangled_pair_is_product(self):
        ket = epr.epr_final_state(EprConfig(1.0, 0.0))
        amps = np.zeros(16)
        amps[0] = 1.0
        assert_allclose(ket.amplitudes, amps, atol=1e-14)

    def test_bell_schmidt_coefficients(self):
        s = 1 / np.sqrt(2)
        ket = epr.epr_final_state(EprConfig(s, s))
        out = hilbert.schmidt_decompose(ket, {0, 1})  # (Q1, A) vs (Q2, B)
        coeffs = [c for c, _, _ in out]
        assert_allclose(coeffs, [s, s], atol=1e-12)

    def test_global_purity(self):
        a, b = random_pair(RNG)
        ket = epr.epr_final_state(EprConfig(a, b))
        assert ket.norm() == pytest.approx(1.0, abs=1e-12)

    def test_measurement_order_immaterial(self):
        a, b = random_pair(RNG)
        k1 = epr.epr_final_state(EprConfig(a, b), order=(0, 1))
        k2 = epr.epr_final_state(EprConfig(a, b), order=(1, 0))
        assert_allclose(k1.amplitudes, k2.amplitudes, atol=1e-14)


class TestReducedStates:
    def test_outcome_mixtures(self):
        rho_a, rho_b, _ = epr.epr_reduced(EprConfig(0.6, 0.8))
        assert_allclose(rho_a.matrix, np.diag([0.36, 0.64]), atol=1e-14)
        assert_allclose(rho_b.matrix, np.diag([0.36, 0.64]), atol=1e-14)

    def test_bell_entropies(self):
        s = 1 / np.sqrt(2)
        rho_a, rho_b, rho_ab = epr.epr_reduced(EprConfig(s, s))
        assert hilbert.von_neumann_entropy(rho_a) == pytest.approx(1.0, abs=1e-12)
        assert hilbert.von_neumann_entropy(rho_b) == pytest.approx(1.0, abs=1e-12)
        assert hilbert.von_neumann_entropy(rho_ab) == pytest.approx(1.0, abs=1e-12)
        assert hilbert.conditional_entropy(rho_ab) == pytest.approx(0.0, abs=1e-12)

    def test_product_pair_all_zero(self):
        rho_a, rho_b, rho_ab = epr.epr_reduced(EprConfig(1.0, 0.0))
        for rho in (rho_a, rho_b, rho_ab):
            assert hilbert.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_conditional_entropy_both_ways(self):
        a, b = random_pair(RNG)
        _, _, rho_ab = epr.epr_reduced(EprConfig(a, b))
        assert hilbert.conditional_entropy(rho_ab, 1) == pytest.approx(0.0, abs=1e-9)
        assert hilbert.conditional_entropy(rho_ab, 0) == pytest.approx(0.0, abs=1e-9)

    def test_perfect_correlation(self):
        a, b = random_pair(RNG)
        _, _, rho_ab = epr.epr_reduced(EprConfig(a, b))
        m = rho_ab.matrix
        # cross-outcome populations vanish
        assert abs(m[1, 1]) < 1e-12  # Alice 0, Bob 1
        assert abs(m[2, 2]) < 1e-12  # Alice 1, Bob 0

    def test_mutual_information_classical(self):
        a, b = random_pair(RNG)
        rho_a, _, rho_ab = epr.epr_reduced(EprConfig(a, b))
        assert hilbert.mutual_information(rho_ab) == pytest.approx(
            hilbert.von_neumann_entropy(rho_a), abs=1e-9
        )


class TestNoCommunication:
    def test_requires_unitary(self):
        with pytest.raises(NumericalValidationError):
            epr.no_communication_check(EprConfig(0.6, 0.8))
        with pytest.raises(NumericalValidationError):
            EprConfig(0.6, 0.8, np.array([[1, 1], [0, 1]]))

    def test_identity(self):
        d = epr.no_communication_check(EprConfig(0.6, 0.8, np.eye(2)))
        assert d <= 1e-14

    def test_hadamard(self):
        s = 1 / np.sqrt(2)
        d = epr.no_communication_check(EprConfig(s, s, HADAMARD))
        assert d <= 1e-12

    def test_random_unitaries(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(100):
            a, b = random_pair(rng)
            u = haar_unitary(rng, 2)
            worst = max(worst, epr.no_communication_check(EprConfig(a, b, u)))
        assert worst <= 1e-12


class TestHaarUnitary:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("batch", [(), (1,), (7,)])
    def test_stack_equals_single_draws(self, d, batch):
        rng_stack, rng_loop = np.random.default_rng(9), np.random.default_rng(9)
        got = haar_unitary(rng_stack, d, batch)
        n = int(np.prod(batch))
        want = np.array([haar_unitary_single(rng_loop, d) for _ in range(n)])
        assert got.shape == batch + (d, d)
        assert np.array_equal(got, want.reshape(batch + (d, d)))
        assert is_unitary(got)
        # both consumed the same stretch of the stream
        assert rng_stack.standard_normal() == rng_loop.standard_normal()

    def test_is_unitary_checks_every_member(self):
        us = haar_unitary(np.random.default_rng(2), 3, (4, 5))
        assert is_unitary(us)
        us[2, 3] *= 1.0 + 1e-9
        assert not is_unitary(us)
        assert is_unitary(us, 1e-8)


class TestBatchedNoCommunication:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_unitary_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pair(rng)
        us = haar_unitary(rng, 2, (200,))
        d = epr.no_communication_check(EprConfig(a, b, us))
        assert d.shape == (200,)
        assert_allclose(d, no_communication_loop(a, b, us), rtol=0, atol=1e-15)
        assert np.max(d) <= 1e-12

    def test_stack_shape_and_single_float(self):
        rng = np.random.default_rng(5)
        us = haar_unitary(rng, 2, (3, 4))
        d = epr.no_communication_check(EprConfig(0.6, 0.8, us))
        assert d.shape == (3, 4)
        single = epr.no_communication_check(EprConfig(0.6, 0.8, us[1, 2]))
        assert isinstance(single, float)
        assert single == d[1, 2]

    def test_empty_stack(self):
        d = epr.no_communication_check(EprConfig(0.6, 0.8, np.zeros((0, 2, 2))))
        assert d.shape == (0,)

    @pytest.mark.parametrize("bad", [np.array([[1, 1], [0, 1]]), "scaled"])
    def test_one_non_unitary_member_rejected(self, bad):
        us = haar_unitary(np.random.default_rng(4), 2, (20,))
        us[13] = us[13] * (1.0 + 1e-9) if isinstance(bad, str) else bad
        with pytest.raises(NumericalValidationError):
            EprConfig(0.6, 0.8, us)

    def test_wrong_trailing_shape_rejected(self):
        with pytest.raises(NumericalValidationError):
            EprConfig(0.6, 0.8, haar_unitary(np.random.default_rng(4), 3, (5,)))


def test_amplitude_normalization_enforced():
    with pytest.raises(NumericalValidationError):
        EprConfig(1.0, 1.0)
