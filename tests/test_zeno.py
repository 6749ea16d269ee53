import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cqi_sim import zeno
from cqi_sim.errors import NumericalValidationError
from cqi_sim.zeno import ZenoConfig

from oracles import (
    iterated_zeno_markov,
    qubit_evolution_expm,
    time_reversed_zeno_loop,
    zeno_cancellation_loop,
    zeno_pair_explicit,
)


class TestFreeQubit:
    def test_starts_in_ground(self):
        assert_allclose(zeno.free_qubit(0.0, 1.0).amplitudes, [1, 0])

    def test_quarter_period(self):
        q = zeno.free_qubit(np.pi / 2, 1.0)
        assert_allclose(q.amplitudes, [0, 1j], atol=1e-15)

    def test_array_of_times_is_the_stack(self):
        times = np.array([[0.0, 0.3], [1.7, 12.9]])
        stack = zeno.free_evolution_matrix(times, 0.7)
        assert stack.shape == (2, 2, 2, 2)
        for idx in np.ndindex(times.shape):
            assert np.array_equal(stack[idx], zeno.free_evolution_matrix(times[idx], 0.7))

    @pytest.mark.parametrize("t", [0.3, 1.7, 12.9])
    def test_matches_matrix_exponential(self, t):
        omega = 0.7
        u = qubit_evolution_expm(t, omega)
        assert_allclose(zeno.free_evolution_matrix(t, omega), u, atol=1e-12)
        assert_allclose(zeno.free_qubit(t, omega).amplitudes, u[:, 0], atol=1e-12)


class TestZenoPair:
    def test_closed_forms_small_angle(self):
        p_plain, p_zeno = zeno.zeno_pair(ZenoConfig(omega=1.0, epsilon=0.05))
        assert p_plain == pytest.approx(np.sin(0.1) ** 2, abs=1e-12)
        assert p_zeno == pytest.approx(
            2 * np.cos(0.05) ** 2 * np.sin(0.05) ** 2, abs=1e-12
        )
        assert p_zeno / p_plain == pytest.approx(0.5, abs=1e-12)

    def test_zero_time(self):
        with pytest.raises(NumericalValidationError):
            ZenoConfig(omega=1.0, epsilon=-1.0)
        p_plain, p_zeno = zeno.zeno_pair(ZenoConfig(omega=1.0, epsilon=1e-300))
        assert p_plain == pytest.approx(0.0, abs=1e-12)
        assert p_zeno == pytest.approx(0.0, abs=1e-12)

    def test_large_angle_exact(self):
        with pytest.warns(UserWarning):
            cfg = ZenoConfig(omega=1.0, epsilon=np.pi / 4)
        p_plain, p_zeno = zeno.zeno_pair(cfg)
        assert p_plain == pytest.approx(1.0, abs=1e-12)  # sin^2(pi/2)
        assert p_zeno == pytest.approx(0.5, abs=1e-12)  # 2 * (1/2) * (1/2)

    def test_ratio_approaches_half(self):
        ratios = []
        for k in range(5):
            eps = 0.05 / 2**k
            p_plain, p_zeno = zeno.zeno_pair(ZenoConfig(omega=1.0, epsilon=eps))
            ratios.append(p_zeno / p_plain)
            assert 0.5 - 1e-12 <= ratios[-1] <= 0.5 + 5 * eps**2
        devs = [abs(r - 0.5) for r in ratios]
        assert all(devs[i + 1] <= devs[i] + 1e-15 for i in range(len(devs) - 1))

    @pytest.mark.parametrize("omega", [0.1, 1.0, 2.3])
    def test_batch_matches_scalar_loop_bit_for_bit(self, omega):
        rng = np.random.default_rng(3)
        eps = np.concatenate(
            [0.05 / 2.0 ** np.arange(40), [0.0, 1e-300, 0.13], rng.uniform(1e-4, 0.1, 200)]
        )
        p_plain, p_zeno = zeno.zeno_pair(ZenoConfig(omega, eps))
        loop = [zeno.zeno_pair(ZenoConfig(omega, float(e))) for e in eps]
        assert all(type(p) is float for pair in loop for p in pair)
        assert p_plain.tobytes() == np.array([p for p, _ in loop]).tobytes()
        assert p_zeno.tobytes() == np.array([p for _, p in loop]).tobytes()
        grid = zeno.zeno_pair(ZenoConfig(omega, eps[:12].reshape(3, 4)))
        assert [g.shape for g in grid] == [(3, 4), (3, 4)]
        assert grid[0].tobytes() == p_plain[:12].tobytes()
        assert grid[1].tobytes() == p_zeno[:12].tobytes()
        iterated = zeno.iterated_zeno(ZenoConfig(omega, eps[::10], n_ancillas=3))
        loop3 = [zeno.iterated_zeno(ZenoConfig(omega, float(e), n_ancillas=3)) for e in eps[::10]]
        assert iterated.tobytes() == np.array(loop3).tobytes()

    @pytest.mark.parametrize("ancillas", [0, 1])  # the plain and the Zeno case
    def test_batch_checks_each_epsilon(self, monkeypatch, ancillas):
        real = zeno.hilbert.reduced_matrix

        def corrupt_member(amps, keep, n_factors):
            out = real(amps, keep, n_factors)
            if n_factors == ancillas + 2:
                out[2] *= 1.0 + 1e-8
            return out

        cfg = ZenoConfig(1.0, np.array([0.05, 0.02, 0.01, 0.005]))
        zeno.zeno_pair(cfg)
        monkeypatch.setattr(zeno.hilbert, "reduced_matrix", corrupt_member)
        with pytest.raises(ValueError, match="trace .* deviates from 1"):
            zeno.zeno_pair(cfg)

    def test_array_epsilon_checked_per_member(self):
        with pytest.raises(NumericalValidationError, match="epsilon nonnegative"):
            ZenoConfig(1.0, np.array([0.05, -1e-3, 0.01]))
        with pytest.warns(UserWarning, match="omega\\*epsilon > 0.3"):
            ZenoConfig(1.0, np.array([0.05, 0.31, 0.01]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ZenoConfig(1.0, np.array([0.05, 0.3, 0.0]))


class TestTimeReversedZeno:
    def test_no_entanglement_no_shift(self):
        res = zeno.time_reversed_zeno(ZenoConfig(1.0, 0.01, theta=0.0))
        assert res.delta_t == pytest.approx(0.0, abs=1e-14)

    def test_advance(self):
        res = zeno.time_reversed_zeno(ZenoConfig(1.0, 0.01, theta=0.1))
        assert res.delta_t == pytest.approx(0.1, abs=1e-12)

    def test_negative_theta_delays(self):
        res = zeno.time_reversed_zeno(ZenoConfig(1.0, 0.01, theta=-0.1))
        assert res.delta_t == pytest.approx(-0.1, abs=1e-12)

    def test_shift_linear_over_range(self):
        omega = 2.3
        for theta in np.linspace(-np.pi / 4, np.pi / 4, 50):
            res = zeno.time_reversed_zeno(ZenoConfig(omega, 0.01, theta=float(theta)))
            assert abs(res.delta_t - theta / omega) <= 1e-10

    def test_trajectory_matches_shifted_free_evolution(self):
        omega, theta = 1.4, 0.2
        res = zeno.time_reversed_zeno(ZenoConfig(omega, 0.01, theta=theta))
        for t, q in zip(res.times, res.q_states):
            expect = zeno.free_qubit(t + theta / omega, omega).amplitudes
            assert_allclose(q, expect, atol=1e-12)

    @pytest.mark.parametrize("omega", [1.0, 2.3])
    def test_batch_matches_scalar_loop_bit_for_bit(self, omega):
        rng = np.random.default_rng(7)
        thetas = np.concatenate(
            [np.linspace(-np.pi / 4, np.pi / 4, 50), [0.0, -0.0, -0.2, 0.3], rng.uniform(-1.5, 1.5, 200)]
        )
        res = zeno.time_reversed_zeno(ZenoConfig(omega, 1e-3, theta=thetas))
        delta_t, q_states = time_reversed_zeno_loop(omega, thetas)
        assert all(type(d) is float for d in delta_t) and q_states.shape == (len(thetas), 33, 2)
        assert res.delta_t.tobytes() == np.array(delta_t).tobytes()
        assert res.q_states.tobytes() == q_states.tobytes()
        grid = zeno.time_reversed_zeno(ZenoConfig(omega, 1e-3, theta=thetas[:12].reshape(3, 4)))
        assert grid.delta_t.shape == (3, 4) and grid.q_states.shape == (3, 4, 33, 2)
        assert grid.delta_t.tobytes() == res.delta_t[:12].tobytes()

    def test_batch_checks_each_theta_disentangles(self, monkeypatch):
        monkeypatch.setattr(zeno.hilbert, "cnot", lambda state, control, target: state)
        zeno.time_reversed_zeno(ZenoConfig(1.0, 0.01, theta=np.array([0.0, 0.0])))  # no entanglement
        with pytest.raises(NumericalValidationError, match="disentangle"):
            zeno.time_reversed_zeno(ZenoConfig(1.0, 0.01, theta=np.array([0.0, 0.3, 0.0])))

    def test_batch_checks_shifted_free_evolution(self, monkeypatch):
        real = zeno.free_evolution_matrix
        monkeypatch.setattr(zeno, "free_evolution_matrix", lambda t, omega: real(t, 2 * omega))
        with pytest.raises(NumericalValidationError, match="shifted free evolution"):
            zeno.time_reversed_zeno(ZenoConfig(1.0, 0.01, theta=np.array([0.1, 0.2])))


class TestCancellation:
    def test_back_to_back_cnots(self):
        d = zeno.zeno_cancellation(ZenoConfig(1.0, 0.05))
        assert d <= 1e-12

    @pytest.mark.parametrize("omega, eps", [(1.0, 0.05), (2.3, 0.013)])
    def test_matches_per_sample_oracle(self, omega, eps):
        cfg = ZenoConfig(omega, eps)
        assert abs(zeno.zeno_cancellation(cfg) - zeno_cancellation_loop(cfg)) <= 1e-15

    def test_uncancelled_cnot_is_measured(self, monkeypatch):
        # without its inverse the CNOT leaves the system entangled with the ancilla:
        # its reduced state is mixed and a visible distance from the free pure state
        real, calls = zeno.hilbert.cnot, []

        def first_cnot_only(state, control, target):
            calls.append(control)
            return real(state, control, target) if len(calls) == 1 else state

        monkeypatch.setattr(zeno.hilbert, "cnot", first_cnot_only)
        assert zeno.zeno_cancellation(ZenoConfig(1.0, 0.05)) > 0.04


class TestIteratedZeno:
    def test_n0_matches_plain(self):
        cfg = ZenoConfig(1.0, 0.05)
        p_plain, _ = zeno.zeno_pair(cfg)
        assert zeno.iterated_zeno(cfg) == pytest.approx(p_plain, abs=1e-14)

    def test_n1_matches_single_ancilla(self):
        cfg = ZenoConfig(1.0, 0.05, n_ancillas=1)
        _, p_zeno = zeno.zeno_pair(ZenoConfig(1.0, 0.05))
        assert zeno.iterated_zeno(cfg) == pytest.approx(p_zeno, abs=1e-14)

    def test_pair_is_iterated_n0_n1_bit_for_bit(self):
        # 37 x 41 = 1517 (omega, epsilon) pairs; omega * epsilon reaches 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for omega in np.linspace(0.1, 3.0, 37):
                for eps in np.geomspace(1e-4, 0.1, 41):
                    pair = zeno.zeno_pair(ZenoConfig(omega, eps))
                    iterated = tuple(
                        zeno.iterated_zeno(ZenoConfig(omega, eps, n_ancillas=n)) for n in (0, 1)
                    )
                    assert pair == iterated == zeno_pair_explicit(omega, eps), (omega, eps)

    def test_against_markov_oracle(self):
        # total angle 0.4, seven intermediate ancillas
        cfg = ZenoConfig(1.0, 0.2, n_ancillas=7)
        expect = iterated_zeno_markov(1.0, 0.2, 7)
        assert zeno.iterated_zeno(cfg) == pytest.approx(expect, abs=1e-12)

    def test_nonincreasing_in_n(self):
        probs = [
            zeno.iterated_zeno(ZenoConfig(1.0, 0.1, n_ancillas=n)) for n in range(6)
        ]
        assert all(probs[i + 1] <= probs[i] + 1e-12 for i in range(len(probs) - 1))

    def test_ancilla_guard(self):
        with pytest.raises(NumericalValidationError):
            zeno.iterated_zeno(ZenoConfig(1.0, 0.05, n_ancillas=21))


def test_global_purity_through_pipeline():
    # the full state stays pure at every stage of the ancilla pipeline
    from cqi_sim import hilbert

    cfg = ZenoConfig(1.0, 0.07, n_ancillas=3)
    w, eps, n = cfg.omega, cfg.epsilon, cfg.n_ancillas
    seg = zeno.free_evolution_matrix(2 * eps / (n + 1), w)
    state = np.zeros((2,) * (n + 2), dtype=complex)
    state[(0,) * (n + 2)] = 1.0
    for k in range(n):
        state = zeno._evolve_factor0(state, seg)
        state = hilbert.cnot(state, 0, 1 + k)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_config_with_array_fields_compares_and_hashes():
    # identity equality and hash, like EprConfig and DensityOp: a field-wise
    # comparison of array fields would raise instead of answering
    cfg = ZenoConfig(1.0, np.array([0.1, 0.05]), theta=np.array([0.0, 0.2]))
    twin = ZenoConfig(1.0, np.array([0.1, 0.05]), theta=np.array([0.0, 0.2]))
    assert cfg == cfg and cfg != twin
    assert hash(cfg) == hash(cfg) and len({cfg, twin}) == 2
