import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cqi_sim import hilbert
from cqi_sim.hilbert import (
    DensityOp,
    Ket,
    check_density,
    conditional_entropy,
    density,
    mutual_information,
    partial_trace,
    preferred_basis,
    reduced_state,
    schmidt_decompose,
    tensor,
    trace_distance,
    von_neumann_entropy,
)

from oracles import partial_trace_indexsum, random_ket

RNG = np.random.default_rng(20260810)


def ket(amps, dims):
    return Ket(np.asarray(amps, dtype=complex), tuple(dims))


def rand_ket(dims, rng=RNG):
    return Ket(random_ket(rng, dims), tuple(dims))


class TestKet:
    def test_dims_must_match(self):
        with pytest.raises(ValueError):
            Ket(np.ones(3), (2, 2))

    def test_immutable(self):
        k = ket([1, 0], [2])
        with pytest.raises(ValueError):
            k.amplitudes[0] = 5.0

    def test_require_normalized(self):
        with pytest.raises(ValueError):
            ket([1, 1], [2]).require_normalized()


class TestTensor:
    def test_basis_product(self):
        out = tensor(ket([1, 0], [2]), ket([1, 0], [2]))
        assert_allclose(out.amplitudes, [1, 0, 0, 0])
        assert out.factor_dims == (2, 2)

    def test_linearity(self):
        a, b = 0.6, 0.8j
        out = tensor(ket([a, b], [2]), ket([1, 0], [2]))
        assert_allclose(out.amplitudes, [a, 0, b, 0])

    def test_matches_double_loop(self):
        a = rand_ket([2])
        b = rand_ket([3])
        out = tensor(a, b)
        # brute-force index enumeration
        expect = np.empty(6, dtype=complex)
        for i in range(2):
            for j in range(3):
                expect[3 * i + j] = a.amplitudes[i] * b.amplitudes[j]
        assert_allclose(out.amplitudes, expect, atol=1e-15)


class TestPartialTrace:
    def test_copy_correlated_state(self):
        # Sum_i alpha_i |a_i, i> reduces to the outcome mixture
        alpha = np.array([0.6, 0.8j])
        amps = np.zeros(4, dtype=complex)
        amps[0b00] = alpha[0]
        amps[0b11] = alpha[1]
        rho = partial_trace(density(ket(amps, [2, 2])), {1})
        assert_allclose(rho.matrix, np.diag([0.36, 0.64]), atol=1e-14)

    def test_product_state(self):
        a, b = rand_ket([3]), rand_ket([2])
        rho = partial_trace(density(tensor(a, b)), {1})
        assert_allclose(rho.matrix, density(b).matrix, atol=1e-13)

    def test_matches_index_summation(self):
        psi = rand_ket([2, 2, 2])
        rho = partial_trace(density(psi), {2})
        oracle = partial_trace_indexsum(psi.amplitudes, (2, 2, 2), [2])
        assert_allclose(rho.matrix, oracle, atol=1e-13)

    def test_multi_factor_keep(self):
        psi = rand_ket([2, 3, 2])
        rho = partial_trace(density(psi), {0, 2})
        oracle = partial_trace_indexsum(psi.amplitudes, (2, 3, 2), [0, 2])
        assert_allclose(rho.matrix, oracle, atol=1e-13)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            partial_trace(density(rand_ket([2, 2])), {5})
        with pytest.raises(ValueError):
            partial_trace(density(rand_ket([2, 2])), set())

    def test_trace_and_positivity_preserved(self):
        # randomized sweep over factor splittings up to total dimension 64
        rng = np.random.default_rng(7)
        cases = 0
        for dims in [(2, 2), (2, 3), (4, 4), (2, 2, 2), (8, 8), (4, 16), (2, 3, 4)]:
            for _ in range(1000 // 7):
                psi = Ket(random_ket(rng, dims), dims)
                keep = {rng.integers(len(dims))}
                rho = reduced_state(psi, keep)
                assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
                assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-12
                cases += 1
        assert cases > 900

    def test_reduced_state_agrees_with_partial_trace(self):
        psi = rand_ket([3, 4])
        assert_allclose(
            reduced_state(psi, {0}).matrix,
            partial_trace(density(psi), {0}).matrix,
            atol=1e-13,
        )


class TestCnot:
    @staticmethod
    def permutation(control, target, n=3):
        """The CNOT on n qubits as a permutation matrix of basis indices,
        factor 0 the most significant bit."""
        m = np.zeros((2**n, 2**n))
        for i in range(2**n):
            bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
            bits[target] ^= bits[control]
            m[sum(b << (n - 1 - k) for k, b in enumerate(bits)), i] = 1.0
        return m

    @pytest.mark.parametrize("control, target", [(c, t) for c in range(3) for t in range(3) if c != t])
    @pytest.mark.parametrize("batch", [(), (4,)])
    def test_matches_permutation_matrix(self, control, target, batch):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((8, *batch)) + 1j * rng.standard_normal((8, *batch))
        got = hilbert.cnot(v.reshape((2, 2, 2) + batch), control, target)
        assert np.array_equal(got.reshape(v.shape), self.permutation(control, target) @ v)


class TestReducedMatrix:
    def test_stack_matches_reduced_state_bit_for_bit(self):
        rng = np.random.default_rng(5)
        dims = (2, 3, 2)
        amps = np.array([random_ket(rng, dims) for _ in range(5)]).reshape((5,) + dims)
        for keep in ([2, 0], [1], [2, 1]):
            got = hilbert.reduced_matrix(amps, keep, 3)
            d_keep = int(np.prod([dims[k] for k in keep]))
            assert got.shape == (5, d_keep, d_keep)
            for a, m in zip(amps, got):
                assert m.tobytes() == reduced_state(Ket(a, dims), keep).matrix.tobytes()

    def test_empty_stack(self):
        got = hilbert.reduced_matrix(np.zeros((0, 2, 2), dtype=complex), [1], 2)
        assert got.shape == (0, 2, 2)


class TestSchmidt:
    def test_product_state_rank_one(self):
        out = schmidt_decompose(tensor(rand_ket([2]), rand_ket([3])), {0})
        assert len(out) == 1
        assert out[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_bell_state(self):
        psi = ket(np.array([1, 0, 0, 1]) / np.sqrt(2), [2, 2])
        out = schmidt_decompose(psi, {0})
        coeffs = [c for c, _, _ in out]
        assert_allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_coefficients_match_reduced_spectrum(self):
        psi = rand_ket([3, 4])
        coeffs = np.array([c for c, _, _ in schmidt_decompose(psi, {0})])
        lam = np.sort(np.linalg.eigvalsh(reduced_state(psi, {0}).matrix))[::-1]
        lam = np.clip(lam[: coeffs.size], 0, None)
        assert_allclose(coeffs, np.sqrt(lam), atol=1e-10)

    def test_reconstruction(self):
        psi = rand_ket([2, 4])
        out = schmidt_decompose(psi, {0})
        rebuilt = sum(c * tensor(l, r).amplitudes for c, l, r in out)
        assert np.max(np.abs(rebuilt - psi.amplitudes)) < 1e-10

    def test_orthonormal_sides(self):
        psi = rand_ket([3, 3])
        out = schmidt_decompose(psi, {0})
        for i, (_, li, ri) in enumerate(out):
            for j, (_, lj, rj) in enumerate(out):
                want = 1.0 if i == j else 0.0
                assert abs(np.vdot(li.amplitudes, lj.amplitudes) - want) < 1e-12
                assert abs(np.vdot(ri.amplitudes, rj.amplitudes) - want) < 1e-12


class TestEntropies:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(density(rand_ket([4]))) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        rho = DensityOp(np.eye(2) / 2, (2,))
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-14)

    def test_binary_mixture_shannon(self):
        rho = DensityOp(np.diag([0.36, 0.64]).astype(complex), (2,))
        expect = -0.36 * np.log2(0.36) - 0.64 * np.log2(0.64)
        assert von_neumann_entropy(rho) == pytest.approx(expect, abs=1e-14)

    def test_conditional_entropy_correlated(self):
        # perfectly correlated classical mixture: S(A|B) = 0
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 0.36
        m[3, 3] = 0.64
        assert conditional_entropy(DensityOp(m, (2, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_conditional_entropy_independent(self):
        rho = DensityOp(np.eye(4) / 4, (2, 2))
        assert conditional_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_conditional_entropy_bell(self):
        psi = ket(np.array([1, 0, 0, 1]) / np.sqrt(2), [2, 2])
        assert conditional_entropy(density(psi)) == pytest.approx(-1.0, abs=1e-12)

    def test_mutual_information_of_correlated_mixture(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 0.36
        m[3, 3] = 0.64
        rho = DensityOp(m, (2, 2))
        s_a = von_neumann_entropy(partial_trace(rho, {0}))
        assert mutual_information(rho) == pytest.approx(s_a, abs=1e-12)

    def test_schmidt_symmetry(self):
        for dims in [(2, 2), (3, 5), (4, 2)]:
            psi = rand_ket(dims)
            s0 = von_neumann_entropy(reduced_state(psi, {0}))
            s1 = von_neumann_entropy(reduced_state(psi, {1}))
            assert abs(s0 - s1) < 1e-9


class TestPreferredBasis:
    def test_probabilities_descending(self):
        pb = preferred_basis(reduced_state(rand_ket([3, 3]), {0}))
        p = pb.dist.probs
        assert np.all(np.diff(p) <= 1e-15)

    def test_degenerate_flag(self):
        pb = preferred_basis(DensityOp(np.eye(2) / 2, (2,)))
        assert pb.degenerate

    def test_reconstruction(self):
        rho = reduced_state(rand_ket([4, 4]), {0})
        pb = preferred_basis(rho)
        rebuilt = (pb.basis * pb.dist.probs) @ pb.basis.conj().T
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-10

    def test_deterministic_under_degeneracy(self):
        rho = DensityOp(np.eye(4) / 4, (2, 2))
        b1 = preferred_basis(rho)
        b2 = preferred_basis(rho)
        assert_allclose(b1.basis, b2.basis)


class TestRoundTrip:
    def test_tensor_then_trace(self):
        a = rand_ket([3])
        fresh = ket([1, 0], [2])
        joint = tensor(a, fresh)
        back = reduced_state(joint, {0})
        assert np.max(np.abs(back.matrix - density(a).matrix)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([(2, 2), (2, 3), (3, 4)]))
def test_partial_trace_preserves_trace_hypothesis(seed, dims):
    rng = np.random.default_rng(seed)
    psi = Ket(random_ket(rng, dims), dims)
    rho = reduced_state(psi, {0})
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_schmidt_reconstruction_hypothesis(seed):
    rng = np.random.default_rng(seed)
    psi = Ket(random_ket(rng, (3, 4)), (3, 4))
    out = schmidt_decompose(psi, {0})
    rebuilt = sum(c * tensor(l, r).amplitudes for c, l, r in out)
    assert np.max(np.abs(rebuilt - psi.amplitudes)) < 1e-10
    assert sum(c * c for c, _, _ in out) == pytest.approx(1.0, abs=1e-10)


def test_trace_distance_basics():
    r1 = DensityOp(np.diag([1.0, 0.0]).astype(complex), (2,))
    r2 = DensityOp(np.diag([0.0, 1.0]).astype(complex), (2,))
    assert trace_distance(r1, r1) == pytest.approx(0.0, abs=1e-15)
    assert trace_distance(r1, r2) == pytest.approx(1.0, abs=1e-14)


class TestCheckDensity:
    @staticmethod
    def reduced_stack(n=6):
        kets = [random_ket(RNG, (2, 3)).reshape(2, 3) for _ in range(n)]
        return np.array([a @ a.conj().T for a in kets])

    def test_valid_stack_passes(self):
        check_density(self.reduced_stack())
        check_density(np.zeros((0, 2, 2), dtype=complex))

    @pytest.mark.parametrize(
        "push, message",
        [
            ("offdiag", "not Hermitian"),
            ("scale", "trace .* deviates from 1"),
            ("negative", "eigenvalue below -psd_tol"),
        ],
    )
    def test_one_bad_member_trips(self, push, message):
        m = self.reduced_stack()
        if push == "offdiag":
            m[3, 0, 1] += 1e-8
        elif push == "scale":
            m[3] *= 1.0 + 1e-8
        else:
            m[3] = np.diag([1.0 + 1e-8, -1e-8])
        with pytest.raises(ValueError, match=message):
            check_density(m)
        check_density(np.delete(m, 3, axis=0))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[0.5, 0.1], [0.0, 0.5]], "matrix is not Hermitian within tolerance"),
            ([[0.7, 0.0], [0.0, 0.8]], "trace (1.5+0j) deviates from 1 beyond tolerance"),
            ([[1.2, 0.0], [0.0, -0.2]], "matrix has an eigenvalue below -psd_tol"),
        ],
    )
    def test_single_matrix_messages(self, matrix, message):
        with pytest.raises(ValueError) as err:
            DensityOp(np.array(matrix, dtype=complex), (2,))
        assert str(err.value) == message


def test_batched_entropy_and_distance_match_single():
    m = TestCheckDensity.reduced_stack(5)
    rhos = [DensityOp(r, (2,)) for r in m]
    assert von_neumann_entropy(m).tolist() == [von_neumann_entropy(r) for r in rhos]
    assert trace_distance(m, m[0]).tolist() == [trace_distance(r, rhos[0]) for r in rhos]
    assert isinstance(von_neumann_entropy(rhos[1]), float)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
    st.data(),
)
def test_density_op_keeps_the_checked_spectrum(seed, dims, data):
    psi = Ket(random_ket(np.random.default_rng(seed), dims), tuple(dims))
    keep = data.draw(st.sets(st.integers(0, len(dims) - 1), min_size=1))
    rho = reduced_state(psi, keep)
    assert rho.eigenvalues.tobytes() == np.linalg.eigvalsh(rho.matrix).tobytes()
    assert von_neumann_entropy(rho) == von_neumann_entropy(rho.matrix)


def test_density_op_spectrum_is_read_only():
    rho = DensityOp(np.diag([0.36, 0.64]).astype(complex), (2,))
    assert_allclose(rho.eigenvalues, [0.36, 0.64], atol=1e-15)
    assert not rho.eigenvalues.flags.writeable
    with pytest.raises(AttributeError):
        rho.eigenvalues = np.array([0.5, 0.5])
    with pytest.raises(TypeError):
        DensityOp(np.eye(2) / 2, (2,), eigenvalues=np.array([0.5, 0.5]))


def test_check_density_returns_the_stack_spectrum():
    for d in (1, 2, 4):
        assert check_density(np.zeros((0, d, d), dtype=complex)).shape == (0, d)
    m = TestCheckDensity.reduced_stack(5)
    assert check_density(m).tobytes() == np.linalg.eigvalsh(m).tobytes()
