from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from cqi_sim import _kernels
from oracles import double_quad_pairs

RNG = np.random.default_rng(2)


def random_points(n, rng=RNG):
    x = rng.uniform(-5, 5, n)
    t = rng.uniform(0.5, 3.0, n)
    amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x, t, amp


def test_backend_reported():
    assert _kernels.backend() == "numpy"


def test_propagate_backends_agree():
    x_src, t_src, amp = random_points(300)
    x_out = np.linspace(-10, 10, 101)
    args = (x_out, 4.0, x_src, t_src, amp, 1.0, 1.0, 0.0)
    ref = _kernels.propagate_numpy(*args)
    active = _kernels.propagate(*args)
    assert_allclose(active, ref, rtol=1e-12, atol=1e-14)


def test_double_quad_backends_agree():
    xa, ta, aa = random_points(150)
    xb, tb, ab = random_points(170)
    tb += 5.0  # keep the time supports disjoint so eta = 0 is legal
    args = (xa, ta, aa, xb, tb, ab, 1.0, 1.0, 0.0)
    ref = double_quad_pairs(*args)
    active = _kernels.double_quad(*args)
    assert abs(active - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("shared", [True, False])
def test_double_quad_matches_pair_loop_damped(shared):
    rng = np.random.default_rng(11)
    ta_slices, tb_slices = rng.uniform(1.0, 2.0, 6), rng.uniform(1.0, 2.0, 5)
    if shared:
        tb_slices[:3] = ta_slices[:3]  # coincident slices: the eta > 0 channel
    xa, _, aa = random_points(240, rng)
    xb, _, ab = random_points(310, rng)
    ta, tb = rng.choice(ta_slices, xa.size), rng.choice(tb_slices, xb.size)
    args = (xa, ta, aa, xb, tb, ab, 1.3, 0.7, 0.05)
    ref = double_quad_pairs(*args)
    assert abs(_kernels.double_quad(*args) - ref) <= 1e-12 * abs(ref)


@pytest.fixture
def dense_calls(monkeypatch):
    """(outputs, sources) of each dense sum run, one pair per ``propagate_numpy`` call."""
    calls = []
    real = _kernels.propagate_numpy

    def spy(x_out, t_out, x_src, *rest):
        calls.append((x_out.size, x_src.size))
        return real(x_out, t_out, x_src, *rest)

    monkeypatch.setattr(_kernels, "propagate_numpy", spy)
    return calls


def lattice_block(rng, x, t, slices, keep=0.75):
    """The lattice x by t as one (t.size, x.size) block, with random amplitudes on about
    ``keep`` of the nodes of the given slices and 0 elsewhere (as ``SUPPORT_EPS`` masks a
    grid function)."""
    xb, tb = np.broadcast_arrays(x, t[:, None])
    amp = np.zeros(xb.shape, dtype=complex)
    kept = rng.random((len(slices), x.size)) < keep
    draws = rng.standard_normal(kept.shape) + 1j * rng.standard_normal(kept.shape)
    amp[slices] = np.where(kept, draws, 0)
    return xb, tb, amp


def pairs_on_support(x_a, t_a, amp_a, x_b, t_b, amp_b, *rest):
    """The pair loop over the nodes of nonzero amplitude alone."""
    a, b = amp_a != 0, amp_b != 0
    return double_quad_pairs(x_a[a], t_a[a], amp_a[a], x_b[b], t_b[b], amp_b[b], *rest)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shared", [True, False], ids=["shared-slices", "disjoint-slices"])
def test_double_quad_lattice_matches_pair_loop(dense_calls, seed, shared):
    rng = np.random.default_rng(seed)
    nx, nt = rng.integers(6, 14), rng.integers(5, 10)
    x0, t0 = rng.uniform(-4.0, 4.0), rng.uniform(0.0, 3.0)
    x = np.linspace(x0, x0 + (nx - 1) * rng.uniform(0.05, 0.5), nx)
    t = np.linspace(t0, t0 + (nt - 1) * rng.uniform(0.02, 0.3), nt)
    order, half = rng.permutation(nt), nt // 2
    slices_a, slices_b = order[:half], order[half - 2 :] if shared else order[half:]
    xb, tb, aa = lattice_block(rng, x, t, slices_a)
    ab = lattice_block(rng, x, t, slices_b)[2]
    args = (xb, tb, aa, xb, tb, ab, 1.3, 0.7, rng.uniform(0.01, 0.1))
    ref = pairs_on_support(*args)
    assert abs(_kernels.double_quad(*args) - ref) <= 1e-12 * abs(ref)
    assert len(dense_calls) == 1 and dense_calls[0][1] == 1  # one lag table, one source


def off_the_lattice(rng, case):
    """double_quad's arguments for one case of input off one uniform block: from the
    lattice blocks of two states, the first on slices 0-2, the second on slices 3-5."""
    x, t = np.linspace(-2.0, 2.0, 9), np.linspace(1.0, 2.0, 6)
    xb, tb, aa = lattice_block(rng, x, t, [0, 1, 2])
    ab = lattice_block(rng, x, t, [3, 4, 5])[2]
    a, b, eta = [xb, tb, aa], [xb, tb, ab], 0.05
    if case == "eta-0":  # each side on its own slices, so that no pair shares a time
        a, b, eta = [v[:3] for v in a], [v[3:] for v in b], 0.0
    elif case == "unequal-blocks":
        a, b = [v[:4] for v in a], [v[2:] for v in b]
    elif case == "flat-points":
        a, b = [v.ravel() for v in a], [v.ravel() for v in b]
    elif case == "scattered":
        xs, ts, amps = random_points(40, rng)
        a, b = [v.ravel() for v in a], [xs, ts + 5.0, amps]
    elif case == "uneven-row":
        a[0] = b[0] = xb.copy()
        a[0][4, 3] += 1e-3
    elif case == "unequal-rows":  # each row uniform, one of them shifted
        a[0] = b[0] = xb.copy()
        a[0][2] += 0.1
    elif case == "two-times-in-a-row":
        a[1] = b[1] = tb.copy()
        a[1][2, -1] += 1e-3
    elif case == "uneven-times":
        a[1] = b[1] = np.broadcast_arrays(x, t[:, None] ** 2)[1]
    elif case == "one-row":
        a, b = [v[:1] for v in a], [v[:1] for v in b]
    elif case == "no-points":
        a, b = [np.empty(0)] * 3, [np.empty(0)] * 3
    return (*a, *b, 1.0, 1.0, eta)


def test_double_quad_dense_off_the_lattice(dense_calls):
    # exactly the vdot against the dense sum, whatever keeps the input off one uniform block
    rng = np.random.default_rng(21)
    for case in ["eta-0", "unequal-blocks", "flat-points", "scattered", "uneven-row",
                 "unequal-rows", "two-times-in-a-row", "uneven-times", "one-row", "no-points"]:
        args = off_the_lattice(rng, case)
        flat = [v.ravel() for v in args[:6]]
        want = np.vdot(flat[2], _kernels.propagate_numpy(*flat[:2], *flat[3:], *args[6:]))
        dense_calls.clear()
        got = _kernels.double_quad(*args)
        assert got == want, case
        assert dense_calls == [(flat[0].size, flat[3].size)], case
        if flat[0].size:
            ref = double_quad_pairs(*flat, *args[6:])
            assert abs(got - ref) <= 1e-12 * abs(ref), case


def test_dense_sum_with_a_time_per_output():
    rng = np.random.default_rng(12)
    x_src, t_src, amp = random_points(200, rng)
    x_out = np.linspace(-6.0, 6.0, 37)
    t_out = rng.uniform(3.5, 5.0, x_out.size)
    rest = (x_src, t_src, amp, 1.0, 1.0, 0.01)
    got = _kernels.propagate_numpy(x_out, t_out, *rest)
    ref = [_kernels.propagate_numpy(x_out[j : j + 1], t, *rest)[0] for j, t in enumerate(t_out)]
    assert_allclose(got, ref, rtol=1e-13, atol=0)


def test_kernel_hermiticity():
    # W(p; q) = conj(W(q; p)) realized through the double quadrature
    xa, ta, aa = random_points(40)
    xb, tb, ab = random_points(40)
    tb += 4.0
    fwd = _kernels.double_quad(xa, ta, aa, xb, tb, ab, 1.0, 1.0, 0.0)
    rev = _kernels.double_quad(xb, tb, ab, xa, ta, aa, 1.0, 1.0, 0.0)
    assert abs(fwd - np.conj(rev)) < 1e-12 * abs(fwd)


def test_eta_damps_amplitude():
    x_out = np.array([3.0])
    x_src = np.array([0.0])
    t_src = np.array([0.0])
    amp = np.array([1.0 + 0j])
    plain = _kernels.propagate(x_out, 1.0, x_src, t_src, amp, 1.0, 1.0, 0.0)
    damped = _kernels.propagate(x_out, 1.0, x_src, t_src, amp, 1.0, 1.0, 0.2)
    assert abs(damped[0]) < abs(plain[0])


def test_point_kernel_value():
    # single source point against the closed form of the kernel
    m, hb, dt, dx = 1.3, 0.7, 0.9, 2.1
    out = _kernels.propagate(
        np.array([dx]), dt, np.array([0.0]), np.array([0.0]), np.array([1.0 + 0j]), m, hb, 0.0
    )
    expect = np.sqrt(m / (2j * np.pi * hb * dt)) * np.exp(1j * m * dx**2 / (2 * hb * dt))
    assert_allclose(out[0], expect, rtol=1e-12)


# --------------------------------------------------------------------------
# chirp-z slice transform against the dense sum


def uniform_slices(rng, sizes, dts, t_out):
    """Uniform x slices of the given sizes, one per time t_out - dt, as one zero-padded
    (slices, max(sizes)) block: each row continues its own x step past its last point,
    and the padded points weigh 0.  Returns the block's x, t and amplitudes and the mask
    of the slices' own points."""
    rows, n = len(sizes), max(sizes)
    y0, step = rng.uniform(-5, 5, (rows, 1)), rng.uniform(1e-3, 5e-2, (rows, 1))
    x = y0 + step * np.arange(n)
    t = np.broadcast_to(t_out - np.asarray(dts[:rows])[:, None], x.shape)
    own = np.arange(n) < np.asarray(sizes)[:, None]
    amp = np.where(own, rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape), 0)
    return x, t, amp, own


@pytest.fixture
def row_calls(monkeypatch):
    """Arguments handed to the Bluestein routine ``_chirp_rows``, one tuple per call."""
    calls = []
    original = _kernels._chirp_rows

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_kernels, "_chirp_rows", spy)
    return calls


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=600),
    st.lists(st.integers(min_value=2, max_value=600), min_size=1, max_size=4),
    st.lists(st.floats(0.05, 5.0), min_size=4, max_size=4, unique=True),
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0),
)
def test_chirp_z_matches_dense_hypothesis(seed, m, sizes, dts, mass, hbar):
    # the ragged slices as one zero-padded block against the dense sum of their own points
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-10, 10)
    x_out = np.linspace(x0, x0 + rng.uniform(0.5, 20), m)
    x, t, amp, own = uniform_slices(rng, sizes, dts, 5.0)
    ref = _kernels.propagate_numpy(x_out, 5.0, x[own], t[own], amp[own], mass, hbar, 0.0)
    with mock.patch.object(_kernels, "_chirp_rows", wraps=_kernels._chirp_rows) as rows:
        got = _kernels.propagate(x_out, 5.0, x, t, amp, mass, hbar, 0.0)
    rows.assert_called_once()
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def source_block(rng, rows, n, x_src, t_src):
    """A tensor grid's sources as (rows, n) blocks: n points over x_src at each of rows
    times over t_src, the nodes as broadcast views, random amplitudes."""
    x = np.broadcast_to(np.linspace(*x_src, n), (rows, n))
    t = np.broadcast_to(np.linspace(*t_src, rows)[:, None], (rows, n))
    return x, t, rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))


def test_chirp_z_at_pipeline_size(row_calls):
    # (rows, points per row, source x and t ends, outputs, output time, FFT length)
    calls = [
        # the slab's refine-1 sources (66 slices of 106 points) onto 1952 outputs, more
        # than the readout's 682, so that every chirp takes several recurrence blocks
        (66, 106, (-0.5, 0.5), (3.0, 3.2), (-38.136, 38.136, 1952), 4.2, 2160),
        # the two-point readout call: one square's 65 slices of 33 points onto 563
        # outputs, m + n - 1 = 595 in an FFT of 600
        (65, 33, (-7.0783, -6.9217), (3.0, 3.1566), (-37.254, 27.254, 563), 3.9566, 600),
        # m + n - 1 = 600 fills the FFT: the last output reads its last bin
        (65, 38, (-7.0783, -6.9217), (3.0, 3.1566), (-37.254, 27.254, 563), 3.9566, 600),
    ]
    rng = np.random.default_rng(3)
    for rows, n, x_src, t_src, x_out, t_out, fft in calls:
        assert _kernels._fast_len(x_out[2] + n - 1) == fft
        x, t, amp = source_block(rng, rows, n, x_src, t_src)
        x_out = np.linspace(*x_out)
        ref = _kernels.propagate_numpy(x_out, t_out, x.ravel(), t.ravel(), amp.ravel(), 1.0, 1.0, 0.0)
        row_calls.clear()
        got = _kernels.propagate(x_out, t_out, x, t, amp, 1.0, 1.0, 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert len(row_calls) == 1 and row_calls[0][5] is amp


@pytest.mark.parametrize(
    "rows, n, x_src, t_src, x_out, t_out",
    [
        # the readout calls: slab at refine 0 (33 slices at time density 2) and 1, and
        # one square of two-point at refine 0
        (65, 53, (-0.5, 0.5), (3.0, 3.2), (-38.136, 38.136, 682), 4.2),
        (66, 106, (-0.5, 0.5), (3.0, 3.2), (-38.136, 38.136, 682), 4.2),
        (65, 33, (-7.0783, -6.9217), (3.0, 3.1566), (-37.254, 27.254, 563), 3.9566),
    ],
    ids=["slab-refine0", "slab-refine1", "two-point"],
)
def test_block_rows_match_dense_sum(row_calls, rows, n, x_src, t_src, x_out, t_out):
    x, t, amp = source_block(np.random.default_rng(rows * n), rows, n, x_src, t_src)
    x_out = np.linspace(*x_out)
    ref = _kernels.propagate_numpy(x_out, t_out, x.ravel(), t.ravel(), amp.ravel(), 1.0, 1.0, 0.0)
    got = _kernels.propagate(x_out, t_out, x, t, amp, 1.0, 1.0, 0.0)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    ((_, _, y0, d, t_rows, a, _, _),) = row_calls
    assert a is amp
    assert_array_equal(y0, x[:, 0])
    assert_array_equal(t_rows, t[:, 0])
    assert_allclose(d, x[0, 1] - x[0, 0], rtol=1e-12)


@pytest.mark.parametrize(
    "case", ["uneven-row", "two-times-in-a-row", "one-point-rows", "damped", "nonuniform-outputs"]
)
def test_block_failing_a_precondition_takes_dense_sum(row_calls, case):
    x, t, amp = source_block(np.random.default_rng(11), 8, 40, (-0.5, 0.5), (3.0, 3.2))
    x_out, eta = np.linspace(-8.0, 8.0, 257), 0.0
    if case == "uneven-row":
        x = x.copy()
        x[3, 7] += 1e-3
    elif case == "two-times-in-a-row":
        t = t.copy()
        t[5, -1] += 1e-3
    elif case == "one-point-rows":
        x, t, amp = x[:, :1], t[:, :1], amp[:, :1]
    elif case == "damped":
        eta = 1e-3
    else:
        x_out = x_out**3 / 64
    ref = _kernels.propagate_numpy(x_out, 4.2, x.ravel(), t.ravel(), amp.ravel(), 1.0, 1.0, eta)
    assert_array_equal(_kernels.propagate(x_out, 4.2, x, t, amp, 1.0, 1.0, eta), ref)
    assert row_calls == []


@pytest.mark.parametrize("n", [1, 2, 3, 33, 1000, 4097, 2**17])
def test_chirp_matches_exact_exp(n):
    # dyadic coefficients keep alpha + beta j + gamma j^2 exact in float64,
    # so np.exp of it is a true reference; |beta j|, |gamma j^2| <= 128
    rows = 64 if n <= 4097 else 8
    rng = np.random.default_rng(n)
    k = rng.integers(-(2**10), 2**10, size=(3, rows, 1)).astype(float)
    bits = n.bit_length()
    alpha, beta, gamma = k[0] / 2**10, k[1] / 2 ** (bits + 3), k[2] / 2 ** (2 * bits + 3)
    j = np.arange(n)
    ref = np.exp(1j * (alpha + beta * j + gamma * j * j))
    got = _kernels._chirp(alpha, beta, gamma, n)
    assert got.shape == (rows, n)
    assert np.max(np.abs(got - ref)) <= 1e-13


def test_chirp_z_matches_scipy_czt(row_calls):
    from scipy.signal import czt  # test-only dependency

    m_, hb, dt = 1.3, 0.7, 0.9
    rng = np.random.default_rng(5)
    y = np.linspace(-1.0, 2.0, 300)
    x = np.linspace(-12.0, 9.0, 501)
    amp = rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)
    out = _kernels.propagate(x, dt, y[None], np.zeros((1, y.size)), amp[None], m_, hb, 0.0)
    assert len(row_calls) == 1
    # W(x_j; y_i) = pref e^{ik x_j^2} e^{ik y_i^2} e^{-2ik x_j y0} z_j^{-i},
    # z_j = e^{2ik dy x_j} = A W^{-j}: a chirp-z transform of amp e^{ik y^2}
    k = m_ / (2 * hb * dt)
    dy, dx = y[1] - y[0], x[1] - x[0]
    spec = czt(amp * np.exp(1j * k * y**2), m=x.size,
               w=np.exp(-2j * k * dy * dx), a=np.exp(2j * k * dy * x[0]))
    pref = np.sqrt(m_ / (2j * np.pi * hb * dt))
    expect = pref * np.exp(1j * k * x**2 - 2j * k * x * y[0]) * spec
    assert np.max(np.abs(out - expect)) <= 1e-9 * np.max(np.abs(expect))


@pytest.mark.parametrize(
    "case",
    ["runs", "runs-and-scattered", "damped-0.001", "damped-0.2", "nonuniform-outputs",
     "one-output"],
)
def test_point_cloud_takes_dense_sum(row_calls, case):
    # a flat point cloud is never split into equal-time runs, not even uniform ones at eta 0
    rng = np.random.default_rng(7)
    x, t, amp, own = uniform_slices(rng, (40, 70, 25), (0.4, 1.1, 2.0), 3.0)
    x_src, t_src, amp = x[own], t[own], amp[own]
    x_out, eta = np.linspace(-8.0, 8.0, 257), 0.0
    if case == "runs-and-scattered":
        scattered = random_points(30, rng)  # a new time per point
        x_src, t_src, amp = (
            np.r_[p[:15], q, p[15:]] for p, q in zip(scattered, (x_src, t_src, amp))
        )
    elif case.startswith("damped"):
        eta = float(case.split("-")[1])
    elif case == "nonuniform-outputs":
        x_out = x_out**3 / 64
    elif case == "one-output":
        x_out = np.array([0.7])
    args = (x_out, 3.0, x_src, t_src, amp, 1.0, 1.0, eta)
    assert_array_equal(_kernels.propagate(*args), _kernels.propagate_numpy(*args))
    assert row_calls == []


def test_fast_len_is_smallest_5_smooth_length():
    smooth = [2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(6)]
    for n in range(1, 5001):
        assert _kernels._fast_len(n) == min(v for v in smooth if v >= n)
