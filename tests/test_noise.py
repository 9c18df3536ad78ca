"""Tests for Q-Wiener sampling, controls, and persistence.

Statistical checks run on seeded draws with tolerances sized from the
estimator's own standard error; series tails are checked against the
Riemann zeta function from scipy.
"""

import numpy as np
import pytest
from scipy.special import zeta

from sgbh.noise import (
    BinaryFormatError,
    ControlPath,
    NoiseRealization,
    NoiseSpec,
    control_bytes,
    load_control,
    sample_noise,
)


# --- spectral coloring ------------------------------------------------------


def test_q_weights_formula():
    spec = NoiseSpec(n_modes=8, eta=0.3)
    j = np.arange(1, 9)
    np.testing.assert_allclose(spec.q, ((j * np.pi) ** 2) ** -0.3, rtol=1e-15)
    assert spec.q[0] == pytest.approx(np.pi**-0.6, rel=1e-15)


def test_trace_class_boundary():
    with pytest.raises(ValueError):
        NoiseSpec(n_modes=8, eta=0.25)
    with pytest.raises(ValueError):
        NoiseSpec(n_modes=8, eta=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(n_modes=0, eta=0.3)
    NoiseSpec(n_modes=8, eta=0.2501)


def _q_squared_partial_sums(eta, j_max):
    """Partial sums of q_j^2 up to j_max: the trace-class sums of the coloring."""
    return np.cumsum(NoiseSpec(n_modes=j_max, eta=eta).q ** 2)


def test_partial_sums_increase_and_stay_below_zeta_total():
    sums = _q_squared_partial_sums(0.3, 512)
    assert np.all(np.diff(sums) > 0)
    total = np.pi**-1.2 * zeta(1.2)
    assert sums[-1] < total


def test_trace_tail_decay_rate():
    """tail(J) = sum_{j>J} q_j^2 decays like J^(1-4*eta), here J^(-0.2)."""
    eta = 0.3
    j_values = np.array([16, 32, 64, 128, 256])
    sums = _q_squared_partial_sums(eta, int(j_values.max()))
    total = np.pi ** (-4 * eta) * zeta(4 * eta)
    tails = total - sums[j_values - 1]
    slope = np.polyfit(np.log(j_values), np.log(tails), 1)[0]
    expected = -(4 * eta - 1)
    assert slope == pytest.approx(expected, abs=0.15 * abs(expected))


# --- sampling ----------------------------------------------------------------


def test_sampling_is_deterministic_and_keyed():
    spec = NoiseSpec(n_modes=4, eta=0.3)
    a = sample_noise(spec, 0.01, 20, seed=42, path_index=3)
    b = sample_noise(spec, 0.01, 20, seed=42, path_index=3)
    assert np.array_equal(a.increments, b.increments)
    c = sample_noise(spec, 0.01, 20, seed=42, path_index=4)
    d = sample_noise(spec, 0.01, 20, seed=43, path_index=3)
    assert not np.array_equal(a.increments, c.increments)
    assert not np.array_equal(a.increments, d.increments)


def test_every_key_word_is_taken_mod_2_64():
    """Negative and wide seeds and path indices key their own streams: -1 is
    2^64 - 1, not seed 0's stream, and no two keys below 2^64 share one."""
    spec = NoiseSpec(n_modes=4, eta=0.3)

    def draw(seed, path_index=0):
        return sample_noise(spec, 0.01, 20, seed=seed, path_index=path_index).increments

    assert not np.array_equal(draw(-1), draw(0))
    assert not np.array_equal(draw(-2), draw(-3))
    assert not np.array_equal(draw(2**63), draw(2**63 + 1))
    assert np.array_equal(draw(-1), draw(2**64 - 1))
    assert np.array_equal(draw(7, -1), draw(7, 2**64 - 1))
    assert not np.array_equal(draw(7, -1), draw(7, 0))


def test_sampling_is_the_scaled_philox_stream():
    # key words (seed, path_index); dt scaling in place keeps the bits
    spec = NoiseSpec(n_modes=5, eta=0.3)
    dt, n_steps, seed, path = 0.003, 40, 2024, 17
    rng = np.random.Generator(np.random.Philox(key=[seed, path]))
    expected = np.sqrt(dt) * rng.standard_normal((5, n_steps))
    got = sample_noise(spec, dt, n_steps, seed=seed, path_index=path).increments
    assert np.array_equal(got, expected)


def test_sampling_validation():
    spec = NoiseSpec(n_modes=4, eta=0.3)
    with pytest.raises(ValueError):
        sample_noise(spec, 0.0, 10, seed=1)
    with pytest.raises(ValueError):
        sample_noise(spec, 0.01, 0, seed=1)
    for inc, n_steps in ((np.zeros((4, 9)), 10), (np.float64(1.0), 1)):
        with pytest.raises(ValueError, match="inconsistent with n_steps"):
            NoiseRealization(dt=0.01, n_steps=n_steps, increments=inc, spec=spec)


def test_realization_freezes_a_private_copy_of_what_the_caller_can_write():
    """A writable array, and a read-only view of one, are copied: writing the
    source afterwards leaves the realization's increments as they were."""
    spec = NoiseSpec(n_modes=2, eta=0.3)
    writable = np.arange(6.0).reshape(2, 3)
    base = np.arange(6.0).reshape(2, 3)
    view = base[:, :]
    view.flags.writeable = False
    for inc, source in ((writable, writable), (view, base)):
        r = NoiseRealization(dt=0.1, n_steps=3, increments=inc, spec=spec)
        source[0, 0] = 99.0
        assert np.array_equal(r.increments, np.arange(6.0).reshape(2, 3))
        assert not r.increments.flags.writeable


def test_control_path_keeps_a_frozen_owned_array_and_copies_a_writable_one():
    """ControlPath follows the realization's rule: a read-only array that owns
    its memory, as ``load_control`` reads, is taken without a copy; a writable
    one is copied and frozen, so writing it afterwards changes nothing."""
    frozen = np.arange(6.0).reshape(2, 3).copy()
    frozen.flags.writeable = False
    assert ControlPath(dt=0.1, n_steps=3, hdot=frozen).hdot is frozen
    writable = frozen.copy()
    h = ControlPath(dt=0.1, n_steps=3, hdot=writable)
    writable[0, 0] = 99.0
    assert h.hdot is not writable and not h.hdot.flags.writeable
    assert np.array_equal(h.hdot, frozen)


def test_sampling_holds_one_draw():
    """sample_noise hands its frozen draw to the realization without a copy."""
    import tracemalloc

    spec, dt, n_steps = NoiseSpec(n_modes=8, eta=0.3), 1e-3, 1000
    one_draw = spec.n_modes * n_steps * 8
    sample_noise(spec, dt, n_steps, seed=25)  # warm: one-off allocations are not the call's
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        r = sample_noise(spec, dt, n_steps, seed=25)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert r.increments.nbytes == one_draw
    assert peak < 1.5 * one_draw


def test_increment_variance_matches_dt():
    spec = NoiseSpec(n_modes=32, eta=0.3)
    dt = 1e-3
    r = sample_noise(spec, dt, 1000, seed=7)
    # 32000 samples: the variance estimate has relative sd sqrt(2/32000) < 1%
    pooled = r.increments.var()
    assert pooled == pytest.approx(dt, rel=0.05)
    assert abs(r.increments.mean()) < 5 * np.sqrt(dt / r.increments.size)


def test_field_covariance_matches_mode_sum():
    """Cov(W(t,x), W(t,y)) = t * sum_j q_j^2 phi_j(x) phi_j(y), Monte Carlo check."""
    spec = NoiseSpec(n_modes=32, eta=0.3)
    dt, n_steps, n_paths = 0.01, 50, 2000
    t = dt * n_steps
    q = spec.q
    j = np.arange(1, spec.n_modes + 1)

    def phi(x):
        return np.sqrt(2.0) * np.sin(j * np.pi * x)

    ends = np.empty((n_paths, spec.n_modes))
    for i in range(n_paths):
        ends[i] = sample_noise(spec, dt, n_steps, seed=314, path_index=i).increments.sum(
            axis=1
        )
    for x, y in [(0.5, 0.5), (0.5, 0.25)]:
        wx = ends @ (q * phi(x))
        wy = ends @ (q * phi(y))
        products = (wx - wx.mean()) * (wy - wy.mean())
        emp = products.mean()
        theory = t * float(np.sum(q**2 * phi(x) * phi(y)))
        stderr = products.std(ddof=1) / np.sqrt(n_paths)
        assert abs(emp - theory) < 4.0 * stderr


# --- control paths and the action ----------------------------------------------


def test_action_unit_rate_single_mode():
    # hdot = 1 on [0,1] in one mode: (1/2) * int 1 dt = 1/2
    h = ControlPath(dt=0.1, n_steps=10, hdot=np.ones((1, 10)))
    assert h.action() == pytest.approx(0.5, rel=1e-14)


def test_action_quadratic_homogeneity():
    rng = np.random.default_rng(17)
    h = ControlPath(dt=0.01, n_steps=50, hdot=rng.standard_normal((4, 50)))
    scaled = ControlPath(dt=0.01, n_steps=50, hdot=3.0 * h.hdot)
    assert scaled.action() == pytest.approx(9.0 * h.action(), rel=1e-12)
    assert h.action() > 0


def test_zero_control_has_zero_action():
    z = ControlPath(0.1, 10, np.zeros((4, 10)))
    assert z.action() == 0.0


def test_control_validation():
    with pytest.raises(ValueError):
        ControlPath(dt=0.0, n_steps=5, hdot=np.zeros((2, 5)))
    with pytest.raises(ValueError):
        ControlPath(dt=0.1, n_steps=5, hdot=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        ControlPath(dt=0.1, n_steps=5, hdot=np.zeros(5))


# --- persistence -------------------------------------------------------------


def test_control_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    h = ControlPath(dt=0.02, n_steps=12, hdot=rng.standard_normal((3, 12)))
    path = tmp_path / "ctrl.bin"
    path.write_bytes(b"".join(control_bytes(h)))
    back = load_control(path)
    assert np.array_equal(back.hdot, h.hdot)
    assert back.dt == h.dt
    assert back.n_steps == h.n_steps
    assert back.action() == pytest.approx(h.action(), rel=1e-15)


def _saved_control(tmp_path):
    path = tmp_path / "ctrl.bin"
    path.write_bytes(b"".join(control_bytes(ControlPath(dt=0.01, n_steps=7, hdot=np.ones((3, 7))))))
    return path


@pytest.mark.parametrize("cut", [0, 3, 24, -8, -1])
def test_truncated_binary_files_raise_format_error(tmp_path, cut):
    path = _saved_control(tmp_path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(BinaryFormatError):
        load_control(path)


def test_overlong_or_inconsistent_binary_files_raise_format_error(tmp_path):
    path = _saved_control(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw + bytes(8))
    with pytest.raises(BinaryFormatError):
        load_control(path)
    # header claiming zero modes, and one claiming a negative step
    for offset, word in ((0, np.int64(0)), (16, np.float64(-0.01))):
        path.write_bytes(raw[:offset] + word.tobytes() + raw[offset + 8 :])
        with pytest.raises(BinaryFormatError):
            load_control(path)
