"""Tests for Q-Wiener sampling, bridge refinement, controls, and persistence.

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
    action,
    load_control,
    load_realization,
    refine_noise,
    sample_noise,
    save_control,
    save_realization,
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


def test_partial_sums_increase_and_stay_below_zeta_total():
    spec = NoiseSpec(n_modes=32, eta=0.3)
    sums = spec.q_squared_partial_sums(j_max=512)
    assert np.all(np.diff(sums) > 0)
    total = np.pi**-1.2 * zeta(1.2)
    assert sums[-1] < total


def test_trace_tail_decay_rate():
    """tail(J) = sum_{j>J} q_j^2 decays like J^(1-4*eta), here J^(-0.2)."""
    eta = 0.3
    spec = NoiseSpec(n_modes=32, eta=eta)
    j_values = np.array([16, 32, 64, 128, 256])
    sums = spec.q_squared_partial_sums(j_max=int(j_values.max()))
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


def test_sampling_is_the_scaled_philox_stream():
    # key words (seed, path_index) at stream 0; dt scaling in place keeps the bits
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
    with pytest.raises(ValueError):
        NoiseRealization(dt=0.01, n_steps=10, increments=np.zeros((4, 9)), seed=1)


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


# --- bridge refinement ----------------------------------------------------------


def test_refine_group_sums_reproduce_coarse_increments():
    spec = NoiseSpec(n_modes=8, eta=0.3)
    r = sample_noise(spec, 0.02, 25, seed=5)
    fine = refine_noise(r, 4)
    assert fine.dt == pytest.approx(r.dt / 4, rel=1e-15)
    assert fine.n_steps == 100
    groups = fine.increments.reshape(8, 25, 4).sum(axis=2)
    np.testing.assert_allclose(groups, r.increments, atol=1e-15)


def test_refine_variance_and_determinism():
    spec = NoiseSpec(n_modes=16, eta=0.3)
    r = sample_noise(spec, 0.05, 200, seed=11)
    fine = refine_noise(r, 5)
    again = refine_noise(r, 5)
    assert np.array_equal(fine.increments, again.increments)
    assert fine.increments.var() == pytest.approx(r.dt / 5, rel=0.05)


def test_refining_a_zero_realization_gives_zero_sum_fluctuations():
    spec = NoiseSpec(n_modes=3, eta=0.3)
    r = NoiseRealization(
        dt=0.1, n_steps=4, increments=np.zeros((3, 4)), seed=21, spec=spec
    )
    fine = refine_noise(r, 3)
    assert np.abs(fine.increments).max() > 0
    np.testing.assert_allclose(
        fine.increments.reshape(3, 4, 3).sum(axis=2), 0.0, atol=1e-15
    )


def test_refine_rejects_bad_factor():
    spec = NoiseSpec(n_modes=2, eta=0.3)
    r = sample_noise(spec, 0.1, 5, seed=1)
    for factor in (1, 0, -2, 2.5):
        with pytest.raises(ValueError):
            refine_noise(r, factor)


# --- control paths and the action ----------------------------------------------


def test_action_unit_rate_single_mode():
    # hdot = 1 on [0,1] in one mode: (1/2) * int 1 dt = 1/2
    h = ControlPath(dt=0.1, n_steps=10, hdot=np.ones((1, 10)))
    assert action(h) == pytest.approx(0.5, rel=1e-14)
    assert h.action() == pytest.approx(0.5, rel=1e-14)


def test_action_quadratic_homogeneity():
    rng = np.random.default_rng(17)
    h = ControlPath(dt=0.01, n_steps=50, hdot=rng.standard_normal((4, 50)))
    scaled = ControlPath(dt=0.01, n_steps=50, hdot=3.0 * h.hdot)
    assert scaled.action() == pytest.approx(9.0 * h.action(), rel=1e-12)
    assert h.action() > 0


def test_zero_control_and_ball_membership():
    z = ControlPath.zero(4, 0.1, 10)
    assert z.action() == 0.0
    assert z.in_ball(0.0)
    h = ControlPath(dt=0.1, n_steps=10, hdot=np.ones((1, 10)))
    assert h.in_ball(1.0)
    assert not h.in_ball(0.999)


def test_control_validation():
    with pytest.raises(ValueError):
        ControlPath(dt=0.0, n_steps=5, hdot=np.zeros((2, 5)))
    with pytest.raises(ValueError):
        ControlPath(dt=0.1, n_steps=5, hdot=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        ControlPath(dt=0.1, n_steps=5, hdot=np.zeros(5))


# --- persistence -------------------------------------------------------------


def test_realization_round_trip(tmp_path):
    spec = NoiseSpec(n_modes=6, eta=0.4)
    r = sample_noise(spec, 0.005, 30, seed=1234)
    path = tmp_path / "real.bin"
    save_realization(r, path)
    back = load_realization(path, spec=spec)
    assert np.array_equal(back.increments, r.increments)
    assert back.dt == r.dt
    assert back.n_steps == r.n_steps
    assert back.seed == r.seed
    assert back.spec == spec
    # reattaching a spec with the wrong mode count must fail
    with pytest.raises(ValueError):
        load_realization(path, spec=NoiseSpec(n_modes=4, eta=0.4))
    assert load_realization(path).spec is None


def test_control_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    h = ControlPath(dt=0.02, n_steps=12, hdot=rng.standard_normal((3, 12)))
    path = tmp_path / "ctrl.bin"
    save_control(h, path)
    back = load_control(path)
    assert np.array_equal(back.hdot, h.hdot)
    assert back.dt == h.dt
    assert back.n_steps == h.n_steps
    assert back.action() == pytest.approx(h.action(), rel=1e-15)


def _flat_binary_cases(tmp_path):
    """One saved realization and one saved control, with their loaders."""
    spec = NoiseSpec(n_modes=3, eta=0.3)
    real = tmp_path / "real.bin"
    save_realization(sample_noise(spec, 0.01, 7, seed=5), real)
    ctrl = tmp_path / "ctrl.bin"
    save_control(ControlPath(dt=0.01, n_steps=7, hdot=np.ones((3, 7))), ctrl)
    return [(real, load_realization), (ctrl, load_control)]


@pytest.mark.parametrize("cut", [0, 3, 24, -8, -1])
def test_truncated_binary_files_raise_format_error(tmp_path, cut):
    for path, load in _flat_binary_cases(tmp_path):
        raw = path.read_bytes()
        path.write_bytes(raw[:cut])
        with pytest.raises(BinaryFormatError):
            load(path)


def test_overlong_or_inconsistent_binary_files_raise_format_error(tmp_path):
    for path, load in _flat_binary_cases(tmp_path):
        raw = path.read_bytes()
        path.write_bytes(raw + bytes(8))
        with pytest.raises(BinaryFormatError):
            load(path)
        # header claiming zero modes, and one claiming a negative step
        for offset, word in ((0, np.int64(0)), (16, np.float64(-0.01))):
            path.write_bytes(raw[:offset] + word.tobytes() + raw[offset + 8 :])
            with pytest.raises(BinaryFormatError):
                load(path)
