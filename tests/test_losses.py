import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalsim.losses import (
    LossWeights, loss_log_grad, loss_sc_grad, loss_sot_grad, loss_total_grad,
)


def spectra(rng, frames=4, bins=16):
    Y = rng.uniform(0.0, 2.0, size=(frames, bins))
    Yh = rng.uniform(0.0, 2.0, size=(frames, bins))
    return Y, Yh


def uniform_freqs(bins=16, df=10.0):
    return np.arange(bins) * df


# --- log-magnitude -----------------------------------------------------------

def test_log_identity_is_zero(rng):
    Y, _ = spectra(rng)
    assert loss_log_grad(Y, Y)[0] == 0.0


def test_log_single_bin_ratio():
    Y = np.array([[np.e]])
    Yh = np.array([[1.0]])
    assert loss_log_grad(Y, Yh, epsilon=1e-15)[0] == pytest.approx(1.0, rel=1e-9)


def test_log_matches_naive_double_loop(rng):
    Y, Yh = spectra(rng)
    eps = 1e-8
    naive = 0.0
    for i in range(Y.shape[0]):
        for j in range(Y.shape[1]):
            naive += abs(np.log(Y[i, j] + eps) - np.log(Yh[i, j] + eps))
    assert loss_log_grad(Y, Yh)[0] == pytest.approx(naive, abs=1e-12)


def test_log_shape_mismatch(rng):
    Y, Yh = spectra(rng)
    with pytest.raises(ValueError, match="mismatch"):
        loss_log_grad(Y, Yh[:, :-1])


# --- spectral convergence -------------------------------------------------------

def test_sc_identity_and_scaling(rng):
    Y, _ = spectra(rng)
    assert loss_sc_grad(Y, Y)[0] == 0.0
    assert loss_sc_grad(Y, np.zeros_like(Y))[0] == pytest.approx(1.0)
    assert loss_sc_grad(Y, 2 * Y)[0] == pytest.approx(1.0)


def test_sc_zero_target_rejected():
    with pytest.raises(ValueError, match="all-zero"):
        loss_sc_grad(np.zeros((2, 3)), np.ones((2, 3)))


# --- spectral optimal transport ---------------------------------------------------

def test_sot_identity(rng):
    Y, _ = spectra(rng)
    assert loss_sot_grad(Y, Y, uniform_freqs())[0] == pytest.approx(0.0, abs=1e-15)


def test_sot_point_mass_shift_is_exact():
    bins, df = 32, 7.5
    freqs = np.arange(bins) * df
    for k, m in [(3, 5), (10, 1), (0, 20)]:
        Y = np.zeros((1, bins)); Y[0, k] = 1.0
        Yh = np.zeros((1, bins)); Yh[0, k + m] = 1.0
        assert loss_sot_grad(Y, Yh, freqs)[0] == m * df


def test_sot_zero_mass_frames_skipped_but_counted(rng):
    freqs = uniform_freqs(8, 2.0)
    Y = np.zeros((2, 8)); Y[0, 1] = 1.0; Y[1, 2] = 1.0
    Yh = np.zeros((2, 8)); Yh[0, 3] = 1.0  # second frame empty on one side
    full = loss_sot_grad(Y, Yh, freqs)[0]
    assert full == pytest.approx((2 * 2.0) / 2)


def test_sot_all_zero_rejected():
    with pytest.raises(ValueError, match="zero mass"):
        loss_sot_grad(np.zeros((2, 4)), np.zeros((2, 4)), uniform_freqs(4))


def sorted_cdf_distance(y, yh, freqs):
    # independent oracle: L1 between CDFs of the normalised masses
    cy = np.cumsum(y / y.sum())
    ch = np.cumsum(yh / yh.sum())
    return float(np.sum(np.abs(cy[:-1] - ch[:-1]) * np.diff(freqs)))


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10**6))
def test_sot_matches_cdf_oracle(seed):
    rng = np.random.default_rng(seed)
    frames, bins = rng.integers(1, 5), rng.integers(2, 24)
    Y = rng.uniform(0.01, 1.0, size=(frames, bins))
    Yh = rng.uniform(0.01, 1.0, size=(frames, bins))
    freqs = np.cumsum(rng.uniform(0.5, 3.0, size=bins))
    expect = np.mean([sorted_cdf_distance(Y[i], Yh[i], freqs) for i in range(frames)])
    assert loss_sot_grad(Y, Yh, freqs)[0] == pytest.approx(expect, abs=1e-10)


# --- composite ---------------------------------------------------------------------

def test_total_weight_selection(rng):
    Y, Yh = spectra(rng)
    freqs = uniform_freqs()
    only_log = loss_total_grad(Y, Yh, LossWeights(1.0, 0.0, 0.0), freqs)[0]
    assert only_log == pytest.approx(loss_log_grad(Y, Yh)[0])
    zero, _ = loss_total_grad(Y, Y, LossWeights(1.0, 2.0, 3.0), freqs)
    assert zero == pytest.approx(0.0, abs=1e-12)


def test_total_is_sum_of_components(rng):
    Y, Yh = spectra(rng)
    freqs = uniform_freqs()
    total = loss_total_grad(Y, Yh, LossWeights(1.0, 1.0, 1.0), freqs)[0]
    parts = loss_log_grad(Y, Yh)[0] + loss_sc_grad(Y, Yh)[0] + loss_sot_grad(Y, Yh, freqs)[0]
    assert total == pytest.approx(parts, abs=1e-12)


def test_weights_validation():
    with pytest.raises(ValueError, match="non-negative"):
        LossWeights(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="at least one"):
        LossWeights(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="epsilon"):
        LossWeights(1.0, 1.0, 1.0, epsilon=0.0)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_losses_nonnegative(seed):
    rng = np.random.default_rng(seed)
    Y = rng.uniform(0.0, 3.0, size=(3, 12))
    Yh = rng.uniform(0.0, 3.0, size=(3, 12))
    Y[0, 0] = 1.0  # keep target nonzero
    freqs = uniform_freqs(12)
    assert loss_log_grad(Y, Yh)[0] >= 0.0
    assert loss_sc_grad(Y, Yh)[0] >= 0.0
    assert loss_sot_grad(Y + 1e-6, Yh + 1e-6, freqs)[0] >= 0.0


# --- gradients vs finite differences -------------------------------------------------

def fd_grad(fn, Yh, h=1e-6):
    g = np.zeros_like(Yh)
    for idx in np.ndindex(Yh.shape):
        p = Yh.copy(); p[idx] += h
        m = Yh.copy(); m[idx] -= h
        g[idx] = (fn(p) - fn(m)) / (2 * h)
    return g


def test_loss_gradients_match_fd(rng):
    Y, Yh = spectra(rng, frames=3, bins=10)
    freqs = uniform_freqs(10, 3.0)

    v, g = loss_log_grad(Y, Yh)
    assert np.max(np.abs(g - fd_grad(lambda z: loss_log_grad(Y, z)[0], Yh))) < 1e-6

    v, g = loss_sc_grad(Y, Yh)
    assert np.max(np.abs(g - fd_grad(lambda z: loss_sc_grad(Y, z)[0], Yh))) < 1e-6

    v, g = loss_sot_grad(Y, Yh, freqs)
    assert np.max(np.abs(g - fd_grad(lambda z: loss_sot_grad(Y, z, freqs)[0], Yh))) < 1e-6

    v, g = loss_total_grad(Y, Yh, LossWeights(0.7, 1.3, 2.1), freqs)
    fd = fd_grad(lambda z: loss_total_grad(Y, z, LossWeights(0.7, 1.3, 2.1), freqs)[0], Yh)
    assert np.max(np.abs(g - fd)) < 1e-5


# --- a leading start axis -----------------------------------------------------------

@pytest.mark.parametrize("name", ["log", "sc", "sot", "total"])
def test_losses_over_starts_equal_separate_calls(rng, name):
    freqs = np.cumsum(rng.uniform(0.5, 3.0, size=12))
    grad_fn = {
        "log": lambda Y, Yh: loss_log_grad(Y, Yh),
        "sc": loss_sc_grad,
        "sot": lambda Y, Yh: loss_sot_grad(Y, Yh, freqs),
        "total": lambda Y, Yh: loss_total_grad(Y, Yh, LossWeights(0.7, 1.3, 2.1), freqs),
    }[name]
    Y = rng.uniform(0.01, 2.0, size=(3, 12))
    Yh = rng.uniform(0.01, 2.0, size=(5, 3, 12))
    Yh[2] = Y  # one start on the target: zero sc norm and zero transport
    vals, grads = grad_fn(Y, Yh)
    assert vals.shape == (5,) and grads.shape == Yh.shape
    for k in range(5):
        v, g = grad_fn(Y, Yh[k])
        assert vals[k] == pytest.approx(v, rel=1e-14, abs=1e-15)
        np.testing.assert_allclose(grads[k], g, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("shape", [(5, 3, 11), (5, 2, 12), (3,), (12,)])
def test_losses_over_starts_reject_mismatched_shapes(rng, shape):
    Y = rng.uniform(0.01, 2.0, size=(3, 12))
    Yh = rng.uniform(0.01, 2.0, size=shape)
    for fn in (loss_log_grad, loss_sc_grad, lambda Y, Yh: loss_sot_grad(Y, Yh, uniform_freqs(12))):
        with pytest.raises(ValueError, match="mismatch"):
            fn(Y, Yh)


def test_sot_rejects_a_start_without_mass():
    Y = np.ones((2, 4))
    Yh = np.ones((3, 2, 4))
    Yh[1] = 0.0
    with pytest.raises(ValueError, match="zero mass"):
        loss_sot_grad(Y, Yh, uniform_freqs(4))
