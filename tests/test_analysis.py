import logging
import re

import mpmath as mp
import numpy as np
import pytest
from scipy.signal import get_window

from modalsim import adjoint
from modalsim.analysis import (
    LpcModel, bark_grid, bark_to_hz, hz_to_bark, lpc, lpc_envelope_at, stft,
    tf_magnitude,
)
from modalsim.audio_io import WavFormatError, wav_read, wav_write
from modalsim.adjoint import (
    Coefficients, forward_cached, ftm_update_partials, stft_backward, stft_cached,
    tf_magnitude_backward, tf_magnitude_cached,
)
from modalsim.integrators import ftm_coeffs, oscillator_bank


# --- STFT ------------------------------------------------------------------------

def test_stft_sinusoid_concentrates_energy():
    rate = 8000.0
    k_bin = 40
    f = k_bin * rate / 512
    t = np.arange(8192) / rate
    spec = stft(np.sin(2 * np.pi * f * t), rate, 512, 128)
    main = spec.magnitude[4:-4, k_bin]
    others = spec.magnitude[4:-4].copy()
    others[:, k_bin - 2 : k_bin + 3] = 0.0
    # Hann sidelobes sit 31 dB or more below the peak
    assert np.max(others) < np.min(main) * 10 ** (-31 / 20)


def test_stft_zero_signal():
    spec = stft(np.zeros(4096), 8000.0, 1024, 256)
    assert np.all(spec.magnitude == 0.0)


def test_stft_parseval_per_frame(rng):
    rate = 8000.0
    x = rng.normal(size=4096)
    wl, hop = 512, 128
    spec = stft(x, rate, wl, hop)
    win = get_window("hann", wl, fftbins=True)
    pad = wl // 2
    xp = np.pad(x, pad, mode="reflect")
    for fi in range(spec.n_frames):
        seg = xp[fi * hop : fi * hop + wl] * win
        energy = np.sum(seg**2)
        m = spec.magnitude[fi]
        # one-sided bins: double everything except DC and Nyquist
        spec_energy = (2 * np.sum(m**2) - m[0] ** 2 - m[-1] ** 2) / wl
        assert spec_energy == pytest.approx(energy, rel=1e-6)


@pytest.mark.parametrize("wl", [2, 16, 256, 1000, 1024, 4095])
def test_stft_window_is_periodic_hann(wl):
    _, (_, _, win, *_) = stft_cached(np.zeros(4096), wl, wl // 2)
    assert np.array_equal(win, get_window("hann", wl, fftbins=True))


def test_stft_rejects_one_sample_window():
    with pytest.raises(ValueError, match="window length must be >= 2"):
        stft(np.zeros(16), 8000.0, 1, 1)


@pytest.mark.parametrize("hop", [0, -4])
def test_stft_rejects_hop_below_one(hop):
    with pytest.raises(ValueError, match="hop must be >= 1"):
        stft(np.zeros(64), 8000.0, 16, hop)


def test_stft_magnitude_triangle_inequality(rng):
    x = rng.normal(size=2048)
    y = rng.normal(size=2048)
    a = stft(x, 8000.0, 256, 64).magnitude
    b = stft(y, 8000.0, 256, 64).magnitude
    ab = stft(x + y, 8000.0, 256, 64).magnitude
    assert np.all(ab <= a + b + 1e-9)


def test_stft_too_short_signal():
    with pytest.raises(ValueError, match="too short"):
        stft(np.zeros(100), 8000.0, 1024, 256)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stft_rejects_a_signal_that_is_not_finite(rng, bad):
    # unchecked, one NaN in 4,096 samples spread to 1,539 NaN bins
    x = rng.normal(size=4096)
    x[2000] = bad
    with pytest.raises(ValueError, match="^signal must be finite$"):
        stft(x, 8000.0)


def stft_oracle(y, wl, hop):
    """The magnitude STFT from its definition: reflect-pad, frame, window."""
    xp = np.pad(y, wl // 2, mode="reflect")
    frames = np.stack([xp[i:i + wl] for i in range(0, len(xp) - wl + 1, hop)])
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(wl) / wl)
    return np.abs(np.fft.rfft(frames * win, axis=1))


def test_stft_at_interleaved_settings_equals_a_fresh_one(rng):
    # the index maps and the window are built once per (length, window, hop)
    # and kept, read-only since every call shares them; each setting of an
    # interleaved run must get its own
    settings = [(4096, 256, 64), (3000, 256, 64), (4096, 512, 128), (3001, 255, 100),
                (4096, 256, 64), (3000, 256, 64), (3001, 255, 100)]
    signals = {n: rng.normal(size=n) for n in (3000, 3001, 4096)}
    runs = []
    for n, wl, hop in settings:
        mag, cache = stft_cached(signals[n], wl, hop)
        mag_bar = rng.normal(size=mag.shape)
        runs.append((mag, mag_bar, stft_backward(cache, mag_bar)))
        assert not any(a.flags.writeable for a in adjoint._stft_plan(n, wl, hop))
    for (n, wl, hop), (mag, mag_bar, back) in zip(settings, runs):
        adjoint._stft_plan.cache_clear()
        fresh, cache = stft_cached(signals[n], wl, hop)
        assert np.array_equal(mag, fresh)
        assert np.array_equal(back, stft_backward(cache, mag_bar))
        np.testing.assert_allclose(mag, stft_oracle(signals[n], wl, hop), rtol=1e-12,
                                   atol=1e-12 * mag.max())


def test_stft_builds_its_index_maps_once_per_setting(monkeypatch, rng):
    y = rng.normal(size=4096)
    want, _ = stft_cached(y, 256, 64)

    def not_per_call(*args, **kw):
        raise AssertionError("an index map or the window was built again")

    for name in ("pad", "arange", "linspace"):
        monkeypatch.setattr(np, name, not_per_call)
    assert np.array_equal(stft_cached(y, 256, 64)[0], want)


@pytest.mark.parametrize("n, wl, hop, silent", [
    (700, 128, 32, False),  # even window: a Nyquist bin
    (700, 127, 32, False),  # odd window: none
    (701, 128, 48, False),  # the hop divides neither the window nor the length
    (900, 128, 32, True),   # all-zero frames at both ends, |Z| = 0 there
])
def test_stft_backward_is_the_adjoint_of_the_magnitude_stft(n, wl, hop, silent):
    rng = np.random.default_rng([n, wl, hop])
    y = rng.standard_normal(n)
    if silent:
        y[:300] = y[-300:] = 0.0
    mag, cache = stft_cached(y, wl, hop)
    assert (mag == 0.0).all(axis=1).any() == silent
    mag_bar = rng.standard_normal(mag.shape)
    eps = 1e-6
    for v in rng.standard_normal((3, n)):
        # |Z| is even in v where Z = 0, so the central difference is 0 there
        fd = np.sum((stft_cached(y + eps * v, wl, hop)[0]
                     - stft_cached(y - eps * v, wl, hop)[0]) * mag_bar) / (2 * eps)
        assert stft_backward(cache, mag_bar) @ v == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("n, wl, hop", [(4096, 1024, 256), (701, 128, 48), (3001, 255, 100),
                                        (700, 127, 127), (700, 64, 1)])
def test_stft_backward_sums_each_position_in_frame_order(n, wl, hop):
    # the fits' gradients move far above rounding when these sums are reordered;
    # bincount over the frames' positions adds each position's terms frame by frame
    rng = np.random.default_rng([n, wl, hop])
    mag, cache = stft_cached(rng.standard_normal(n), wl, hop)
    mag_bar = rng.standard_normal(mag.shape)
    Z, _, win, padded, *_ = cache
    ratio = mag_bar / mag
    ratio[:, 0] *= 2.0
    if wl % 2 == 0:
        ratio[:, -1] *= 2.0
    seg = np.fft.irfft(Z * ratio, n=wl, axis=1)
    seg *= (0.5 * wl) * win
    frames = np.arange(len(Z))[:, None] * hop + np.arange(wl)
    xp_bar = np.bincount(frames.ravel(), weights=seg.ravel(), minlength=len(padded))
    want = np.bincount(padded, weights=xp_bar, minlength=n)
    assert np.array_equal(stft_backward(cache, mag_bar), want)


def test_spectrogram_csv_header(tmp_path, rng):
    spec = stft(rng.normal(size=2048), 8000.0, 256, 64)
    path = tmp_path / "spec.csv"
    spec.to_csv(path)
    head = path.read_text().splitlines()[0]
    assert "rate=8000" in head and "hop=64" in head and "hann" in head


# --- LPC --------------------------------------------------------------------------

def test_lpc_ar1_coefficient(rng):
    n = 100_000
    e = rng.normal(size=n)
    x = np.empty(n)
    x[0] = e[0]
    for i in range(1, n):
        x[i] = 0.9 * x[i - 1] + e[i]
    model = lpc(x, 1)
    assert model.coeffs[0] == pytest.approx(-0.9, abs=0.02)


def test_lpc_white_noise_small_coeffs(rng):
    model = lpc(rng.normal(size=100_000), 8)
    assert np.all(np.abs(model.coeffs) < 0.05)


def test_lpc_self_consistency_reflections():
    # estimate on the synthesis filter's own (deterministic) impulse response,
    # whose autocorrelation is the model autocorrelation up to truncation
    true = np.array([-1.2, 0.5])  # stable AR(2)
    n = 8192
    x = np.zeros(n)
    x[0] = 1.0
    for i in range(1, n):
        for k, a in enumerate(true, start=1):
            if i - k >= 0:
                x[i] -= a * x[i - k]
    m1 = lpc(x, 2)
    assert m1.coeffs == pytest.approx(true, abs=1e-3)


def test_lpc_minimum_phase(rng):
    x = rng.normal(size=50_000)
    x = np.convolve(x, [1.0, 0.7, 0.2], mode="same")
    model = lpc(x, 12)
    roots = np.roots(np.concatenate([[1.0], model.coeffs]))
    assert np.max(np.abs(roots)) < 1.0


def test_lpc_normal_equations(rng):
    x = rng.normal(size=20_000)
    x = np.convolve(x, np.ones(4) / 4, mode="same")
    p = 6
    model = lpc(x, p)
    r = np.array([x[: len(x) - k] @ x[k:] / len(x) for k in range(p + 1)])
    Rm = np.array([[r[abs(i - j)] for j in range(p)] for i in range(p)])
    resid = Rm @ model.coeffs + r[1 : p + 1]
    assert np.max(np.abs(resid)) / r[0] < 1e-8


def test_lpc_rejects_silence():
    with pytest.raises(ValueError, match="energy"):
        lpc(np.zeros(1000), 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lpc_rejects_a_signal_that_is_not_finite(rng, bad):
    # a float WAV may hold such samples; the model would be all NaN
    x = rng.normal(size=1000)
    x[500] = bad
    with pytest.raises(ValueError, match="signal must be finite"):
        lpc(x, 4)


def test_lpc_envelope_order_zero_constant():
    model = LpcModel(order=0, coeffs=np.zeros(0), gain=3.5)
    env = lpc_envelope_at(model, [100.0, 1000.0, 3999.0], 8000.0)
    assert env == pytest.approx([3.5, 3.5, 3.5])


def test_lpc_envelope_ar1_dc_nyquist_ratio():
    model = LpcModel(order=1, coeffs=np.array([-0.9]), gain=1.0)
    env = lpc_envelope_at(model, [0.0, 4000.0], 8000.0)
    assert env[0] / env[1] == pytest.approx(19.0, rel=1e-12)


def test_lpc_envelope_matches_fft_of_synthesis_filter(rng):
    x = rng.normal(size=30_000)
    x = np.convolve(x, [1.0, -0.4, 0.1], mode="same")
    model = lpc(x, 6)
    n = 4096
    imp = np.zeros(n)
    imp[0] = model.gain
    for i in range(n):
        for k in range(1, model.order + 1):
            if i - k >= 0:
                imp[i] -= model.coeffs[k - 1] * imp[i - k]
    fft_mag = np.abs(np.fft.rfft(imp))
    freqs = np.fft.rfftfreq(n, 1 / 8000.0)
    env = lpc_envelope_at(model, freqs, 8000.0)
    assert np.max(np.abs(env - fft_mag)) / np.max(fft_mag) < 1e-6


def test_lpc_envelope_out_of_range():
    model = LpcModel(order=0, coeffs=np.zeros(0), gain=1.0)
    with pytest.raises(ValueError, match="Nyquist"):
        lpc_envelope_at(model, [4001.0], 8000.0)


# --- Bark grid ---------------------------------------------------------------------

def test_bark_grid_endpoints_exact():
    f = bark_grid(64, 16000.0, 44100.0)
    assert f[0] == 20.0 and f[-1] == 16000.0


def test_bark_grid_monotone_and_densifies_low():
    f = bark_grid(48, 18000.0, 44100.0)
    d = np.diff(f)
    assert np.all(d > 0)
    assert np.all(np.diff(d) > -1e-9)  # spacing non-decreasing in Hz


def test_bark_value_at_1khz():
    assert hz_to_bark(1000.0) == pytest.approx(8.527, abs=5e-4)


def test_bark_round_trip():
    f = 1000.0
    assert bark_to_hz(hz_to_bark(f)) == pytest.approx(f, abs=1e-9)


def test_bark_grid_validation():
    with pytest.raises(ValueError, match="Nyquist"):
        bark_grid(16, 30000.0, 44100.0)
    with pytest.raises(ValueError, match="two"):
        bark_grid(1, 1000.0, 44100.0)
    # a negative f_min used to return a grid from -50 Hz, which only the
    # frequency-domain fit rejected; the f_max error named 20 Hz whatever f_min was
    for f_max, f_min, message in [
            (1000.0, 0.0, r"^f_min must be positive, got 0.0$"),
            (1000.0, -50.0, r"^f_min must be positive, got -50.0$"),
            (50.0, 100.0, r"^f_max must exceed the 100.0 Hz lower edge, got 50.0$"),
            (20.0, 20.0, r"^f_max must exceed the 20.0 Hz lower edge, got 20.0$")]:
        with pytest.raises(ValueError, match=message):
            bark_grid(16, f_max, 44100.0, f_min=f_min)


# --- transfer-function magnitude -------------------------------------------------------

def test_tf_single_mode_peak_near_resonance():
    rate = 44100.0
    bank = oscillator_bank(np.array([1.0]), 0.0, (2 * np.pi * 440.0) ** 2, gamma=0.0)
    co = ftm_coeffs(bank, 1 / rate)
    freqs = np.linspace(100.0, 1500.0, 2801)
    mag = tf_magnitude(co, np.ones(1), freqs, rate)
    peak = freqs[np.argmax(mag)]
    assert abs(peak - 440.0) <= freqs[1] - freqs[0]


def test_tf_zero_weights():
    bank = oscillator_bank(np.array([1.0, 2.0]), 0.0, 1000.0, gamma=0.1)
    co = ftm_coeffs(bank, 1 / 8000.0)
    mag = tf_magnitude(co, np.zeros(2), [100.0, 200.0], 8000.0)
    assert np.all(mag == 0.0)


def test_tf_matches_dft_of_impulse_response():
    rate = 44100.0
    lam = (np.arange(1, 4) * np.pi) ** 2
    bank = oscillator_bank(lam, 0.0, (2 * np.pi * 300.0) ** 2 / np.pi**2,
                           gamma=np.array([40.0, 50.0, 60.0]))
    co = ftm_coeffs(bank, 1 / rate)
    w = np.array([1.0, 0.6, 0.3])
    A, B, R = co
    imp = np.zeros(2**18)
    imp[0] = 1.0
    n_sim = 2**18
    Q, _ = forward_cached(A, B, R, np.zeros(3), np.zeros(3), n_sim,
                          force_signal=imp, force_gains=np.ones(3))
    h = Q[2:] @ w
    dft = np.abs(np.fft.rfft(h, n=2**18))
    k = np.arange(64) * 50 + 400  # 64 probe bins away from DC
    probe_freqs = k * rate / 2**18
    mag = tf_magnitude(co, w, probe_freqs, rate)
    rel = np.abs(mag - dft[k]) / np.abs(mag)
    assert np.max(rel) < 1e-6


@pytest.mark.parametrize("name, value", [
    ("weights", np.ones(2)), ("weights", np.ones(4)), ("weights", np.float64(1.0)),
    ("coeffs.B", np.ones(2)), ("coeffs.R", np.ones(4)),
], ids=["weights-short", "weights-long", "weights-scalar", "B-short", "R-long"])
def test_tf_rejects_vectors_of_another_length(name, value):
    # a scalar weight would broadcast over the modes
    bank = oscillator_bank(np.array([1.0, 2.0, 3.0]), 0.0, 1000.0, gamma=0.1)
    args = dict(zip(["coeffs.A", "coeffs.B", "coeffs.R"], ftm_coeffs(bank, 1 / 8000.0)),
                weights=np.ones(3))
    args[name] = value
    message = f"{name} has shape {value.shape}, expected length 3"
    with pytest.raises(ValueError, match=re.escape(message)):
        tf_magnitude([args[f"coeffs.{c}"] for c in "ABR"], args["weights"], [100.0, 200.0],
                     8000.0)


def test_tf_frequency_validation():
    bank = oscillator_bank(np.array([1.0]), 0.0, 1000.0, gamma=0.1)
    co = ftm_coeffs(bank, 1 / 8000.0)
    with pytest.raises(ValueError, match="Nyquist"):
        tf_magnitude(co, np.ones(1), [4000.0], 8000.0)


# --- transfer-function kernels against the num/den oracle -------------------------------

def unit_circle(freqs, rate):
    """The kernels' evaluation points z = e^{i 2 pi f / rate}."""
    return np.exp(2j * np.pi * np.asarray(freqs) / rate)


# the transfer-function gradients (Coefficients(dA, dB, dR), dR2, dw) by name
TF_GRADS = ("dA", "dB", "dR", "dR2", "dw")


def tf_fields(grads):
    """The five gradients of a (Coefficients(dA, dB, dR), dR2, dw) in TF_GRADS order."""
    coeffs, dR2, dw = grads
    return (*coeffs, dR2, dw)


def tf_oracle(A, B, R, R2, w, freqs, rate, mag_bar):
    """|H| and its gradients (Coefficients(dA, dB, dR), dR2, dw) from num/den:
    the per-mode response num/den and one projection Re(conj(hbar) dH/dtheta)
    per coefficient."""
    z = np.exp(2j * np.pi * freqs / rate)[:, None]
    num = R[None, :] * z + R2[None, :]
    den = z * z - A[None, :] * z - B[None, :]
    Gm = num / den
    H = np.sum(w[None, :] * Gm, axis=1)
    mag = np.abs(H)
    safe = np.where(mag > 0.0, mag, 1.0)
    hbar = np.where(mag > 0.0, mag_bar * H / safe, 0.0)[:, None]

    def project(dH_dtheta):
        return np.real(np.conj(hbar) * dH_dtheta).sum(axis=0)

    return mag, (
        Coefficients(A=project(w[None, :] * num * z / den**2),
                     B=project(w[None, :] * num / den**2),
                     R=project(w[None, :] * z / den)),
        project(w[None, :] / den),  # dR2
        project(Gm),  # dw
    )


def random_tf_coefficients(seed, n_modes=30, n_freqs=256, rate=44100.0):
    """Resonator coefficients on a Bark grid; a third of the modes sit on grid
    points with so little damping that |den| falls to ~1e-5 there."""
    rng = np.random.default_rng(seed)
    freqs = bark_grid(n_freqs, 18000.0, rate)
    n_sharp = n_modes // 3
    f_mode = np.concatenate([
        rng.choice(freqs[20:-20], n_sharp, replace=False),
        rng.uniform(40.0, 17000.0, n_modes - n_sharp),
    ])
    # |den| at the pole's own frequency is about (1 - e^{-gamma T}) 2 sin(theta)
    theta = 2 * np.pi * f_mode[:n_sharp] / rate
    gamma = np.concatenate([rate * rng.uniform(1e-5, 3e-5, n_sharp) / (2 * np.sin(theta)),
                            rng.uniform(5.0, 300.0, n_modes - n_sharp)])
    A, B, R = ftm_update_partials((2 * np.pi * f_mode) ** 2 + gamma**2, gamma, 1.0 / rate)[0]
    R2 = rng.normal(size=n_modes) * np.abs(R)
    w = rng.normal(size=n_modes)
    return A, B, R, R2, w, freqs, rate


@pytest.mark.parametrize("seed", range(6))
def test_tf_kernels_match_num_den_oracle(seed):
    A, B, R, R2, w, freqs, rate = random_tf_coefficients(seed)
    assert np.any(w > 0) and np.any(w < 0) and np.all(R2 != 0.0)
    z = np.exp(2j * np.pi * freqs / rate)[:, None]
    assert np.min(np.abs(z * z - A * z - B)) < 1e-4
    mag_bar = np.random.default_rng([seed, 1]).normal(size=len(freqs))
    mag, cache = tf_magnitude_cached(A, B, R, R2, w, unit_circle(freqs, rate))
    grads = tf_magnitude_backward(cache, mag_bar)
    mag_ref, grads_ref = tf_oracle(A, B, R, R2, w, freqs, rate, mag_bar)
    assert np.max(np.abs(mag - mag_ref)) <= 1e-12 * np.max(mag_ref)
    assert isinstance(grads[0], Coefficients) and len(grads) == len(grads_ref) == 3
    for name, g, ref in zip(TF_GRADS, tf_fields(grads), tf_fields(grads_ref)):
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def test_tf_kernels_over_stacked_starts_equal_each_start_alone():
    # one array per call holds every start's inv, which the backward pass squares in place
    runs = [random_tf_coefficients(seed) for seed in range(4)]
    freqs, rate = runs[0][5], runs[0][6]
    z = unit_circle(freqs, rate)
    mag_bar = np.random.default_rng(9).normal(size=(4, len(freqs)))
    stacked = [np.stack(c) for c in zip(*(r[:5] for r in runs))]
    mag, cache = tf_magnitude_cached(*stacked, z)
    grads = tf_fields(tf_magnitude_backward(cache, mag_bar))
    assert mag.shape == mag_bar.shape and all(g.shape == (4, 30) for g in grads)
    for k, run in enumerate(runs):
        mag_k, cache_k = tf_magnitude_cached(*run[:5], z)
        assert np.array_equal(mag[k], mag_k)
        for name, g, g_k in zip(TF_GRADS, grads,
                                tf_fields(tf_magnitude_backward(cache_k, mag_bar[k]))):
            assert np.array_equal(g[k], g_k), (k, name)


def test_tf_backward_rejects_a_second_call_with_the_same_cache():
    # the backward pass squares the cache's inv in place, so a cache serves one call
    A, B, R, R2, w, freqs, rate = random_tf_coefficients(0)
    z = unit_circle(freqs, rate)
    mag, cache = tf_magnitude_cached(A, B, R, R2, w, z)
    mag_bar = np.random.default_rng(1).normal(size=mag.shape)
    first = tf_fields(tf_magnitude_backward(cache, mag_bar))
    with pytest.raises(ValueError, match="used by a backward call already"):
        tf_magnitude_backward(cache, mag_bar)
    _, fresh = tf_magnitude_cached(A, B, R, R2, w, z)
    for name, g, g_fresh in zip(TF_GRADS, first, tf_fields(tf_magnitude_backward(fresh, mag_bar))):
        assert np.array_equal(g, g_fresh), name


@pytest.mark.parametrize("shape", [(256,), (1, 256), (2, 255), (2, 2, 256)])
def test_tf_backward_rejects_mag_bar_of_another_shape(shape):
    # a [freq] mag_bar would broadcast over a [start, freq] cache without a word
    runs = [random_tf_coefficients(seed) for seed in range(2)]
    z = unit_circle(runs[0][5], runs[0][6])
    mag, cache = tf_magnitude_cached(*[np.stack(c) for c in zip(*(r[:5] for r in runs))], z)
    assert mag.shape == (2, 256)
    with pytest.raises(ValueError, match=re.escape(f"mag_bar has shape {shape}, |H| (2, 256)")):
        tf_magnitude_backward(cache, np.ones(shape))
    # the rejected call leaves the cache unused
    grads = tf_fields(tf_magnitude_backward(cache, np.ones((2, 256))))
    assert all(g.shape == (2, 30) for g in grads)


def test_tf_gradients_vanish_with_zero_magnitude():
    A, B, R, R2, w, freqs, rate = random_tf_coefficients(0)
    mag, cache = tf_magnitude_cached(A, B, R, R2, np.zeros_like(w), unit_circle(freqs, rate))
    assert np.all(mag == 0.0)
    grads = tf_magnitude_backward(cache, np.ones_like(freqs))
    for name, g in zip(TF_GRADS, tf_fields(grads)):
        assert np.all(g == 0.0), name


def test_tf_magnitude_matches_extended_precision():
    rate = 44100.0
    L = 0.65
    lam = (np.arange(1, 31) * np.pi / L) ** 2
    gamma = 0.8 + 1.5e-5 * lam  # lightly damped string modes, 196 Hz fundamental
    A, B, R = ftm_update_partials((2 * L * 196.0) ** 2 * lam + gamma**2, gamma, 1.0 / rate)[0]
    w = np.sin(np.arange(1, 31) * np.pi * 0.2) * np.sin(np.arange(1, 31) * np.pi * 0.7)
    freqs = bark_grid(256, 18000.0, rate)
    mag, _ = tf_magnitude_cached(A, B, R, np.zeros(30), w, unit_circle(freqs, rate))
    exact = np.empty_like(mag)
    bound = np.empty_like(mag)
    with mp.workdps(40):
        for i, f in enumerate(freqs):
            z = mp.exp(2j * mp.pi * mp.mpf(f) / rate)
            dens = [z * z - mp.mpf(c1) * z - mp.mpf(c2) for c1, c2 in zip(A, B)]
            terms = [mp.mpf(wk) * mp.mpf(p) * z / d for wk, p, d in zip(w, R, dens)]
            exact[i] = float(abs(mp.fsum(terms)))
            # rounding: a term's relative error is a few ulps of (1 + |A| + |B|)
            # / |den| from den's cancellation, plus up to 30 ulps from the sum
            cond = (1.0 + np.abs(A) + np.abs(B)) / np.array([float(abs(d)) for d in dens])
            term_abs = np.array([float(abs(t)) for t in terms])
            bound[i] = 4 * np.finfo(float).eps * np.sum(term_abs * (cond + 30))
    assert np.all(np.abs(mag - exact) <= bound)



@pytest.mark.parametrize("seed", range(3))
def test_tf_gradients_match_extended_precision(seed):
    A, B, R, R2, w, freqs, rate = random_tf_coefficients(seed, n_modes=9, n_freqs=64)
    mag_bar = np.random.default_rng([seed, 1]).normal(size=len(freqs))
    _, cache = tf_magnitude_cached(A, B, R, R2, w, unit_circle(freqs, rate))
    grads = tf_magnitude_backward(cache, mag_bar)
    exact = {name: [mp.mpf(0)] * 9 for name in TF_GRADS}
    bound = {name: np.zeros(9) for name in TF_GRADS}
    with mp.workdps(40):
        Am, Bm, Rm, R2m, W = ([mp.mpf(x) for x in c] for c in (A, B, R, R2, w))
        for f, mb in zip(freqs, mag_bar):
            z = mp.exp(2j * mp.pi * mp.mpf(f) / rate)
            inv = [1 / (z * z - Am[m] * z - Bm[m]) for m in range(9)]
            G = [(Rm[m] * z + R2m[m]) * inv[m] for m in range(9)]
            H = mp.fsum(W[m] * G[m] for m in range(9))
            hc = mp.conj(mp.mpf(mb) * H / abs(H))
            # rounding: inv carries a few ulps of cond = (1 + |A| + |B|) |inv|,
            # inv^2 twice that; hc's direction a few ulps of kappa_H, the
            # condition of the mode sum; the sums over modes and frequencies
            # add up to M + F ulps
            cond = [float((1 + abs(Am[m]) + abs(Bm[m])) * abs(inv[m])) for m in range(9)]
            kappa_h = float(mp.fsum(abs(W[m] * G[m]) * (cond[m] + 9) for m in range(9)) / abs(H))
            for m in range(9):
                terms = {"dw": hc * G[m], "dR": hc * W[m] * z * inv[m], "dR2": hc * W[m] * inv[m],
                         "dA": hc * W[m] * G[m] * z * inv[m], "dB": hc * W[m] * G[m] * inv[m]}
                for name, t in terms.items():
                    exact[name][m] += mp.re(t)
                    k = 2 if name in ("dA", "dB") else 1
                    bound[name][m] += float(abs(t)) * (k * cond[m] + kappa_h + len(freqs))
    for name, g in zip(TF_GRADS, tf_fields(grads)):
        err = np.abs(g - np.array([float(x) for x in exact[name]]))
        assert np.all(err <= 4 * np.finfo(float).eps * bound[name]), name


# --- WAV --------------------------------------------------------------------------------

def test_wav_float_round_trip(tmp_path, rng):
    sig = rng.uniform(-1, 1, size=1000).astype(np.float32).astype(np.float64)
    path = tmp_path / "f32.wav"
    wav_write(path, sig, 44100)
    back, rate = wav_read(path)
    assert rate == 44100
    assert np.array_equal(back, sig)


def test_wav_int16_round_trip(tmp_path, rng):
    from scipy.io import wavfile

    sig = rng.uniform(-0.9, 0.9, size=1000)
    path = tmp_path / "i16.wav"
    wavfile.write(path, 8000, (sig * 2**15).astype(np.int16))
    back, rate = wav_read(path)
    assert np.max(np.abs(back - sig)) <= 2**-15


def test_wav_stereo_takes_first_channel(tmp_path, caplog, rng):
    from scipy.io import wavfile

    left = rng.uniform(-1, 1, size=500).astype(np.float32)
    right = np.zeros(500, dtype=np.float32)
    path = tmp_path / "stereo.wav"
    wavfile.write(path, 22050, np.stack([left, right], axis=1))
    with caplog.at_level(logging.WARNING):
        back, _ = wav_read(path)
    assert np.array_equal(back, left.astype(np.float64))
    assert any("first" in r.message for r in caplog.records)


def test_wav_unsupported_encoding(tmp_path):
    from scipy.io import wavfile

    path = tmp_path / "u8.wav"
    wavfile.write(path, 8000, np.zeros(100, dtype=np.uint8))
    with pytest.raises(WavFormatError, match="uint8 .* 16/24/32-bit PCM or 32/64-bit float$"):
        wav_read(path)


@pytest.mark.parametrize("normalize", [False, True])
def test_wav_write_rejects_a_signal_that_is_not_finite(tmp_path, normalize):
    # unchecked, a NaN peak skipped the normalisation: the file held the NaN
    # and samples up to 3.9
    path = tmp_path / "bad.wav"
    with pytest.raises(ValueError, match="^signal must be finite$"):
        wav_write(path, np.array([0.1, np.nan, 3.9]), 8000, normalize=normalize)
    assert not path.exists()


def test_wav_write_normalize(tmp_path):
    path = tmp_path / "norm.wav"
    wav_write(path, np.array([0.1, -0.5, 0.25]), 8000, normalize=True)
    back, _ = wav_read(path)
    assert np.max(np.abs(back)) == pytest.approx(1.0)
