"""WAV ingestion and export (RIFF via scipy.io.wavfile, imported on first use
so that importing modalsim does not load scipy.io)."""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)


class WavFormatError(ValueError):
    pass


def wav_read(path):
    """Read a WAV file as float64 in [-1, 1] plus the sample rate.

    Accepts 16/24/32-bit PCM and 32/64-bit float. Multichannel input keeps the
    first channel (logged).
    """
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    if data.ndim == 2:
        log.warning("multichannel WAV %s: keeping the first of %d channels",
                    path, data.shape[1])
        data = data[:, 0]
    if data.dtype == np.int16:
        sig = data.astype(np.float64) / 2.0**15
    elif data.dtype == np.int32:
        sig = data.astype(np.float64) / 2.0**31
    elif data.dtype in (np.float32, np.float64):
        sig = data.astype(np.float64)
    else:
        raise WavFormatError(
            f"unsupported WAV encoding {data.dtype} in {path}; "
            "expected 16/24/32-bit PCM or 32/64-bit float"
        )
    return sig, int(rate)


def wav_write(path, signal, rate: int, normalize: bool = False) -> None:
    """Write mono 32-bit float WAV; optionally peak-normalise to |s| = 1."""
    from scipy.io import wavfile

    sig = np.asarray(signal, dtype=np.float64)
    if normalize:
        peak = np.max(np.abs(sig))
        if peak > 0:
            sig = sig / peak
    wavfile.write(path, int(rate), sig.astype(np.float32))
