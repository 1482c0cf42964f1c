"""Spectral (fractal) noise fields used to synthesise sea-ice scenes.

Real Sentinel-2 sea-ice scenes have spatial structure at every scale: large
floes, leads (cracks), brash ice and texture on the snow surface.  A
power-law ("1/f^beta") random field reproduces that multi-scale structure
and is cheap to generate with a single FFT, so it is the core primitive of
the synthetic data generator.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spectral_noise", "fractal_noise"]


def spectral_noise(
    shape: tuple[int, int],
    beta: float = 2.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Generate a power-law noise field normalised to ``[0, 1]``.

    Parameters
    ----------
    shape:
        ``(height, width)`` of the field.
    beta:
        Spectral slope; 0 gives white noise, ~2 gives cloud-like smooth
        structure, larger values give ever smoother fields.
    rng:
        NumPy random generator (a fresh default generator when omitted).
    """
    h, w = int(shape[0]), int(shape[1])
    if h < 1 or w < 1:
        raise ValueError("shape must be positive")
    rng = rng or np.random.default_rng()

    # Frequency magnitudes for a real FFT grid.
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    freq = np.sqrt(fy * fy + fx * fx)
    freq[0, 0] = 1.0  # avoid division by zero at DC

    amplitude = freq ** (-beta / 2.0)
    amplitude[0, 0] = 0.0  # zero-mean field

    phase = rng.uniform(0.0, 2.0 * np.pi, size=amplitude.shape)
    spectrum = amplitude * np.exp(1j * phase)
    field = np.fft.irfft2(spectrum, s=(h, w))

    lo, hi = field.min(), field.max()
    if hi - lo < 1e-15:
        return np.zeros((h, w))
    return (field - lo) / (hi - lo)


def fractal_noise(
    shape: tuple[int, int],
    octaves: int = 4,
    persistence: float = 0.55,
    base_beta: float = 2.5,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Sum several spectral-noise octaves for richer multi-scale texture."""
    if octaves < 1:
        raise ValueError("octaves must be >= 1")
    rng = rng or np.random.default_rng()
    field = np.zeros(shape, dtype=np.float64)
    amplitude = 1.0
    total = 0.0
    for octave in range(octaves):
        beta = max(base_beta - 0.4 * octave, 0.5)
        field += amplitude * spectral_noise(shape, beta=beta, rng=rng)
        total += amplitude
        amplitude *= persistence
    field /= total
    lo, hi = field.min(), field.max()
    if hi - lo < 1e-15:
        return np.zeros(shape)
    return (field - lo) / (hi - lo)
