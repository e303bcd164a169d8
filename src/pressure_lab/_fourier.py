"""Spectral helpers for uniform periodic samples."""

import numpy as np


def fourier_wavenumbers(n, period):
    """Angular wavenumbers 2*pi*k/period in FFT ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / period


def fourier_diff(values, period, order=1, axis=-1):
    """Spectral derivative of uniformly sampled periodic data.

    Coefficients below 1e-14 of the largest are zeroed before multiplying by
    (ik)^order; otherwise high-order derivatives amplify FFT roundoff.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    k = fourier_wavenumbers(n, period)
    coeffs = np.fft.fft(values, axis=axis)
    cap = 1e-14 * np.max(np.abs(coeffs))
    coeffs[np.abs(coeffs) < cap] = 0.0
    shape = [1] * values.ndim
    shape[axis] = n
    mult = (1j * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        # kill the unmatched Nyquist mode for odd derivatives
        mult[n // 2] = 0.0
    out = np.fft.ifft(coeffs * mult.reshape(shape), axis=axis)
    return out.real


def trig_interp(values, period, t):
    """Evaluate the trigonometric interpolant of periodic samples at t.

    values: (n,) or (n, m) sample table on the uniform grid j*period/n.
    t: arbitrary points (any shape).  Returns shape t.shape (+ (m,)).
    """
    values = np.asarray(values, dtype=float)
    t = np.asarray(t, dtype=float)
    squeeze = False
    if values.ndim == 1:
        values = values[:, None]
        squeeze = True
    n = values.shape[0]
    coeffs = np.fft.fft(values, axis=0) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        # split the Nyquist coefficient symmetrically so the interpolant is real
        coeffs = np.concatenate([coeffs, coeffs[n // 2 : n // 2 + 1]], axis=0)
        coeffs[n // 2] *= 0.5
        coeffs[-1] *= 0.5
        k = np.concatenate([k, [-k[n // 2]]])
    # drop roundoff-level modes: the dense evaluation matrix below is the
    # dominant cost, and smooth tables carry only a few significant modes
    mag = np.max(np.abs(coeffs), axis=1)
    keep = mag > 1e-16 * np.max(mag)
    phase = np.exp(2j * np.pi * np.outer(t.ravel(), k[keep]) / period)
    out = (phase @ coeffs[keep]).real
    out = out.reshape(t.shape + (values.shape[1],))
    return out[..., 0] if squeeze else out


def cumulative_from_samples(speed, period):
    """Antiderivative table of a periodic function from its samples.

    Returns (mean, osc_coeffs) so that
    F(t) = mean*t + Re sum_k osc_coeffs[k] * (exp(i k w t) - 1)
    reconstructs int_0^t speed.
    """
    speed = np.asarray(speed, dtype=float)
    n = speed.shape[0]
    coeffs = np.fft.fft(speed) / n
    k = fourier_wavenumbers(n, period)
    osc = np.zeros(n, dtype=complex)
    nz = k != 0.0
    osc[nz] = coeffs[nz] / (1j * k[nz])
    if n % 2 == 0:
        osc[n // 2] = 0.0
    return coeffs[0].real, osc


def eval_cumulative(mean, osc, period, t):
    t = np.asarray(t, dtype=float)
    n = osc.shape[0]
    k = fourier_wavenumbers(n, period)
    mag = np.abs(osc)
    scale = max(np.max(mag) if n else 0.0, abs(mean) * period)
    keep = mag > 1e-16 * scale if scale > 0.0 else np.zeros(n, dtype=bool)
    phase = np.exp(1j * np.outer(t.ravel(), k[keep]))
    out = mean * t.ravel() + ((phase - 1.0) @ osc[keep]).real
    return out.reshape(t.shape)
