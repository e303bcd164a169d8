"""Spectral helpers for uniform periodic samples."""

import numpy as np


def fourier_diff(values, period, order=1, axis=-1):
    """Spectral derivative of uniformly sampled periodic data.

    Coefficients below 1e-14 of the largest are zeroed before multiplying by
    (ik)^order; otherwise high-order derivatives amplify FFT roundoff.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / period
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

