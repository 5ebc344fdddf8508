"""Independent reference computations for the benchmark's output checks.

Nothing here imports dnls_ring: every quantity is rebuilt from the model's
definitions with plain numpy, so a check fails when the package is wrong
rather than agreeing with it by construction.

Conventions (the same as the paper's): complex sites u_j are (Re, Im) pairs,
J(x, y) = (-y, x), zeta = 2 pi / n, the standing wave is
a_j = a (cos j m zeta, sin j m zeta) with omega = 4 sin^2(m zeta / 2) - V'(a^2),
and H(u) = 1/2 sum_j V(|u_j|^2) + omega |u_j|^2 - |u_{j+1} - u_j|^2.
"""

from __future__ import annotations

import numpy as np


def potential(kind: str, c: float, s, order: int):
    """V, V' or V'' of the cubic (c s^2 / 2) or saturable (c ln(1 + s))
    on-site potential."""
    s = np.asarray(s, dtype=float)
    if kind == "cubic":
        return (0.5 * c * s * s, c * s, np.full_like(s, c))[order]
    if kind == "saturable":
        return (c * np.log1p(s), c / (1.0 + s), -c / (1.0 + s) ** 2)[order]
    raise ValueError(f"no reference for potential kind {kind!r}")


def omega(n: int, m: int, kind: str, c: float, a: float) -> float:
    return 4.0 * np.sin(m * np.pi / n) ** 2 - float(potential(kind, c, a * a, 1))


def alpha_beta(n: int, m: int, k: int) -> tuple:
    """alpha_k = 4 cos(m zeta) sin^2(k zeta / 2), beta_k = 2 sin(m zeta) sin(k zeta)."""
    z = 2.0 * np.pi / n
    return (float(4.0 * np.cos(m * z) * np.sin(k * z / 2.0) ** 2),
            float(2.0 * np.sin(m * z) * np.sin(k * z)))


def alpha_beta_phi(n: int, m: int, kind: str, c: float, a: float, k: int):
    """alpha_k, beta_k and phi_k(a) = 2 a^2 V''(a^2) / alpha_k."""
    alpha, beta = alpha_beta(n, m, k)
    return alpha, beta, 2.0 * a * a * float(potential(kind, c, a * a, 2)) / alpha


def onset_nu(n: int, m: int, kind: str, c: float, a: float, k: int,
             sign: int) -> complex:
    """nu_k^+- = beta_k +- |alpha_k| sqrt(1 - phi_k)."""
    alpha, beta, phi = alpha_beta_phi(n, m, kind, c, a, k)
    return beta + sign * abs(alpha) * np.sqrt(complex(1.0 - phi))


def gamma(n: int, m: int, k: int) -> float:
    alpha, beta = alpha_beta(n, m, k)
    return 1.0 - (beta / alpha) ** 2


def equilibrium(n: int, m: int, a: float) -> np.ndarray:
    ang = 2.0 * np.pi * m * np.arange(n) / n
    return a * np.stack([np.cos(ang), np.sin(ang)], axis=-1)      # (n, 2)


def grad_h(u: np.ndarray, om: float, kind: str, c: float) -> np.ndarray:
    """grad H at sites u of shape (..., n, 2)."""
    s = (u * u).sum(axis=-1, keepdims=True)
    lap = np.roll(u, -1, axis=-2) + np.roll(u, 1, axis=-2) - 2.0 * u
    return (om + potential(kind, c, s, 1)) * u + lap


def dense_spectrum(n: int, m: int, kind: str, c: float, a: float) -> np.ndarray:
    """Eigenvalues of J D^2H(a_m), assembled entry by entry."""
    om = omega(n, m, kind, c, a)
    u = equilibrium(n, m, a)
    v1 = float(potential(kind, c, a * a, 1))
    v2 = float(potential(kind, c, a * a, 2))
    hess = np.zeros((2 * n, 2 * n))
    for j in range(n):
        d = slice(2 * j, 2 * j + 2)
        hess[d, d] = (om + v1 - 2.0) * np.eye(2) + 2.0 * v2 * np.outer(u[j], u[j])
        for nb in ((j + 1) % n, (j - 1) % n):
            hess[d, 2 * nb:2 * nb + 2] += np.eye(2)
    jmat = np.kron(np.eye(n), np.array([[0.0, -1.0], [1.0, 0.0]]))
    return np.linalg.eigvals(jmat @ hess)


def ring_loop(cos_a, sin_b, n: int, m: int, k: int, times: np.ndarray):
    """Sites x_j(t) = e^{j m zeta J} x_0(t + j k zeta) and their time
    derivatives, for the reversible site-0 loop
    x_0(t) = (sum_l a_l cos l t, sum_l b_l sin l t); shapes (nt, n, 2)."""
    cos_a = np.asarray(cos_a, dtype=float)
    sin_b = np.asarray(sin_b, dtype=float)
    z = 2.0 * np.pi / n
    j = np.arange(n)
    t = times[:, None] + j[None, :] * k * z                       # (nt, n)
    la = np.arange(len(cos_a))
    lb = np.arange(1, len(sin_b) + 1)
    ca, sa = np.cos(t[..., None] * la), np.sin(t[..., None] * la)
    cb, sb = np.cos(t[..., None] * lb), np.sin(t[..., None] * lb)
    x0 = np.stack([ca @ cos_a, sb @ sin_b], axis=-1)
    dx0 = np.stack([-(sa * la) @ cos_a, (cb * lb) @ sin_b], axis=-1)
    ang = j * m * z
    rot = np.stack([np.stack([np.cos(ang), -np.sin(ang)], -1),
                    np.stack([np.sin(ang), np.cos(ang)], -1)], -2)  # (n, 2, 2)
    x = np.einsum("jab,tjb->tja", rot, x0)
    dx = np.einsum("jab,tjb->tja", rot, dx0)
    return x, dx


def site_norm_swing(cos_a, sin_b, n: int, m: int, k: int, a: float,
                    samples: int = 256) -> float:
    """max_t |u_0(t)| - min_t |u_0(t)| for u = a_m + x: zero on a standing
    wave, positive on a traveling wave."""
    times = 2.0 * np.pi * np.arange(samples) / samples
    x, _ = ring_loop(cos_a, sin_b, n, m, k, times)
    norms = np.linalg.norm(equilibrium(n, m, a)[0] + x[:, 0], axis=-1)
    return float(norms.max() - norms.min())


def ring_residual(cos_a, sin_b, nu: float, n: int, m: int, k: int,
                  kind: str, c: float, a: float, times: np.ndarray) -> np.ndarray:
    """F = J xdot - nu^{-1} grad H(a_m + x) on every site at the given times;
    shape (nt, n, 2)."""
    x, dx = ring_loop(cos_a, sin_b, n, m, k, times)
    jdx = np.stack([-dx[..., 1], dx[..., 0]], axis=-1)
    u = equilibrium(n, m, a)[None] + x
    return jdx - grad_h(u, omega(n, m, kind, c, a), kind, c) / nu


def galerkin_residual(cos_a, sin_b, nu: float, n: int, m: int, k: int,
                      kind: str, c: float, a: float) -> float:
    """Largest Fourier coefficient |l| <= nh of the full-ring residual, over
    all sites. The grid of 6 nh + 1 points resolves those coefficients of a
    cubic nonlinearity without aliasing."""
    nh = len(sin_b)
    M = 6 * nh + 1
    times = 2.0 * np.pi * np.arange(M) / M
    F = ring_residual(cos_a, sin_b, nu, n, m, k, kind, c, a, times)
    coef = np.fft.fft(F, axis=0) / M
    keep = np.r_[0:nh + 1, M - nh:M]
    return float(np.abs(coef[keep]).max())


def harmonic_tail(cos_a, sin_b, top: int = 4) -> float:
    """Largest |coefficient| among the top harmonics of a profile: the size
    of what the cutoff nh leaves out."""
    return float(max(np.abs(cos_a[-top:]).max(), np.abs(sin_b[-top:]).max()))


def wave_mismatch(norms: np.ndarray, k: int, n: int) -> float:
    """sup_{j,t} | |u_{j+1}|(t) - |u_j|(t + k T / n) | from |u_j| sampled on
    one period (axis 0), the shift done by trigonometric interpolation."""
    npts = norms.shape[0]
    ls = np.fft.fftfreq(npts, d=1.0 / npts)
    spec = np.fft.fft(norms, axis=0) * np.exp(2j * np.pi * ls * k / n)[:, None]
    shifted = np.fft.ifft(spec, axis=0).real
    return float(np.abs(np.roll(norms, -1, axis=1) - shifted).max())
