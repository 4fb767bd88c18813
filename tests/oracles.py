"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive: truncated power series instead of
closed forms, an explicit textbook Kalman filter instead of sigma points.
Where a test asserts a specific number, that number was computed from these
and frozen as a literal.
"""

import numpy as np
import scipy.special


def matrix_exp_series(A, terms: int = 30) -> np.ndarray:
    """Truncated power series sum_{i<=terms} A^i / i!."""
    A = np.asarray(A, dtype=float)
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for i in range(1, terms + 1):
        term = term @ A / i
        out = out + term
    return out


def wedge_so2(theta) -> np.ndarray:
    """The 2x2 skew matrix of an angle."""
    return np.array([[0.0, -theta], [theta, 0.0]])


def wedge_sek(xi, d: int, k: int) -> np.ndarray:
    """Tangent vector (rotation part, p_1, ..., p_k) of SE_k(d) to its matrix
    embedding [[skew(rotation part), p_1 ... p_k], [0, 0]]."""
    xi = np.asarray(xi, dtype=float)
    M = np.zeros((d + k, d + k))
    if d == 3:
        x, y, z = xi[:3]
        M[:3, :3] = [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]
        M[:3, 3:] = xi[3:].reshape(k, 3).T
    else:
        M[:2, :2] = wedge_so2(xi[0])
        M[:2, 2:] = xi[1:].reshape(k, 2).T
    return M


def kf_predict(x, P, F, Q, u=None):
    x = F @ x if u is None else F @ x + u
    return x, F @ P @ F.T + Q


def kf_update(x, P, y, H, R):
    S = H @ P @ H.T + R
    K = P @ H.T @ np.linalg.inv(S)
    x = x + K @ (y - H @ x)
    P = P - K @ S @ K.T
    return x, P, S


def kf_run(x0, P0, F, Q, H, R, controls, measurements):
    """Plain linear Kalman filter over a fixed schedule.

    controls[n-1] is the additive input of step n; measurements maps 1-based
    step indices to observations.  Returns the list of (x, P) after each step.
    """
    x, P = np.asarray(x0, dtype=float), np.asarray(P0, dtype=float)
    out = []
    for n, u in enumerate(controls, start=1):
        x, P = kf_predict(x, P, F, Q, u)
        if n in measurements:
            x, P, _ = kf_update(x, P, measurements[n], H, R)
        out.append((x.copy(), P.copy()))
    return out


def numerical_jacobian(fun, x, eps: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector function of a vector."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x), dtype=float)
    J = np.empty((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        dx = np.zeros_like(x)
        dx[j] = eps
        J[:, j] = (np.asarray(fun(x + dx)) - np.asarray(fun(x - dx))) / (2 * eps)
    return J


def ekf_transport(f, retraction, mean, P, u, Q, eps: float = 1e-6):
    """First-order (EKF) covariance transport through the dynamics in the
    retraction's own coordinates: the new mean f(mean, u, 0) and
    F P F^T + G Q G^T, with F and G the central-difference Jacobians of
    xi -> phi_inv(new mean, f(phi(mean, xi), u, 0)) and of
    w -> phi_inv(new mean, f(mean, u, w)) at zero."""
    q = Q.shape[0]
    new_mean = f(mean, u, np.zeros(q))
    F = numerical_jacobian(
        lambda xi: retraction.phi_inv(new_mean, f(retraction.phi(mean, xi), u, np.zeros(q))),
        np.zeros(P.shape[0]), eps)
    G = numerical_jacobian(lambda w: retraction.phi_inv(new_mean, f(mean, u, w)),
                           np.zeros(q), eps)
    return new_mean, F @ P @ F.T + G @ Q @ G.T


def update_limit(h, retraction, mean, P, R, eps: float = 1e-4):
    """The alpha -> 0 limit of the scaled unscented update's covariance
    with beta = 2: P - K S K^T, with K = P H^T S^-1 and
    S = H P H^T + R + 2 m m^T, where m = 1/2 sum_i D^2 g[L_i, L_i] over the
    columns L_i of chol(P).  g is xi -> h(phi(mean, xi)); H is its
    central-difference Jacobian at zero and D^2 g[L, L] its central second
    difference along L.  The m m^T term is what beta = 2 leaves in the limit
    of the mean point's covariance weight."""
    def g(xi):
        return np.asarray(h(retraction.phi(mean, xi)), dtype=float)

    zero = np.zeros(P.shape[0])
    H = numerical_jacobian(g, zero, eps)
    g0 = g(zero)
    m = 0.5 * sum((g(eps * col) - 2.0 * g0 + g(-eps * col)) / eps ** 2
                  for col in np.linalg.cholesky(P).T)
    S = H @ P @ H.T + R + 2.0 * np.outer(m, m)
    K = P @ H.T @ np.linalg.inv(S)
    return P - K @ S @ K.T


def nees_band(dim: int, runs: int):
    """95% interval for the mean NEES of `runs` independent runs: the 2.5%
    and 97.5% quantiles of chi-square with dim * runs degrees of freedom,
    over runs.  The quantile is 2 gammaincinv(dof / 2, p), as scipy.stats
    computes it, without importing scipy.stats."""
    half_dof = dim * runs / 2
    return tuple(2 * float(scipy.special.gammaincinv(half_dof, p)) / runs
                 for p in (0.025, 0.975))


def small_angle_two_branch(x, small, coeffs):
    """The small-angle rule of lie_groups._small_angle with no shortcut for
    exact zeros: when any element is small, the closed forms (at x = 1
    where small) and the Taylor series run on the whole stack and merge per
    element.  A frozen reference for the rule's outputs, signed zeros
    included."""
    if not np.count_nonzero(small):
        return coeffs(x)
    return [np.where(small, s, c) for c, s in
            zip(coeffs(np.where(small, 1.0, x)), coeffs(x, series=True))]


def so2_coeffs_two_branch(theta, c, s):
    """lie_groups._so2_coeffs under small_angle_two_branch and without its
    sign fix-up of b: the entries a and b of the SO(2) left Jacobian as the
    two-branch rule gives them, b = -0.0 at theta = -0.0 included."""
    return small_angle_two_branch(theta, np.abs(theta) < 1e-4, lambda t, series=False: (
        (1.0 - t * t / 6.0, 0.5 * t * (1.0 - t * t / 12.0)) if series
        else (s / t, (1.0 - c) / t)))


def simulate_per_run(model, steps, seed):
    """montecarlo.simulate with each step's noise drawn run by run: the
    per-step loop that takes, in draw order, step n's process noise and then
    its measurement noise when one is due as one L @ z_r product per run.  A
    frozen reference for simulate's outputs, bit for bit; L is the same
    factor of Q and R, from montecarlo's _psd_sqrt."""
    from manifold_ukf.montecarlo import _psd_sqrt

    Lq, Lr = _psd_sqrt(model.Q), _psd_sqrt(model.R)
    lead = np.shape(seed)
    seeds = list(seed) if lead else [seed]
    draws = steps * len(Lq) + steps // model.measure_every * len(Lr)
    z = np.array([np.random.Generator(np.random.Philox(key=s)).standard_normal(draws)
                  for s in seeds])
    at = 0

    def noise(L):
        nonlocal at
        k = len(L)
        out = np.array([L @ zr for zr in z[:, at:at + k]]).reshape(lead + (k,))
        at += k
        return out

    state = np.stack([model.initial_truth] * len(seeds)) if lead else model.initial_truth
    truth = [state]
    inputs = model.inputs(steps)
    measurements = {}
    for n, u in enumerate(inputs, start=1):
        state = model.f(state, u, noise(Lq))
        if n % 1000 == 0:
            state = model.renormalize(state)
        truth.append(state)
        if n % model.measure_every == 0:
            measurements[n] = model.h(state) + noise(Lr)
    return np.array(truth), inputs, measurements
