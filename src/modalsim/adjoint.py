"""The differentiable core that simulation, analysis and fitting share.

Each block exists once, with the hand-written reverse-mode derivative the
fits need (no general-purpose autodiff; the tests check every gradient
against central finite differences):

* the scheme coefficient maps :func:`ftm_update_partials` and
  :func:`sv_update_partials`, from omega^2 and gamma to the update vectors
  (A, B, R) and their partials in omega^2 and gamma, which both fits chain
  through. ``sv_update_partials`` raises :class:`StabilityBoundError` past
  the scheme's stability bound, and ``ftm_update_partials`` raises
  :class:`NyquistError` for a mode at or past Nyquist.
  ``integrators.ftm_coeffs``/``sv_coeffs`` and the alias
  ``ftm_coeff_partials`` keep their names only because the benchmark calls
  or traces them;
* :func:`forward_cached`, the two-step modal recurrence of the one model that
  ``simulate`` and the time-domain fit run through ``integrators.run_model``,
  and :func:`bptt`, its reverse sweep under a nonlinear force;
* :func:`readout_cached` / :func:`readout_backward`, a linear model's readout
  and its gradients in forward mode, without the trajectory. Both broadcast
  over leading (start) axes: the modes of every start step as one bank, and
  each start's readout is contracted on its own;
* :func:`stft_cached` / :func:`stft_backward`, the magnitude STFT that
  ``analysis.stft`` wraps, and its adjoint. Their index maps (the reflect
  padding and the framing) and window are built once per signal length,
  window and hop, and kept read-only;
* :func:`tf_magnitude_cached` / :func:`tf_magnitude_backward`, the modal
  transfer-function magnitude that ``analysis.tf_magnitude`` wraps, and its
  adjoint in closed form: the forward pass keeps only each mode's reciprocal
  denominator inv, and every gradient is a weighted sum over frequency of inv
  or inv^2 times a power of z. Both broadcast over leading (start) axes, with
  no loop over them. One call allocates one [..., freq, mode] array for inv,
  which the backward pass squares in place (so a cache serves one backward
  call), and every sum over modes or frequencies is one real BLAS product on
  that array's float view.

The nonlinear forces live with their Jacobians in :mod:`modalsim.coupling`,
built by ``coupling.nonlinear_force``.

Conventions. One coefficient form serves every block: the per-mode update
vectors (A, B, R) of the recurrence

    q^{n+1} = A q^n + B q^{n-1} + R u^n,   u^n = f_ext^n - nl(q^n).

A :class:`Coefficients` holds every per-mode quantity of that form: the
update vectors, their partials d/domega^2 and d/dgamma (the maps return
these three), and the gradients (dL/dA, dL/dB, dL/dR) the sweeps return.

Trajectories are stored as Q[t] = q^{t-1} (rows q^{-1} .. q^N), in a new
array per call, so every trajectory ``simulate`` returns is its own.

Input and readout are both rank-1, and every pass takes them by their
factors, so no [step, mode] array besides Q is built for them: the external
force is f_ext^n = g f^n (force_gains g, force_signal f), and the readout is
y_n = w . q^{n+1}, y = Q[2:] @ w. With nl = 0, mode k is the two-pole IIR
filter R_k / (1 - A_k z^-1 - B_k z^-2) of its force, a diagonal linear
recurrence, so every linear run is one block scan (:func:`_scan`) of each
mode's state (q^n, d^n = q^n - q^{n-1}), forced blocks included: a block is
one product of its start state and a per-mode basis, plus one Toeplitz
product of its force. The trajectory (:func:`forward_cached`) scans (q, d)
alone. A linear fit needs only y and the gradients, so it stores no Q
(:func:`readout_cached`): each mode's sensitivities s = dq/dA, dq/dB, dq/dR
follow the mode's own recurrence, driven by q^n, q^{n-1} and u^n, and
dL/dA_k = w_k sum_n ybar_n s_A,k^{n+1} (forward mode costs no more than
reverse mode here, since a mode's coefficients move that mode alone), so q
and its sensitivities are scanned together by one block-triangular
transition. The per-sample loop runs under a hook, and without one only to
report a blow-up where stepping goes non-finite.

Under a nonlinear force the sweep runs back through the stored trajectory:
the loss gradient ybar enters as the direct term w ybar_{n-1} of the adjoint
qbar^n = dL/dq^n,

    qbar^n = w ybar_{n-1} + A qbar^{n+1} + B qbar^{n+2} - J_nl(q^n)^T (R qbar^{n+1}),

and the parameter gradients reduce to sums of stored products afterwards;
the external part of dR_k is g_k (f . qbar_k^{1..N}), summed over the force's
support. On the unit circle the linear filter's magnitude is
|R z / (z^2 - A z - B)|; the transfer-function kernels evaluate
(R z + R2) / (z^2 - A z - B), where R2 is the frequency-domain fit's free
numerator term (zero for a simulated bank).

A nonlinear force ``hook`` is a pair of pure functions of the state:
``hook(q)`` is nl(q) and ``hook.jt_vec(q, v)`` is J_nl(q)^T v. Under a hook
the forward pass also stores what the hook adds to the inputs,
U[n] = -nl(q^n) (the external force stays in its factors), and the sweep
also returns the input adjoints dU[n] = dL/du^n = R qbar^{n+1}, from which a
force's own parameters take their gradients (``TensionModulation.tau_grad``).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# steps between the stepping loop's finiteness checks: the most it runs past a blow-up
CHECK_EVERY = 64
# samples per block of a forced span, and of a linear readout; see _scan
BLOCK = 128
# samples per block of a linear trajectory's free response; see forward_cached
FREE_BLOCK = 4096


class OverdampedError(ValueError):
    """A mode with gamma >= omega cannot be realised as a resonator pair."""


class StabilityBoundError(ValueError):
    """A mode breaks the Stoermer-Verlet stability bound omega T < 2."""


class NyquistError(ValueError):
    """An ftm mode reaches Nyquist, wt T >= pi with wt its damped angular
    frequency: its resonator would fold it into the band."""


class InstabilityError(RuntimeError):
    """The state went non-finite. step is the first such step; mode is the
    lowest-index mode non-finite there."""

    def __init__(self, step: int, mode: int):
        self.step = step
        self.mode = mode
        super().__init__(f"non-finite state at step {step} (mode index {mode})")


def check_finite(states):
    """Raise InstabilityError at the first non-finite state among the rows
    states[j] = q^{j+1}. Per-mode sums screen the states first: they are
    non-finite wherever a state is, so a finite run builds no [step, mode]
    temporary."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(states.sum(axis=0)).all():
            return
    finite = np.isfinite(states)
    if not finite.all():
        first = np.where(finite.all(axis=0), len(finite), finite.argmin(axis=0))
        mode = int(np.argmin(first))
        raise InstabilityError(step=int(first[mode]) + 1, mode=mode)


# --- coefficient maps with partials -------------------------------------------

class Coefficients(NamedTuple):
    """Per-mode update vectors of q^{n+1} = A q^n + B q^{n-1} + R u^n. The one
    form of any per-mode (A, B, R) quantity: the values, their partials
    d/domega^2 and d/dgamma, and the sweeps' gradients dL/dA, dL/dB, dL/dR."""

    A: np.ndarray
    B: np.ndarray
    R: np.ndarray


def ftm_update_partials(omega2, gamma, T):
    """Impulse-invariant update vectors A = 2 e^{-gT} cos(wt T), B = -e^{-2gT}
    and R = e^{-gT} sin(wt T) / wt, with wt = sqrt(omega^2 - g^2). Returns
    three Coefficients: (A, B, R), their partials d/domega^2 and d/dgamma,
    gamma = g. The poles of each resonator are e^{(-g +- i wt) T}. Raises
    NyquistError when modes reach Nyquist, wt T >= pi."""
    if T <= 0:
        raise ValueError("sample period must be positive")
    w2 = np.asarray(omega2, dtype=float)
    g = np.asarray(gamma, dtype=float)
    bad = np.flatnonzero(w2 <= g**2)
    if bad.size:
        raise OverdampedError(
            f"modes {bad.tolist()} are not underdamped (gamma >= omega); "
            "the resonator scheme requires omega > gamma"
        )
    wt = np.sqrt(w2 - g**2)
    past = wt * T >= np.pi
    if past.any():
        modes = np.flatnonzero(np.any(past, axis=tuple(range(past.ndim - 1))))
        raise NyquistError(
            f"{modes.size} mode(s) reach Nyquist (damped omega*T >= pi), the first at mode "
            f"index {modes[0]} (largest damped omega*T {np.max(wt * T):.4g}); the resonators "
            "would fold them into the band, so cut the basis at Nyquist")
    e1 = np.exp(-g * T)
    c = np.cos(wt * T)
    s = np.sin(wt * T)
    dwt_dw2 = 0.5 / wt
    dwt_dg = -g / wt
    dA_dwt = -2.0 * e1 * T * s
    dR_dwt = e1 * (T * c * wt - s) / wt**2
    return (Coefficients(2.0 * e1 * c, -(e1**2), e1 * s / wt),
            Coefficients(dA_dwt * dwt_dw2, np.zeros_like(e1), dR_dwt * dwt_dw2),
            Coefficients(-2.0 * T * e1 * c + dA_dwt * dwt_dg, 2.0 * T * e1**2,
                         -T * e1 * s / wt + dR_dwt * dwt_dg))


# the same map under its earlier name, which the benchmark traces
ftm_coeff_partials = ftm_update_partials


def sv_update_partials(omega2, gamma, T):
    """Stoermer-Verlet update vectors A = g, B = p, R = r,

        r = T^2 / (1 + gamma T), g = r (2/T^2 - omega^2), p = r (gamma/T - 1/T^2),

    as three Coefficients: (A, B, R), d/domega^2 and d/dgamma. Raises
    StabilityBoundError when modes break the bound omega T < 2."""
    if T <= 0:
        raise ValueError("sample period must be positive")
    w2 = np.asarray(omega2, dtype=float)
    g = np.asarray(gamma, dtype=float)
    wT = np.sqrt(w2) * T
    unstable = np.flatnonzero(wT >= 2.0)
    if unstable.size:
        raise StabilityBoundError(
            f"{unstable.size} mode(s) violate the stability bound omega*T < 2, the first at "
            f"mode index {unstable[0]} (largest omega*T {wT.max():.4g}); the scheme would blow up")
    r = T**2 / (1.0 + g * T)
    dr_dg = -(T**3) / (1.0 + g * T) ** 2
    A = r * (2.0 / T**2 - w2)
    B = r * (g / T - 1.0 / T**2)
    return (Coefficients(A, B, r * np.ones_like(w2)),
            Coefficients(-r * np.ones_like(w2), np.zeros_like(w2), np.zeros_like(w2)),
            Coefficients(dr_dg * (2.0 / T**2 - w2), dr_dg * (g / T - 1.0 / T**2) + r / T,
                         dr_dg * np.ones_like(w2)))


# --- forward recurrence + reverse sweep ------------------------------------------

def forward_cached(A, B, R, q0, q_prev, n_steps, force_signal=None, force_gains=None,
                   hook=None):
    """Forward stepping that stores everything the reverse sweep needs.

    The external force is f_ext^n = force_gains * force_signal[n]: force_signal
    must have n_steps samples and force_gains one entry per mode. Returns
    (Q, U): Q[t] = q^{t-1} with shape [n_steps+2, modes]; U holds what the
    hook adds to the inputs, U[n] = -nl(q^n), or None without a hook.

    Without a hook, Q is the transpose of a [mode, time] array (a view, not a
    copy) that :func:`_scan` fills from each mode's (q, d) state: blocks of
    BLOCK samples up to the end of the force's support, then the free
    response in blocks of up to FREE_BLOCK samples. The loop steps every
    sample under a hook, and without one only when that result is not
    finite, to raise InstabilityError where stepping goes non-finite.
    """
    m = len(q0)
    force_signal, f, force_gains = _check_force(force_signal, force_gains, n_steps, m)
    if hook is None:
        E, b = _transition(A, B, 2), np.stack([R * force_gains] * 2, axis=1)
        F = np.concatenate([f, np.zeros(-len(f) % BLOCK)]).reshape(-1, BLOCK)
        S, rest = F.size, max(n_steps - F.size, 0)
        L = min(FREE_BLOCK, 1 << max(rest - 1, 0).bit_length())
        Qt = np.empty((m, 2 + S + -(-rest // L) * L))  # whole blocks, cut at q^N below
        Qt[:, 0], Qt[:, 1] = q_prev, q0
        x = np.stack([q0, q0 - q_prev], axis=1)
        # a blow-up overflows before it turns non-finite; the loop below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            if S:
                basis, starts, V = _scan(E, x, F, b, len(F) + 1, 1)
                out = Qt[:, 2:2 + S].reshape(m, len(F), BLOCK)
                np.matmul(starts[..., :-1].transpose(0, 2, 1), basis[0], out=out)
                toe, k = _toeplitz(V[:, 0]), FREE_BLOCK // BLOCK
                for i in range(0, len(F), k):  # each product stays FREE_BLOCK samples long
                    out[:, i:i + k] += F[i:i + k] @ toe
                x = starts[..., -1]
            if rest:
                basis, starts, _ = _scan(E, x, np.empty((0, L)), b, -(-rest // L), 1)
                np.matmul(starts.transpose(0, 2, 1), basis[0],
                          out=Qt[:, 2 + S:].reshape(m, -1, L))
            Q = Qt[:, :n_steps + 2].T
            if np.isfinite(Q[2:].sum(axis=0)).all():
                return Q, None
    Q, U = np.empty((n_steps + 2, m)), np.empty((n_steps, m))
    Q[0], Q[1] = q_prev, q0
    q, qp = Q[1], Q[0]
    every = CHECK_EVERY
    # a blow-up overflows before it turns non-finite; the periodic check
    # reports it as InstabilityError, also where warnings are errors
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            u = np.zeros(m) if hook is None else -hook(q)
            U[n] = u
            if force_signal is not None:
                u += force_gains * force_signal[n]
            qp, q = q, A * q + B * qp + R * u
            Q[n + 2] = q
            if n % every == every - 1 and not np.isfinite(q).all():
                check_finite(Q[2:n + 3])
    check_finite(Q[2:])
    return Q, None if hook is None else U


def _check_force(force_signal, force_gains, n_steps, m):
    """The external force, checked: (signal, support, gains). The support is
    the signal up to its last nonzero sample; without a signal it is empty and
    the gains are zero."""
    if force_signal is None:
        return None, np.zeros(0), np.zeros(m)
    f = check_length("force_signal", force_signal, n_steps)
    g = check_length("force_gains", force_gains, m)
    nonzero = np.flatnonzero(f)
    return f, f[:nonzero[-1] + 1 if len(nonzero) else 0], g


def _toeplitz(h):
    """The causal Toeplitz matrices [..., L, L] of responses h [..., L], a
    read-only view: entry (i, j) is h[j - i], 0 for j < i."""
    L = h.shape[-1]
    padded = np.concatenate([np.zeros(h.shape[:-1] + (L - 1,)), h], axis=-1)
    s = padded.strides
    return np.lib.stride_tricks.as_strided(padded[..., L - 1:], h.shape + (L,),
                                           s[:-1] + (-s[-1], s[-1]), writeable=False)


def _transition(A, B, size):
    """[mode, size, size] zeros with M - I in every diagonal block, M each
    mode's 2 x 2 transition of (q^n, d^n = q^n - q^{n-1}): q^{n+1} = A q^n +
    B q^{n-1} is q' = (A + B) q - B d, d' = (A + B - 1) q - B d. For a slow
    mode (A near 2, B near -1), (A - 1) + B and -1 - B are exact."""
    E, i = np.zeros((len(A), size, size)), np.arange(0, size, 2)
    E[:, i, i] = E[:, i + 1, i] = ((A - 1.0) + B)[:, None]
    E[:, i, i + 1] = -B[:, None]
    E[:, i + 1, i + 1] = (-1.0 - B)[:, None]
    return E


def _scan(E, first, F, b, n_blocks, rows):
    """The one propagation of a linear model's per-mode state x [mode, d]:
    x <- T x + f[j] b from x = first, T = I + E, over n_blocks blocks of L
    samples (a power of two), the first ones forced by F [block, L]. E is
    made of 2 x 2 blocks, M - I on its diagonal and, off it, nonzero blocks
    in its first block column only. Returns (basis, starts, V):

    * basis[i, :, :, j - 1], j = 1 .. L, is the first row of block (i, 0) of
      T^j, for i < rows; basis[0] is that of M^j, every diagonal block's;
    * starts[:, :, k] is x at the start of block k;
    * V[:, :, j] = T^j b, j < L, a forced block's response (None unforced).

    Every power is kept as E_h = T^h - I, doubled as E_{2h} = E_h fl(I + E_h)
    + E_h (near omega T = 0 the identity would swamp the rest of T^h); the
    basis rows of T^{j+h} are those of T^j times fl(I + E_h), and T^{j+h} b
    is T^j b + E_h T^j b. The forced blocks' starts are a scan (Hillis and
    Steele's) of first and each block's input, F's row times the T^j b: each
    adds T^{hL} times the one h blocks before it, h = 1, 2, 4, ...; the free
    starts after them follow by doubling. A mode at rest and unforced is
    given E = 0, which keeps a divergent mode's powers from overflowing into
    inf * 0 = NaN.
    """
    (m, d), (n_f, L) = first.shape, F.shape
    I = np.eye(d)
    E = np.where((first.any(axis=1) | (b.any(axis=1) & (n_f > 0)))[:, None, None], E, 0.0)
    basis = np.empty((rows, m, 2, L))
    basis[..., 0] = (E + I)[:, 0:2 * rows:2, :2].transpose(1, 0, 2)
    # V[..., 0] = b; the rest is doubled below
    V = np.concatenate([b[..., None], np.empty((m, d, L - 1))], axis=-1) if n_f else None
    P, h = E, 1
    while h < L:
        lo, hi, T = basis[..., :h], basis[..., h:2 * h], P + I
        np.matmul(T[:, :2, :2].transpose(0, 2, 1), lo, out=hi)
        for i in range(1, rows):
            hi[i] += P[:, 2 * i:2 * i + 2, :2].transpose(0, 2, 1) @ lo[0]
        if n_f:
            np.matmul(P, V[..., :h], out=V[..., h:2 * h])
            V[..., h:2 * h] += V[..., :h]
        P, h = P @ T + P, 2 * h
    powers = [P]  # E_{hL}, h = 1, 2, 4, ...
    while 1 << len(powers) < n_blocks:
        powers.append(powers[-1] @ (powers[-1] + I) + powers[-1])
    starts = np.zeros((m, d, n_blocks))
    starts[..., 0] = first
    top = min(n_f + 1, n_blocks)
    if n_f:
        starts[..., 1:top] = (V @ F[:, ::-1].T)[..., :top - 1]
    for k in range((top - 1).bit_length()):
        x = starts[..., :top - (1 << k)]
        starts[..., 1 << k:top] += powers[k] @ x + x
    for k in range((n_blocks - top).bit_length()):
        x = starts[..., top - 1:min(top - 1 + (1 << k), n_blocks - (1 << k))]
        new = np.matmul(powers[k], x, out=starts[..., top - 1 + (1 << k):][..., :x.shape[-1]])
        new += x
    return basis, starts, V


def readout_cached(A, B, R, q0, q_prev, n_steps, force_signal, force_gains, w):
    """The readout y_n = w . q^{n+1}, n = 0 .. n_steps - 1, of the hook-free
    recurrence from q^0 = q0 and q^{-1} = q_prev, without its trajectory, and
    the cache of :func:`readout_backward`. The force is forward_cached's, its
    gains per mode. A, B, R, q0, q_prev and w broadcast to [..., mode], say
    [start, mode] for one start per row, and y is [..., n_steps].

    The gradients are taken in forward mode: the sensitivities s_A, s_B and
    s_R of q to a mode's A, B and R follow that mode's recurrence, driven by
    q^n, q^{n-1} and u^n. Each mode's state
    x = (q, d_q, s_A, d_sA, s_B, d_sB, s_R, d_sR), d_x = x^n - x^{n-1}, steps
    by one 8 x 8 transition T: M in each diagonal block, q feeding s_A and
    q - d_q = q^{n-1} feeding s_B, and the force by
    b = (R g, R g, 0, 0, 0, 0, g, g). The modes of every start are one bank
    of [start * mode] modes for :func:`_scan`, in blocks of BLOCK samples.
    Each start's readout is its own product [block, 2 mode] @ [2 mode, sample]
    of block states and basis rows, plus, over the force's support, one
    Toeplitz product of the force and its summed response sum_k w_k (T^j b)_q.
    The cache holds the block states, the basis rows and the T^j b.

    When the readout or a block state is not finite, forward_cached runs the
    same model, start by start, and raises InstabilityError at the first
    non-finite step of the first start that has one.
    """
    A, B, R, q0, q_prev, w = np.broadcast_arrays(A, B, R, q0, q_prev, w)
    lead, m = A.shape[:-1], A.shape[-1]
    force_signal, f, force_gains = _check_force(force_signal, force_gains, n_steps, m)
    K = A.size // m
    E = _transition(A.ravel(), B.ravel(), 8)
    E[:, 2:4, 0] = 1.0
    E[:, 4:6, 0], E[:, 4:6, 1] = 1.0, -1.0
    first, b = np.zeros((K * m, 8)), np.zeros((K * m, 8))
    first[:, 0], first[:, 1] = q0.ravel(), (q0 - q_prev).ravel()
    b[:, :2] = (R * force_gains).reshape(-1, 1)
    b[:, 6:] = np.broadcast_to(force_gains, A.shape).reshape(-1, 1)
    F = np.concatenate([f, np.zeros(-len(f) % BLOCK)]).reshape(-1, BLOCK)
    # a blow-up overflows before it turns non-finite; it is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        basis, starts, V = _scan(E, first, F, b, max(-(-n_steps // BLOCK), 1), 3)
        wq = (starts[:, :2] * w.reshape(-1, 1, 1)).reshape(K, 2 * m, -1)
        y = wq.transpose(0, 2, 1) @ basis[0].reshape(K, 2 * m, -1)  # [start, block, L]
        if V is not None:  # the force times its summed response sum_k w_k (T^j b)_q
            H = (w.reshape(K, 1, m) @ V[:, 0].reshape(K, m, -1))[:, 0]
            y[:, :len(F)] += F @ _toeplitz(H)
        y = y.reshape(K, -1)[:, :n_steps]
    if not (np.isfinite(y).all() and np.isfinite(starts).all()):
        for k in np.ndindex(lead):
            forward_cached(A[k], B[k], R[k], q0[k], q_prev[k], n_steps, force_signal,
                           force_gains)
    return y.reshape(lead + (n_steps,)), (w, F, basis, starts, V)


def readout_backward(cache, ybar):
    """Gradients of sum_n ybar_n y_n through :func:`readout_cached`, for a
    ybar of y's shape [..., n_steps]: (Coefficients(dA, dB, dR), dw), each
    [..., mode], with dL/dA_k = w_k sum_n ybar_n s_A,k^{n+1} (B and R
    likewise) and dw_k = sum_n ybar_n q_k^{n+1}.

    One product per start contracts the block states with ybar's blocks, and
    two einsums over the bank that with the basis rows: the first row of M^j
    meets every block of the state, the rows of T^j's first block column meet
    q's. Over the force's support, ybar's in-block correlation with the
    force, sum_i ybar_{i+j} f_i, meets the (T^j b) rows of q, s_A, s_B and
    s_R. Each start's arithmetic is that of the start alone.
    """
    w, F, basis, starts, V = cache
    shape, m = w.shape, w.shape[-1]
    Km, _, n_blocks = starts.shape
    K, L = Km // m, basis.shape[-1]
    Y = np.zeros((K, n_blocks, L))
    Y.reshape(K, -1)[:, :np.shape(ybar)[-1]] = np.reshape(ybar, (K, -1))
    # W[k, i, c, j] = sum_b x_b[k, (i, c)] Y[b, j], one product per start
    W = (starts.reshape(K, 8 * m, n_blocks) @ Y).reshape(Km, 4, 2, L)
    # [mode, (q, s_A, s_B, s_R)] over the bank
    G = np.einsum("kcj,kicj->ki", basis[0], W)
    G[:, 1:3] += np.einsum("ikcj,kcj->ki", basis[1:], W[:, 0])
    if V is not None:
        corr = np.einsum("bij,kbj->ki", _toeplitz(F), Y[:, :len(F)])  # [start, lag]
        G += (V[:, ::2].reshape(K, m, 4, L) @ corr[:, None, :, None]).reshape(Km, 4)
    grads = (w.reshape(-1) * G[:, 1:].T).reshape((3,) + shape)
    return Coefficients(*grads), G[:, 0].reshape(shape)


def bptt(A, B, R, Q, U, ybar, w, force_signal=None, force_gains=None, *, hook):
    """Reverse sweep through the stepping recurrence under a nonlinear force
    hook; a linear model's gradients are readout_backward's.

    ybar[n] = dL/dy_n is the loss gradient of the readout y = Q[2:] @ w, so
    the direct dL/dq^{n+1} is w ybar[n]. Q and U are forward_cached's, and
    the external force enters as there, by force_signal and force_gains.
    Returns (Coefficients(dA, dB, dR), dU), with the input adjoints
    dU[n] = dL/du^n.
    """
    n_steps, m = len(ybar), len(A)
    # the external part of dR_k is g_k (f . qbar_k), over the force's support f
    _, f, force_gains = _check_force(force_signal, force_gains, n_steps, m)
    g = Coefficients(np.empty(m), np.empty(m), np.empty(m))
    # qbar[t] = dL/dq^{t-1}, its direct term w ybar written in place; the last
    # row stays zero, and the sweep stops at q^1 because q^0 is given
    qbar = np.zeros((n_steps + 3, m))
    np.multiply(ybar[:, None], w, out=qbar[2:-1])
    for t in range(n_steps, 1, -1):
        nxt = qbar[t + 1]
        acc = qbar[t] + A * nxt
        acc -= hook.jt_vec(Q[t], R * nxt)
        acc += B * qbar[t + 2]
        qbar[t] = acc
    qbar = qbar[2:-1]
    np.einsum("tm,tm->m", qbar, Q[1:-1], out=g.A)
    np.einsum("tm,tm->m", qbar, Q[:-2], out=g.B)
    np.einsum("tm,tm->m", qbar, U, out=g.R)
    g.R[:] += force_gains * (f @ qbar[:len(f)])
    return g, np.multiply(qbar, R, out=qbar)  # dU[n] = R qbar^{n+1}


# --- input checks, STFT with adjoint ----------------------------------------------

def check_length(name: str, value, size: int) -> np.ndarray:
    """value as a float array of shape (size,), or ValueError naming it."""
    value = np.asarray(value, dtype=float)
    if value.shape != (size,):
        raise ValueError(f"{name} has shape {value.shape}, expected length {size}")
    return value


def check_rate(rate) -> None:
    """Reject a sample rate that is not finite and positive."""
    if not (np.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be positive and finite, got {rate}")


def check_stft(n_samples: int, window_length: int, hop: int) -> None:
    """Reject STFT settings that leave samples out or yield no frame."""
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    if window_length < 2:
        raise ValueError("window length must be >= 2")
    if window_length < hop:
        raise ValueError("window length must be >= hop")
    if n_samples < window_length:
        raise ValueError(
            f"signal too short: {n_samples} samples < window length {window_length}"
        )


@functools.lru_cache(maxsize=8)
def _stft_plan(n, window_length, hop):
    """The index maps and window of a magnitude STFT of n samples, read-only
    and built once per (n, window_length, hop): padded[p] is the sample at
    position p of the reflect-padded signal, and frames[i, j] the padded
    position of point j of frame i."""
    check_stft(n, window_length, hop)
    padded = np.pad(np.arange(n), window_length // 2, mode="reflect")
    n_frames = (len(padded) - window_length) // hop + 1
    frames = np.arange(n_frames)[:, None] * hop + np.arange(window_length)
    win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, window_length + 1)[:-1])
    for a in (padded, frames, win):
        a.flags.writeable = False
    return padded, frames, win


def stft_cached(y, window_length, hop):
    """Magnitude STFT with a periodic Hann window, centered frames and reflect
    padding; returns the magnitude [frame, bin] and the adjoint cache."""
    padded, frames, win = _stft_plan(len(y), window_length, hop)
    x = np.asarray(y, dtype=float)[padded][frames]
    x *= win
    Z = np.fft.rfft(x, axis=1)
    mag = np.abs(Z)
    return mag, (Z, mag, win, padded, len(y), window_length, hop)


def stft_backward(cache, mag_bar):
    """Pull dL/d|Z| back to the time signal through windowing, framing, and
    reflect padding.

    With G = mag_bar Z / |Z| (0 where |Z| = 0), a frame's adjoint is
    win_j sum_k Re(G_k e^{2 pi i jk / wl}) over the rfft bins k. irfft(X, wl)
    is (Re X_0 + 2 sum_{0<k<wl/2} Re(X_k e^{2 pi i jk / wl}) + Re X_{wl/2} (-1)^j) / wl,
    the last term for even wl only, so the sum is wl/2 irfft(G) once bin 0
    and, for even wl, bin wl/2 are doubled.

    The frames' adjoints are summed onto the padded positions, in frame
    order, and those onto the samples. The first sum cuts each frame's
    adjoint, zero-padded to r = ceil(wl / hop) hops, into r hop-long pieces
    and adds them as blocks, the last piece of every frame first, which keeps
    that order: the padding only adds +0.0 to a position's earliest term. One
    scatter straight through the composed map would sum an edge sample's
    terms in another order: it moved the time-domain fits' gradients by up to
    2e-12 of their largest entry."""
    Z, mag, win, padded, n, wl, hop = cache
    ratio = np.divide(mag_bar, mag, out=np.zeros_like(mag), where=mag > 0.0)
    ratio[:, 0] *= 2.0
    if wl % 2 == 0:
        ratio[:, -1] *= 2.0
    n_frames, r = len(Z), -(-wl // hop)
    pieces = np.empty((n_frames, r * hop))
    pieces[:, wl:] = 0.0
    seg = np.fft.irfft(Z * ratio, n=wl, axis=1)
    np.multiply(seg, (0.5 * wl) * win, out=pieces[:, :wl])
    pieces = pieces.reshape(n_frames, r, hop)
    # the last frame ends within a hop of the padded signal's end
    xp_bar = np.zeros((n_frames + r) * hop)
    blocks = xp_bar[:(n_frames + r - 1) * hop].reshape(-1, hop)
    for j in range(r - 1, -1, -1):
        blocks[j:j + n_frames] += pieces[:, j]
    return np.bincount(padded, weights=xp_bar[:len(padded)], minlength=n)


# --- frequency-domain transfer function with partials ------------------------------

def check_tf_frequencies(freqs, rate: float) -> np.ndarray:
    """The frequency grid as floats; every entry strictly inside (0, Nyquist)."""
    check_rate(rate)
    f = np.asarray(freqs, dtype=float)
    if not np.all((f > 0) & (f < rate / 2)):
        raise ValueError("frequencies must lie strictly inside (0, Nyquist)")
    return f


def tf_magnitude_cached(A, B, R, R2, weights, z):
    """|H| = |sum_mu w_mu (R z + R2) / (z^2 - A z - B)| at the points z =
    e^{i 2 pi f / rate} of a frequency grid f that has passed
    :func:`check_tf_frequencies` (callers compute z once per grid). A, B, R,
    R2 and weights broadcast to [..., mode], say [start, mode] for one start
    per row, and |H| is [..., freq].

    The modal responses are summed as complex quantities before taking the
    magnitude, matching the parallel-resonator structure:
    H = z (inv @ (w R)) + inv @ (w R2) with the reciprocal denominator
    inv = 1/den [..., freq, mode], the only [freq, mode] array of a call and
    of its cache (with z, H, |H|, w, R, R2). Both sums are one real product:
    inv's float view [..., freq, 2 mode] times a [..., 2 mode, 4] matrix that
    holds w R and w R2 on its re/im diagonal, read back as two complex sums.
    With hc = conj(mag_bar H/|H|) (0 where |H| = 0), V = [hc; hc z; hc z^2],
    s = Re(V[:2] @ inv) and t = Re(V @ inv^2), :func:`tf_magnitude_backward`
    returns dw = R s1 + R2 s0, dR = w s1, dR2 = w s0, dA = w (R t2 + R2 t1)
    and dB = w (R t1 + R2 t0). It squares inv in place between s and t, so a
    cache serves one backward call.

    At 8 starts x 256 frequencies x 30 modes inv takes 0.98 MB, against 2 MB
    of L2 per core, where a [2, ..., freq, mode] block holding inv and inv^2
    side by side took 1.97 MB. On a 2-core KVM guest with one BLAS thread the
    real products take the forward's two sums from 57 to 39 us and the
    backward pass from 317 to 233 us (the denominator and its reciprocal,
    about 400 us, are the rest of the forward), and string_fit_fd's op_rel
    fell from 4.94 to 4.32 in the median. A new array per product instead
    ran string_fit_fd ops 35% slower, each taking about 105,000 minor page
    faults.
    """
    A, B, R, R2, w = np.broadcast_arrays(A, B, R, R2, weights)
    inv = np.empty(A.shape[:-1] + (len(z), A.shape[-1]), dtype=complex)
    zc = z[:, None]
    # inv = 1 / (z^2 - A z - B), in place
    np.multiply(zc, -A[..., None, :], out=inv)
    inv += zc * zc
    inv -= B[..., None, :]
    np.divide(1.0, inv, out=inv)
    # columns 2k and 2k + 1 of inv's float view are Re inv_k and Im inv_k
    sums = np.zeros(A.shape + (2, 4))
    sums[..., 0, 0] = sums[..., 1, 1] = w * R
    sums[..., 0, 2] = sums[..., 1, 3] = w * R2
    num = (inv.view(float) @ sums.reshape(A.shape[:-1] + (-1, 4))).view(complex)
    H = z * num[..., 0] + num[..., 1]
    mag = np.abs(H)
    return mag, (z, inv, H, mag, w, R, R2)


def _real_product(V, X):
    """Re(V @ X) for complex V [..., row, freq] and X [..., freq, mode] as one
    real product, the rows [Re V; Im V] times X's float view: the even columns
    give (Re V)(Re X) and the odd ones (Im V)(Im X)."""
    r = V.shape[-2]
    P = np.concatenate([V.real, V.imag], axis=-2) @ X.view(float)
    return P[..., :r, 0::2] - P[..., r:, 1::2]


def tf_magnitude_backward(cache, mag_bar):
    """Gradients of sum_f mag_bar_f |H_f|: (Coefficients(dA, dB, dR), dR2, dw),
    each [..., mode], for a mag_bar of |H|'s shape [..., freq]. Squares the
    cache's inv in place and leaves it read-only: a second call with the same
    cache raises ValueError."""
    z, inv, H, mag, w, R, R2 = cache
    if np.shape(mag_bar) != mag.shape:
        raise ValueError(f"mag_bar has shape {np.shape(mag_bar)}, |H| {mag.shape}")
    if not inv.flags.writeable:
        raise ValueError("this transfer-function cache was used by a backward call already")
    safe = np.where(mag > 0.0, mag, 1.0)
    hc = np.conj(np.where(mag > 0.0, mag_bar * H / safe, 0.0))
    V = np.stack([hc, hc * z, hc * z * z], axis=-2)
    s0, s1 = np.moveaxis(_real_product(V[..., :2, :], inv), -2, 0)
    np.multiply(inv, inv, out=inv)
    inv.flags.writeable = False
    t0, t1, t2 = np.moveaxis(_real_product(V, inv), -2, 0)
    return (Coefficients(w * (R * t2 + R2 * t1), w * (R * t1 + R2 * t0), w * s1), w * s0,
            R * s1 + R2 * s0)
