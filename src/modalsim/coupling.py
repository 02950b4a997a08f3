"""Nonlinear force models in modal coordinates.

Two mechanisms:

* tension modulation (strings/membranes): deformation adds a uniform tension
  proportional to the integrated squared gradient, giving the modal force
  f_mu = tau * lambda_mu * q_mu * sum_nu lambda_nu q_nu^2 (unit-norm modes);

* transverse/in-plane coupling (plates): third-order tensors H and C project
  the bilinear operator L(f, g) = f_xx g_yy + f_yy g_xx - 2 f_xy g_xy between
  the transverse basis Phi and the in-plane (Airy) basis Psi. For the simply
  supported plate Psi is the same sine-product family with biharmonic
  eigenvalues zeta^4 = lambda^2, and with Psi = Phi, C is H with its first
  and last indices swapped.

The plate force is the two-stage contraction eta = H : q q / zeta4,
f = gain C : q eta (VkContraction). Each stage keeps only the nonzero blocks
of its tensor: rows with the same exact zero pattern form one zero-padded
block holding just their nonzero columns, and the first stage runs over the
pairs i <= j with the (i, j) and (j, i) coefficients summed, since q q is
symmetric. For the simply supported plate the parity rules zero about three
quarters of H and C in four row patterns per stage, so the blocks hold 15-30%
of the dense entries.

The tensor entries are closed forms. A sine mode's second derivatives are
sines and cosines again, so each entry splits into x-integrals times
y-integrals of three sines or cosines, and those reduce by products to sums
to integer-indexed integrals of a single sine (Bilbao, Numerical Sound
Synthesis, 2009). The parity zeros therefore come out exact, and simulate
hands the tensors to VkContraction as they are. Tensors from elsewhere (a
file, a quadrature) may carry those zeros as rounding dust; sparsify makes
them exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .modes import ModeBasis


@dataclass(frozen=True)
class CouplingTensors:
    """H[k, i, j]: Airy k against transverse i, j. C[s, p, n]: transverse s, p
    against Airy n. zeta4: in-plane biharmonic eigenvalues."""

    H: np.ndarray
    C: np.ndarray
    zeta4: np.ndarray

    def __post_init__(self):
        n_psi, n_phi, n_phi2 = self.H.shape
        if n_phi != n_phi2:
            raise ValueError("H must have shape [n_psi, n_phi, n_phi]")
        if self.C.shape != (n_phi, n_phi, n_psi):
            raise ValueError("C must have shape [n_phi, n_phi, n_psi]")
        if self.zeta4.shape != (n_psi,):
            raise ValueError("zeta4 must have one entry per Airy mode")
        if not np.all(self.zeta4 > 0):
            raise ValueError("zeta4 entries must be positive")
        if not (np.all(np.isfinite(self.H)) and np.all(np.isfinite(self.C))):
            raise ValueError("tensor entries must be finite")

    @property
    def n_phi(self) -> int:
        return self.H.shape[1]

    @property
    def n_psi(self) -> int:
        return self.H.shape[0]


def _sine_integrals(k, L):
    """S[p, q, r] = int_0^L sin sin sin and C[p, q, r] = int_0^L sin cos cos of
    (p, q, r) pi x / L for all p, q, r in k: products to sums over
    int_0^L sin(k pi x / L) dx = 2 L / (k pi) for odd k and 0 for even k."""
    p, q, r = k[:, None, None], k[None, :, None], k[None, None, :]

    def I(n):
        odd = n % 2 == 1
        return np.where(odd, 2.0 * L / (np.pi * np.where(odd, n, 1)), 0.0)

    # grouped so that swapping q and r only reorders exact operations, which
    # keeps the (i, j) symmetry of H bit for bit
    S = ((I(p + r - q) - I(r - p - q)) + (I(q + r - p) - I(p + q + r))) / 4.0
    C = ((I(p + q - r) + I(p - q + r)) + (I(p + q + r) + I(p - q - r))) / 4.0
    return S, C


def _projection(o: ModeBasis, l: ModeBasis, r: ModeBasis) -> np.ndarray:
    """T[k, i, j] = integral o_k L(l_i, r_j) / (||o_k|| ||l_i|| ||r_j||) in closed form.

    A mode f = sin(a x) sin(b y) has f_xx = -a^2 f, f_yy = -b^2 f and
    f_xy = a b cos(a x) cos(b y), so each entry is a sum of products of 1-D
    integrals:
    T = (a_i^2 b_j^2 + b_i^2 a_j^2) Sx Sy - 2 (a_i b_i)(a_j b_j) Cx Cy.
    The integrals vanish exactly unless both index sums are odd.
    """
    labels = [np.asarray(b.labels) for b in (o, l, r)]
    factors = []
    for axis, L in enumerate(o.lengths):
        io, il, ir = (lab[:, axis] - 1 for lab in labels)
        tables = _sine_integrals(np.arange(1, max(io.max(), il.max(), ir.max()) + 2), L)
        factors.append([t[io][:, il][:, :, ir] for t in tables])
    (Sx, Cx), (Sy, Cy) = factors
    (al, bl), (ar, br) = ((lab * np.pi / np.asarray(o.lengths)).T for lab in labels[1:])
    cross = np.outer(al**2, br**2) + np.outer(bl**2, ar**2)
    twist = 2.0 * np.outer(al * bl, ar * br)
    so, sl, sr = (b.shape_scale / np.sqrt(b.norms_sq) for b in (o, l, r))
    return (cross * (Sx * Sy) - twist * (Cx * Cy)) * (so[:, None, None] * np.outer(sl, sr))


def simply_supported_tensors(phi: ModeBasis, n_psi: int | None = None) -> CouplingTensors:
    """Coupling tensors of a simply supported plate: Psi is the sine family of
    phi's rectangle (its first n_psi modes, default phi itself), zeta^4 =
    lambda^2, H = T(Psi; Phi, Phi) and C = T(Phi; Phi, Psi) with T the closed
    form of _projection."""
    from .modes import airy_eigenvalues, rect_basis

    if phi.kind != "rect":
        raise ValueError("plate coupling requires a rectangle basis")
    if n_psi is None or n_psi == phi.count:
        psi = phi
    else:
        psi = rect_basis(phi.lengths[0], phi.lengths[1], n_psi, phi.unit_normalized)
    return CouplingTensors(H=_projection(psi, phi, phi), C=_projection(phi, phi, psi),
                           zeta4=airy_eigenvalues(psi))


def sparsify(ct: CouplingTensors, rel_tol: float = 1e-12) -> CouplingTensors:
    """Zero entries below rel_tol times the largest magnitude.

    For tensors that were not computed by simply_supported_tensors, such as
    ones read from a file or integrated numerically, whose parity zeros may be
    rounding dust: made exact, they let VkContraction store only the nonzero
    blocks. simply_supported_tensors already returns exact zeros, which this
    leaves as they are."""

    def clean(t):
        cut = rel_tol * np.max(np.abs(t))
        out = t.copy()
        out[np.abs(out) < cut] = 0.0
        return out

    return CouplingTensors(H=clean(ct.H), C=clean(ct.C), zeta4=ct.zeta4)


# --- modal nonlinear forces -------------------------------------------------
#
# One object per force law, shared by simulate, rk_reference and the fits (the
# hook protocol is described in modalsim.adjoint). force(q) is pure; force(q, n)
# also stores what the reverse sweep reads, so make one object per run.

class TensionModulation:
    """Tension-modulation force tau_hat * lam_mu * q_mu * sum_nu lam_nu q_nu^2.

    The closed form assumes unit-normalised modes; lam holds their
    eigenvalues.
    """

    def __init__(self, lam, tau_hat):
        self.lam = np.asarray(lam, dtype=float)
        self.tau_hat = float(tau_hat)
        self.S = None

    def begin(self, n_steps):
        self.S = np.empty(n_steps)

    def __call__(self, q, n=None):
        s = float(self.lam @ (q * q))
        if n is not None:
            self.S[n] = s
        return self.tau_hat * self.lam * q * s

    def jt_vec(self, n, v, q):
        lamq = self.lam * q
        return self.tau_hat * (self.lam * v * self.S[n] + 2.0 * lamq * (lamq @ v))

    def finalize(self, V, Qmid, want):
        out = {}
        if "tau" in want:
            out["tau"] = -float(np.einsum("tm,m,tm,t->", V, self.lam, Qmid, self.S))
        return out


class _Blocks:
    """A matrix M[n_out, n_in] whose column c multiplies a[ia[c]] * b[ib[c]],
    stored as the nonzero blocks of its rows.

    Rows with the same exact zero pattern form a group; a group keeps only
    its nonzero columns. The groups are zero-padded to one stack B[G, R, K]
    with gather indices IA, IB[G, K] into a and b, and slot[g, r], the output
    row of stacked row r of group g. Padding carries zero coefficients, so it
    adds nothing whatever index it gathers (slot and the indices pad with 0).
    A matrix without exact zeros is a single dense group.
    """

    def __init__(self, M, ia, ib):
        groups = {}
        for r, pattern in enumerate(M != 0.0):
            groups.setdefault(pattern.tobytes(), []).append(r)
        rows = [np.array(r) for r in groups.values()]
        cols = [np.flatnonzero(M[r[0]]) for r in rows]
        G, R, K = len(rows), max(map(len, rows)), max(map(len, cols))
        self.B = np.zeros((G, R, K))
        self.IA = np.zeros((G, K), dtype=np.intp)
        self.IB = np.zeros((G, K), dtype=np.intp)
        self.slot = np.zeros((G, R), dtype=np.intp)
        self.pos = np.empty(M.shape[0], dtype=np.intp)  # stacked index of each output row
        for g, (r, c) in enumerate(zip(rows, cols)):
            self.B[g, : len(r), : len(c)] = M[np.ix_(r, c)]
            self.IA[g, : len(c)] = ia[c]
            self.IB[g, : len(c)] = ib[c]
            self.slot[g, : len(r)] = r
            self.pos[r] = g * R + np.arange(len(r))

    def __call__(self, a, b):
        """M @ (a[ia] * b[ib]) in output-row order."""
        x = a[self.IA] * b[self.IB]
        return np.matmul(self.B, x[:, :, None]).reshape(-1)[self.pos]

    def transpose(self, v):
        """w[g, k] = sum_r B[g, r, k] v[slot[g, r]]: the adjoint of M applied to
        v, per stored column."""
        return np.matmul(v[self.slot][:, None, :], self.B)[:, 0, :]


class VkContraction:
    """Two-stage contraction of the plate coupling:

        eta_n = sum_{a,b} H[n,a,b] q_a q_b / zeta4_n
        out_s = gain * sum_{p,n} C[s,p,n] q_p eta_n

    gain is E / (2 rho) with rho the volumetric density.

    Each stage is stored as the nonzero blocks of its rows (see _Blocks).
    Stage 1 folds the (i, j) symmetry of the quadratic form: it runs over the
    pairs i <= j with coefficient H[n,i,j] + H[n,j,i] (the diagonal once),
    which is exact for any H, including the asymmetric ones of a fit. Stage 2
    runs over C reshaped to [n_phi, n_phi n_psi]. A call is then one gather
    multiply and one batched matrix product per stage, and jt_vec the
    transposed products with their scatter-adds.

    The block structure comes from exact zeros. The simply supported plate's
    parity rules make about three quarters of H and C zero, in four row
    patterns per stage, and simply_supported_tensors returns those zeros
    exactly. A tensor whose zeros are rounding dust, or that has none, forms
    one group, which is the dense product; sparsify exposes the dust.

    The H gradient of finalize assumes C is tied to H by C[s,p,n] = H[n,p,s]
    (the simply supported plate), so that optimising H drags C along.
    """

    def __init__(self, H, C, zeta4, gain):
        n_psi, n_phi, _ = H.shape
        self.n_phi, self.n_psi = n_phi, n_psi
        self.inv_zeta4 = 1.0 / zeta4
        self.gain = float(gain)
        # the scales ride in the blocks: stage 1 yields eta, stage 2 the force
        i, j = np.triu_indices(n_phi)
        folded = H[:, i, j] + np.where(i < j, H[:, j, i], 0.0)
        self.h_blocks = _Blocks(folded * self.inv_zeta4[:, None], i, j)
        p, n = np.divmod(np.arange(n_phi * n_psi), n_psi)
        self.c_blocks = _Blocks(self.gain * C.reshape(n_phi, -1), p, n)
        # every term jt_vec scatters onto q: the q index it lands on, and the
        # index of its partner factor in [q, eta]
        hb, cb = self.h_blocks, self.c_blocks
        self._jt_index = np.concatenate([hb.IA.ravel(), hb.IB.ravel(), cb.IA.ravel()])
        self._jt_partner = np.concatenate([hb.IB.ravel(), hb.IA.ravel(),
                                           n_phi + cb.IB.ravel()])
        self.eta = self.G = None

    def begin(self, n_steps):
        self.eta = np.empty((n_steps, self.n_psi))
        self.G = np.empty((n_steps, self.n_psi))

    def __call__(self, q, n=None):
        eta = self.h_blocks(q, q)
        if n is not None:
            self.eta[n] = eta
        return self.c_blocks(q, eta)

    def jt_vec(self, n, v, q):
        hb, cb = self.h_blocks, self.c_blocks
        wc = cb.transpose(v)
        g_eta = np.bincount(cb.IB.ravel(), weights=(wc * q[cb.IA]).ravel(),
                            minlength=self.n_psi)
        self.G[n] = g_eta
        wh = hb.transpose(g_eta).ravel()
        w = np.concatenate([wh, wh, wc.ravel()])
        partners = np.concatenate([q, self.eta[n]])[self._jt_partner]
        return np.bincount(self._jt_index, weights=w * partners, minlength=self.n_phi)

    def finalize(self, V, Qmid, want):
        out = {}
        if "H" in want:
            dH = -np.einsum("tn,ta,tb->nab", self.G * self.inv_zeta4[None, :], Qmid, Qmid)
            dH -= self.gain * np.einsum("ts,tp,tn->nps", V, Qmid, self.eta)
            out["H"] = dH
        return out


# --- serialisation ----------------------------------------------------------

_MAGIC = b"VKCT"
_VERSION = 1


def save_tensors(ct: CouplingTensors, path) -> None:
    """Flat binary layout: magic, endianness tag, version, dims, then zeta4, H,
    C as row-major little-endian doubles."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(b"<")
        f.write(struct.pack("<III", _VERSION, ct.n_psi, ct.n_phi))
        for arr in (ct.zeta4, ct.H, ct.C):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_tensors(path) -> CouplingTensors:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a coupling-tensor file (magic {magic!r})")
        endian = f.read(1)
        if endian not in (b"<", b">"):
            raise ValueError(f"unknown endianness tag {endian!r}")
        tag = endian.decode()
        version, n_psi, n_phi = struct.unpack(f"{tag}III", f.read(12))
        if version != _VERSION:
            raise ValueError(f"unsupported tensor file version {version}")
        dt = np.dtype(f"{tag}f8")
        zeta4 = np.frombuffer(f.read(8 * n_psi), dtype=dt).astype(float)
        H = np.frombuffer(f.read(8 * n_psi * n_phi * n_phi), dtype=dt).astype(float)
        C = np.frombuffer(f.read(8 * n_phi * n_phi * n_psi), dtype=dt).astype(float)
    return CouplingTensors(
        H=H.reshape(n_psi, n_phi, n_phi), C=C.reshape(n_phi, n_phi, n_psi), zeta4=zeta4
    )


def tensors_to_csv(ct: CouplingTensors, path) -> None:
    """Entry-per-row dump for inspection: tensor, i0, i1, i2, value."""
    with open(path, "w") as f:
        f.write("tensor,i0,i1,i2,value\n")
        for name, t in (("H", ct.H), ("C", ct.C)):
            for idx in np.ndindex(t.shape):
                f.write(f"{name},{idx[0]},{idx[1]},{idx[2]},{t[idx]!r}\n")
        for k, z in enumerate(ct.zeta4):
            f.write(f"zeta4,{k},0,0,{z!r}\n")
