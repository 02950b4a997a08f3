"""Nonlinear force models in modal coordinates.

Two mechanisms:

* tension modulation (strings/membranes): deformation adds a uniform tension
  proportional to the integrated squared gradient, giving the modal force
  f_mu = tau * lambda_mu * q_mu * sum_nu lambda_nu q_nu^2 (unit-norm modes);

* transverse/in-plane coupling (plates): third-order tensors H and C project
  the bilinear operator L(f, g) = f_xx g_yy + f_yy g_xx - 2 f_xy g_xy between
  the transverse basis Phi and the in-plane (Airy) basis Psi. For the simply
  supported plate Psi is the same sine-product family with biharmonic
  eigenvalues zeta^4 = lambda^2, and C follows from H by an index permutation.

The plate force is the two-stage contraction eta = H : q q / zeta4,
f = gain C : q eta (VkContraction). Each stage keeps only the nonzero blocks
of its tensor: rows with the same exact zero pattern form one zero-padded
block holding just their nonzero columns, and the first stage runs over the
pairs i <= j with the (i, j) and (j, i) coefficients summed, since q q is
symmetric. For the simply supported plate the parity rules zero about three
quarters of H and C in four row patterns per stage, so the blocks hold 15-30%
of the dense entries. Quadrature leaves those zeros as dust of order 1e-16;
sparsify makes them exact, which is why simulate passes tensors through it.

Tensor integrals use analytic second derivatives of the sine modes and
Gauss-Legendre quadrature (16 points per shortest half-wavelength by default,
8 minimum); for products of sines this is accurate to near machine precision.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .modes import ModeBasis, mode_second_derivatives, required_grid_points

DEFAULT_PPW = 16


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


@dataclass(frozen=True)
class GridField:
    """Scalar field sampled on a uniform 2-D grid, values indexed [y, x]."""

    values: np.ndarray
    dx: float
    dy: float

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] < 3:
            raise ValueError("grid must be 2-D with at least 3 points per axis")


def vk_bilinear(fxx, fyy, fxy, gxx, gyy, gxy):
    """Pointwise f_xx*g_yy + f_yy*g_xx - 2*f_xy*g_xy."""
    return fxx * gyy + fyy * gxx - 2.0 * fxy * gxy


def vk_operator(f: GridField, g: GridField) -> GridField:
    """Bilinear operator of two grid fields via finite-difference Hessians."""
    if f.values.shape != g.values.shape or f.dx != g.dx or f.dy != g.dy:
        raise ValueError("mismatched grids")

    def hessian(v, dx, dy):
        vy, vx = np.gradient(v, dy, dx)
        vyy, _ = np.gradient(vy, dy, dx)
        vxy, vxx = np.gradient(vx, dy, dx)
        return vxx, vyy, vxy

    fh = hessian(np.asarray(f.values, dtype=float), f.dx, f.dy)
    gh = hessian(np.asarray(g.values, dtype=float), g.dx, g.dy)
    return GridField(vk_bilinear(*fh, *gh), f.dx, f.dy)


def _quadrature_grid(phi: ModeBasis, psi: ModeBasis, ppw: int):
    """Tensor-product Gauss-Legendre nodes and weights dense enough for both
    bases. The coupling integrands are products of three sines/cosines whose
    half-period frequencies break the periodicity that makes the trapezoidal
    rule spectrally accurate, so Gauss-Legendre is used instead; at the default
    density the entries are converged to near machine precision."""
    if phi.kind != "rect":
        raise ValueError("coupling tensors are defined on rectangular domains")
    if ppw < 8:
        raise ValueError("resolution below 8 points per shortest half-wavelength rejected")
    nx, ny = (max(a, b) for a, b in zip(required_grid_points(phi, ppw),
                                        required_grid_points(psi, ppw)))
    Lx, Ly = phi.lengths
    xn, xw = np.polynomial.legendre.leggauss(nx)
    yn, yw = np.polynomial.legendre.leggauss(ny)
    x = 0.5 * Lx * (xn + 1.0)
    y = 0.5 * Ly * (yn + 1.0)
    wx = 0.5 * Lx * xw
    wy = 0.5 * Ly * yw
    X, Y = np.meshgrid(x, y)
    return X, Y, np.outer(wy, wx)


def _hessian_stack(basis: ModeBasis, X, Y):
    n = basis.count
    fxx = np.empty((n,) + X.shape)
    fyy = np.empty_like(fxx)
    fxy = np.empty_like(fxx)
    for i in range(n):
        fxx[i], fyy[i], fxy[i] = mode_second_derivatives(basis, i, X, Y)
    return fxx, fyy, fxy


def _mode_values(basis: ModeBasis, X, Y):
    from .modes import _sinpi

    labs = np.asarray(basis.labels, dtype=float)
    Lx, Ly = basis.lengths
    vals = np.empty((basis.count,) + X.shape)
    for i in range(basis.count):
        vals[i] = _sinpi(labs[i, 0] * (X / Lx)) * _sinpi(labs[i, 1] * (Y / Ly))
    return vals * basis.shape_scale


def compute_H(phi: ModeBasis, psi: ModeBasis, ppw: int = DEFAULT_PPW) -> np.ndarray:
    """H[k, i, j] = integral Psi_k L(Phi_i, Phi_j) / (||Psi_k|| ||Phi_i|| ||Phi_j||).

    Symmetry in (i, j) holds bit-exactly: each unordered pair is integrated once
    and mirrored.
    """
    if not phi.same_domain(psi):
        raise ValueError("phi and psi must share the domain")
    # the quadrature grid must resolve whichever basis carries the highest index
    X, Y, W = _quadrature_grid(phi, psi, ppw)
    fxx, fyy, fxy = _hessian_stack(phi, X, Y)
    psi_w = (_mode_values(psi, X, Y) * W).reshape(psi.count, -1)

    n = phi.count
    H = np.empty((psi.count, n, n))
    for i in range(n):
        batch = vk_bilinear(
            fxx[i][None], fyy[i][None], fxy[i][None], fxx[i:], fyy[i:], fxy[i:]
        ).reshape(n - i, -1)
        block = psi_w @ batch.T  # [n_psi, n - i]
        H[:, i, i:] = block
        H[:, i:, i] = block
    denom = (
        np.sqrt(psi.norms_sq)[:, None, None]
        * np.sqrt(phi.norms_sq)[None, :, None]
        * np.sqrt(phi.norms_sq)[None, None, :]
    )
    return H / denom




def compute_C(phi: ModeBasis, psi: ModeBasis, ppw: int = DEFAULT_PPW) -> np.ndarray:
    """C[s, p, n] = integral Phi_s L(Phi_p, Psi_n) / (||Phi_s|| ||Phi_p|| ||Psi_n||)."""
    if not phi.same_domain(psi):
        raise ValueError("phi and psi must share the domain")
    X, Y, W = _quadrature_grid(phi, psi, ppw)
    pxx, pyy, pxy = _hessian_stack(phi, X, Y)
    sxx, syy, sxy = _hessian_stack(psi, X, Y)
    phi_w = (_mode_values(phi, X, Y) * W).reshape(phi.count, -1)

    C = np.empty((phi.count, phi.count, psi.count))
    for p in range(phi.count):
        batch = vk_bilinear(pxx[p][None], pyy[p][None], pxy[p][None], sxx, syy, sxy)
        C[:, p, :] = phi_w @ batch.reshape(psi.count, -1).T
    denom = (
        np.sqrt(phi.norms_sq)[:, None, None]
        * np.sqrt(phi.norms_sq)[None, :, None]
        * np.sqrt(psi.norms_sq)[None, None, :]
    )
    return C / denom


def derive_C_from_H(H: np.ndarray, phi: ModeBasis, psi: ModeBasis) -> np.ndarray:
    """C[s, p, n] = H[n, p, s] — valid only when Phi and Psi are the same basis
    (simply supported rectangle)."""
    same = (
        phi.same_domain(psi)
        and phi.labels == psi.labels
        and phi.unit_normalized == psi.unit_normalized
    )
    if not same:
        raise ValueError("index-permutation shortcut requires identical Phi and Psi bases")
    return np.ascontiguousarray(np.transpose(H, (2, 1, 0)))


def simply_supported_tensors(phi: ModeBasis, n_psi: int | None = None,
                             ppw: int = DEFAULT_PPW) -> CouplingTensors:
    """Coupling tensors of a simply supported plate: Psi = Phi sine family,
    zeta^4 = lambda^2, C from the permutation identity."""
    from .modes import airy_eigenvalues, rect_basis

    if phi.kind != "rect":
        raise ValueError("plate coupling requires a rectangle basis")
    n_psi = phi.count if n_psi is None else n_psi
    if n_psi == phi.count:
        psi = phi
    else:
        psi = rect_basis(phi.lengths[0], phi.lengths[1], n_psi, phi.unit_normalized)
    H = compute_H(phi, psi, ppw)
    if n_psi == phi.count:
        C = derive_C_from_H(H, phi, psi)
    else:
        C = compute_C(phi, psi, ppw)
    return CouplingTensors(H=H, C=C, zeta4=airy_eigenvalues(psi))


def sparsify(ct: CouplingTensors, rel_tol: float = 1e-12) -> CouplingTensors:
    """Zero entries below rel_tol times the largest magnitude. Parity-rule zeros
    come out of quadrature as dust; made exact, they let VkContraction store
    only the nonzero blocks, and they keep serialised files clean."""

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
    patterns per stage, but quadrature leaves those entries as dust of order
    1e-16: pass tensors through sparsify to expose them. A tensor without
    exact zeros forms one group, which is the dense product.

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
