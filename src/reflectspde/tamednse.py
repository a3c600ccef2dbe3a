"""Toy spectral tamed 3-D Navier-Stokes drift with reflection in the H^1 ball.

Velocity fields are stored as real coefficients against divergence-free
polarization modes: for every half-lattice wavevector k (first nonzero
component positive, 0 < |k|_inf <= modes) two orthonormal polarizations
perpendicular to k carry a complex amplitude each, packed as
sqrt(2) * (Re z1, Im z1, Re z2, Im z2).  With that packing the plain dot
product of storage vectors is the L^2 (= H^0) inner product, so the H^1 and
H^2 norms are diagonal with weights (1+|k|^2) and (1+|k|^2)^2 — the ball
projection of the generic machinery then reflects in the H^1 ball, and every
storable state is automatically divergence-free and conjugate-symmetric.

Drift (viscosity on the Stokes term as in the momentum equation):

    A(u) = nu * P Laplace(u) - P((u . grad) u) - P(g_N(|u|^2) u)

with the nonlinear terms evaluated pseudo-spectrally on a 2(2*modes+1)^3
grid.  The convection is taken in rotational form: (u . grad) u =
omega x u + grad(|u|^2 / 2) with omega = curl u.  P is the projection onto
the two polarizations perpendicular to k that packs every state, and it
removes the gradient, whose coefficients i k (|u|^2/2)^_k are parallel to k.
So only u and omega (6 fields) go to the grid, not u and its 9 derivatives.
The grid is wider than 2/3-rule dealiasing needs: |u|^2 and omega x u have
modes up to 2*modes, and none of them aliases onto a retained mode, so the
identity and the gradient's removal hold exactly at the retained modes, up to
rounding.  The taming term g_N(|u|^2) u is formed from the same grid values
of u.

The drift is declared once, as its Lawson split: the diagonal Stokes symbol
s = -nu |k|^2 (linear_symbol) and N(u) = -P((u . grad) u) - P(g_N(|u|^2) u)
(nonstiff_drift); tamed_drift recombines them as (1+|k|^2) (s u + N(u)).

Grid fields are real and every stored wavevector has kx >= 0, so a field is
held on the retained box kx in [0, modes], ky, kz in [-modes, modes] (the
kx = 0 plane also carries the conjugate partners) and reaches the grid by
three dense 1-D passes, the trigonometric matrices of fourier.TrigBasis1D
applied along each axis: complex e^{i k y} along z and y, and a real cos/sin
pair along x that weights kx > 0 twice for its absent -kx.  The products come
back by the conjugate passes, keeping only the box.  These O(G * modes)
matrices touch only the box, where full-grid FFTs would transform a cube that
is mostly zero.

The drift runs in row chunks that share one workspace per call: two flat
float buffers of 6 and 5 grid fields per row.  Each transform stage writes
into a view of the buffer its input is not in (box, kz, ky, real/imag and
grid alternate p1, p2, p1, p2, p1; |u|^2, g_N and the products go to p2; the
analysis to p1, p2, p1, p2), so no chunk pages in scratch of its own, and
no result is a view of the workspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ModelEvaluationError, UnsupportedParameterError
from .hilbert import SpaceSpec
from .models import (
    ModelBundle,
    ModelSpec,
    decay_profile_x0,
    geometric_noise,
    noise_growth_sq,
    noise_lip_sq,
)

__all__ = [
    "TamedSpec",
    "TamedLattice",
    "build_lattice",
    "leray_project",
    "taming_g",
    "tamed_drift",
    "h1_space",
    "make_tamed_nse",
]

# The drift runs in row chunks whose transform workspace (_row_scratch_bytes
# per row, at least one row) fits in this budget: at 4 modes a row holds
# 0.51 MB, so a chunk holds 8 rows.  The workspace is allocated once per call
# and shared by its chunks.  On a 2-core x86 host at one BLAS thread, after
# the 1-D audits of the audits benchmark in the same process, the tamed
# constant stability at counts (50, 100) ran in 0.13-0.15 s at 2-4 MB (4-8
# rows), 0.15-0.17 s at 6 MB (12 rows) and 0.16-0.19 s at 8-12 MB (16-24
# rows).  At 4 MB it takes about 1 700 minor faults per run; when every
# chunk allocated its own scratch it took about 27 000 and 0.24 s.
_CHUNK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class TamedSpec:
    """Viscosity nu and taming threshold N; the resolution is the lattice's."""

    nu: float
    taming_n: float

    def __post_init__(self):
        if not self.nu > 0:
            raise ConfigurationError("viscosity nu must be positive")
        if not self.taming_n > 0:
            raise ConfigurationError("taming threshold must be positive")


@dataclass(frozen=True, eq=False)
class TamedLattice:
    """Half-lattice bookkeeping for divergence-free spectral velocity fields."""

    modes: int
    kvecs: np.ndarray  # (L, 3) int, sorted by (|k|^2, kx, ky, kz)
    ksq: np.ndarray  # (L,)
    pol1: np.ndarray  # (L, 3) unit, perpendicular to k
    pol2: np.ndarray  # (L, 3) unit, perpendicular to k and pol1
    grid_size: int  # points per dimension
    box_idx: np.ndarray  # (L,) flat index of k in the (kx >= 0, ky, kz) box
    plane_rows: np.ndarray  # rows of the kx = 0 modes
    conj_idx: np.ndarray  # flat box index of -k for those rows
    synthesis_yz: np.ndarray  # (2m+1, G) complex, e^{i k y_j} for k = -m..m
    analysis_yz: np.ndarray  # (2m+1, G) complex, e^{-i k y_j}
    synthesis_x: np.ndarray  # (G, 2(m+1)) real, [w cos | -w sin], w = 1 at kx = 0, else 2
    analysis_x: np.ndarray  # (2(m+1), G) real, [cos; -sin] / G^3

    @property
    def n_half(self) -> int:
        return self.kvecs.shape[0]

    @property
    def n_coeffs(self) -> int:
        return 4 * self.n_half


def _phases(k: np.ndarray, grid: int) -> np.ndarray:
    """(len(k), grid) angles k * x_j, reduced mod 2 pi in whole grid steps so
    that high wavenumbers lose no accuracy to the argument's size."""
    return 2.0 * np.pi * (np.outer(k, np.arange(grid)) % grid) / grid


def build_lattice(modes: int = 4) -> TamedLattice:
    """The half lattice of radius modes: wavevectors 0 < |k|_inf <= modes."""
    if modes < 4:
        raise ConfigurationError("tamed model needs at least 4 modes per dimension")
    if modes > 8:
        raise UnsupportedParameterError("resolution ceiling is 8 modes per dimension")
    kmax = modes
    half = []
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            for kz in range(-kmax, kmax + 1):
                k = (kx, ky, kz)
                first = next((c for c in k if c != 0), 0)
                if first > 0:
                    half.append(k)
    half.sort(key=lambda k: (k[0] ** 2 + k[1] ** 2 + k[2] ** 2, k))
    kvecs = np.asarray(half, dtype=int)
    ksq = np.sum(kvecs**2, axis=1).astype(float)

    kf = kvecs.astype(float)
    helper = np.where(
        (kvecs[:, 0] == 0) & (kvecs[:, 1] == 0),
        np.array([[1.0, 0.0, 0.0]]).T,
        np.array([[0.0, 0.0, 1.0]]).T,
    ).T  # (L, 3)
    p1 = np.cross(kf, helper)
    p1 /= np.linalg.norm(p1, axis=1, keepdims=True)
    khat = kf / np.sqrt(ksq)[:, None]
    p2 = np.cross(khat, p1)
    p2 /= np.linalg.norm(p2, axis=1, keepdims=True)

    grid = 2 * (2 * kmax + 1)
    # every stored k has kx >= 0, so each sits in the box kx in [0, m],
    # ky, kz in [-m, m]; the kx = 0 plane also needs the conjugate at -k,
    # which no stored row supplies
    side = 2 * kmax + 1
    strides = np.array([side * side, side, 1])  # (kx, ky, kz)
    offset = np.array([0, kmax, kmax])
    plane = np.flatnonzero(kvecs[:, 0] == 0)
    synthesis_yz = np.exp(1j * _phases(np.arange(-kmax, kmax + 1), grid))
    kx = np.arange(kmax + 1)
    cos, sin = np.cos(_phases(kx, grid)), np.sin(_phases(kx, grid))
    weight = np.where(kx == 0, 1.0, 2.0)[:, None]  # kx > 0 stands for kx and -kx
    return TamedLattice(
        modes=modes,
        kvecs=kvecs,
        ksq=ksq,
        pol1=p1,
        pol2=p2,
        grid_size=grid,
        box_idx=(kvecs + offset) @ strides,
        plane_rows=plane,
        conj_idx=(offset - kvecs[plane]) @ strides,
        synthesis_yz=synthesis_yz,
        analysis_yz=np.conj(synthesis_yz),
        synthesis_x=np.concatenate([weight * cos, -weight * sin]).T.copy(),
        analysis_x=np.concatenate([cos, -sin]) / grid**3,
    )


def leray_project(lattice: TamedLattice, uhat: np.ndarray) -> np.ndarray:
    """Per mode: uhat - k (k . uhat) / |k|^2; idempotent and self-adjoint."""
    uhat = np.asarray(uhat, dtype=complex)
    kf = lattice.kvecs.astype(float)
    dot = np.einsum("...lc,lc->...l", uhat, kf)
    return uhat - dot[..., None] * (kf / lattice.ksq[:, None])


def taming_g(r: np.ndarray | float, spec: TamedSpec) -> np.ndarray | float:
    """0 on [0,N]; (r-N)/nu beyond N+1; C^1 cubic Hermite bridge between."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ModelEvaluationError("taming function argument must be nonnegative")
    g = np.array(arr, ndmin=1)
    _taming_g_into(g, *np.empty((2,) + g.shape), spec)
    g = g.reshape(arr.shape)
    return float(g) if np.isscalar(r) else g


def _taming_g_into(r: np.ndarray, t: np.ndarray, w: np.ndarray, spec: TamedSpec) -> np.ndarray:
    """Overwrite r >= 0 with g_N(r) = ((2 - t) t^2 + max(s - 1, 0)) / nu,
    s = r - N, t = clip(s, 0, 1), using t and w (r's shape) as scratch; r is
    not checked, so a sum of squares pays no negativity pass."""
    np.subtract(r, spec.taming_n, out=r)
    np.clip(r, 0.0, 1.0, out=t)
    np.subtract(2.0, t, out=w)
    w *= t  # products: libm pow is far slower
    w *= t
    np.maximum(np.subtract(r, 1.0, out=r), 0.0, out=r)
    r += w
    r /= spec.nu
    return r


# --------------------------------------------------------------------------
# packing between storage coefficients, half-lattice modes, and the grid

_SQRT2 = np.sqrt(2.0)


def uhat_from_state(lattice: TamedLattice, state: np.ndarray) -> np.ndarray:
    s4 = np.asarray(state, dtype=float).reshape(*state.shape[:-1], lattice.n_half, 4)
    z1 = (s4[..., 0] + 1j * s4[..., 1]) / _SQRT2
    z2 = (s4[..., 2] + 1j * s4[..., 3]) / _SQRT2
    return z1[..., None] * lattice.pol1 + z2[..., None] * lattice.pol2


def state_from_uhat(lattice: TamedLattice, uhat: np.ndarray) -> np.ndarray:
    z1 = np.einsum("...lc,lc->...l", uhat, lattice.pol1)
    z2 = np.einsum("...lc,lc->...l", uhat, lattice.pol2)
    s4 = np.stack(
        [_SQRT2 * z1.real, _SQRT2 * z1.imag, _SQRT2 * z2.real, _SQRT2 * z2.imag],
        axis=-1,
    )
    return s4.reshape(*s4.shape[:-2], lattice.n_coeffs)


# Real grid fields (G^3 floats) per row in the workspace's buffers p1 and p2,
# each sized by the most that is live in it at once: u and omega in p1;
# |u|^2, g_N's scratch and the three products in p2.
_P1, _P2 = 6, 5


def _workspace(lattice: TamedLattice, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The (p1, p2) scratch of _nonlinear_hat for blocks of up to rows rows."""
    g3 = lattice.grid_size**3
    return np.empty(rows * _P1 * g3), np.empty(rows * _P2 * g3)


def _view(buf: np.ndarray, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """The leading items of the flat float buffer buf as an array of shape and
    dtype (complex takes two floats an item)."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize // buf.itemsize
    return buf[:size].view(dtype).reshape(shape)


def _velocity_and_vorticity(
    lattice: TamedLattice, uh: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """(rows, L, 3) velocity coefficients -> (rows, 6, L) in buf: u, then i k x u."""
    kf = lattice.kvecs.T.astype(float)  # (3, L)
    coef = np.moveaxis(uh, -1, -2)
    fields = _view(buf, (uh.shape[0], 6, lattice.n_half), complex)
    fields[:, :3] = coef
    for i in range(3):  # cyclic (i, j, l): omega_i = i (k_j u_l - k_l u_j)
        j, l = (i + 1) % 3, (i + 2) % 3
        fields[:, 3 + i] = 1j * (kf[j] * coef[:, l] - kf[l] * coef[:, j])
    return fields


def _box_to_grid(
    lattice: TamedLattice, fields: np.ndarray, p1: np.ndarray, p2: np.ndarray
) -> np.ndarray:
    """Half-lattice fields (rows, F, L), held in p2 -> real grid values
    (rows, F, G, G*G) in p1, indexed (x, y, z): scatter into the retained box,
    then one 1-D synthesis per axis, kz and ky complex, kx real.  The stages
    alternate between the buffers: box p1, kz p2, ky p1, real/imag p2, grid p1."""
    m, g = lattice.modes, lattice.grid_size
    side, nx = 2 * m + 1, m + 1
    rows, nf = fields.shape[:2]
    a = _view(p1, (rows, nf, nx * side * side), complex)
    a.fill(0.0)
    a[..., lattice.box_idx] = fields
    a[..., lattice.conj_idx] = np.conj(fields[..., lattice.plane_rows])
    a = np.matmul(  # kz -> z
        a.reshape(rows, nf * nx * side, side),
        lattice.synthesis_yz,
        out=_view(p2, (rows, nf * nx * side, g), complex),
    )
    a = np.matmul(  # ky -> y
        lattice.synthesis_yz.T,
        a.reshape(rows, nf * nx, side, g),
        out=_view(p1, (rows, nf * nx, g, g), complex),
    ).reshape(rows, nf, nx, g * g)
    b = np.concatenate([a.real, a.imag], axis=2, out=_view(p2, (rows, nf, 2 * nx, g * g)))
    return np.matmul(lattice.synthesis_x, b, out=_view(p1, (rows, nf, g, g * g)))  # kx -> x


def _grid_to_box(
    lattice: TamedLattice, values: np.ndarray, p1: np.ndarray, p2: np.ndarray
) -> np.ndarray:
    """Real grid values (rows, F, G, G*G), held in p2 -> half-lattice
    coefficients (rows, F, L): the conjugate passes of _box_to_grid, keeping
    only the box, through p1, p2, p1 and p2."""
    m, g = lattice.modes, lattice.grid_size
    side, nx = 2 * m + 1, m + 1
    rows, nf = values.shape[:2]
    # x -> kx: real and imaginary parts
    b = np.matmul(lattice.analysis_x, values, out=_view(p1, (rows, nf, 2 * nx, g * g)))
    c = _view(p2, (rows, nf, nx, g * g), complex)
    c.real = b[:, :, :nx]
    c.imag = b[:, :, nx:]
    c = np.matmul(  # y -> ky
        lattice.analysis_yz,
        c.reshape(rows, nf * nx, g, g),
        out=_view(p1, (rows, nf * nx, side, g), complex),
    )
    c = np.matmul(  # z -> kz
        c.reshape(rows, nf * nx * side, g),
        lattice.analysis_yz.T,
        out=_view(p2, (rows, nf * nx * side, side), complex),
    )
    return c.reshape(rows, nf, -1)[..., lattice.box_idx]


def _nonlinear_hat(
    lattice: TamedLattice,
    spec: TamedSpec,
    uh: np.ndarray,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Coefficients (rows, L, 3) of (u.grad)u + g_N(|u|^2)u up to a gradient,
    pseudo-spectral, with the convection in rotational form.

    (u.grad)u = omega x u + grad(|u|^2 / 2), omega = curl u, holds pointwise on
    the grid values.  |u|^2 has modes up to 2*modes, and on the 2(2*modes+1)
    grid none of them aliases onto a retained mode, so the gradient's retained
    coefficients i k (|u|^2/2)^_k are exact, parallel to k, and dropped by the
    polarization projection of state_from_uhat.  So uh (rows, L, 3) goes to
    the grid with its vorticity i k x uh, 6 fields rather than the 12 of u and
    grad u, through the box synthesis; omega x u plus the taming term, which
    reads the same grid values of u, is formed pointwise and comes back
    through the box analysis.  work is the (p1, p2) scratch of _workspace for
    at least uh's rows, allocated here when absent; the result never views it.
    """
    rows, g = uh.shape[0], lattice.grid_size
    p1, p2 = _workspace(lattice, rows) if work is None else work
    grid = _box_to_grid(lattice, _velocity_and_vorticity(lattice, uh, p2), p1, p2)
    u, omega = grid[:, :3], grid[:, 3:]
    w = _view(p2, (rows, _P2, g, g * g))
    r, t, prod = w[:, 0], w[:, 1], w[:, 2:]
    np.multiply(u[:, 0], u[:, 0], out=r)
    for i in (1, 2):
        r += np.multiply(u[:, i], u[:, i], out=t)
    np.multiply(_taming_g_into(r, t, prod[:, 0], spec)[:, None], u, out=prod)
    for i in range(3):  # cyclic (i, j, l): (omega x u)_i = omega_j u_l - omega_l u_j
        j, l = (i + 1) % 3, (i + 2) % 3
        prod[:, i] += np.multiply(omega[:, j], u[:, l], out=t)
        prod[:, i] -= np.multiply(omega[:, l], u[:, j], out=t)
    return np.moveaxis(_grid_to_box(lattice, prod, p1, p2), -2, -1)


def _nonstiff_block(
    lattice: TamedLattice, spec: TamedSpec, state: np.ndarray, work: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """N(u) = -P((u.grad)u + g_N(|u|^2)u) for one row block; state_from_uhat is P."""
    uh = uhat_from_state(lattice, state)
    return state_from_uhat(lattice, -_nonlinear_hat(lattice, spec, uh, work))


def _row_scratch_bytes(lattice: TamedLattice) -> int:
    """Scratch per row of _nonlinear_hat: the _P1 + _P2 grid fields of its
    workspace."""
    return (_P1 + _P2) * lattice.grid_size**3 * 8


def _chunk_rows(lattice: TamedLattice) -> int:
    return max(1, _CHUNK_BYTES // _row_scratch_bytes(lattice))


def _chunked(lattice: TamedLattice, spec: TamedSpec, state: np.ndarray) -> np.ndarray:
    """N(u) for states of any leading shape, in blocks of _chunk_rows rows
    that share one workspace, allocated once per call."""
    state = np.asarray(state, dtype=float)
    flat = state.reshape(-1, state.shape[-1])
    out = np.empty_like(flat)
    rows = _chunk_rows(lattice)
    work = _workspace(lattice, min(rows, flat.shape[0]))
    for lo in range(0, flat.shape[0], rows):
        out[lo : lo + rows] = _nonstiff_block(lattice, spec, flat[lo : lo + rows], work)
    return out.reshape(state.shape)


def _stokes_symbol(lattice: TamedLattice, nu: float) -> np.ndarray:
    """s = -nu |k|^2 per storage coordinate: the Stokes term, diagonal."""
    return -nu * np.repeat(lattice.ksq, 4)


def tamed_drift(lattice: TamedLattice, spec: TamedSpec, state: np.ndarray) -> np.ndarray:
    """Functional coefficients <A(u), psi_i> = (1+|k|^2) (s u + N(u)): the
    recombined Lawson split, Stokes symbol s and nonlinearity N."""
    state = np.asarray(state, dtype=float)
    rhs = _chunked(lattice, spec, state)
    rhs += _stokes_symbol(lattice, spec.nu) * state
    rhs *= np.repeat(1.0 + lattice.ksq, 4)
    return rhs


def h1_space(lattice: TamedLattice) -> SpaceSpec:
    """H = H^1 and V = H^2 on the lattice's storage coordinates."""
    ksq = np.repeat(lattice.ksq, 4)
    return SpaceSpec(
        h_weights=1.0 + ksq,
        v_weights=(1.0 + ksq) ** 2,
        wavenumbers=np.sqrt(ksq),
    )


def make_tamed_nse(
    modes: int = 4,
    nu: float = 1.0,
    taming_n: float = 1.0,
    mu: float = 0.05,
    lam: float = 0.0,
    noise_modes: int = 12,
    q_decay: float = 2.0,
    x0_radius: float = 0.8,
) -> ModelBundle:
    spec = TamedSpec(nu=nu, taming_n=taming_n)
    lattice = build_lattice(modes)
    space = h1_space(lattice)
    noise = geometric_noise(noise_modes, mu, lam, q_decay)
    hsg = noise_growth_sq(space, noise)

    def drift(t, u):  # looks tamed_drift up per call, so a wrapper set on the module sees it
        return tamed_drift(lattice, spec, u)

    def nonstiff(t, u):
        return _chunked(lattice, spec, u)

    model = ModelSpec(
        name="tamed_nse",
        space=space,
        noise=noise,
        drift=drift,
        alpha=2.0,
        beta=6.0,
        gamma=4.0,
        c=nu / 2.0,
        # c0 and growth_c measured on the audit sampling envelope (H^1 radii
        # up to 4): needed C0 stays below 0, growth constant below 0.8;
        # frozen with generous headroom
        c0=8.0 + hsg,
        growth_c=2.0,
        noise_lip_sq=noise_lip_sq(noise),
        mono_scale=2.0,
        linear_symbol=_stokes_symbol(lattice, nu),
        nonstiff_drift=nonstiff,
    )
    return ModelBundle(model=model, x0=decay_profile_x0(space, x0_radius))
