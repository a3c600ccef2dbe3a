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

with nonlinear terms evaluated pseudo-spectrally on a 2(2*modes+1)^3 grid —
wider than 2/3-rule dealiasing needs, so quadratic products are exactly
alias-free on the retained modes.  Grid fields are real, so the transforms
work on the half spectrum kx >= 0: u and its three derivatives i k_d u go to
the grid in one batched inverse real FFT, and the nonlinear products come
back in one forward real FFT.
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
    "VelocityField3D",
    "build_lattice",
    "leray_project",
    "taming_g",
    "tamed_drift",
    "h1_space",
    "make_tamed_nse",
]

# The drift runs in row chunks whose transform scratch (_row_scratch_bytes
# per row, at least one row) fits in this budget.  On a 2-core x86 host,
# budgets of 2-16 MB ran equally fast and 64 MB about 20 % slower.
_CHUNK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class TamedSpec:
    nu: float
    taming_n: float
    modes: int

    def __post_init__(self):
        if not self.nu > 0:
            raise ConfigurationError("viscosity nu must be positive")
        if not self.taming_n > 0:
            raise ConfigurationError("taming threshold must be positive")
        # modes = lattice radius: wavevectors 0 < |k|_inf <= modes are retained
        if self.modes < 4:
            raise ConfigurationError("tamed model needs at least 4 modes per dimension")
        if self.modes > 8:
            raise UnsupportedParameterError("resolution ceiling is 8 modes per dimension")


@dataclass(frozen=True, eq=False)
class TamedLattice:
    """Half-lattice bookkeeping for divergence-free spectral velocity fields."""

    modes: int
    kvecs: np.ndarray  # (L, 3) int, sorted by (|k|^2, kx, ky, kz)
    ksq: np.ndarray  # (L,)
    pol1: np.ndarray  # (L, 3) unit, perpendicular to k
    pol2: np.ndarray  # (L, 3) unit, perpendicular to k and pol1
    grid_size: int  # points per dimension
    half_idx: np.ndarray  # (L,) flat index of k in the (kz, ky, kx >= 0) half cube
    plane_rows: np.ndarray  # rows of the kx = 0 modes
    plane_neg_idx: np.ndarray  # flat half-cube index of -k for those rows

    @property
    def n_half(self) -> int:
        return self.kvecs.shape[0]

    @property
    def n_coeffs(self) -> int:
        return 4 * self.n_half


def build_lattice(modes: int = 4) -> TamedLattice:
    TamedSpec(nu=1.0, taming_n=1.0, modes=modes)  # reuse the range validation
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
    # stored k have kx >= 0, so each sits in the half cube; the kx = 0 plane
    # also needs the conjugate at -k, which no stored row supplies
    hx = grid // 2 + 1
    strides = np.array([1, hx, grid * hx])  # (kx, ky, kz)
    plane = np.flatnonzero(kvecs[:, 0] == 0)
    return TamedLattice(
        modes=modes,
        kvecs=kvecs,
        ksq=ksq,
        pol1=p1,
        pol2=p2,
        grid_size=grid,
        half_idx=(kvecs % grid) @ strides,
        plane_rows=plane,
        plane_neg_idx=((-kvecs[plane]) % grid) @ strides,
    )


@dataclass(frozen=True, eq=False)
class VelocityField3D:
    """Half-lattice complex velocity coefficients; conjugate symmetry is
    structural (only one of {k, -k} is stored) and divergence-freeness is
    validated on construction."""

    uhat: np.ndarray  # (L, 3) complex
    lattice: TamedLattice

    def __post_init__(self):
        uh = np.asarray(self.uhat, dtype=complex)
        if uh.shape != (self.lattice.n_half, 3):
            raise ConfigurationError(
                f"expected coefficients of shape {(self.lattice.n_half, 3)}, got {uh.shape}"
            )
        div = np.abs(np.einsum("lc,lc->l", uh, self.lattice.kvecs.astype(complex)))
        if np.any(div > 1e-12 * (1.0 + np.abs(uh).max())):
            raise ConfigurationError("velocity coefficients are not divergence-free")
        object.__setattr__(self, "uhat", uh)


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
    s = arr - spec.taming_n
    bridge = (2.0 - s) * s * s / spec.nu  # products: libm pow is far slower
    out = np.where(s <= 0.0, 0.0, np.where(s >= 1.0, s / spec.nu, bridge))
    return float(out) if np.isscalar(r) else out


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


def _nonlinear_hat(lattice: TamedLattice, spec: TamedSpec, uh: np.ndarray) -> np.ndarray:
    """Leray-projected coefficients of (u.grad)u + g_N(|u|^2)u, pseudo-spectral.

    uh (rows, L, 3) is scattered with its three derivatives i k_d uh into one
    component-first half cube (rows, 4, 3, G, G, G//2+1) indexed (kz, ky, kx);
    one inverse real FFT gives u and grad u on the grid.
    """
    g = lattice.grid_size
    half = (g, g, g // 2 + 1)
    rows = uh.shape[0]
    coef = np.moveaxis(uh, -1, -2)  # (rows, 3, L)
    ik = 1j * lattice.kvecs.T.astype(float)  # (3, L)
    stack = np.stack([coef] + [ik[d] * coef for d in range(3)], axis=1)  # (rows, 4, 3, L)
    cube = np.zeros((rows, 4, 3, half[0] * half[1] * half[2]), dtype=complex)
    cube[..., lattice.half_idx] = stack
    cube[..., lattice.plane_neg_idx] = np.conj(stack[..., lattice.plane_rows])
    grid = np.fft.irfftn(
        cube.reshape((rows, 4, 3) + half), s=(g, g, g), axes=(-3, -2, -1), norm="forward"
    )
    del cube
    u = grid[:, 0]
    conv = u[:, 0:1] * grid[:, 1]
    conv += u[:, 1:2] * grid[:, 2]
    conv += u[:, 2:3] * grid[:, 3]
    speed_sq = np.sum(u * u, axis=1)
    conv += taming_g(speed_sq, spec)[:, None] * u
    out = np.fft.rfftn(conv, axes=(-3, -2, -1), norm="forward")
    out = out.reshape(rows, 3, -1)[..., lattice.half_idx]
    return leray_project(lattice, np.moveaxis(out, -2, -1))


def _drift_state_block(lattice: TamedLattice, spec: TamedSpec, state: np.ndarray) -> np.ndarray:
    """PDE right-hand side in storage coordinates for one row block."""
    uh = uhat_from_state(lattice, state)
    rhs = -spec.nu * lattice.ksq[:, None] * uh - _nonlinear_hat(lattice, spec, uh)
    return state_from_uhat(lattice, rhs)


def _nonstiff_block(lattice: TamedLattice, spec: TamedSpec, state: np.ndarray) -> np.ndarray:
    """Right-hand side minus the diagonal Stokes part (for the Lawson move)."""
    uh = uhat_from_state(lattice, state)
    return state_from_uhat(lattice, -_nonlinear_hat(lattice, spec, uh))


def _row_scratch_bytes(lattice: TamedLattice) -> int:
    """Peak scratch per row of _nonlinear_hat, for 12 stacked fields (u and
    its three derivatives, three components each): their half-lattice
    coefficients, their half cube, and the two complex axis passes of the
    inverse FFT, which are alive together.  What follows holds less."""
    g = lattice.grid_size
    half_cube = g * g * (g // 2 + 1) * 16
    return 12 * (lattice.n_half * 16 + 3 * half_cube)


def _chunk_rows(lattice: TamedLattice) -> int:
    return max(1, _CHUNK_BYTES // _row_scratch_bytes(lattice))


def _chunked(fn, lattice: TamedLattice, spec: TamedSpec, state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    if state.ndim == 1:
        return fn(lattice, spec, state[None, :])[0]
    lead = state.shape[:-1]
    flat = state.reshape(-1, state.shape[-1])
    rows = _chunk_rows(lattice)
    if flat.shape[0] <= rows:
        return fn(lattice, spec, flat).reshape(lead + (state.shape[-1],))
    parts = [fn(lattice, spec, flat[lo : lo + rows]) for lo in range(0, flat.shape[0], rows)]
    return np.concatenate(parts, axis=0).reshape(lead + (state.shape[-1],))


def tamed_drift(lattice: TamedLattice, spec: TamedSpec, state: np.ndarray) -> np.ndarray:
    """Functional coefficients <A(u), psi_i> = (1+|k|^2) * (PDE rhs storage)."""
    rhs = _chunked(_drift_state_block, lattice, spec, state)
    return np.repeat(1.0 + lattice.ksq, 4) * rhs


def h1_space(modes: int = 4) -> SpaceSpec:
    lattice = build_lattice(modes)
    ksq = np.repeat(lattice.ksq, 4)
    return SpaceSpec(
        label=f"tamed_nse_{modes}",
        dimension=3,
        modes=modes,
        h_weights=1.0 + ksq,
        v_weights=(1.0 + ksq) ** 2,
        alpha=2.0,
        wavenumbers=np.repeat(np.sqrt(lattice.ksq), 4),
        transform=lattice,
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
    spec = TamedSpec(nu=nu, taming_n=taming_n, modes=modes)
    space = h1_space(modes)
    lattice: TamedLattice = space.transform
    if noise_modes > space.n_coeffs:
        raise ConfigurationError("noise_modes cannot exceed the coefficient count")
    noise = geometric_noise(noise_modes, mu, lam, q_decay)
    hsg = noise_growth_sq(space, noise)

    def drift(t, u, _lat=lattice, _spec=spec):
        return tamed_drift(_lat, _spec, u)

    def nonstiff(t, u, _lat=lattice, _spec=spec):
        return _chunked(_nonstiff_block, _lat, _spec, u)

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
        linear_symbol=-nu * np.repeat(lattice.ksq, 4),
        nonstiff_drift=nonstiff,
    )
    return ModelBundle(model=model, x0=decay_profile_x0(space, x0_radius))
