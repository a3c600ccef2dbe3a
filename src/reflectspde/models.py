"""Concrete SPDE models in coefficient form.

Conventions
-----------
Drift handles map (t, state) to *functional* coefficients
``a_i = <A(t,u), psi_i>`` (the V*-V pairing against the storage basis), so
the duality pairing with a state v is the plain contraction sum(a * v).  On
unit-weight spaces the functional coefficients coincide with the state-space
right-hand side; on weighted spaces the stepper divides by h_weights once.
All implemented operators are autonomous — t is carried for signature
fidelity and ignored.

The 1-D drifts are each declared once as a GridForm A(u) = s*u + D^T Pi
phi(Sigma D u): Allen-Cahn with s = -k^2, D = I, phi(g) = g - g^3, and the
p-Laplacian with D = d/dx, phi(g) = -|g|^(p-2) g and no s.  Drift, Lawson split,
V norm and H1 line profile read it.  Where phi is a polynomial (Allen-Cahn,
the p-Laplacian at p = 2, 4, 6) the form also declares its coefficients, and
the H1 line profile is then taken in closed form.  Tamed NSE declares its
drift once as its own split (see tamednse); the oracle is linear and declares
no split.

Noise is diagonal-affine on the first K storage coordinates:

    B(u) e_k = sqrt(q_k) * (mu + lam * s(u_k)),    s = clamp to [-1, 1],

which is globally Lipschitz and of linear growth in the Hilbert-Schmidt norm
whatever the weights are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, UnsupportedParameterError
from .fourier import TrigBasis1D, trig_basis
from .hilbert import SpaceSpec, norm_h, norm_v

__all__ = [
    "NoiseSpec",
    "ModelSpec",
    "ModelBundle",
    "geometric_noise",
    "apply_noise",
    "hs_norm_sq",
    "hs_diff_sq",
    "noise_lip_sq",
    "noise_growth_sq",
    "dual_pairing",
    "vstar_norm",
    "decay_profile_x0",
    "GridForm",
    "make_allen_cahn",
    "make_p_laplacian",
    "make_oracle_1d",
    "build_model",
    "REGISTRY",
]


# --------------------------------------------------------------------------
# noise


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Diagonal affine noise amplitudes on the first len(q) coordinates."""

    q: np.ndarray
    mu: float
    lam: float

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1 or q.size == 0:
            raise ConfigurationError("q must be a non-empty 1-D array")
        if not np.all(np.isfinite(q)) or np.any(q < 0):
            raise ConfigurationError("q weights must be finite and nonnegative")
        object.__setattr__(self, "q", q)
        # sqrt(q), which every amplitude evaluation reads, taken once
        object.__setattr__(self, "_root_q", np.sqrt(q))
        if not (np.isfinite(self.mu) and np.isfinite(self.lam)):
            raise ConfigurationError("mu and lam must be finite")

    @property
    def mode_count(self) -> int:
        return self.q.size


def geometric_noise(mode_count: int, mu: float, lam: float, decay: float = 2.0) -> NoiseSpec:
    """q_k = (1 + k)^(-decay), k = 0..mode_count-1."""
    if mode_count < 1:
        raise ConfigurationError("mode_count must be positive")
    with np.errstate(over="ignore"):  # an overflowing weight is inf, which NoiseSpec rejects
        q = (1.0 + np.arange(mode_count, dtype=float)) ** (-decay)
    return NoiseSpec(q=q, mu=float(mu), lam=float(lam))


def _amplitudes(noise: NoiseSpec, u: np.ndarray) -> np.ndarray:
    # the clamp s, as two ufuncs: np.clip's wrapper costs more on small rows
    head = np.minimum(np.maximum(u[..., : noise.mode_count], -1.0), 1.0)
    return noise._root_q * (noise.mu + noise.lam * head)


def apply_noise(
    noise: NoiseSpec, u: np.ndarray, dW: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """State increment B(u) dW for Brownian increments dW (..., K).

    With out, B(u) dW is added into the first K columns of out, which is
    returned; the other columns, which B(u) dW leaves at zero, are not read.
    """
    u = np.asarray(u, dtype=float)
    dW = np.asarray(dW, dtype=float)
    if dW.shape[-1] != noise.mode_count:
        raise ConfigurationError(
            f"noise increment needs {noise.mode_count} components, got {dW.shape[-1]}"
        )
    increment = _amplitudes(noise, u) * dW
    if out is None:
        out = np.zeros(np.broadcast_shapes(u.shape[:-1], dW.shape[:-1]) + (u.shape[-1],))
        out[..., : noise.mode_count] = increment
    else:
        out[..., : noise.mode_count] += increment
    return out


def _noise_weights(space: SpaceSpec, noise: NoiseSpec) -> np.ndarray:
    """The H weights of the coordinates the noise drives; the noise must fit the space."""
    if noise.mode_count > space.n_coeffs:
        raise ConfigurationError(
            f"noise drives {noise.mode_count} modes; the space has {space.n_coeffs} coefficients"
        )
    return space.h_weights[: noise.mode_count]


def hs_norm_sq(space: SpaceSpec, noise: NoiseSpec, u: np.ndarray) -> np.ndarray:
    """Squared Hilbert-Schmidt norm of B(u) as an operator into H."""
    w = _noise_weights(space, noise)
    amp = _amplitudes(noise, np.asarray(u, dtype=float))
    return np.sum(w * amp * amp, axis=-1)


def hs_diff_sq(space: SpaceSpec, noise: NoiseSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    w = _noise_weights(space, noise)
    da = _amplitudes(noise, np.asarray(u, dtype=float)) - _amplitudes(
        noise, np.asarray(v, dtype=float)
    )
    return np.sum(w * da * da, axis=-1)


# the declared constants are products of Python floats, which overflow to inf
# silently (** raises OverflowError, numpy warns); ModelSpec rejects an inf
def noise_lip_sq(noise: NoiseSpec) -> float:
    """C with ||B(u)-B(v)||_HS^2 <= C |u-v|_H^2 (the clamp is 1-Lipschitz)."""
    lam = float(noise.lam)
    return lam * lam * float(np.max(noise.q))


def noise_growth_sq(space: SpaceSpec, noise: NoiseSpec) -> float:
    """C with ||B(u)||_HS^2 <= C (1 + |u|_H^2)."""
    w = _noise_weights(space, noise)
    mu = float(noise.mu)
    return 2.0 * (mu * mu) * float(np.sum(w * noise.q)) + 2.0 * noise_lip_sq(noise)


# --------------------------------------------------------------------------
# duality helpers


def dual_pairing(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V*-V pairing of functional coefficients a with a state v."""
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    if a.shape[-1] != v.shape[-1]:
        raise ConfigurationError("dual pairing needs matching coefficient lengths")
    return np.sum(a * v, axis=-1)


def vstar_norm(space: SpaceSpec, a: np.ndarray) -> np.ndarray:
    """Exact dual norm of a functional when the V norm is quadratic."""
    if space.v_weights is None:
        raise ConfigurationError("exact dual norm needs a quadratic V norm")
    a = np.asarray(a, dtype=float)
    return np.sqrt(np.sum(a * a / space.v_weights, axis=-1))


# --------------------------------------------------------------------------
# grid form of the 1-D drifts


_PROFILE_STRIDE = 32  # centres of the polynomial line profile: every 32nd lam


@dataclass(frozen=True, eq=False)
class GridForm:
    """The drift A(u) = s*u + D^T Pi phi(Sigma D u) on a 1-D trig basis.

    Sigma = to_grid, Pi = to_coeffs, D = basis.deriv if derivative else I,
    phi acts pointwise, and s = symbol (None: no stiff diagonal).  poly, when
    phi is a polynomial, is its power coefficients a_0..a_d, declared next to
    phi: phi(g) = sum_k a_k g^k.
    """

    basis: TrigBasis1D
    phi: Callable[[np.ndarray], np.ndarray]
    symbol: np.ndarray | None = None
    derivative: bool = False
    poly: tuple[float, ...] | None = None

    def space(self, v_weights=None, v_norm_fn=None) -> SpaceSpec:
        """The unit-weight coefficient space on the form's basis, with its
        wavenumbers; exactly one of v_weights / v_norm_fn gives the V norm."""
        b = self.basis
        return SpaceSpec(np.ones(b.modes), v_weights, v_norm_fn, b.wavenumbers)

    def grid_values(self, u: np.ndarray) -> np.ndarray:
        """Sigma D u, the point values phi acts on."""
        u = np.asarray(u, dtype=float)
        return self.basis.to_grid(self.basis.differentiate(u) if self.derivative else u)

    def nonstiff(self, t: float, u: np.ndarray) -> np.ndarray:
        """D^T Pi phi(Sigma D u): the drift less its stiff diagonal."""
        a = self.basis.to_coeffs(self.phi(self.grid_values(u)))
        return a @ self.basis.deriv if self.derivative else a

    def drift(self, t: float, u: np.ndarray) -> np.ndarray:
        lin = 0.0 if self.symbol is None else self.symbol * np.asarray(u, dtype=float)
        return lin + self.nonstiff(t, u)

    def line_profile(
        self, u: np.ndarray, v: np.ndarray, x: np.ndarray, lam: np.ndarray
    ) -> np.ndarray:
        """<A(u + lam v), x> at each lam, without forming the states.

        Sigma D (u + lam v) = gu + lam gv, and <Pi F, y> = F . (Sigma y) / G
        on the G-point grid, so phi pairs with gx = Sigma D x.  When the form
        declares poly, the profile is a polynomial of degree d in lam: it is
        expanded about the centres lam[::32] and read by Horner in each lam's
        offset from its nearest centre, so phi acts on one row per centre and
        the work is O(d^2 G) per centre.  Otherwise phi acts at every lam.
        """
        gu, gv, gx = self.grid_values(np.stack([u, v, x]))
        if self.poly is None:
            f = np.empty(lam.shape)
            rows = max(1, 2**14 // gx.size)  # ~128 KB blocks; all 2049 rows at once ran 3x slower
            for i in range(0, lam.size, rows):
                f[i : i + rows] = self.phi(gu + lam[i : i + rows, None] * gv) @ gx
        else:
            f = self._centred_profile(gu, gv, gx, lam)
        f /= self.basis.grid_size
        if self.symbol is not None:
            f += dual_pairing(self.symbol * u, x) + lam * dual_pairing(self.symbol * v, x)
        return f

    def _centred_profile(self, gu, gv, gx, lam):
        """sum_j gx_j phi(gu_j + lam gv_j) at each lam, for polynomial phi.

        About a centre c, with gc = gu + c gv, the sum is sum_i T_i delta^i,
        delta = lam - c, where T_i = sum_j gx_j gv_j^i phi^(i)(gc_j) / i! and
        phi^(i)/i! = sum_k a_k C(k, i) g^(k-i).  T_0 reads phi itself.  Each
        lam takes its nearest centre, so |delta| <= 16 grid spacings: the
        expansion about 0 instead cancels badly, the terms T_i lam^i being
        far larger than their sum.
        """
        centres = lam[::_PROFILE_STRIDE]
        nearest = (np.arange(lam.size) + _PROFILE_STRIDE // 2) // _PROFILE_STRIDE
        reach = np.bincount(np.minimum(nearest, centres.size - 1), minlength=centres.size)
        gc = np.multiply.outer(centres, gv)
        gc += gu
        a = self.poly
        taylor = np.empty((len(a), centres.size))
        taylor[0] = self.phi(gc) @ gx
        weight = gx
        for i in range(1, len(a)):
            weight = weight * gv
            # phi^(i)(gc) / i! by Horner in gc
            deriv = np.full(gc.shape, a[-1] * math.comb(len(a) - 1, i))
            for k in range(len(a) - 2, i - 1, -1):
                deriv *= gc
                deriv += a[k] * math.comb(k, i)
            taylor[i] = deriv @ weight
        taylor = np.repeat(taylor, reach, axis=1)
        delta = lam - np.repeat(centres, reach)
        f = taylor[-1]
        for t_i in taylor[-2::-1]:
            f *= delta
            f += t_i
        return f


# --------------------------------------------------------------------------
# model container


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A drift/noise pair with its declared structural constants.

    alpha / beta / gamma are the coercivity, growth, and local-monotonicity
    exponents; c and c0 the declared energy-inequality constants; growth_c
    the declared dual-norm growth constant; mono_scale scales the weight
    rho(u) = mono_scale (1 + ||u||_V^alpha)(1 + |u|_H^gamma) (zero for
    globally monotone drifts).  linear_symbol, when present, is the diagonal
    of the stiff linear part in state coordinates and nonstiff_drift the
    remaining state-space right-hand side.  grid_form, when present, is the
    declaration the drift was built from.
    """

    name: str
    space: SpaceSpec
    noise: NoiseSpec
    drift: Callable[[float, np.ndarray], np.ndarray]
    alpha: float
    beta: float
    gamma: float
    c: float
    c0: float
    growth_c: float
    noise_lip_sq: float
    mono_scale: float = 0.0
    linear_symbol: np.ndarray | None = None
    nonstiff_drift: Callable[[float, np.ndarray], np.ndarray] | None = None
    grid_form: GridForm | None = None

    def __post_init__(self):
        if not (self.alpha > 1 and self.beta >= 0 and self.gamma >= 0):
            raise ConfigurationError("need alpha > 1, beta >= 0, gamma >= 0")
        for name in ("c0", "growth_c", "noise_lip_sq"):  # a huge parameter overflows them
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"declared constant {name} is not finite")
        if not (self.c > 0 and self.c0 >= 0):
            raise ConfigurationError("need c > 0 and c0 >= 0")
        if self.noise_lip_sq > self.c0 + 1e-12:
            raise ConfigurationError("noise Lipschitz constant exceeds declared c0")
        _noise_weights(self.space, self.noise)

    def state_rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        """Drift as a state-space increment rate: functional / h_weights."""
        return self.drift(t, u) / self.space.h_weights

    def rho(self, u: np.ndarray) -> np.ndarray:
        if self.mono_scale == 0.0:
            return np.zeros(np.asarray(u).shape[:-1])
        nv = norm_v(self.space, u)
        nh = norm_h(self.space, u)
        return self.mono_scale * (1.0 + nv**self.alpha) * (1.0 + nh**self.gamma)


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Model plus the initial state experiments start from."""

    model: ModelSpec
    x0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", self.model.space.check_coeffs(self.x0))

    @property
    def space(self) -> SpaceSpec:
        return self.model.space

    @property
    def noise(self) -> NoiseSpec:
        return self.model.noise


def decay_profile_x0(space: SpaceSpec, radius: float = 0.8) -> np.ndarray:
    """Deterministic low-mode profile (1+|k|)^(-2), rescaled to |x|_H = radius."""
    if not 0.0 <= radius <= 1.0:
        raise UnsupportedParameterError(f"x0_radius must lie in [0, 1], got {radius}")
    if space.wavenumbers is None:
        raise ConfigurationError("space has no wavenumber bookkeeping")
    c = (1.0 + np.abs(np.asarray(space.wavenumbers, dtype=float))) ** -2.0
    r = norm_h(space, c)
    return c * (radius / r)


# --------------------------------------------------------------------------
# Allen-Cahn: du = (Laplacian u + u - u^3) dt + B(u) dW on the torus


def _allen_cahn_phi(g: np.ndarray) -> np.ndarray:
    """g - g^3 in one output buffer, bitwise equal to g - g * g * g.

    The cube is a product because libm pow is ~20x slower.
    """
    c = g * g
    c *= g
    return np.subtract(g, c, out=c)


def make_allen_cahn(
    modes: int = 64,
    mu: float = 0.5,
    lam: float = 0.3,
    noise_modes: int = 8,
    q_decay: float = 2.0,
    x0_radius: float = 0.8,
) -> ModelBundle:
    if modes < 8:
        raise ConfigurationError("allen_cahn needs at least 8 modes for the cubic term")
    basis = trig_basis(modes, include_zero=True)
    k = basis.wavenumbers.astype(float)
    # the +u term rides in phi: Pi Sigma u = u on the alias-free grid
    form = GridForm(basis, phi=_allen_cahn_phi, symbol=-(k**2), poly=(0.0, 1.0, 0.0, -1.0))
    space = form.space(v_weights=1.0 + k**2)
    noise = geometric_noise(noise_modes, mu, lam, q_decay)
    hsg = noise_growth_sq(space, noise)
    model = ModelSpec(
        name="allen_cahn",
        space=space,
        noise=noise,
        drift=form.drift,
        alpha=2.0,
        beta=2.0,
        gamma=4.0,
        c=2.0,
        c0=4.0 + hsg,
        # sup of ||A(u)||_{V*}^2 / ((1+||u||_V^2)(1+|u|_H^2)) over the audit
        # sampling envelope (radii up to 4, 8..128 modes) peaks near 47 at the
        # coarsest resolution; frozen with ~2x headroom
        growth_c=100.0,
        noise_lip_sq=noise_lip_sq(noise),
        linear_symbol=form.symbol,
        nonstiff_drift=form.nonstiff,
        grid_form=form,
    )
    return ModelBundle(model=model, x0=decay_profile_x0(space, x0_radius))


# --------------------------------------------------------------------------
# p-Laplacian: du = div(|grad u|^{p-2} grad u) dt + B(u) dW, zero-mean torus


# the even p whose phi declares its polynomial, each tested against phi; at
# higher p the degree-(p-1) expansion is not, and the sampled profile stands
_POLY_P = (2.0, 4.0, 6.0)


def make_p_laplacian(
    modes: int = 64,
    p: float = 4.0,
    mu: float = 0.2,
    lam: float = 0.15,
    noise_modes: int = 8,
    q_decay: float = 2.0,
    x0_radius: float = 0.8,
) -> ModelBundle:
    if p < 2.0:
        raise UnsupportedParameterError("p-Laplacian requires p >= 2")
    if modes < 8 or modes % 2 != 0:
        raise ConfigurationError("p_laplacian needs an even mode count >= 8")
    basis = trig_basis(modes, include_zero=False)
    # <A(u), psi_i> = -int |u'|^{p-2} u' psi_i'; at even p, phi(g) = -g^(p-1)
    poly = (0.0,) * int(p - 1.0) + (-1.0,) if p in _POLY_P else None
    form = GridForm(
        basis, phi=lambda g: -(np.abs(g) ** (p - 2.0) * g), derivative=True, poly=poly
    )

    def v_norm(u):
        return np.mean(np.abs(form.grid_values(u)) ** p, axis=-1) ** (1.0 / p)

    space = form.space(v_norm_fn=v_norm)
    noise = geometric_noise(noise_modes, mu, lam, q_decay)
    hsg = noise_growth_sq(space, noise)
    model = ModelSpec(
        name="p_laplacian",
        space=space,
        noise=noise,
        drift=form.drift,
        alpha=float(p),
        beta=0.0,
        gamma=0.0,
        c=2.0,
        c0=1.0 + hsg,
        growth_c=2.0,
        noise_lip_sq=noise_lip_sq(noise),
        grid_form=form,
    )
    return ModelBundle(model=model, x0=decay_profile_x0(space, x0_radius))


# --------------------------------------------------------------------------
# scalar linear model with a closed-form penalized equilibrium


def make_oracle_1d(kappa: float = 0.5, sigma: float = 0.5) -> ModelBundle:
    kappa = float(kappa)
    space = SpaceSpec(h_weights=np.ones(1), v_weights=np.ones(1), wavenumbers=np.zeros(1))
    noise = NoiseSpec(q=np.ones(1), mu=float(sigma), lam=0.0)
    hsg = noise_growth_sq(space, noise)
    model = ModelSpec(
        name="oracle_1d",
        space=space,
        noise=noise,
        drift=lambda t, u: kappa * np.asarray(u, dtype=float),
        alpha=2.0,
        beta=0.0,
        gamma=0.0,
        c=1.0,
        c0=2.0 * abs(kappa) + 1.0 + hsg,
        growth_c=kappa * kappa + 1.0,
        noise_lip_sq=noise_lip_sq(noise),
    )
    return ModelBundle(model=model, x0=np.array([0.5]))


# --------------------------------------------------------------------------
# registry


# tamednse builds on the names above, so it is imported once they exist
from .tamednse import make_tamed_nse  # noqa: E402

# each builder registered as itself: its keywords are the model's parameters
REGISTRY: dict[str, Callable[..., ModelBundle]] = {
    "allen_cahn": make_allen_cahn,
    "p_laplacian": make_p_laplacian,
    "oracle_1d": make_oracle_1d,
    "tamed_nse": make_tamed_nse,
}


def build_model(name: str, **kwargs) -> ModelBundle:
    try:
        builder = REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown model {name!r}; available: {sorted(REGISTRY)}"
        ) from None
    return builder(**kwargs)
