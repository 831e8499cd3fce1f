"""Model coefficients: the degenerate nonlinearity, its smooth regularization,
source/noise/drift presets and the exponential growth bound.

The conserved quantity is v = beta(c) with beta(c) = c**(1/m) for an exponent
m > 1: beta' blows up at c = 0 while its reciprocal 1/beta' = m*c**(1-1/m)
vanishes there, which is the degeneracy everything else has to live with.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

# Every coefficient callable below takes ``out=None``.  Given ``out`` (a
# float64 array of the arguments' broadcast shape, sharing no memory with
# them) it writes its value there with the same ufuncs in the same order as
# without, so both results agree bit for bit, and returns ``out``.  Scalar
# arguments without ``out`` keep numpy scalar arithmetic and return scalars.
# A ``_coefficient`` wraps one in-place core, ``core(*args, out, tmp)``, with
# its scratch ``tmp`` passed in: a stepping workspace (``simulate.StepBuffers``)
# binds the cores to scratch of its own, other callers get a thread-local one.


def _coefficient(core):
    """Wrap ``core(*args, out, tmp)``, kept as ``fn.core``: in-place ufunc
    steps on float64 arrays, given an ``out`` array and scratch ``tmp`` like it,
    or arguments of one shape and ``out`` and ``tmp`` None (its first step
    then allocates the result, or makes a numpy scalar)."""

    @functools.wraps(core)
    def fn(*args, out=None):
        args = [np.asarray(a, dtype=np.float64) for a in args]
        if out is None:
            if len(args) == 1 or args[0].shape == args[1].shape:
                return core(*args, None, None)
            out = np.empty(np.broadcast_shapes(*(a.shape for a in args)))
        elif out.ndim == 0:
            # numpy scalar and array powers can differ in the last bit
            out[()] = core(*args, None, None)
            return out
        return core(*args, out, _scratch(out))

    fn.core = core
    return fn


def _inplace(x):
    """``out=`` for a ufunc that overwrites ``x``: ``x`` itself when it is an
    array, None when it is a numpy scalar."""
    return x if isinstance(x, np.ndarray) else None


_LOCAL = threading.local()


def _scratch(out):
    """Scratch shaped like ``out``.  One buffer per thread, kept for the
    thread's lifetime and grown to the largest size asked for."""
    buf = getattr(_LOCAL, "scratch", None)
    if buf is None or buf.size < out.size:
        buf = _LOCAL.scratch = np.empty(out.size)
    return buf[: out.size].reshape(out.shape)


def _full(x, value, out):
    """The constant ``value`` shaped like ``x``, in ``out`` when given."""
    if out is None:
        return np.full_like(np.asarray(x, dtype=np.float64), value)
    out[...] = value
    return out


@dataclass(frozen=True)
class BetaFamily:
    """The monotone nonlinearity c -> beta(c) with inverse and derivative data.

    ``recip_beta_prime`` is the reciprocal 1/beta', continuously extended by
    its limit at c = 0 (zero for the degenerate family, positive for the
    regularized one); ``beta_prime`` itself returns inf at the degenerate
    origin.
    """

    label: str
    m: float
    eps: float
    beta: Callable[[Array], Array]
    beta_prime: Callable[[Array], Array]
    beta_inv: Callable[[Array], Array]
    recip_beta_prime: Callable[[Array], Array]
    smooth: bool


def pme_beta(m: float) -> BetaFamily:
    """Degenerate porous-medium nonlinearity beta(c) = c**(1/m), m > 1."""
    if not m > 1.0:
        raise ValueError(f"exponent m must exceed 1, got {m}")
    inv_m = 1.0 / m

    @_coefficient
    def beta(c, out, tmp):
        r = np.maximum(c, 0.0, out=out)
        r **= inv_m
        return r

    @_coefficient
    def beta_prime(c, out, tmp):
        c = np.maximum(c, 0.0)
        with np.errstate(divide="ignore"):
            r = np.where(c > 0.0, inv_m * c ** (inv_m - 1.0), np.inf)
        if out is None:
            return r
        out[...] = r
        return out

    @_coefficient
    def beta_inv(v, out, tmp):
        r = np.maximum(v, 0.0, out=out)
        r **= m
        return r

    @_coefficient
    def recip(c, out, tmp):
        r = np.maximum(c, 0.0, out=out)
        r **= 1.0 - inv_m
        r *= m
        return r

    return BetaFamily(
        label=f"pme:{m:g}",
        m=m,
        eps=0.0,
        beta=beta,
        beta_prime=beta_prime,
        beta_inv=beta_inv,
        recip_beta_prime=recip,
        smooth=False,
    )


def regularize_beta(m: float, eps: float) -> BetaFamily:
    """Shifted-root regularization beta_eps(c) = (c + eps)**(1/m) - eps**(1/m).

    Smooth on the closed half line with bounded positive derivative;
    uniformly within eps**(1/m) of the degenerate family.
    """
    if not m > 1.0:
        raise ValueError(f"exponent m must exceed 1, got {m}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    inv_m = 1.0 / m
    shift = eps**inv_m

    @_coefficient
    def beta(c, out, tmp):
        r = np.maximum(c, 0.0, out=out)
        r += eps
        r **= inv_m
        r -= shift
        return r

    @_coefficient
    def beta_prime(c, out, tmp):
        r = np.maximum(c, 0.0, out=out)
        r += eps
        r **= inv_m - 1.0
        r *= inv_m
        return r

    @_coefficient
    def beta_inv(v, out, tmp):
        r = np.maximum(v, 0.0, out=out)
        r += shift
        r **= m
        r -= eps
        return r

    @_coefficient
    def recip(c, out, tmp):
        r = np.maximum(c, 0.0, out=out)
        r += eps
        r **= 1.0 - inv_m
        r *= m
        return r

    return BetaFamily(
        label=f"regularized:{m:g}:{eps:g}",
        m=m,
        eps=eps,
        beta=beta,
        beta_prime=beta_prime,
        beta_inv=beta_inv,
        recip_beta_prime=recip,
        smooth=True,
    )


def beta_gap(family: BetaFamily, c_max: float) -> float:
    """sup over [0, c_max] of |beta_eps - beta| against the degenerate family
    with the same exponent (zero for the degenerate family itself)."""
    if family.eps == 0.0:
        return 0.0
    degenerate = pme_beta(family.m)
    cs = np.linspace(0.0, c_max, 20001)
    return float(np.max(np.abs(family.beta(cs) - degenerate.beta(cs))))


# ---------------------------------------------------------------------------
# source, noise and drift presets


@dataclass(frozen=True)
class SourceTerm:
    """Reaction term f(c, y) with both partial derivatives.  ``reads_y`` is
    False only when ``fn`` never reads the value of y, so that c does not
    depend on the noise and an ensemble steps it once for all paths."""

    label: str
    fn: Callable[[Array, Array], Array]
    d_c: Callable[[Array, Array], Array]
    d_y: Callable[[Array, Array], Array]
    reads_y: bool = True


@dataclass(frozen=True)
class NoiseTerm:
    """Noise amplitude a(y) with derivative; a(0) = 0 keeps y nonnegative."""

    label: str
    fn: Callable[[Array], Array]
    deriv: Callable[[Array], Array]


@dataclass(frozen=True)
class DriftTerm:
    """SDE drift b(c, y) with both partial derivatives."""

    label: str
    fn: Callable[[Array, Array], Array]
    d_c: Callable[[Array, Array], Array]
    d_y: Callable[[Array, Array], Array]


def _zeros2(c, y, out=None):
    return _full(c, 0.0, out)


def _zeros1(y, out=None):
    return _full(y, 0.0, out)


_ZERO_SOURCE = SourceTerm("zero", _zeros2, _zeros2, _zeros2, reads_y=False)
_ZERO_NOISE = NoiseTerm("zero", _zeros1, _zeros1)
_ZERO_DRIFT = DriftTerm("zero", _zeros2, _zeros2, _zeros2)


def _preset_params(preset: str, params: dict | None, defaults: dict[str, float]) -> list[float]:
    """The parameters ``defaults`` declares for ``preset``, in its order, each
    as given in ``params`` or else its default; any other key is refused."""
    params = dict(params or {})
    values = [float(params.pop(key, default)) for key, default in defaults.items()]
    if params and not defaults:
        raise ValueError(f"{preset} preset takes no parameters, got {sorted(params)}")
    if params:
        raise ValueError(f"unknown {preset} parameters {sorted(params)}")
    return values


def preset_coefficients(name: str, params: dict | None = None):
    """Named coefficient fragment.

    ``zero`` fits any slot; ``logistic_f`` is a reaction term, ``linear_a``
    and ``saturating_a`` are noise amplitudes, ``coupling_b`` is a drift.
    Parameter signs that would break nonnegativity preservation are rejected.
    """
    if name == "zero":
        _preset_params(name, params, {})
        return _ZERO_SOURCE
    if name == "logistic_f":
        lam, cap, mu_y = _preset_params(name, params, {"lambda": 1.0, "K": 1.0, "mu_y": 0.0})
        if lam < 0.0 or cap <= 0.0 or mu_y < 0.0:
            raise ValueError("logistic_f needs lambda >= 0, K > 0, mu_y >= 0")

        def times_decay(r, y, tmp):
            # the factor exp(-mu_y * y) is exactly 1.0 when mu_y == 0
            if mu_y != 0.0:
                e = np.multiply(-mu_y, y, out=tmp)
                r *= np.exp(e, out=_inplace(e))
            return r

        @_coefficient
        def fn(c, y, out, tmp):
            r = np.multiply(lam, c, out=out)
            t = np.divide(c, cap, out=tmp)
            r *= np.subtract(1.0, t, out=_inplace(t))
            return times_decay(r, y, tmp)

        @_coefficient
        def d_c(c, y, out, tmp):
            r = np.multiply(2.0, c, out=out)
            r /= cap
            r = np.subtract(1.0, r, out=_inplace(r))
            r *= lam
            return times_decay(r, y, tmp)

        @_coefficient
        def d_y(c, y, out, tmp):
            r = fn.core(c, y, out, tmp)
            r *= -mu_y
            return r

        label = f"logistic_f(lambda={lam:g},K={cap:g},mu_y={mu_y:g})"
        return SourceTerm(label, fn, d_c, d_y, reads_y=mu_y != 0.0)
    if name == "linear_a":
        [sigma] = _preset_params(name, params, {"sigma": 0.5})

        @_coefficient
        def a(y, out, tmp):
            return np.multiply(sigma, y, out=out)

        def da(y, out=None):
            return _full(y, sigma, out)

        return NoiseTerm(f"linear_a(sigma={sigma:g})", a, da)
    if name == "saturating_a":
        [sigma] = _preset_params(name, params, {"sigma": 0.5})

        @_coefficient
        def a(y, out, tmp):
            r = np.multiply(sigma, y, out=out)
            r /= np.add(1.0, y, out=tmp)
            return r

        @_coefficient
        def da(y, out, tmp):
            r = np.add(1.0, y, out=out)
            r **= 2
            return np.divide(sigma, r, out=_inplace(r))

        return NoiseTerm(f"saturating_a(sigma={sigma:g})", a, da)
    if name == "coupling_b":
        kappa, rho = _preset_params(name, params, {"kappa": 1.0, "rho": 1.0})
        if kappa < 0.0 or rho < 0.0:
            raise ValueError("coupling_b needs kappa >= 0 and rho >= 0")

        @_coefficient
        def b(c, y, out, tmp):
            if out is None or c.shape == out.shape:
                r = np.multiply(kappa, c, out=out)
            else:
                # one c row for every path: kappa * c once, at the head of
                # tmp, then copied to every row, as a ufunc broadcasting it
                # would buffer
                r = out
                r[...] = np.multiply(kappa, c, out=tmp.reshape(-1)[: c.size].reshape(c.shape))
            r -= np.multiply(rho, y, out=tmp)
            return r

        def db_c(c, y, out=None):
            return _full(c, kappa, out)

        def db_y(c, y, out=None):
            return _full(y, -rho, out)

        return DriftTerm(f"coupling_b(kappa={kappa:g},rho={rho:g})", b, db_c, db_y)
    raise ValueError(f"unknown coefficient preset {name!r}")


def _as_source(term) -> SourceTerm:
    if isinstance(term, SourceTerm):
        return term
    raise TypeError(f"{term!r} is not usable as a reaction term")


def _as_noise(term) -> NoiseTerm:
    if isinstance(term, NoiseTerm):
        return term
    if isinstance(term, SourceTerm) and term.label == "zero":
        return _ZERO_NOISE
    raise TypeError(f"{term!r} is not usable as a noise amplitude")


def _as_drift(term) -> DriftTerm:
    if isinstance(term, DriftTerm):
        return term
    if isinstance(term, SourceTerm) and term.label == "zero":
        return _ZERO_DRIFT
    raise TypeError(f"{term!r} is not usable as a drift term")


@dataclass(frozen=True)
class CoefficientSet:
    """Full coefficient bundle for one model: nonlinearity, reaction, noise
    amplitude, and drift, with every derivative the variational equations
    need."""

    beta_family: BetaFamily
    source: SourceTerm = _ZERO_SOURCE
    noise: NoiseTerm = _ZERO_NOISE
    drift: DriftTerm = _ZERO_DRIFT

    # flat access for the stepping kernels
    @property
    def beta(self):
        return self.beta_family.beta

    @property
    def beta_inv(self):
        return self.beta_family.beta_inv

    @property
    def recip_beta_prime(self):
        return self.beta_family.recip_beta_prime

    @property
    def f(self):
        return self.source.fn

    @property
    def df_dc(self):
        return self.source.d_c

    @property
    def df_dy(self):
        return self.source.d_y

    @property
    def a(self):
        return self.noise.fn

    @property
    def a_prime(self):
        return self.noise.deriv

    @property
    def b(self):
        return self.drift.fn

    @property
    def db_dc(self):
        return self.drift.d_c

    @property
    def db_dy(self):
        return self.drift.d_y

    def with_beta(self, family: BetaFamily) -> "CoefficientSet":
        return CoefficientSet(family, self.source, self.noise, self.drift)


def make_coefficients(beta_family: BetaFamily, f=None, a=None, b=None) -> CoefficientSet:
    """Assemble a coefficient set from a nonlinearity and optional fragments."""
    return CoefficientSet(
        beta_family,
        _as_source(f) if f is not None else _ZERO_SOURCE,
        _as_noise(a) if a is not None else _ZERO_NOISE,
        _as_drift(b) if b is not None else _ZERO_DRIFT,
    )


# ---------------------------------------------------------------------------
# growth bound


def r2_bound(T: float, R0: float, beta_family: BetaFamily) -> float:
    """Exponential-in-time sup bound: beta_inv(exp(T*R0)*(beta(R0)+1) - 1).

    Monotone in both arguments and equal to R0 at T = 0.
    """
    if T < 0.0 or R0 < 0.0:
        raise ValueError("r2_bound needs T >= 0 and R0 >= 0")
    inner = math.exp(T * R0) * (float(beta_family.beta(np.float64(R0))) + 1.0) - 1.0
    return float(beta_family.beta_inv(np.float64(inner)))


# ---------------------------------------------------------------------------
# initial data


def barenblatt_profile(x: Array, t: float, m: float, mass: float) -> Array:
    """Self-similar source-type solution of u_t = (u**m)_xx on the line,
    centered at 1/2: u(x, t) = t**(-al) * max(C - k*(x-1/2)**2 * t**(-2*al), 0)**(1/(m-1))
    with al = 1/(m+1) and k = al*(m-1)/(2*m)."""
    if not m > 1.0:
        raise ValueError("barenblatt profile needs m > 1")
    if t <= 0.0:
        raise ValueError("barenblatt profile needs t > 0")
    al = 1.0 / (m + 1.0)
    k = al * (m - 1.0) / (2.0 * m)
    x = np.asarray(x, dtype=np.float64)
    core = mass - k * (x - 0.5) ** 2 * t ** (-2.0 * al)
    return t ** (-al) * np.maximum(core, 0.0) ** (1.0 / (m - 1.0))


def barenblatt_support_radius(t: float, m: float, mass: float) -> float:
    al = 1.0 / (m + 1.0)
    k = al * (m - 1.0) / (2.0 * m)
    return math.sqrt(mass / k) * t**al


def initial_preset(name: str, dim: int, params: dict | None = None) -> Callable[[Array], Array]:
    """Named initial-data function on the closed cube; takes (..., dim) points."""
    if name == "constant":
        [value] = _preset_params(name, params, {"value": 0.0})
        if value < 0.0:
            raise ValueError("constant initial data must be nonnegative")
        return lambda x: np.full(x.shape[:-1], value)
    if name == "sine":
        [amp] = _preset_params(name, params, {"amplitude": 0.5})
        if amp < 0.0:
            raise ValueError("sine amplitude must be nonnegative")

        def sine(x):
            out = np.full(x.shape[:-1], amp)
            for k in range(dim):
                out = out * np.sin(np.pi * x[..., k])
            return out

        return sine
    if name == "cosine":
        offset, amp = _preset_params(name, params, {"offset": 1.0, "amplitude": 0.5})
        if offset < abs(amp):
            raise ValueError("cosine preset needs offset >= |amplitude| to stay nonnegative")

        def cosine(x):
            out = np.full(x.shape[:-1], amp)
            for k in range(dim):
                out = out * np.cos(np.pi * x[..., k])
            return offset + out

        return cosine
    if name == "bump":
        [amp] = _preset_params(name, params, {"amplitude": 0.5})
        if amp < 0.0:
            raise ValueError("bump amplitude must be nonnegative")

        def bump(x):
            out = np.full(x.shape[:-1], amp)
            for k in range(dim):
                s = 2.0 * x[..., k] - 1.0
                with np.errstate(divide="ignore", over="ignore"):
                    core = np.where(np.abs(s) < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - s**2, 1e-300)), 0.0)
                out = out * core
            return out

        return bump
    if name == "barenblatt":
        if dim != 1:
            raise ValueError("barenblatt initial data is one-dimensional")
        m, t0, mass = _preset_params(name, params, {"m": 2.0, "t0": 0.05, "mass": 0.05})

        def bb(x):
            u = barenblatt_profile(x[..., 0], t0, m, mass)
            return u**m  # initial data for c, whose beta-image is the profile

        return bb
    raise ValueError(f"unknown initial-data preset {name!r}")
