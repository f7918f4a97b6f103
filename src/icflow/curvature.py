"""Admissible curvature functions of the principal curvatures.

Three families are provided, each symmetric, positively 1-homogeneous,
monotone and concave on its cone, and normalized so that F(1, ..., 1) = n:

    mean          F = sum kappa_i                        on  Gamma_1
    sigma_k_root  F = n (sigma_k / C(n,k))^(1/k)         on  Gamma_k
    quotient      F = (n k / (n-k+1)) sigma_k/sigma_k-1  on  Gamma_k

where sigma_k is the k-th elementary symmetric polynomial and Gamma_k is
the Garding cone {sigma_1 > 0, ..., sigma_k > 0}, the connected component
of {sigma_k > 0} containing the positive cone. The normalization constants
are the unique ones compatible with 1-homogeneity.

Evaluation and gradients are vectorized over leading axes: kappa may have
shape (..., n). Admissibility has one test, `require_cone` on the sigma_j:
F and dF pass through it, and outside the cone it raises InadmissibleState
naming the point of least margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConfigError, InadmissibleState, is_integer

_EPS_DEN = 1e-300   # quotient denominator guard


@dataclass(frozen=True)
class CurvatureFunction:
    kind: str          # "mean" | "sigma_k_root" | "quotient"
    n: int
    k: int = 1

    def __post_init__(self):
        if self.kind not in ("mean", "sigma_k_root", "quotient"):
            raise ConfigError(f"unknown curvature function kind {self.kind!r}")
        if not (is_integer(self.n) and is_integer(self.k)):
            raise ConfigError(f"curvature function n and k must be integers, "
                              f"got n={self.n!r}, k={self.k!r}")
        if self.kind != "mean" and not (2 <= self.k <= self.n):
            raise ConfigError(f"order k={self.k} requires 2 <= k <= n={self.n}")

    @property
    def cone_order(self) -> int:
        """Highest sigma_j required positive for cone membership."""
        return 1 if self.kind == "mean" else self.k


_NAMED = {"mean": ("mean", 1), "sigma2root": ("sigma_k_root", 2), "quotient2": ("quotient", 2)}


def from_name(name: str, n: int) -> CurvatureFunction:
    """Config-facing constructor: mean, sigma2root or quotient2."""
    if not (isinstance(name, str) and name in _NAMED):
        raise ConfigError(f"unknown curvature function name {name!r}; expected one of {sorted(_NAMED)}")
    kind, k = _NAMED[name]
    return CurvatureFunction(kind=kind, n=n, k=k)


def elementary_symmetric(kappa: np.ndarray) -> np.ndarray:
    """All sigma_j(kappa), j = 0..n, along the last axis: shape (..., n+1)."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    e = np.empty(kappa.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    k0 = kappa[..., 0]
    if n == 1:
        e[..., 1] = k0
        return e
    # the first step, written in place: sigma_1 = kappa_0 + kappa_1 and
    # sigma_2 = kappa_1 kappa_0
    np.add(k0, kappa[..., 1], out=e[..., 1])
    np.multiply(kappa[..., 1], k0, out=e[..., 2])
    # adding kappa_i updates sigma_j += kappa_i sigma_j-1 in place, from
    # the top down; sigma_0 = 1 enters sigma_1 as kappa_i itself
    for i in range(2, n):
        ki = kappa[..., i]
        e[..., i + 1] = ki * e[..., i]
        for j in range(i, 1, -1):
            e[..., j] += ki * e[..., j - 1]
        e[..., 1] += ki
    return e


def _margin(f, e):
    """min_j sigma_j over the cone-defining inequalities, per point, from
    the sigma_j values e of elementary_symmetric; negative outside."""
    return e[..., 1:f.cone_order + 1].min(axis=-1)


def require_cone(f: CurvatureFunction, e, kappa, t=None):
    """The one cone test: e, the sigma_j of kappa, when every point lies in
    the cone of f (one minimum per sigma_j, which a NaN fails; sigma_1
    first, and the higher ones only for a cone order above 1). Otherwise
    raises InadmissibleState naming the point of least margin, its kappa
    and t. kappa is the array of principal curvatures, or a function of a
    point's index that returns them there, called only for a point outside
    the cone. The cone of the sigma_j of c kappa, c > 0, is the same, so e
    may be the sigma_j of a positive multiple of kappa."""
    order = f.cone_order
    if e[..., 1].min() > 0.0 and (
            order == 1 or all(e[..., j].min() > 0.0 for j in range(2, order + 1))):
        return e
    margin = _margin(f, e)
    idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(margin)), margin.shape))
    k = kappa(idx) if callable(kappa) else kappa[idx]
    where = "" if t is None else f" at t={t}"
    raise InadmissibleState(
        f"principal curvatures left the admissibility cone of {f.kind}{where}; "
        f"least margin at node {idx}, kappa={k.tolist()}",
        t=t, node=idx, kappa=k,
    )


def cone_contains(f: CurvatureFunction, kappa) -> np.ndarray:
    """Membership in Gamma(F), elementwise over leading axes."""
    return _margin(f, elementary_symmetric(kappa)) > 0.0


def _value(f, e):
    """F from the sigma_j values e of points on the cone; no cone test."""
    n = f.n
    if f.kind == "mean":
        return e[..., 1]
    if f.kind == "sigma_k_root":
        k = f.k
        return n * (e[..., k] / comb(n, k)) ** (1.0 / k)
    k = f.k
    den = np.maximum(e[..., k - 1], _EPS_DEN)
    return (n * k / (n - k + 1.0)) * e[..., k] / den


def _gradient(f, kappa, e):
    """dF/dkappa_i at points kappa on the cone, with e their sigma_j; no
    cone test."""
    n = f.n
    if f.kind == "mean":
        return np.ones_like(kappa)
    k = f.k
    # d[j] = sigma_j of kappa with entry i removed, shape (..., n), from
    # sigma_j(kappa\i) = sigma_j - kappa_i sigma_j-1(kappa\i); only the
    # rows j < k that dF reads are built
    d = [1.0]
    for j in range(1, k):
        d.append(e[..., j, None] - kappa * d[-1])
    if f.kind == "sigma_k_root":
        val = n * (e[..., k] / comb(n, k)) ** (1.0 / k)
        return (val / (k * e[..., k]))[..., None] * d[k - 1]
    c = n * k / (n - k + 1.0)
    skm1 = np.maximum(e[..., k - 1], _EPS_DEN)
    num = d[k - 1] * skm1[..., None] - e[..., k, None] * d[k - 2]
    return c * num / (skm1 * skm1)[..., None]


def f_eval(f: CurvatureFunction, kappa) -> np.ndarray:
    """F(kappa); raises InadmissibleState outside the cone."""
    kappa = np.asarray(kappa, dtype=float)
    return _value(f, require_cone(f, elementary_symmetric(kappa), kappa))


def f_grad(f: CurvatureFunction, kappa) -> np.ndarray:
    """Componentwise derivative dF/dkappa_i; all components positive on the
    cone and Euler's identity sum kappa_i dF/dkappa_i = F holds. Raises
    InadmissibleState outside the cone."""
    kappa = np.asarray(kappa, dtype=float)
    return _gradient(f, kappa, require_cone(f, elementary_symmetric(kappa), kappa))
