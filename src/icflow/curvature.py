"""Admissible curvature functions of the principal curvatures.

Three functions are provided, named as a config names them. Each is
symmetric, positively 1-homogeneous, monotone and concave on its cone, and
normalized so that F(1, ..., 1) = n, for any dimension n >= 2:

    mean        F = sigma_1                             on  Gamma_1
    sigma2root  F = n (sigma_2 / C(n,2))^(1/2)          on  Gamma_2
    quotient2   F = (2 n / (n-1)) sigma_2 / sigma_1     on  Gamma_2

where sigma_j is the j-th elementary symmetric polynomial and Gamma_j is
the Garding cone {sigma_1 > 0, ..., sigma_j > 0}, the connected component
of {sigma_j > 0} containing the positive cone. The normalization constants
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
_KINDS = ("mean", "sigma2root", "quotient2")


@dataclass(frozen=True)
class CurvatureFunction:
    kind: str          # "mean" | "sigma2root" | "quotient2"
    n: int

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _KINDS):
            raise ConfigError(f"unknown curvature function name {self.kind!r}; "
                              f"expected one of {sorted(_KINDS)}")
        if not (is_integer(self.n) and self.n >= 2):
            raise ConfigError(f"curvature function dimension must be an integer >= 2, "
                              f"got n={self.n!r}")

    @property
    def cone_order(self) -> int:
        """Highest sigma_j required positive for cone membership."""
        return 1 if self.kind == "mean" else 2


def from_name(name: str, n: int) -> CurvatureFunction:
    """Config-facing constructor: mean, sigma2root or quotient2 at dimension n."""
    return CurvatureFunction(name, n)


def elementary_symmetric(kappa: np.ndarray) -> np.ndarray:
    """All sigma_j(kappa), j = 0..n, along the last axis: shape (..., n+1)."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    e = np.empty(kappa.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    e[..., 1] = kappa[..., 0]
    # adding kappa_i updates sigma_j += kappa_i sigma_j-1 in place, from
    # the top down; sigma_0 = 1 enters sigma_1 as kappa_i itself
    for i in range(1, n):
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
    first, and sigma_2 only for a cone order of 2). Otherwise
    raises InadmissibleState naming the point of least margin, its kappa
    and t. kappa is the array of principal curvatures, or a function of a
    point's index that returns them there, called only for a point outside
    the cone. The cone of the sigma_j of c kappa, c > 0, is the same, so e
    may be the sigma_j of a positive multiple of kappa."""
    if e[..., 1].min() > 0.0 and (f.kind == "mean" or e[..., 2].min() > 0.0):
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
    if f.kind == "sigma2root":
        return n * (e[..., 2] / comb(n, 2)) ** 0.5
    den = np.maximum(e[..., 1], _EPS_DEN)
    return (2 * n / (n - 1.0)) * e[..., 2] / den


def _gradient(f, kappa, e):
    """dF/dkappa_i at points kappa on the cone, with e their sigma_j; no
    cone test."""
    if f.kind == "mean":
        return np.ones_like(kappa)
    # sigma_1 of kappa with entry i removed, shape (..., n)
    d1 = e[..., 1, None] - kappa
    if f.kind == "sigma2root":
        return (_value(f, e) / (2 * e[..., 2]))[..., None] * d1
    n = f.n
    s1 = np.maximum(e[..., 1], _EPS_DEN)
    num = d1 * s1[..., None] - e[..., 2, None]
    return (2 * n / (n - 1.0)) * num / (s1 * s1)[..., None]


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
