"""Exosystem description and p-copy internal model construction.

The reference and disturbance signals are generated by an autonomous
exosystem ``v(t+1) = S v(t)``; each agent's regulated error is
``e_i = C_i x_i + F v``.  Asymptotic regulation for every initial
``v(0)`` requires the controller to embed a model of ``S``.  The
minimal such model replicates, once per error channel, a companion
realization of the minimal polynomial of ``S``:

* ``beta`` -- ``d x d`` companion matrix of the minimal polynomial,
* ``sigma`` -- its ``d x 1`` controllable input column,
* ``g1 = I_p (x) beta``, ``g2 = I_p (x) sigma``.

Callers with a preferred realization (for instance reusing ``S`` itself
when it is cyclic) can pass ``beta_override``; the override is accepted
only if it has the right characteristic polynomial and the pair stays
controllable.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DimensionError
from .matrixops import (
    as_count,
    as_matrix,
    companion_pair,
    controllability_matrix,
    kron,
    minimal_polynomial,
    numeric_rank,
    on_unit_circle,
    require_square,
)

__all__ = ["Exosystem", "InternalModel", "build_internal_model", "char_poly"]


@dataclass(frozen=True, eq=False)
class Exosystem:
    """Autonomous signal generator ``v(t+1) = S v(t)`` with output map ``F``.

    Parameters
    ----------
    s : array_like
        ``q x q`` dynamics matrix.
    f : array_like
        ``p x q`` map, ``p >= 1``, from exosystem state to the error equation,
        ``e_i = C_i x_i + F v``.
    v0 : array_like, optional
        Initial exosystem state, finite; zeros when omitted.

    ``s`` and ``v0`` are read-only copies, so the cached start of
    :meth:`trajectory`, from which both simulators read ``v(t)``, cannot
    go stale.
    """

    s: np.ndarray
    f: np.ndarray
    v0: np.ndarray = None

    def __post_init__(self):
        s = require_square(as_matrix(self.s, "exosystem.s"), "exosystem.s")
        f = as_matrix(self.f, "exosystem.f")
        if f.shape[1] != s.shape[0]:
            raise DimensionError(
                f"exosystem.f: expected {f.shape[0]} x {s.shape[0]}, got {f.shape[0]} x {f.shape[1]}"
            )
        if f.shape[0] == 0:
            raise DimensionError("exosystem.f: needs at least one row, one per error channel; got 0")
        try:
            v0 = np.array(np.zeros(s.shape[0]) if self.v0 is None else self.v0, dtype=float).reshape(-1)
        except (TypeError, ValueError) as ex:
            raise DimensionError(f"exosystem.v0: cannot interpret input as a numeric vector ({ex})")
        if v0.size != s.shape[0]:
            raise DimensionError(f"exosystem.v0: expected length {s.shape[0]}, got {v0.size}")
        if not np.isfinite(v0).all():
            raise DimensionError("exosystem.v0: contains non-finite entries")
        s.flags.writeable = v0.flags.writeable = False
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "v0", v0)

    @property
    def q(self):
        return self.s.shape[0]

    @cached_property
    def _trajectory_head(self):
        """Read-only ``(v(0..63), S^64)`` behind :meth:`trajectory`, computed once per (frozen) exosystem."""
        v = np.empty((64, self.q))
        v[0] = self.v0
        for t in range(1, 64):
            v[t] = self.s @ v[t - 1]
        power = np.eye(self.q)
        for _ in range(64):
            power = self.s @ power
        v.flags.writeable = power.flags.writeable = False
        return v, power

    def trajectory(self, horizon):
        """``v(t)`` for ``t = 0..horizon-1`` as a fresh ``(horizon, q)`` array, in blocks of 64 rows.

        The first 64 rows, stepped one by one, ``v(t) = S v(t - 1)``, and
        ``P = S^64`` are cached per exosystem, so a call costs one product
        ``v[k:k+64] = v[k-64:k] P'`` per further block.  ``P`` is formed
        by 64 sequential products: on the reference rotation, repeated
        squaring left ``v(2000)`` 3.3e-14 from the stepped rows
        (sequential: 1.0e-14; 9.4e-14 at ``t = 20000``) and a 2000-step
        run 7.1e-13 from one on stepped rows (sequential: 1.7e-13).
        """
        horizon = as_count(horizon, "Exosystem.trajectory: horizon")
        head, power = self._trajectory_head
        v = np.empty((horizon, self.q))
        v[:64] = head[:horizon]
        for k in range(64, horizon, 64):
            np.matmul(v[k - 64 : min(k, horizon - 64)], power.T, out=v[k : k + 64])
        return v

    @property
    def p(self):
        return self.f.shape[0]

    def modes_on_unit_circle(self):
        """True if every eigenvalue of ``S`` has modulus within ``DEFAULT_RANK_TOL`` of 1."""
        return on_unit_circle(self.s)


@dataclass(frozen=True, eq=False)
class InternalModel:
    """Minimal p-copy internal model of an exosystem.

    Attributes
    ----------
    g1, g2 : ndarray
        Controller matrices ``I_p (x) beta`` and ``I_p (x) sigma``.
    beta, sigma : ndarray
        The per-channel companion pair.
    p : int
        Number of replicated error channels.
    """

    g1: np.ndarray
    g2: np.ndarray
    beta: np.ndarray
    sigma: np.ndarray
    p: int

    @property
    def degree(self):
        """Degree of the replicated polynomial (size of ``beta``)."""
        return self.beta.shape[0]

    @property
    def dim(self):
        """State dimension of the internal model, ``p * degree``."""
        return self.p * self.degree


def char_poly(m):
    """Characteristic polynomial of ``m`` as ascending non-leading coefficients."""
    m = require_square(np.asarray(m, dtype=float), "matrix")
    return np.poly(m)[1:][::-1].astype(float)


def build_internal_model(exo, beta_override=None):
    """Construct the minimal p-copy internal model for an exosystem.

    Parameters
    ----------
    exo : Exosystem
        The exosystem; its ``S`` fixes the replicated polynomial and its
        ``F`` the number of error channels ``p = exo.p``.  To model a bare
        ``S``, pass ``Exosystem(s=S, f=np.zeros((p, q)))``.
    beta_override : tuple of array_like, optional
        A pair ``(beta, sigma)`` replacing the companion realization.
        It must satisfy two checks, each reported separately on failure:
        the characteristic polynomial of ``beta`` must match the
        minimal polynomial of ``S`` coefficient-wise to ``1e-8``, and
        ``(beta, sigma)`` must be controllable.

    Returns
    -------
    InternalModel
    """
    p = exo.p
    min_coeffs = minimal_polynomial(exo.s)

    if beta_override is None:
        beta, sigma = companion_pair(min_coeffs)
    else:
        try:
            beta_raw, sigma_raw = beta_override
        except (TypeError, ValueError):
            raise ConfigurationError(
                "internal_model.beta_override: expected a (beta, sigma) pair"
            )
        beta = require_square(as_matrix(beta_raw, "beta_override.beta"), "beta_override.beta")
        sigma = as_matrix(sigma_raw, "beta_override.sigma")
        d = beta.shape[0]
        if sigma.shape != (d, 1):
            raise ConfigurationError(
                f"beta_override.sigma: expected shape ({d}, 1), got {sigma.shape}"
            )
        if d != min_coeffs.size:
            raise ConfigurationError(
                f"beta_override.beta: degree {d} does not match the minimal polynomial "
                f"degree {min_coeffs.size} of S"
            )
        beta_coeffs = char_poly(beta)
        dev = float(np.max(np.abs(beta_coeffs - min_coeffs)))
        if dev > 1e-8:
            raise ConfigurationError(
                "beta_override.beta: characteristic polynomial does not match the minimal "
                f"polynomial of S (max coefficient deviation {dev:.3e} > 1e-8)"
            )
        if numeric_rank(controllability_matrix(beta, sigma)) < d:
            raise ConfigurationError(
                "beta_override: the pair (beta, sigma) is not controllable"
            )

    g1 = kron(np.eye(p), beta)
    g2 = kron(np.eye(p), sigma)
    return InternalModel(g1=g1, g2=g2, beta=beta, sigma=sigma, p=p)
