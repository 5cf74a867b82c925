"""Construction of bosonic states in a truncated Fock basis.

All states live in the finite basis {|0>, ..., |dim-1>}.  Amplitude
patterns involving factorials are evaluated in log space through the
table :func:`log_factorials`, so field strengths up to |alpha|^2 ~ 40 at
dimensions of a few hundred stay well inside double-precision range.
After truncation every vector is renormalized; the discarded tail can be
inspected with :func:`tail_mass`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalInvariantError, ValidationError

__all__ = [
    "StateKind",
    "FockVector",
    "DensityMatrix",
    "InitialStateSpec",
    "LadderExpectations",
    "build_state",
    "density_from_pure",
    "first_refused_density",
    "ladder_expectations",
    "tail_mass",
]

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10


# Stirling-series coefficients of the cephes ``lgam`` routine
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def _log_factorial(k: int) -> float:
    """log k! by the steps of cephes ``lgam`` at x = k + 1.

    Same branches, constants and operation order in double precision, so
    the result equals ``scipy.special.gammaln(k + 1.0)`` bit for bit.
    """
    x = k + 1.0
    if x < 13.0:
        return math.log(math.factorial(k))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    poly = 0.0
    for c in _LGAM_A:
        poly = poly * p + c
    return q + poly / x


_log_factorial_table = np.zeros(0)


def log_factorials(n: int) -> np.ndarray:
    """Read-only array of log k! for k = 0, ..., n-1.

    One table, grown on demand and shared by every caller.
    """
    global _log_factorial_table
    if n > _log_factorial_table.size:
        table = np.array([_log_factorial(k) for k in range(n)])
        table.setflags(write=False)
        _log_factorial_table = table
    return _log_factorial_table[:n]


class StateKind(enum.Enum):
    """Supported initial-state families."""

    COHERENT = "coherent"
    PHOTON_ADDED = "photon_added"
    EVEN_COHERENT = "even_coherent"


def _as_locked_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FockVector:
    """Normalized pure state |psi> = sum_n C_n |n> in a truncated basis."""

    dim: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.dim,):
            raise ValidationError(
                f"amplitudes shape {amps.shape} does not match dim {self.dim}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValidationError("amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _NORM_TOL:
            raise NumericalInvariantError(
                f"state norm deviates from 1 by {abs(norm - 1.0):.3e}"
            )
        object.__setattr__(self, "amplitudes", _as_locked_array(amps, np.complex128))

    def probabilities(self) -> np.ndarray:
        """Photon-number distribution |C_n|^2."""
        return np.abs(self.amplitudes) ** 2


_NON_FINITE = "density matrix contains non-finite entries"


def _trace_error(dev: float) -> NumericalInvariantError:
    return NumericalInvariantError(f"trace deviates from 1 by {dev:.3e} (tol {_TRACE_TOL:.0e})")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace density matrix in the truncated Fock basis.

    Element ``elements[n, m]`` is <n|rho|m>.  Hermiticity and trace are
    enforced at construction so that downstream consumers never need to
    re-check them.
    """

    dim: int
    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        mat = np.asarray(self.elements, dtype=np.complex128)
        if mat.shape != (self.dim, self.dim):
            raise ValidationError(
                f"elements shape {mat.shape} does not match dim {self.dim}"
            )
        if not np.all(np.isfinite(mat)):
            raise ValidationError(_NON_FINITE)
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_dev > _HERM_TOL:
            raise NumericalInvariantError(
                f"hermiticity violated by {herm_dev:.3e} (tol {_HERM_TOL:.0e})"
            )
        trace_dev = abs(complex(np.trace(mat)) - 1.0)
        if trace_dev > _TRACE_TOL:
            raise _trace_error(trace_dev)
        object.__setattr__(self, "elements", _as_locked_array(mat, np.complex128))

    def trace(self) -> float:
        return float(np.trace(self.elements).real)

    def purity(self) -> float:
        """Tr rho^2, computed without forming the matrix product."""
        return float(np.sum(np.abs(self.elements) ** 2))


@dataclass(frozen=True)
class InitialStateSpec:
    """Parameters selecting one member of the supported state families.

    ``p`` is the number of added photons and only meaningful for
    ``StateKind.PHOTON_ADDED`` (where it must be >= 1).
    """

    kind: StateKind
    alpha: complex
    p: int = 0
    # the (|alpha|^2, delta) alpha was built from, which config_to_text writes:
    # recovering them from alpha rounds, e.g. |alpha|^2 = 5 to 5.000000000000001
    _polar: tuple[float, float] | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def _of_polar(
        cls, kind: StateKind, alpha_sq: float, delta: float, p: int = 0
    ) -> InitialStateSpec:
        """The spec with alpha = sqrt(alpha_sq) e^{i delta}, keeping the pair."""
        spec = cls(kind, math.sqrt(alpha_sq) * complex(math.cos(delta), math.sin(delta)), p)
        object.__setattr__(spec, "_polar", (alpha_sq, delta))
        return spec

    def __post_init__(self):
        if not isinstance(self.kind, StateKind):
            raise ValidationError(f"kind must be a StateKind, got {self.kind!r}")
        alpha = complex(self.alpha)
        if not (np.isfinite(alpha.real) and np.isfinite(alpha.imag)):
            raise ValidationError("alpha must be finite")
        object.__setattr__(self, "alpha", alpha)
        if self.kind is StateKind.PHOTON_ADDED:
            if not isinstance(self.p, (int, np.integer)) or self.p < 1:
                raise ValidationError(
                    f"photon-added states need integer p >= 1, got {self.p!r}"
                )
            object.__setattr__(self, "p", int(self.p))
        else:
            if self.p not in (0, None):
                raise ValidationError(
                    f"p is only meaningful for photon-added states, got p={self.p!r}"
                )
            object.__setattr__(self, "p", 0)

    def build(self, dim: int) -> FockVector:
        return build_state(self, dim)


class LadderExpectations(NamedTuple):
    """First few ladder-operator moments of a state: <a>, <a^2>, <N>."""

    a: complex
    a_squared: complex
    n: float


def build_state(spec: InitialStateSpec, dim: int) -> FockVector:
    """Build the truncated, renormalized state selected by ``spec``.

    One amplitude formula serves the three families.  With p added photons
    (p = 0 for the coherent and even families) and k = n - p, the amplitude
    of level n >= p is proportional to alpha^k sqrt(n!) / k!:

    * coherent: C_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!);
    * p-photon-added, a^dagger^p |alpha> normalized (Agarwal & Tara, PRA 43,
      492 (1991)); amplitudes below n = p vanish;
    * even coherent, (|alpha> + |-alpha>) normalized: the coherent pattern on
      the even n, with exactly zero odd amplitudes.

    Only relative weights are needed, since the truncated vector is
    renormalized numerically; they are taken in log space and shifted by
    their maximum, which keeps them in range even where the absolute
    normalization would overflow.  alpha = 0 gives the Fock state |p>.
    """
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    p = spec.p
    if p >= dim:
        raise ValidationError(f"p={p} needs dim > p, got dim={dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    if spec.alpha == 0:
        amps[p] = 1.0
        return FockVector(dim, amps)
    n = np.arange(p, dim, 2 if spec.kind is StateKind.EVEN_COHERENT else 1)
    k = n - p
    log_r = np.log(abs(spec.alpha))
    log_fact = log_factorials(dim)
    if p == 0:
        # the coherent form: the general one rounds differently, which moves catalog minima
        log_w = k * log_r - 0.5 * log_fact[n]
    else:
        log_w = k * log_r + 0.5 * log_fact[n] - log_fact[k]
    amps[n] = np.exp(log_w - np.max(log_w)) * np.exp(1j * np.angle(spec.alpha) * k)
    return FockVector(dim, amps / np.linalg.norm(amps))


def density_from_pure(state: FockVector) -> DensityMatrix:
    """Rank-one density matrix |psi><psi|."""
    amps = state.amplitudes
    return DensityMatrix(state.dim, np.outer(amps, amps.conj()))


def first_refused_density(
    finite: np.ndarray, trace: np.ndarray
) -> tuple[int, Exception | None]:
    """(k, error) for the first state of a batch that :class:`DensityMatrix`
    refuses, or (T, None) when it takes all T.

    ``finite`` says whether each state's entries are all finite, and
    ``trace`` holds each trace; the checks and their messages are those of
    :class:`DensityMatrix`, bar hermiticity, which a state assembled from
    its lower diagonals has by construction.
    """
    dev = np.abs(trace - 1.0)
    bad = ~finite | (dev > _TRACE_TOL)
    if not bad.any():
        return bad.size, None
    k = int(np.argmax(bad))
    if not finite[k]:
        return k, ValidationError(_NON_FINITE)
    return k, _trace_error(float(dev[k]))


def ladder_expectations(rho: DensityMatrix) -> LadderExpectations:
    """<a>, <a^2> and <N> directly from the density-matrix diagonals.

    <a>   = sum_n sqrt(n+1) rho_{n+1, n}
    <a^2> = sum_n sqrt((n+1)(n+2)) rho_{n+2, n}
    <N>   = sum_n n rho_{n, n}
    """
    a, a_squared, n = _ladder_moments(*(np.diagonal(rho.elements, -d) for d in range(3)))
    return LadderExpectations(a=complex(a), a_squared=complex(a_squared), n=float(n))


def _ladder_moments(
    x0: np.ndarray, x1: np.ndarray, x2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<a>, <a^2>, <N>) of :func:`ladder_expectations`, summed over the last
    axis of the diagonals x_d = rho_{n+d, n}, d = 0, 1, 2, so one value per
    state of a batch.  Empty diagonals (dim < 3) sum to 0.  Sweeps and
    single states share these sums, so their moments agree bit for bit."""
    n = np.arange(x0.shape[-1], dtype=np.float64)
    return (
        np.sum(np.sqrt(n[1:]) * x1, axis=-1),
        np.sum(np.sqrt(n[1:-1] * n[2:]) * x2, axis=-1),
        np.real(np.sum(n * x0, axis=-1)),
    )


def tail_mass(state: FockVector, start: int) -> float:
    """Probability carried by Fock levels n >= start.

    Used to judge whether a truncation dimension is adequate: a healthy
    simulation keeps the mass in the top few levels negligible.
    """
    if start < 0:
        raise ValidationError(f"start must be >= 0, got {start}")
    return float(np.sum(state.probabilities()[start:]))

