"""Nonclassicality quantifiers extracted from optical tomograms.

Two scalar witnesses are computed along an evolution:

* nonclassical area: integral over theta of the quadrature spread
  Delta X_theta minus the coherent-state value sqrt(2) pi.  Zero for
  any coherent state, positive whenever some phase is squeezed or
  anti-squeezed.
* tomographic entropy sum: S(theta) + S(theta + pi/2) of the two
  conjugate quadrature distributions.  Over the whole real line it is
  bounded below by 1 + ln(pi); the excess over the bound tracks
  nonclassical interference structure.

The area has an analytic route through ladder-operator moments (exact
in the truncated basis, used for sweeps) and a tomographic route that
integrates the quadrature histograms (used to cross-check the tomogram
pipeline itself).  The entropy sum has only the tomographic route.

Every record is computed one way, by :func:`records_of_diagonals`,
which takes the coherence diagonals of a batch of T times and computes
the rows of all of them at once.  :func:`compute_record` is that
function at T = 1: a state gives the row a sweep gives it, with the
area to the last bit and the entropies to round-off (the tomogram's
matrix products round with T).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalInvariantError, ValidationError
from .states import DensityMatrix, _ladder_moments, first_refused_density, ladder_expectations
from .tomography import (
    Tomogram,
    check_tomograms,
    conjugate_thetas,
    suggested_grid,
    symmetric_grid,
    tomogram_of_density,
    tomograms_of_diagonals,
    uniform_thetas,
)

__all__ = [
    "ENTROPY_BOUND",
    "COHERENT_AREA_BASELINE",
    "QuantifierRecord",
    "nonclassical_area",
    "tomographic_entropy",
    "entropy_sum",
    "find_local_minima",
    "compute_record",
    "records_of_diagonals",
]

# S(theta) + S(theta + pi/2) >= 1 + ln(pi) for any quantum state
ENTROPY_BOUND = 1.0 + math.log(math.pi)

# integral of Delta X_theta over a period for a coherent state
COHERENT_AREA_BASELINE = math.sqrt(2.0) * math.pi

_ENTROPY_FLOOR = 1e-30


def _moment_mean_variance(a, a_squared, n, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of X_theta, shape (..., n_theta), from <a>, <a^2>
    and <N> given as scalars or as arrays over states.

    With X_theta = (a e^{-i theta} + a^dag e^{i theta}) / sqrt(2):
        <X_theta>   = sqrt(2) Re(e^{-i theta} <a>)
        <X_theta^2> = <N> + 1/2 + Re(e^{-2i theta} <a^2>)
    """
    phase = np.exp(-1j * thetas)
    mean = math.sqrt(2.0) * np.real(np.multiply.outer(a, phase))
    second = np.asarray(n + 0.5)[..., None] + np.real(np.multiply.outer(a_squared, phase * phase))
    return mean, second - mean**2


def _variance_error(bad: float) -> NumericalInvariantError:
    return NumericalInvariantError(
        f"non-positive quadrature variance {bad:.3e}; state is unphysical"
    )


def _area(var: np.ndarray) -> np.ndarray:
    """2 pi times the mean spread over the last (theta) axis, minus the coherent value."""
    return 2.0 * math.pi * np.mean(np.sqrt(var), axis=-1) - COHERENT_AREA_BASELINE


def _window(rho: DensityMatrix, x_window: tuple[float, int] | None) -> tuple[float, int]:
    """x_window = (x_max, n_x), n_x points on [-x_max, x_max], or the
    window that ``suggested_grid`` sizes from <N> when x_window is None."""
    if x_window is not None:
        return (x_window[0], int(x_window[1]))
    grid = suggested_grid(ladder_expectations(rho).n, (0.0,))
    return (grid.x_max, grid.n_x)


def nonclassical_area(
    rho: DensityMatrix,
    theta_count: int = 128,
    method: str = "analytic",
    x_window: tuple[float, int] | None = None,
) -> float:
    """integral_0^{2 pi} Delta X_theta d theta  -  sqrt(2) pi.

    The theta integral of the periodic integrand is evaluated as
    2*pi * mean over a uniform theta grid (the periodic trapezoid
    rule, spectrally accurate).  ``method`` selects where the spreads
    come from: "analytic" uses ladder moments; "tomographic" integrates
    tomogram slices on a window chosen from <N> unless ``x_window =
    (x_max, n_x)`` overrides it.
    """
    thetas = np.asarray(uniform_thetas(theta_count))
    if method == "analytic":
        _, var = _moment_mean_variance(*ladder_expectations(rho), thetas)
    elif method == "tomographic":
        tomo = tomogram_of_density(rho, symmetric_grid(*_window(rho, x_window), tuple(thetas)))
        x = tomo.grid.x
        m1 = np.trapezoid(tomo.values * x[None, :], x, axis=1)
        m2 = np.trapezoid(tomo.values * (x**2)[None, :], x, axis=1)
        var = m2 - m1**2
    else:
        raise ValidationError(f"method must be 'analytic' or 'tomographic', got {method!r}")
    bad = float(var.min())
    if bad <= 0.0:
        raise _variance_error(bad)
    return float(_area(var))


def _slice_entropy(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integral of -omega ln omega over the last (x) axis."""
    # x ln x -> 0: clip the log argument; the factor in front keeps
    # genuinely tiny densities from contributing
    safe = np.maximum(values, _ENTROPY_FLOOR)
    integrand = np.where(values > _ENTROPY_FLOOR, -values * np.log(safe), 0.0)
    return np.trapezoid(integrand, x, axis=-1)


def tomographic_entropy(tomo: Tomogram, theta_index: int) -> float:
    """Trapezoid integral of -omega ln omega over the grid of one slice (nats).

    This is the slice's differential entropy restricted to the grid's
    window: it falls short of the full-line entropy by the entropy of
    the tomogram outside the window.
    """
    return float(_slice_entropy(tomo.values[theta_index], tomo.grid.x))


def entropy_sum(
    rho: DensityMatrix,
    theta: float = 0.0,
    x_window: tuple[float, int] | None = None,
) -> float:
    """S(theta) + S(theta + pi/2), each the trapezoid integral of -omega ln
    omega over one slice of a two-slice tomogram, on ``x_window = (x_max,
    n_x)`` (n_x points on [-x_max, x_max]) or the window sized from <N>.

    The full-line sum is bounded below by ENTROPY_BOUND.  The windowed sum
    falls short of it by the entropy of the tails cut off, so it can dip
    below the bound on a tight window, which the ``off-grid`` RuntimeWarning
    of :func:`check_tomograms` flags.
    """
    thetas = tuple(sorted(conjugate_thetas(theta)))
    tomo = tomogram_of_density(rho, symmetric_grid(*_window(rho, x_window), thetas))
    return tomographic_entropy(tomo, 0) + tomographic_entropy(tomo, 1)


def find_local_minima(
    times: np.ndarray, values: np.ndarray, prominence: float = 1e-3
) -> list[float]:
    """Times of interior local minima with at least the given prominence.

    The rules of ``scipy.signal.find_peaks(-values, prominence=...)``: a
    minimum is a run of equal samples with higher neighbours on both sides,
    taken at its midpoint rounded down, so endpoints never count.  Its
    prominence is measured to the lower of the two highest samples met on
    each side before a lower one, with no window limit.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape or times.ndim != 1:
        raise ValidationError("times and values must be matching 1-D arrays")
    if not math.isfinite(prominence) or prominence <= 0:
        raise ValidationError(f"prominence must be > 0, got {prominence!r}")
    n = values.size
    # maximal runs of equal samples, from starts to ends inclusive
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    ends = np.append(starts[1:], n) - 1
    inner = (starts > 0) & (ends < n - 1)
    starts, ends = starts[inner], ends[inner]
    dip = (values[starts - 1] > values[starts]) & (values[ends + 1] > values[ends])
    hits = []
    for i in (starts[dip] + ends[dip]) // 2:
        lower = np.flatnonzero(~(values >= values[i]))  # a nan ends a side too
        lo = lower[lower < i].max(initial=-1) + 1
        hi = lower[lower > i].min(initial=n)
        if min(values[lo : i + 1].max(), values[i:hi].max()) - values[i] >= prominence:
            hits.append(float(times[i]))
    return hits


@dataclass(frozen=True)
class QuantifierRecord:
    """One CSV row of the quantifier sweep."""

    t: float
    t_over_trev: float
    nonclassical_area: float
    entropy_0: float
    entropy_90: float
    entropy_sum: float
    trace: float
    purity: float

    def as_row(self) -> tuple[float, ...]:
        return _ROW(self)


# the CSV columns, in field order
QuantifierRecord.FIELDS = tuple(f.name for f in fields(QuantifierRecord))
_ROW = operator.attrgetter(*QuantifierRecord.FIELDS)


def compute_record(
    rho: DensityMatrix,
    t: float,
    t_rev: float,
    theta_count: int = 128,
    x_window: tuple[float, int] | None = None,
) -> QuantifierRecord:
    """The record of one state: :func:`records_of_diagonals` at T = 1, on
    the given window (or the one sized from <N>)."""
    return records_of_diagonals(
        np.array([float(t)]),
        (rho.elements.diagonal(-d)[None] for d in range(rho.dim)),
        t_rev,
        theta_count,
        _window(rho, x_window),
    )[0]


def records_of_diagonals(
    times: np.ndarray,
    diagonals: Iterable[np.ndarray],
    t_rev: float,
    theta_count: int,
    x_window: tuple[float, int],
) -> list[QuantifierRecord]:
    """The quantifier records of T states given by their coherence diagonals.

    ``diagonals`` yields x_d = rho_{j+d, j} at ``times`` as (T, dim - d)
    arrays for d = 0, 1, ..., dim - 1, as
    :func:`~nltomo.evolve.coherence_diagonals` does.  One pass over them
    builds the two-slice tomograms (:func:`tomograms_of_diagonals`) and
    the moments: the trace and <N> from d = 0, <a> from d = 1, <a^2> from
    d = 2, and the purity sum_d c_d |x_d|^2 with c_0 = 1, c_d = 2.  The
    area (``theta_count`` phases) and the entropies at theta = 0 and pi/2
    (on ``x_window = (x_max, n_x)``) then follow for all T states at once.

    The states are checked one at a time: the density matrix (finite, trace
    within 1e-10 of 1), then a positive quadrature variance at every phase,
    then the tomogram (:func:`check_tomograms`).  The first failing check
    raises, after the ``off-grid`` warnings of the states before it.
    :func:`compute_record` is this function at T = 1.
    """
    T = times.size
    finite = np.ones(T, dtype=bool)
    purity = np.zeros(T)
    low = [np.zeros((T, 0), dtype=np.complex128)] * 3  # x_0, x_1, x_2; empty where d >= dim

    def tally(diagonals: Iterable[np.ndarray]):
        nonlocal finite, purity
        for d, x_d in enumerate(diagonals):
            finite = finite & np.isfinite(x_d).all(axis=1)
            # |x|^2 as re^2 + im^2, with no complex abs; on the parts, since x_d may be a
            # strided view, which has no float64 view
            re, im = x_d.real, x_d.imag
            square = np.einsum("tj,tj->t", re, re) + np.einsum("tj,tj->t", im, im)
            purity = purity + (1.0 if d == 0 else 2.0) * square
            if d < 3:
                low[d] = x_d
            yield x_d

    x_max, n_x = x_window
    grid = symmetric_grid(x_max, int(n_x), conjugate_thetas(0.0))
    values = tomograms_of_diagonals(tally(diagonals), grid)
    trace = low[0].real.sum(axis=1)
    _, var = _moment_mean_variance(*_ladder_moments(*low), np.asarray(uniform_thetas(theta_count)))

    k_state, refusal = first_refused_density(finite, trace)
    var_low = var[:k_state].min(axis=1)
    k_var = int(np.argmax(var_low <= 0.0)) if np.any(var_low <= 0.0) else k_state
    check_tomograms(values[:, :k_var], grid.x)
    if k_var < k_state:
        raise _variance_error(float(var_low[k_var]))
    if refusal is not None:
        raise refusal

    s0, s90 = _slice_entropy(values, grid.x)
    columns = (times, times / t_rev, _area(var), s0, s90, s0 + s90, trace, purity)
    return [QuantifierRecord(*row) for row in zip(*(c.tolist() for c in columns))]
