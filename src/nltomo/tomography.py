"""Optical tomograms of truncated Fock-space states.

The quadrature eigenstate overlap factorizes, <X, theta|n> =
psi_n(X) e^{-i n theta}, with psi_n the harmonic-oscillator
eigenfunction in the convention where the vacuum has variance 1/2
(omega_vac(x) = e^{-x^2}/sqrt(pi)).  The tomogram of a state rho is

    omega(x, theta) = sum_nm psi_n(x) psi_m(x) e^{-i(n-m) theta} rho_nm,

a genuine probability density in x for every theta.  Hermite functions
are generated by the normalized three-term recurrence, which stays
bounded where the textbook H_n / sqrt(2^n n!) route overflows near
n ~ 90.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericalInvariantError, ValidationError
from .states import DensityMatrix, FockVector

__all__ = [
    "QuadratureGrid",
    "Tomogram",
    "uniform_thetas",
    "conjugate_thetas",
    "hermite_basis",
    "quadrature_basis",
    "symmetric_grid",
    "suggested_grid",
    "tomogram_of_density",
    "tomogram_of_pure",
    "parse_dump",
]

TWO_PI = 2.0 * math.pi

# one-sided tomogram mass allowed off-grid before warning / refusing
_NORM_WARN = 1e-8
_NORM_FAIL = 1e-4
_IMAG_TOL = 1e-10
_NEG_TOL = 1e-12


def uniform_thetas(count: int) -> tuple[float, ...]:
    """count equally spaced phases in [0, 2*pi): k * 2*pi / count."""
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValidationError(f"count must be an integer >= 1, got {count!r}")
    return tuple(float(k) * TWO_PI / count for k in range(count))


def conjugate_thetas(theta: float) -> tuple[float, float]:
    """The pair (theta, theta + pi/2), both reduced into [0, 2*pi)."""
    theta = float(theta) % TWO_PI
    partner = (theta + 0.5 * math.pi) % TWO_PI
    return (theta, partner)


@dataclass(frozen=True)
class QuadratureGrid:
    """Rectangular evaluation grid: x samples times a set of phases.

    thetas must be strictly increasing and contained in [0, 2*pi); use
    :func:`conjugate_thetas` plus a sort when a wrapped pair is needed.
    """

    x_min: float
    x_max: float
    n_x: int
    thetas: tuple[float, ...] = (0.0, 0.5 * math.pi)

    def __post_init__(self):
        lo, hi = float(self.x_min), float(self.x_max)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValidationError(f"need finite x_min < x_max, got [{lo}, {hi}]")
        if not isinstance(self.n_x, (int, np.integer)) or self.n_x < 2:
            raise ValidationError(f"n_x must be an integer >= 2, got {self.n_x!r}")
        thetas = tuple(float(th) for th in self.thetas)
        if len(thetas) == 0:
            raise ValidationError("thetas must be non-empty")
        for th in thetas:
            if not (0.0 <= th < TWO_PI) or not math.isfinite(th):
                raise ValidationError(f"theta {th!r} outside [0, 2*pi)")
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValidationError("thetas must be strictly increasing")
        object.__setattr__(self, "x_min", lo)
        object.__setattr__(self, "x_max", hi)
        object.__setattr__(self, "n_x", int(self.n_x))
        object.__setattr__(self, "thetas", thetas)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def n_theta(self) -> int:
        return len(self.thetas)

    def theta_index(self, theta: float, tol: float = 1e-12) -> int:
        theta = float(theta) % TWO_PI
        for i, th in enumerate(self.thetas):
            if abs(th - theta) <= tol:
                return i
        raise ValidationError(f"theta {theta} not on grid {self.thetas}")


def symmetric_grid(x_max: float, n_x: int, thetas: tuple[float, ...]) -> QuadratureGrid:
    return QuadratureGrid(-float(x_max), float(x_max), n_x, thetas)


def suggested_grid(mean_photons: float, thetas: tuple[float, ...]) -> QuadratureGrid:
    """Window wide enough for a state with the given mean photon number.

    The quadrature distribution of such a state is centred within
    +-sqrt(2 <N>) and has slice width ~ 1/sqrt(2), so
    x_max = sqrt(2 <N>) + 4.5 keeps the off-grid mass below ~1e-8.
    Small states fall back to the default window [-10, 10] with 200
    points; wider windows keep the same ~0.1 sample spacing.
    """
    if not math.isfinite(mean_photons) or mean_photons < 0:
        raise ValidationError(f"mean_photons must be finite and >= 0, got {mean_photons!r}")
    needed = math.sqrt(2.0 * mean_photons) + 4.5
    if needed <= 10.0:
        return symmetric_grid(10.0, 200, thetas)
    x_max = 0.5 * math.ceil(needed / 0.5)
    n_x = int(round(20 * x_max)) + 1
    return symmetric_grid(x_max, n_x, thetas)


def hermite_basis(dim: int, x: np.ndarray) -> np.ndarray:
    """Matrix Psi[i, n] = psi_n(x_i) of oscillator eigenfunctions.

    Normalized recurrence:
        psi_0 = pi^{-1/4} e^{-x^2/2}
        psi_1 = sqrt(2) x psi_0
        psi_n = x sqrt(2/n) psi_{n-1} - sqrt((n-1)/n) psi_{n-2}
    Every term stays O(1) on the classically allowed region, so there is
    no overflow for any n reachable in practice.
    """
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError("x must be a 1-D array")
    psi = np.empty((x.size, dim), dtype=np.float64)
    psi[:, 0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if dim > 1:
        psi[:, 1] = math.sqrt(2.0) * x * psi[:, 0]
    for n in range(2, dim):
        psi[:, n] = x * math.sqrt(2.0 / n) * psi[:, n - 1] - math.sqrt(
            (n - 1.0) / n
        ) * psi[:, n - 2]
    return psi


_basis_cache: dict[tuple[int, float, float, int], np.ndarray] = {}


def _cached_basis(dim: int, grid: QuadratureGrid) -> np.ndarray:
    key = (dim, grid.x_min, grid.x_max, grid.n_x)
    cached = _basis_cache.get(key)
    if cached is not None:
        return cached
    psi = hermite_basis(dim, grid.x)
    psi.setflags(write=False)
    if len(_basis_cache) > 32:
        _basis_cache.clear()
    _basis_cache[key] = psi
    return psi


def quadrature_basis(dim: int, x: float, theta: float) -> np.ndarray:
    """Overlap vector <X, theta|n> = psi_n(x) e^{-i n theta}, n < dim."""
    psi = hermite_basis(dim, np.array([float(x)]))[0]
    return psi * np.exp(-1j * float(theta) * np.arange(dim))


@dataclass(frozen=True)
class Tomogram:
    """Tomogram values on a grid; values[i, j] = omega(x_j, theta_i)."""

    grid: QuadratureGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        expected = (self.grid.n_theta, self.grid.n_x)
        if vals.shape != expected:
            raise ValidationError(f"values shape {vals.shape}, expected {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("tomogram contains non-finite values")
        low = float(vals.min())
        if low < -_NEG_TOL:
            raise NumericalInvariantError(
                f"tomogram negativity {low:.3e} below -{_NEG_TOL:.0e}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def integral_per_theta(self) -> np.ndarray:
        """Trapezoid integral of each slice over x; should be ~1."""
        return np.trapezoid(self.values, self.grid.x, axis=1)

    def to_dump_text(self) -> str:
        lines = ["# theta x omega"]
        x = self.grid.x
        for i, theta in enumerate(self.grid.thetas):
            row = self.values[i]
            theta_txt = "%.9g" % theta
            for j in range(self.grid.n_x):
                lines.append(f"{theta_txt} {'%.9g' % x[j]} {'%.12g' % row[j]}")
        return "\n".join(lines) + "\n"

    def write_dump(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_dump_text())
        return path


def parse_dump(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :meth:`Tomogram.to_dump_text`: (thetas, x, values)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "# theta x omega":
        raise ValidationError("missing '# theta x omega' header")
    cols = np.array([[float(tok) for tok in ln.split()] for ln in lines[1:]])
    if cols.shape[1] != 3:
        raise ValidationError("dump rows must have three columns")
    thetas = np.unique(cols[:, 0])
    n_theta = thetas.size
    if cols.shape[0] % n_theta:
        raise ValidationError("dump is not a complete rectangular grid")
    n_x = cols.shape[0] // n_theta
    x = cols[:n_x, 1]
    values = cols[:, 2].reshape(n_theta, n_x)
    return thetas, x, values


def _check_normalization(tomo: Tomogram) -> None:
    dev = float(np.max(np.abs(tomo.integral_per_theta() - 1.0)))
    if dev > _NORM_FAIL:
        raise NumericalInvariantError(
            f"tomogram slice normalization off by {dev:.3e}; "
            "the x-window is too narrow for this state"
        )
    if dev > _NORM_WARN:
        warnings.warn(
            f"tomogram slice mass off-grid ~ {dev:.3e}; consider widening the x-window",
            RuntimeWarning,
            stacklevel=3,
        )


def tomogram_of_density(rho: DensityMatrix, grid: QuadratureGrid) -> Tomogram:
    """Tomogram of a density matrix on the given grid.

    Evaluated per phase as omega(x) = Re sum_m [(G rho)(x, m) G*(x, m)]
    with G(x, n) = psi_n(x) e^{-i n theta}; one matrix product per
    slice.  The imaginary residue is checked against 1e-10 before being
    discarded, and slice normalization is checked against the window.
    """
    psi = _cached_basis(rho.dim, grid)
    n = np.arange(rho.dim)
    values = np.empty((grid.n_theta, grid.n_x))
    worst_imag = 0.0
    for i, theta in enumerate(grid.thetas):
        G = psi * np.exp(-1j * theta * n)[None, :]
        terms = (G @ rho.elements) * G.conj()
        omega = terms.sum(axis=1)
        worst_imag = max(worst_imag, float(np.max(np.abs(omega.imag))))
        values[i] = omega.real
    if worst_imag > _IMAG_TOL:
        raise NumericalInvariantError(
            f"tomogram imaginary residue {worst_imag:.3e} exceeds {_IMAG_TOL:.0e}"
        )
    tomo = Tomogram(grid, values)
    _check_normalization(tomo)
    return tomo


def tomogram_of_pure(psi_state: FockVector, grid: QuadratureGrid) -> Tomogram:
    """Tomogram of a pure state: omega = |sum_n C_n psi_n(x) e^{-i n theta}|^2."""
    psi = _cached_basis(psi_state.dim, grid)
    n = np.arange(psi_state.dim)
    values = np.empty((grid.n_theta, grid.n_x))
    for i, theta in enumerate(grid.thetas):
        amp = psi @ (psi_state.amplitudes * np.exp(-1j * theta * n))
        values[i] = np.abs(amp) ** 2
    tomo = Tomogram(grid, values)
    _check_normalization(tomo)
    return tomo
