"""Collective polarization rotation channel and its tagged-state parameters.

The channel applies one unknown SU(2) rotation to the polarization of every
photon.  For the tag / rotate / tag pipeline the effect is captured by three
delta parameters with ||d1||^2 + ||d2||^2 + ||d3||^2 = 1; the coincident
(equal time bin) component survives with probability ||(d1 + 1)/2||^2.
Waveplate settings are modeled with standard Jones matrices, and the random
compensation rotation B can be drawn as identity-or-flip or Haar uniform.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import check_unitary

SU2_TOL = 1e-12
DELTA_NORM_TOL = 1e-10

Scheme = str
SCHEMES = ("none", "flip_half", "haar")


def su2(a, b) -> np.ndarray:
    """The matrix [[a, -conj(b)], [b, conj(a)]], over arrays a and b."""
    m = np.empty(np.shape(a) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, -np.conj(b), b, np.conj(a)
    return m


@dataclass(frozen=True)
class CollectiveRotation:
    """Special-unitary polarization rotation [[a, -conj(b)], [b, conj(a)]]."""

    a: complex
    b: complex

    def __post_init__(self):
        n = abs(self.a) ** 2 + abs(self.b) ** 2
        if abs(n - 1.0) > SU2_TOL:
            raise ValueError(f"|a|^2 + |b|^2 = {n!r}, not special-unitary")

    @property
    def matrix(self) -> np.ndarray:
        return su2(self.a, self.b)

    @classmethod
    def identity(cls) -> "CollectiveRotation":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def bit_flip(cls) -> "CollectiveRotation":
        """Polarization exchange H <-> V (special-unitary representative)."""
        return cls(0.0j, 1.0 + 0.0j)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "CollectiveRotation":
        """Normalize any 2x2 unitary to determinant 1 by a global phase."""
        m = check_unitary(m)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        m = m / np.sqrt(det)
        return cls(complex(m[0, 0]), complex(m[1, 0]))

    def __matmul__(self, other: "CollectiveRotation") -> "CollectiveRotation":
        return CollectiveRotation.from_matrix(self.matrix @ other.matrix)


@dataclass(frozen=True)
class DeltaParams:
    """Expansion parameters (d1, d2, d3) of the tagged-state evolution."""

    d1: complex
    d2: complex
    d3: complex

    def __post_init__(self):
        n = abs(self.d1) ** 2 + abs(self.d2) ** 2 + abs(self.d3) ** 2
        if abs(n - 1.0) > DELTA_NORM_TOL:
            raise ValueError(f"delta norm identity violated: {n!r}")

    def expansion_coefficients(self) -> tuple[complex, complex, complex, complex]:
        """Coefficients (kept, double-tagged, HH-like, VV-like) of the four-term expansion."""
        return (
            (self.d1 + 1.0) / 2.0,
            (self.d1 - 1.0) / 2.0,
            (self.d2 + self.d3) / 2.0,
            (self.d2 - self.d3) / 2.0,
        )


@dataclass(frozen=True)
class RotatorSetting:
    """Angles (degrees) of the QWP-HWP-QWP polarization rotator."""

    qwp1_deg: float = 0.0
    hwp_deg: float = 0.0
    qwp2_deg: float = 0.0

    def __post_init__(self):
        for name in ("qwp1_deg", "hwp_deg", "qwp2_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def _rot(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def qwp_jones(theta_deg: float) -> np.ndarray:
    """Quarter-wave plate, fast axis at theta from horizontal (retardance pi/2)."""
    t = np.deg2rad(theta_deg)
    return _rot(-t) @ np.diag([1.0, 1.0j]) @ _rot(t)


def hwp_jones(theta_deg: float) -> np.ndarray:
    """Half-wave plate, fast axis at theta from horizontal (retardance pi)."""
    t = np.deg2rad(theta_deg)
    return _rot(-t) @ np.diag([1.0, -1.0]) @ _rot(t)


def from_waveplates(r: RotatorSetting) -> CollectiveRotation:
    """Composite QWP(q1) . HWP(h) . QWP(q2) rotation, det-normalized.

    Each plate R(-t) diag(1, phi) R(t) (`qwp_jones`, `hwp_jones`) is
    symmetric, so the product is multiplied out on Python complex scalars.
    """
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for theta_deg, phi in ((r.qwp1_deg, 1j), (r.hwp_deg, -1.0), (r.qwp2_deg, 1j)):
        t = math.radians(theta_deg)
        c, s = math.cos(t), math.sin(t)
        p, q, w = c * c + phi * (s * s), c * s * (1 - phi), s * s + phi * (c * c)
        m00, m01 = m00 * p + m01 * q, m00 * q + m01 * w  # each row of m times the plate
        m10, m11 = m10 * p + m11 * q, m10 * q + m11 * w
    root = cmath.sqrt(m00 * m11 - m01 * m10)  # the principal root, as np.sqrt takes
    return CollectiveRotation(m00 / root, m10 / root)


def sweep_settings(n: int = 5) -> tuple[RotatorSetting, ...]:
    """The n-point noise sweep from identity to a collective bit-flip.

    Both QWPs stay at 0 and the HWP steps from 0 to 45 degrees in equal
    increments, so setting k rotates the polarization frame by k*pi/(2(n-1))
    and the coincident survival at setting k is cos(k*pi/(2(n-1)))**4.  For
    the default n = 5 this gives |a|^2 = cos^2(k*pi/8), k = 0..4.
    """
    if n < 2:
        raise ValueError("a sweep needs at least the identity and bit-flip endpoints")
    step = 45.0 / (n - 1)
    return tuple(RotatorSetting(0.0, step * k, 0.0) for k in range(n))


def haar_sample(rng: np.random.Generator) -> CollectiveRotation:
    """Haar-distributed SU(2) rotation (uniform on the unit 3-sphere).

    The marginal of |a|^2 is uniform on [0, 1], so the mean coincident
    survival |a|^4 over the ensemble is exactly 1/3.
    """
    x = rng.standard_normal(4)
    r = math.sqrt(x.dot(x))  # exactly np.linalg.norm(x), without its per-call overhead
    a0, a1, b0, b1 = x.tolist()
    return CollectiveRotation(complex(a0 / r, a1 / r), complex(b0 / r, b1 / r))


def haar_matrices(rng: np.random.Generator, n: int, u: np.ndarray = np.eye(2)) -> np.ndarray:
    """u @ B, (n, 2, 2), for n Haar SU(2) B (`haar_sample` in bulk) and special-unitary u."""
    x = rng.standard_normal((n, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return su2(*(u[:, :, None] * x.view(complex).T).sum(axis=1))  # u times B's column (a, b)


def delta_params(u: CollectiveRotation) -> DeltaParams:
    """Extract (d1, d2, d3) for the tag / rotate / tag evolution of a pair.

    d1 is real for the special-unitary parametrization; reconstructing the
    four expansion coefficients from these values reproduces the exact
    amplitude-level evolution.
    """
    a, b = complex(u.a), complex(u.b)
    d1 = abs(a) ** 2 - abs(b) ** 2
    d2 = a.conjugate() * b - a * b.conjugate()
    d3 = -(a * b.conjugate() + a.conjugate() * b)
    return DeltaParams(complex(d1), d2, d3)


def survival_probability(u: CollectiveRotation) -> float:
    """Probability ||(d1 + 1)/2||^2 = |a|^4 of keeping the coincident component."""
    return float(abs(u.a) ** 4)


def randomized_survival(u: CollectiveRotation, scheme: Scheme) -> float:
    """Mean coincident survival under the chosen compensation scheme.

    'none' leaves the channel alone, 'flip_half' averages identity and a
    bit-flip with equal weight, and 'haar' averages over uniform SU(2)
    compensations (exactly 1/3 for every channel).
    """
    if scheme == "none":
        return survival_probability(u)
    if scheme == "flip_half":
        return (abs(u.a) ** 4 + abs(u.b) ** 4) / 2.0
    if scheme == "haar":
        return 1.0 / 3.0
    raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
