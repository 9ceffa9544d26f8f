"""Signal model for a two-way amplify-and-forward relay network.

Two sources exchange messages through K single-antenna relays in two time
slots. Source 1 transmits with power ``p_s1`` over forward channels ``h1``,
source 2 with ``p_s2`` over ``h2``; relay i scales its received sample by a
complex weight ``w_i`` and retransmits over backward channels ``h1r`` (to
source 1) and ``h2r`` (to source 2). After each source cancels its own
self-interference, the end-to-end links are characterized by the composite
channels ``f1 = h1 * h2r`` and ``f2 = h2 * h1r`` and by the amplified relay
noise, which enters through the diagonal matrices ``A1``, ``A2``. The total
relay transmit power is ``w^H D w`` with ``D`` diagonal.

All powers and noise variances are in watts; rates are in bits per channel
use and include the factor 1/2 for the two-slot protocol. Complex values are
64-bit float pairs (numpy complex128) throughout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DomainError

__all__ = [
    "SystemParams",
    "ChannelSet",
    "SumPower",
    "IndividualPower",
    "PowerBudget",
    "Beamformer",
    "SnrPair",
    "RatePair",
    "NoiseMatrices",
    "noise_matrices",
    "snr_pair",
    "rate_pair",
    "relay_powers",
    "map_u",
    "map_u_inverse",
]


# The vector checkers run on every solve: ndarray methods skip the dispatch
# cost of np.all/np.any, and np.array makes the private copy in one step.
def _as_complex_vector(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatchError(f"{name} must be a non-empty 1-D vector")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must contain only finite entries")
    arr.setflags(write=False)
    return arr


def _as_positive_vector(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatchError(f"{name} must be a non-empty 1-D vector")
    if not (np.isfinite(arr).all() and (arr > 0.0).all()):
        raise DomainError(f"{name} entries must be finite and strictly positive")
    arr.setflags(write=False)
    return arr


def _relay_caps(value, k: int) -> np.ndarray:
    p = _as_positive_vector(value, "p")
    if p.size != k:
        raise DimensionMismatchError("p must have one entry per relay")
    return p


def _require_positive_scalar(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be finite and strictly positive")
    return value


def _require_weight(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1]")
    return value


def _require_count(value, name: str, low: int) -> int:
    # Python and numpy integers only: int() would truncate 2.7 and parse "3".
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer")
    if value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise DomainError(f"{name} must be {bound}")
    return int(value)


@dataclass(frozen=True)
class SystemParams:
    """Transmit powers and noise variances of the network.

    ``sigma_relay`` holds the per-relay noise variances; its length fixes K.
    """

    p_s1: float
    p_s2: float
    sigma_relay: np.ndarray
    sigma_s1_sq: float
    sigma_s2_sq: float

    def __post_init__(self) -> None:
        for name in ("p_s1", "p_s2", "sigma_s1_sq", "sigma_s2_sq"):
            object.__setattr__(self, name, _require_positive_scalar(getattr(self, name), name))
        object.__setattr__(
            self, "sigma_relay", _as_positive_vector(self.sigma_relay, "sigma_relay")
        )

    @property
    def k(self) -> int:
        return self.sigma_relay.size


@dataclass(frozen=True)
class ChannelSet:
    """Forward channels ``h1``, ``h2`` and backward channels ``h1r``, ``h2r``.

    ``h1r`` is the channel from the relays back to source 1 and ``h2r`` the
    one back to source 2. In a reciprocal (TDD) network the backward channels
    equal the forward ones; :meth:`reciprocal` tests for exact equality.
    """

    h1: np.ndarray
    h2: np.ndarray
    h1r: np.ndarray
    h2r: np.ndarray

    def __post_init__(self) -> None:
        for name in ("h1", "h2", "h1r", "h2r"):
            object.__setattr__(self, name, _as_complex_vector(getattr(self, name), name))
        k = self.h1.size
        if not (self.h2.size == self.h1r.size == self.h2r.size == k):
            raise DimensionMismatchError("channel vectors must share one length K")

    @classmethod
    def from_reciprocal(cls, h1, h2) -> "ChannelSet":
        """Build a reciprocal channel set with ``h1r = h1`` and ``h2r = h2``."""
        return cls(h1=h1, h2=h2, h1r=h1, h2r=h2)

    @property
    def k(self) -> int:
        return self.h1.size

    def reciprocal(self) -> bool:
        return bool(
            np.array_equal(self.h1r, self.h1) and np.array_equal(self.h2r, self.h2)
        )

    @property
    def f1(self) -> np.ndarray:
        """Composite source-1-to-source-2 channel, ``h1 * h2r`` elementwise."""
        return self.h1 * self.h2r

    @property
    def f2(self) -> np.ndarray:
        """Composite source-2-to-source-1 channel, ``h2 * h1r`` elementwise."""
        return self.h2 * self.h1r

    @property
    def fhat(self) -> np.ndarray:
        """Magnitude product ``|h1_i||h2_i|`` (meaningful for reciprocal sets)."""
        return np.abs(self.h1) * np.abs(self.h2)


@dataclass(frozen=True)
class SumPower:
    """Total relay-cluster power budget, watts."""

    p_r: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_r", _require_positive_scalar(self.p_r, "p_r"))


@dataclass(frozen=True)
class IndividualPower:
    """Per-relay power caps, watts."""

    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _as_positive_vector(self.p, "p"))

    @property
    def k(self) -> int:
        return self.p.size


PowerBudget = SumPower | IndividualPower


@dataclass(frozen=True)
class Beamformer:
    """Complex relay weight vector."""

    w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", _as_complex_vector(self.w, "w"))

    @property
    def k(self) -> int:
        return self.w.size


@dataclass(frozen=True)
class SnrPair:
    snr1: float
    snr2: float


@dataclass(frozen=True)
class RatePair:
    r1: float
    r2: float


@dataclass(frozen=True)
class NoiseMatrices:
    """Diagonals of the noise-amplification and power matrices.

    ``a1 = |h1r|^2 sigma_relay`` scales the relay noise seen at source 1,
    ``a2 = |h2r|^2 sigma_relay`` the one seen at source 2, and
    ``d = |h1|^2 p_s1 + |h2|^2 p_s2 + sigma_relay`` gives per-relay transmit
    power per unit |w_i|^2. Stored as vectors; the matrices are diagonal.
    """

    a1: np.ndarray = field(repr=False)
    a2: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)


def _check_dims(ch: ChannelSet, sp: SystemParams, w: Beamformer | None = None) -> None:
    if sp.k != ch.k:
        raise DimensionMismatchError(
            f"sigma_relay has length {sp.k} but channels have K={ch.k}"
        )
    if w is not None and w.k != ch.k:
        raise DimensionMismatchError(f"beamformer has length {w.k} but channels have K={ch.k}")


def _power_diag(ch: ChannelSet, sp: SystemParams) -> np.ndarray:
    # The diagonal of D alone, for the closed forms, which need no A1 or A2.
    return np.abs(ch.h1) ** 2 * sp.p_s1 + np.abs(ch.h2) ** 2 * sp.p_s2 + sp.sigma_relay


def noise_matrices(ch: ChannelSet, sp: SystemParams) -> NoiseMatrices:
    """Compute the diagonal matrices A1, A2 and D for a channel realization."""
    _check_dims(ch, sp)
    a1 = np.abs(ch.h1r) ** 2 * sp.sigma_relay
    a2 = np.abs(ch.h2r) ** 2 * sp.sigma_relay
    return NoiseMatrices(a1=a1, a2=a2, d=_power_diag(ch, sp))


def snr_pair(ch: ChannelSet, sp: SystemParams, w: Beamformer) -> SnrPair:
    """End-to-end SNRs at source 1 and source 2 for a given beamformer.

    snr1 = p_s2 |f2^T w|^2 / (sigma_s1_sq + w^H A1 w) and symmetrically for
    snr2. The zero beamformer gives exactly (0, 0).
    """
    _check_dims(ch, sp, w)
    nm = noise_matrices(ch, sp)
    abs_w_sq = np.abs(w.w) ** 2
    num1 = sp.p_s2 * np.abs(np.dot(ch.f2, w.w)) ** 2
    num2 = sp.p_s1 * np.abs(np.dot(ch.f1, w.w)) ** 2
    den1 = sp.sigma_s1_sq + float(np.dot(nm.a1, abs_w_sq))
    den2 = sp.sigma_s2_sq + float(np.dot(nm.a2, abs_w_sq))
    return SnrPair(snr1=float(num1 / den1), snr2=float(num2 / den2))


def rate_pair(ch: ChannelSet, sp: SystemParams, w: Beamformer) -> RatePair:
    """Achievable rate pair, r_i = 0.5 log2(1 + snr_i)."""
    s = snr_pair(ch, sp, w)
    return RatePair(r1=0.5 * math.log2(1.0 + s.snr1), r2=0.5 * math.log2(1.0 + s.snr2))


def relay_powers(ch: ChannelSet, sp: SystemParams, w: Beamformer) -> np.ndarray:
    """Per-relay transmit powers ``|w_i|^2 D_ii`` in watts."""
    _check_dims(ch, sp, w)
    nm = noise_matrices(ch, sp)
    return np.abs(w.w) ** 2 * nm.d


def map_u(t1: float, t2: float) -> RatePair:
    """Map an inverse-SNR pair to the corresponding rate pair.

    The mapping (t1, t2) -> (0.5 log2(1 + 1/t1), 0.5 log2(1 + 1/t2)) is a
    bijection from the open positive quadrant onto itself and reverses the
    componentwise order, so minimizing weighted inverse SNRs traces the same
    boundary as maximizing rates.
    """
    t1, t2 = _require_positive_scalar(t1, "t1"), _require_positive_scalar(t2, "t2")
    return RatePair(r1=0.5 * math.log2(1.0 + 1.0 / t1), r2=0.5 * math.log2(1.0 + 1.0 / t2))


def _snr_for_rate(r: float) -> float:
    return 2.0 ** (2.0 * r) - 1.0


def map_u_inverse(r1: float, r2: float) -> tuple[float, float]:
    """Inverse of :func:`map_u`; requires strictly positive rates."""
    r1, r2 = _require_positive_scalar(r1, "r1"), _require_positive_scalar(r2, "r2")
    return (1.0 / _snr_for_rate(r1), 1.0 / _snr_for_rate(r2))
