"""Domain types, SNR/rate arithmetic, and the rate/inverse-SNR change of variables."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twobeam.errors import DimensionMismatchError, DomainError
from twobeam.model import (
    Beamformer,
    ChannelSet,
    IndividualPower,
    SumPower,
    SystemParams,
    map_u,
    map_u_inverse,
    noise_matrices,
    rate_pair,
    relay_powers,
    snr_pair,
)

from helpers import draw_nonreciprocal, draw_reciprocal, unit_params


@pytest.fixture
def two_relay():
    ch = ChannelSet.from_reciprocal(np.array([1.0 + 0j, 2.0 + 0j]), np.array([1.0 + 0j, 1.0 + 0j]))
    return ch, unit_params(2)


class TestSnrArithmetic:
    def test_all_ones_beamformer(self, two_relay):
        ch, sp = two_relay
        s = snr_pair(ch, sp, Beamformer(np.array([1.0 + 0j, 1.0 + 0j])))
        assert s.snr1 == pytest.approx(1.5, abs=1e-12)
        assert s.snr2 == pytest.approx(3.0, abs=1e-12)

    def test_rates_from_all_ones(self, two_relay):
        ch, sp = two_relay
        r = rate_pair(ch, sp, Beamformer(np.array([1.0 + 0j, 1.0 + 0j])))
        assert r.r1 == pytest.approx(0.5 * np.log2(2.5), abs=1e-12)
        assert r.r2 == pytest.approx(1.0, abs=1e-12)

    def test_relay_powers(self, two_relay):
        ch, sp = two_relay
        p = relay_powers(ch, sp, Beamformer(np.array([1.0 + 0j, 1.0 + 0j])))
        np.testing.assert_allclose(p, [3.0, 6.0], atol=1e-12)

    def test_noise_matrices_diagonals(self, two_relay):
        ch, sp = two_relay
        nm = noise_matrices(ch, sp)
        np.testing.assert_allclose(nm.a1, [1.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(nm.a2, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(nm.d, [3.0, 6.0], atol=1e-12)

    def test_zero_beamformer_gives_exact_zero_snr(self, two_relay):
        ch, sp = two_relay
        s = snr_pair(ch, sp, Beamformer(np.zeros(2, dtype=complex)))
        assert s.snr1 == 0.0 and s.snr2 == 0.0

    def test_forward_numerator_uses_transpose_not_conjugate(self):
        # A purely imaginary composite channel distinguishes w^T f from w^H f.
        ch = ChannelSet.from_reciprocal(np.array([1j]), np.array([1.0 + 0j]))
        sp = unit_params(1)
        w = Beamformer(np.array([1j]))
        s = snr_pair(ch, sp, w)
        # f2 = h2*h1 = 1j, w^T f2 = -1, |.|^2 = 1; den = 1 + 1 = 2.
        assert s.snr1 == pytest.approx(0.5, abs=1e-12)

    def test_snr_monotone_in_common_scale(self):
        rng = np.random.default_rng(3)
        ch = draw_nonreciprocal(rng, 4)
        sp = unit_params(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lo = snr_pair(ch, sp, Beamformer(0.5 * w))
        hi = snr_pair(ch, sp, Beamformer(w))
        assert lo.snr1 <= hi.snr1 + 1e-15
        assert lo.snr2 <= hi.snr2 + 1e-15

    def test_snr_invariant_under_paired_phase_rotation(self):
        # Rotating h1 against h2r (and h2 against h1r) leaves both composite
        # channels and both relay-noise gains unchanged, so the SNRs must not move.
        rng = np.random.default_rng(11)
        ch = draw_nonreciprocal(rng, 5)
        sp = unit_params(5)
        w = Beamformer(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        base = snr_pair(ch, sp, w)
        phi = rng.uniform(-np.pi, np.pi, 5)
        psi = rng.uniform(-np.pi, np.pi, 5)
        rotated = ChannelSet(
            h1=ch.h1 * np.exp(1j * phi),
            h2=ch.h2 * np.exp(1j * psi),
            h1r=ch.h1r * np.exp(-1j * psi),
            h2r=ch.h2r * np.exp(-1j * phi),
        )
        got = snr_pair(rotated, sp, w)
        assert got.snr1 == pytest.approx(base.snr1, rel=1e-12)
        assert got.snr2 == pytest.approx(base.snr2, rel=1e-12)


class TestValidation:
    def test_beamformer_length_must_match(self, two_relay):
        ch, sp = two_relay
        with pytest.raises(DimensionMismatchError):
            snr_pair(ch, sp, Beamformer(np.ones(3, dtype=complex)))

    def test_nonfinite_beamformer_rejected(self):
        with pytest.raises(DomainError):
            Beamformer(np.array([np.nan + 0j]))

    def test_channel_lengths_must_agree(self):
        with pytest.raises(DimensionMismatchError):
            ChannelSet(
                h1=np.ones(2, dtype=complex),
                h2=np.ones(2, dtype=complex),
                h1r=np.ones(3, dtype=complex),
                h2r=np.ones(2, dtype=complex),
            )

    def test_nonpositive_powers_rejected(self):
        with pytest.raises(DomainError):
            SystemParams(p_s1=0.0, p_s2=1.0, sigma_relay=np.ones(2), sigma_s1_sq=1.0, sigma_s2_sq=1.0)
        with pytest.raises(DomainError):
            SumPower(p_r=-1.0)
        with pytest.raises(DomainError):
            IndividualPower(p=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["p_s1", "p_s2", "sigma_s1_sq", "sigma_s2_sq"])
    def test_each_system_scalar_checked_by_name(self, name, value):
        fields = {"p_s1": 1.0, "p_s2": 1.0, "sigma_s1_sq": 1.0, "sigma_s2_sq": 1.0}
        with pytest.raises(DomainError, match=f"^{name} must be finite and strictly positive$"):
            SystemParams(sigma_relay=np.ones(2), **{**fields, name: value})

    @pytest.mark.parametrize(
        "value, error, message",
        [
            ([], DimensionMismatchError, "w must be a non-empty 1-D vector"),
            (np.ones((2, 2)), DimensionMismatchError, "w must be a non-empty 1-D vector"),
            ([1.0, np.nan], DomainError, "w must contain only finite entries"),
        ],
        ids=["empty", "2-d", "nan"],
    )
    def test_beamformer_rejects_bad_vectors(self, value, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            Beamformer(value)

    def test_beamformer_keeps_a_readonly_copy(self):
        source = np.array([1.0 + 2.0j, -0.5j])
        bf = Beamformer(source)
        assert bf.w.dtype == np.complex128
        assert not bf.w.flags.writeable
        assert not np.shares_memory(bf.w, source)
        source[0] = 0.0
        assert bf.w.tolist() == [1.0 + 2.0j, -0.5j]

    def test_reciprocal_flag(self):
        rng = np.random.default_rng(0)
        ch = draw_reciprocal(rng, 3)
        assert ch.reciprocal()
        bent = ChannelSet(h1=ch.h1, h2=ch.h2, h1r=ch.h1r * (1 + 1e-9), h2r=ch.h2r)
        assert not bent.reciprocal()

    def test_frozen_arrays_are_readonly(self):
        rng = np.random.default_rng(1)
        ch = draw_reciprocal(rng, 2)
        with pytest.raises(ValueError):
            ch.h1[0] = 0.0


class TestRateMap:
    def test_known_point(self):
        r = map_u(1.0 / 3.0, 1.0)
        assert r.r1 == pytest.approx(1.0, abs=1e-12)
        assert r.r2 == pytest.approx(0.5, abs=1e-12)

    def test_known_point_inverse(self):
        t1, t2 = map_u_inverse(1.0, 0.5)
        assert t1 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert t2 == pytest.approx(1.0, abs=1e-15)

    @given(
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, r1, r2):
        t1, t2 = map_u_inverse(r1, r2)
        back = map_u(t1, t2)
        assert abs(back.r1 - r1) <= 1e-12 * max(1.0, r1)
        assert abs(back.r2 - r2) <= 1e-12 * max(1.0, r2)

    @given(st.floats(min_value=1e-6, max_value=1e3), st.floats(min_value=1.0001, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing(self, t, factor):
        assert map_u(t * factor, 1.0).r1 < map_u(t, 1.0).r1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            map_u(0.0, 1.0)
        with pytest.raises(DomainError):
            map_u(1.0, -2.0)
        with pytest.raises(DomainError):
            map_u_inverse(0.0, 1.0)
