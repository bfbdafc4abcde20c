"""Excitation signal and dataset handling tests.

The LFSR oracle here is an independent list-of-bits implementation so the
production generator is never checked against itself.
"""

import numpy as np
import pytest

from sidmpc.errors import ConfigError
from sidmpc.signals import (
    PRIMITIVE_TAPS,
    Dataset,
    PrbsSpec,
    _lfsr_cycle,
    prbs_generate,
    save_csv,
    split,
)


def lfsr_oracle(n, taps, seed, count):
    """Brute-force Fibonacci LFSR using an explicit bit list.

    reg[0] is the newest stage (stage 1), reg[n-1] the oldest (stage n).
    Output is the oldest stage; feedback is the XOR of the tapped stages.
    """
    reg = [(seed >> k) & 1 for k in range(n)]
    out = []
    for _ in range(count):
        out.append(reg[n - 1])
        fb = 0
        for t in taps:
            fb ^= reg[t - 1]
        reg = [fb] + reg[:-1]
    return out


def test_one_period_balance_n3():
    # maximal length: 2^(n-1) highs, 2^(n-1) - 1 lows per period
    seq = prbs_generate(PrbsSpec(3, taps=(3, 2), total_length=7))
    assert np.sum(seq == 1.0) == 4
    assert np.sum(seq == -1.0) == 3


def test_measured_period_n4_against_state_enumeration():
    assert _lfsr_cycle(4, (4, 3), 1).size == 15
    # brute force: walk the oracle register until the state recurs
    n, taps = 4, (4, 3)
    start = [(1 >> k) & 1 for k in range(n)]
    reg = start[:]
    for step in range(1, 40):
        fb = 0
        for t in taps:
            fb ^= reg[t - 1]
        reg = [fb] + reg[:-1]
        if reg == start:
            break
    assert step == 15


def test_bits_match_independent_oracle():
    for n in (3, 5, 8, 11):
        taps = PRIMITIVE_TAPS[n]
        seq = prbs_generate(PrbsSpec(n, total_length=200, seed=5))
        bits = [1 if v > 0 else 0 for v in seq]
        assert bits == lfsr_oracle(n, taps, 5, 200)


def test_clock_period_run_lengths():
    seq = prbs_generate(PrbsSpec(5, clock_period=3, total_length=93))
    runs = []
    count = 1
    for a, b in zip(seq[:-1], seq[1:]):
        if a == b:
            count += 1
        else:
            runs.append(count)
            count = 1
    # every completed run is a whole number of held bits
    assert all(r % 3 == 0 for r in runs)


def test_full_tap_table_is_maximal_length():
    for n, taps in PRIMITIVE_TAPS.items():
        assert _lfsr_cycle(n, taps, 1).size == (1 << n) - 1


def test_two_valuedness_and_custom_levels():
    seq = prbs_generate(PrbsSpec(6, levels=(0.0, 4.5), total_length=500))
    assert set(np.unique(seq)) == {0.0, 4.5}


def test_phase_discards_leading_bits():
    base = prbs_generate(PrbsSpec(7, total_length=50))
    shifted = prbs_generate(PrbsSpec(7, total_length=40, phase=10))
    np.testing.assert_array_equal(shifted, base[10:])


def test_non_primitive_taps_rejected():
    # x^4 + x^2 + 1 factors, so the period falls short of 15
    with pytest.raises(ConfigError, match="not primitive"):
        prbs_generate(PrbsSpec(4, taps=(4, 2), total_length=10))


def test_bad_spec_fields_rejected():
    with pytest.raises(ConfigError, match="seed"):
        PrbsSpec(4, seed=0)
    with pytest.raises(ConfigError, match="seed"):
        PrbsSpec(4, seed=16)  # needs a nonzero 4-bit state
    with pytest.raises(ConfigError, match="levels"):
        PrbsSpec(4, levels=(1.0, -1.0))
    with pytest.raises(ConfigError, match="register_length"):
        PrbsSpec(1)
    with pytest.raises(ConfigError, match="clock_period"):
        PrbsSpec(4, clock_period=0)
    with pytest.raises(ConfigError, match="tap"):
        PrbsSpec(4, taps=(5, 1))


def test_split_paper_counts():
    d = Dataset(np.zeros((5000, 2)), np.zeros((5000, 2)), 0.5)
    train, valid = split(d, 0.5)
    assert train.N == 2500 and valid.N == 2500


def test_split_order_preserved():
    u = np.arange(10.0)
    d = Dataset(u, u * 2, 1.0)
    train, valid = split(d, 0.5)
    np.testing.assert_array_equal(train.u[:, 0], np.arange(5.0))
    np.testing.assert_array_equal(valid.u[:, 0], np.arange(5.0, 10.0))
    assert train.ts == valid.ts == 1.0


def test_split_floor_then_remainder():
    d = Dataset(np.zeros(3), np.zeros(3), 1.0)
    train, valid = split(d, 0.9)
    assert (train.N, valid.N) == (2, 1)


def test_split_conservation_and_concat():
    rng = np.random.default_rng(3)
    d = Dataset(rng.normal(size=(41, 2)), rng.normal(size=(41, 3)), 0.25)
    train, valid = split(d, 0.37)
    assert train.N + valid.N == d.N
    np.testing.assert_array_equal(np.vstack([train.u, valid.u]), d.u)
    np.testing.assert_array_equal(np.vstack([train.y, valid.y]), d.y)


def test_split_rejects_bad_fraction():
    d = Dataset(np.zeros(10), np.zeros(10), 1.0)
    for frac in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ConfigError):
            split(d, frac)


def test_dataset_validation():
    with pytest.raises(ConfigError, match="rows"):
        Dataset(np.zeros((5, 2)), np.zeros((4, 2)), 1.0)
    with pytest.raises(ConfigError, match="positive"):
        Dataset(np.zeros(5), np.zeros(5), 0.0)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    d = Dataset(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)), 0.5)
    path = tmp_path / "rt.csv"
    save_csv(d, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u1,u2,y1,y2"
    back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # repr round-trips doubles exactly, so equality is bitwise
    np.testing.assert_array_equal(back[:, 0], np.arange(100) * 0.5)
    np.testing.assert_array_equal(back[:, 1:3], d.u)
    np.testing.assert_array_equal(back[:, 3:], d.y)
