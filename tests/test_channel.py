import math
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from scatterjoin.channel import Position, RadioParams, dist, hears, path_loss_rssi


def test_reference_distance_gives_minus_45():
    assert path_loss_rssi(1.0, RadioParams()) == -45.0


def test_ten_metres_gives_minus_85():
    assert path_loss_rssi(10.0, RadioParams()) == pytest.approx(-85.0)


def test_threshold_distance():
    # hand evaluation of -(45 + 40*log10(13.34)); sits right at -90
    expected = -(45.0 + 40.0 * math.log10(13.34))
    got = path_loss_rssi(13.34, RadioParams())
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(-90.0, abs=0.05)


def test_sub_metre_clamps_to_one_metre():
    assert path_loss_rssi(0.2, RadioParams()) == -45.0


@pytest.mark.parametrize("bad", [0.0, -3.0, float("nan"), float("inf")])
def test_invalid_distance_rejected(bad):
    with pytest.raises(ValueError):
        path_loss_rssi(bad, RadioParams())


def test_hears_at_five_metres():
    heard, rl = hears(Position(0.0, 0.0), Position(0.0, 5.0), RadioParams())
    assert heard
    assert rl == pytest.approx(-(45.0 + 40.0 * math.log10(5.0)), abs=1e-12)
    assert round(rl, 2) == -72.96


def test_out_of_range_at_twenty_metres():
    heard, rl = hears(Position(0.0, 0.0), Position(0.0, 20.0), RadioParams())
    assert not heard
    assert rl < -90.0


def test_colocated_nodes_clamp_and_hear():
    heard, rl = hears(Position(3.0, 4.0), Position(3.0, 4.0), RadioParams())
    assert heard
    assert rl == -45.0


def test_rssi_strictly_decreasing_with_distance():
    params = RadioParams()
    rssi = [path_loss_rssi(k / 10.0, params) for k in range(10, 300)]
    assert all(a > b for a, b in zip(rssi, rssi[1:]))


def test_symmetry_without_shadowing():
    params = RadioParams()
    rng = random.Random(1)
    for _ in range(200):
        a = Position(rng.uniform(-30, 30), rng.uniform(-30, 30))
        b = Position(rng.uniform(-30, 30), rng.uniform(-30, 30))
        assert hears(a, b, params)[1] == hears(b, a, params)[1]


finite = st.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None)
@given(a=st.tuples(finite, finite), b=st.tuples(finite, finite), noise=st.floats(-4.0, 4.0),
       radio=st.builds(RadioParams, tx_power_dbm=st.floats(-20.0, 10.0),
                       pl0_db=st.floats(1.0, 80.0), exponent=st.floats(0.5, 6.0),
                       rx_threshold_dbm=st.floats(-120.0, -30.0),
                       shadowing_sigma_db=st.floats(0.0, 10.0)))
def test_hears_is_path_loss_at_the_distance_bit_for_bit(a, b, noise, radio):
    a, b = Position(*a), Position(*b)
    rl = path_loss_rssi(max(dist(a, b), 1.0), radio, noise)
    assert hears(a, b, radio, noise) == (rl >= radio.rx_threshold_dbm, rl)


def test_range_boundary_on_grid():
    # 0.1 m grid: everything up to 13 m heard, everything from 14 m on not
    params = RadioParams()
    origin = Position(0.0, 0.0)
    for k in range(1, 131):
        assert hears(origin, Position(k / 10.0, 0.0), params)[0], f"d={k/10}"
    for k in range(140, 301):
        assert not hears(origin, Position(k / 10.0, 0.0), params)[0], f"d={k/10}"


def test_shadowing_shifts_by_sigma_times_draw():
    noisy = RadioParams(shadowing_sigma_db=6.0)
    base = path_loss_rssi(5.0, RadioParams())
    assert path_loss_rssi(5.0, noisy, noise_draw=1.0) == pytest.approx(base + 6.0)
    assert path_loss_rssi(5.0, noisy, noise_draw=-0.5) == pytest.approx(base - 3.0)


def test_max_range_matches_threshold():
    params = RadioParams()
    r = params.max_range_m()
    assert hears(Position(0, 0), Position(r - 0.01, 0), params)[0]
    assert not hears(Position(0, 0), Position(r + 0.01, 0), params)[0]


def test_dist():
    assert dist(Position(0, 0), Position(3, 4)) == 5.0


@pytest.mark.parametrize("kwargs", [
    {"exponent": 0.0},
    {"pl0_db": -1.0},
    {"rx_threshold_dbm": 5.0},
    {"shadowing_sigma_db": -1.0},
    {"shadowing_sigma_db": math.nan},  # used to silence every link
    # shadowing_sigma_db=inf used to attach training11's joiner straight to the sink
] + [{f.name: v} for f in fields(RadioParams) for v in (math.inf, -math.inf)])
def test_bad_radio_params_rejected(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        RadioParams(**kwargs)


@pytest.mark.parametrize("name", [f.name for f in fields(RadioParams)])
def test_radio_int_past_the_float_range_rejected_by_name(name):
    # exponent=10 ** 400 used to pass (10 ** 400 < inf) and overflow in hears
    for big in (10 ** 400, -10 ** 400):
        with pytest.raises(ValueError, match=name):
            RadioParams(**{name: big})


def test_non_finite_position_rejected():
    with pytest.raises(ValueError):
        Position(float("nan"), 0.0)


@pytest.mark.parametrize("coords", [(10 ** 400, 0.0), (0.0, -10 ** 400)])
def test_position_rejects_an_int_no_float_holds(coords):
    # math.isfinite raised OverflowError on these; they now fail by name, as a NaN does
    with pytest.raises(ValueError, match="position coordinates must be finite"):
        Position(*coords)


def test_overflowing_distance_is_out_of_range():
    # finite positions whose distance overflows a float; path_loss_rssi still rejects inf
    a, b = Position(1e308, 0.0), Position(-1e308, 0.0)
    assert dist(a, b) == math.inf
    assert hears(a, b, RadioParams()) == (False, -math.inf)
    with pytest.raises(ValueError):
        path_loss_rssi(dist(a, b), RadioParams())
