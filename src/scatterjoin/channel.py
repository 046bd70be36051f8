"""Log-distance path-loss channel: who hears whom, and how loudly.

RSSI at the receiver is tx_power - (pl0 + 10*n*log10(d)) plus optional
log-normal shadowing. The defaults (pl0=45 dB, n=4.0, threshold -90 dBm)
give a maximum link range of ~13.3 m, the short indoor range typical of
single-hop BLE.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class RadioParams:
    """Propagation constants shared by every link in a scenario."""

    tx_power_dbm: float = 0.0
    pl0_db: float = 45.0  # path loss at the 1 m reference distance
    exponent: float = 4.0
    rx_threshold_dbm: float = -90.0
    shadowing_sigma_db: float = 0.0

    def __post_init__(self):
        if not self.exponent > 0:
            raise ValueError("path-loss exponent must be > 0")
        if not self.pl0_db > 0:
            raise ValueError("pl0_db must be > 0")
        if not self.rx_threshold_dbm < self.tx_power_dbm:
            raise ValueError("rx_threshold_dbm must be below tx_power_dbm")
        if not self.shadowing_sigma_db >= 0:
            raise ValueError("shadowing_sigma_db must be >= 0")
        for f in fields(self):  # an infinity, or an int no float holds, passes the bounds
            if not abs(getattr(self, f.name)) <= sys.float_info.max:  # above but breaks every link
                raise ValueError(f"{f.name} must be finite")

    def max_range_m(self) -> float:
        """Largest distance still heard with shadowing off."""
        budget = self.tx_power_dbm - self.rx_threshold_dbm - self.pl0_db
        return 10.0 ** (budget / (10.0 * self.exponent))


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("position coordinates must be finite")


def dist(a: Position, b: Position) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def path_loss_rssi(distance_m: float, params: RadioParams, noise_draw: float = 0.0) -> float:
    """RSSI in dBm at distance_m.

    noise_draw is a standard-normal sample scaled by shadowing_sigma_db
    (irrelevant when sigma is 0). Distances below 1 m are clamped to 1 m
    to dodge the near-field singularity.
    """
    if not math.isfinite(distance_m) or distance_m <= 0:
        raise ValueError(f"distance must be positive and finite, got {distance_m!r}")
    d = max(distance_m, 1.0)
    pl = params.pl0_db + 10.0 * params.exponent * math.log10(d)
    return params.tx_power_dbm - pl + params.shadowing_sigma_db * noise_draw


def hears(a: Position, b: Position, params: RadioParams,
          noise_draw: float = 0.0) -> tuple[bool, float]:
    """Whether b's signal at a (or vice versa) clears the receive threshold.

    Returns (heard, rssi_dbm). Co-located nodes count as 1 m apart, and
    nodes too far apart for a float distance are out of range. The rssi
    is path_loss_rssi's at max(dist(a, b), 1.0), bit for bit, worked out
    inline: hears runs once per link of every layout, and positions are
    finite, so the checks and calls it skips could never fire.
    """
    d = math.hypot(a.x - b.x, a.y - b.y)
    if d < 1.0:
        d = 1.0
    elif d == math.inf:
        return False, -math.inf
    pl = params.pl0_db + 10.0 * params.exponent * math.log10(d)
    rl = params.tx_power_dbm - pl + params.shadowing_sigma_db * noise_draw
    return rl >= params.rx_threshold_dbm, rl
