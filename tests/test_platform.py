"""The platform envelope: the library floats every golden digest rests on.

Each golden hashes trials whose floats come through three library paths:
the arrival gap -log(1.0 - u) through the log that engine imports, path
loss through hypot and log10 in channel.hears, and random.gauss in a
shadowed Links table. Each digest below pins one path alone, so on a
platform whose libm rounds one of them differently this file fails by
name, where the goldens would only all fail at once. The digests were
recorded with CPython 3.11.7 on x86-64 Linux, glibc 2.36.
"""

import hashlib
import math
import random
import struct

import pytest

from scatterjoin import engine
from scatterjoin.channel import Position, RadioParams, hears
from scatterjoin.engine import Links

ENVELOPE = {
    "log": "fc1d6258981a91f257d89b306e40f06c5ddc59c53b25ca9b605a2376dff184f2",
    "hears": "680943d402640e2a59e72d58df89e7224da8a9a469c8c49b7058e75e9b8bbdc2",
    "random.gauss": "f4f5060b54486df240fe1f3e03bf46e858073722355dd04be5b5c24d5e550fa1",
}


def digest(floats) -> str:
    """sha256 of the floats' IEEE doubles, little-endian, in order."""
    h = hashlib.sha256()
    for x in floats:
        h.update(struct.pack("<d", x))
    return h.hexdigest()


def arrival_gaps():
    """10^4 unit arrival gaps, drawn as the engine draws them."""
    rnd = random.Random("scatterjoin-envelope").random
    return [-engine.log(1.0 - rnd()) for _ in range(10_000)]


def hears_grid():
    """hears from the origin over a 60 x 60 grid of offsets, co-located to
    about 68 m, heard or not, with each link's rssi."""
    radio, here, out = RadioParams(), Position(0.0, 0.0), []
    for i in range(60):
        for j in range(60):
            heard, rssi = hears(here, Position(i * 0.9137, j * 0.7321), radio)
            out += [float(heard), rssi]
    return out


def shadowed_draws():
    """A shadowed Links table's standard-normal draws, in id order."""
    positions = {nid: Position(3.0 * nid, 0.0) for nid in range(1, 17)}
    links = Links(positions, RadioParams(shadowing_sigma_db=4.0), seed=7)
    return list(links._draws.values())


PATHS = {"log": arrival_gaps, "hears": hears_grid, "random.gauss": shadowed_draws}


def check(name: str) -> None:
    got = digest(PATHS[name]())
    assert got == ENVELOPE[name], (
        f"{name}: digest {got} is not the recorded {ENVELOPE[name]}; this platform's "
        "libm differs from the one the goldens were recorded on (see this module's "
        "docstring), so the golden digests cannot hold here either")


@pytest.mark.parametrize("name", sorted(PATHS))
def test_platform_floats_match_the_recorded_envelope(name):
    check(name)


def test_a_log_one_ulp_off_fails_by_name(monkeypatch):
    calls = []

    def off_by_one_ulp(x):
        calls.append(x)
        y = math.log(x)
        return math.nextafter(y, math.inf) if len(calls) == 5000 else y

    monkeypatch.setattr(engine, "log", off_by_one_ulp)
    with pytest.raises(AssertionError, match=r"^log: .*libm differs"):
        check("log")
    assert len(calls) == 10_000
