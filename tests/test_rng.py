"""`visiplan.rng.Rng` against numpy's `default_rng`, draw for draw.

The twin must give the bits numpy gives under the same seed, since every
random forest and target walk depends on them: each scalar `uniform` call,
and each row of three calls that stands in for a `(n, 3)` array draw.
"""

import struct

import numpy as np
from hypothesis import example, given, strategies as st

from visiplan.rng import Rng


def _bits(x) -> bytes:
    return struct.pack("<d", x)


_BOUNDS = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2).map(sorted)
# a draw is one scalar call or one row of three
_DRAWS = st.lists(st.one_of(_BOUNDS, st.lists(_BOUNDS, min_size=3,
                                               max_size=3)), max_size=12)
_FIXED_DRAWS = [[0.0, 1.0], [[0.0, 20.0], [0.0, 20.0], [0.25, 0.55]],
                [-1.6, 1.6], [2.0, 5.0]]


@given(seed=st.integers(0, 2 ** 256), draws=_DRAWS)
@example(seed=0, draws=_FIXED_DRAWS)
@example(seed=2 ** 32 - 1, draws=_FIXED_DRAWS)
@example(seed=2 ** 32, draws=_FIXED_DRAWS)
@example(seed=2 ** 64 - 1, draws=_FIXED_DRAWS)
@example(seed=2 ** 64, draws=_FIXED_DRAWS)
@example(seed=np.int64(2 ** 63 - 1), draws=_FIXED_DRAWS)
def test_draws_the_bits_of_default_rng(seed, draws):
    want, got = np.random.default_rng(seed), Rng(seed)
    for draw in draws:
        if isinstance(draw[0], list):
            lows, highs = zip(*draw)
            expected = want.uniform(lows, highs, size=(1, 3))[0].tolist()
            drawn = [got.uniform(low, high) for low, high in draw]
        else:
            expected = [want.uniform(*draw)]
            drawn = [got.uniform(*draw)]
        assert list(map(_bits, drawn)) == list(map(_bits, expected))


def test_draws_are_python_floats():
    rng = Rng(np.int64(7))
    for low, high in [(0, 1), (np.float64(-2.0), np.float64(3.0)),
                      (0.25, 0.55)]:
        assert type(rng.uniform(low, high)) is float
    assert type(rng.random()) is float
