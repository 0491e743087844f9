"""An exact pure-Python twin of numpy's ``default_rng``.

``Rng(seed)`` draws the bits of numpy's default generator under the same
non-negative int seed: PCG64 (XSL-RR output over a 128-bit LCG; O'Neill,
"PCG: A Family of Simple Fast Space-Efficient Statistically Good Algorithms
for Random Number Generation", HMC-CS-2014-0905), seeded through numpy's
``SeedSequence`` hash. Each step below follows numpy's code, so a scenario
seed gives the maps and walks it gave when they drew from numpy, while a
run never imports numpy's random package (its extension modules and
OpenSSL cost every process about 14 ms and a few MB of resident memory).
"""

from __future__ import annotations

import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875       # SeedSequence's entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED       # ... and its output hash
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """SeedSequence's state words: 8 uint32 from the seed's 32-bit words."""
    words = [seed & _M32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _M32)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ r >> _XSHIFT

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        state.append(value ^ value >> _XSHIFT)
    return state


class Rng:
    """The draws of numpy's ``default_rng(seed)``, as Python floats."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        w = _seed_words(seed)
        # the words as 4 little-endian uint64: initstate is the first two,
        # initseq the last two, each high word first
        initstate, initseq = (w[k] << 64 | w[k + 1] << 96 | w[k + 2]
                              | w[k + 3] << 32 for k in (0, 4))
        inc = self._inc = (initseq << 1 | 1) & _M128
        # from state 0: step, add initstate, step
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _M128

    def random(self) -> float:
        """Steps the LCG; the top 53 bits of its XSL-RR output as a float
        in [0, 1)."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return (((x >> rot | x << (-rot & 63)) & _M64) >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float) -> float:
        """One draw in [low, high), by numpy's formula."""
        low, high = float(low), float(high)
        return low + (high - low) * self.random()
