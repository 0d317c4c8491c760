"""numpy's ``Generator(PCG64(seed))`` stream, bit for bit, in pure Python.

Seeding follows numpy's ``SeedSequence``: the seed's 32-bit words are
hashed into a four-word pool, and the pool yields the generator's 128-bit
state and increment.  The generator is PCG64 with XSL-RR output (O'Neill,
"PCG: A family of simple fast space-efficient statistically good
algorithms for random number generation", HMC-CS-2014-0905).  Bounded
draws use Lemire's multiply-and-reject ("Fast random integer generation
in an interval", ACM TOMACS 29, 2019), as numpy's do.  Only the four
methods the package calls are here, each drawing exactly what numpy's
method of the same name draws; ``tests/test_rng.py`` checks them against
numpy itself.
"""

from __future__ import annotations

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants and pool size.
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4


def _seed_state(seed: int) -> list[int]:
    """Four 64-bit words from ``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError(f"expected a non-negative seed, got {seed}")
    entropy = [seed & MASK32]  # the seed's 32-bit words, least significant first
    while seed > MASK32:
        seed >>= 32
        entropy.append(seed & MASK32)
    hash_const = INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = INIT_B
    out = []
    for i in range(2 * POOL_SIZE):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const & MASK32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 2 * POOL_SIZE, 2)]


class PCG64:
    """numpy's ``Generator(PCG64(seed))`` for any non-negative int ``seed``.

    ``next32`` hands out the two halves of one ``next64``, low half first;
    the spare half stays buffered across calls, and ``next64`` leaves it
    alone, as numpy's bit generator does.
    """

    __slots__ = ("state", "inc", "spare")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_state(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & MASK128
        self.state = 0
        self.next64()
        self.state = (self.state + (s0 << 64 | s1)) & MASK128
        self.next64()
        self.spare = None

    def next64(self) -> int:
        s = self.state = (self.state * PCG_MULT + self.inc) & MASK128
        rot = s >> 122
        x = (s >> 64 ^ s) & MASK64
        return (x >> rot | x << (64 - rot)) & MASK64

    def next32(self) -> int:
        if self.spare is not None:
            x, self.spare = self.spare, None
            return x
        x = self.next64()
        self.spare = x >> 32
        return x & MASK32

    def _bounded(self, top: int) -> int:
        """Uniform in [0, top] for top < 2^32 - 1: numpy's 32-bit Lemire draw, none for top 0."""
        if not top:
            return 0
        bound = top + 1
        m = self.next32() * bound
        if m & MASK32 < bound:
            threshold = (1 << 32) % bound
            while m & MASK32 < threshold:
                m = self.next32() * bound
        return m >> 32

    def random(self, size: int) -> list[float]:
        """``size`` uniform floats in [0, 1): the top 53 bits of each ``next64``."""
        return [(self.next64() >> 11) * 2.0**-53 for _ in range(size)]

    def integers(self, low: int, high: int, size: int) -> list[int]:
        """``size`` uniform ints in [low, high), for 0 < high - low < 2^32."""
        if not 0 < high - low < 1 << 32:
            raise ValueError(f"need 0 < high - low < 2^32, got [{low}, {high})")
        top = high - low - 1
        return [low + self._bounded(top) for _ in range(size)]

    def permutation(self, n: int) -> list[int]:
        """A uniform permutation of range(n): Fisher-Yates with masked rejection."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self.next32() & mask
            while j > i:
                j = self.next32() & mask
            out[i], out[j] = out[j], out[i]
        return out

    def choice(self, n: int, size: int) -> list[int]:
        """numpy's ``choice(n, size, replace=False)``: ``size`` distinct elements of range(n).

        Floyd's algorithm picks the set, one Lemire draw per j in
        [n - size, n), and a Lemire Fisher-Yates orders it.  numpy takes
        this branch whenever n <= 10,000, which covers every vertex count
        the package accepts.
        """
        if not 0 <= size <= n <= 10_000:
            raise ValueError(f"need 0 <= size <= n <= 10000, got size={size}, n={n}")
        seen: set[int] = set()
        out = []
        for j in range(n - size, n):
            v = self._bounded(j)
            if v in seen:
                v = j
            seen.add(v)
            out.append(v)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            out[i], out[j] = out[j], out[i]
        return out
