"""Deterministic pseudo-random numbers for reproducible training.

The stack is fixed so that a recorded 64-bit seed pins every downstream
draw: seeds are derived with the splitmix64 mixing step, and streams are
produced by xoshiro256** whose four state words come from a splitmix64
expansion of the seed.  Python's own ``random`` module is deliberately not
used anywhere in training paths.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def splitmix64(x: int) -> int:
    """One splitmix64 step: advance ``x`` by the golden gamma and mix.

    Used for deriving child seeds (e.g. per-member or per-invocation seeds)
    from a parent seed, so related streams are decorrelated but fully
    determined by the parent value.
    """
    return _mix64((x + _GOLDEN) & MASK64)


def to_signed64(x: int) -> int:
    """Reinterpret an unsigned 64-bit value as two's-complement signed."""
    x &= MASK64
    return x - (1 << 64) if x >= (1 << 63) else x


def to_unsigned64(x: int) -> int:
    """Inverse of :func:`to_signed64`."""
    return x & MASK64


class Xoshiro256StarStar:
    """xoshiro256** generator with splitmix64 seed expansion."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        s = seed & MASK64
        state = []
        for _ in range(4):
            s = (s + _GOLDEN) & MASK64
            state.append(_mix64(s))
        self._s = state

    def next_u64(self) -> int:
        """The next output: one step of :meth:`u64s`, without its list."""
        s = self._s
        s0, s1, s2, s3 = s
        r = (s1 * 5) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s[2] = s2 ^ t
        s[1] = s1 ^ s2
        s[0] = s0 ^ s3
        s[3] = ((s3 << 45) | (s3 >> 19)) & MASK64
        return (((r << 7) | (r >> 57)) & MASK64) * 9 & MASK64

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via the multiply-shift reduction."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.next_u64() * bound) >> 64

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def u64s(self, count: int) -> list[int]:
        """The next ``count`` outputs, drawn in one loop over the four state
        words held in locals: ``rotl(s1 * 5, 7) * 9`` of each state, then
        the xoshiro256 step, all modulo 2**64."""
        s0, s1, s2, s3 = self._s
        out = []
        append = out.append
        for _ in range(count):
            r = (s1 * 5) & MASK64
            append((((r << 7) | (r >> 57)) & MASK64) * 9 & MASK64)
            t = (s1 << 17) & MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self._s[:] = (s0, s1, s2, s3)
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, consuming len(items) - 1 draws."""
        for i, u in zip(range(len(items) - 1, 0, -1), self.u64s(len(items) - 1)):
            j = (u * (i + 1)) >> 64
            items[i], items[j] = items[j], items[i]

    def sample_prefix(self, n: int, k: int) -> list[int]:
        """First ``k`` entries of a partial Fisher-Yates pass over range(n).

        Draws exactly ``k`` values, giving a uniform sample of k distinct
        indices without shuffling the whole range.
        """
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = list(range(n))
        for i, u in enumerate(self.u64s(k)):
            j = i + ((u * (n - i)) >> 64)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
