"""Deterministic random-number streams.

Each component derives an independent stream from a root seed and a label,
so adding randomness to one component never perturbs another — a standard
trick for reproducible distributed-systems simulation.
"""

import hashlib
import random

import numpy as _np


def derive_seed(root_seed, label):
    """Derive a stable 64-bit seed from ``root_seed`` and a string label."""
    digest = hashlib.sha256(
        ("%d/%s" % (root_seed, label)).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


class SeededStream:
    """A labelled, independently seeded wrapper around :class:`random.Random`."""

    def __init__(self, root_seed, label):
        self.label = label
        self._rng = random.Random(derive_seed(root_seed, label))

    def uniform(self, lo, hi):
        return self._rng.uniform(lo, hi)

    def expovariate(self, rate):
        return self._rng.expovariate(rate)

    def gauss(self, mu, sigma):
        return self._rng.gauss(mu, sigma)

    def randint(self, lo, hi):
        return self._rng.randint(lo, hi)

    def randbytes(self, n):
        return bytes(self._rng.getrandbits(8) for _ in range(n))

    def choice(self, seq):
        return self._rng.choice(seq)

    def sample(self, population, k):
        """``k`` distinct elements of ``population`` (no replacement)."""
        return self._rng.sample(population, k)

    def shuffle(self, seq):
        self._rng.shuffle(seq)

    def random(self):
        return self._rng.random()

    def randoms(self, n):
        """``n`` successive :meth:`random` draws as a float64 array.

        Bit for bit the scalar draws, and the stream is left where they
        would leave it. One ``getrandbits(64 * n)`` call hands out the
        next 2n MT19937 words, least significant first, and each double
        is rebuilt from its word pair with CPython's own ``random()``
        formula, which is exact in float64.
        """
        if n <= 0:
            return _np.empty(0)
        words = _np.frombuffer(
            self._rng.getrandbits(64 * n).to_bytes(8 * n, "little"),
            dtype="<u4",
        )
        return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) \
            * (1.0 / 9007199254740992.0)

    def jitter(self, value, fraction):
        """Return ``value`` perturbed by up to ±``fraction`` of itself."""
        if fraction <= 0:
            return value
        return value * self._rng.uniform(1.0 - fraction, 1.0 + fraction)
