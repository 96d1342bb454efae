"""Seeded randomness with labeled stream splitting.

All stochastic draws in the package flow through Philox-4x64 generators
named by (master seed, label tuple).  Philox is counter-based: its raw output
is a fixed function of a 128-bit key and a 256-bit counter, the same on
every platform.  So a (config, seed) pair pins every sampled number in a run
for a fixed numpy version, whatever the worker count.

Key and counter layout of ``stream(seed, *label)``:

    key      SeedSequence(seed).generate_state(2, uint64), computed once per
             seed and kept in a bounded cache
    word 0   Philox's block counter; starts at 0 and advances as the stream
             is drawn from, so streams overlap only after 2**64 blocks
    words 1-3  the 192-bit integer  m + sum_i label[i] * 2**(4 + 40 i)
             for a label of m <= 4 words, word 1 holding the low 64 bits,
             all four given by ``_label_counter`` as Python ints

The fields of the packed label do not overlap, so distinct labels, including
labels of different lengths such as (1,) and (1, 0), give distinct counters.
A label of more than ``LABEL_WORDS`` words, or with a word outside
[0, 2**LABEL_WORD_BITS), raises ``DomainError``; no word is truncated.

Label layout used by the drivers (all labels are small non-negative ints):

    (STREAM_INIT,)                      parameter initialization for a run
    (STREAM_LOSS,)                      every shot of a sampled run without
                                        common random numbers (CRN), in order
    (STREAM_LOSS, epoch)                under CRN: an epoch's recorded loss
    (STREAM_GRAD, epoch, i, 0)          under CRN: both shifts of parameter i
    (STREAM_PARITY,)                    every parity shot of a baseline run,
                                        step after step
    (STREAM_REPLICA, r)                 derived per-replica seeds in sweeps
    (STREAM_STAGE, k)                   derived per-stage seeds in cascades

A baseline draws from no label that an optimizer run uses, so the two modes
under one seed share no stream.

A seed or label word that is not a Python or numpy int (1.5, or even 1.0)
raises ``DomainError``.  ``derive_seed`` still hashes (seed, label) through a
SeedSequence; it runs once per replica or stage, not once per draw.
``Streams`` serves the rows of an optimizer's lockstep batch: it builds one
generator and one state dict per row when the batch starts, and ``at``
resets the rows' generators to a label through ``bit_generator.state``,
constructing nothing.
"""

import operator
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

STREAM_INIT = 0
STREAM_LOSS = 1
STREAM_GRAD = 2
STREAM_PARITY = 3
# the labels keep their values because derived seeds depend on them
STREAM_REPLICA = 4
STREAM_STAGE = 5

LABEL_WORDS = 4
LABEL_WORD_BITS = 40
_LENGTH_BITS = 4
_WORD_LIMIT = 1 << LABEL_WORD_BITS
_WORD_MASK = (1 << 64) - 1


class _PhiloxKey(ISeedSequence):
    """The 128-bit Philox key of one seed, handed to ``Philox`` as its seed.

    ``Philox(key=...)`` would still build an unused SeedSequence from OS
    entropy on every call; this object only returns the stored key.
    """

    __slots__ = ("words",)

    def __init__(self, seed):
        self.words = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        self.words.flags.writeable = False

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise DomainError(f"a Philox key is 2 uint64 words, not {n_words} of {dtype}")
        return self.words


def _integer(x, what):
    """``x`` as a Python int if it is a Python or numpy int; anything else, an integral float too, raises."""
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {x!r}") from None


@lru_cache(maxsize=128)
def _philox_key(seed):
    # the caller passes a Python int: the cache would take 5.0 for a 5 it holds
    return _PhiloxKey(seed)


def _label_counter(key):
    """The Philox counter for a label, as 4 Python ints (see the module docstring)."""
    if len(key) > LABEL_WORDS:
        raise DomainError(f"a stream label has at most {LABEL_WORDS} words, got {key}")
    packed = len(key)
    shift = _LENGTH_BITS
    for word in key:
        word = _integer(word, "a stream label word")
        if not 0 <= word < _WORD_LIMIT:
            raise DomainError(f"stream label words must lie in [0, 2**{LABEL_WORD_BITS}), got {key}")
        packed |= word << shift
        shift += LABEL_WORD_BITS
    return [0, packed & _WORD_MASK, packed >> 64 & _WORD_MASK, packed >> 128]


def stream(seed, *key):
    """Generator for the stream identified by (seed, key)."""
    counter = np.array(_label_counter(key), np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key(_integer(seed, "a seed")), counter=counter))


class Streams:
    """``stream(seed, *label)`` for each of a fixed list of seeds, drawn row by row.

    Each row keeps one generator for the life of the batch, and the state
    dict of a fresh Philox with the row's key.  ``at`` sets the dict's
    counter to the label's and assigns the dict to the generator's
    ``bit_generator.state``, which copies it.  Philox's output depends on
    nothing else, so the generator then draws what a new ``stream(seed,
    *label)`` draws.
    """

    def __init__(self, seeds):
        keys = [_philox_key(_integer(seed, "a seed")) for seed in seeds]
        self._gens = [np.random.Generator(np.random.Philox(key)) for key in keys]
        # a fresh Philox's output buffer: 4 words, all consumed, and no cached 32-bit half
        self._states = [
            {"bit_generator": "Philox", "state": {"counter": None, "key": key.words.tolist()},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            for key in keys
        ]

    def at(self, rows, label):
        """The kept generators of the distinct ``rows``, in their order, each moved to ``label``.

        The generator of ``rows[j]`` equals ``stream(seed, *label)`` until it
        draws or the next ``at`` moves it.
        """
        if len(set(rows)) < len(rows):
            raise DomainError(f"row {next(r for r in rows if rows.count(r) > 1)} repeated in {rows}")
        counter = _label_counter(label)
        gens, states = self._gens, self._states
        for r in rows:
            states[r]["state"]["counter"] = counter
            gens[r].bit_generator.state = states[r]
        return [gens[r] for r in rows]


def derive_seed(seed, *key):
    """Deterministic 63-bit child seed for a labeled sub-experiment."""
    spawn_key = tuple(_integer(k, "a label word") for k in key)
    ss = np.random.SeedSequence(entropy=_integer(seed, "a seed"), spawn_key=spawn_key)
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))
