"""Portable deterministic random number generation.

Generator: xoshiro256++ (Blackman & Vigna), seeded by expanding the user
seed through splitmix64.  Uniform variates use the top 53 bits of each
64-bit output; normal variates use the Box-Muller transform; bounded
integers use unbiased rejection.  Any implementation of these well-known
algorithms reproduces the streams bit-for-bit, independent of language or
thread count.

`next_u64`, `uniform`, `normal` and `below` draw one value at a time and
define the streams.  The matrix helpers draw the very same values with
NumPy and leave the generator in the same state:

* Lanes.  The xoshiro256 state update is linear over GF(2)^256, so the
  state B steps ahead is T^B s for the 256x256 bit transition matrix T
  (jump-ahead; Haramoto et al., INFORMS J. Comput. 2008).  A run of draws
  is split into lanes of B = ``_LANE`` consecutive outputs.  Their start
  states are the rows of one (lanes, 4) uint64 array, filled by
  doubling: the first w rows moved through T^(B w) give the next w.  A
  power of T is kept as a byte table of 32 x 256 states, entry (p, v)
  being the image of the state whose byte p is v and whose other bytes
  are 0; a state moves by one gather of the 32 entries its bytes select,
  XORed together (linearity), in blocks that bound the gather's memory.
  The tables are built on first use, never on import, each power's from
  the one before.  All lanes are then stepped at once in uint64, and the
  outputs are read lane after lane.  Every run of draws pays a
  lane-start pass and up to ``_LANE`` steps, so `generate_synthetic`
  reserves the draws of its three helpers (`_reserve`), which then share
  one lane pass; the stream and the end state are as without it.
* Exact rejections.  `below` rejects a draw under (2^64 - b) mod b, and
  Box-Muller draws u1 again while it is 0.  Both are rare, but each one
  shifts the rest of the stream, so `_accepted` finds every rejection in
  a batch and reassigns the draws that follow it.  The threshold of
  `below` is under b, so the batch screens its draws against b and
  computes the threshold only for the draws under it (Lemire's
  nearly divisionless rejection, ACM TOMACS 2019): below 2 * 10^6 that
  is about one draw in 10^13.
* Fisher-Yates without a loop.  `sample_without_replacement` draws every
  step's target j[i] = i + below(population - i) at once and puts the
  steps in (target, step) order by one in-place sort of the packed int64
  keys (j[i] << w) | i, w being the bit width of count - 1, which a
  shift and a mask unpack (a stable argsort of j only when those keys
  would overflow int64, for populations near 2^63 / 2^w).  Each step
  then has a `parent`: the latest earlier step that wrote into its slot.
  A pick needs the chain of the latest earlier step with its target,
  and the complement, the values left in slots count..population - 1,
  the chain of the last step into each such slot; `_chase` follows just
  those, one link at a time while any entry moves.  The keys are built
  in the targets' own array, and masked selections gather through index
  arrays rather than boolean indexing, which is faster and, with arrays
  freed as soon as they are used, keeps the peak under 40 bytes per pick.
* Transcendentals from the C library.  `normal` takes `log`, `cos` and
  `sin` from `math`, which calls the C library's functions.  The matrix
  helper calls the same functions through ufunc loops: `log` as
  `scipy.special.xlogy(1.0, u)`, whose double loop returns 1 * log(u)
  from libm (exact, as the product is by 1), and float64 `np.cos` and
  `np.sin`, which NumPy 2.x loops over libm.  NumPy's own float64
  `np.log` is a SIMD kernel, not libm: on an AVX-512 host it disagreed
  with `math.log` in the last bit on 6,989 of 2,010,000 inputs u on the
  generator's lattice, which would change the normal stream.  The other
  steps (products, `sqrt`) are IEEE-exact and vectorize as they are.
  `tests/test_rng.py` checks all three loops against `math` bitwise.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
from scipy.special import xlogy

_MASK = (1 << 64) - 1
_LANE = 128  # stream positions per lane (a power of two)
_MIN_WINDOW = 64  # draws re-examined after a rejection, doubled when clean
_JUMP_BLOCK = 1 << 14  # lane starts per table gather (16 MB of rows)
_BYTE_ROWS = np.arange(32, dtype=np.intp) * 256  # table row of byte p, v = 0
_UNIT_ROWS = _BYTE_ROWS.repeat(8) + np.tile(1 << np.arange(8), 32)


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _MASK


def _step(S: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """One xoshiro256++ step of every lane of the (4, L) uint64 state S, in
    place; the L outputs go to `out`.  Same operations as `next_u64`."""
    s0, s1, s2, s3 = S
    np.add(s0, s3, out=out)
    np.left_shift(out, 23, out=tmp)
    np.right_shift(out, 41, out=out)
    np.bitwise_or(out, tmp, out=out)
    np.add(out, s0, out=out)
    np.left_shift(s1, 17, out=tmp)
    np.bitwise_xor(S[2:], S[:2], out=S[2:])  # s2 ^= s0; s3 ^= s1
    np.bitwise_xor(S[1::-1], S[2:], out=S[1::-1])  # s1 ^= s2; s0 ^= s3
    np.bitwise_xor(s2, tmp, out=s2)
    np.left_shift(s3, 45, out=tmp)
    np.right_shift(s3, 19, out=s3)
    np.bitwise_or(s3, tmp, out=s3)


def _table(images: np.ndarray) -> np.ndarray:
    """The byte table of a GF(2)-linear map of states, read-only, from
    `images`: the (256, 4) uint64 images of the unit states, image
    8 p + b being that of the state whose byte p is 1 << b (bytes in
    memory order).  Entry 256 p + v is the XOR of the images of the set
    bits of byte value v at byte position p, built by doubling over the
    bits of v."""
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    images = images.reshape(32, 8, 4)
    for b in range(8):
        np.bitwise_xor(table[:, :1 << b], images[:, b, None],
                       out=table[:, 1 << b:2 << b])
    table = table.reshape(32 * 256, 4)
    table.flags.writeable = False
    return table


def _apply(table: np.ndarray, states: np.ndarray, out: np.ndarray) -> None:
    """out = the (h, 4) uint64 `states` mapped through the byte `table`:
    one gather of the 32 entries that a state's bytes select, XORed down
    to one in five halving steps."""
    idx = states.view(np.uint8).astype(np.intp)  # (h, 32)
    idx += _BYTE_ROWS
    rows = np.take(table, idx, axis=0)  # (h, 32, 4)
    del idx
    half = 16
    while half:
        np.bitwise_xor(rows[:, :half], rows[:, half:2 * half],
                       out=rows[:, :half])
        half //= 2
    out[...] = rows[:, 0]


@functools.cache
def _jump(i: int) -> np.ndarray:
    """The byte table (`_table`) of T^(_LANE * 2^i), which moves a state
    2^i lanes ahead."""
    if i:
        # T^(2a) e = T^a (T^a e): the previous power's unit images,
        # which its table holds at byte values 1 << b, moved through it
        prev = _jump(i - 1)
        images = np.empty((256, 4), dtype=np.uint64)
        _apply(prev, prev[_UNIT_ROWS], images)
        return _table(images)
    # unit state r has bit r % 8 of byte r // 8 set
    units = np.packbits(np.eye(256, dtype=np.uint8), axis=1,
                        bitorder="little")
    images = units.view(np.uint64).T.copy()  # (4, 256)
    _step(images, np.empty(256, np.uint64), np.empty(256, np.uint64))
    images = images.T.copy()  # their images under T
    for _ in range(_LANE.bit_length() - 1):  # square up to T^_LANE
        _apply(_table(images), images, images)
    return _table(images)


def _lane_starts(state: list, lanes: int) -> np.ndarray:
    """(4, lanes) uint64 states _LANE steps apart, the first being `state`.

    Row l of `starts` holds lane l's start.  Each doubling moves the
    first w rows 2^i lanes ahead through `_jump(i)`, into rows w..2w - 1,
    in blocks of at most `_JUMP_BLOCK` rows, which bounds the gather."""
    starts = np.empty((lanes, 4), dtype=np.uint64)
    starts[0] = state
    for i in range((lanes - 1).bit_length()):
        w = 1 << i
        h = min(w, lanes - w)
        for a in range(0, h, _JUMP_BLOCK):
            b = min(h, a + _JUMP_BLOCK)
            _apply(_jump(i), starts[a:b], starts[w + a:w + b])
    # contiguous words: `_step` on a strided (4, lanes) view is ~7x slower
    return np.ascontiguousarray(starts.T)


def _to_unit(x: np.ndarray) -> np.ndarray:
    """uint64 draws -> uniforms on [0, 1), exactly as `uniform` maps them."""
    return (x >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _fisher_yates_steps(j: np.ndarray):
    """The steps of the partial Fisher-Yates shuffle of range(population)
    whose step i takes slot j[i] >= i and moves slot i's value into it, in
    (target, step) order: (sj, order, same, parent).  It overwrites j.

    Position p holds step order[p] with target sj[p], and same[p] tells
    whether position p + 1 has the same target.  The order comes from one
    in-place sort of the packed keys (j[i] << w) | i, built in j, w being
    the bit width of count - 1, which a shift and a mask split back into
    target and step.  Only when (max(j) + 1) << w exceeds 2**63, i.e. for
    populations near 2**63 / 2**w, is it a stable argsort of j instead,
    which keeps ties in step order.

    A step writes the value its own slot held when it ran: the one the
    latest earlier step targeting that slot wrote, and so on back to a
    step whose slot was never written, which holds its own index.
    parent[s] is that latest earlier step t < s with target s, else s.
    """
    count = len(j)
    w = (count - 1).bit_length()
    if count and (int(j.max()) + 1) << w > 1 << 63:
        order = np.argsort(j, kind="stable")
        sj = j[order]
    else:
        keys = np.left_shift(j, w, out=j)
        keys |= np.arange(count)
        keys.sort()
        order = keys & ((1 << w) - 1)
        sj = np.right_shift(keys, w, out=keys)
    same = sj[1:] == sj[:-1]
    early = (order < sj) & (sj < count)
    last = early.copy()
    last[:-1] &= ~(same & early[1:])
    del early
    at = np.flatnonzero(last)
    del last
    parent = np.arange(count)
    parent[sj.take(at)] = order.take(at)
    return sj, order, same, parent


def _chase(parent: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`values`, each step in it replaced in place by the root of its
    `parent` chain: one link a round, as many rounds as the longest."""
    moving = np.flatnonzero(parent[values] != values)
    while len(moving):
        up = parent[values[moving]]
        values[moving] = up
        moving = moving[parent[up] != up]
    return values


def _fisher_yates_picks(j: np.ndarray) -> np.ndarray:
    """picks[i] of the shuffle of `_fisher_yates_steps`: the value last
    written into slot j[i], by the latest earlier step with the same
    target, or j[i] if no earlier step targeted it.  `_chase` resolves
    the `parent` chains of those earlier steps only.  It overwrites j."""
    sj, order, same, parent = _fisher_yates_steps(j)
    sj[1:][same] = _chase(parent, np.compress(same, order[:-1]))
    del parent, same
    picks = np.empty_like(sj)
    picks[order] = sj
    return picks


def _fisher_yates_tail(j: np.ndarray):
    """(slots, values): the slots >= count that a step of the shuffle of
    `_fisher_yates_steps` targeted, and the values they end with, which
    the last steps into them wrote (`_chase` of those steps only); a tail
    slot no step targeted keeps its own index.  It overwrites j."""
    count = len(j)
    sj, order, same, parent = _fisher_yates_steps(j)
    tail = np.ones(count, dtype=bool)  # the last step per target ...
    tail[:-1] = ~same
    del same
    tail &= sj >= count  # ... of a tail slot
    at = np.flatnonzero(tail)
    del tail
    slots, values = sj.take(at), order.take(at)
    del sj, order, at
    return slots, _chase(parent, values)


class Xoshiro256pp:
    """xoshiro256++ with splitmix64 state expansion."""

    def __init__(self, seed: int):
        s = seed & _MASK
        state = []
        for _ in range(4):
            # splitmix64 step
            s = (s + 0x9E3779B97F4A7C15) & _MASK
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            state.append(z ^ (z >> 31))
        self._s = state
        self._spare_normal = None
        self._pending = 0  # outputs `_reserve` set aside for the next draw
        self._held = None  # the reserve's outputs, from `_used` on
        self._used = 0

    def next_u64(self) -> int:
        if self._held is not None or self._pending:
            return int(self._u64_stream(1)[0])
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK, 23) + s0) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """Uniform on [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def normal(self) -> float:
        """Standard normal via Box-Muller; one spare cached per pair."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = self.uniform()
        while u1 == 0.0:  # log(0) guard
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via unbiased rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = ((1 << 64) - bound) % bound
        while True:
            x = self.next_u64()
            if x >= threshold:
                return x % bound

    def _reserve(self, count: int) -> None:
        """Let the next draw take `count` outputs in one lane pass, and
        serve the draws after it from what it leaves over.  The outputs
        and the end state are those of the unreserved generator: `_s`
        runs ahead to the end of the reserve, and a draw past that end
        goes on from there."""
        if self._pending or self._held is not None:
            raise ValueError("the generator already holds a reserve")
        self._pending = count

    def _u64_stream(self, count: int) -> np.ndarray:
        """The next `count` outputs of `next_u64`, as a uint64 array."""
        if self._pending:
            self._held = self._lane_pass(max(count, self._pending))
            self._pending = 0
        if self._held is None:
            return self._lane_pass(count)
        head = self._held[self._used:self._used + count]
        self._used += len(head)
        if self._used == len(self._held):  # used up: release it
            self._held = None
            self._used = 0
        if len(head) == count:
            return head
        return np.concatenate([head, self._lane_pass(count - len(head))])

    def _lane_pass(self, count: int) -> np.ndarray:
        """The next `count` outputs from `_s`, all lanes stepped at once."""
        lanes = max(1, -(-count // _LANE))
        last = count - (lanes - 1) * _LANE  # steps taken by the last lane
        S = _lane_starts(self._s, lanes)
        out = np.empty((min(count, _LANE), lanes), dtype=np.uint64)
        tmp = np.empty(lanes, dtype=np.uint64)
        end = S[:, -1].copy()
        for t in range(len(out)):
            _step(S, out[t], tmp)
            if t == last - 1:
                end = S[:, -1].copy()
        self._s = [int(w) for w in end]
        return out.T.reshape(-1)[:count]

    def _accepted(self, screen: np.ndarray, exact=None) -> np.ndarray:
        """Draws for a run of rejection-sampled slots: slot i takes the
        first `next_u64` output >= its threshold after slot i - 1's draw.

        The threshold of slot i is screen[i], or, given `exact`, the
        entry for slot i of exact(idx), a function of an index array
        that is called only for the slots whose draw falls below the
        screen; that screen must then be at or above every threshold."""
        n = len(screen)
        out = np.empty(n, dtype=np.uint64)
        done = 0
        window = n
        while done < n:
            # one draw per open slot; each rejection leaves one slot open
            x = self._u64_stream(n - done)
            q = 0
            while q < len(x):
                width = min(len(x) - q, window)
                bad = np.flatnonzero(x[q:q + width]
                                     < screen[done:done + width])
                if exact is not None and len(bad):
                    bad = bad[x[q + bad] < exact(done + bad)]
                ok = int(bad[0]) if len(bad) else width
                out[done:done + ok] = x[q:q + ok]
                done += ok
                q += ok
                if len(bad):
                    q += 1  # the rejected draw
                    window = _MIN_WINDOW
                else:
                    window *= 2
        return out

    def uniform_matrix(self, rows: int, cols: int) -> np.ndarray:
        return _to_unit(self._u64_stream(rows * cols)).reshape(rows, cols)

    def normal_matrix(self, rows: int, cols: int, sigma: float = 1.0) -> np.ndarray:
        count = rows * cols
        out = np.empty(count)
        head = 0
        if count and self._spare_normal is not None:
            out[0] = self._spare_normal
            self._spare_normal = None
            head = 1
        pairs = -(-(count - head) // 2)
        thresholds = np.zeros(2 * pairs, dtype=np.uint64)
        thresholds[0::2] = 1 << 11  # u1 == 0 exactly when the draw is below
        u = _to_unit(self._accepted(thresholds))
        r = np.sqrt(-2.0 * xlogy(1.0, u[0::2]))
        angle = 2.0 * math.pi * u[1::2]
        z = np.empty(2 * pairs)
        np.multiply(r, np.cos(angle), out=z[0::2])
        np.multiply(r, np.sin(angle), out=z[1::2])
        out[head:] = z[:count - head]
        if (count - head) % 2:
            self._spare_normal = float(z[-1])
        return sigma * out.reshape(rows, cols)

    def sample_without_replacement(self, population: int, count: int, *,
                                   complement: bool = False) -> np.ndarray:
        """First `count` entries of a partial Fisher-Yates shuffle of
        range(population), as an int64 array.  Both are integers (not
        bools) with 0 <= count <= population < 2**63; TypeError or
        ValueError otherwise, naming the argument.

        With `complement=True`, the sorted values left in the other
        population - count slots instead: the same draws, and the
        generator ends in the same state."""
        for name, value in (("population", population), ("count", count)):
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise TypeError(f"{name} must be an integer, not "
                                f"{type(value).__name__}")
        population, count = int(population), int(count)
        if not 0 <= population < 1 << 63:
            raise ValueError("population must be in [0, 2**63)")
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > population:
            raise ValueError("cannot sample more than the population")
        bounds = np.arange(population, population - count, -1,
                           dtype=np.int64).view(np.uint64)
        # below(b) for every step: a draw under b is rejected only if it
        # is also under (2^64 - b) mod b, computed for those draws alone
        x = self._accepted(bounds, lambda i: np.negative(bounds[i])
                           % bounds[i])
        x %= bounds
        del bounds
        j = x.view(np.int64)  # j[i] = i + below(population - i)
        j += np.arange(count)
        if not complement:
            return _fisher_yates_picks(j)
        slots, values = _fisher_yates_tail(j)
        del j, x
        rest = np.zeros(population, dtype=bool)
        rest[count:] = True
        rest[slots] = False
        rest[values] = True
        return np.flatnonzero(rest)
