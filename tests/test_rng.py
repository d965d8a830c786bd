import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mpadmm import rng
from mpadmm.rng import Xoshiro256pp

MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _reference_stream(seed, count):
    """Independent reimplementation with numpy uint64 wrap-around."""
    with np.errstate(over="ignore"):
        s = np.uint64(seed)
        state = []
        for _ in range(4):
            s = s + np.uint64(0x9E3779B97F4A7C15)
            z = s
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            state.append(z ^ (z >> np.uint64(31)))

        def rotl(x, r):
            return (x << np.uint64(r)) | (x >> np.uint64(64 - r))

        out = []
        for _ in range(count):
            s0, s1, s2, s3 = state
            out.append(int(rotl(s0 + s3, 23) + s0))
            t = s1 << np.uint64(17)
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = rotl(s3, 45)
            state = [s0, s1, s2, s3]
        return out


def test_stream_matches_independent_reimplementation():
    for seed in (0, 1, 12345, 2 ** 63):
        gen = Xoshiro256pp(seed)
        got = [gen.next_u64() for _ in range(50)]
        assert got == _reference_stream(seed, 50)


def test_determinism_same_seed():
    a = Xoshiro256pp(7)
    b = Xoshiro256pp(7)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_uniform_range_and_resolution():
    gen = Xoshiro256pp(3)
    vals = [gen.uniform() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(np.mean(vals) - 0.5) < 0.05


def test_normal_moments():
    gen = Xoshiro256pp(4)
    vals = np.array([gen.normal() for _ in range(4000)])
    assert abs(vals.mean()) < 0.08
    assert abs(vals.std() - 1.0) < 0.08


def test_below_bounds_and_rejection():
    gen = Xoshiro256pp(5)
    for bound in (1, 2, 7, 1000):
        vals = [gen.below(bound) for _ in range(200)]
        assert all(0 <= v < bound for v in vals)
    with pytest.raises(ValueError):
        gen.below(0)


def test_sample_without_replacement():
    gen = Xoshiro256pp(6)
    picks = gen.sample_without_replacement(100, 30)
    assert len(picks) == 30
    assert len(set(picks)) == 30
    assert all(0 <= p < 100 for p in picks)
    # full-population sample is a permutation
    gen = Xoshiro256pp(6)
    perm = gen.sample_without_replacement(50, 50)
    assert sorted(perm) == list(range(50))
    with pytest.raises(ValueError):
        Xoshiro256pp(0).sample_without_replacement(3, 4)


def test_matrix_helpers_shapes():
    gen = Xoshiro256pp(8)
    U = gen.uniform_matrix(4, 3)
    N = gen.normal_matrix(2, 5, sigma=2.0)
    assert U.shape == (4, 3) and N.shape == (2, 5)
    assert np.all((U >= 0) & (U < 1))


# Loops over the scalar primitives: the reference for the matrix helpers.

def _loop_uniform(gen, rows, cols):
    return np.array([gen.uniform() for _ in range(rows * cols)]).reshape(
        rows, cols)


def _loop_normal(gen, rows, cols, sigma=1.0):
    vals = np.array([gen.normal() for _ in range(rows * cols)])
    return sigma * vals.reshape(rows, cols)


def _loop_picks(j):
    """The picks of the shuffle whose step i swaps slots i and j[i], by
    the scalar loop."""
    swapped = {}
    picks = []
    for i, target in enumerate(j):
        picks.append(swapped.get(target, target))
        swapped[target] = swapped.get(i, i)
    return picks


def _loop_sample(gen, population, count):
    return _loop_picks([i + gen.below(population - i) for i in range(count)])


def _assert_same_state(a, b):
    assert a._s == b._s
    assert a._spare_normal == b._spare_normal


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("count", [
    0, 1, rng._LANE - 1, rng._LANE, rng._LANE + 1, 3 * rng._LANE + 1,
    40 * rng._LANE + 3])
def test_uniform_matrix_matches_scalar_loop(count):
    # counts around the lane length, and one spanning several lane jumps
    a, b = Xoshiro256pp(21), Xoshiro256pp(21)
    assert np.array_equal(a.uniform_matrix(count, 1),
                          _loop_uniform(b, count, 1))
    _assert_same_state(a, b)
    assert a.next_u64() == b.next_u64()


# The digests pinned in test_data.py leave Y out, so "protocol-noise" (the
# n = 1000, d = 150 noise of the `protocol` instance) pins it to `normal`.
@pytest.mark.parametrize("shape", [
    (3, 5), (4, 5), (1, 1), (0, 4), (61, 9), (1000, 150), (1001, 149)],
    ids=["odd", "even", "one", "empty", "many-lanes", "protocol-noise",
         "odd-large"])
@pytest.mark.parametrize("spare", [False, True])
def test_normal_matrix_matches_scalar_loop(shape, spare):
    a, b = Xoshiro256pp(22), Xoshiro256pp(22)
    if spare:  # leave a cached Box-Muller spare behind
        assert a.normal() == b.normal()
    assert np.array_equal(_bits(a.normal_matrix(*shape, sigma=2.0)),
                          _bits(_loop_normal(b, *shape, sigma=2.0)))
    _assert_same_state(a, b)
    assert a.normal() == b.normal()


def test_box_muller_loops_equal_math_bitwise():
    """`normal_matrix` takes log, cos and sin through ufunc loops and
    `normal` through `math`; the streams agree only if each loop returns
    what `math` returns, bit for bit.  The inputs are uniforms as the
    generator makes them, u = k 2^-53: 10^6 seeded ones plus the first
    and last 5,000 lattice points.  log(u) is `xlogy(1, u)`, and cos and
    sin take the angle 2 pi u.  NumPy's float64 cos and sin loop over
    libm in this build; a NumPy that vectorizes them (as it vectorizes
    float64 log) would drift from `math` in the last bit, and must fail
    here rather than change the normal stream silently."""
    top = 1 << 53
    k = np.concatenate([
        np.arange(1, 5001), np.arange(top - 5000, top),
        np.random.default_rng(31).integers(1, top, size=10 ** 6)])
    u = k.astype(np.float64) * 2.0 ** -53
    assert np.array_equal(_bits(rng.xlogy(1.0, u)),
                          _bits(list(map(math.log, u.tolist()))))
    angle = 2.0 * math.pi * u
    for loop, scalar in ((np.cos, math.cos), (np.sin, math.sin)):
        assert np.array_equal(_bits(loop(angle)),
                              _bits(list(map(scalar, angle.tolist()))))


@pytest.mark.parametrize("population,count", [
    (50, 45), (1000, 900), (10 ** 4, 9999), (50, 50), (7, 0), (3000, 1),
    (2 * 10 ** 4, 10 ** 4)])
def test_sample_without_replacement_matches_scalar_loop(population, count):
    a, b = Xoshiro256pp(23), Xoshiro256pp(23)
    picks = a.sample_without_replacement(population, count)
    assert picks.dtype == np.int64
    assert picks.tolist() == _loop_sample(b, population, count)
    _assert_same_state(a, b)


@pytest.mark.parametrize("population,seed,least_draws", [
    (2 ** 62 + 1, 3, 201), (2 ** 62 + 201, 24, 230),
    (2 ** 62 + 1001, 24, 1250), (3 * 2 ** 61 + 5, 25, 330)])
def test_below_rejections_reindex_the_stream(population, seed, least_draws):
    # below(b) rejects draws under (2^64 - b) mod b, which is about 2^62,
    # a quarter of all draws, for 2^62 < b < 2^62 + 2^60.  With 2^62 + 1
    # only step 0 has such a bound (seed 3 rejects its first draw); with
    # 2^62 + 201 every step has, and each rejection shifts all later draws.
    # With 2^62 + 1001 and 1000 steps, one pass rejects more draws than a
    # lane holds, and the next pass draws over several lanes.  At
    # b = 3 2^61 + 5 - i the threshold is 2^62 - 10 + 2 i, so a draw under
    # the screen b is accepted about one time in three
    count = {2 ** 62 + 1001: 1000, 3 * 2 ** 61 + 5: 300}.get(population,
                                                              200)
    a, b = Xoshiro256pp(seed), Xoshiro256pp(seed)
    draws = []
    scalar = b.next_u64

    def counted():
        draws.append(scalar())
        return draws[-1]

    b.next_u64 = counted
    picks = a.sample_without_replacement(population, count)
    assert picks.tolist() == _loop_sample(b, population, count)
    assert len(draws) >= least_draws
    _assert_same_state(a, b)
    if population == 3 * 2 ** 61 + 5:
        screened_in = sum(2 ** 62 + 600 <= x < 3 * 2 ** 61 - 300
                          for x in draws)
        rejected = sum(x < 2 ** 62 - 10 for x in draws)
        assert screened_in >= count // 16 and rejected >= count // 8


@pytest.mark.parametrize("population,count,computed", [
    (2_000_000, 1_000_000, False), (3 * 2 ** 61 + 5, 300, True)])
def test_exact_thresholds_only_below_the_screen(population, count, computed,
                                                monkeypatch):
    # below(b)'s threshold (2^64 - b) mod b is under b, so only a draw
    # under b needs it; at b <= 2 10^6 one draw in about 10^13 is
    calls = []
    accepted = Xoshiro256pp._accepted

    def spy(self, screen, exact=None):
        def counted(idx):
            calls.append(len(idx))
            return exact(idx)
        return accepted(self, screen, exact and counted)

    monkeypatch.setattr(Xoshiro256pp, "_accepted", spy)
    Xoshiro256pp(26).sample_without_replacement(
        population, count, complement=population < 2 ** 32)
    assert bool(calls) == computed


def _first_draw_below(population, value, seed=31):
    """A generator whose first below(population) returns `value`: with
    s0 = 0 the next output is rotl(s3, 23), so s3 sets it freely."""
    gen = Xoshiro256pp(seed)
    x = value + population  # at or above below's rejection threshold
    gen._s = [0, gen._s[1], gen._s[2], ((x << 41) | (x >> 23)) & rng._MASK]
    return gen


@pytest.mark.parametrize("population,count,packed", [
    (2 ** 60, 8, True), (2 ** 60 + 1, 8, False),
    (2 ** 60, 5, True), (2 ** 60 + 1, 5, False)],
    ids=["packed", "rank", "packed-5", "rank-5"])
def test_fisher_yates_key_path_at_int64_boundary(population, count, packed,
                                                 monkeypatch):
    # the first step targets population - 1, and the keys are
    # (j << w) | i with w = 3 bits for both 5 and 8 steps: the largest key
    # is 2^63 - 1 for 2^60, which still fits in int64, and 2^63 + 7 for
    # 2^60 + 1, which takes the stable argsort (with 5 steps a key
    # j * 5 + i would still fit there)
    rank_calls = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        if kwargs.get("kind") == "stable":
            rank_calls.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(rng.np, "argsort", spy)
    a = _first_draw_below(population, population - 1)
    b = _first_draw_below(population, population - 1)
    picks = a.sample_without_replacement(population, count)
    assert picks[0] == population - 1
    assert picks.tolist() == _loop_sample(b, population, count)
    _assert_same_state(a, b)
    assert rank_calls == ([] if packed else [count])


def _loop_tail(j):
    """Slot -> final value of every slot >= len(j) that the shuffle with
    targets j wrote, by the scalar loop."""
    swapped = {}
    for i, target in enumerate(j):
        swapped[target] = swapped.get(i, i)
    return {s: v for s, v in swapped.items() if s >= len(j)}


def test_complement_is_the_rest_of_the_picks():
    r = np.random.default_rng(30)
    cases = [(int(p), int(r.integers(0, p + 1)))
             for p in r.integers(1, 400, size=300)]
    # nothing picked, everything, all but one, and fewer than half
    cases += [(1, 0), (1, 1), (97, 0), (97, 97), (97, 96), (399, 60)]
    for seed, (population, count) in enumerate(cases):
        a, b = Xoshiro256pp(seed), Xoshiro256pp(seed)
        picks = a.sample_without_replacement(population, count)
        rest = b.sample_without_replacement(population, count,
                                            complement=True)
        assert rest.dtype == np.int64
        assert np.array_equal(rest,
                              np.setdiff1d(np.arange(population), picks))
        _assert_same_state(a, b)


@pytest.mark.parametrize("population,count,packed", [
    (2 ** 60, 8, True), (2 ** 60 + 1, 8, False),
    (2 ** 60, 5, True), (2 ** 60 + 1, 5, False)],
    ids=["packed", "rank", "packed-5", "rank-5"])
def test_fisher_yates_tail_at_int64_boundary(population, count, packed,
                                             monkeypatch):
    # the complement of these picks would hold about 2^60 values, so the
    # tail chase is checked against the scalar loop on the key paths of
    # test_fisher_yates_key_path_at_int64_boundary; step 5 of 8 (step 4
    # of 5) carries slot 5 (4), written by step 2 with slot 2, written by
    # step 0
    rank_calls = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        if kwargs.get("kind") == "stable":
            rank_calls.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(rng.np, "argsort", spy)
    P = population
    j = {8: [2, P - 1, 5, P - 2, 4, P - 1, 7, P - 2],
         5: [2, P - 1, 4, P - 2, P - 1]}[count]
    slots, values = rng._fisher_yates_tail(np.array(j, dtype=np.int64))
    assert dict(zip(slots.tolist(), values.tolist())) == _loop_tail(j)
    assert _loop_tail(j) == {8: {P - 1: 0, P - 2: 6},
                             5: {P - 1: 0, P - 2: 3}}[count]
    assert len(slots) == 2
    assert rank_calls == ([] if packed else [count])


def test_fisher_yates_long_chains():
    # steps i < 5000 move slot i's value on into slot i + 1, so step 5000
    # writes 0 into the tail slot P - 1 at the end of a 5000-link parent
    # chain; steps 5001..10000 do the same from slot 5001, and step 10001
    # re-targets P - 1: it picks that 0 and writes 5001, both through
    # 5000-link chains.  The last steps take a slot twice more.
    count = 10005
    P = count + 3
    j = ([*range(1, 5001), P - 1, *range(5002, 10002), P - 1]
         + [P - 2, P - 2, 10004])
    assert len(j) == count and all(i <= t < P for i, t in enumerate(j))
    picks = rng._fisher_yates_picks(np.array(j, dtype=np.int64))
    assert picks.tolist() == _loop_picks(j)
    assert picks[10001] == 0
    slots, values = rng._fisher_yates_tail(np.array(j, dtype=np.int64))
    assert dict(zip(slots.tolist(), values.tolist())) == _loop_tail(j)
    assert _loop_tail(j) == {P - 1: 5001, P - 2: 10003}


def _jump_bits_reference(i):
    """The transpose of T^(_LANE * 2^i) as a (256, 256) float32 bit
    matrix, by repeated GF(2) squaring through float32 products (the
    jump-ahead the byte tables replaced): row r holds the bits of the
    image of unit state r, column 64 w + b bit b of word w.  A product
    of 0/1 float32 matrices has integer entries <= 256, exact in float32,
    so reducing it mod 2 is exact."""
    def to_bits(S):
        octets = np.ascontiguousarray(S.T, dtype="<u8").view(np.uint8)
        return np.unpackbits(octets, axis=1, bitorder="little").astype(
            np.float32)

    unit = np.zeros((4, 256), dtype=np.uint64)
    cols = np.arange(256)
    unit[cols // 64, cols] = np.uint64(1) << (cols % 64).astype(np.uint64)
    rng._step(unit, np.empty(256, np.uint64), np.empty(256, np.uint64))
    M = to_bits(unit)
    for _ in range(rng._LANE.bit_length() - 1 + i):
        M = ((M @ M).astype(np.uint16) & 1).astype(np.float32)
    return M


def test_jump_tables_hold_the_gf2_powers():
    # entry 256 p + (1 << b) of `_jump(i)` is the image of unit state
    # 8 p + b, and every other entry the XOR of those its byte selects
    for i in range(13):
        table = rng._jump(i)
        assert table.shape == (32 * 256, 4) and table.dtype == np.uint64
        assert not table.flags.writeable
        images = table[rng._UNIT_ROWS]
        bits = np.unpackbits(images.astype("<u8").view(np.uint8), axis=1,
                             bitorder="little")
        assert np.array_equal(bits, _jump_bits_reference(i))
        bytes_ = table.reshape(32, 256, 4)
        v = np.arange(256)
        for b in range(8):
            with_b = (v >> b) & 1 == 1
            assert np.array_equal(bytes_[:, with_b],
                                  bytes_[:, v[with_b] ^ (1 << b)]
                                  ^ images.reshape(32, 8, 1, 4)[:, b])


@pytest.mark.parametrize("lanes", [
    2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1, 2 ** 15 + 3, 2 ** 15 + 2 ** 14 + 3])
def test_lane_starts_across_jump_blocks(lanes):
    # the doublings move at most _JUMP_BLOCK lanes per gather, so the
    # doubling from 2^15 lanes takes two gathers once lanes > 2^15 + 2^14;
    # every lane start must be its predecessor stepped _LANE times, and
    # at the doubling and block boundaries (and the last lane) also by
    # scalar stepping
    assert rng._JUMP_BLOCK == 2 ** 14
    state = Xoshiro256pp(27)._s
    S = rng._lane_starts(state, lanes)
    assert S.shape == (4, lanes) and S.flags.c_contiguous
    assert S[:, 0].tolist() == state
    stepped = S.copy()
    out, tmp = np.empty(lanes, np.uint64), np.empty(lanes, np.uint64)
    for _ in range(rng._LANE):
        rng._step(stepped, out, tmp)
    assert np.array_equal(stepped[:, :-1], S[:, 1:])
    probe = Xoshiro256pp(0)
    for lane in {2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1, 2 ** 15 + 2 ** 14 - 1,
                 2 ** 15 + 2 ** 14, lanes - 1}:
        if lane >= lanes:
            continue
        probe._s = S[:, lane - 1].tolist()
        for _ in range(rng._LANE):
            probe.next_u64()
        assert probe._s == S[:, lane].tolist()


def test_lane_starts_bounded_memory():
    # 281,250 lanes are 3.6e7 draws (a 20000 x 2000 instance at 90%
    # missing); the starts take 9 MB, their transpose 9 MB more, and a
    # gather block 20 MB.  The float32 bit GEMMs the tables replaced
    # peaked at 369 MB here.
    state = Xoshiro256pp(28)._s
    for i in range(19):  # the tables, built outside the traced call
        rng._jump(i)
    tracemalloc.start()
    try:
        rng._lane_starts(state, 281_250)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2 ** 20


def test_lane_starts_match_scalar_stepping():
    # 1500 lanes take 11 doublings; lane l starts _LANE * l steps ahead
    S = rng._lane_starts(Xoshiro256pp(26)._s, 1500)
    assert S.shape == (4, 1500) and S.dtype == np.uint64
    assert S.flags.c_contiguous
    probe = Xoshiro256pp(26)
    stepped = 0
    for lane in (0, 1, 2, 3, 127, 128, 1023, 1024, 1499):
        for _ in range(rng._LANE * lane - stepped):
            probe.next_u64()
        stepped = rng._LANE * lane
        assert S[:, lane].tolist() == probe._s


def test_sample_without_replacement_bytes_per_pick():
    # peak traced memory of one call, in bytes per pick, the jump tables
    # included: they are built afresh whatever ran before
    gen = Xoshiro256pp(7)
    rng._jump.cache_clear()
    tracemalloc.start()
    try:
        gen.sample_without_replacement(2_000_000, 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1_000_000 <= 36


@pytest.mark.parametrize("population,count", [
    (2_000_000, 1_000_000), (4_000_000, 3_600_000)])
def test_complement_bytes_per_pick(population, count):
    # peak traced memory of one call, in bytes per pick, the jump tables
    # included: they are built afresh whatever ran before
    gen = Xoshiro256pp(7)
    rng._jump.cache_clear()
    tracemalloc.start()
    try:
        gen.sample_without_replacement(population, count, complement=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / count <= 40


def test_box_muller_zero_uniform_is_drawn_again():
    # s0 = s3 = 0 makes the next output 0, so the first u1 is 0.0 and the
    # guard draws again, shifting the stream of the whole batch
    a, b = Xoshiro256pp(0), Xoshiro256pp(0)
    a._s = [0, 0x0123456789ABCDEF, 0xFEDCBA9876543210, 0]
    b._s = list(a._s)
    probe = Xoshiro256pp(0)
    probe._s = list(a._s)
    assert probe.uniform() == 0.0
    assert np.array_equal(a.normal_matrix(41, 7), _loop_normal(b, 41, 7))
    _assert_same_state(a, b)
    assert np.all(np.isfinite(a.normal_matrix(1, 3)))


def test_helpers_in_sequence_match_scalar_loops():
    a, b = Xoshiro256pp(25), Xoshiro256pp(25)
    steps = [
        (lambda g: g.uniform_matrix(7, 3), lambda g: _loop_uniform(g, 7, 3)),
        (lambda g: g.normal_matrix(3, 3), lambda g: _loop_normal(g, 3, 3)),
        (lambda g: g.sample_without_replacement(500, 300),
         lambda g: np.array(_loop_sample(g, 500, 300))),
        (lambda g: g.normal_matrix(2, 3), lambda g: _loop_normal(g, 2, 3)),
        (lambda g: g.uniform_matrix(130, 2),
         lambda g: _loop_uniform(g, 130, 2)),
        (lambda g: np.array([g.normal()]), lambda g: np.array([g.normal()])),
    ]
    for helper, loop in steps:
        assert np.array_equal(helper(a), loop(b))
        _assert_same_state(a, b)
    assert a.next_u64() == b.next_u64()


# A reserved generator serves draws from one lane pass made ahead of
# them; outputs and end state must be those of an unreserved one.

def _helpers(gen, n, m, d):
    """Draws in the order of `generate_synthetic`: (n + m) d uniforms,
    n d normals and n m / 2 picks, then scalar draws of each kind."""
    return [gen.uniform_matrix(n + m, d), gen.normal_matrix(n, d, 2.0),
            gen.sample_without_replacement(n * m, n * m // 2,
                                           complement=True),
            np.array([gen.next_u64()], dtype=np.uint64),
            np.array([gen.uniform(), gen.normal(), gen.normal(),
                      gen.normal()]),
            np.array([gen.below(7), gen.below(2 ** 40 + 3)])]


def _assert_released(gen):
    assert gen._pending == 0 and gen._held is None


@pytest.mark.parametrize("extra", [-7, 0, 1, 3, 6, 7, -(61 * 37 // 2)],
                         ids=["under", "exact", "over-u64", "over-normal",
                              "over-below", "over-next", "half"])
def test_reserve_is_invisible_in_the_streams(extra):
    # 61 x 9 normals are odd in number, so one spare is left behind; the
    # helpers draw 98 rows of 9 uniforms, 550 normals and 1128 picks,
    # then 1 + 1 + 2 + 2 scalar draws (the first normal is the spare),
    # which use up a reserve of up to 6 extra draws, and one more
    n, m, d = 61, 37, 9
    helpers = (n + m) * d + 2 * -(-n * d // 2) + n * m // 2
    a, b = Xoshiro256pp(40), Xoshiro256pp(40)
    a._reserve(helpers + extra)
    for got, want in zip(_helpers(a, n, m, d), _helpers(b, n, m, d)):
        assert np.array_equal(_bits(got), _bits(want))
    assert a.next_u64() == b.next_u64()
    _assert_released(a)
    _assert_same_state(a, b)


def test_reserve_served_to_scalar_draws_first():
    a, b = Xoshiro256pp(41), Xoshiro256pp(41)
    a._reserve(3)
    assert [a.next_u64(), a.uniform(), a.below(1000)] == [
        b.next_u64(), b.uniform(), b.below(1000)]
    _assert_released(a)
    _assert_same_state(a, b)
    a._reserve(rng._LANE + 5)  # a new reserve once the last is used up
    assert np.array_equal(a.uniform_matrix(1, 4), b.uniform_matrix(1, 4))
    assert a._held is not None
    with pytest.raises(ValueError):
        a._reserve(1)
    assert np.array_equal(a.uniform_matrix(1, rng._LANE + 1),
                          b.uniform_matrix(1, rng._LANE + 1))
    _assert_released(a)
    _assert_same_state(a, b)


def _loop_accepted(gen, thresholds):
    """The scalar definition of `_accepted`, and how many draws each slot
    took."""
    out, tries = [], []
    for t in thresholds:
        x, k = gen.next_u64(), 1
        while x < t:
            x, k = gen.next_u64(), k + 1
        out.append(x)
        tries.append(k)
    return out, tries


NEAR_TOP = (1 << 64) - (1 << 58)  # rejects 63 draws in 64


@pytest.mark.parametrize("runs,rejecting", [
    ((150, 170), [(1, 169)]),
    ((150, 170), [(0, 149), (1, 0)]),
    ((rng._LANE, rng._LANE), [(0, rng._LANE - 1), (1, 0), (1, 1),
                              (1, rng._LANE - 1)])],
    ids=["reserve-last-slot", "run-boundary", "lane-boundaries"])
def test_reserve_with_rejections(runs, rejecting):
    # the reserve holds one draw per slot of the runs; a slot with a
    # threshold near 2^64 is rejected, and each rejection moves the
    # draws of the slots after it, into the next run and past the
    # reserve's end
    a, b = Xoshiro256pp(42), Xoshiro256pp(42)
    a._reserve(sum(runs))
    thresholds = [np.zeros(r, dtype=np.uint64) for r in runs]
    for run, slot in rejecting:
        thresholds[run][slot] = NEAR_TOP
    for t in thresholds:
        want, tries = _loop_accepted(b, t.tolist())
        assert a._accepted(t).tolist() == want
        assert all(tries[slot] > 1 for run, slot in rejecting
                   if t is thresholds[run])
    _assert_released(a)
    _assert_same_state(a, b)
    assert a.next_u64() == b.next_u64()


def test_population_must_fit_int64():
    # integers, not bools, with 0 <= count <= population < 2^63; the
    # error names the argument at fault
    for population, count, error, name in [
            (2 ** 63, 1, ValueError, "population"),
            (-1, 0, ValueError, "population"),
            (-3, -5, ValueError, "population"),
            (5, -1, ValueError, "count"),
            (5, 2.5, TypeError, "count"),
            (5.0, 2, TypeError, "population"),
            (5, True, TypeError, "count"),
            (True, 1, TypeError, "population")]:
        for complement in (False, True):
            with pytest.raises(error, match=f"^{name} "):
                Xoshiro256pp(0).sample_without_replacement(
                    population, count, complement=complement)


def test_numpy_integers_are_integers():
    a, b = Xoshiro256pp(0), Xoshiro256pp(0)
    assert np.array_equal(
        a.sample_without_replacement(np.int64(50), np.uint32(20)),
        b.sample_without_replacement(50, 20))


def test_stream_digest_is_pinned():
    # SHA-256 of the little-endian C-order bytes; pinned from the
    # one-draw-at-a-time implementation, so any change to the streams shows
    gen = Xoshiro256pp(12345)
    U = gen.uniform_matrix(7, 3)
    gen.normal_matrix(5, 3, 2.0)
    picks = np.asarray(gen.sample_without_replacement(1000, 900),
                       dtype=np.int64)
    digest = hashlib.sha256(U.astype("<f8").tobytes()
                            + picks.astype("<i8").tobytes()).hexdigest()
    assert digest == ("05efd39cd608355c7d89b3b67b2a368a"
                      "e3d04910fe46a621f7e7e8013765de9f")
    assert gen.next_u64() == 18136142026761811371


def test_import_builds_no_jump_tables():
    code = ("import mpadmm, mpadmm.rng as r; "
            "print(r._jump.cache_info().currsize)")
    src = str(Path(rng.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "0"
