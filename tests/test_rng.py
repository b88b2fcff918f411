"""The batched stream derivation against numpy's SeedSequence and PCG64."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmem.rng import derive_rng, derived_rngs, poisson_rows

# 64-bit seeds, negative ones (masked to 64 bits) and the one- to two-word
# entropy boundary
master_seeds = st.one_of(
    st.integers(-(2**63), 2**64 - 1), st.sampled_from([0, 2**32 - 1, 2**32, 2**32 + 1])
)
# ints at and above 2**32, which the path encoding masks to 32 bits, and labels
path_parts = st.one_of(
    st.integers(-(2**40), 2**40), st.sampled_from([2**32, 2**32 + 7]), st.text(max_size=8)
)
paths = st.lists(path_parts, max_size=3)
keys = st.lists(path_parts, max_size=8)
means = st.floats(0.0, 1e6)


@given(master_seeds, paths, keys, st.lists(means, min_size=1, max_size=5), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
@example(0, [], [0], [3.0], False, None)
@example(2**32, ["mc"], list(range(4)), [40.0, 0.0], False, None)
@example(-1, ["counts"], ["pre:tomo:HH", 2**32 + 1], [1e3, 2e3, 50.0], False, None)
def test_poisson_rows_are_the_derived_streams_bit_for_bit(seed, path, keys, row, per_key, data):
    if per_key:
        lam = np.array(data.draw(st.lists(st.lists(means, min_size=len(row), max_size=len(row)),
                                          min_size=len(keys), max_size=len(keys))), dtype=float)
        lam = lam.reshape(len(keys), len(row))
    else:
        lam = np.array(row)
    got = poisson_rows(seed, *path, keys=keys, lam=lam)
    lams = np.broadcast_to(lam, (len(keys), len(row)))
    expected = [derive_rng(seed, *path, key).poisson(r) for key, r in zip(keys, lams)]
    assert got.dtype == np.int64 and got.shape == (len(keys), len(row))
    assert got.tolist() == [e.tolist() for e in expected]


@given(master_seeds, paths, keys)
@settings(max_examples=100, deadline=None)
def test_each_key_starts_fresh_after_a_buffered_uint32(seed, path, keys):
    # a float32 draw takes half of a 64-bit output and buffers the other half;
    # the next key's stream must not start from it
    for rng, key in zip(derived_rngs(seed, *path, keys=keys), keys):
        fresh = derive_rng(seed, *path, key)
        assert rng.random(dtype=np.float32) == fresh.random(dtype=np.float32)
        assert rng.bit_generator.state == fresh.bit_generator.state
        assert rng.poisson(5.0, size=3).tolist() == fresh.poisson(5.0, size=3).tolist()
