"""Deterministic seed derivation for parallel-safe sampling.

Every sampling site derives its generator from (master_seed, *path), where
the path is a tuple of small integers and/or short labels.  Identical
paths always yield identical streams, and distinct paths are statistically
independent, so trials can run in any order or concurrently.
"""

from __future__ import annotations

import zlib

import numpy as np

# numpy's SeedSequence hash (after O'Neill's seed_seq_fe) and PCG64's LCG multiplier
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _encode(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"seed path parts must be int or str, got {type(part)!r}")


def derive_seed_sequence(master_seed: int, *path) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(master_seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=tuple(_encode(p) for p in path),
    )


def derive_rng(master_seed: int, *path) -> np.random.Generator:
    return np.random.default_rng(derive_seed_sequence(master_seed, *path))


def _hash_constants(init: int, mult: int, start: int, n: int):
    """SeedSequence's (n, 1) uint32 xor and multiplier columns for hashes start to start+n-1."""
    consts = np.array([init * pow(mult, i, 1 << 32) & _M32 for i in range(start, start + n + 1)])
    return consts[:-1, None].astype(np.uint32), consts[1:, None].astype(np.uint32)


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ value >> 16


def derived_rngs(master_seed: int, *path, keys):
    """For each key, one generator re-seeded to the state derive_rng(master_seed, *path, key)
    starts in, so use each before taking the next.  The key words, as one uint32 array, are
    hashed into the pool of the SeedSequence of (master_seed, *path), after the 16 + 4 len(path)
    hashes the prefix took; no SeedSequence or PCG64 is built per key."""
    pool = derive_seed_sequence(master_seed, *path).pool[:, None]
    key = np.array([_encode(k) for k in keys], dtype=np.uint32)
    hashed = _hashmix(key, *_hash_constants(_INIT_A, _MULT_A, 16 + 4 * len(path), 4))
    pool = _MIX_L * pool - _MIX_R * hashed
    pool ^= pool >> 16
    words = _hashmix(np.tile(pool, (2, 1)), *_hash_constants(_INIT_B, _MULT_B, 0, 8))
    # each key's 4 uint64 state words seed PCG64 as srandom(seed_hi:seed_lo, inc_hi:inc_lo)
    state = (words[1::2].astype(np.uint64) << 32 | words[::2]).T.tolist()
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for seed_hi, seed_lo, inc_hi, inc_lo in state:
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _M128
        pcg = {"state": ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _M128, "inc": inc}
        bits.state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        yield rng


def poisson_rows(master_seed: int, *path, keys, lam) -> np.ndarray:
    """Row k is derive_rng(master_seed, *path, keys[k]).poisson(lam_k), bit for bit, where
    lam is one row of means shared by every key or one row per key."""
    lams = np.broadcast_to(lam, (len(keys), np.shape(lam)[-1]))
    rows = [rng.poisson(row) for rng, row in zip(derived_rngs(master_seed, *path, keys=keys), lams)]
    return np.array(rows, dtype=np.int64).reshape(lams.shape)
