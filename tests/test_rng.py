import numpy as np
import pytest

from geomasksim.rng import (
    GeneratorPool,
    RngStream,
    choices_stream,
    derive_stream,
    efficiency_masked_stream,
    efficiency_true_stream,
    population_stream,
    splitmix64,
)


def test_splitmix64_known_values():
    # frozen reference values computed with plain python integer arithmetic
    # from the documented constants (xor-shift 30/27/31, multipliers
    # 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB)
    assert splitmix64(0) == 0
    assert splitmix64(1) == 0x5692161D100B05E5
    assert splitmix64(1 << 56) == 0x744030A1A84C6AB6


def test_splitmix64_is_injective_on_sample():
    vals = [splitmix64(v) for v in range(10_000)]
    assert len(set(vals)) == len(vals)


def test_splitmix64_range():
    for v in (0, 1, 2**63, 2**64 - 1):
        assert 0 <= splitmix64(v) < 2**64


def test_stream_determinism():
    a = derive_stream(42, 3, 17).generator().uniform(size=8)
    b = derive_stream(42, 3, 17).generator().uniform(size=8)
    np.testing.assert_array_equal(a, b)


def test_streams_differ_across_indices_and_purposes():
    seed = 123
    streams = [
        derive_stream(seed, 0, 0),
        derive_stream(seed, 0, 1),
        derive_stream(seed, 1, 0),
        population_stream(seed),
        choices_stream(seed),
        efficiency_true_stream(seed, 0),
        efficiency_masked_stream(seed, 0, 0),
    ]
    ids = [s.stream_id for s in streams]
    assert len(set(ids)) == len(ids)


def test_seed_changes_output():
    a = derive_stream(1, 0, 0).generator().uniform(size=4)
    b = derive_stream(2, 0, 0).generator().uniform(size=4)
    assert not np.array_equal(a, b)


def test_adjacent_streams_share_no_long_runs():
    # adjacent replication streams must look unrelated: across the first 1e4
    # draws no positional run of equal values longer than 4
    a = derive_stream(0, 0, 0).generator().uniform(size=10_000)
    b = derive_stream(0, 0, 1).generator().uniform(size=10_000)
    longest = current = 0
    for e in a == b:
        current = current + 1 if e else 0
        longest = max(longest, current)
    assert longest <= 4


def test_index_bounds_enforced():
    with pytest.raises(ValueError):
        derive_stream(0, 2**28, 0)
    with pytest.raises(ValueError):
        derive_stream(0, 0, -1)
    with pytest.raises(ValueError):
        efficiency_masked_stream(0, -1, 0)


def test_rngstream_validation():
    with pytest.raises(ValueError):
        RngStream(seed=-1, stream_id=0)
    with pytest.raises(ValueError):
        RngStream(seed=0, stream_id=2**64)
    with pytest.raises(ValueError):
        RngStream(seed=0.5, stream_id=0)


def test_generator_restarts_at_stream_origin():
    s = population_stream(9)
    first = s.generator().uniform(size=3)
    # a fresh generator starts over; it does not continue the previous one
    np.testing.assert_array_equal(s.generator().uniform(size=3), first)


def _draws(gen):
    """A mix of draws that reads whole and partial Philox output blocks."""
    return np.concatenate([gen.random(5), gen.standard_normal(7), gen.uniform(0.0, 0.3, 3), gen.random(2, dtype=np.float32)])


def test_pool_rekeys_to_what_a_fresh_generator_draws():
    pool = GeneratorPool()
    first = [derive_stream(5, 0, rep) for rep in range(3)]
    gens = pool.positioned(first)
    for stream, gen in zip(first, gens):
        np.testing.assert_array_equal(_draws(gen), _draws(stream.generator()))
    # right after serving other streams, mid-block and with a 32-bit draw
    # pending, the pooled generators restart cleanly on new streams; the
    # pool grows by one generator for the fourth stream
    others = [efficiency_masked_stream(5, 1, rep) for rep in range(4)]
    again = pool.positioned(others)
    assert all(a is b for a, b in zip(again, gens))
    for stream, gen in zip(others, again):
        np.testing.assert_array_equal(_draws(gen), _draws(stream.generator()))
    # and a stream served before draws its bits again from its start
    np.testing.assert_array_equal(_draws(pool.positioned(first[:1])[0]), _draws(first[0].generator()))
