"""The fixed PRNG stack: splitmix64 derivation and xoshiro256** streams."""

from pvml.rng import (
    MASK64,
    Xoshiro256StarStar,
    splitmix64,
    to_signed64,
    to_unsigned64,
)


def test_splitmix64_is_deterministic_and_64bit():
    values = [splitmix64(x) for x in (0, 1, 42, MASK64)]
    assert values == [splitmix64(x) for x in (0, 1, 42, MASK64)]
    assert all(0 <= v <= MASK64 for v in values)
    assert len(set(values)) == len(values)


def test_streams_reproduce_from_seed():
    a = Xoshiro256StarStar(1234)
    b = Xoshiro256StarStar(1234)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_diverge():
    a = Xoshiro256StarStar(1)
    b = Xoshiro256StarStar(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_next_below_bounds():
    rng = Xoshiro256StarStar(7)
    draws = [rng.next_below(13) for _ in range(2000)]
    assert min(draws) >= 0 and max(draws) < 13
    assert set(draws) == set(range(13))  # every residue reachable


def test_next_float_unit_interval():
    rng = Xoshiro256StarStar(7)
    draws = [rng.next_float() for _ in range(2000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert 0.4 < sum(draws) / len(draws) < 0.6


def test_shuffle_is_a_permutation():
    rng = Xoshiro256StarStar(99)
    items = list(range(50))
    rng.shuffle(items)
    assert sorted(items) == list(range(50))
    assert items != list(range(50))  # astronomically unlikely to be identity


def test_sample_prefix_distinct_and_seed_stable():
    rng = Xoshiro256StarStar(5)
    sample = rng.sample_prefix(20, 8)
    assert len(sample) == 8 and len(set(sample)) == 8
    assert all(0 <= i < 20 for i in sample)
    assert Xoshiro256StarStar(5).sample_prefix(20, 8) == sample


def test_signed_unsigned_round_trip():
    for x in (0, 1, 2**63 - 1, 2**63, MASK64, splitmix64(3)):
        assert to_unsigned64(to_signed64(x)) == x
        assert -(2**63) <= to_signed64(x) <= 2**63 - 1


# Recorded with the draws taken one ``next_u64`` call at a time; any faster
# loop over the state words must give the same stream.
KNOWN_U64 = ["0x6be2b1c21c9ad37d", "0xed2b61e770b74576", "0x43c759a6985afc6d", "0x95a80604d936f93e"]
KNOWN_SHUFFLE = ([9, 4, 6, 10, 7, 0, 1, 3, 8, 11, 2, 5], "0x213d0486769f1043")
KNOWN_SAMPLE_PREFIX = ([29, 7, 24, 28, 18, 9, 17], "0x22abfe35f19dd20b")
KNOWN_BOOTSTRAP = "1a53d124479c0d849716b74aa000822b78bcb0c5f13e4279bbe56b577c7f746e"
KNOWN_BOOTSTRAP_ROWS = [
    46, 44, 42, 48, 34, 26, 15, 21, 38, 36, 8, 33, 27, 15, 30, 12, 28, 25, 14, 38,
    19, 22, 0, 40, 0, 45, 44, 6, 14, 12, 33, 30, 40, 11, 22, 15, 47, 37, 18, 8,
]


class TestKnownAnswers:
    """Each draw pinned as hex, with the next output after it, so a draw
    that consumes the stream differently fails here."""

    def test_first_outputs(self):
        rng = Xoshiro256StarStar(20231020)
        assert [hex(rng.next_u64()) for _ in range(4)] == KNOWN_U64
        assert [hex(u) for u in Xoshiro256StarStar(20231020).u64s(4)] == KNOWN_U64

    def test_u64s_continue_the_stream(self):
        a, b = Xoshiro256StarStar(5), Xoshiro256StarStar(5)
        assert a.u64s(1000) == [b.next_u64() for _ in range(1000)]
        assert a.next_u64() == b.next_u64()

    def test_shuffle(self):
        rng = Xoshiro256StarStar(77)
        items = list(range(12))
        rng.shuffle(items)
        assert (items, hex(rng.next_u64())) == KNOWN_SHUFFLE

    def test_sample_prefix(self):
        rng = Xoshiro256StarStar(78)
        assert (rng.sample_prefix(30, 7), hex(rng.next_u64())) == KNOWN_SAMPLE_PREFIX

    def test_bootstrap_indices(self):
        from pvml.core import CategoricalOutput, build_dataset, make_example
        from pvml.data import InMemoryDataSource
        from pvml.ensemble import bootstrap_sample

        examples = [make_example([("x", float(i))], CategoricalOutput("ab"[i % 2])) for i in range(50)]
        sample = bootstrap_sample(build_dataset(InMemoryDataSource(examples, "known")), 0.8, True, 0x5EED)
        source = sample.provenance.instance["source"]
        assert source.instance["indices-hash"].digest == KNOWN_BOOTSTRAP
        assert [int(f.value) for ex in sample.examples for f in ex.features] == KNOWN_BOOTSTRAP_ROWS
