from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efl.export import serialize_instance
from efl.generators import (
    GenSpec,
    SplitMix64,
    _GenSpecFields,
    _template,
    build_random,
    example_instance,
    gen_dense,
    gen_disjoint,
    gen_random,
)
from efl.instance import (
    clique_degree,
    degree_profile,
    intersecting_pair_count,
    shared_vertex,
    validate,
)
from support import corpus_specs, reference_build_random


class TestSplitMix64:
    def test_reference_stream(self):
        # published outputs for seed 0
        g = SplitMix64(0)
        assert g.next_u64() == 0xE220A8397B1DCDAF
        assert g.next_u64() == 0x6E789E6AA1B965F4
        assert g.next_u64() == 0x06C45D188009454F

    def test_seed_is_full_state(self):
        a, b = SplitMix64(99), SplitMix64(99)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_below_bounds(self):
        g = SplitMix64(7)
        assert all(0 <= g.below(13) < 13 for _ in range(100))
        with pytest.raises(ValueError):
            g.below(0)

    @pytest.mark.parametrize("bound", [1, 100, 2**64, 2**64 + 1])
    def test_below_is_next_u64_mod_bound(self, bound):
        # below(bound) is next_u64() % bound on the same stream
        a, b = SplitMix64(12345), SplitMix64(12345)
        assert [a.below(bound) for _ in range(50)] == [
            b.next_u64() % bound for _ in range(50)
        ]

    def test_below_full_range_reference_stream(self):
        g = SplitMix64(0)
        assert [g.below(1 << 64) for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected(self, seed):
        # masking would alias -1 with 2**64 - 1 and 2**64 with 0
        message = rf"seed must lie in 0\.\.2\^64-1, got {seed}$"
        with pytest.raises(ValueError, match=message):
            SplitMix64(seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_range_ends_are_the_whole_state(self, seed):
        # a stream one step (one golden-gamma increment) behind reaches the
        # seed's state after its first draw, wrapping past 2**64 on the way
        behind = SplitMix64((seed - 0x9E3779B97F4A7C15) % 2**64)
        behind.next_u64()
        ahead = SplitMix64(seed)
        assert [ahead.next_u64() for _ in range(3)] == [
            behind.next_u64() for _ in range(3)
        ]


class TestDisjoint:
    def test_counts(self):
        inst = gen_disjoint(3)
        assert len(inst.vertices) == 9
        assert degree_profile(inst).histogram == {1: 9}

    def test_single(self):
        inst = gen_disjoint(1)
        assert inst.vertices == ("v1_1",)

    def test_validates(self):
        assert validate(gen_disjoint(10)).ok

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError) as raised:
            gen_disjoint(0)
        assert str(raised.value) == "n must be positive"


class TestDense:
    def test_n3_construction(self):
        inst = gen_dense(3)
        assert set(inst.clique(1)) == {"b1_2", "b1_3", "p1"}
        assert set(inst.clique(2)) == {"b1_2", "b2_3", "p2"}
        assert set(inst.clique(3)) == {"b1_3", "b2_3", "p3"}
        assert validate(inst).ok

    def test_shared_everywhere(self):
        inst = gen_dense(5)
        for i in range(1, 6):
            for j in range(i + 1, 6):
                assert shared_vertex(inst, i, j) == f"b{i}_{j}"

    @pytest.mark.parametrize("n", [2, 3, 6, 11, 20])
    def test_histogram_and_counts(self, n):
        inst = gen_dense(n)
        assert validate(inst).ok
        assert degree_profile(inst).histogram == {1: n, 2: math.comb(n, 2)}
        assert len(inst.vertices) == math.comb(n, 2) + n
        assert intersecting_pair_count(inst) == math.comb(n, 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gen_dense(1)


class TestRandom:
    def test_zero_merges_is_disjoint_shape(self):
        inst = gen_random(4, 0, seed=11)
        assert len(inst.vertices) == 16
        assert degree_profile(inst).histogram == {1: 16}
        # one token scheme: the starting tokens are gen_disjoint's, byte for byte
        for n in range(2, 31):
            want = serialize_instance(gen_disjoint(n))
            for seed in range(3):
                built = build_random(GenSpec(kind="random", n=n, seed=seed, merges=0))
                assert serialize_instance(built.instance) == want
                assert (built.merges_done, built.extensions_done) == (0, 0)

    def test_determinism(self):
        assert gen_random(6, 13, 42) == gen_random(6, 13, 42)

    def test_regression_anchor(self):
        # frozen behavior of the documented SplitMix64 stream at this seed
        built = build_random(GenSpec(kind="random", n=6, seed=42, merges=13))
        assert validate(built.instance).ok
        assert (built.merges_done, built.extensions_done) == (9, 3)
        assert intersecting_pair_count(built.instance) == 15

    def test_pure_merges_vertex_count(self):
        for merges in (0, 3, 10):
            inst = gen_random(6, merges, seed=5, extension_percent=0)
            assert len(inst.vertices) == 36 - merges
            assert intersecting_pair_count(inst) == merges

    def test_extensions_raise_degree(self):
        # seed chosen so at least one extension fires
        built = build_random(GenSpec(kind="random", n=6, seed=42, merges=13))
        profile = degree_profile(built.instance)
        assert profile.max_degree >= 3

    @settings(max_examples=40)
    @given(
        n=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        extension_percent=st.sampled_from([0, 20, 50, 80, 100]),
        data=st.data(),
    )
    def test_always_validates(self, n, seed, extension_percent, data):
        merges = data.draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
        inst = gen_random(n, merges, seed, extension_percent=extension_percent)
        assert validate(inst).ok

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=24),
        seed=st.one_of(
            st.sampled_from([0, 2**64 - 1]), st.integers(min_value=0, max_value=2**64 - 1)
        ),
        extension_percent=st.integers(min_value=0, max_value=100),
        data=st.data(),
    )
    def test_matches_reference(self, n, seed, extension_percent, data):
        merges = data.draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
        spec = GenSpec(
            kind="random", n=n, seed=seed, merges=merges, extension_percent=extension_percent
        )
        got = build_random(spec)
        want = reference_build_random(spec)
        assert serialize_instance(got.instance) == serialize_instance(want.instance)
        assert (got.merges_done, got.extensions_done) == (
            want.merges_done,
            want.extensions_done,
        )

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("extension_percent", [80, 100])
    @pytest.mark.parametrize("divisor", [2, 1])  # C(n,2)//2 and C(n,2) merges
    @pytest.mark.parametrize("n", [4, 17, 20, 24])
    def test_matches_reference_where_vertices_saturate(
        self, n, divisor, extension_percent, seed
    ):
        # high merge counts and extension rates leave shared vertices whose
        # cliques meet every clique, which the uniform merge draw above rarely
        # reaches at n >= 17
        spec = GenSpec(
            kind="random",
            n=n,
            seed=seed,
            merges=n * (n - 1) // 2 // divisor,
            extension_percent=extension_percent,
        )
        got = build_random(spec)
        want = reference_build_random(spec)
        assert serialize_instance(got.instance) == serialize_instance(want.instance)
        assert (got.merges_done, got.extensions_done) == (
            want.merges_done,
            want.extensions_done,
        )
        holders = got.instance.incidence_map
        meets = {c: set() for c in range(1, n + 1)}
        for cs in holders.values():
            for c in cs:
                meets[c].update(cs)
        assert any(
            len(cs) > 1 and set().union(*(meets[c] for c in cs)) == set(meets)
            for cs in holders.values()
        )

    def test_genspec_validation(self):
        # (kind, n, seed, merges, extension_percent) and the whole message
        cases = [
            (("weird", 4, 0, 0, 20), "GenSpec takes kind 'random' only, got 'weird'"),
            (("dense", 4, 0, 0, 20), "GenSpec takes kind 'random' only, got 'dense'"),
            (("random", 1, 0, 0, 20), "n=1 too small for a random cover"),
            (("random", -3, 0, 0, 20), "n=-3 too small for a random cover"),
            (("random", 4, 1, 7, 20), "merges must lie in 0..C(n,2)=6, got 7"),  # > C(4,2)
            (("random", 4, 1, -1, 20), "merges must lie in 0..C(n,2)=6, got -1"),
            (("random", 4, 1, 6, 101), "extension_percent must lie in 0..100"),
            (("random", 4, 1, 6, -1), "extension_percent must lie in 0..100"),
            (("random", 4, -1, 6, 100), "seed must lie in 0..2^64-1, got -1"),
            (("random", 4, 2**64, 0, 0), f"seed must lie in 0..2^64-1, got {2**64}"),
        ]
        names = ("kind", "n", "seed", "merges", "extension_percent")
        for values, message in cases:
            with pytest.raises(ValueError) as by_position:
                GenSpec(*values)
            with pytest.raises(ValueError) as by_keyword:
                GenSpec(**dict(zip(names, values)))
            assert str(by_position.value) == str(by_keyword.value) == message
        # the bounds themselves are accepted
        for values in [("random", 2, 0, 0, 0), ("random", 4, 2**64 - 1, 6, 100)]:
            assert tuple(getattr(GenSpec(*values), name) for name in names) == values
        with pytest.raises(ValueError):
            gen_random(1, 0, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_out_of_range_seed_rejected(self, seed):
        # SplitMix64 keeps 64 bits, so these would alias seeds in range
        with pytest.raises(ValueError, match="seed"):
            GenSpec(kind="random", n=6, seed=seed, merges=10)
        with pytest.raises(ValueError, match="seed"):
            GenSpec("random", 6, seed, 10)
        with pytest.raises(ValueError, match="seed"):
            gen_random(6, 10, seed)

    def test_build_random_needs_random_kind(self):
        with pytest.raises(ValueError):
            build_random(GenSpec(kind="dense", n=4))


def _cold_build(spec: GenSpec) -> tuple[str, int, int]:
    _template.cache_clear()
    built = build_random(spec)
    return serialize_instance(built.instance), built.merges_done, built.extensions_done


def _is_frozen(value) -> bool:
    """True for a str or int, or a tuple of such values at any depth."""
    if isinstance(value, tuple):
        return all(map(_is_frozen, value))
    return type(value) in (str, int)


class TestTemplateCache:
    """``build_random`` starts from ``_template(n)``; no build reads another's state."""

    def test_bytes_do_not_depend_on_cache_state(self):
        specs = corpus_specs(500)
        want = [_cold_build(spec) for spec in specs]
        order = list(range(len(specs)))
        random.Random(37).shuffle(order)
        # sizes the corpus (n = 3..10) never uses, more than the cache holds
        others = [
            GenSpec(kind="random", n=n, seed=n, merges=n * (n - 1) // 4, extension_percent=50)
            for n in range(11, 11 + _template.cache_info().maxsize + 1)
        ]
        _template.cache_clear()
        for step, i in enumerate(order):
            if step % 50 == 25:
                for other in others:
                    build_random(other)
            built = build_random(specs[i])
            got = serialize_instance(built.instance), built.merges_done, built.extensions_done
            assert got == want[i], specs[i]

    def test_cached_values_are_frozen_and_unchanged(self):
        sizes = range(3, 3 + _template.cache_info().maxsize)
        _template.cache_clear()
        before = {n: _template(n) for n in sizes}
        for n, value in before.items():
            assert _is_frozen(value)
            assert value == _template.__wrapped__(n)
        rng = random.Random(200)
        for _ in range(200):
            n = rng.choice(sizes)
            merges = rng.randint(0, n * (n - 1) // 2)
            build_random(GenSpec("random", n, rng.getrandbits(64), merges, rng.randint(0, 100)))
        misses = _template.cache_info().misses
        for n, value in before.items():
            assert _template(n) is value
            assert value == _template.__wrapped__(n)
        assert _template.cache_info().misses == misses  # nothing was evicted

    def test_keyed_by_n_not_by_merge_count(self):
        # _GenSpecFields skips GenSpec's range check on merges
        _template.cache_clear()
        built = build_random(_GenSpecFields("random", 6, 1, 10**9, 50))
        assert built.merges_done <= math.comb(6, 2)
        assert validate(built.instance).ok
        assert _template.cache_info().currsize == 1
        names = _template(6)[2]
        assert names == tuple(f"m{k}" for k in range(math.comb(6, 2) + 1))


class TestExampleInstance:
    def test_shape(self, example):
        assert example.n == 6
        assert len(example.vertices) == 27
        assert validate(example).ok

    def test_degree_structure(self, example):
        assert degree_profile(example).histogram == {1: 21, 2: 4, 3: 1, 4: 1}
        assert clique_degree(example, "v1") == 4

    def test_disjoint_pairs(self, example):
        assert shared_vertex(example, 1, 6) is None
        assert shared_vertex(example, 4, 5) is None
