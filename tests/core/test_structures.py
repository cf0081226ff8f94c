"""Unit tests for configurations."""

import pytest

from repro.core import (Configuration, EMPTY_CONFIGURATION,
                        single_index_configurations)
from repro.sqlengine import IndexDef

A = IndexDef("t", ("a",))
B = IndexDef("t", ("b",))
AB = IndexDef("t", ("a", "b"))


class TestConfiguration:
    def test_empty_label(self):
        assert EMPTY_CONFIGURATION.label == "{}"
        assert len(EMPTY_CONFIGURATION) == 0

    def test_label_sorted(self):
        assert Configuration({B, A}).label == "{I(a), I(b)}"

    def test_equality_and_hash(self):
        assert Configuration({A, B}) == Configuration({B, A})
        assert len({Configuration({A}), Configuration({A})}) == 1

    def test_containment_and_iteration(self):
        config = Configuration({A, B})
        assert A in config and AB not in config
        assert list(config) == sorted([A, B])

    def test_union(self):
        assert Configuration({A}).union(Configuration({B})) == \
            Configuration({A, B})

    def test_with_and_without(self):
        config = Configuration({A})
        assert config.with_structure(B) == Configuration({A, B})
        assert config.without_structure(A) == EMPTY_CONFIGURATION
        # Originals untouched (immutability).
        assert config == Configuration({A})

    def test_added_dropped(self):
        old, new = Configuration({A}), Configuration({B})
        assert new.added(old) == frozenset({B})
        assert new.dropped(old) == frozenset({A})

    def test_ordering_is_stable(self):
        configs = sorted([Configuration({B}), EMPTY_CONFIGURATION,
                          Configuration({A})])
        assert configs[0] == EMPTY_CONFIGURATION

    def test_repr(self):
        assert "I(a)" in repr(Configuration({A}))


class TestSingleIndexConfigurations:
    def test_count_includes_empty(self):
        configs = single_index_configurations([A, B, AB])
        assert len(configs) == 4
        assert configs[0] == EMPTY_CONFIGURATION

    def test_without_empty(self):
        configs = single_index_configurations([A, B],
                                              include_empty=False)
        assert len(configs) == 2
        assert EMPTY_CONFIGURATION not in configs

    def test_duplicates_collapse(self):
        assert len(single_index_configurations([A, A, B])) == 3

    def test_paper_space_has_seven_configs(self):
        candidates = [IndexDef("t", (x,)) for x in "abcd"] + \
            [IndexDef("t", ("a", "b")), IndexDef("t", ("c", "d"))]
        assert len(single_index_configurations(candidates)) == 7


class TestHashMemoization:
    def test_hash_is_stable_and_cached(self):
        config = Configuration({A, B})
        first = hash(config)
        assert hash(config) == first
        assert config._hash == first  # memoized after first probe

    def test_hash_lazy_until_probed(self):
        assert Configuration({A})._hash is None

    def test_equality_semantics_unchanged(self):
        assert Configuration({A, B}) == Configuration({B, A})
        assert hash(Configuration({A, B})) == \
            hash(Configuration({B, A}))
        assert Configuration({A}) != Configuration({B})
        probed = Configuration({A, AB})
        hash(probed)  # memoize one side only
        assert probed == Configuration({AB, A})
        assert len({probed, Configuration({A, AB})}) == 1

    def test_memoized_hash_matches_frozenset(self):
        config = Configuration({A, B})
        assert hash(config) == hash(frozenset({A, B}))
