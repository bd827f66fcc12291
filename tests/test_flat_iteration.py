"""Flat positions/offsets iteration in FastFDs and HyFD: pinned equivalence.

Both algorithms now walk ``StrippedPartition.flat_lists()`` directly instead
of materialising per-group python lists.  These tests pin the rewritten
inner loops against straightforward group-materialising references (the old
formulation), on the kernel alone (``numpy``) and with every kernel call
checked against the pure-python oracle (``python``), so the iteration change
can never silently alter the agree sets either algorithm derives.
"""

from itertools import combinations

import pytest
from kernel_oracle import LEGS, kernel_leg

from repro.discovery.fastfds import FastFDs
from repro.discovery.hyfd import HyFD
from repro.discovery.base import DiscoveryStats
from repro.relational.partition import PartitionCache, StrippedPartition
from repro.relational.relation import Relation
from repro.session import Session


CASES = {
    "mixed": [(i % 4, i % 3, (i * 5) % 7) for i in range(40)],
    "constant": [("k", "k", 0)] * 15,
    "distinct": [(i, f"v{i}", i % 2) for i in range(20)],
    "skew": [("hot" if i % 10 else f"c{i}", i % 3, i % 2) for i in range(50)],
    "empty": [],
    "single": [(1, 2, 3)],
}

ATTRS = ("a", "b", "c")


def _difference_sets_reference(relation, names, bit_of, full_mask):
    """The pre-flat formulation: materialise groups, enumerate combinations."""
    n_rows = len(relation)
    agree = {}
    for name in names:
        bit = bit_of[name]
        partition = StrippedPartition.from_column(relation, name)
        for group in partition.groups:
            for first, second in combinations(group, 2):
                key = first * n_rows + second
                agree[key] = agree.get(key, 0) | bit
    difference_sets = {full_mask ^ mask for mask in agree.values() if mask != full_mask}
    if len(agree) < n_rows * (n_rows - 1) // 2:
        difference_sets.add(full_mask)
    return difference_sets


def _sample_agree_sets_reference(relation, names, window, cache):
    """The pre-flat formulation: window over materialised group lists."""
    agree_sets = set()
    codes = {name: relation.column_codes(name)[0] for name in names}
    full = frozenset(names)
    for name in names:
        for group in cache.get([name]).groups:
            for offset in range(1, min(window, len(group))):
                for i in range(len(group) - offset):
                    first, second = group[i], group[i + offset]
                    agreeing = frozenset(
                        attr for attr in names if codes[attr][first] == codes[attr][second]
                    )
                    if agreeing != full:
                        agree_sets.add(agreeing)
    return agree_sets


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_fastfds_difference_sets_match_group_reference(leg, case):
    with Session(), kernel_leg(leg):
        relation = Relation("r", ATTRS, CASES[case])
        names = tuple(sorted(ATTRS))
        bit_of = {name: 1 << i for i, name in enumerate(names)}
        full_mask = (1 << len(names)) - 1
        algorithm = FastFDs()
        observed = algorithm._difference_sets(relation, names, bit_of, full_mask, DiscoveryStats())
        expected = _difference_sets_reference(relation, names, bit_of, full_mask)
        assert observed == expected


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_hyfd_sampling_matches_group_reference(leg, case):
    with Session(), kernel_leg(leg):
        relation = Relation("r", ATTRS, CASES[case])
        names = tuple(sorted(ATTRS))
        algorithm = HyFD(window=3)
        observed = algorithm._sample_agree_sets(
            relation, names, DiscoveryStats(), PartitionCache(relation)
        )
        expected = _sample_agree_sets_reference(
            relation, names, algorithm.window, PartitionCache(relation)
        )
        assert observed == expected


@pytest.mark.parametrize("leg", LEGS)
def test_fastfds_pair_count_stat_is_preserved(leg):
    # The flat rewrite must keep counting distinct agreeing pairs, not visits.
    with Session(), kernel_leg(leg):
        relation = Relation("r", ATTRS, CASES["mixed"])
        names = tuple(sorted(ATTRS))
        bit_of = {name: 1 << i for i, name in enumerate(names)}
        stats = DiscoveryStats()
        FastFDs()._difference_sets(relation, names, bit_of, (1 << 3) - 1, stats)
        reference = _difference_sets_reference(relation, names, bit_of, (1 << 3) - 1)
        assert stats.sampled_pairs > 0
        assert reference  # the case is non-degenerate
