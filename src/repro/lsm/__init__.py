"""Mini LSM key-value store with pluggable range filters (§1's motivation)."""

from repro.lsm.cache import BlockCache
from repro.lsm.compaction import (
    CompactionPolicy,
    CompactionStep,
    FullMergePolicy,
    LeveledPolicy,
    MergeUnit,
    TieredPolicy,
    policy_names,
    resolve_policy,
)
from repro.lsm.memtable import TOMBSTONE, MemTable
from repro.lsm.sstable import BLOCK_ENTRIES, SSTable
from repro.lsm.store import IoStats, LSMStore
from repro.lsm.ttl import ExpiringValue, expiry_of, is_live, unwrap

__all__ = [
    "ExpiringValue",
    "expiry_of",
    "is_live",
    "unwrap",
    "BLOCK_ENTRIES",
    "BlockCache",
    "CompactionPolicy",
    "CompactionStep",
    "FullMergePolicy",
    "IoStats",
    "LSMStore",
    "LeveledPolicy",
    "MemTable",
    "MergeUnit",
    "SSTable",
    "TOMBSTONE",
    "TieredPolicy",
    "policy_names",
    "resolve_policy",
]
