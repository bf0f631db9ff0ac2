"""The paper's contributions: Grafite (§3) and Bucketing (§4).

This subpackage also hosts the hash-function layer both share and the
string-key extension sketched in the paper's §7.
"""

from repro.core.bucketing import Bucketing
from repro.core.grafite import Grafite, eps_from_bits_per_key, hashed_query_intervals
from repro.core.hashing import (
    LocalityPreservingHash,
    PairwiseIndependentHash,
    PowerOfTwoLocalityHash,
)
from repro.core.strings import (
    StringGrafite,
    StringKeyCodec,
    decode_string,
    encode_endpoint,
    encode_string,
)

__all__ = [
    "Bucketing",
    "Grafite",
    "LocalityPreservingHash",
    "PairwiseIndependentHash",
    "PowerOfTwoLocalityHash",
    "StringGrafite",
    "StringKeyCodec",
    "decode_string",
    "encode_endpoint",
    "encode_string",
    "eps_from_bits_per_key",
    "hashed_query_intervals",
]
