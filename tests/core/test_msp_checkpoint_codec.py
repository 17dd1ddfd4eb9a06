"""The MSP checkpoint's single-pass map codec matches the chained form.

``MspCheckpointRecord`` writes its three ``str -> uint`` maps
(``session_start_lsns``, ``sv_start_lsns``, ``session_chain_heads``) in
one loop each, with cached key bytes and inline varints.  The reference
below is the chained ``Encoder`` encoding the record used before; every
record must encode to exactly its bytes and decode back to itself
through both the compiled and the general decoder.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plsn import encode_frontier, make_plsn
from repro.core.records import (
    MspCheckpointRecord,
    _decode_record_general,
    decode_record,
)
from repro.wire import Encoder
from repro.wire.codec import CodecError, encode_text_uint_map, read_text_uint_map


def reference_encode(record: MspCheckpointRecord) -> bytes:
    enc = Encoder().uint(record.kind).uint(record.epoch)
    enc.uint(len(record.recovered_snapshot))
    for msp in sorted(record.recovered_snapshot):
        enc.text(msp)
        epochs = record.recovered_snapshot[msp]
        enc.uint(len(epochs))
        for ep in sorted(epochs):
            enc.uint(ep).uint(epochs[ep])
    enc.uint(len(record.session_start_lsns))
    for sid in sorted(record.session_start_lsns):
        enc.text(sid).uint(record.session_start_lsns[sid])
    enc.uint(len(record.sv_start_lsns))
    for name in sorted(record.sv_start_lsns):
        enc.text(name).uint(record.sv_start_lsns[name])
    if record.partition_ends or record.session_chain_heads:
        enc.uint(len(record.partition_ends))
        for end in record.partition_ends:
            enc.uint(end)
    if record.session_chain_heads:
        enc.uint(len(record.session_chain_heads))
        for sid in sorted(record.session_chain_heads):
            enc.text(sid).uint(record.session_chain_heads[sid])
    return enc.finish()


def check(record: MspCheckpointRecord) -> None:
    data = record.encode()
    assert data == reference_encode(record)
    assert decode_record(data) == record
    assert decode_record(memoryview(data)) == record
    assert _decode_record_general(data) == record


#: Every varint width boundary the inline writer special-cases.
BOUNDARY_VALUES = [
    0, 1, 127, 128, 2**14 - 1, 2**14, 2**21 - 1, 2**21, 2**28 - 1, 2**28,
    2**35, 2**64 - 1, 2**64,
]

#: Session ids whose UTF-8 length differs from their length in
#: characters, plus one key too long for a one-byte length prefix.
NON_ASCII_IDS = ["é", "ßession:0", "クライアント#1", "\U0001f600:2", "x" * 200, ""]


def test_boundary_values_in_every_map():
    keys = [f"k{i:02d}" for i in range(len(BOUNDARY_VALUES))]
    values = dict(zip(keys, BOUNDARY_VALUES))
    check(MspCheckpointRecord({"msp2": {0: 128, 3: 2**21}}, values, values, 1))
    check(MspCheckpointRecord({}, values, values, 7, (5, 2**28), values))


def test_non_ascii_session_ids():
    ids = {sid: 300 + i for i, sid in enumerate(NON_ASCII_IDS)}
    check(MspCheckpointRecord({"mspé": {0: 1}}, ids, {"総計": 2**21}, 0))
    check(MspCheckpointRecord({}, ids, {}, 0, (), ids))


def test_partitioned_lsns_and_wide_frontiers():
    """Session starts carry a partition number; SV starts at P>1 are
    packed frontiers wider than 64 bits."""
    sessions = {f"c{p}": make_plsn(p, 4096 * p + 7) for p in range(8)}
    frontiers = {
        "SV0": encode_frontier([100, 2**40, 0, 2**47]),
        "SV1": encode_frontier([2**48 - 1] * 8),
    }
    assert all(value >= 2**64 for value in frontiers.values())
    ends = (2**30, 2**47, 0, 9)
    check(MspCheckpointRecord({}, sessions, frontiers, 3, ends))
    check(MspCheckpointRecord({}, sessions, frontiers, 3, ends, dict(sessions)))


def test_empty_maps_and_optional_fields():
    check(MspCheckpointRecord({}, {}, {}, 0))
    check(MspCheckpointRecord({}, {}, {}, 0, (0,)))
    check(MspCheckpointRecord({}, {}, {}, 0, (), {"a": 0}))
    check(MspCheckpointRecord({"m": {}}, {"a": 1}, {}, 2, (1, 2)))


@settings(max_examples=200, deadline=None)
@given(
    snapshot=st.dictionaries(
        st.text(max_size=6),
        st.dictionaries(st.integers(0, 2**20), st.integers(0, 2**50), max_size=3),
        max_size=3,
    ),
    sessions=st.dictionaries(st.text(max_size=12), st.integers(0, 2**70), max_size=40),
    svs=st.dictionaries(st.text(max_size=12), st.integers(0, 2**200), max_size=10),
    epoch=st.integers(0, 2**20),
    ends=st.lists(st.integers(0, 2**48), max_size=5).map(tuple),
    heads=st.dictionaries(st.text(max_size=12), st.integers(0, 2**48), max_size=40),
)
def test_matches_reference_encoder(snapshot, sessions, svs, epoch, ends, heads):
    check(MspCheckpointRecord(snapshot, sessions, svs, epoch, ends, heads))


def test_map_codec_rejects_negative_values():
    with pytest.raises(ValueError):
        encode_text_uint_map({"a": -1})
    with pytest.raises(ValueError):
        encode_text_uint_map({"a": -(2**30)})


def test_truncated_map_raises_codec_error():
    data = encode_text_uint_map({"session": 2**21, "other": 5})
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            read_text_uint_map(data[:cut], 0)
    assert read_text_uint_map(data, 0) == ({"other": 5, "session": 2**21}, len(data))
