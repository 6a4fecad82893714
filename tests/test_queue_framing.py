"""Tests for control-plane stream framing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.middleware.framing import MessageStreamDecoder, frame_messages
from repro.middleware.protocol import (
    DeleteTenantRequest,
    Heartbeat,
    MigrateTenantComplete,
    ProtocolError,
    TenantLocationUpdate,
)


SAMPLE_MESSAGES = [
    DeleteTenantRequest(tenant_id=7),
    Heartbeat(node="alpha", tenant_count=3, disk_utilization=0.42),
    TenantLocationUpdate(tenant_id=7, node="beta", port=3313),
    MigrateTenantComplete(tenant_id=7, duration=93.5, downtime=0.02,
                          bytes_moved=1 << 30),
]


class TestMessageStreamDecoder:
    def test_whole_stream_at_once(self):
        decoder = MessageStreamDecoder()
        out = decoder.feed(frame_messages(SAMPLE_MESSAGES))
        assert out == SAMPLE_MESSAGES
        assert decoder.buffered_bytes == 0
        assert decoder.messages_decoded == len(SAMPLE_MESSAGES)

    def test_byte_by_byte(self):
        decoder = MessageStreamDecoder()
        out = []
        for byte in frame_messages(SAMPLE_MESSAGES):
            out.extend(decoder.feed(bytes([byte])))
        assert out == SAMPLE_MESSAGES
        assert decoder.buffered_bytes == 0

    def test_split_mid_header(self):
        decoder = MessageStreamDecoder()
        wire = frame_messages([SAMPLE_MESSAGES[3]])
        assert decoder.feed(wire[:1]) == []
        assert decoder.feed(wire[1:]) == [SAMPLE_MESSAGES[3]]

    def test_iter_feed(self):
        decoder = MessageStreamDecoder()
        wire = frame_messages(SAMPLE_MESSAGES)
        chunks = [wire[i : i + 5] for i in range(0, len(wire), 5)]
        assert list(decoder.iter_feed(iter(chunks))) == SAMPLE_MESSAGES

    def test_buffer_bound(self):
        decoder = MessageStreamDecoder()
        decoder.MAX_BUFFER = 16
        with pytest.raises(ProtocolError):
            decoder.feed(b"\x01" + b"\xff" * 64)

    def test_partial_message_stays_buffered(self):
        decoder = MessageStreamDecoder()
        wire = frame_messages([SAMPLE_MESSAGES[1]])
        decoder.feed(wire[: len(wire) // 2])
        assert decoder.buffered_bytes == len(wire) // 2
        assert decoder.messages_decoded == 0


@settings(max_examples=40)
@given(
    cut_points=st.lists(st.integers(min_value=1, max_value=200), max_size=8),
)
def test_any_chunking_decodes_identically(cut_points):
    wire = frame_messages(SAMPLE_MESSAGES)
    decoder = MessageStreamDecoder()
    out = []
    position = 0
    for cut in sorted(set(min(c, len(wire)) for c in cut_points)):
        out.extend(decoder.feed(wire[position:cut]))
        position = cut
    out.extend(decoder.feed(wire[position:]))
    assert out == SAMPLE_MESSAGES
