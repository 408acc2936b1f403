"""Properties of the PDU wire format: round trips, pinned bytes, fuzzing.

Round-trips **every** command and response type through real bytes
(sense codes, empty/large/absent payloads, degraded io, ``seq=None`` vs
``0``), pins the exact bytes of one PDU per opcode so the format cannot
drift, and feeds truncated, garbage and bit-flipped PDUs to the decoders,
which must answer with :class:`~repro.errors.WireError` — never a bare
``KeyError``/``ValueError``/``struct.error`` or a silently wrong object.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OsdError, WireError
from repro.flash.array import ArrayIoResult
from repro.osd import commands, wire
from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse
from repro.osd.types import PARTITION_BASE, ObjectId, ObjectKind

U64 = 2**64 - 1
U32 = 2**32 - 1
I64 = 2**63 - 1

USER_A = ObjectId(PARTITION_BASE, 0x10005)

# ----------------------------------------------------------------------
# Strategies: one per command type, then the union of all of them
# ----------------------------------------------------------------------
object_ids = st.builds(
    ObjectId,
    st.integers(min_value=0, max_value=U64),
    st.integers(min_value=0, max_value=U64),
)
small_payloads = st.one_of(st.just(b""), st.binary(max_size=256))
payloads = st.one_of(
    small_payloads,
    st.just(b"\xff" * 65536),  # large payload without slowing hypothesis down
)
attr_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FFF), max_size=40
)


def command_strategy(payload_strategy):
    return st.one_of(
        st.builds(commands.CreatePartition, st.integers(min_value=0, max_value=U64)),
        st.builds(commands.CreateObject, object_ids, st.sampled_from(list(ObjectKind))),
        st.builds(
            commands.Write,
            object_ids,
            payload_strategy,
            st.one_of(st.none(), st.integers(min_value=-I64 - 1, max_value=I64)),
        ),
        st.builds(
            commands.Update,
            object_ids,
            st.integers(min_value=-I64 - 1, max_value=I64),
            payload_strategy,
        ),
        st.builds(commands.Read, object_ids),
        st.builds(commands.Remove, object_ids),
        st.builds(commands.SetAttr, object_ids, attr_text, attr_text),
        st.builds(commands.GetAttr, object_ids, attr_text),
        st.builds(commands.ListPartition, st.integers(min_value=0, max_value=U64)),
    )


command_strategies = command_strategy(payloads)
small_commands = command_strategy(small_payloads)


def response_strategy(payload_strategy):
    return st.builds(
        OsdResponse,
        st.sampled_from(list(SenseCode)),
        io=st.builds(
            ArrayIoResult,
            elapsed=st.floats(min_value=0, max_value=1e6, allow_nan=False),
            chunks_read=st.integers(min_value=0, max_value=U32),
            chunks_written=st.integers(min_value=0, max_value=U32),
            bytes_read=st.integers(min_value=0, max_value=U64),
            bytes_written=st.integers(min_value=0, max_value=U64),
            degraded=st.booleans(),
        ),
        payload=st.one_of(st.none(), payload_strategy),
    )


responses = response_strategy(payloads)
small_responses = response_strategy(small_payloads)

seqs = st.one_of(st.none(), st.just(0), st.integers(min_value=0, max_value=U64))
retries = st.integers(min_value=0, max_value=U32)


def assert_same_response(decoded, response):
    assert decoded.sense is response.sense
    assert decoded.payload == response.payload
    assert decoded.io.elapsed == response.io.elapsed
    assert decoded.io.chunks_read == response.io.chunks_read
    assert decoded.io.chunks_written == response.io.chunks_written
    assert decoded.io.bytes_read == response.io.bytes_read
    assert decoded.io.bytes_written == response.io.bytes_written
    assert decoded.io.degraded == response.io.degraded


def decodes_or_wire_error(decoder, pdu):
    try:
        decoder(pdu)
    except WireError:
        pass


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestCommandRoundTrips:
    @given(command=command_strategies)
    def test_every_command_type_round_trips(self, command):
        assert wire.decode_command(wire.encode_command(command)) == command

    @given(command=command_strategies, seq=seqs, retry=retries)
    def test_seq_and_retry_round_trip(self, command, seq, retry):
        pdu = wire.encode_command(command, seq=seq, retry=retry)
        envelope = wire.decode_command_pdu(pdu)
        assert envelope.seq == seq
        assert envelope.retry == retry
        assert envelope.command == command

    def test_seq_none_distinct_from_zero(self):
        read = commands.Read(USER_A)
        assert wire.decode_command_pdu(wire.encode_command(read)).seq is None
        assert wire.decode_command_pdu(wire.encode_command(read, seq=0)).seq == 0
        ok = OsdResponse(SenseCode.OK)
        assert wire.decode_response_pdu(wire.encode_response(ok))[0] is None
        assert wire.decode_response_pdu(wire.encode_response(ok, seq=0))[0] == 0

    def test_all_command_types_covered(self):
        """The strategy union must include every exported command type."""
        covered = {
            commands.CreatePartition,
            commands.CreateObject,
            commands.Write,
            commands.Update,
            commands.Read,
            commands.Remove,
            commands.SetAttr,
            commands.GetAttr,
            commands.ListPartition,
        }
        exported = {
            getattr(commands, name)
            for name in commands.__all__
            if name != "OsdCommand"
        }
        assert covered == exported


class TestResponseRoundTrips:
    @given(response=responses, seq=seqs)
    def test_every_sense_and_payload_round_trips(self, response, seq):
        got_seq, decoded = wire.decode_response_pdu(wire.encode_response(response, seq=seq))
        assert got_seq == seq
        assert_same_response(decoded, response)

    def test_ok_response_is_fixed_width(self):
        pdu = wire.encode_response(OsdResponse(SenseCode.OK), seq=1)
        assert len(pdu) == 50  # the documented fixed response header, no JSON


# ----------------------------------------------------------------------
# Pinned bytes: one PDU per opcode, fields spaced as the fixed header
# lays them out (magic, version, opcode/kind, flags, seq, ...).
# ----------------------------------------------------------------------
GOLDEN_COMMANDS = [
    (
        commands.CreatePartition(PARTITION_BASE), 1, 0,
        "b2 02 01 02 0000000000000001 00000000 0000000000010000"
        " 0000000000000000 0000000000000000 00000000",
    ),
    (
        commands.CreateObject(USER_A, ObjectKind.COLLECTION), 2, 0,
        "b2 02 02 02 0000000000000002 00000000 0000000000010000"
        " 0000000000010005 0000000000000002 00000000",
    ),
    (
        commands.Write(USER_A, b"payload", 3), 3, 1,
        "b2 02 03 06 0000000000000003 00000001 0000000000010000"
        " 0000000000010005 0000000000000003 00000007 7061796c6f6164",
    ),
    (
        commands.Update(USER_A, 128, b"delta"), 4, 0,
        "b2 02 04 02 0000000000000004 00000000 0000000000010000"
        " 0000000000010005 0000000000000080 00000005 64656c7461",
    ),
    (
        commands.Read(USER_A), 5, 0,
        "b2 02 05 02 0000000000000005 00000000 0000000000010000"
        " 0000000000010005 0000000000000000 00000000",
    ),
    (
        commands.Remove(USER_A), 6, 0,
        "b2 02 06 02 0000000000000006 00000000 0000000000010000"
        " 0000000000010005 0000000000000000 00000000",
    ),
    (
        commands.SetAttr(USER_A, "app", "medisyn"), 7, 0,
        "b2 02 07 03 0000000000000007 00000000 0000000000010000"
        " 0000000000010005 0000000000000000 00000000"
        " 001f 7b226b6579223a22617070222c2276616c7565223a226d65646973796e227d",
    ),
    (
        commands.GetAttr(USER_A, "app"), 8, 0,
        "b2 02 08 03 0000000000000008 00000000 0000000000010000"
        " 0000000000010005 0000000000000000 00000000"
        " 000d 7b226b6579223a22617070227d",
    ),
    (
        commands.ListPartition(PARTITION_BASE), None, 0,
        "b2 02 09 00 0000000000000000 00000000 0000000000010000"
        " 0000000000000000 0000000000000000 00000000",
    ),
]

GOLDEN_RESPONSES = [
    (
        OsdResponse(
            SenseCode.OK,
            io=ArrayIoResult(elapsed=0.25, chunks_read=1, bytes_read=5),
            payload=b"hello",
        ),
        5,
        "b2 02 80 06 0000000000000005 0000 3fd0000000000000 00000001 00000000"
        " 0000000000000005 0000000000000000 00000005 68656c6c6f",
    ),
    (
        OsdResponse(
            SenseCode.FAIL,
            io=ArrayIoResult(
                elapsed=0.5, chunks_written=2, bytes_written=8192, degraded=True
            ),
        ),
        None,
        "b2 02 80 08 0000000000000000 ffff 3fe0000000000000 00000000 00000002"
        " 0000000000000000 0000000000002000 00000000",
    ),
]


class TestGoldenPdus:
    @pytest.mark.parametrize(
        "command,seq,retry,golden",
        GOLDEN_COMMANDS,
        ids=[type(case[0]).__name__ for case in GOLDEN_COMMANDS],
    )
    def test_command_bytes_pinned(self, command, seq, retry, golden):
        pdu = bytes.fromhex(golden)
        assert wire.encode_command(command, seq=seq, retry=retry) == pdu
        assert wire.decode_command_pdu(pdu) == (seq, retry, command)

    @pytest.mark.parametrize(
        "response,seq,golden", GOLDEN_RESPONSES, ids=["payload", "no-payload"]
    )
    def test_response_bytes_pinned(self, response, seq, golden):
        pdu = bytes.fromhex(golden)
        assert wire.encode_response(response, seq=seq) == pdu
        got_seq, decoded = wire.decode_response_pdu(pdu)
        assert got_seq == seq
        assert_same_response(decoded, response)


# ----------------------------------------------------------------------
# The extended header: attr key/value strings only, nothing else
# ----------------------------------------------------------------------
def with_ext(pdu: bytes, fixed_size: int, ext) -> bytes:
    """Graft an extended JSON header onto a PDU that carries none."""
    ext_bytes = json.dumps(ext).encode("ascii")
    flagged = bytearray(pdu[:fixed_size])
    flagged[3] |= 0x01
    return bytes(flagged) + struct.pack(">H", len(ext_bytes)) + ext_bytes + pdu[fixed_size:]


def replace_ext(pdu: bytes, ext) -> bytes:
    """Swap the extended header of an attr command PDU for ``ext``."""
    return with_ext(pdu[:44], 44, ext)


#: Spelled out as bytes, not encoded, so the forgeries below are the same
#: bytes whatever the encoder does: READ of ``USER_A`` and an OK response
#: without payload, both with seq 3.
READ_SEQ3 = bytes.fromhex(
    "b2 02 05 02 0000000000000003 00000000 0000000000010000"
    " 0000000000010005 0000000000000000 00000000"
)
OK_SEQ3 = bytes.fromhex(
    "b2 02 80 02 0000000000000003 0000 0000000000000000 00000000 00000000"
    " 0000000000000000 0000000000000000 00000000"
)


class TestExtendedHeader:
    def test_forgery_baselines_decode(self):
        assert wire.decode_command_pdu(READ_SEQ3) == (3, 0, commands.Read(USER_A))
        seq, response = wire.decode_response_pdu(OK_SEQ3)
        assert seq == 3 and response.ok and response.payload is None

    def test_ext_cannot_override_the_opcode(self):
        forged = with_ext(READ_SEQ3, 44, {"op": "remove"})
        with pytest.raises(WireError, match="extended header"):
            wire.decode_command_pdu(forged)

    def test_ext_cannot_forge_a_response_payload(self):
        forged = with_ext(OK_SEQ3, 50, {"has_payload": True})
        with pytest.raises(WireError, match="extended header"):
            wire.decode_response_pdu(forged)

    @pytest.mark.parametrize(
        "command",
        [
            commands.CreatePartition(PARTITION_BASE),
            commands.CreateObject(USER_A),
            commands.Write(USER_A, b"abc", 1),
            commands.Update(USER_A, 0, b"abc"),
            commands.Read(USER_A),
            commands.Remove(USER_A),
            commands.ListPartition(PARTITION_BASE),
        ],
        ids=lambda c: type(c).__name__,
    )
    def test_ext_rejected_on_every_non_attr_opcode(self, command):
        forged = with_ext(wire.encode_command(command), 44, {"key": "k"})
        with pytest.raises(WireError, match="extended header"):
            wire.decode_command_pdu(forged)

    @pytest.mark.parametrize(
        "ext",
        [
            {"key": "k"},  # missing value
            {"key": "k", "value": "v", "op": "remove"},  # extra key
            {"value": "v", "pid": 1},  # wrong keys
            {"key": "k", "value": 7},  # non-string value
            {"key": None, "value": "v"},
        ],
    )
    def test_set_attr_needs_exactly_key_and_value_strings(self, ext):
        pdu = wire.encode_command(commands.SetAttr(USER_A, "k", "v"))
        with pytest.raises(WireError, match="extended header"):
            wire.decode_command_pdu(replace_ext(pdu, ext))

    @pytest.mark.parametrize(
        "ext", [{}, {"key": "k", "value": "v"}, {"key": ["k"]}, {"oid": 9, "key": "k"}]
    )
    def test_get_attr_needs_exactly_a_key_string(self, ext):
        pdu = wire.encode_command(commands.GetAttr(USER_A, "k"))
        with pytest.raises(WireError, match="extended header"):
            wire.decode_command_pdu(replace_ext(pdu, ext))

    def test_attr_opcode_without_ext_rejected(self):
        pdu = bytearray(wire.encode_command(commands.GetAttr(USER_A, "k")))
        pdu[3] &= ~0x01
        with pytest.raises(WireError, match="extended header"):
            wire.decode_command_pdu(bytes(pdu[:44]))


# ----------------------------------------------------------------------
# Encode-time range checks
# ----------------------------------------------------------------------
OUT_OF_RANGE = [
    ("seq", lambda: wire.encode_command(commands.Read(USER_A), seq=U64 + 1)),
    ("negative-seq", lambda: wire.encode_command(commands.Read(USER_A), seq=-1)),
    ("retry", lambda: wire.encode_command(commands.Read(USER_A), retry=U32 + 1)),
    ("pid", lambda: wire.encode_command(commands.Read(ObjectId(U64 + 1, 1)))),
    ("oid", lambda: wire.encode_command(commands.Remove(ObjectId(1, U64 + 1)))),
    ("partition", lambda: wire.encode_command(commands.ListPartition(U64 + 1))),
    ("offset", lambda: wire.encode_command(commands.Update(USER_A, I64 + 1, b"x"))),
    ("class-id", lambda: wire.encode_command(commands.Write(USER_A, b"x", -I64 - 2))),
    (
        "response-seq",
        lambda: wire.encode_response(OsdResponse(SenseCode.OK), seq=U64 + 1),
    ),
    (
        "chunks-read",
        lambda: wire.encode_response(
            OsdResponse(SenseCode.OK, io=ArrayIoResult(chunks_read=U32 + 1))
        ),
    ),
    (
        "bytes-written",
        lambda: wire.encode_response(
            OsdResponse(SenseCode.OK, io=ArrayIoResult(bytes_written=U64 + 1))
        ),
    ),
]


class TestRangeChecks:
    @pytest.mark.parametrize(
        "encode", [case[1] for case in OUT_OF_RANGE], ids=[case[0] for case in OUT_OF_RANGE]
    )
    def test_out_of_range_integer_rejected_at_encode(self, encode):
        with pytest.raises(WireError, match="out of range"):
            encode()


# ----------------------------------------------------------------------
# Fuzzing and malformed input
# ----------------------------------------------------------------------
class TestDecoderFuzzing:
    @given(garbage=st.binary(max_size=512))
    @settings(max_examples=200)
    def test_garbage_never_escapes_wire_error(self, garbage):
        """Any byte soup either decodes cleanly or raises WireError."""
        for decoder in (wire.decode_command, wire.decode_response):
            decodes_or_wire_error(decoder, garbage)

    @given(garbage=st.binary(max_size=512))
    @settings(max_examples=300)
    def test_magic_prefixed_garbage_never_escapes_wire_error(self, garbage):
        soup = bytes([wire.MAGIC, wire.VERSION]) + garbage
        for decoder in (wire.decode_command, wire.decode_response):
            decodes_or_wire_error(decoder, soup)

    @given(command=small_commands, seq=seqs)
    def test_truncated_command_rejected(self, command, seq):
        pdu = memoryview(wire.encode_command(command, seq=seq))
        for cut in range(len(pdu)):
            with pytest.raises(WireError):
                wire.decode_command_pdu(pdu[:cut])

    @given(command=command_strategies, seq=seqs, cut=st.integers(min_value=1, max_value=64))
    def test_truncated_tail_of_any_command_rejected(self, command, seq, cut):
        """Cutting the tail off any PDU, 64 KiB payloads included, is caught:
        the declared data length is checked at decode time."""
        pdu = wire.encode_command(command, seq=seq)
        with pytest.raises(WireError):
            wire.decode_command_pdu(pdu[: max(0, len(pdu) - cut)])

    @given(response=small_responses, seq=seqs)
    def test_truncated_response_rejected(self, response, seq):
        pdu = memoryview(wire.encode_response(response, seq=seq))
        for cut in range(len(pdu)):
            with pytest.raises(WireError):
                wire.decode_response_pdu(pdu[:cut])

    @given(command=small_commands, seq=seqs)
    @settings(max_examples=50)
    def test_bitflipped_command_never_escapes_wire_error(self, command, seq):
        pdu = wire.encode_command(command, seq=seq)
        for bit in range(8 * (len(pdu) - len(getattr(command, "payload", b"")))):
            flipped = bytearray(pdu)
            flipped[bit // 8] ^= 1 << (bit % 8)
            decodes_or_wire_error(wire.decode_command_pdu, bytes(flipped))

    @given(response=small_responses, seq=seqs)
    @settings(max_examples=50)
    def test_bitflipped_response_never_escapes_wire_error(self, response, seq):
        pdu = wire.encode_response(response, seq=seq)
        for bit in range(8 * 50):
            flipped = bytearray(pdu)
            flipped[bit // 8] ^= 1 << (bit % 8)
            decodes_or_wire_error(wire.decode_response_pdu, bytes(flipped))

    def test_wire_error_is_typed(self):
        with pytest.raises(WireError):
            wire.decode_command(b"\xb2\x02")
        assert issubclass(WireError, OsdError)

    def test_unknown_version_byte_rejected(self):
        pdu = bytearray(wire.encode_command(commands.Read(USER_A)))
        pdu[1] = 3
        with pytest.raises(WireError, match="version"):
            wire.decode_command(bytes(pdu))

    def test_unknown_opcode_rejected(self):
        pdu = bytearray(wire.encode_command(commands.Read(USER_A)))
        pdu[2] = 0x7F
        with pytest.raises(WireError, match="opcode"):
            wire.decode_command(bytes(pdu))

    def test_non_dict_header_rejected(self):
        pdu = wire.encode_command(commands.GetAttr(USER_A, "k"))
        with pytest.raises(WireError, match="JSON object"):
            wire.decode_command(replace_ext(pdu, [1, 2, 3]))

    def test_declared_header_over_limit_rejected(self):
        """An extended header declared longer than the bytes present (up to
        the u16 length limit) is rejected, not read past the PDU."""
        pdu = wire.encode_command(commands.GetAttr(USER_A, "k"))
        forged = pdu[:44] + struct.pack(">H", 0xFFFF) + b"{}"
        with pytest.raises(WireError, match="declared"):
            wire.decode_command(forged)

    def test_oversized_pdu_rejected_by_decoder(self):
        pdu = wire.encode_command(commands.Read(USER_A)) + b"\x00" * wire.MAX_PDU_BYTES
        with pytest.raises(WireError, match="limit"):
            wire.decode_response(pdu)

    def test_oversized_header_rejected_by_encoder(self):
        huge_key = "k" * 0x10000
        with pytest.raises(WireError, match="limit"):
            wire.encode_command(commands.GetAttr(USER_A, huge_key))

    def test_oversized_declared_data_rejected(self):
        pdu = bytearray(wire.encode_command(commands.Write(USER_A, b"abc", None)))
        # Last 4 fixed-header bytes are the data length; declare > MAX_PDU.
        pdu[40:44] = (wire.MAX_PDU_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(WireError):
            wire.decode_command_pdu(bytes(pdu))

    def test_data_segment_on_payloadless_command_rejected(self):
        pdu = bytearray(wire.encode_command(commands.Read(USER_A)))
        pdu[40:44] = (3).to_bytes(4, "big")
        with pytest.raises(WireError, match="data segment"):
            wire.decode_command_pdu(bytes(pdu) + b"abc")

    def test_response_data_without_payload_flag_rejected(self):
        pdu = bytearray(wire.encode_response(OsdResponse(SenseCode.OK, payload=b"abc")))
        pdu[3] &= ~0x04
        with pytest.raises(WireError, match="payload flag"):
            wire.decode_response_pdu(bytes(pdu))

    def test_unknown_sense_rejected(self):
        pdu = bytearray(wire.encode_response(OsdResponse(SenseCode.OK)))
        pdu[12:14] = (9999).to_bytes(2, "big")
        with pytest.raises(WireError, match="sense"):
            wire.decode_response(bytes(pdu))

    def test_unknown_object_kind_rejected(self):
        pdu = bytearray(wire.encode_command(commands.CreateObject(USER_A)))
        pdu[32:40] = (len(ObjectKind)).to_bytes(8, "big")
        with pytest.raises(WireError, match="kind"):
            wire.decode_command(bytes(pdu))

    def test_command_decoder_rejects_response_kind(self):
        pdu = wire.encode_response(OsdResponse(SenseCode.OK), seq=1)
        with pytest.raises(WireError, match="command"):
            wire.decode_command_pdu(pdu)
        cmd_pdu = wire.encode_command(commands.Read(USER_A))
        with pytest.raises(WireError, match="response"):
            wire.decode_response_pdu(cmd_pdu)

    def test_salvage_seq(self):
        pdu = wire.encode_command(commands.Read(USER_A), seq=4242)
        assert wire.salvage_seq(pdu) == 4242
        assert wire.salvage_seq(pdu[:12]) == 4242
        assert wire.salvage_seq(pdu[:11]) is None
        assert wire.salvage_seq(wire.encode_command(commands.Read(USER_A))) is None
        assert wire.salvage_seq(b"") is None
