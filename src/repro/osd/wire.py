"""Wire format for OSD commands and responses.

The real open-osd stack carries OSD service actions in SCSI CDBs over
iSCSI. This module provides the simulation's equivalent: every command and
response serializes to a PDU of

- a fixed-width binary header packed by ``struct``: magic byte, version
  byte, opcode (or the response marker), flags, sequence id, then the
  command's object ids, retry count and one op-specific integer — or the
  response's sense code and io summary — and the data-segment length;
- for ``SetAttr``/``GetAttr`` only, an *extended header*: a 2-byte length
  and a JSON object holding exactly the attribute key (and value); and
- an opaque binary data segment (write payloads, read results).

Round-tripping through real bytes keeps the initiator/target boundary
honest — nothing crosses it except what the wire format can carry — and
gives the transport layer true payload sizes to bill.

Encoding packs each command class straight into the fixed header, and
decoding builds the command object (or :class:`OsdResponse`) straight
from the unpacked fields and the opcode. An integer outside its fixed
field's range raises :class:`~repro.errors.WireError` at encode time, as
does every protocol-level failure at decode time: size limits, truncation,
bad magic or version, unknown opcode, sense code or object kind, a data
segment the header does not account for, and an extended header on any
opcode other than the two attribute commands or with any keys other than
the ones that opcode needs.

Zero-copy: every decode path accepts any buffer-protocol object
(``bytes``/``bytearray``/``memoryview``), so a stream decoder can hand PDU
slices straight off its receive buffer — the data segment is copied
exactly once, into the command/response payload. On the send side the
``encode_*_parts`` variants return the PDU as ``[header, payload]``
buffers for ``writelines``, so large payloads are never concatenated into
a fresh PDU bytestring just to be written.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, NamedTuple, Optional, Tuple, Type, Union

from repro.errors import WireError
from repro.flash.array import ArrayIoResult
from repro.osd import commands
from repro.osd.sense import SenseCode
from repro.osd.target import OsdResponse
from repro.osd.types import ObjectId, ObjectKind

__all__ = [
    "Buffer",
    "CommandPdu",
    "MAGIC",
    "MAX_PDU_BYTES",
    "VERSION",
    "decode_command",
    "decode_command_pdu",
    "decode_response",
    "decode_response_pdu",
    "encode_command",
    "encode_command_parts",
    "encode_response",
    "encode_response_parts",
    "salvage_seq",
]

#: Anything the decode paths and vectored send paths accept in place of
#: ``bytes``. (``collections.abc.Buffer`` needs 3.12; spell it out.)
Buffer = Union[bytes, bytearray, memoryview]

#: Hard ceiling on a whole PDU (header + data segment). Caps both what an
#: encoder will produce and what a decoder/server will buffer per request.
MAX_PDU_BYTES = 64 * 1024 * 1024

#: First byte of every PDU.
MAGIC = 0xB2
#: Second byte of every PDU.
VERSION = 2

#: Kind byte marking a response PDU; command PDUs carry their opcode (all
#: < 0x80) in the same slot.
_RESPONSE_KIND = 0x80

_PREFIX = struct.Struct(">BBBB")
#: Command fixed header: magic, version, opcode, flags, seq, retry, pid,
#: oid, aux (op-specific: update offset / write class_id / create kind
#: index), data length. 44 bytes.
_COMMAND = struct.Struct(">BBBBQIQQqI")
#: Response fixed header: magic, version, kind, flags, seq, sense (signed —
#: FAIL is -1), elapsed, chunks read/written, bytes read/written, data
#: length. 50 bytes.
_RESPONSE = struct.Struct(">BBBBQhdIIQQI")
#: Length prefix of the extended JSON header.
_EXT_LEN = struct.Struct(">H")
_MAX_EXT_BYTES = 0xFFFF
#: Byte offset of the sequence id in both fixed headers.
_SEQ_OFFSET = _PREFIX.size

#: Flag bits shared by both PDU kinds.
_FLAG_EXT = 0x01  # extended JSON header follows the fixed header
_FLAG_SEQ = 0x02  # seq field is meaningful (None otherwise)
#: Command-only: the aux field carries a Write class_id.
_FLAG_AUX = 0x04
#: Response-only.
_FLAG_PAYLOAD = 0x04
_FLAG_DEGRADED = 0x08

_OP_CREATE_PARTITION = 0x01
_OP_CREATE = 0x02
_OP_WRITE = 0x03
_OP_UPDATE = 0x04
_OP_READ = 0x05
_OP_REMOVE = 0x06
_OP_SET_ATTR = 0x07
_OP_GET_ATTR = 0x08
_OP_LIST = 0x09

_OPCODES: Dict[Type[commands.OsdCommand], int] = {
    commands.CreatePartition: _OP_CREATE_PARTITION,
    commands.CreateObject: _OP_CREATE,
    commands.Write: _OP_WRITE,
    commands.Update: _OP_UPDATE,
    commands.Read: _OP_READ,
    commands.Remove: _OP_REMOVE,
    commands.SetAttr: _OP_SET_ATTR,
    commands.GetAttr: _OP_GET_ATTR,
    commands.ListPartition: _OP_LIST,
}
_OBJECT_COMMANDS = (
    commands.CreateObject,
    commands.Write,
    commands.Update,
    commands.Read,
    commands.Remove,
    commands.SetAttr,
    commands.GetAttr,
)
#: The extended header's exact (sorted) key set, per opcode allowed one.
_EXT_KEYS: Dict[int, Tuple[str, ...]] = {
    _OP_SET_ATTR: ("key", "value"),
    _OP_GET_ATTR: ("key",),
}
_KINDS = tuple(ObjectKind)
_KIND_INDEX = {kind: index for index, kind in enumerate(_KINDS)}


def _materialize(data: Buffer) -> bytes:
    """Copy a data segment out of the decoder's buffer, exactly once."""
    return data if isinstance(data, bytes) else bytes(data)


def _assemble(head: bytes, data: Buffer) -> List[Buffer]:
    """Enforce the PDU size limit and split off the payload segment."""
    total = len(head) + len(data)
    if total > MAX_PDU_BYTES:
        raise WireError(
            f"PDU of {total} bytes exceeds the {MAX_PDU_BYTES}-byte limit"
        )
    parts: List[Buffer] = [head]
    if len(data):
        parts.append(data)
    return parts


def _check_prefix(pdu: Buffer) -> Tuple[int, int]:
    """Validate size, magic and version; return ``(kind, flags)``."""
    if len(pdu) > MAX_PDU_BYTES:
        raise WireError(
            f"PDU of {len(pdu)} bytes exceeds the {MAX_PDU_BYTES}-byte limit"
        )
    if len(pdu) < _PREFIX.size:
        raise WireError("truncated PDU: missing fixed header")
    magic, version, kind, flags = _PREFIX.unpack_from(pdu)
    if magic != MAGIC:
        raise WireError(f"bad magic byte 0x{magic:02x}")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    return kind, flags


def _data_segment(pdu: Buffer, offset: int, declared: int) -> Buffer:
    data = pdu[offset:]
    if len(data) != declared:
        raise WireError(
            f"data segment of {len(data)} bytes does not match the "
            f"declared {declared}"
        )
    return data


def salvage_seq(pdu: Buffer) -> Optional[int]:
    """Best-effort sequence id recovery from an undecodable PDU.

    A server that cannot decode a PDU still wants to address its failure
    reply, so the client's pending request fails fast instead of timing
    out. Returns ``None`` when no sequence id can be recovered.
    """
    end = _SEQ_OFFSET + 8
    if len(pdu) < end or pdu[0] != MAGIC or not pdu[3] & _FLAG_SEQ:
        return None
    return int.from_bytes(pdu[_SEQ_OFFSET:end], "big")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def encode_command(
    command: commands.OsdCommand, seq: Optional[int] = None, retry: int = 0
) -> bytes:
    """Serialize a command to its PDU.

    Args:
        command: the command to serialize.
        seq: optional sequence id for pipelined connections; echoed back on
            the matching response so it can be demultiplexed.
        retry: retransmission attempt number (0 = first send). Lets the
            server count retried commands in its service stats.
    """
    return b"".join(
        bytes(part) for part in encode_command_parts(command, seq, retry)
    )


def encode_command_parts(
    command: commands.OsdCommand, seq: Optional[int] = None, retry: int = 0
) -> List[Buffer]:
    """Serialize a command as ``[header segment, payload]`` buffers.

    The vectored twin of :func:`encode_command` — the write/update payload
    rides along un-copied, for ``writelines``-style send paths.
    """
    opcode = _OPCODES.get(type(command))
    if opcode is None:
        raise WireError(f"cannot encode command {command!r}")
    flags = 0 if seq is None else _FLAG_SEQ
    pid = oid = aux = 0
    data: Buffer = b""
    ext: Optional[Dict[str, str]] = None
    if isinstance(command, (commands.CreatePartition, commands.ListPartition)):
        pid = command.pid
    elif isinstance(command, _OBJECT_COMMANDS):
        pid, oid = command.object_id.pid, command.object_id.oid
    if isinstance(command, commands.CreateObject):
        aux = _KIND_INDEX[command.kind]
    elif isinstance(command, commands.Write):
        data = command.payload
        if command.class_id is not None:
            flags |= _FLAG_AUX
            aux = command.class_id
    elif isinstance(command, commands.Update):
        aux = command.offset
        data = command.payload
    elif isinstance(command, commands.SetAttr):
        ext = {"key": command.key, "value": command.value}
    elif isinstance(command, commands.GetAttr):
        ext = {"key": command.key}
    if ext is not None:
        flags |= _FLAG_EXT
    try:
        head = _COMMAND.pack(
            MAGIC, VERSION, opcode, flags,
            seq or 0, retry, pid, oid, aux, len(data),
        )
    except struct.error as exc:
        raise WireError(
            f"cannot encode {type(command).__name__}: field out of range ({exc})"
        ) from None
    if ext is not None:
        ext_bytes = json.dumps(
            ext, sort_keys=True, separators=(",", ":")
        ).encode("ascii")
        if len(ext_bytes) > _MAX_EXT_BYTES:
            raise WireError(
                f"extended header of {len(ext_bytes)} bytes exceeds the "
                f"{_MAX_EXT_BYTES}-byte limit"
            )
        head += _EXT_LEN.pack(len(ext_bytes)) + ext_bytes
    return _assemble(head, data)


def decode_command(pdu: Buffer) -> commands.OsdCommand:
    """Parse a command PDU back into a command object."""
    return decode_command_pdu(pdu).command


class CommandPdu(NamedTuple):
    """Decoded command envelope."""

    seq: Optional[int]
    retry: int
    command: commands.OsdCommand


def _read_ext(pdu: Buffer, offset: int, opcode: int) -> Tuple[List[str], int]:
    """Parse the extended header at ``offset``; return its values in key
    order and the offset just past it."""
    keys = _EXT_KEYS.get(opcode)
    if keys is None:
        raise WireError(f"extended header not allowed on opcode 0x{opcode:02x}")
    if len(pdu) < offset + _EXT_LEN.size:
        raise WireError("truncated PDU: missing extended header length")
    (ext_length,) = _EXT_LEN.unpack_from(pdu, offset)
    offset += _EXT_LEN.size
    end = offset + ext_length
    if len(pdu) < end:
        raise WireError("truncated PDU: extended header shorter than declared")
    try:
        ext = json.loads(bytes(pdu[offset:end]).decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed extended header: {exc}") from None
    if not isinstance(ext, dict):
        raise WireError(
            f"extended header must be a JSON object, got {type(ext).__name__}"
        )
    if tuple(sorted(ext)) != keys:
        raise WireError(
            f"extended header keys {sorted(ext)} do not match {list(keys)}"
        )
    values = [ext[key] for key in keys]
    if not all(isinstance(value, str) for value in values):
        raise WireError("extended header values must be strings")
    return values, end


def decode_command_pdu(pdu: Buffer) -> CommandPdu:
    """Parse a command PDU into its ``(seq, retry, command)`` envelope."""
    opcode, flags = _check_prefix(pdu)
    if opcode == _RESPONSE_KIND:
        raise WireError("expected a command PDU, got a response PDU")
    if not _OP_CREATE_PARTITION <= opcode <= _OP_LIST:
        raise WireError(f"unknown command opcode 0x{opcode:02x}")
    if len(pdu) < _COMMAND.size:
        raise WireError("truncated PDU: command header cut short")
    _, _, _, _, seq, retry, pid, oid, aux, data_length = _COMMAND.unpack_from(pdu)
    offset = _COMMAND.size
    attrs: List[str] = []
    if flags & _FLAG_EXT:
        attrs, offset = _read_ext(pdu, offset, opcode)
    elif opcode in _EXT_KEYS:
        raise WireError(f"opcode 0x{opcode:02x} requires an extended header")
    data = _data_segment(pdu, offset, data_length)
    if data_length and opcode not in (_OP_WRITE, _OP_UPDATE):
        raise WireError(f"opcode 0x{opcode:02x} carries no data segment")
    command: commands.OsdCommand
    if opcode == _OP_CREATE_PARTITION:
        command = commands.CreatePartition(pid)
    elif opcode == _OP_LIST:
        command = commands.ListPartition(pid)
    else:
        object_id = ObjectId(pid, oid)
        if opcode == _OP_CREATE:
            if not 0 <= aux < len(_KINDS):
                raise WireError(f"unknown object kind index {aux}")
            command = commands.CreateObject(object_id, _KINDS[aux])
        elif opcode == _OP_WRITE:
            class_id = aux if flags & _FLAG_AUX else None
            command = commands.Write(object_id, _materialize(data), class_id)
        elif opcode == _OP_UPDATE:
            command = commands.Update(object_id, aux, _materialize(data))
        elif opcode == _OP_READ:
            command = commands.Read(object_id)
        elif opcode == _OP_REMOVE:
            command = commands.Remove(object_id)
        elif opcode == _OP_SET_ATTR:
            command = commands.SetAttr(object_id, attrs[0], attrs[1])
        else:
            command = commands.GetAttr(object_id, attrs[0])
    return CommandPdu(seq if flags & _FLAG_SEQ else None, retry, command)


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def encode_response(response: OsdResponse, seq: Optional[int] = None) -> bytes:
    """Serialize a response to its PDU (sense + io summary + payload).

    ``seq`` echoes the request's sequence id so pipelined connections can
    match out-of-order responses to in-flight requests.
    """
    return b"".join(bytes(part) for part in encode_response_parts(response, seq))


def encode_response_parts(
    response: OsdResponse, seq: Optional[int] = None
) -> List[Buffer]:
    """Serialize a response as ``[header segment, payload]`` buffers.

    The vectored twin of :func:`encode_response` — a read payload is
    written straight from the object store's bytes, never copied into a
    concatenated PDU.
    """
    flags = 0 if seq is None else _FLAG_SEQ
    io = response.io
    data: Buffer = b""
    if response.payload is not None:
        flags |= _FLAG_PAYLOAD
        data = response.payload
    if io.degraded:
        flags |= _FLAG_DEGRADED
    try:
        head = _RESPONSE.pack(
            MAGIC, VERSION, _RESPONSE_KIND, flags,
            seq or 0, response.sense, io.elapsed,
            io.chunks_read, io.chunks_written,
            io.bytes_read, io.bytes_written, len(data),
        )
    except struct.error as exc:
        raise WireError(f"cannot encode response: field out of range ({exc})") from None
    return _assemble(head, data)


def decode_response(pdu: Buffer) -> OsdResponse:
    """Parse a response PDU."""
    return decode_response_pdu(pdu)[1]


def decode_response_pdu(pdu: Buffer) -> Tuple[Optional[int], OsdResponse]:
    """Parse a response PDU; returns ``(sequence id or None, response)``."""
    kind, flags = _check_prefix(pdu)
    if kind != _RESPONSE_KIND:
        raise WireError("expected a response PDU, got a command PDU")
    if len(pdu) < _RESPONSE.size:
        raise WireError("truncated PDU: response header cut short")
    if flags & _FLAG_EXT:
        raise WireError("extended header not allowed on a response")
    (
        _, _, _, _, seq, sense, elapsed,
        chunks_read, chunks_written, bytes_read, bytes_written, data_length,
    ) = _RESPONSE.unpack_from(pdu)
    data = _data_segment(pdu, _RESPONSE.size, data_length)
    payload: Optional[bytes] = None
    if flags & _FLAG_PAYLOAD:
        payload = _materialize(data)
    elif data_length:
        raise WireError("response data segment without the payload flag")
    try:
        sense_code = SenseCode(sense)
    except ValueError:
        raise WireError(f"unknown sense code {sense}") from None
    io = ArrayIoResult(
        elapsed=elapsed,
        chunks_read=chunks_read,
        chunks_written=chunks_written,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        degraded=bool(flags & _FLAG_DEGRADED),
    )
    return (seq if flags & _FLAG_SEQ else None), OsdResponse(
        sense_code, io=io, payload=payload
    )
