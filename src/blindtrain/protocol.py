"""Binary wire format between the coordinator and compute workers.

Frame layout, all integers little-endian:

    magic    4 bytes  0x54 0x45 0x4D 0x50 ("TEMP")
    version  1 byte   0x03
    type     1 byte   message type
    length   8 bytes  payload byte count
    payload  variable

A payload is its message's fixed fields, then its matrices, as the one
table _PAYLOADS describes each type; encode, decode and message equality
all read it.  ERROR's payload ends in UTF-8 text instead of matrices.
Matrices travel as u32 rows, u32 cols, then rows*cols float64 values in
row-major order.  Every message has exactly one byte encoding; decoders
reject bad magic, unsupported versions, unknown types, short or
overlong payloads and non-UTF-8 ERROR text, each as a ProtocolError,
most as a subclass naming the fault so the peer's is diagnosable.
"""
from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER",
    "MAX_PAYLOAD",
    "MsgType",
    "ProtocolError",
    "BadMagic",
    "BadVersion",
    "TruncatedFrame",
    "UnknownMessageType",
    "Hello",
    "Config",
    "StorePair",
    "MultBwd",
    "Result",
    "Error",
    "encode",
    "decode",
    "send_message",
    "read_message",
    "result_size",
]

MAGIC = b"TEMP"
VERSION = 3
HEADER = struct.Struct("<4sBBQ")  # magic, version, type, payload length
MAX_PAYLOAD = 1 << 30  # sanity cap; a declared length past this is rejected

_MAT_HEADER = struct.Struct("<II")
_RESULT_HEADER = struct.Struct("<QB")


class MsgType(IntEnum):
    HELLO = 0x01
    CONFIG = 0x02
    STORE_PAIR = 0x10
    MULT_BWD = 0x12
    RESULT = 0x20
    ERROR = 0x7F


class ProtocolError(Exception):
    """Base class for anything wrong with a received frame."""


class BadMagic(ProtocolError):
    pass


class BadVersion(ProtocolError):
    pass


class TruncatedFrame(ProtocolError):
    """Frame or payload shorter (or longer) than its declared layout."""


class UnknownMessageType(ProtocolError):
    pass


class _WireMessage:
    """Two messages are equal when their frames are: every message has
    exactly one encoding, so this compares each field as it travels,
    matrices bitwise.  Like any value-equal class over mutable arrays,
    messages are unhashable."""

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return encode(self) == encode(other)


@dataclass(eq=False)
class Hello(_WireMessage):
    """Opens a connection; carries no payload."""


@dataclass(eq=False)
class Config(_WireMessage):
    n_layers: int


@dataclass(eq=False)
class StorePair(_WireMessage):
    layer_id: int
    shard_id: int
    a_enc: np.ndarray
    b_enc: np.ndarray


@dataclass(eq=False)
class MultBwd(_WireMessage):
    layer_id: int
    shard_id: int
    d_enc: np.ndarray


@dataclass(eq=False)
class Result(_WireMessage):
    request_tag: int
    matrices: tuple  # 0 = ack, 1 = forward product, 2 = backward pair


@dataclass(eq=False)
class Error(_WireMessage):
    code: int
    text: str


# error codes a worker may send
ERR_SHAPE = 1
ERR_CACHE_MISS = 2
ERR_UNSUPPORTED = 4


def _wire_matrix(a) -> np.ndarray:
    """The matrix as the C-order little-endian float64 its body holds,
    with no copy when it already is one."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"wire matrices are 2-D, got ndim={a.ndim}")
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        raise ValueError(f"wire matrices need positive dims, got ({rows} x {cols})")
    return np.ascontiguousarray(a, dtype="<f8")


def _decode_matrix(payload, offset: int) -> tuple[np.ndarray, int]:
    """The matrix at `offset`, as a view into `payload` where that view
    is writable, aligned and native-endian, else as a copy."""
    if offset + _MAT_HEADER.size > len(payload):
        raise TruncatedFrame("payload ends inside a matrix header")
    rows, cols = _MAT_HEADER.unpack_from(payload, offset)
    offset += _MAT_HEADER.size
    if rows == 0 or cols == 0:
        raise ProtocolError(f"matrix with zero dimension ({rows} x {cols})")
    nbytes = rows * cols * 8
    if offset + nbytes > len(payload):
        raise TruncatedFrame(
            f"matrix body needs {nbytes} bytes, payload has {len(payload) - offset}"
        )
    mat = np.frombuffer(payload, dtype="<f8", count=rows * cols, offset=offset)
    mat = mat.reshape(rows, cols)
    if not (mat.flags.writeable and mat.flags.aligned and mat.dtype.isnative):
        mat = mat.astype(np.float64)
    return mat, offset + nbytes


# type -> (message class, struct of its fixed fields, matrix count).  A
# class's fields are its fixed fields, then its matrices.  A count of
# None is sent as the last fixed field, and the class holds those
# matrices as one tuple.
_PAYLOADS = {
    MsgType.HELLO: (Hello, struct.Struct("<"), 0),
    MsgType.CONFIG: (Config, struct.Struct("<I"), 0),  # layer count
    MsgType.STORE_PAIR: (StorePair, struct.Struct("<II"), 2),  # layer, shard; A', B'
    MsgType.MULT_BWD: (MultBwd, struct.Struct("<II"), 1),  # layer, shard; delta'
    MsgType.RESULT: (Result, _RESULT_HEADER, None),  # request tag, count; products
    MsgType.ERROR: (Error, struct.Struct("<H"), 0),  # code; text to the payload's end
}
_LAYOUT_OF = {cls: (msg_type, fixed, count) for msg_type, (cls, fixed, count) in _PAYLOADS.items()}


def _payload_parts(msg) -> tuple[int, bytes, tuple]:
    """Message type, fixed leading fields and matrices of a payload."""
    layout = _LAYOUT_OF.get(type(msg))
    if layout is None:
        raise ValueError(f"cannot encode {type(msg).__name__}")
    msg_type, fixed, count = layout
    if msg_type == MsgType.ERROR:
        return msg_type, fixed.pack(msg.code) + msg.text.encode("utf-8"), ()
    values = tuple(vars(msg).values())
    if count is None:  # the matrices, counted in the last fixed field
        values, matrices = (*values[:-1], len(values[-1])), values[-1]
    else:
        split = len(values) - count
        values, matrices = values[:split], values[split:]
    try:
        return msg_type, fixed.pack(*values), matrices
    except struct.error as exc:
        raise ValueError(f"cannot encode {type(msg).__name__}: {exc}") from exc


def result_size(shapes) -> int:
    """Payload bytes of a RESULT carrying matrices of these shapes."""
    return _RESULT_HEADER.size + sum(_MAT_HEADER.size + 8 * r * c for r, c in shapes)


def _decode_payload(msg_type: int, payload):
    if msg_type not in _PAYLOADS:
        raise UnknownMessageType(f"message type 0x{msg_type:02x}")
    cls, fixed, count = _PAYLOADS[msg_type]
    if len(payload) < fixed.size:
        raise TruncatedFrame(f"{cls.__name__} payload is {len(payload)} bytes, "
                             f"shorter than its {fixed.size} fixed bytes")
    values = fixed.unpack_from(payload, 0)
    offset = fixed.size
    if msg_type == MsgType.ERROR:
        try:
            return Error(*values, bytes(payload[offset:]).decode("utf-8"))
        except ValueError as exc:  # the text is not UTF-8
            raise ProtocolError(f"ERROR text is not UTF-8: {exc}") from exc
    matrices = []
    for _ in range(values[-1] if count is None else count):
        mat, offset = _decode_matrix(payload, offset)
        matrices.append(mat)
    if offset != len(payload):
        raise TruncatedFrame(f"{len(payload) - offset} trailing payload bytes")
    if count is None:
        return cls(*values[:-1], tuple(matrices))
    return cls(*values, *matrices)


def _frame_parts(msg) -> list:
    """The frame of one message as consecutive buffers: the header and
    fixed fields, then each matrix's dims and its own memory as body."""
    msg_type, fields, matrices = _payload_parts(msg)
    matrices = [_wire_matrix(a) for a in matrices]
    length = len(fields) + sum(_MAT_HEADER.size + a.nbytes for a in matrices)
    parts = [HEADER.pack(MAGIC, VERSION, msg_type, length) + fields]
    for a in matrices:
        parts += [_MAT_HEADER.pack(*a.shape), a]
    return parts


def encode(msg) -> bytearray:
    """The frame of one message in a single buffer: each matrix is
    copied once, straight into its place in the frame."""
    return bytearray().join(_frame_parts(msg))


def _parse_header(data, max_payload: int = MAX_PAYLOAD) -> tuple[int, int]:
    if len(data) < HEADER.size:
        raise TruncatedFrame(
            f"frame header needs {HEADER.size} bytes, got {len(data)}"
        )
    magic, version, msg_type, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersion(f"unsupported version {version}")
    if length > max_payload:
        raise TruncatedFrame(
            f"declared payload of {length} bytes exceeds the cap of {max_payload}"
        )
    return msg_type, length


def decode(data):
    """Decode exactly one frame; trailing bytes are an error.
    Matrices decoded from a writable buffer are views into it."""
    msg_type, length = _parse_header(data)
    if len(data) != HEADER.size + length:
        raise TruncatedFrame(
            f"frame declares {length} payload bytes, buffer has {len(data) - HEADER.size}"
        )
    return _decode_payload(msg_type, memoryview(data)[HEADER.size :])


def send_message(sock: socket.socket, msg) -> None:
    """Write the frame encode() builds, without building it: one
    scatter-gather send over the header bytes and the matrices' own
    memory, resumed where a short write stopped."""
    views = [memoryview(part).cast("B") for part in _frame_parts(msg)]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if sent:
            views[0] = views[0][sent:]


# A RESULT's 9 fixed bytes and the 8-byte matrix header leave the first
# body 1 byte past an 8-byte boundary; receiving the payload 7 bytes into
# its buffer puts every body of the frame on one.
_RESULT_PAD = -(_RESULT_HEADER.size + _MAT_HEADER.size) % 8


def _new_buffer(nbytes: int) -> np.ndarray:
    """A fresh receive buffer; recv_into fills it, so it is not zeroed."""
    return np.empty(nbytes, np.uint8)


def _recv_exact(sock: socket.socket, nbytes: int, pad: int, into) -> memoryview:
    """nbytes from the socket, received `pad` bytes into into(pad + nbytes)."""
    view = memoryview(into(pad + nbytes))[pad : pad + nbytes]
    got = 0
    while got < nbytes:
        n = sock.recv_into(view[got:])
        if not n:
            raise ConnectionError(f"peer closed with {nbytes - got} bytes outstanding")
        got += n
    return view


def read_message(sock: socket.socket, max_payload: int = MAX_PAYLOAD, into=_new_buffer):
    """Read one frame.  A frame declaring more than `max_payload` bytes
    is refused from its header, before any of its payload is read or a
    buffer is sized for it.  The payload is received into into(n), a
    writable buffer of n bytes the caller may reuse from frame to frame;
    by default each frame gets a new, uninitialised one.  Every matrix
    is decoded as a view into that buffer, where its body sits 8-byte
    aligned, so it lasts only as long as the caller leaves the buffer
    alone."""
    header = _recv_exact(sock, HEADER.size, 0, bytearray)
    msg_type, length = _parse_header(header, max_payload=max_payload)
    pad = _RESULT_PAD if msg_type == MsgType.RESULT else 0
    return _decode_payload(msg_type, _recv_exact(sock, length, pad, into))
