"""Binary wire format between the coordinator and compute workers.

Frame layout, all integers little-endian:

    magic    4 bytes  0x54 0x45 0x4D 0x50 ("TEMP")
    version  1 byte   0x01
    type     1 byte   message type
    length   8 bytes  payload byte count
    payload  variable

Matrices travel as u32 rows, u32 cols, then rows*cols float64 values in
row-major order.  Every message has exactly one byte encoding; decoders
reject bad magic, unsupported versions, unknown types and short or
overlong payloads with distinct error classes so the peer's fault is
diagnosable.
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
    "MultFwd",
    "MultBwd",
    "Result",
    "Error",
    "encode",
    "decode",
    "iter_messages",
    "send_message",
    "read_message",
    "result_size",
]

MAGIC = b"TEMP"
VERSION = 1
HEADER = struct.Struct("<4sBBQ")  # magic, version, type, payload length
MAX_PAYLOAD = 1 << 30  # sanity cap; a declared length past this is rejected

_U32 = struct.Struct("<I")
_MAT_HEADER = struct.Struct("<II")
_HELLO = struct.Struct("<I")
_CONFIG = struct.Struct("<IB")
_PAIR_HEADER = struct.Struct("<II")
_RESULT_HEADER = struct.Struct("<QB")
_ERROR_HEADER = struct.Struct("<H")


class MsgType(IntEnum):
    HELLO = 0x01
    CONFIG = 0x02
    STORE_PAIR = 0x10
    MULT_FWD = 0x11
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


def _arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class _WireMessage:
    """Equality compares fields bitwise, including matrix payloads."""

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        for name, mine in vars(self).items():
            theirs = getattr(other, name)
            if isinstance(mine, np.ndarray):
                if not _arrays_equal(mine, theirs):
                    return False
            elif isinstance(mine, tuple) and mine and isinstance(mine[0], np.ndarray):
                if len(mine) != len(theirs) or not all(
                    _arrays_equal(x, y) for x, y in zip(mine, theirs)
                ):
                    return False
            elif mine != theirs:
                return False
        return True

    def __hash__(self):
        return id(self)


@dataclass(eq=False)
class Hello(_WireMessage):
    worker_id: int


@dataclass(eq=False)
class Config(_WireMessage):
    n_layers: int
    mode: int  # 0 inference, 1 training


@dataclass(eq=False)
class StorePair(_WireMessage):
    layer_id: int
    shard_id: int
    a_enc: np.ndarray
    b_enc: np.ndarray


@dataclass(eq=False)
class MultFwd(_WireMessage):
    layer_id: int
    shard_id: int


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
ERR_BAD_ORDER = 3
ERR_UNSUPPORTED = 4


def _wire_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"wire matrices are 2-D, got ndim={a.ndim}")
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        raise ValueError(f"wire matrices need positive dims, got ({rows} x {cols})")
    return a


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


def _payload_parts(msg) -> tuple[int, bytes, tuple]:
    """Message type, fixed leading fields and matrices of a payload."""
    if isinstance(msg, Hello):
        return MsgType.HELLO, _HELLO.pack(msg.worker_id), ()
    if isinstance(msg, Config):
        return MsgType.CONFIG, _CONFIG.pack(msg.n_layers, msg.mode), ()
    if isinstance(msg, StorePair):
        return (MsgType.STORE_PAIR, _PAIR_HEADER.pack(msg.layer_id, msg.shard_id),
                (msg.a_enc, msg.b_enc))
    if isinstance(msg, MultFwd):
        return MsgType.MULT_FWD, _PAIR_HEADER.pack(msg.layer_id, msg.shard_id), ()
    if isinstance(msg, MultBwd):
        return MsgType.MULT_BWD, _PAIR_HEADER.pack(msg.layer_id, msg.shard_id), (msg.d_enc,)
    if isinstance(msg, Result):
        if len(msg.matrices) > 255:
            raise ValueError("result carries at most 255 matrices")
        return MsgType.RESULT, _RESULT_HEADER.pack(msg.request_tag, len(msg.matrices)), msg.matrices
    if isinstance(msg, Error):
        return MsgType.ERROR, _ERROR_HEADER.pack(msg.code) + msg.text.encode("utf-8"), ()
    raise ValueError(f"cannot encode {type(msg).__name__}")


def result_size(shapes) -> int:
    """Payload bytes of a RESULT carrying matrices of these shapes."""
    return _RESULT_HEADER.size + sum(_MAT_HEADER.size + 8 * r * c for r, c in shapes)


def _decode_payload(msg_type: int, payload):
    def exact(size: int):
        if len(payload) != size:
            raise TruncatedFrame(
                f"payload is {len(payload)} bytes, message type needs {size}"
            )

    if msg_type == MsgType.HELLO:
        exact(_HELLO.size)
        return Hello(*_HELLO.unpack(payload))
    if msg_type == MsgType.CONFIG:
        exact(_CONFIG.size)
        return Config(*_CONFIG.unpack(payload))
    if msg_type == MsgType.STORE_PAIR:
        if len(payload) < _PAIR_HEADER.size:
            raise TruncatedFrame("store payload shorter than its fixed header")
        layer_id, shard_id = _PAIR_HEADER.unpack_from(payload, 0)
        a_enc, offset = _decode_matrix(payload, _PAIR_HEADER.size)
        b_enc, offset = _decode_matrix(payload, offset)
        if offset != len(payload):
            raise TruncatedFrame(f"{len(payload) - offset} trailing payload bytes")
        return StorePair(layer_id, shard_id, a_enc, b_enc)
    if msg_type == MsgType.MULT_FWD:
        exact(_PAIR_HEADER.size)
        return MultFwd(*_PAIR_HEADER.unpack(payload))
    if msg_type == MsgType.MULT_BWD:
        if len(payload) < _PAIR_HEADER.size:
            raise TruncatedFrame("mult payload shorter than its fixed header")
        layer_id, shard_id = _PAIR_HEADER.unpack_from(payload, 0)
        d_enc, offset = _decode_matrix(payload, _PAIR_HEADER.size)
        if offset != len(payload):
            raise TruncatedFrame(f"{len(payload) - offset} trailing payload bytes")
        return MultBwd(layer_id, shard_id, d_enc)
    if msg_type == MsgType.RESULT:
        if len(payload) < _RESULT_HEADER.size:
            raise TruncatedFrame("result payload shorter than its fixed header")
        tag, count = _RESULT_HEADER.unpack_from(payload, 0)
        offset = _RESULT_HEADER.size
        matrices = []
        for _ in range(count):
            mat, offset = _decode_matrix(payload, offset)
            matrices.append(mat)
        if offset != len(payload):
            raise TruncatedFrame(f"{len(payload) - offset} trailing payload bytes")
        return Result(tag, tuple(matrices))
    if msg_type == MsgType.ERROR:
        if len(payload) < _ERROR_HEADER.size:
            raise TruncatedFrame("error payload shorter than its fixed header")
        (code,) = _ERROR_HEADER.unpack_from(payload, 0)
        return Error(code, bytes(payload[_ERROR_HEADER.size :]).decode("utf-8"))
    raise UnknownMessageType(f"message type 0x{msg_type:02x}")


def encode(msg) -> bytearray:
    """The frame of one message, built in a single buffer: each matrix
    is copied once, straight into its place in the frame."""
    msg_type, fields, matrices = _payload_parts(msg)
    matrices = [_wire_matrix(a) for a in matrices]
    length = len(fields) + sum(_MAT_HEADER.size + a.nbytes for a in matrices)
    frame = bytearray(HEADER.size + length)
    HEADER.pack_into(frame, 0, MAGIC, VERSION, msg_type, length)
    offset = HEADER.size + len(fields)
    frame[HEADER.size : offset] = fields
    for a in matrices:
        _MAT_HEADER.pack_into(frame, offset, *a.shape)
        offset += _MAT_HEADER.size
        body = np.frombuffer(frame, dtype="<f8", count=a.size, offset=offset)
        np.copyto(body.reshape(a.shape), a)
        offset += a.nbytes
    return frame


def _parse_header(data, offset: int = 0, max_payload: int = MAX_PAYLOAD) -> tuple[int, int]:
    if len(data) - offset < HEADER.size:
        raise TruncatedFrame(
            f"frame header needs {HEADER.size} bytes, got {len(data) - offset}"
        )
    magic, version, msg_type, length = HEADER.unpack_from(data, offset)
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
    """Decode exactly one frame; trailing bytes are an error.  Use
    iter_messages for a buffer holding several frames back to back.
    Matrices decoded from a writable buffer are views into it."""
    msg_type, length = _parse_header(data)
    if len(data) != HEADER.size + length:
        raise TruncatedFrame(
            f"frame declares {length} payload bytes, buffer has {len(data) - HEADER.size}"
        )
    return _decode_payload(msg_type, memoryview(data)[HEADER.size :])


def iter_messages(data):
    """Yield consecutive messages from a buffer of concatenated frames."""
    view = memoryview(data)
    offset = 0
    while offset < len(data):
        msg_type, length = _parse_header(data, offset)
        end = offset + HEADER.size + length
        if end > len(data):
            raise TruncatedFrame(
                f"frame declares {length} payload bytes, buffer has {len(data) - offset - HEADER.size}"
            )
        yield _decode_payload(msg_type, view[offset + HEADER.size : end])
        offset = end


def send_message(sock: socket.socket, msg) -> None:
    sock.sendall(encode(msg))


def _recv_exact(sock: socket.socket, nbytes: int) -> bytearray:
    buf = bytearray(nbytes)
    with memoryview(buf) as view:
        got = 0
        while got < nbytes:
            n = sock.recv_into(view[got:])
            if not n:
                raise ConnectionError(f"peer closed with {nbytes - got} bytes outstanding")
            got += n
    return buf


def read_message(sock: socket.socket, max_payload: int = MAX_PAYLOAD):
    """Read one frame.  A frame declaring more than `max_payload` bytes
    is refused from its header, before any of its payload is read.
    Matrices whose bodies sit at 8-byte offsets of the payload are
    decoded as views into the frame's own receive buffer."""
    header = _recv_exact(sock, HEADER.size)
    msg_type, length = _parse_header(header, max_payload=max_payload)
    return _decode_payload(msg_type, _recv_exact(sock, length))
