import re
import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from blindtrain.protocol import (
    HEADER,
    MAGIC,
    MAX_PAYLOAD,
    VERSION,
    BadMagic,
    BadVersion,
    Config,
    Error,
    Hello,
    MsgType,
    MultBwd,
    ProtocolError,
    Result,
    StorePair,
    TruncatedFrame,
    UnknownMessageType,
    decode,
    encode,
    read_message,
    send_message,
)
from blindtrain.tensor import make_rng


def all_message_samples(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    d = rng.standard_normal((2, 3))
    return [
        Hello(),
        Config(3),
        Config(1),
        StorePair(0, 1, a, b),
        MultBwd(1, 3, d),
        Result(9, ()),
        Result(10, (a @ b,)),
        Result(11, (a.copy(), d.copy())),
        Error(2, "no stored pair for layer 5"),
        Error(1, ""),
    ]


# -- exact bytes -----------------------------------------------------------

def test_hello_frame_bytes():
    frame = encode(Hello())
    assert len(frame) == 14
    assert frame[:4] == b"TEMP"
    assert frame[4] == 3          # version
    assert frame[5] == 0x01       # HELLO
    assert frame[6:14] == struct.pack("<Q", 0)


def test_header_constants():
    assert MAGIC == b"TEMP"
    assert VERSION == 3
    assert HEADER.size == 14
    assert MsgType.HELLO == 0x01
    assert MsgType.CONFIG == 0x02
    assert MsgType.STORE_PAIR == 0x10
    assert MsgType.MULT_BWD == 0x12
    assert MsgType.RESULT == 0x20
    assert MsgType.ERROR == 0x7F


def test_matrix_wire_layout():
    mat = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    frame = encode(Result(1, (mat,)))
    payload = frame[HEADER.size :]
    tag, count = struct.unpack_from("<QB", payload, 0)
    assert (tag, count) == (1, 1)
    rows, cols = struct.unpack_from("<II", payload, 9)
    assert (rows, cols) == (3, 2)
    values = struct.unpack_from("<6d", payload, 17)
    assert values == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)  # row-major


def test_config_payload_is_one_u32():
    frame = encode(Config(5))
    assert frame[5] == 0x02
    assert frame[6:14] == struct.pack("<Q", 4)
    assert frame[14:] == struct.pack("<I", 5)


def test_store_pair_golden_frame():
    """Layer, shard, then A', then B', each matrix as rows, cols and its
    values in row-major order."""
    msg = StorePair(layer_id=3, shard_id=1, a_enc=np.arange(6.0).reshape(2, 3),
                    b_enc=np.arange(6.0, 12.0).reshape(3, 2))
    payload = (struct.pack("<II", 3, 1)
               + struct.pack("<II", 2, 3) + struct.pack("<6d", 0, 1, 2, 3, 4, 5)
               + struct.pack("<II", 3, 2) + struct.pack("<6d", 6, 7, 8, 9, 10, 11))
    frame = b"TEMP\x03\x10" + struct.pack("<Q", len(payload)) + payload
    assert len(payload) == 8 + 2 * (8 + 48)
    assert bytes(encode(msg)) == frame
    assert decode(frame) == msg


def test_mult_bwd_golden_frame():
    msg = MultBwd(layer_id=7, shard_id=2, d_enc=np.arange(1.0, 9.0).reshape(4, 2))
    payload = (struct.pack("<II", 7, 2)
               + struct.pack("<II", 4, 2) + struct.pack("<8d", 1, 2, 3, 4, 5, 6, 7, 8))
    frame = b"TEMP\x03\x12" + struct.pack("<Q", len(payload)) + payload
    assert bytes(encode(msg)) == frame
    assert decode(frame) == msg


# -- roundtrips ------------------------------------------------------------

def test_every_message_type_roundtrips():
    for msg in all_message_samples(make_rng(0)):
        again = decode(encode(msg))
        assert type(again) is type(msg)
        assert again == msg


def test_encoding_is_canonical():
    for msg in all_message_samples(make_rng(1)):
        frame = encode(msg)
        assert encode(decode(frame)) == frame


def test_roundtrip_preserves_float_bits():
    specials = np.array([[0.0, -0.0], [1e-308, 1e308], [np.pi, -np.e]])
    got = decode(encode(Result(3, (specials,)))).matrices[0]
    assert got.tobytes() == specials.tobytes()


# -- malformed input -------------------------------------------------------

def test_bad_magic_rejected():
    frame = bytearray(encode(Hello()))
    frame[0:4] = b"JUNK"
    with pytest.raises(BadMagic):
        decode(bytes(frame))


def test_bad_version_rejected():
    frame = bytearray(encode(Hello()))
    frame[4] = 1  # a version-1 peer
    with pytest.raises(BadVersion):
        decode(bytes(frame))


def test_version_two_frame_rejected():
    frame = bytearray(encode(Hello()))
    frame[4] = 2  # a peer from before MULT_BWD carried delta in the product's shape
    with pytest.raises(BadVersion, match="unsupported version 2"):
        decode(bytes(frame))


def test_unknown_type_rejected():
    frame = bytearray(encode(Hello()))
    frame[5] = 0x33
    with pytest.raises(UnknownMessageType):
        decode(bytes(frame))


def test_truncated_frames_rejected():
    frame = encode(StorePair(0, 0, np.ones((2, 2)), np.ones((2, 2))))
    for cut in (0, 3, HEADER.size - 1, HEADER.size + 1, len(frame) - 1):
        with pytest.raises(TruncatedFrame):
            decode(frame[:cut])


ONE_OF_EACH = [Hello(), Config(3), StorePair(1, 0, np.ones((2, 3)), np.ones((3, 2))),
               MultBwd(1, 0, np.ones((2, 2))), Result(5, (np.ones((1, 2)),)), Error(2, "")]
EACH_ID = ["hello", "config", "store-pair", "mult-bwd", "result", "error"]


@pytest.mark.parametrize("msg", ONE_OF_EACH, ids=EACH_ID)
@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
def test_frame_one_byte_off_its_declared_length_is_truncated(msg, change):
    frame = bytes(encode(msg))
    with pytest.raises(TruncatedFrame):
        decode(frame[:-1] if change < 0 else frame + b"\x00")


@pytest.mark.parametrize("msg,change", [
    pytest.param(msg, change, id=f"{name}-{way}")
    for msg, name in zip(ONE_OF_EACH, EACH_ID) for change, way in ((-1, "short"), (1, "long"))
    # HELLO has no payload byte to drop, and an ERROR's text runs to its end
    if (name, way) not in (("hello", "short"), ("error", "long"))
])
def test_payload_one_byte_off_its_layout_is_truncated(msg, change):
    """The header declares the changed length, so only the payload's own
    layout can tell that a byte is missing or extra."""
    frame = bytes(encode(msg))
    payload = frame[HEADER.size:-1] if change < 0 else frame[HEADER.size:] + b"\x00"
    with pytest.raises(TruncatedFrame):
        decode(HEADER.pack(MAGIC, VERSION, frame[5], len(payload)) + payload)


@pytest.mark.parametrize("msg", ONE_OF_EACH, ids=EACH_ID)
def test_messages_are_unhashable(msg):
    """Messages are equal when their frames are, and matrices are
    mutable, so no hash could stay consistent with that equality."""
    with pytest.raises(TypeError, match="unhashable"):
        hash(msg)


def test_error_text_that_is_not_utf8_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="not UTF-8"):
        decode(HEADER.pack(MAGIC, VERSION, MsgType.ERROR, 4) + b"\x02\x00\xff\xfe")


def test_trailing_bytes_rejected():
    with pytest.raises(TruncatedFrame):
        decode(encode(Hello()) + b"\x00")
    # declared length hides an extra byte inside the payload too
    frame = bytearray(encode(Config(1)))
    frame[6:14] = struct.pack("<Q", 5)
    with pytest.raises(TruncatedFrame):
        decode(bytes(frame) + b"\x00")


def test_oversized_declared_length_rejected():
    frame = bytearray(encode(Hello()))
    frame[6:14] = struct.pack("<Q", MAX_PAYLOAD + 1)
    with pytest.raises(TruncatedFrame):
        decode(bytes(frame))


def test_zero_dimension_matrix_rejected():
    good = encode(MultBwd(0, 0, np.ones((2, 3))))
    frame = bytearray(good)
    # matrix header sits right after the two u32 ids
    struct.pack_into("<II", frame, HEADER.size + 8, 0, 3)
    with pytest.raises(ProtocolError):
        decode(bytes(frame))
    with pytest.raises(ValueError):
        encode(MultBwd(0, 0, np.ones((0, 3)).reshape(0, 3)))


def test_matrix_count_mismatch_rejected():
    frame = bytearray(encode(Result(1, (np.ones((2, 2)),))))
    # claim two matrices while carrying one
    struct.pack_into("<B", frame, HEADER.size + 8, 2)
    with pytest.raises(TruncatedFrame):
        decode(bytes(frame))


def test_fuzzed_corruption_never_crashes():
    rng = make_rng(99)
    frames = [encode(m) for m in all_message_samples(rng)]
    survived = 0
    for trial in range(2000):
        frame = bytearray(frames[int(rng.integers(len(frames)))])
        op = int(rng.integers(3))
        if op == 0:  # flip a byte
            pos = int(rng.integers(len(frame)))
            frame[pos] ^= int(rng.integers(1, 256))
        elif op == 1:  # truncate
            frame = frame[: int(rng.integers(len(frame)))]
        else:  # append noise
            frame += bytes(rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8))
        try:
            decode(bytes(frame))
            survived += 1  # corruption landed in a spot equality ignores
        except ProtocolError:  # ERROR text that byte flips left not UTF-8 too
            pass
    # most corruptions must be caught, not silently parsed
    assert survived < 600


def test_fuzz_roundtrip_random_shapes():
    rng = make_rng(5)
    for _ in range(300):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        mat = rng.standard_normal((rows, cols))
        msg = Result(int(rng.integers(0, 1 << 32)), (mat,))
        assert decode(encode(msg)) == msg


# -- sockets ---------------------------------------------------------------

def test_send_and_read_over_socketpair():
    left, right = socket.socketpair()
    try:
        msgs = all_message_samples(make_rng(3))
        for msg in msgs:
            send_message(left, msg)
        for msg in msgs:
            assert read_message(right) == msg
    finally:
        left.close()
        right.close()


def test_read_message_detects_peer_close():
    left, right = socket.socketpair()
    left.sendall(encode(Hello())[:10])
    left.close()
    try:
        with pytest.raises(ConnectionError):
            read_message(right)
    finally:
        right.close()


def test_read_message_refuses_oversized_frame_from_its_header():
    left, right = socket.socketpair()
    try:
        frame = encode(Result(1, (np.ones((4, 4)),)))
        left.sendall(frame[:HEADER.size])  # the body never comes
        with pytest.raises(TruncatedFrame, match="exceeds the cap"):
            read_message(right, len(frame) - HEADER.size - 1)
        send_message(left, Config(3))
        assert read_message(right, 4) == Config(3)  # a bound the frame meets
    finally:
        left.close()
        right.close()


def test_read_message_receives_into_the_callers_buffer():
    """into(n) supplies each payload's buffer: the matrices are views
    into it, the next frame reuses it, and a frame refused from its
    header never asks for one."""
    buf = np.empty(1 << 12, np.uint8)
    asked = []

    def into(nbytes):
        asked.append(nbytes)
        return buf[:nbytes]

    big = Result(1, (np.arange(12.0).reshape(3, 4), np.full((2, 5), -1.5)))
    small = Result(2, (np.ones((1, 2)),))
    left, right = socket.socketpair()
    try:
        for msg in (big, small):
            send_message(left, msg)
            got = read_message(right, into=into)
            assert got == msg
            assert all(np.shares_memory(mat, buf) for mat in got.matrices)
        send_message(left, Error(2, "no stored pair"))
        assert read_message(right, into=into) == Error(2, "no stored pair")
        left.sendall(encode(big)[:HEADER.size])  # the body never comes
        with pytest.raises(TruncatedFrame, match="exceeds the cap"):
            read_message(right, 8, into=into)
    finally:
        left.close()
        right.close()
    payloads = [len(encode(msg)) - HEADER.size for msg in (big, small, Error(2, "no stored pair"))]
    # a RESULT payload is received 7 bytes in, so its bodies sit 8-byte aligned
    assert asked == [7 + payloads[0], 7 + payloads[1], payloads[2]]


def test_decoded_matrices_are_writable_native_float64():
    msgs = [StorePair(0, 1, np.ones((2, 3)), np.ones((3, 2))),
            Result(4, (np.ones((2, 2)), np.full((1, 3), 2.0)))]
    left, right = socket.socketpair()
    try:
        for msg in msgs:
            send_message(left, msg)
        received = [read_message(right) for _ in msgs]
    finally:
        left.close()
        right.close()
    from_bytes = [decode(bytes(encode(msg))) for msg in msgs]
    for got in received + from_bytes:
        for mat in (getattr(got, "a_enc", None), getattr(got, "b_enc", None),
                    *getattr(got, "matrices", ())):
            if mat is not None:
                assert mat.dtype == np.float64 and mat.dtype.isnative
                assert mat.flags.writeable and mat.flags.aligned
    # every received body sits 8-byte aligned in its receive buffer (a
    # RESULT payload lands 7 bytes in), so each matrix is a view into it
    assert not received[0].a_enc.flags.owndata
    assert not received[0].b_enc.flags.owndata
    assert not received[1].matrices[0].flags.owndata
    assert not received[1].matrices[1].flags.owndata


# -- the scatter-gather send path -------------------------------------------

def wire_samples(rng):
    """Every message type, with operands send_message must convert or
    read through strides: views, transposes, float32, int64 and the
    special values whose bits must cross unchanged."""
    special = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 5e-324]])
    strided = rng.standard_normal((6, 8))[::2, 1::3]
    transposed = rng.standard_normal((5, 3)).T
    f32 = rng.standard_normal((4, 3)).astype(np.float32)
    ints = rng.integers(-1000, 1000, size=(3, 5))
    return all_message_samples(rng) + [
        StorePair(1, 2, special, strided),
        StorePair(3, 0, transposed, f32),
        MultBwd(4, 1, ints),
        MultBwd(0, 0, special.T),
        Result(12, (f32, ints, strided, transposed, special)),
        Error(3, "café – tag 7"),
    ]


def _drain(sock, nbytes: int) -> bytes:
    chunks, got = [], 0
    while got < nbytes:
        chunk = sock.recv(min(1 << 20, nbytes - got))
        assert chunk, "sender closed early"
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def test_sent_bytes_equal_encode_for_every_message():
    left, right = socket.socketpair()
    try:
        for msg in wire_samples(make_rng(6)):
            frame = encode(msg)
            send_message(left, msg)
            assert _drain(right, len(frame)) == bytes(frame)
        right.setblocking(False)
        with pytest.raises(BlockingIOError):
            right.recv(1)  # nothing beyond the frames
    finally:
        left.close()
        right.close()


class CountingSocket(socket.socket):
    """Records what each sendmsg call was asked to send and sent."""

    def sendmsg(self, buffers, *args):
        asked = sum(memoryview(b).nbytes for b in buffers)
        sent = super().sendmsg(buffers, *args)
        self.calls.append((asked, sent))
        return sent


def test_short_writes_resume_where_they_stopped():
    left, right = socket.socketpair()
    sender = CountingSocket(fileno=left.detach())
    sender.calls = []
    sender.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    sender.settimeout(30.0)  # a timeout makes sends return short, as on a worker connection
    rng = make_rng(7)
    a = rng.standard_normal((1024, 1024))  # 8 MiB each, 16 MiB in the frame
    b = rng.standard_normal((1024, 1024)).T  # a view, converted before sending
    msg = StorePair(2, 1, a, b)
    frame = bytes(encode(msg))
    got = []
    reader = threading.Thread(target=lambda: got.append(_drain(right, len(frame))))
    reader.start()
    try:
        send_message(sender, msg)
        reader.join(timeout=60)
    finally:
        sender.close()
        right.close()
    assert got and got[0] == frame
    assert sum(sent for _, sent in sender.calls) == len(frame)
    assert any(sent < asked for asked, sent in sender.calls)  # the resume loop ran


def test_send_message_allocates_no_frame_buffer():
    """tracemalloc sees numpy's and bytearray's buffers: sending a 5 MiB
    StorePair must not build the frame in memory."""
    rng = make_rng(8)
    msg = StorePair(0, 1, rng.standard_normal((640, 512)), rng.standard_normal((640, 512)))
    nbytes = len(encode(msg))
    assert nbytes > 5 << 20
    left, right = socket.socketpair()
    sink = bytearray(1 << 16)
    drained = []

    def drain():
        got = 0
        while got < nbytes:
            got += right.recv_into(sink)
        drained.append(got)

    reader = threading.Thread(target=drain)
    reader.start()
    tracemalloc.start()
    try:
        send_message(left, msg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        reader.join(timeout=60)
        left.close()
        right.close()
    assert drained == [nbytes]
    assert peak < 64 << 10


def test_readme_frame_tables_are_the_protocols():
    """README's "Wire format" names protocol.VERSION as the version byte
    and lists exactly protocol.MsgType's (type code, name) rows."""
    from pathlib import Path

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Wire format\n")[1].split("\n## ")[0]
    assert re.findall(r"^\| 4 \| 1 \| version, `0x([0-9A-F]{2})` \|$", section, re.M) == \
        [f"{VERSION:02X}"]
    rows = re.findall(r"^\| 0x([0-9A-F]{2}) \| (\w+) \|", section, re.M)
    assert rows == [(f"{t.value:02X}", t.name) for t in MsgType]
