import socket
import struct

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
    MultFwd,
    ProtocolError,
    Result,
    StorePair,
    TruncatedFrame,
    UnknownMessageType,
    decode,
    encode,
    iter_messages,
    read_message,
    send_message,
)
from blindtrain.tensor import make_rng


def all_message_samples(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    d = rng.standard_normal((2, 3))
    return [
        Hello(7),
        Hello(0),
        Config(3, 1),
        Config(1, 0),
        StorePair(0, 1, a, b),
        MultFwd(2, 0),
        MultBwd(1, 3, d),
        Result(9, ()),
        Result(10, (a @ b,)),
        Result(11, (a.copy(), d.copy())),
        Error(2, "no stored pair for layer 5"),
        Error(1, ""),
    ]


# -- exact bytes -----------------------------------------------------------

def test_hello_frame_bytes():
    frame = encode(Hello(7))
    assert len(frame) == 18
    assert frame[:4] == b"TEMP"
    assert frame[4] == 1          # version
    assert frame[5] == 0x01       # HELLO
    assert frame[6:14] == struct.pack("<Q", 4)
    assert frame[14:18] == struct.pack("<I", 7)


def test_header_constants():
    assert MAGIC == b"TEMP"
    assert VERSION == 1
    assert HEADER.size == 14
    assert MsgType.HELLO == 0x01
    assert MsgType.CONFIG == 0x02
    assert MsgType.STORE_PAIR == 0x10
    assert MsgType.MULT_FWD == 0x11
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


def test_mult_fwd_payload_is_two_u32():
    frame = encode(MultFwd(5, 9))
    assert frame[6:14] == struct.pack("<Q", 8)
    assert frame[14:] == struct.pack("<II", 5, 9)


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


def test_iter_messages_concatenated_stream():
    msgs = all_message_samples(make_rng(2))
    blob = b"".join(encode(m) for m in msgs)
    again = list(iter_messages(blob))
    assert len(again) == len(msgs)
    for x, y in zip(msgs, again):
        assert x == y
    assert list(iter_messages(b"")) == []


# -- malformed input -------------------------------------------------------

def test_bad_magic_rejected():
    frame = bytearray(encode(Hello(1)))
    frame[0:4] = b"JUNK"
    with pytest.raises(BadMagic):
        decode(bytes(frame))


def test_bad_version_rejected():
    frame = bytearray(encode(Hello(1)))
    frame[4] = 2
    with pytest.raises(BadVersion):
        decode(bytes(frame))


def test_unknown_type_rejected():
    frame = bytearray(encode(Hello(1)))
    frame[5] = 0x33
    with pytest.raises(UnknownMessageType):
        decode(bytes(frame))


def test_truncated_frames_rejected():
    frame = encode(StorePair(0, 0, np.ones((2, 2)), np.ones((2, 2))))
    for cut in (0, 3, HEADER.size - 1, HEADER.size + 1, len(frame) - 1):
        with pytest.raises(TruncatedFrame):
            decode(frame[:cut])


def test_trailing_bytes_rejected():
    with pytest.raises(TruncatedFrame):
        decode(encode(Hello(1)) + b"\x00")
    # declared length hides an extra byte inside the payload too
    frame = bytearray(encode(MultFwd(1, 2)))
    frame[6:14] = struct.pack("<Q", 9)
    with pytest.raises(TruncatedFrame):
        decode(bytes(frame) + b"\x00")


def test_oversized_declared_length_rejected():
    frame = bytearray(encode(Hello(1)))
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
        except ProtocolError:
            pass
        except UnicodeDecodeError:
            pass  # Error.text is utf-8; byte flips may break the encoding
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
    left.sendall(encode(Hello(1))[:10])
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
        send_message(left, Hello(3))
        assert read_message(right, 4) == Hello(3)  # a bound the frame meets
    finally:
        left.close()
        right.close()


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
    # STORE_PAIR bodies sit at 8-byte offsets, so they stay views into the
    # receive buffer; RESULT bodies follow a 9-byte header and are copied
    assert not received[0].a_enc.flags.owndata
    assert not received[0].b_enc.flags.owndata
    assert received[1].matrices[0].flags.owndata
