"""Probe engine tests: payload tagging, packet crafting, classification, scanning.

Packet-level expectations come from tests/rfc4443_oracle.py, an independent
implementation of the checksum and header rules.
"""

from __future__ import annotations

import ipaddress
import threading
import time
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rfc4443_oracle as oracle
from srascan.probe_engine import (
    PAYLOAD_LEN,
    ProbeConfig,
    ReplyKind,
    ReplyRecord,
    TransportError,
    build_echo_request,
    classify_icmp,
    decode_payload,
    encode_payload,
    icmpv6_checksum,
    parse_ipv6,
    run_scan,
)
from srascan.target_gen import ProbeTarget, Stage, parse_prefix


def addr(text: str) -> int:
    return int(ipaddress.IPv6Address(text))


SCANNER = addr("2001:db8:ffff::1")


def cfg(**kw) -> ProbeConfig:
    kw.setdefault("cooldown", 0.05)
    return ProbeConfig(**kw)


# --- payload tagging ----------------------------------------------------------


def test_payload_round_trip():
    secret = 0xDEADBEEF
    data = encode_payload(addr("2001:db8:1::"), secret)
    assert len(data) == PAYLOAD_LEN
    assert decode_payload(data, secret) == addr("2001:db8:1::")


def test_payload_zero_case_is_stable():
    data = encode_payload(0, 0)
    assert data[:16] == bytes(16)
    # keyed blake2b-8 of 16 zero bytes with an 8-zero-byte key; frozen value
    assert data[16:].hex() == "4bb7f6821d010393"
    assert decode_payload(data, 0) == 0


def test_decode_needs_matching_secret():
    data = encode_payload(addr("2001:db8::"), 1)
    assert decode_payload(data, 2) is None


def test_decode_short_or_corrupt_is_none_not_error():
    data = encode_payload(addr("2001:db8::"), 7)
    assert decode_payload(data[:23], 7) is None
    assert decode_payload(b"", 7) is None
    flipped = bytes([data[0] ^ 1]) + data[1:]
    assert decode_payload(flipped, 7) is None


def test_decode_ignores_trailing_bytes():
    # quoted payloads keep whatever followed the tag; only the tag matters
    data = encode_payload(addr("2001:db8::5"), 9) + b"trailing junk"
    assert decode_payload(data, 9) == addr("2001:db8::5")


@settings(max_examples=200)
@given(
    address=st.integers(0, (1 << 128) - 1),
    secret=st.integers(0, (1 << 64) - 1),
)
def test_payload_round_trip_property(address, secret):
    assert decode_payload(encode_payload(address, secret), secret) == address


# --- checksum and packet build ------------------------------------------------


@settings(max_examples=300)
@given(
    src=st.integers(0, (1 << 128) - 1),
    dst=st.integers(0, (1 << 128) - 1),
    body=st.binary(max_size=1300),
)
@example(src=0, dst=0, body=b"")
@example(src=(1 << 128) - 1, dst=(1 << 128) - 1, body=b"\xff" * 1233)  # odd, all ones
@example(src=1, dst=2, body=b"\x80\x00\x00")  # odd: the last byte is padded
def test_checksum_matches_independent_fold(src, dst, body):
    got = icmpv6_checksum(src, dst, body)
    want = oracle.fold_checksum(src.to_bytes(16, "big"), dst.to_bytes(16, "big"), body)
    assert got == want


def test_echo_request_passes_oracle_validation():
    c = cfg(secret=42, hop_limit=61, scan_pass=3, shard=7)
    target = addr("2001:db8:123::")
    pkt = build_echo_request(target, c)
    assert oracle.validate_echo_request(pkt) == []
    src, dst, hlim, nh, payload = parse_ipv6(pkt)
    assert (src, dst, hlim, nh) == (SCANNER, target, 61, 58)
    ident, seq = int.from_bytes(payload[4:6], "big"), int.from_bytes(payload[6:8], "big")
    assert (ident, seq) == (3, 7)
    assert decode_payload(payload[8:], 42) == target


def test_echo_request_carries_pass_and_shard():
    t = ProbeTarget(addr("2001:db8:1::"), parse_prefix("2001:db8:1::/48"), Stage.BGP_48)
    packet = build_echo_request(t.address, cfg(scan_pass=9, shard=2, secret=5))
    _, dst, _, _, payload = parse_ipv6(packet)
    assert dst == t.address
    ident, seq = int.from_bytes(payload[4:6], "big"), int.from_bytes(payload[6:8], "big")
    assert (ident, seq) == (9, 2)
    assert decode_payload(payload[8:], 5) == t.address


def test_probe_config_validation():
    for bad in (
        dict(send_rate=0),
        dict(hop_limit=0),
        dict(hop_limit=256),
        dict(cooldown=-1),
        dict(secret=1 << 64),
        dict(scan_pass=1 << 16),
    ):
        with pytest.raises(ValueError):
            ProbeConfig(**bad)


# --- classification -----------------------------------------------------------


def request(secret=11, target=None, c=None):
    c = c or cfg(secret=secret)
    return build_echo_request(target or addr("2001:db8:77::"), c), c


def test_classify_echo_reply():
    pkt, c = request()
    reply = oracle.build_echo_reply(pkt, addr("2001:db8:77::2").to_bytes(16, "big"))
    rec = classify_icmp(reply, c.secret, timestamp=1.5)
    assert rec is not None
    assert rec.kind is ReplyKind.ECHO_REPLY
    assert (rec.icmp_type, rec.code) == (129, 0)
    assert rec.source == addr("2001:db8:77::2")
    assert rec.embedded_target == addr("2001:db8:77::")
    assert rec.received_hop_limit == 64
    assert rec.timestamp == 1.5


@pytest.mark.parametrize(
    "icmp_type,code,kind",
    [
        (1, 0, ReplyKind.DEST_UNREACHABLE),
        (1, 3, ReplyKind.DEST_UNREACHABLE),
        (2, 0, ReplyKind.PACKET_TOO_BIG),
        (3, 0, ReplyKind.TIME_EXCEEDED),
        (4, 1, ReplyKind.PARAM_PROBLEM),
    ],
)
def test_classify_error_types_with_embedded_target(icmp_type, code, kind):
    pkt, c = request(secret=77)
    err = oracle.build_error(pkt, addr("2001:db8::fe").to_bytes(16, "big"), icmp_type, code)
    rec = classify_icmp(err, c.secret, timestamp=0.25)
    assert rec is not None
    assert rec.kind is kind
    assert (rec.icmp_type, rec.code) == (icmp_type, code)
    assert rec.source == addr("2001:db8::fe")
    assert rec.embedded_target == addr("2001:db8:77::")


def test_classify_error_with_truncated_quote():
    pkt, c = request(secret=13)
    # quote keeps the whole tag: decodes
    ok = oracle.build_error(pkt, bytes(16), 3, 0, quote_limit=40 + 8 + 24)
    assert classify_icmp(ok, c.secret).embedded_target == addr("2001:db8:77::")
    # quote loses the last tag byte: absent, still a valid TimeExceeded record
    cut = oracle.build_error(pkt, bytes(16), 3, 0, quote_limit=40 + 8 + 23)
    rec = classify_icmp(cut, c.secret)
    assert rec is not None
    assert rec.kind is ReplyKind.TIME_EXCEEDED
    assert rec.embedded_target is None


def test_classify_foreign_echo_reply_has_no_embedded_target():
    pkt, c = request(secret=5)
    reply = oracle.build_echo_reply(pkt, bytes(15) + b"\x01")
    rec = classify_icmp(reply, secret=6)  # wrong secret: tag must not verify
    assert rec is not None
    assert rec.embedded_target is None


def test_classify_unknown_type_is_other():
    body = bytes([135, 0, 0, 0]) + bytes(20)
    pkt = oracle.build(bytes(16), bytes(16), 255, body)
    rec = classify_icmp(pkt, 0)
    assert rec.kind is ReplyKind.OTHER
    assert rec.icmp_type == 135
    assert rec.embedded_target is None


def test_classify_rejects_non_icmpv6_and_garbage():
    pkt, c = request()
    assert classify_icmp(b"", c.secret) is None
    assert classify_icmp(b"\x00" * 60, c.secret) is None  # version 0
    udp = bytearray(pkt)
    udp[6] = 17  # next header: UDP
    assert classify_icmp(bytes(udp), c.secret) is None
    assert classify_icmp(pkt[:50], c.secret) is None  # truncated mid-message


def test_classify_rejects_bad_checksum():
    pkt, c = request()
    reply = bytearray(oracle.build_echo_reply(pkt, bytes(16)))
    reply[42] ^= 0xFF  # corrupt the stored checksum
    assert classify_icmp(bytes(reply), c.secret) is None


@st.composite
def received_bytes(draw):
    """(bytes, secret, target): random bytes, or a reply to a probe of `target`
    that is truncated, has bytes overwritten, or both."""
    secret = draw(st.integers(0, (1 << 64) - 1))
    target = draw(st.integers(0, (1 << 128) - 1))
    shape = draw(st.sampled_from(["random", "echo", "error"]))
    if shape == "random":
        return draw(st.binary(max_size=160)), secret, target
    probe = build_echo_request(target, cfg(secret=secret))
    sender = draw(st.binary(min_size=16, max_size=16))
    if shape == "echo":
        data = bytearray(oracle.build_echo_reply(probe, sender))
    else:
        data = bytearray(
            oracle.build_error(
                probe,
                sender,
                draw(st.sampled_from([1, 2, 3, 4]) | st.integers(0, 255)),
                draw(st.integers(0, 255)),
                quote_limit=draw(st.none() | st.integers(0, len(probe))),
            )
        )
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))) :]
    for _ in range(draw(st.integers(0, 4))):
        if data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    if len(data) >= 44 and draw(st.booleans()):
        # Checksum the damaged message again, so that it gets past the
        # checksum test and into the echo and quote parsers.
        body = bytes(data[40:42]) + bytes(2) + bytes(data[44:])
        data = bytearray(oracle.build(bytes(data[8:24]), bytes(data[24:40]), data[7], body))
    return bytes(data), secret, target


@settings(max_examples=1000, deadline=None)
@given(received=received_bytes(), offset=st.integers(0, 120))
def test_classify_and_decode_never_raise(received, offset):
    data, secret, target = received
    rec = classify_icmp(data, secret)
    assert rec is None or isinstance(rec, ReplyRecord)
    # Only the probe's own tag authenticates, however the bytes were damaged.
    assert rec is None or rec.embedded_target in (None, target)
    assert decode_payload(data[offset:], secret) in (None, target)


def test_reply_record_ndjson_round_trip():
    rec = ReplyRecord(
        kind=ReplyKind.TIME_EXCEEDED,
        icmp_type=3,
        code=0,
        source=addr("2001:db8::9"),
        embedded_target=addr("2001:db8:5::"),
        received_hop_limit=63,
        timestamp=2.5,
    )
    line = rec.to_json()
    assert ReplyRecord.from_json(line) == rec
    none_rec = ReplyRecord(ReplyKind.OTHER, 135, 0, 0, None, 1, 0.0)
    assert ReplyRecord.from_json(none_rec.to_json()) == none_rec


# --- scanning -----------------------------------------------------------------


class ReplyingTransport:
    """Thread-safe fake transport answering every request via the oracle."""

    def __init__(self, responder=None, fail_after=None):
        self.sent: list[bytes] = []
        self._rx: deque = deque()
        self._cv = threading.Condition()
        self._clock = 0.0
        self._responder = responder or (
            lambda req: [oracle.build_echo_reply(req, req[24:40])]
        )
        self._fail_after = fail_after

    def send(self, packet: bytes) -> None:
        with self._cv:
            if self._fail_after is not None and len(self.sent) >= self._fail_after:
                raise OSError("transport down")
            self.sent.append(packet)
            self._clock += 1.0
            for reply in self._responder(packet):
                self._rx.append((reply, self._clock))
            self._cv.notify_all()

    def receive(self, timeout: float):
        with self._cv:
            if not self._rx:
                self._cv.wait(timeout)
            if self._rx:
                return self._rx.popleft()
            return None


def test_run_scan_sends_once_and_matches_replies():
    targets = [addr(f"2001:db8:{i:x}::") for i in range(1, 21)]
    transport = ReplyingTransport()
    c = cfg(secret=99, send_rate=1e6)
    records = list(run_scan(targets, transport, c))
    assert len(transport.sent) == len(targets)
    sent_dsts = [parse_ipv6(p)[1] for p in transport.sent]
    assert sent_dsts == targets
    assert [r.embedded_target for r in records] == targets
    assert all(r.kind is ReplyKind.ECHO_REPLY for r in records)
    # timestamps come from the transport, not the wall clock
    assert [r.timestamp for r in records] == [float(i) for i in range(1, 21)]


def test_run_scan_respects_send_rate():
    targets = [addr("2001:db8::") + (i << 64) for i in range(1000)]
    transport = ReplyingTransport(responder=lambda req: [])
    c = cfg(send_rate=200_000.0, cooldown=0.0)
    t0 = time.monotonic()
    list(run_scan(targets, transport, c))
    elapsed = time.monotonic() - t0
    assert len(transport.sent) == 1000
    assert elapsed >= 0.005  # 1000 sends at 200k pps need at least 5 ms


def test_run_scan_flushes_partials_then_raises_on_transport_failure():
    targets = [addr(f"2001:db8:{i:x}::") for i in range(1, 11)]
    transport = ReplyingTransport(fail_after=4)
    got = []
    with pytest.raises(TransportError):
        for rec in run_scan(targets, transport, cfg(send_rate=1e6)):
            got.append(rec)
    assert len(transport.sent) == 4
    assert [r.embedded_target for r in got] == targets[:4]


def test_run_scan_raises_when_the_receiver_fails():
    class DeafTransport(ReplyingTransport):
        def receive(self, timeout):
            raise OSError("receive socket closed")

    targets = [addr(f"2001:db8:{i:x}::") for i in range(1, 11)]
    with pytest.raises(TransportError) as info:
        list(run_scan(targets, DeafTransport(), cfg(send_rate=1e6)))
    assert isinstance(info.value.__cause__, OSError)


def test_run_scan_cooldown_catches_late_replies():
    late = {}

    class LateTransport(ReplyingTransport):
        def send(self, packet):
            with self._cv:
                self.sent.append(packet)
                late.setdefault("reply", oracle.build_echo_reply(packet, packet[24:40]))

        def receive(self, timeout):
            # deliver only once sending finished a while ago
            if "reply" in late and late.get("armed"):
                reply = late.pop("reply")
                return reply, 9.0
            late["armed"] = True
            time.sleep(min(timeout, 0.01))
            return None

    records = list(run_scan([addr("2001:db8::")], LateTransport(), cfg(cooldown=0.5)))
    assert len(records) == 1
    assert records[0].timestamp == 9.0


def test_run_scan_starts_no_thread():
    targets = [addr(f"2001:db8:{i:x}::") for i in range(1, 21)]
    before = threading.active_count()
    counts = [
        threading.active_count()
        for _ in run_scan(targets, ReplyingTransport(), cfg(send_rate=1e6))
    ]
    assert counts == [before] * len(targets)
