"""Probe engine tests: payload tagging, packet crafting, classification, scanning.

Packet-level expectations come from tests/rfc4443_oracle.py, an independent
implementation of the checksum and header rules.
"""

from __future__ import annotations

import enum
import ipaddress
import json
import math
import struct
import sys
import threading
import time
from collections import Counter, deque
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rfc4443_oracle as oracle
from srascan.probe_engine import (
    PAYLOAD_LEN,
    ProbeConfig,
    ProbeTemplate,
    ReplyKind,
    ReplyRecord,
    TransportError,
    build_echo_request,
    build_ipv6_icmp,
    classify_icmp,
    decode_payload,
    encode_payload,
    icmpv6_checksum,
    parse_ipv6,
    run_scan,
)
from srascan.analysis import read_replies
from srascan.addresses import READ_BLOCK, format_address, read_blocks, read_records


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
    target = addr("2001:db8:1::")
    packet = build_echo_request(target, cfg(scan_pass=9, shard=2, secret=5))
    _, dst, _, _, payload = parse_ipv6(packet)
    assert dst == target
    ident, seq = int.from_bytes(payload[4:6], "big"), int.from_bytes(payload[6:8], "big")
    assert (ident, seq) == (9, 2)
    assert decode_payload(payload[8:], 5) == target


ALL_ONES = (1 << 128) - 1


@settings(max_examples=300, deadline=None)
@given(
    address=st.integers(0, ALL_ONES),
    secret=st.integers(0, (1 << 64) - 1),
    source=st.integers(0, ALL_ONES),
    hop_limit=st.integers(1, 255),
    scan_pass=st.integers(0, 0xFFFF),
    shard=st.integers(0, 0xFFFF),
)
@example(address=0, secret=0, source=0, hop_limit=1, scan_pass=0, shard=0)
@example(address=ALL_ONES, secret=(1 << 64) - 1, source=ALL_ONES, hop_limit=255,
         scan_pass=0xFFFF, shard=0xFFFF)
@example(address=0, secret=1, source=ALL_ONES, hop_limit=64, scan_pass=0, shard=0)
@example(address=ALL_ONES, secret=1, source=0, hop_limit=64, scan_pass=1, shard=2)
def test_template_matches_the_generic_packer(address, secret, source, hop_limit, scan_pass, shard):
    """The template's precomputed checksum and header give the bytes the
    generic IPv6/ICMPv6 packer gives for the same Echo Request."""
    c = ProbeConfig(secret=secret, source_address=source, hop_limit=hop_limit,
                    scan_pass=scan_pass, shard=shard)
    packet = ProbeTemplate(c).build(address)
    icmp = struct.pack("!BBHHH", 128, 0, 0, scan_pass, shard) + encode_payload(address, secret)
    assert packet == build_ipv6_icmp(source, address, hop_limit, icmp)
    assert build_echo_request(address, c) == packet
    assert oracle.validate_echo_request(packet) == []
    assert parse_ipv6(packet)[:3] == (source, address, hop_limit)


def test_probe_config_validation():
    for bad in (
        dict(send_rate=0),
        dict(send_rate=1e-310),  # 1 / send_rate, the probe interval, overflows
        dict(hop_limit=0),
        dict(hop_limit=256),
        dict(cooldown=-1),
        dict(secret=1 << 64),
        dict(scan_pass=1 << 16),
    ):
        with pytest.raises(ValueError):
            ProbeConfig(**bad)
    assert ProbeConfig(send_rate=1e-300).send_rate == 1e-300  # an interval of 1e300 s


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


@settings(max_examples=500, deadline=None)
@given(
    src=st.integers(0, (1 << 128) - 1),
    dst=st.integers(0, (1 << 128) - 1),
    body=st.binary(min_size=4, max_size=1300),
    zero_sum=st.booleans(),
    stored=st.sampled_from(["correct", "other zero"]) | st.integers(0, 0xFFFF),
)
@example(src=0, dst=0, body=bytes(4), zero_sum=True, stored="correct")
@example(src=0, dst=0, body=bytes(4), zero_sum=True, stored="other zero")
@example(src=1, dst=0, body=bytes(5), zero_sum=True, stored="other zero")  # odd: padded
@example(src=(1 << 128) - 1, dst=0, body=b"\x81\x00\x00\x00" + b"\xff" * 1295,
         zero_sum=True, stored=0xFFFF)
def test_classify_checksum_gate_matches_independent_fold(src, dst, body, zero_sum, stored):
    """A message gets a record exactly when its stored checksum is the one the
    oracle computes; in particular 0xFFFF never stands in for 0x0000."""
    message = body[:2] + bytes(2) + body[4:]
    src_b = src.to_bytes(16, "big")
    if zero_sum:
        # This destination brings the sum to 0 modulo 0xFFFF: the correct
        # checksum is 0x0000, and 0xFFFF is the other encoding of that zero.
        dst = oracle.fold_checksum(src_b, bytes(16), message)
    dst_b = dst.to_bytes(16, "big")
    want = oracle.fold_checksum(src_b, dst_b, message)
    assert want == 0 or not zero_sum
    if stored == "correct":
        stored = want
    elif stored == "other zero":
        stored = 0xFFFF if want == 0 else want
    packet = bytearray(oracle.build(src_b, dst_b, 64, message))
    packet[42:44] = stored.to_bytes(2, "big")
    rec = classify_icmp(bytes(packet), 0)
    assert (rec is not None) == (stored == want)


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


class Level(enum.IntEnum):
    HIGH = 255


addresses = st.one_of(
    st.integers(0, (1 << 128) - 1),
    st.integers(0, (1 << 32) - 1),                       # ::/96
    st.integers(0, (1 << 32) - 1).map(lambda a: 0xFFFF << 32 | a),  # ::ffff:0:0/96
)
byte_fields = st.integers(0, 255)
# Values a field typed int can still hold: json.dumps writes each its own way.
mistyped_ints = st.one_of(
    st.integers(-(1 << 70), 1 << 70), st.booleans(), st.floats(), st.just(Level.HIGH)
)
timestamps = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf]),
    st.integers(-(1 << 70), 1 << 70),
    st.booleans(),
)


@st.composite
def reply_records(draw, ints=byte_fields, ts=st.floats(0, 1e6)):
    return ReplyRecord(
        kind=draw(st.sampled_from(ReplyKind)),
        icmp_type=draw(ints),
        code=draw(ints),
        source=draw(addresses),
        embedded_target=draw(st.none() | addresses),
        received_hop_limit=draw(ints),
        timestamp=draw(ts),
    )


def dumps(rec: ReplyRecord) -> str:
    """The reply line as the parent's encoder wrote it, through json.dumps."""
    embedded = rec.embedded_target
    return json.dumps(
        {
            "ts": rec.timestamp,
            "kind": rec.kind.value,
            "type": rec.icmp_type,
            "code": rec.code,
            "src": format_address(rec.source),
            "embedded_target": None if embedded is None else format_address(embedded),
            "hop_limit": rec.received_hop_limit,
        },
        separators=(",", ":"),
    )


@settings(max_examples=1000, deadline=None)
@given(rec=reply_records(ints=byte_fields | mistyped_ints, ts=timestamps))
@example(rec=ReplyRecord(ReplyKind.OTHER, 1, 2, 0xFFFF_0102_0304, None, 3, 5e-324))
@example(rec=ReplyRecord(ReplyKind.OTHER, True, 2.0, 0x0102_0304, 0, Level.HIGH, math.nan))
def test_to_json_matches_json_dumps(rec):
    assert rec.to_json() == dumps(rec)


def _line_variants(rec: ReplyRecord) -> st.SearchStrategy[str]:
    d = json.loads(rec.to_json())
    return st.sampled_from([
        rec.to_json(),
        json.dumps(d),                                   # spaces after separators
        json.dumps(dict(reversed(list(d.items())))),     # another key order
        json.dumps({**d, "extra": [1, {"x": None}]}),    # an extra key
        json.dumps({**d, "src": "fe80::1%eth0"}),        # a scoped address
        " \t" + rec.to_json() + " ",
    ])


@st.composite
def reply_lines(draw):
    """One line of a reply file: good, odd, skipped, or refused."""
    rec = draw(reply_records())
    d = json.loads(rec.to_json())
    line = draw(st.one_of(
        _line_variants(rec),
        st.sampled_from(["", "   ", "# a comment", "#"]),
        st.sampled_from(["[]", "null", "5", '"text"', "[1, 2]"]),    # not an object
        st.sampled_from(list(d)).map(lambda k: json.dumps({x: v for x, v in d.items() if x != k})),
        st.sampled_from([
            "{", "zz", rec.to_json() + "x", rec.to_json() + rec.to_json(),
            "\ufeff" + rec.to_json(),
            json.dumps({**d, "kind": "pong"}),
            json.dumps({**d, "src": "2001:db8::/64"}),
            json.dumps({**d, "src": 5}),
            json.dumps({**d, "embedded_target": "2001:db8::zz"}),
            json.dumps({**d, "embedded_target": False}),
            json.dumps({**d, "kind": ["echo_reply"]}),
        ]),
        st.sampled_from([                                   # accepted, values as they are
            json.dumps({**d, "ts": math.nan}),
            json.dumps({**d, "type": "x", "code": 1.5, "hop_limit": True}),
        ]),
    ))
    return line + "\n"


def _decode(read, lines):
    """Each record's repr (which tells 1 from 1.0 and True), or the error."""
    try:
        return [repr(rec) for rec in read(lines)]
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=500, deadline=None)
@given(
    lines=st.lists(
        st.tuples(
            st.one_of(reply_records().map(ReplyRecord.to_json), reply_lines().map(lambda l: l[:-1])),
            st.sampled_from(["\n", ""]),
        ).map("".join),
        max_size=30,
    ),
    block=st.sampled_from([1, 2, 3, 7, READ_BLOCK]),
)
def test_read_replies_matches_from_json_line_by_line(lines, block):
    """Block decoding yields what `from_json` yields per line, or its error,
    on lines with and without their newlines, mixed."""
    expected = _decode(lambda ls: read_records(ls, ReplyRecord.from_json), lines)
    with mock.patch.object(sys.modules[read_blocks.__module__], "READ_BLOCK", block):
        assert _decode(read_replies, lines) == expected
        assert _decode(read_replies, iter(lines)) == expected


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(
        st.one_of(reply_records().map(ReplyRecord.to_json), reply_lines().map(lambda l: l[:-1])),
        max_size=30,
    ),
    block=st.sampled_from([1, 2, 3, 7, READ_BLOCK]),
)
def test_read_replies_matches_from_json_on_newline_free_lines(lines, block):
    """The same on lines without their newlines, as `text_lines` gives them:
    the lines that block decoding takes whole."""
    expected = _decode(lambda ls: read_records(ls, ReplyRecord.from_json), lines)
    with mock.patch.object(sys.modules[read_blocks.__module__], "READ_BLOCK", block):
        assert _decode(read_replies, lines) == expected


def test_read_replies_builds_records_equal_by_value():
    recs = [
        ReplyRecord(ReplyKind.ECHO_REPLY, 129, 0, addr("2001:db8::1"), addr("2001:db8:1::"), 64, 0.5),
        ReplyRecord(ReplyKind.TIME_EXCEEDED, 3, 0, addr("2001:db8::2"), None, 61, 1e-07),
    ]
    decoded = list(read_replies(rec.to_json() + "\n" for rec in recs))
    assert decoded == recs
    assert {hash(r) for r in decoded} == {hash(r) for r in recs}
    with pytest.raises(AttributeError):
        decoded[0].code = 1


@pytest.mark.parametrize(
    "line,message",
    [
        ("[]", "expected a JSON object"),
        ("null", "expected a JSON object"),
        ('"2001:db8::1"', "expected a JSON object"),
        ('{"ts":0.0}', "missing key 'kind'"),
        ('{"ts":0.0,"kind":"other","type":1,"code":0,"src":"::1","embedded_target":null}',
         "missing key 'hop_limit'"),
    ],
)
def test_from_json_names_what_a_line_lacks(line, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ReplyRecord.from_json(line)


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


def test_run_scan_never_runs_ahead_of_the_rate_from_its_start():
    """On a virtual clock, probe k leaves no earlier than k / send_rate after
    the scan starts: the 1 ms burst makes up for stalls, not for the start."""
    now = [0.0]
    sent_at = []

    class ClockedTransport:
        def send(self, packet):
            sent_at.append(now[0])

        def receive(self, timeout):
            now[0] += timeout  # waiting is the only thing that moves the clock
            return None

    rate = float(1 << 17)  # a power of two keeps k / rate and the token sums exact
    targets = [addr("2001:db8::") + (i << 64) for i in range(500)]
    list(run_scan(targets, ClockedTransport(), cfg(send_rate=rate, cooldown=0.0),
                  clock=lambda: now[0]))
    assert len(sent_at) == len(targets)
    assert sent_at == [k / rate for k in range(len(targets))]


class VirtualClockTransport:
    """A silent transport whose clock moves only when the scan waits, as
    receive(timeout) adds its timeout, or when a send stalls.  Too many
    receives per send raise, so a pacer that never reaches its due time
    fails instead of hanging."""

    def __init__(self, stall_after: int = 0, stall: float = 0.0):
        self.now = 0.0
        self.sent_at: list[float] = []
        self.receives = 0
        self._stall_after, self._stall = stall_after, stall

    def clock(self) -> float:
        return self.now

    def send(self, packet):
        self.sent_at.append(self.now)
        if len(self.sent_at) == self._stall_after:
            self.now += self._stall

    def receive(self, timeout):
        self.receives += 1
        if self.receives > 5 * (len(self.sent_at) + 1):
            raise RuntimeError("receive called without end")
        self.now += timeout
        return None


def test_run_scan_reaches_every_due_time_on_a_clock_moved_only_by_waiting():
    """At 200,000/s an interval is not a power of two, so the waits do not
    add up exactly; each wait still ends at its absolute due time."""
    rate = 200_000.0
    transport = VirtualClockTransport()
    targets = [addr("2001:db8::") + (i << 64) for i in range(2000)]
    list(run_scan(targets, transport, cfg(send_rate=rate, cooldown=0.0), clock=transport.clock))
    assert len(transport.sent_at) == len(targets)
    assert transport.sent_at == sorted(transport.sent_at)
    assert transport.sent_at[-1] == pytest.approx((len(targets) - 1) / rate)


@pytest.mark.parametrize("rate", [500.0, 1000.0, float(1 << 17), 200_000.0, 1e6])
def test_run_scan_catches_up_a_stall_in_bursts_of_at_most_1_ms(rate):
    transport = VirtualClockTransport(stall_after=10, stall=0.010)
    targets = [addr("2001:db8::") + (i << 64) for i in range(3000)]
    list(run_scan(targets, transport, cfg(send_rate=rate, cooldown=0.0), clock=transport.clock))
    assert len(transport.sent_at) == len(targets)
    [(_, burst)] = Counter(transport.sent_at).most_common(1)
    assert burst <= max(1.0, rate / 1000)


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


def test_run_scan_passes_a_consumer_exception_through():
    """An exception thrown in at a yielded reply is the consumer's own, not a
    transport failure."""
    targets = [addr(f"2001:db8:{i:x}::") for i in range(1, 11)]
    transport = ReplyingTransport()
    scan = run_scan(targets, transport, cfg(send_rate=1e6))
    first = next(scan)
    assert first.embedded_target == targets[0]
    with pytest.raises(KeyError, match="consumer"):
        scan.throw(KeyError("consumer"))
    assert len(transport.sent) == 1


def test_run_scan_yields_earlier_replies_before_a_drain_failure():
    """A receive that fails while draining after a send comes out as
    TransportError only after every reply received before it."""

    class FlakyTransport(ReplyingTransport):
        def __init__(self):
            super().__init__(responder=lambda req: [oracle.build_echo_reply(req, req[24:40])] * 2)
            self.receives = 0

        def receive(self, timeout):
            self.receives += 1
            if self.receives == 8:  # three receives per probe: two replies, then None
                raise OSError("receive socket closed")
            return super().receive(timeout)

    targets = [addr(f"2001:db8:{i:x}::") for i in range(1, 11)]
    got = []
    with pytest.raises(TransportError) as info:
        for rec in run_scan(targets, FlakyTransport(), cfg(send_rate=1e6)):
            got.append(rec.embedded_target)
    assert isinstance(info.value.__cause__, OSError)
    assert got == [targets[0]] * 2 + [targets[1]] * 2 + [targets[2]]


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
