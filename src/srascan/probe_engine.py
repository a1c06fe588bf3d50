"""Stateless ICMPv6 Echo Request probing.

The engine keeps no per-target state.  Each Echo Request carries the probed
address inside its payload together with a keyed checksum, so any reply --
an Echo Reply quoting the payload, or an ICMPv6 error quoting the whole
request -- can be matched back to its target without a connection table.

Payload layout (24 bytes):

    0..15   target address, network byte order
    16..23  blake2b-8 of the address, keyed with the 64-bit scan secret

A reply is attributed to a target only if the checksum verifies, so stray
or spoofed packets cannot pollute results (false accept ~ 2^-64).

Every scan imports this module, so it holds what a scan runs: crafting,
classifying, `run_scan` and the reply record with its line format.  Code
that a simulated scan never runs lives elsewhere: the raw-socket transport
in `live`, and the block reader of reply files, which only `analyze` uses,
in `analysis` (`read_replies`).
"""

from __future__ import annotations

import enum
import json
import math
import struct
import time
from typing import Iterable, Iterator, NamedTuple, Protocol

# The C functions behind hashlib.blake2b and hmac.compare_digest's fallback
# (constant time, as OpenSSL's is): importing hashlib or hmac would load
# OpenSSL in every scan process, for functions the scan does not call.
from _blake2 import blake2b
from _operator import _compare_digest as compare_digest

from .addresses import format_address, parse_address


# Looked up once: on a per-packet path, reading the classmethod off `int`
# costs about as much as the conversion itself.
_from_bytes = int.from_bytes

ICMP6_ECHO_REQUEST = 128
ICMP6_ECHO_REPLY = 129

PAYLOAD_LEN = 24
IPV6_HEADER_LEN = 40
ICMP6_HEADER_LEN = 8  # echo header: type, code, cksum, ident, seq


class TransportError(RuntimeError):
    """The transport failed mid-scan; partial results were flushed."""


class _ProbeConfig(NamedTuple):
    send_rate: float = 200_000.0
    hop_limit: int = 64
    cooldown: float = 10.0
    secret: int = 0
    source_address: int = parse_address("2001:db8:ffff::1")
    scan_pass: int = 0  # goes into the ICMP identifier field
    shard: int = 0      # goes into the ICMP sequence field


class ProbeConfig(_ProbeConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.send_rate) and self.send_rate > 0):
            raise ValueError("send_rate must be finite and > 0")
        if not 1 <= self.hop_limit <= 255:
            raise ValueError("hop_limit must be in 1..255")
        if not (math.isfinite(self.cooldown) and self.cooldown >= 0):
            raise ValueError("cooldown must be >= 0 and finite")
        if not 0 <= self.secret < (1 << 64):
            raise ValueError("secret must fit in 64 bits")
        if not 0 <= self.source_address < (1 << 128):
            raise ValueError("source_address must be an IPv6 address")
        if not 0 <= self.scan_pass < (1 << 16) or not 0 <= self.shard < (1 << 16):
            raise ValueError("scan_pass and shard are 16-bit fields")
        return self


class ReplyKind(enum.Enum):
    ECHO_REPLY = "echo_reply"
    DEST_UNREACHABLE = "dest_unreachable"
    PACKET_TOO_BIG = "packet_too_big"
    TIME_EXCEEDED = "time_exceeded"
    PARAM_PROBLEM = "param_problem"
    OTHER = "other"


_KIND_BY_TYPE = {
    1: ReplyKind.DEST_UNREACHABLE,
    2: ReplyKind.PACKET_TOO_BIG,
    3: ReplyKind.TIME_EXCEEDED,
    4: ReplyKind.PARAM_PROBLEM,
    ICMP6_ECHO_REPLY: ReplyKind.ECHO_REPLY,
}

ERROR_KINDS = frozenset(
    {
        ReplyKind.DEST_UNREACHABLE,
        ReplyKind.PACKET_TOO_BIG,
        ReplyKind.TIME_EXCEEDED,
        ReplyKind.PARAM_PROBLEM,
    }
)


class ReplyRecord(NamedTuple):
    kind: ReplyKind
    icmp_type: int
    code: int
    source: int
    embedded_target: int | None
    received_hop_limit: int
    timestamp: float

    def to_json(self) -> str:
        """One reply line: `json.dumps` of the fields in a fixed key order,
        with no spaces."""
        ts, icmp_type, code = self.timestamp, self.icmp_type, self.code
        hop_limit, embedded = self.received_hop_limit, self.embedded_target
        if (
            type(ts) is float and math.isfinite(ts)
            and type(icmp_type) is type(code) is type(hop_limit) is int
        ):
            # json.dumps writes a finite float as its repr and an int as its
            # text; address text and kind values need no escaping.
            embedded = "null" if embedded is None else f'"{format_address(embedded)}"'
            return (
                f'{{"ts":{ts!r},"kind":"{self.kind.value}","type":{icmp_type},'
                f'"code":{code},"src":"{format_address(self.source)}",'
                f'"embedded_target":{embedded},"hop_limit":{hop_limit}}}'
            )
        return json.dumps(
            {
                "ts": ts,
                "kind": self.kind.value,
                "type": icmp_type,
                "code": code,
                "src": format_address(self.source),
                "embedded_target": None if embedded is None else format_address(embedded),
                "hop_limit": hop_limit,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "ReplyRecord":
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ValueError("expected a JSON object")
        try:
            return cls(
                kind=ReplyKind(d["kind"]),
                icmp_type=d["type"],
                code=d["code"],
                source=parse_address(d["src"]),
                embedded_target=(
                    parse_address(d["embedded_target"])
                    if d["embedded_target"] is not None
                    else None
                ),
                received_hop_limit=d["hop_limit"],
                timestamp=d["ts"],
            )
        except KeyError as exc:
            raise ValueError(f"missing key {exc.args[0]!r}") from None


# --- payload tagging ----------------------------------------------------------


def _payload_mac(address_bytes: bytes, secret: int) -> bytes:
    key = secret.to_bytes(8, "big")
    return blake2b(address_bytes, key=key, digest_size=8).digest()


def encode_payload(target_address: int, secret: int) -> bytes:
    """24-byte probe payload: target address plus keyed checksum."""
    addr = target_address.to_bytes(16, "big")
    return addr + _payload_mac(addr, secret)


def decode_payload(data: bytes, secret: int) -> int | None:
    """Recover the probed address if the payload authenticates; else None.

    Accepts any buffer that still holds the full 24 tag bytes at its start,
    so payloads from truncated error quotes decode as long as the tag
    survived.  A missing or corrupt tag is a value (None), not an error.
    """
    if len(data) < PAYLOAD_LEN:
        return None
    addr = data[:16]
    if not compare_digest(_payload_mac(addr, secret), data[16:PAYLOAD_LEN]):
        return None
    return _from_bytes(addr, "big")


# --- packet crafting ----------------------------------------------------------


def icmpv6_checksum(src: int, dst: int, message: bytes) -> int:
    """RFC 4443 checksum: one's complement sum over the IPv6 pseudo-header.

    The RFC 1071 sum is taken by congruence: 2**16 is 1 modulo 0xFFFF, so a
    run of big-endian words adds the same as the run read as one integer
    (an odd run padded with a zero byte), and the one's complement of the
    folded sum is its negation modulo 0xFFFF (the sum is never zero: the
    next-header word is 58).  The same congruence lets a caller add or take
    away whole words, at any even offset, after the fact.
    """
    words = _from_bytes(message, "big")
    if len(message) % 2:
        words <<= 8
    return -(src + dst + len(message) + 58 + words) % 0xFFFF


def build_ipv6_icmp(src: int, dst: int, hop_limit: int, icmp: bytes) -> bytes:
    """Wrap an ICMPv6 message (checksum field zeroed) in an IPv6 header."""
    cksum = icmpv6_checksum(src, dst, icmp)
    icmp = icmp[:2] + struct.pack("!H", cksum) + icmp[4:]
    header = struct.pack(
        "!IHBB", 6 << 28, len(icmp), 58, hop_limit
    ) + src.to_bytes(16, "big") + dst.to_bytes(16, "big")
    return header + icmp


class ProbeTemplate:
    """One pass's Echo Request, packed once; `build` fills in a target.

    Within a pass only the destination, the payload MAC and the checksum
    change from probe to probe, so the IPv6 head with the source, the ICMP
    identifier and sequence, the keyed MAC state and the checksum of the
    probe with every changing word zeroed are computed here, once.
    """

    __slots__ = ("_head", "_ident", "_mac", "_cksum")

    def __init__(self, cfg: ProbeConfig):
        self._head = struct.pack(
            "!IHBB", 6 << 28, ICMP6_HEADER_LEN + PAYLOAD_LEN, 58, cfg.hop_limit
        ) + cfg.source_address.to_bytes(16, "big")
        self._ident = struct.pack("!HH", cfg.scan_pass, cfg.shard)
        self._mac = blake2b(key=cfg.secret.to_bytes(8, "big"), digest_size=8)
        self._cksum = icmpv6_checksum(
            cfg.source_address, 0, b"\x80\x00\x00\x00" + self._ident + bytes(PAYLOAD_LEN)
        )

    def build(self, address: int) -> bytes:
        """Full IPv6 packet probing `address`, byte-identical to
        `build_ipv6_icmp` over the same Echo Request."""
        dst = address.to_bytes(16, "big")
        mac = self._mac.copy()
        mac.update(dst)
        tag = mac.digest()
        # The destination, in the pseudo-header and the payload, and the tag
        # fill words that are zero in the template's checksum.
        cksum = (self._cksum - 2 * address - _from_bytes(tag, "big")) % 0xFFFF
        return b"".join(
            (self._head, dst, b"\x80\x00", cksum.to_bytes(2, "big"), self._ident, dst, tag)
        )


def build_echo_request(address: int, cfg: ProbeConfig) -> bytes:
    """Full IPv6 packet for one probe, checksummed and ready to send.

    The ICMP identifier carries cfg.scan_pass and the sequence cfg.shard.
    A scan builds one ProbeTemplate per pass instead; this one-probe packer
    stays because the tests and the benchmark's offline replay
    (`bench/checks.replay`) build single probes with it.
    """
    return ProbeTemplate(cfg).build(address)


_IPV6_HEADER = struct.Struct("!IHBB16s16s")


def parse_ipv6(packet: bytes) -> tuple[int, int, int, int, bytes] | None:
    """(src, dst, hop_limit, next_header, payload) or None if not plain IPv6.

    Extension header chains are not walked; scan replies arrive as plain
    ICMPv6 and anything else is noise.
    """
    if len(packet) < IPV6_HEADER_LEN:
        return None
    vtf, plen, nh, hlim, src, dst = _IPV6_HEADER.unpack_from(packet)
    if vtf >> 28 != 6:
        return None
    end = IPV6_HEADER_LEN + plen
    if len(packet) < end:
        return None
    src, dst = _from_bytes(src, "big"), _from_bytes(dst, "big")
    return src, dst, hlim, nh, packet[IPV6_HEADER_LEN:end]


def _embedded_from_quote(quoted: bytes, secret: int) -> int | None:
    """Pull the authenticated target out of an error message's quoted packet.

    Quotes are routinely truncated, so the IPv6 length field of the quoted
    packet is not trusted; whatever payload bytes survived are offered to
    decode_payload, which insists on a complete tag.
    """
    if len(quoted) < IPV6_HEADER_LEN + ICMP6_HEADER_LEN:
        return None
    if quoted[0] >> 4 != 6 or quoted[6] != 58:
        return None
    inner = quoted[IPV6_HEADER_LEN:]
    if inner[0] != ICMP6_ECHO_REQUEST:
        return None
    return decode_payload(inner[ICMP6_HEADER_LEN:], secret)


def classify_icmp(packet: bytes, secret: int, timestamp: float = 0.0) -> ReplyRecord | None:
    """Parse a received packet into a ReplyRecord.

    Returns None for anything that is not wellformed ICMPv6 over IPv6 or
    fails the RFC 4443 checksum; absence is a value, not an error.  Known
    types map to their kinds, everything else to OTHER.  embedded_target is
    set only when the echoed or quoted payload authenticates.
    """
    parsed = parse_ipv6(packet)
    if parsed is None:
        return None
    src, dst, hlim, nh, payload = parsed
    if nh != 58 or len(payload) < 4:
        return None
    # Summed as received, the message counts its stored checksum once more
    # than the sender did; adding it back gives the sender's checksum.
    stored = _from_bytes(payload[2:4], "big")
    if (icmpv6_checksum(src, dst, payload) + stored) % 0xFFFF != stored:
        return None
    icmp_type, code = payload[0], payload[1]
    kind = _KIND_BY_TYPE.get(icmp_type, ReplyKind.OTHER)
    embedded = None
    if kind is ReplyKind.ECHO_REPLY:
        embedded = decode_payload(payload[ICMP6_HEADER_LEN:], secret)
    elif kind in ERROR_KINDS:
        embedded = _embedded_from_quote(payload[8:], secret)
    return ReplyRecord(
        kind=kind,
        icmp_type=icmp_type,
        code=code,
        source=src,
        embedded_target=embedded,
        received_hop_limit=hlim,
        timestamp=timestamp,
    )


# --- scanning -----------------------------------------------------------------


class Transport(Protocol):
    """A packet channel: exactly send and receive, nothing else.

    run_scan drives both from one thread.  receive(timeout) returns the next
    packet with its receive time, or None once `timeout` seconds pass without
    one; receive(0) must not block.  A None may come before the timeout ends:
    the caller treats it as "nothing yet" and keeps waiting until its own
    deadline.  A transport may also provide clock(), the scan's time in
    seconds; run_scan then reads it in place of time.monotonic.
    """

    def send(self, packet: bytes) -> None: ...

    def receive(self, timeout: float) -> tuple[bytes, float] | None: ...


def run_scan(
    targets: Iterable[int],
    transport: Transport,
    cfg: ProbeConfig,
    clock=None,
) -> Iterator[ReplyRecord]:
    """Send one Echo Request per target, yield classified replies.

    One loop, no per-target state: wait for the send slot by receiving,
    send, then receive without waiting until the transport has nothing
    queued.  Probe k is due k / cfg.send_rate after the scan starts; probes
    held up by a stall catch up, in a burst of at most 1 ms.  Reception
    continues for cfg.cooldown after the last send.  If the transport fails
    to send or to receive, the replies received before the failure have
    been yielded, and TransportError is raised.  `clock` defaults to the
    transport's own clock() when it has one, else to time.monotonic.
    """
    if clock is None:
        clock = getattr(transport, "clock", time.monotonic)
    secret = cfg.secret

    def receive(timeout: float) -> tuple[bytes, float] | None:
        try:
            return transport.receive(timeout)
        except Exception as exc:
            raise TransportError("transport failed mid-scan") from exc

    def receive_until(deadline: float) -> Iterator[ReplyRecord]:
        """Replies received until `deadline`, then those still queued."""
        while True:
            timeout = max(0.0, deadline - clock())
            item = receive(timeout)
            if item is not None:
                rec = classify_icmp(item[0], secret, timestamp=item[1])
                if rec is not None:
                    yield rec
            elif timeout == 0.0:
                return

    build = ProbeTemplate(cfg).build
    send, poll = transport.send, transport.receive
    interval = 1.0 / cfg.send_rate
    slack = max(0.0, 0.001 - interval)  # how far the schedule may trail the clock
    due = clock()
    for target in targets:
        now = clock()
        if now < due:
            yield from receive_until(due)
        elif due < now - slack:
            due = now - slack
        due += interval
        packet = build(target)
        # Most probes draw no reply: one send and one empty poll.
        try:
            send(packet)
            item = poll(0.0)
        except Exception as exc:
            raise TransportError("transport failed mid-scan") from exc
        while item is not None:
            rec = classify_icmp(item[0], secret, timestamp=item[1])
            if rec is not None:
                yield rec
            item = receive(0.0)
    yield from receive_until(clock() + cfg.cooldown)
