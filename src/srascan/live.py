"""The raw-socket transport of a live scan.

Only `scan --transport live` imports this module, and with it `socket`; a
simulated scan sends through `netsim.SimTransport` instead.
"""

from __future__ import annotations

import socket
import time

from .addresses import format_address
from .probe_engine import parse_ipv6


class LiveTransport:  # pragma: no cover - needs CAP_NET_RAW and a real network
    """Raw-socket transport.  Requires root (or CAP_NET_RAW).

    Sending hands the kernel the ICMPv6 part of the crafted packet (the
    kernel rebuilds an equivalent IPv6 header; hop limit and source are
    pinned via socket options).  Receiving sniffs full IPv6 frames so the
    classifier sees real headers.
    """

    def __init__(self, interface: str, source_address: int, hop_limit: int = 64):
        self._send_sock = socket.socket(
            socket.AF_INET6, socket.SOCK_RAW, socket.IPPROTO_ICMPV6
        )
        self._send_sock.setsockopt(
            socket.IPPROTO_IPV6, socket.IPV6_UNICAST_HOPS, hop_limit
        )
        self._send_sock.bind((format_address(source_address), 0))
        # ETH_P_IPV6 = 0x86DD; AF_PACKET delivers whole frames
        self._recv_sock = socket.socket(
            socket.AF_PACKET, socket.SOCK_DGRAM, socket.htons(0x86DD)
        )
        self._recv_sock.bind((interface, 0x86DD))
        self._recv_sock.settimeout(0.05)

    def send(self, packet: bytes) -> None:
        parsed = parse_ipv6(packet)
        if parsed is None:
            raise ValueError("not an IPv6 packet")
        _, dst, _, _, payload = parsed
        self._send_sock.sendto(payload, (format_address(dst), 0))

    def receive(self, timeout: float) -> tuple[bytes, float] | None:
        # settimeout(0) makes the socket non-blocking: receive(0) never waits.
        self._recv_sock.settimeout(timeout)
        try:
            data = self._recv_sock.recv(65535)
        except (TimeoutError, BlockingIOError):  # socket.timeout is TimeoutError
            return None
        return data, time.monotonic()

    def close(self) -> None:
        self._send_sock.close()
        self._recv_sock.close()
