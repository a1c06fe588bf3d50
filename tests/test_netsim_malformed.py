"""Simulation.inject against the reference in reference_netsim on packets
that are malformed, cut short, padded or otherwise mutated.

Both must refuse the same packets with MalformedPacketError, and hand back
equal Deliveries (and leave equal token buckets) for the rest.  The
probes and topologies come from test_netsim_reference's scenarios; each
probe then goes through a few mutations of its header fields and length.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_netsim import ReferenceSimulation
from srascan.netsim import MalformedPacketError, Simulation, build_gateway_fanout
from srascan.probe_engine import ProbeConfig, build_echo_request
from test_netsim_reference import scenarios


def outcome(sim, packet: bytes, now: float):
    try:
        return sim.inject(packet, now)
    except MalformedPacketError:
        return MalformedPacketError


def set_byte(packet: bytes, index: int, value: int) -> bytes:
    if index >= len(packet):
        return packet
    return packet[:index] + bytes((value,)) + packet[index + 1 :]


def apply(packet: bytes, mutation) -> bytes:
    kind, value = mutation
    if kind == "cut":
        return packet[:value]
    if kind == "version":
        return set_byte(packet, 0, value << 4 | (packet[0] & 0xF)) if packet else packet
    if kind == "payload_length":
        return packet[:4] + value.to_bytes(2, "big") + packet[6:] if len(packet) >= 6 else packet
    if kind == "append":
        return packet + value
    index, byte = value  # "next_header", "hop_limit", "type" and "byte"
    return set_byte(packet, index, byte)


mutation = st.one_of(
    st.tuples(st.just("cut"), st.sampled_from([0, 1, 8, 39, 40, 41, 44, 47, 48, 55, 63])),
    st.tuples(st.just("version"), st.integers(0, 15)),
    st.tuples(st.just("payload_length"), st.sampled_from([0, 4, 7, 8, 9, 23, 31, 32, 33, 0xFFFF])),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=40)),
    st.tuples(st.just("next_header"), st.tuples(st.just(6), st.sampled_from([0, 6, 17, 43, 59, 255]))),
    st.tuples(st.just("hop_limit"), st.tuples(st.just(7), st.sampled_from([0, 1, 2, 255]))),
    st.tuples(st.just("type"), st.tuples(st.just(40), st.sampled_from([0, 1, 3, 127, 129, 255]))),
    st.tuples(st.just("byte"), st.tuples(st.integers(0, 71), st.integers(0, 255))),
)


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios(), mutated=st.lists(st.lists(mutation, min_size=1, max_size=3)))
def test_mutated_packets_meet_the_reference(scenario, mutated):
    topology, stream = scenario
    sim, ref = Simulation(topology), ReferenceSimulation(topology)
    now = 0.0
    for n, (dst, hop_limit, step) in enumerate(stream):
        now += step
        packet = build_echo_request(dst, ProbeConfig(secret=7, hop_limit=hop_limit))
        for m in mutated[n] if n < len(mutated) else ():
            packet = apply(packet, m)
        assert outcome(sim, packet, now) == outcome(ref, packet, now)
    assert sim.token_states() == ref.token_states()


TOPOLOGY, META = build_gateway_fanout(n_inactive=2, m_active=2, aliased=1, seed=5)
ANYCAST = META["active_prefixes"][0].sra
PROBE = build_echo_request(ANYCAST, ProbeConfig(secret=7))


def with_payload_length(packet: bytes, length: int) -> bytes:
    return packet[:4] + length.to_bytes(2, "big") + packet[6:]


@pytest.mark.parametrize(
    "packet,refused",
    [
        (b"", True),
        (PROBE[:39], True),  # shorter than the IPv6 header
        (PROBE[:40], True),  # a header whose payload is missing
        (PROBE[:47], True),
        (with_payload_length(PROBE[:48], 8), False),  # an 8-byte Echo Request
        (with_payload_length(PROBE[:47], 7), True),  # an ICMPv6 payload under 8 bytes
        (with_payload_length(PROBE, 7), True),
        (bytes((0x45,)) + PROBE[1:], True),  # IPv4's version
        (bytes((0x65,)) + PROBE[1:], False),  # version 6 with a traffic class
        (with_payload_length(PROBE, 33), True),  # the payload length runs past the end
        (PROBE + b"\xab" * 9, False),  # trailing bytes past the payload
        (with_payload_length(PROBE, 8) + b"\xab", False),
        (PROBE[:6] + b"\x11" + PROBE[7:], True),  # UDP, not ICMPv6
        (PROBE[:40] + b"\x81" + PROBE[41:], False),  # an Echo Reply: ignored
        (PROBE[:40] + b"\x01" + PROBE[41:], False),  # an error: ignored
        (PROBE[:7] + b"\x00" + PROBE[8:], False),  # hop limit 0
    ],
)
def test_malformed_and_odd_packets_meet_the_reference(packet, refused):
    sim, ref = Simulation(TOPOLOGY), ReferenceSimulation(TOPOLOGY)
    got = outcome(sim, packet, 1.0)
    assert got == outcome(ref, packet, 1.0)
    assert (got is MalformedPacketError) == refused


def test_an_echo_reply_carries_the_bytes_past_the_payload():
    """The reply echoes the request from byte 44 to its end, payload length
    or not, in both simulators."""
    padded = PROBE + b"\xab" * 3
    (echo,) = Simulation(TOPOLOGY).inject(padded).emissions
    assert echo.packet.endswith(PROBE[44:] + b"\xab" * 3)
    assert ReferenceSimulation(TOPOLOGY).inject(padded).emissions[0] == echo
