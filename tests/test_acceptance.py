"""Top-level acceptance checks, one test per shipping criterion.

Each test prints a single `C<n> ...: PASS` line on success, emitted outside
pytest's capture so it lands in the terminal.  Failures surface as normal
pytest failures.  Oracles: brute-force enumeration via the ipaddress
module, the independent RFC 4443 validator in rfc4443_oracle, closed-form
loop arithmetic, and itertools set algebra.
"""

import ipaddress
import itertools
import json
import random
import time

import pytest

import rfc4443_oracle as oracle
from srascan import cli
from srascan.analysis import (
    alias_filter,
    build_visibility_matrix,
    compare_datasets,
    detect_loops,
    match_replies,
    sra_stability,
    visibility,
)
from srascan.netsim import (
    Interface,
    Ipv6Prefix,
    Route,
    SimRouter,
    SimTopology,
    SimTransport,
    Simulation,
    build_gateway_fanout,
    build_loop_topology,
)
from srascan.probe_engine import (
    ProbeConfig,
    ReplyKind,
    build_echo_request,
    classify_icmp,
    decode_payload,
    encode_payload,
    run_scan,
)
from srascan.addresses import parse_address, parse_prefix
from srascan.target_gen import (
    GenerationConfig,
    gen_route6,
    gen_stage2,
    plan_size,
    stage2_plan,
    stage3_plan,
)


@pytest.fixture
def announce(request):
    """Print one line past pytest's capture, so pass lines reach the terminal."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line: str) -> None:
        if capman is None:
            print(line, flush=True)
        else:
            with capman.global_and_fixture_disabled():
                print("\n" + line, flush=True)

    return emit


def test_c01_stage2_counts_match_brute_force(announce):
    start = time.perf_counter()
    for length in range(40, 49):
        prefix = parse_prefix(f"2001:db8::/{length}")
        emitted = list(gen_stage2([prefix]))
        assert len(emitted) == 2 ** (48 - length)
        assert len(set(emitted)) == len(emitted)
        want = {
            int(net.network_address)
            for net in ipaddress.IPv6Network(f"2001:db8::/{length}").subnets(new_prefix=48)
        }
        assert set(emitted) == want
    assert plan_size(stage2_plan([parse_prefix("2001:db8::/32")])) == 65536
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    announce("C1 /48 grid counts match brute force for L=40..48 and L=32: PASS")


def test_c02_hundred_thousand_48s_count_to_6_5_billion(announce):
    start = time.perf_counter()
    base = parse_prefix("2000::/16").bits
    prefixes = (Ipv6Prefix(base | (i << 80), 48) for i in range(100_000))
    total = plan_size(stage3_plan(prefixes))
    elapsed = time.perf_counter() - start
    assert total == 6_553_600_000
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    announce("C2 100k /48s count to exactly 6,553,600,000 /64 targets: PASS")


def test_c03_payload_round_trip_and_forgery_resistance(announce):
    start = time.perf_counter()
    rnd = random.Random(0xC3)
    secret = 0x5EC12E7
    for _ in range(1_000_000):
        address = rnd.getrandbits(128)
        assert decode_payload(encode_payload(address, secret), secret) == address
    false_accepts = 0
    for _ in range(1_000_000):
        if decode_payload(rnd.randbytes(24), secret) is not None:
            false_accepts += 1
    elapsed = time.perf_counter() - start
    assert false_accepts == 0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    announce("C3 1M payload round-trips, 1M forgeries, zero false accepts: PASS")


def _random_star_topology(seed: int):
    """Hub-and-spoke topology with known ground truth.

    Every leaf owns one /64 lan; a leaf answers anycast for its lan iff its
    flag is set and the lan is not aliased (aliased prefixes answer as the
    probed address itself, so they never contribute a router source).  All
    error buckets are disabled, so the only reply sources are the expected
    leaf link addresses and aliased echoes.
    """
    rnd = random.Random(seed)
    n = rnd.randint(3, 60)
    base = parse_prefix("2001:db8::/32").bits

    def subnet(group2, group3):
        return Ipv6Prefix(base | (group2 << 80) | (group3 << 64), 64)

    blocks = rnd.sample(range(1, 0xFFFF), 2 * n)
    uplink = subnet(0, 0)
    hub_ifaces = [Interface(uplink.bits | 1, uplink)]
    hub_routes = []
    leaves = []
    lans = []
    aliased = []
    expected = set()
    for i in range(n):
        link = subnet(1, blocks[i])
        lan = subnet(2, blocks[n + i])
        hub_ifaces.append(Interface(link.bits | 1, link))
        hub_routes.append(Route(lan, f"leaf{i}"))
        sra_enabled = rnd.random() < 0.7
        is_aliased = i == 0 or rnd.random() < 0.25
        link_addr = link.bits | 2
        leaves.append(
            SimRouter(
                id=f"leaf{i}",
                interfaces=[Interface(link_addr, link), Interface(lan.bits | 1, lan)],
                sra_enabled=sra_enabled,
                error_rate=0.0,
            )
        )
        lans.append(lan)
        if is_aliased:
            aliased.append(lan)
        elif sra_enabled:
            expected.add(link_addr)
    hub = SimRouter(
        id="hub",
        interfaces=hub_ifaces,
        routes=hub_routes,
        sra_enabled=False,
        error_rate=0.0,
    )
    topology = SimTopology(
        routers=[hub] + leaves, entry_router="hub", aliased_prefixes=aliased
    )
    return topology, lans, aliased, expected, rnd


def test_c04_pipeline_recovers_the_ground_truth_router_set(announce):
    for seed in range(50):
        topology, lans, aliased, expected, rnd = _random_star_topology(seed)
        cfg = ProbeConfig(secret=seed + 1, cooldown=0.02, send_rate=1_000_000.0)
        targets = list(gen_route6(lans, GenerationConfig(rng_seed=seed)))
        assert set(targets) == {lan.bits for lan in lans}
        host_probes = [
            lan.bits | rnd.randrange(2, 1 << 64)
            for lan in rnd.sample(lans, min(8, len(lans)))
        ]
        transport = SimTransport(topology, tick=1e-6)
        probed = targets + host_probes
        records = list(run_scan(probed, transport, cfg))
        result = match_replies(probed, records)
        observations = alias_filter(result, aliased)
        observed = {o.router_ip for o in observations}
        assert observed == expected, f"seed {seed}"
        assert not any(
            p.covers_address(o.router_ip) for o in observations for p in aliased
        ), f"seed {seed}: aliased source survived"
    announce("C4 50 random topologies: filtered sources == ground truth, no aliased survivors: PASS")


def _fanout_scan_sets(topology, meta, probe_addresses, secret, scans=6, gap=600.0):
    """Distinct filtered reply sources per scan, one shared simulation."""
    sim = Simulation(topology)
    cfg = ProbeConfig(secret=secret)
    sets = []
    tick = 0.005
    for scan_index in range(scans):
        t0 = scan_index * gap
        records = []
        for i, address in enumerate(probe_addresses):
            packet = build_echo_request(address, cfg)
            delivery = sim.inject(packet, t0 + i * tick)
            for em in delivery.emissions:
                records.append(classify_icmp(em.packet, secret, em.time))
        result = match_replies(probe_addresses, records)
        observations = alias_filter(result, scan_id=scan_index)
        sets.append({o.router_ip for o in observations})
    return sets


def test_c05_anycast_beats_random_probing_under_rate_limits(announce):
    for seed in range(20):
        topology, meta = build_gateway_fanout(n_inactive=100, m_active=100, seed=seed)
        subnets = meta["active_prefixes"] + meta["inactive_prefixes"]
        rnd = random.Random(seed ^ 0xF00)
        sra_targets = [p.sra for p in subnets]
        random_targets = [p.bits | rnd.randrange(2, 1 << 64) for p in subnets]

        sra_sets = _fanout_scan_sets(topology, meta, sra_targets, secret=seed + 1)
        topology2, _ = build_gateway_fanout(n_inactive=100, m_active=100, seed=seed)
        random_sets = _fanout_scan_sets(topology2, meta, random_targets, secret=seed + 1)

        assert all(s == sra_sets[0] for s in sra_sets), f"seed {seed}: anycast set drifted"
        assert set(meta["leaf_sources"]) <= sra_sets[0]
        assert len(set(map(frozenset, random_sets))) > 1, f"seed {seed}: random never varied"
        for k in range(1, 6):
            assert len(sra_sets[k]) > len(random_sets[k]), f"seed {seed}, scan {k}"
    announce("C5 20 seeds: anycast set stable across 6 scans and strictly larger than random once buckets drain: PASS")


def test_c06_loop_amplification_matches_simulator_and_closed_form(announce):
    cfg = ProbeConfig(secret=0xC6, hop_limit=64)
    topo = build_loop_topology(replication_factor=1)
    target = parse_address("2001:db8:2::")
    delivery = Simulation(topo).inject(build_echo_request(target, cfg), 0.0)
    assert len(delivery.emissions) == 1
    (rec,) = [classify_icmp(e.packet, 0xC6, e.time) for e in delivery.emissions]
    assert rec.kind is ReplyKind.TIME_EXCEEDED

    amplifications = []
    for hop_limit in (4, 6, 8, 10):
        topo = build_loop_topology(replication_factor=2)
        cfg = ProbeConfig(secret=0xC6, hop_limit=hop_limit)
        delivery = Simulation(topo).inject(build_echo_request(target, cfg), 0.0)
        records = [classify_icmp(e.packet, 0xC6, e.time) for e in delivery.emissions]
        result = match_replies([target], records)
        loops = detect_loops(result, subnet_length=48)
        assert loops.looping_subnets == {parse_prefix("2001:db8:2::/48")}
        customer = parse_address("2001:db8:ffff:ffff::2")
        amplification = loops.per_router[customer].amplification
        assert amplification == len(delivery.emissions) == 2 ** (hop_limit // 2 - 1)
        amplifications.append(amplification)
    assert all(a < b for a, b in zip(amplifications, amplifications[1:]))
    announce("C6 loop replies equal closed form 2^(H/2-1), amplification strictly monotone: PASS")


def test_c07_stability_and_visibility_identities(announce):
    r1, r2, r3 = (parse_address(f"2001:db8:fe::{i}") for i in (1, 2, 3))
    report_vis = visibility(
        build_visibility_matrix([{r1, r2}, {r1}, {r1, r2, r3}])
    )
    assert report_vis.always == {r1}
    assert report_vis.sometimes == {r2, r3}
    assert report_vis.histogram == {1: 1, 2: 1, 3: 1}

    t1, t2, t3, t4 = (parse_address(f"2001:db8:{i}::") for i in (1, 2, 3, 4))
    scans = [
        {t1: r1, t2: r2, t3: r3, t4: None},
        {t1: r1, t2: r3, t3: None, t4: r2},
        {t1: r1, t2: r3, t3: r3, t4: None},
    ]
    rows = sra_stability(scans, baseline="first")
    assert rows[0].same == pytest.approx(0.25)  # t1 held, t2 moved, t3 dark, t4 lit
    assert rows[0].changed == pytest.approx(0.50)
    assert rows[0].no_response == pytest.approx(0.25)
    assert rows[1].same == pytest.approx(0.50)  # t1, t3 match scan 0
    assert rows[1].changed == pytest.approx(0.25)
    assert rows[1].no_response == pytest.approx(0.25)
    for baseline in ("first", "previous"):
        for row in sra_stability(scans, baseline=baseline):
            assert abs(row.same + row.changed + row.no_response - 1.0) < 1e-9

    identical = sra_stability([scans[0], dict(scans[0])])
    assert identical[0].same == pytest.approx(1.0 - 0.25)  # the None target stays dark
    all_answered = sra_stability([{t1: r1, t2: r2}, {t1: r1, t2: r2}])
    assert all_answered[0].same == pytest.approx(1.0)
    announce("C7 visibility categories and stability fractions match hand computation, rows sum to 1: PASS")


def test_c08_overlap_algebra_matches_brute_force(announce):
    rnd = random.Random(0xC8)
    for trial in range(100):
        names = [f"s{i}" for i in range(rnd.randint(2, 5))]
        family = {
            name: {rnd.randrange(30_000) for _ in range(rnd.randint(0, 10_000))}
            for name in names
        }
        report_cmp = compare_datasets(family)
        union = set().union(*family.values())
        assert sum(report_cmp.exclusive.values()) == len(union), f"trial {trial}"
        for a, b in itertools.combinations(sorted(names), 2):
            assert report_cmp.pairwise[(a, b)] == len(family[a] & family[b])
    announce("C8 100 random families: exclusive intersections sum to |union|, pairwise match brute force: PASS")


def test_c09_wire_format_conformance(announce):
    rnd = random.Random(0xC9)
    checked = 0
    for _ in range(500):
        cfg = ProbeConfig(
            secret=rnd.getrandbits(64),
            hop_limit=rnd.randint(1, 255),
            source_address=parse_address("2001:db8:ffff::1") + rnd.randrange(1 << 16),
            scan_pass=rnd.randrange(1 << 16),
            shard=rnd.randrange(1 << 16),
        )
        packet = build_echo_request(rnd.getrandbits(128), cfg)
        assert oracle.validate_echo_request(packet) == []
        checked += 1
    assert checked == 500

    secret = 0x99
    target = parse_address("2001:db8:77::")
    request = build_echo_request(target, ProbeConfig(secret=secret))
    responder = parse_address("2001:db8:fe::9").to_bytes(16, "big")
    fixtures = [
        (oracle.build_echo_reply(request, responder), ReplyKind.ECHO_REPLY, 129),
        (oracle.build_error(request, responder, 1, 0), ReplyKind.DEST_UNREACHABLE, 1),
        (oracle.build_error(request, responder, 2, 0), ReplyKind.PACKET_TOO_BIG, 2),
        (oracle.build_error(request, responder, 3, 0), ReplyKind.TIME_EXCEEDED, 3),
        (oracle.build_error(request, responder, 4, 1), ReplyKind.PARAM_PROBLEM, 4),
    ]
    for packet, kind, icmp_type in fixtures:
        rec = classify_icmp(packet, secret)
        assert rec is not None and rec.kind is kind and rec.icmp_type == icmp_type
        assert rec.embedded_target == target
    announce("C9 500/500 probes pass the independent RFC 4443 validator; all five ICMPv6 types classify: PASS")


def test_c10_cli_output_is_byte_identical_across_runs(tmp_path, announce):
    outputs = []
    for name in ("first", "second"):
        d = tmp_path / name
        d.mkdir()
        assert cli.main(["demo", "--into", str(d)]) == 0
        assert cli.main([
            "gen-targets", "--mode", "bgp", "--stage", "2",
            "--prefixes", str(d / "demo_subnets.txt"),
            "-o", str(d / "targets.txt"),
        ]) == 0
        assert cli.main([
            "gen-targets", "--mode", "route6", "--seed", "9",
            "--samples-per-prefix", "50",
            "--prefixes", str(d / "demo_subnets.txt"),
            "-o", str(d / "sampled.txt"),
        ]) == 0
        assert cli.main([
            "scan",
            "--targets", str(d / "targets.txt"),
            "--sim-topology", str(d / "demo_topology.json"),
            "--rate", "1000",
            "-o", str(d / "replies.ndjson"),
        ]) == 0
        outputs.append(
            tuple(
                (d / f).read_bytes()
                for f in ("targets.txt", "sampled.txt", "replies.ndjson")
            )
        )
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0][2].splitlines()[0].decode())) >= 6
    announce("C10 gen-targets and sim scan byte-identical across two runs on demo inputs: PASS")
