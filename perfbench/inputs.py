"""Seeded input generators for the clustersmith benchmark.

Every generator takes a `random.Random` built from the workload seed and
returns the text of files in the program's own formats (topology, level
and flow files), so that the program's parsers are part of what is
measured.  The same seed always yields the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# plan-cluster: a multi-host cluster on a leaf/spine fabric

HOSTS = 14
GPUS_PER_SWITCH = 2
SWITCHES_PER_SOCKET = 2
GPUS_PER_HOST = 2 * SWITCHES_PER_SOCKET * GPUS_PER_SWITCH  # 8
LEAVES = 4
SPINES = 2


def _jitter(rng: random.Random, base: float, spread: float = 0.1) -> float:
    return round(base * rng.uniform(1.0 - spread, 1.0 + spread), 3)


def gpu_id(host: int, k: int) -> str:
    return f"h{host:02d}g{k}"


def cluster_topology(rng: random.Random) -> str:
    """A fixed-shape cluster with seeded link speeds and latencies.

    Per host: two CPU sockets joined by UPI, host memory on each socket,
    two PCIe switches per socket with two GPUs each, an NVLink ring with
    chords over the host's eight GPUs, and one NIC on the first switch of
    each socket.  NICs hang off leaf switches, and every leaf links to
    every spine.  GDR is off, so GPU<->NIC routes detour through host
    memory.  The shape and the link classes (PCIe Gen4, NVLink 3, 25 GB/s
    ports) are the same for every seed (258 nodes, 442 links), so that the
    routes, and with them the work per command, do not change with the
    seed; the seed jitters each link's speed and latency by up to 10%.
    """
    pcie, nvlink, port = 32.0, 50.0, 25.0
    lines = ["# plan-cluster benchmark input", "flag gdr=false"]
    links = []
    for h in range(HOSTS):
        for s in (0, 1):
            cpu, mem = f"h{h:02d}cpu{s}", f"h{h:02d}mem{s}"
            lines.append(f"node {cpu} kind=CpuSocket socket={s}")
            lines.append(f"node {mem} kind=HostMemory socket={s}")
            links.append(f"link {cpu} {mem} kind=IntraDie "
                         f"bw={_jitter(rng, 100.0)} lat=0.1")
            for w in range(SWITCHES_PER_SOCKET):
                sw = f"h{h:02d}sw{s}{w}"
                lines.append(f"node {sw} kind=PcieSwitch")
                links.append(f"link {cpu} {sw} kind=Pcie "
                             f"bw={_jitter(rng, pcie)} lanes=16 "
                             f"lat={_jitter(rng, 0.5)}")
                for k in range(GPUS_PER_SWITCH):
                    gpu = gpu_id(h, (s * SWITCHES_PER_SOCKET + w)
                                 * GPUS_PER_SWITCH + k)
                    lines.append(f"node {gpu} kind=Gpu")
                    links.append(f"link {sw} {gpu} kind=Pcie "
                                 f"bw={_jitter(rng, pcie)} lanes=16 "
                                 f"lat={_jitter(rng, 0.5)}")
            nic = f"h{h:02d}nic{s}"
            lines.append(f"node {nic} kind=Nic")
            links.append(f"link h{h:02d}sw{s}0 {nic} kind=Pcie "
                         f"bw={_jitter(rng, pcie)} lanes=16")
            leaf = (2 * h + s) % LEAVES
            links.append(f"link {nic} leaf{leaf} kind=Ethernet "
                         f"bw={_jitter(rng, port)} lat={_jitter(rng, 1.0)} "
                         f"b={_jitter(rng, 0.8)}")
        links.append(f"link h{h:02d}cpu0 h{h:02d}cpu1 kind=Upi "
                     f"bw={_jitter(rng, 20.8)} lat=0.6")
        for k in range(GPUS_PER_HOST):
            links.append(f"link {gpu_id(h, k)} {gpu_id(h, (k + 1) % GPUS_PER_HOST)}"
                         f" kind=NvLink bw={_jitter(rng, nvlink)} "
                         f"lat={_jitter(rng, 0.3)}")
        for k in range(GPUS_PER_HOST // 2):
            links.append(f"link {gpu_id(h, k)} {gpu_id(h, k + GPUS_PER_HOST // 2)}"
                         f" kind=NvLink bw={_jitter(rng, nvlink / 2)}")
    for leaf in range(LEAVES):
        lines.append(f"node leaf{leaf} kind=NetworkSwitch")
    for spine in range(SPINES):
        lines.append(f"node spine{spine} kind=NetworkSwitch")
        for leaf in range(LEAVES):
            links.append(f"link leaf{leaf} spine{spine} kind=Ethernet "
                         f"bw={_jitter(rng, 4 * port)} lat={_jitter(rng, 0.5)}")
    return "\n".join(lines + links) + "\n"


def cluster_levels(rng: random.Random) -> str:
    """Six levels covering all four strategies, including a 64-GPU ring.

    Participants are drawn from seeded hosts; sizes are fixed so that the
    number of flows and phases per command is the same for every seed.
    """
    hosts = list(range(HOSTS))
    rng.shuffle(hosts)
    ring64 = [gpu_id(h, k) for h in sorted(hosts[:8]) for k in range(GPUS_PER_HOST)]
    local = hosts[8]
    ps_hosts = sorted(hosts[9:11])
    ps_gpus = [gpu_id(h, k) for h in ps_hosts for k in range(GPUS_PER_HOST)]
    cpu_host = hosts[11]
    cpu_gpus = [gpu_id(hosts[12], k) for k in range(GPUS_PER_HOST)]
    ina_gpus = [gpu_id(h, rng.randrange(GPUS_PER_HOST)) for h in range(HOSTS)]
    pipe_hosts = sorted(rng.sample(range(HOSTS), 4))
    pipe = [gpu_id(h, k) for h in pipe_hosts for k in range(0, GPUS_PER_HOST, 2)]

    def payload(lo: float, hi: float) -> str:
        return repr(round(10.0 ** rng.uniform(lo, hi)))

    return "\n".join([
        "# plan-cluster benchmark levels",
        f"level ring64 strategy=ring_allreduce participants={','.join(ring64)} "
        f"payload={payload(8.5, 9.5)}",
        f"level ring8 strategy=ring_allreduce "
        f"participants={','.join(gpu_id(local, k) for k in range(GPUS_PER_HOST))} "
        f"payload={payload(8.0, 9.0)}",
        f"level ps_nic strategy=parameter_server server=h{ps_hosts[0]:02d}nic1 "
        f"participants={','.join(ps_gpus)} payload={payload(7.0, 8.0)}",
        f"level ps_cpu strategy=parameter_server server=h{cpu_host:02d}cpu0 "
        f"participants={','.join(cpu_gpus)} payload={payload(7.0, 8.0)}",
        f"level ina strategy=in_network_aggregation server=spine{rng.randrange(SPINES)} "
        f"participants={','.join(ina_gpus)} payload={payload(7.0, 8.0)} "
        f"window={rng.choice((4, 8, 16))}",
        f"level pipe strategy=pipeline_p2p participants={','.join(pipe)} "
        f"payload=0 microbatches={rng.choice((4, 8))} "
        f"activation={payload(6.0, 7.5)}",
    ]) + "\n"


# ---------------------------------------------------------------------------
# stagger-switch: transfers through one PCIe upstream


@dataclass(frozen=True)
class SwitchScenario:
    name: str
    flows: tuple          # (id, bytes, release seconds)
    upstream: float       # GB/s
    cap: float | None     # GB/s; None leaves the CLI default (= upstream)

    @property
    def flows_text(self) -> str:
        return "".join(f"flow {fid} bytes={nbytes!r} release={release!r}\n"
                       for fid, nbytes, release in self.flows)

    def argv(self, flows_path: str, events_path: str) -> list:
        argv = ["stagger", "--flows", flows_path, "--upstream", repr(self.upstream)]
        if self.cap is not None:
            argv += ["--cap", repr(self.cap)]
        return argv + ["--events", events_path]


def switch_scenario(rng: random.Random, name: str) -> SwitchScenario:
    """4-16 GPUs behind one upstream: mixed sizes (1 MiB to 1 GiB),
    releases jittered within a few milliseconds, PCIe gen3-gen5 upstreams
    and per-flow caps at or below the upstream."""
    n = rng.randint(4, 16)
    jitter = rng.choice((0.0, 1e-4, 1e-3, 5e-3))
    flows = tuple((f"gpu{i}", round(2.0 ** rng.uniform(20.0, 30.0)),
                   round(rng.uniform(0.0, jitter), 9)) for i in range(n))
    upstream = _jitter(rng, rng.choice((15.75, 31.5, 63.0)), 0.05)
    cap = rng.choice((None, upstream, round(upstream * rng.uniform(0.25, 0.9), 3)))
    return SwitchScenario(name=name, flows=flows, upstream=upstream, cap=cap)


def known_hang_scenario() -> SwitchScenario:
    """Seven flows of 1-7 GB released 1 ms apart on a 16 GB/s upstream.

    `contention.simulate` never returns on this input (float residue above
    its 1e-6-byte retirement threshold stalls simulated time).  It does not
    depend on the seed, so it fails on every round of every run until the
    simulator is fixed, and then becomes an ordinary checked operation.
    """
    flows = tuple((f"f{i}", 1e9 * (1 + i % 7), i * 1e-3) for i in range(7))
    return SwitchScenario(name="known-hang", flows=flows, upstream=16.0, cap=16.0)


# ---------------------------------------------------------------------------
# predict-small: small GPU graphs in the range the GNN is trained on

_AUX_KINDS = ("CpuSocket", "HostMemory", "PcieSwitch", "StorageDevice", "Nic")


def small_topology(rng: random.Random) -> tuple[str, str]:
    """(topology text, single-level text): 2-12 nodes, a ring all-reduce
    over 2-6 GPUs joined by an NVLink ring with random chords, plus
    auxiliary nodes that either hang off one node or bridge two."""
    n_gpu = rng.randint(2, 6)
    n_aux = rng.randint(0, min(6, 12 - n_gpu))
    base = 10.0 ** rng.uniform(0.1, 1.9)

    def bw() -> str:
        return repr(round(min(100.0, max(1.0, base * rng.uniform(0.5, 1.5))), 3))

    def lat() -> str:
        return "" if rng.random() < 0.5 else f" lat={round(rng.uniform(0.1, 2.0), 3)!r}"

    gpus = [f"gpu{i}" for i in range(n_gpu)]
    lines = [f"flag gdr={rng.choice(('true', 'false'))}"]
    lines += [f"node {g} kind=Gpu" for g in gpus]
    links = []
    ring_pairs = {(i, (i + 1) % n_gpu) for i in range(n_gpu)} if n_gpu > 2 else {(0, 1)}
    for i, j in sorted(ring_pairs):
        links.append(f"link {gpus[i]} {gpus[j]} kind=NvLink bw={bw()}{lat()}")
    for i in range(n_gpu):
        for j in range(i + 2, n_gpu):
            if (i, j) != (0, n_gpu - 1) and rng.random() < 0.3:
                links.append(f"link {gpus[i]} {gpus[j]} kind=NvLink bw={bw()}{lat()}")
    ids = list(gpus)
    for k in range(n_aux):
        aux = f"aux{k}"
        lines.append(f"node {aux} kind={rng.choice(_AUX_KINDS)}")
        ends = rng.sample(ids, 2) if len(ids) >= 2 and rng.random() < 0.4 else [rng.choice(ids)]
        for end in ends:
            links.append(f"link {aux} {end} kind=Pcie bw={bw()}{lat()}")
        ids.append(aux)
    payload = repr(round(10.0 ** rng.uniform(7.0, 10.0)))
    level = (f"level ring strategy=ring_allreduce participants={','.join(gpus)} "
             f"payload={payload}\n")
    return "\n".join(lines + links) + "\n", level
