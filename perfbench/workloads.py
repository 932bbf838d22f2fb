"""The four workloads: seeded inputs, load generators and the answer oracle.

Every input is derived from the run's ``--seed`` through
:class:`random.Random` instances with string seeds, so the same seed gives
the same networks, arrival schedule and update batches.  The program sees
only the networks; it never sees the seed.

* ``serve-small`` — open loop at a fixed rate through ``AsyncSolveServer``;
* ``serve-large`` — closed loop, 2 clients, large grids, default route;
* ``serve-analog`` — closed loop, 1 client, tight deadlines (analog route);
* ``stream-edit`` — closed loop, 1 client, ``StreamingSession`` pushes.

The oracle solves every distinct input once with the reference
``get_algorithm("dinic")``, never inside a timed window, and checks each
answer against the reference of the network its own request submitted.
"""

from __future__ import annotations

import asyncio
import math
import random
from array import array
from typing import Dict, List, Optional

from repro import FlowNetwork, grid_graph
from repro.flows.registry import get_algorithm
from repro.graph.updates import CapacityUpdate
from repro.resilience.failover import certify_flow_result
from repro.service import AsyncSolveServer, StreamingSession

from hostspeed import SLICE_S
from tracer import clock

SMALL = (8, 12)  # 272 edges
LARGE = (24, 90)  # 6,324 edges
JITTER = 0.5
#: The four small-grid variants: (inner capacity, terminal capacity).
VARIANTS = ((1.0, None), (1.0, 5.0), (2.0, None), (2.0, 12.0))

#: About a quarter of the ≈84 rps the server saturates at on a fast host.
#: The host's speed drifts by up to 1.7x, and overlapping solves contend for
#: the interpreter lock, which amplifies that drift: at 40 rps a slow phase
#: tipped the open loop into queueing collapse (p50 15 ms → 90 ms).
OPEN_RATE_RPS = 20.0
BURST_SHARE = 0.10  # share of arrivals that are bursts of identical requests
LOOSE_DEADLINE_S = 30.0
#: The server's analog routing threshold, which tight requests carry as their
#: deadline.  At the default 0.25 s a host stall or a long garbage collection
#: on a 2-core host pushed some tight requests past it: they answered 504,
#: and the analog circuit breaker then sent later requests the exact route.
ANALOG_DEADLINE_S = 1.0
TENANTS = 4
SERVER_WORKERS = 2
EXACT_RTOL = 1e-9
LARGE_BASES = 3
#: serve-analog: each client re-sends its own pool of networks and sends
#: ``ANALOG_FRESH`` networks not seen before, one every ``ANALOG_FRESH_EVERY``
#: requests, as the cache misses.  Every cached compiled circuit holds about
#: 1.3 MB and 2.5k tracked objects, and a full 128-entry cache makes garbage
#: collection pauses of about 200 ms; the pool and misses fill 24 entries.
ANALOG_POOL = 8
ANALOG_FRESH = 16
ANALOG_FRESH_EVERY = 16
STREAM_TOUCH = 0.01  # share of edges one update batch touches
STREAM_REVERSION = 0.2  # share of an edge's log-drift one edit takes back
STREAM_CHECKS = 2  # seeded revisions cross-checked against a cold solve
#: Timed pushes per episode; between episodes an untimed push restores the
#: base capacities.  One trajectory of compounding edits ran into phases
#: of costly pushes that lasted for thousands of pushes, and which phase a
#: run reached depended on its seed: over three runs each, one seed
#: averaged 95 pushes/s and another 80.
STREAM_EPISODE = 200
#: Episodes in the pool a run cycles through.  The pool is the same for
#: every seed and the seed draws the order of each cycle, so a run's work
#: differs from another seed's only in the cycle it ends in.
STREAM_POOL = 4

#: Requests (or pushes) per second each workload completed on a 2-core host
#: in a slow period; fixes which tail percentile the run length supports.
SLOW_RATE = {
    "serve-small": OPEN_RATE_RPS * (1 + BURST_SHARE * 1.5),
    "serve-large": 2.9,
    "serve-analog": 40.0,
    "stream-edit": 62.0,
}
#: Requests per second the closed-loop inputs are built for, above the
#: fastest rate measured; a faster program runs out of inputs and ends the
#: window early, which the reported rate accounts for.
FAST_RATE = {"serve-large": 8.0, "serve-analog": 250.0}
#: Closed-loop clients.  serve-analog has one: with two, its latency spread
#: from run to run was about twice as wide (two concurrent analog solves
#: contend for the interpreter lock), and serve-large already measures how
#: well two workers overlap.
CLIENTS = {"serve-large": 2, "serve-analog": 1}


def rng_for(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def small_key(rng: random.Random) -> tuple:
    """The oracle key of a seeded small grid: ``("small", variant, draw)``."""
    return ("small", rng.randrange(len(VARIANTS)), rng.getrandbits(32))


def small_grid(variant: int, draw: int) -> FlowNetwork:
    capacity, terminal = VARIANTS[variant]
    return grid_graph(
        *SMALL, capacity=capacity, terminal_capacity=terminal,
        seed=draw, capacity_jitter=JITTER,
    )


def scaled(network: FlowNetwork, factor: float) -> FlowNetwork:
    """``network`` with every capacity times ``factor``: max flow scales too."""
    out = FlowNetwork(network.source, network.sink)
    for vertex in network.vertices():
        out.add_vertex(vertex)
    for edge in network.edges():
        out.add_edge(edge.tail, edge.head, edge.capacity * factor)
    return out


def reference_value(network: FlowNetwork) -> float:
    return get_algorithm("dinic").solve(network).flow_value


class Request:
    """One submit: its input, its oracle key and what came back.

    Only the parts of the response the oracle and the ledger read are
    kept, and an untraced run drops the network once answered: objects
    the benchmark retains would lengthen the program's garbage-collection
    pauses and so its latency tail.
    """

    __slots__ = (
        "network", "key", "tenant", "priority", "tight", "due", "sent", "done",
        "status", "coalesced", "queued_s", "value", "ran", "flows", "detail", "root",
    )

    def __init__(self, network, key, tenant="tenant-0", priority=0,
                 tight=False) -> None:
        self.network = network
        self.key = key
        self.tenant = tenant
        self.priority = priority
        #: Tight requests carry the server's analog routing deadline.
        self.tight = tight
        self.due = self.sent = self.done = self.queued_s = 0.0
        self.status = 0
        self.coalesced = False
        self.value = self.ran = self.flows = self.root = None
        self.detail = ""

    @property
    def latency(self) -> float:
        return self.done - self.due


class Oracle:
    """Reference values by input key, computed once each, outside timing.

    A key names its input's content: ``("small", variant, draw)`` is
    :func:`small_grid`, ``("large", base)`` a large base grid and
    ``("large", base, factor)`` that base scaled by ``factor``, whose
    reference is ``factor`` times the base's.
    """

    def __init__(self) -> None:
        self.values: Dict[tuple, float] = {}
        #: Small grids rebuilt for certifying analog answers, once per key.
        self.networks: Dict[tuple, FlowNetwork] = {}

    def add(self, key: tuple, network: FlowNetwork) -> None:
        if key not in self.values:
            self.values[key] = reference_value(network)

    def reference(self, key: tuple) -> float:
        if key[0] == "large":
            return self.values[key[:2]] * key[2]
        return self.values[key]

    def check(self, request: Request) -> Optional[float]:
        """Raise ``AssertionError`` on a wrong 200 answer; analog rel. error."""
        ref = self.reference(request.key)
        if request.ran == "analog":
            network = self.networks.get(request.key)
            if network is None:
                network = self.networks[request.key] = small_grid(*request.key[1:])
            try:
                certify_flow_result(
                    network, request.value, dict(zip(*request.flows)), exact=False
                )
            except Exception as exc:  # noqa: BLE001 - any rejection is a wrong answer
                raise AssertionError(f"analog answer fails certification: {exc}")
            return abs(request.value - ref) / ref
        if abs(request.value - ref) > EXACT_RTOL * max(1.0, abs(ref)):
            raise AssertionError(
                f"served {request.value!r}, reference {ref!r} ({request.key})"
            )
        return None


# -- serving ---------------------------------------------------------------


async def submit(server: AsyncSolveServer, request: Request, tracer=None) -> None:
    request.sent = clock()
    if tracer is not None:
        request.root = tracer.begin(request.network, tenant=request.tenant)
    deadline = server.analog_deadline_s if request.tight else LOOSE_DEADLINE_S
    response = await server.submit(
        request.network, tenant=request.tenant, priority=request.priority,
        deadline_s=deadline,
    )
    request.done = clock()
    request.status = response.status
    request.coalesced = response.coalesced
    request.queued_s = response.queued_s
    request.detail = response.detail
    result = response.result
    if result is not None and result.ok:
        request.value = result.flow_value
        request.ran = result.request.backend
        if request.ran == "analog":
            # Kept as untracked arrays: thousands of retained dicts would
            # lengthen the program's garbage-collection pauses as a run goes.
            flows = result.edge_flows
            request.flows = (array("q", flows), array("d", flows.values()))
    if request.root is not None:
        request.root.end = request.done
    else:
        request.network = None


async def start_server(warm: List[Request]) -> AsyncSolveServer:
    """A default server, warmed with the workload's route until caches fill."""
    server = AsyncSolveServer(workers=SERVER_WORKERS,
                              analog_deadline_s=ANALOG_DEADLINE_S)
    server.start()
    for wave in (warm[:SERVER_WORKERS], warm[SERVER_WORKERS:]):
        await asyncio.gather(*(submit(server, r) for r in wave))
    return server


def warm_requests(workload: str) -> List[Request]:
    """Inputs outside every measured set: both workers, then a repeat."""
    rng = rng_for("warm-up", workload)
    if workload == "serve-large":
        base = grid_graph(*LARGE, seed=rng.getrandbits(32), capacity_jitter=JITTER)
        return [Request(scaled(base, f), None) for f in (1.0, 0.75)]
    first = small_grid(0, rng.getrandbits(32))
    nets = [first, small_grid(1, rng.getrandbits(32)), first.snapshot()]
    return [Request(n, None, tight=workload == "serve-analog") for n in nets]


class OpenLoop:
    """``serve-small``: seeded Poisson arrivals at a fixed rate.

    Conditioned on its count, a Poisson process places its arrivals as
    sorted uniform draws, so the run sends exactly ``rate * seconds``
    arrivals and only their timing is random.  A fixed share of arrivals
    are bursts of identical requests due at the same instant (distinct
    objects, identical content), so the schedule fixes the coalesced share.
    """

    def __init__(self, seed: int, seconds: float) -> None:
        rng = rng_for("serve-small", seed)
        count = max(1, round(OPEN_RATE_RPS * seconds))
        offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        bursts = set(rng.sample(range(count), round(BURST_SHARE * count)))
        self.arrivals: List[tuple] = []
        for i, offset in enumerate(offsets):
            variant, draw = rng.randrange(len(VARIANTS)), rng.getrandbits(32)
            network = small_grid(variant, draw)
            copies = rng.randint(2, 3) if i in bursts else 1
            group = []
            for c in range(copies):
                group.append(Request(
                    network if c == 0 else network.snapshot(),
                    ("small", variant, draw),
                    tenant=f"tenant-{rng.randrange(TENANTS)}",
                    priority=rng.choice((0, 0, 1, 2)),
                ))
            self.arrivals.append((offset, group))
        self.requests = [r for _, group in self.arrivals for r in group]

    def prepare(self, oracle: Oracle) -> None:
        for request in self.requests:
            oracle.add(request.key, request.network)

    async def prime(self, server) -> None:
        """Nothing to prime: the set-up warm-up covers the exact route."""

    async def drive(self, server, meter, tracer=None) -> List[Request]:
        """Send on schedule; the host is sampled only before and after."""
        tasks = []
        meter.sample()
        start = clock() + 0.02
        for offset, group in self.arrivals:
            due = start + offset
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            for request in group:
                request.due = due
                tasks.append(asyncio.ensure_future(submit(server, request, tracer)))
        await asyncio.gather(*tasks)
        meter.sample()
        return self.requests


class ClosedLoop:
    """``serve-large`` / ``serve-analog``: clients that wait for each reply.

    Every client's inputs are built in :meth:`prepare`, before the timed
    window, so the window only hands them out.  A client stops sending once
    ``seconds`` have passed or its inputs run out; replies still in flight
    are awaited and counted.
    """

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.clients = CLIENTS[workload]
        self.per_client = math.ceil(FAST_RATE[workload] * seconds / self.clients)
        self.inputs: List[List[Request]] = []
        self.primers: List[List[Request]] = []

    def prepare(self, oracle: Oracle) -> None:
        if self.workload == "serve-large":
            # The bases are the same for every seed, so the solver's work per
            # request does not vary with it; the seed draws the base order
            # and the capacity scale of every request.
            rng = rng_for(self.workload, "bases")
            bases = []
            for b in range(LARGE_BASES):
                bases.append(
                    grid_graph(*LARGE, seed=rng.getrandbits(32), capacity_jitter=JITTER)
                )
                oracle.add(("large", b), bases[b])
            for c in range(self.clients):
                rng = rng_for(self.workload, self.seed, "client", c)
                sent = []
                for _ in range(self.per_client):
                    # Fresh capacities every request: coalescing and every
                    # cache keyed on content are bypassed; the reference
                    # scales exactly.
                    b, factor = rng.randrange(LARGE_BASES), rng.uniform(0.5, 2.0)
                    sent.append(Request(scaled(bases[b], factor), ("large", b, factor)))
                self.inputs.append(sent)
            return

        for c in range(self.clients):
            # Each client re-sends its own pool, compiled into the cache by
            # :meth:`prime`; its previous request has been answered by then,
            # so a re-send is a compiled-circuit cache hit, never a coalesced
            # request.  The pools are the same for every seed, and each run
            # of ANALOG_POOL re-sends covers its pool once, so the work per
            # request does not depend on the seed.  The seed draws the order
            # and the fresh networks: a fixed number of misses, so the cache
            # holds as many entries however many requests a run completes.
            pool = [small_key(rng_for(self.workload, "pool", c, i))
                    for i in range(ANALOG_POOL)]
            rng = rng_for(self.workload, self.seed, "client", c)
            keys: List[tuple] = []
            resend: List[tuple] = []
            for i in range(self.per_client):
                if (i % ANALOG_FRESH_EVERY == ANALOG_FRESH_EVERY - 1
                        and i < ANALOG_FRESH * ANALOG_FRESH_EVERY):
                    keys.append(small_key(rng))
                    continue
                if not resend:
                    resend = rng.sample(pool, ANALOG_POOL)
                keys.append(resend.pop())
            networks = {k: small_grid(*k[1:]) for k in dict.fromkeys(pool + keys)}
            for key, network in networks.items():
                oracle.add(key, network)
            tenant = f"tenant-{c}"
            self.primers.append(
                [Request(networks[key], key, tenant, tight=True) for key in pool]
            )
            self.inputs.append(
                [Request(networks[key], key, tenant, tight=True) for key in keys]
            )

    async def prime(self, server) -> None:
        """Send each client's pool once, outside the window (serve-analog)."""
        async def client(requests: List[Request]) -> None:
            for request in requests:
                await submit(server, request)

        await asyncio.gather(*(client(p) for p in self.primers))

    async def drive(self, server, meter, tracer=None) -> List[Request]:
        """Hand out inputs until ``seconds`` pass; sample the host between."""
        meter.sample()
        pauses = Pauses(meter, self.clients, SLICE_S[self.workload])
        end = clock() + self.seconds

        async def client(inputs: List[Request]) -> List[Request]:
            sent = []
            try:
                for request in inputs:
                    await pauses.wait()
                    if clock() >= end:
                        break
                    request.due = clock()
                    await submit(server, request, tracer)
                    sent.append(request)
            finally:
                pauses.leave()
            return sent

        per_client = await asyncio.gather(*(client(i) for i in self.inputs))
        meter.sample()
        return [r for sent in per_client for r in sent]


class Pauses:
    """Quiescent points for host-speed samples in a closed loop.

    Once ``slice_s`` has passed, each client stops before its next send;
    when every client still sending has stopped, no request is in flight,
    the meter samples, and all resume.  No request's latency contains a
    sample.  With two clients, the first to stop idles until the other's
    reply arrives, ≈0.2 s of a worker every 1 s on serve-large.
    """

    def __init__(self, meter, clients: int, slice_s: float) -> None:
        self.meter = meter
        self.active = clients
        self.stopped = 0
        self.slice_s = slice_s
        self.cut = clock() + slice_s
        self.resume = asyncio.Event()

    async def wait(self) -> None:
        if clock() < self.cut:
            return
        self.stopped += 1
        resume = self.resume
        if self.stopped == self.active:
            self._sample()
        else:
            await resume.wait()

    def leave(self) -> None:
        self.active -= 1
        if self.stopped and self.stopped == self.active:
            self._sample()

    def _sample(self) -> None:
        self.meter.sample()
        self.stopped = 0
        self.cut = clock() + self.slice_s
        self.resume.set()
        self.resume = asyncio.Event()


def serve_workload(workload: str, seed: int, seconds: float):
    if workload == "serve-small":
        return OpenLoop(seed, seconds)
    return ClosedLoop(workload, seed, seconds)


# -- streaming ---------------------------------------------------------------


def stream_base() -> FlowNetwork:
    """The streamed grid, the same for every seed (the seed draws the edits)."""
    return grid_graph(*LARGE, seed=rng_for("stream-edit", "base").getrandbits(32),
                      capacity_jitter=JITTER)


def open_session(base: FlowNetwork) -> StreamingSession:
    """Session construction plus one warm-up push (lazy state filled)."""
    session = StreamingSession(base, backend="dinic")
    session.push([CapacityUpdate(0, base.edge(0).capacity * 1.01)])
    return session


def stream_episode(index: int, base: List[float]) -> tuple:
    """Pool episode ``index``: its update batches and the capacities after.

    Each edit scales the current capacity, so edits compound, with a pull
    back towards the base grid that keeps the cost of a push stationary
    over an episode.
    """
    rng = rng_for("stream-edit", "episode", index)
    capacities = list(base)
    touch = max(1, round(STREAM_TOUCH * len(capacities)))
    batches = []
    for _ in range(STREAM_EPISODE):
        batch = []
        for edge in rng.sample(range(len(capacities)), touch):
            drift = math.log(capacities[edge] / base[edge])
            capacities[edge] *= math.exp(rng.uniform(-0.25, 0.25) - STREAM_REVERSION * drift)
            batch.append(CapacityUpdate(edge, capacities[edge]))
        batches.append(batch)
    return batches, capacities


class StreamEdit:
    """``stream-edit``: compounding capacity batches on one large grid.

    A run plays the ``STREAM_POOL`` episodes in a seeded order, then again
    in a new order, until ``seconds`` of pushing have passed.  Before each
    episode but the first an untimed push restores the base capacities,
    and the episode's batches are built, also untimed.
    """

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        expected = int(SLOW_RATE["stream-edit"] * seconds)
        checks = rng_for("stream-edit", seed, "checks")
        self.check_at = set(
            checks.sample(range(5, max(6 + STREAM_CHECKS, expected // 2)), STREAM_CHECKS)
        )

    def run(self, session: StreamingSession, meter, tracer=None) -> dict:
        """Push until ``seconds`` of pushing; sample the host between pushes."""
        order = rng_for("stream-edit", self.seed, "order")
        base = [e.capacity for e in session.network.edges()]
        capacities = base
        cycle: List[int] = []
        batches: List[list] = []
        pushes: List[tuple] = []  # (push start, push end)
        warm = errors = wrong = checked = 0
        active = 0.0
        meter.sample()
        cut = clock() + SLICE_S["stream-edit"]
        while active < self.seconds:
            if clock() >= cut:
                meter.sample()
                cut = clock() + SLICE_S["stream-edit"]
            if not batches:
                restore = [CapacityUpdate(i, b) for i, (c, b) in
                           enumerate(zip(capacities, base)) if c != b]
                if restore:
                    session.push(restore)
                if not cycle:
                    cycle = order.sample(range(STREAM_POOL), STREAM_POOL)
                batches, capacities = stream_episode(cycle.pop(), base)
                batches.reverse()
            batch = batches.pop()
            root = None
            if tracer is not None:
                root = tracer.begin(None, revision=session.revision + 1)
                tracer.enter(root)
            start = clock()
            try:
                delta = session.push(batch)
            except Exception:  # noqa: BLE001 - a failed push is counted, not fatal
                errors += 1
                delta = None
            finally:
                stop = clock()
                if root is not None:
                    tracer.leave()
                    root.end = stop
            pushes.append((start, stop))
            active += stop - start
            if delta is not None and delta.warm:
                warm += 1
            if session.revision in self.check_at:
                checked += 1
                wrong += not self._agrees(session)
        meter.sample()
        checked += 1
        wrong += not self._agrees(session)
        return {
            "pushes": pushes, "wall": active, "warm": warm,
            "errors": errors, "wrong": wrong, "checked": checked,
        }

    @staticmethod
    def _agrees(session: StreamingSession) -> bool:
        ref = reference_value(session.snapshot())
        return abs(session.flow_value - ref) <= EXACT_RTOL * max(1.0, abs(ref))
