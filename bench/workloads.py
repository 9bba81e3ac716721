"""Benchmark workloads: generated model text, CLI flags and the outcome
recorded for each.

The program under test sees only the `.rtabs` text written here and the
flags of `rtabs run`.  Every workload is exact and deterministic, so
each one has a recorded outcome (the summary line `rtabs run` prints
and the sha256 of its CSV trace) that every timed run must reproduce.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass(frozen=True)
class Client:
    job: str
    cycles: int
    period: int
    cost: int
    deadline: int


def media_model(clients: list[Client]) -> str:
    """The `models/media_server_sjf.rtabs` family: one `sjf` server,
    periodic clients that each send `cycles` requests with a deadline
    and await the replies."""
    lines = [
        f"// Generated media-server workload: {len(clients)} clients.",
        "",
        "interface Server { Bool request(String job, Rat bc, Rat wc); }",
        "",
        "data Log = Log(String job, Time completiontime, Duration jobdeadline);",
        "",
        "[Scheduler: sjf(queue)]",
        "class ServerImp implements Server {",
        "  List<Log> history = Nil;",
        "",
        "  [Cost: Duration(wc)]",
        "  Bool request(String job, Rat bc, Rat wc) {",
        "    duration(bc, wc);",
        "    history = Cons(Log(job, now, deadline), history);",
        "    return (durationValue(deadline) > 0);",
        "  }",
        "}",
        "",
        "interface Client { }",
        "",
        "class ClientImp(String job, Int cycles, Int frequency, Duration bc,",
        "                Duration wc, Duration limit, Server s) implements Client {",
        "  Int replies = 0;",
        "  Int successes = 0;",
        "",
        "  Unit run() {",
        "    await duration(frequency, frequency);",
        "    [Deadline: limit] Fut<Bool> res = s!request(job, "
        "durationValue(bc), durationValue(wc));",
        "    cycles = cycles - 1;",
        "    if (cycles > 0) { this!run(); }",
        "    await res?;",
        "    replies = replies + 1;",
        "    Bool result = res.get;",
        "    if (result) { successes = successes + 1; }",
        "  }",
        "}",
        "",
        "{",
        "  Server s = new ServerImp();",
    ]
    for i, c in enumerate(clients, start=1):
        lines.append(
            f'  Client c{i} = new ClientImp("{c.job}", {c.cycles}, {c.period}, '
            f"Duration({c.cost}), Duration({c.cost}), Duration({c.deadline}), s);")
    lines.append("}")
    return "\n".join(lines) + "\n"


def media_clients(photos: int, videos: int, cycles: int,
                  photo_period, video_period) -> list[Client]:
    """Photo jobs cost 2 with deadline 40, video jobs cost 15 with
    deadline 80; `*_period(i)` gives client i's period, i from 0."""
    return ([Client("Photo", cycles, photo_period(i), 2, 40)
             for i in range(photos)]
            + [Client("Video", cycles, video_period(i), 15, 80)
               for i in range(videos)])


def monitor_model(waiters: int, rounds: int, boss_period: int) -> str:
    """`MonitorImp` from `models/monitor_general.rtabs` under the default
    policy.  Waiter i sleeps a sampled duration in [0, 11 + 2i], then
    blocks on the monitor; it re-arms itself for `rounds` rounds.  A
    boss wakes every delayed waiter once per `boss_period`."""
    lines = [
        f"// Generated monitor workload: {waiters} waiters, {rounds} rounds.",
        "",
        "interface Monitor {",
        "  Unit wait();",
        "  Unit signal();",
        "  Unit signalAll();",
        "}",
        "",
        "class MonitorImp() implements Monitor {",
        "  Int s = 1;",
        "  Int d = 0;",
        "  Int q = 0;",
        "",
        "  Unit wait() {",
        "    Int myturn = d + 1;",
        "    d = d + 1;",
        "    await (s > 0 && q + 1 == myturn);",
        "    s = s - 1;",
        "    q = q + 1;",
        "  }",
        "",
        "  Unit signal() {",
        "    if (d > q) { s = s + 1; }",
        "  }",
        "",
        "  Unit signalAll() {",
        "    s = d - q;",
        "  }",
        "}",
        "",
        "interface Waiter { Unit go(Int jitter, Int rounds); }",
        "",
        "class WaiterImp(Monitor m) implements Waiter {",
        "  Unit go(Int jitter, Int rounds) {",
        "    await duration(0, jitter);",
        "    Fut<Unit> f = m!wait();",
        "    await f?;",
        "    if (rounds > 1) { this!go(jitter, rounds - 1); }",
        "  }",
        "}",
        "",
        "interface Boss { Unit go(Int rounds); }",
        "",
        "class BossImp(Monitor m) implements Boss {",
        "  Unit go(Int rounds) {",
        f"    await duration({boss_period}, {boss_period});",
        "    m!signalAll();",
        "    if (rounds > 1) { this!go(rounds - 1); }",
        "  }",
        "}",
        "",
        "{",
        "  Monitor m = new MonitorImp();",
        "  // consume the initial signal so all later waiters delay",
        "  Fut<Unit> primer = m!wait();",
        "  await primer?;",
    ]
    for i in range(waiters):
        lines.append(f"  Waiter w{i + 1} = new WaiterImp(m);")
        lines.append(f"  w{i + 1}!go({11 + 2 * i}, {rounds});")
    lines += [
        "  Boss b = new BossImp(m);",
        f"  b!go({rounds});",
        "}",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    source: str
    until: int
    run_flags: tuple[str, ...]
    # the recorded outcome of `rtabs run`
    clock: int
    completed: int
    misses: int
    trace_sha256: str

    @property
    def summary(self) -> str:
        """The line `rtabs run` prints on stderr."""
        return (f"finished: clock {self.clock}, {self.completed} process(es) "
                f"completed, {self.misses} deadline miss(es)")

    def run_args(self, model: str, trace: str) -> list[str]:
        return ["run", model, "--until", str(self.until), "--trace", trace,
                *self.run_flags]


def media_overload() -> Workload:
    clients = media_clients(7, 3, 50, lambda i: 15, lambda i: 40)
    return Workload(
        "media-overload", media_model(clients), 4000,
        ("--duration-policy", "worst"), 2966, 1012, 149,
        "c4e08169299db454f345159d5ac7c4a9d5bb94240310d48b6b1c8668049fd7dc")


def media_fanout() -> Workload:
    clients = media_clients(48, 12, 12, lambda i: 150 + 7 * i,
                            lambda i: 900 + 7 * i)
    return Workload(
        "media-fanout", media_model(clients), 12000,
        ("--duration-policy", "worst"), 11739, 1502, 12,
        "aa0bfd99b8ce3ff275893a800aba337aff5071403b36190b35a7ead6efabeb4e")


# trace sha256 of monitor-uniform for each duration seed it uses; the
# clock and counts are the same for every seed
MONITOR_TRACE_SHA256 = {
    0: "5daf2302a9ba0ac944f991515fbb7c9fbcdf1e7c4f7ac314e1ee62de35ea3128",
    1: "dfd19f8140e7ad2c059238be1f11eb09fbc3ac59a50957cc1de8843f42d46c13",
    2: "e1d6b31a23c3be575d77d0af3d49a076cb5656ccd94b6f8456c8d475e244b692",
    3: "14c3d56de312a0fad3abc01d334024e6ce312c1af1c1fce59ff0e213cd51bfa0",
    4: "d82d42f36bcfdc52737ca3ef362ca477cb569adf21e3ce4bb6f24b5c10987f86",
    5: "d5a399dacba6bc3873e593c874e7cffb7de897650a0c5f4c1a72f7f5c2be001d",
    6: "01beb8b0dfea41ccc220af60ab055f8e03f7c1098173a655ff953de425689450",
    7: "eb9a17a08c7d59b76d8d186ca38cf018eae2fdd938c823fe35c67fd15c791b6a",
    8: "997d718d8dcde8303c31954f80840f6b704c792a7f96f79cb80f11642e0ac376",
    9: "aaf26dc659473d807394c4ced3907c8d1d3eae9c2287eecb46f210d2f4a267c9",
    10: "d356f5d931b683008eeb449911b0f11e56abed13b25055a25b837e6f9f146c94",
    11: "e7e727d0795782c3cd387d2df773a439f05ca09efc9f866954a3da66d6322ad3",
    12: "14c030a63537a8677a0898ee2b153663a264ab8c53e5b03786e983311f7dc901",
    13: "fb59372a30ff9cccf39e611f322532c584451231505de4dfe49e0cbe50d1b1cc",
    14: "d3f6d6e41b5edf958e3b70ad7479c28afce8c1fb1265aacfa0573e8325c6b627",
    15: "c0bb758b737c02527cb813f690ddb84010d0c55c0d1735c617370942010eb6e9",
}


def monitor_uniform(seed: int) -> Workload:
    duration_seed = seed % len(MONITOR_TRACE_SHA256)
    return Workload(
        "monitor-uniform", monitor_model(40, 20, 100), 2100,
        ("--duration-policy", "uniform", "--seed", str(duration_seed)),
        2000, 1643, 0, MONITOR_TRACE_SHA256[duration_seed])


# The media workloads use no randomness: the same model text and flags
# serve every benchmark seed.  For monitor-uniform the benchmark seed
# picks one of the recorded seeds of the uniform duration policy.
WORKLOADS = {
    "media-overload": lambda seed: media_overload(),
    "media-fanout": lambda seed: media_fanout(),
    "monitor-uniform": monitor_uniform,
}


def make(name: str, seed: int) -> Workload:
    """The workload `name` for benchmark seed `seed`."""
    return WORKLOADS[name](seed)
