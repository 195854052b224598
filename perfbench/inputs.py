"""Seeded inputs of the benchmark's workloads.

Every generator takes the benchmark's --seed and returns one round: the
operations a run repeats, in order, as whole rounds. The seed permutes the
order and jitters demands by at most ~3%; the make-up of a round (ratios,
caps, demand curve, fleet sizes) is fixed, so figures stay comparable across
seeds. The program receives only these generated inputs.
"""

from __future__ import annotations

import random

# Table 2's five published ratios (Ex.1-Ex.5) and the PCR master mix.
RATIOS = [
    "26:21:2:2:3:3:199",
    "128:123:5",
    "25:5:5:5:5:13:13:25:1:159",
    "9:17:26:9:195",
    "57:28:6:6:6:3:150",
    "2:1:1:1:1:1:9",
]
CAPS = [4, 8]
# Nine points each, so a round holds 108 requests: its 90th percentile has
# ten beyond it.
STREAM_CURVE = [16, 24, 32, 48, 64, 128, 256, 512, 1000]
OPTIMIZE_SWEEP = [24, 32, 40, 48, 64, 80, 96, 128, 192]
SERVE_DEMANDS = [16, 32, 64, 128]
FLEET_SIZES = [16, 18, 21, 24, 27, 30, 32]  # users per mix; 168 in a deal
# Deals of the user pool in a round: 105 mixes, so the 90th percentile has
# ten beyond it, and the median latency and the mean makespan move less
# with the seed than over 7.
FLEET_DEALS = 15
FLEET_CHIPS = 8
# Chips of `--fleet 8` whose effective mixers host every ratio's default
# Mc, so a pass is in flight on them from cycle 0 (chip 5 has only 2).
FLEET_KILL_CHIPS = [0, 1, 2, 3, 4, 6, 7]
SERVE_RECONNECT_EVERY = 4


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _jitter(rng: random.Random, demand: int) -> int:
    return demand + rng.randrange(max(1, demand // 32))


def alias(ratio: str) -> str:
    """A non-reduced spelling of the same mixture (every part doubled)."""
    return ":".join(str(2 * int(p)) for p in ratio.split(":"))


def plan_requests(workload: str, seed: int) -> list[dict]:
    """stream-curve and optimize-sweep: one request per ratio, cap, demand."""
    curve = STREAM_CURVE if workload == "stream-curve" else OPTIMIZE_SWEEP
    rng = _rng(workload, seed)
    requests = [
        {"ratio": ratio, "demand": _jitter(rng, demand), "cap": cap,
         "optimize": workload == "optimize-sweep"}
        for ratio in RATIOS for cap in CAPS for demand in curve
    ]
    rng.shuffle(requests)
    return requests


def serve_working_set(seed: int) -> list[dict]:
    """serve-hot: the distinct canonical requests warmed before timing."""
    rng = _rng("serve-hot", seed)
    return [
        {"ratio": ratio, "demand": _jitter(rng, demand), "cap": cap,
         "optimize": False}
        for ratio in RATIOS for cap in CAPS for demand in SERVE_DEMANDS
    ]


def serve_line(request: dict, spelling: str) -> str:
    return ('{"op":"plan","ratio":"%s","demand":%d,"storage":%d}'
            % (spelling, request["demand"], request["cap"]))


def serve_round(seed: int, working_set: list[dict]) -> list[tuple[int, str]]:
    """serve-hot: every key once in each spelling, shuffled."""
    rng = _rng("serve-hot/round", seed)
    round_ = [(i, spelling) for i, request in enumerate(working_set)
              for spelling in (request["ratio"], alias(request["ratio"]))]
    rng.shuffle(round_)
    return round_


def fleet_mixes(seed: int) -> list[dict]:
    """fleet-wfq: FLEET_DEALS times, a pool of 168 user streams dealt into
    seven mixes.

    Each mix carries one chip kill at cycle 1-3 on a chip that starts a pass
    at cycle 0, so it lands on an in-flight pass.
    """
    rng = _rng("fleet-wfq", seed)
    mixes = []
    for _ in range(FLEET_DEALS):
        pool = []
        for ratio in RATIOS:
            for j in range(sum(FLEET_SIZES) // len(RATIOS)):
                pool.append({"ratio": ratio,
                             "demand": _jitter(rng, 16 + 4 * j),
                             "cap": 3 + j % 4, "weight": 1 + (5 * j) % 4})
        rng.shuffle(pool)
        sizes = FLEET_SIZES[:]
        rng.shuffle(sizes)
        for size in sizes:
            users, pool = pool[:size], pool[size:]
            kill = "chip=%d,cycle=%d" % (rng.choice(FLEET_KILL_CHIPS),
                                         rng.randint(1, 3))
            mixes.append({"users": users, "kill": kill})
    return mixes


def fleet_users_spec(users: list[dict]) -> str:
    return "|".join("ratio=%s,demand=%d,storage=%d,weight=%d"
                    % (u["ratio"], u["demand"], u["cap"], u["weight"])
                    for u in users)
