"""Every workload input, generated from the run's seed.

The seed decides the order of ops, which scenario of a class is the
popular one, and the comm-policy / zoo order of sweeps.  It never
changes how much work of each kind a run contains: each workload draws
from a fixed multiset, so runs on different seeds stay comparable while
no two seeds send the program the same sequence.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

# ------------------------------------------------------------- search-zoo

#: (model, dataset, PE budget, slots per rotation), fastest first:
#: shallow (alexnet), deep (resnet50, resnet152), wide-FC (vgg16) and
#: 3-D (cosmoflow) models at small and large budgets, up to resnet152 at
#: p128 (2314 candidates), the projection-bound extreme.  Thirteen
#: inputs whose latencies run in small steps; resnet152 p16 sits in the
#: middle with two of the 14 slots, so the p50 of whole rotations and
#: the median first search both fall inside it, and the p90 falls inside
#: resnet152 p64, far from both neighbours.
SEARCH_INPUTS: Tuple[Tuple[str, str, int, int], ...] = (
    ("cosmoflow", "cosmoflow256", 16, 1),
    ("vgg16", "imagenet", 16, 1),
    ("cosmoflow", "cosmoflow256", 64, 1),
    ("alexnet", "imagenet", 16, 1),
    ("resnet50", "imagenet", 16, 1),
    ("cosmoflow", "cosmoflow256", 128, 1),
    ("resnet152", "imagenet", 16, 2),
    ("vgg16", "imagenet", 32, 1),
    ("alexnet", "imagenet", 64, 1),
    ("resnet152", "imagenet", 32, 1),
    ("vgg16", "imagenet", 64, 1),
    ("resnet152", "imagenet", 64, 1),
    ("resnet152", "imagenet", 128, 1),
)


def search_docs() -> List[Dict[str, object]]:
    """One exhaustive-search scenario per distinct input."""
    return [
        {
            "name": f"{model}-p{pes}",
            "model": {"name": model},
            "cluster": {"pes": pes},
            "training": {"dataset": dataset},
            "search": {"exhaustive": True},
        }
        for model, dataset, pes, _ in SEARCH_INPUTS
    ]


def rotation(seed: int, slots: Sequence[int], cycles: int) -> List[List[int]]:
    """``cycles`` seeded permutations of ``slots`` (input indices)."""
    rng = random.Random(seed)
    out = []
    for _ in range(cycles):
        order = list(slots)
        rng.shuffle(order)
        out.append(order)
    return out


def search_rotation(seed: int, cycles: int = 400) -> List[List[int]]:
    slots = [i for i, entry in enumerate(SEARCH_INPUTS)
             for _ in range(entry[3])]
    return rotation(seed, slots, cycles)


# ------------------------------------------------------------ sweep-cache

#: The zoo one sweep covers, and the two comm policies it crosses.
SWEEP_MODELS = ("alexnet", "resnet50", "vgg16")
SWEEP_POLICIES = ("paper", "auto")
SWEEP_PES = 32


def sweep_docs(seed: int, variants: int = 4) -> List[Dict[str, object]]:
    """Sweep scenarios: the same zoo x policies in seeded orders.

    ``search.exhaustive`` does not reach the sweep runner, so the space
    is the power-of-two PE-budget sweep (``pe_sweep``) over every
    strategy family."""
    rng = random.Random(seed)
    docs = []
    for i in range(variants):
        models = list(SWEEP_MODELS)
        policies = list(SWEEP_POLICIES)
        rng.shuffle(models)
        rng.shuffle(policies)
        docs.append({
            "name": f"zoo-sweep-{i}",
            "model": {"name": models[0]},
            "cluster": {"pes": SWEEP_PES},
            "search": {"pe_sweep": True, "comm_policies": policies},
            "sweep": {"models": models},
        })
    return docs


def sweep_rotation(seed: int, variants: int, cycles: int = 400
                   ) -> List[List[int]]:
    rng = random.Random(seed + 1)
    return [[rng.randrange(variants)] for _ in range(cycles)]


# --------------------------------------------------------- serve-openloop

#: Offered rates of the open-loop ladder (requests per second).  The
#: lowest gives each of the two connections a request every 67 ms, well
#: inside the range where a connection that has fallen into the
#: delayed-ACK stall stays in it (see ``openloop``); at 25 req/s (80 ms
#: apart) a stalled connection sometimes escapes, so the gated
#: latencies would flip between two regimes from run to run.
LADDER = (30, 60, 120, 240, 480)
#: p90 latency limit a rate must meet to count as sustained.
LIMIT_MS = 20.0
#: Verb shares of the mix.  project : suggest : hybrid is 4 : 1 : 1, as
#: in the repository's own model of planning traffic
#: (``repro.serve.loadgen.default_mix``: point projections dominate,
#: with periodic ranking sweeps); searches add the small share the
#: workload calls for.  These are the benchmark's assumption, not
#: recorded traffic.
VERB_SHARES = (("project", 4 * 0.95 / 6), ("suggest", 0.95 / 6),
               ("hybrid", 0.95 / 6), ("search", 0.05))
#: Zipf exponent of the popularity of a verb's operating points: the
#: classic Zipf law (rank k drawn in proportion to 1/k), an assumption.
ZIPF_EXPONENT = 1.0
_SERVE_MODELS = ("resnet50", "vgg16", "alexnet", "resnet152")
#: Operating points per verb: (PE budget, strategy id or None).  Each
#: point is asked about for every model alike, so which points the seed
#: makes popular does not change which models the pool misses on.
_SERVE_POINTS = {
    "project": tuple((pes, sid) for pes in (8, 16, 32, 64, 128)
                     for sid in ("d", "df")),
    "suggest": ((16, None), (64, None)),
    "hybrid": ((16, None), (64, None)),
    "search": ((8, None),),
}


def serve_scenarios() -> List[Tuple[str, Dict[str, object]]]:
    """The distinct ``(verb, document)`` pairs the mix draws from.

    60 of them (40 projects, 8 suggests, 8 hybrids, 4 small searches),
    each its own session (the ``name`` keeps a suggest and a hybrid on
    one budget apart): far more than the server's default session pool
    (32), so a steady share of requests misses the pool and evicts.
    Every one answers 200."""
    out: List[Tuple[str, Dict[str, object]]] = []
    for verb, points in _SERVE_POINTS.items():
        for pes, sid in points:
            for model in _SERVE_MODELS:
                doc: Dict[str, object] = {
                    "model": {"name": model}, "cluster": {"pes": pes}}
                name = f"{verb}-{model}-p{pes}"
                if sid is not None:
                    doc["strategy"] = {"id": sid}
                    name += f"-{sid}"
                if verb == "search":
                    doc["search"] = {"strategies": ["d", "df", "ds"]}
                doc["name"] = name
                out.append((verb, doc))
    return out


def _apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Largest-remainder split of ``total`` by ``weights``."""
    norm = sum(weights)
    exact = [total * w / norm for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(weights)), key=lambda i: exact[i] - counts[i],
                   reverse=True)
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


def serve_schedule(n: int, rng: random.Random,
                   popularity: Dict[str, List[List[int]]]) -> List[int]:
    """``n`` scenario indices: fixed verb shares, a Zipf draw over each
    verb's operating points (popularity order from the seed), the
    models of a point drawn alike, shuffled."""
    out: List[int] = []
    counts = _apportion(n, [share for _, share in VERB_SHARES])
    for (verb, _), count in zip(VERB_SHARES, counts):
        ranked = popularity[verb]
        weights = [1.0 / (k + 1) ** ZIPF_EXPONENT / len(members)
                   for k, members in enumerate(ranked) for _ in members]
        flat = [idx for members in ranked for idx in members]
        for idx, c in zip(flat, _apportion(count, weights)):
            out.extend([idx] * c)
    rng.shuffle(out)
    return out


def serve_popularity(seed: int, scenarios: Sequence[Tuple[str, dict]]
                     ) -> Dict[str, List[List[int]]]:
    """Each verb's operating points, most popular first; a point is the
    list of its scenario indices (one per model)."""
    rng = random.Random(seed)
    popularity: Dict[str, List[List[int]]] = {}
    for verb, _ in VERB_SHARES:
        points: Dict[tuple, List[int]] = {}
        for i, (v, doc) in enumerate(scenarios):
            if v == verb:
                key = (doc["cluster"]["pes"],
                       doc.get("strategy", {}).get("id"))
                points.setdefault(key, []).append(i)
        ranked = list(points.values())
        rng.shuffle(ranked)
        popularity[verb] = ranked
    return popularity
