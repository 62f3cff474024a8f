"""Pure helpers of the ntvsim benchmark: metric catalogue, percentile
choice, span accounting and the service request-plan generator.

Nothing here starts a process or touches the file system, so the
self-tests (test_benchlib.py) exercise it directly.
"""
import bisect
import json
import random
import re
from collections import defaultdict

# ----------------------------------------------------------- metric catalogue

WORKLOADS = ("tables_cold", "service_mix", "hw_sim")

# End-to-end metrics: name -> (unit, better, bound). Every workload
# prints all of them. job_s is the wall time of the workload's unit job
# (README.md); the path-specific figures (service percentiles, SPICE
# samples/s, ...) are logged beside the result, and failed operations
# are reported through the result's "attempted"/"failed" counts.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "job_s": ("s", "lower", 0.25),
}

# Span name -> self-time metric. A span whose name is not listed here
# counts toward unattributed_s. Wait spans are charged only while no
# working span is open anywhere (see layer_self_times).
SPAN_LAYERS = {
    "device.build": "device.build_s",
    "stats.fill": "stats.fill_s",
    "arch.curves": "arch.curves_s",
    "arch.sample_lanes": "arch.sample_lanes_s",
    "core.search": "core.search_s",
    "core.mc_eval": "core.mc_eval_s",
    "ssta.analytic": "ssta.analytic_s",
    "energy.sweep": "energy.sweep_s",
    "service.request": "service.request_s",
    "service.parse": "service.parse_s",
    "service.cache": "service.cache_s",
    "service.wait": "service.wait_s",
    "service.serialize": "service.serialize_s",
    "circuit.transient": "circuit.transient_s",
    "soda.prepare": "soda.prepare_s",
    "soda.fabric": "soda.fabric_s",
    "soda.verify": "soda.verify_s",
}
WAIT_SPANS = frozenset({"service.wait"})

# The additive set: these sum to the traced wall time. Time with no
# span open (ntvbench bookkeeping, process start-up) is unattributed.
SELF_TIME_METRICS = tuple(sorted(set(SPAN_LAYERS.values()))) + (
    "unattributed_s",)

# Per-layer metrics derived from counters and per-request records:
# name -> unit.
DERIVED = {
    "harness.overhead_s": "s",
    "device.builds": "count",
    "device.hit_ratio": "ratio",
    "stats.fill_ns_per_lane": "ns",
    "stats.quantile_scan_ratio": "ratio",
    "core.margin_probes": "count",
    "exec.busy_s": "s",
    "exec.utilization": "ratio",
    "exec.steals": "count",
    "ssta.analytic_us": "us",
    "service.parse_us": "us",
    "service.eval_interactive_us": "us",
    "service.eval_batch_ms": "ms",
    "service.wait_ms": "ms",
    "service.wait_interactive_p99_ms": "ms",
    "service.wire_us": "us",
    "service.hit_ratio": "ratio",
    "service.computed": "count",
    "service.coalesced_joins": "count",
    "service.evictions": "count",
    "circuit.newton_iters": "count",
    "circuit.ns_per_newton_iter": "ns",
    "circuit.assemble_share": "ratio",
    "soda.events": "count",
    "soda.ns_per_event": "ns",
    "soda.stall_cycles": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%",
    "trace.replay_gap_pct": "%",
}

PER_LAYER = {name: "s" for name in SELF_TIME_METRICS}
PER_LAYER.update(DERIVED)
# Per-layer metrics where more is better; every other one is lower-better.
HIGHER_IS_BETTER = frozenset({"device.hit_ratio", "exec.utilization",
                              "service.hit_ratio", "service.coalesced_joins"})

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_names(names_units):
    """Returns the (name, unit) pairs that break the naming rules."""
    return [(n, u) for n, u in names_units
            if not _NAME.match(n) or not _UNIT.match(u)]


# ------------------------------------------------------------- percentiles

def percentile(values, p):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[nearest_rank(p, len(ordered)) - 1]


def nearest_rank(p, n):
    """1-based nearest rank of percentile p (to 0.1) among n samples,
    in integer arithmetic so 95 % of 200 is exactly rank 190."""
    return min(n, max(1, -(-round(p * 10) * n // 1000)))


def supported_percentile(n, wanted, min_beyond=10):
    """Highest percentile <= `wanted` that leaves at least `min_beyond`
    of `n` samples above it (nearest rank), in steps of 0.1; None when
    not even the median qualifies."""
    for tenths in range(round(wanted * 10), 499, -1):
        if n - nearest_rank(tenths / 10, n) >= min_beyond:
            return tenths / 10
    return None


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


# ---------------------------------------------------------- span accounting

def layer_self_times(spans, t0, t1):
    """Splits the wall interval [t0, t1] among spans.

    `spans` are (name, start, end, tid) tuples; spans of one tid nest.
    At every instant each thread's innermost open span is its leaf; the
    instant is shared evenly by the leaves doing work, or, when every
    open leaf is a wait span (a caller blocked on work elsewhere), by
    those. Time with no open span is the root's. Returns
    ({name: seconds}, root_seconds); the values sum to t1 - t0.
    """
    events = []
    for i, (_, start, end, _) in enumerate(spans):
        start = min(max(start, t0), t1)
        end = min(max(end, t0), t1)
        if end <= start:
            continue  # Holds no time inside the window.
        events.append((start, 1, i))
        events.append((end, 0, i))
    events.sort()
    open_by_tid = defaultdict(list)
    self_time = defaultdict(float)
    root = 0.0

    def charge(a, b):
        nonlocal root
        dt = b - a
        leaves = []
        for members in open_by_tid.values():
            if members:
                leaves.append(max(members,
                                  key=lambda j: (spans[j][1], -spans[j][2])))
        working = [j for j in leaves if spans[j][0] not in WAIT_SPANS]
        chosen = working or leaves
        if not chosen:
            root += dt
            return
        for j in chosen:
            self_time[spans[j][0]] += dt / len(chosen)

    prev = t0
    for time, kind, i in events:
        if time > prev:
            charge(prev, time)
            prev = time
        tid = spans[i][3]
        if kind:
            open_by_tid[tid].append(i)
        else:
            open_by_tid[tid].remove(i)
    if t1 > prev:
        charge(prev, t1)
    return dict(self_time), root


def self_time_metrics(spans, t0, t1):
    """Per-layer self-time metrics (seconds) for one traced run; their
    sum equals (t1 - t0) / 1e9 for nanosecond inputs."""
    by_name, root = layer_self_times(spans, t0, t1)
    out = {name: 0.0 for name in SELF_TIME_METRICS}
    out["unattributed_s"] += root / 1e9
    for name, ns in by_name.items():
        out[SPAN_LAYERS.get(name, "unattributed_s")] += ns / 1e9
    return out


def load_trace_spans(trace, offset_ns=0, tid_prefix=""):
    """(name, start_ns, end_ns, tid) tuples from a Chrome trace-event
    document written by ntvbench."""
    spans = []
    for ev in trace.get("traceEvents", []):
        start = ev["ts"] * 1e3 + offset_ns
        spans.append((ev["name"], start, start + ev["dur"] * 1e3,
                      f"{tid_prefix}{ev['tid']}"))
    return spans


def trace_document(spans):
    """Chrome trace-event document of (name, start_ns, end_ns, tid)
    spans, the inverse of load_trace_spans up to tid numbering."""
    tids = {}
    events = [{"name": name, "ph": "X", "pid": 1,
               "tid": tids.setdefault(tid, len(tids)),
               "ts": start / 1e3, "dur": (end - start) / 1e3}
              for name, start, end, tid in spans]
    return {"traceEvents": events}


# -------------------------------------------------------- accounting checks

# unattributed_s may hold at most this share of the traced wall; more
# means work ran outside every span, i.e. spans went missing.
MAX_UNATTRIBUTED_SHARE = 0.10

# Self-time layers each workload's traced twin must show working.
EXPECTED_LAYERS = {
    "tables_cold": ("device.build_s", "stats.fill_s", "arch.curves_s",
                    "core.search_s"),
    "service_mix": ("service.request_s", "service.parse_s", "service.cache_s",
                    "service.serialize_s", "ssta.analytic_s",
                    "core.mc_eval_s"),
    "hw_sim": ("arch.sample_lanes_s", "circuit.transient_s", "soda.prepare_s",
               "soda.fabric_s", "soda.verify_s"),
}

# Per-layer metric name prefixes each workload bypasses, which must read
# 0 (service_mix builds its distributions in set-up, not in the job).
IDLE_LAYERS = {
    "tables_cold": ("circuit.", "soda.", "service."),
    "service_mix": ("circuit.", "soda.", "device.builds"),
    "hw_sim": ("service.",),
}


def accounting_problems(workload, metrics):
    """Messages for every accounting rule a traced run's per-layer
    metrics break; empty when the run's attribution holds."""
    problems = []
    wall = metrics["trace.wall_s"]
    total = sum(metrics[n] for n in SELF_TIME_METRICS)
    # An identity of layer_self_times: only a bug in it breaks this.
    if abs(total - wall) > 1e-6 * max(1.0, wall):
        problems.append(f"self times sum to {total:.6f} s, traced wall is "
                        f"{wall:.6f} s")
    if metrics["unattributed_s"] > MAX_UNATTRIBUTED_SHARE * wall:
        problems.append(f"unattributed_s = {metrics['unattributed_s']:.6f} s "
                        f"is over {MAX_UNATTRIBUTED_SHARE:.0%} of the wall")
    for name in EXPECTED_LAYERS[workload]:
        if metrics[name] <= 0:
            problems.append(f"{name} is 0: the run never entered the layer")
    for name, value in sorted(metrics.items()):
        if value != 0 and name.startswith(IDLE_LAYERS[workload]):
            problems.append(f"{name} = {value:g} on a workload that "
                            "bypasses the layer")
    return problems


# ------------------------------------------------------- service plan

NODES = ("90nm GP", "45nm GP", "32nm PTM HP", "22nm PTM HP")
INTERACTIVE_COMMANDS = ("study", "drop", "spares", "margin")
VDD_POINTS = tuple(round(0.45 + 0.01 * i, 2) for i in range(26))
BATCH_COMMANDS = ("drop",)
BATCH_NODES = NODES
BATCH_GRIDS = ((0.5,), (0.55,), (0.6,), (0.65,), (0.5, 0.6), (0.55, 0.65),
               (0.6, 0.7), (0.5, 0.7))
BATCH_SEEDS = tuple(range(1, 33))
CACHE_ENTRIES = 256  # ntvsim serve's default --cache-entries.
BATCH_EVERY = 10  # One batch request in every ten.
ZIPF_S = 0.9


def _text(obj):
    return json.dumps(obj, separators=(",", ":"))


def interactive_universe():
    texts = [_text({"command": c, "node": n, "vdd_grid": [v],
                    "backend": "analytic"})
             for c in INTERACTIVE_COMMANDS for n in NODES for v in VDD_POINTS]
    texts += [_text({"command": "energy", "node": n}) for n in NODES]
    return texts


def batch_universe():
    return [_text({"command": c, "node": n, "vdd_grid": list(g), "seed": s})
            for c in BATCH_COMMANDS for n in BATCH_NODES for g in BATCH_GRIDS
            for s in BATCH_SEEDS]


def warm_requests():
    """Set-up requests that build every distribution cell the plan's
    requests use, under keys no plan request has (whole-grid analytic
    sweeps; small-budget MC at an unused seed)."""
    texts = [_text({"command": c, "node": n, "vdd_grid": list(VDD_POINTS),
                    "backend": "analytic"})
             for c in INTERACTIVE_COMMANDS for n in NODES]
    grids = sorted({v for g in BATCH_GRIDS for v in g})
    texts += [_text({"command": c, "node": n, "vdd_grid": grids,
                     "seed": 999, "samples": 1000})
              for c in BATCH_COMMANDS for n in BATCH_NODES]
    return texts


def make_plan(seed, n):
    """Seeded request plan: [(is_interactive, text)] of length n.

    Exactly one request in every ten is a batch request, at a seeded
    position. Batch keys come from a seed-shuffled batch universe
    without replacement, except that every fifth batch request repeats
    one of the four before it, so it coalesces with it or hits the
    cache. Interactive keys are drawn Zipf(ZIPF_S) over a seed-shuffled
    popularity order of a working set larger than the daemon's cache.
    The strata keep the work of a plan prefix nearly seed-independent.
    """
    rng = random.Random(seed)
    inter = interactive_universe()
    rng.shuffle(inter)
    cumulative = []
    total = 0.0
    for rank in range(len(inter)):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cumulative.append(total)
    batch = batch_universe()
    rng.shuffle(batch)
    sent = []
    plan = []
    while len(plan) < n:
        slot = rng.randrange(BATCH_EVERY)
        for k in range(min(BATCH_EVERY, n - len(plan))):
            if k == slot:
                if len(sent) % 5 == 4:
                    text = sent[-rng.randint(1, 4)]
                else:
                    text = batch[(len(sent) - len(sent) // 5) % len(batch)]
                sent.append(text)
                plan.append((False, text))
            else:
                x = rng.random() * total
                plan.append((True, inter[bisect.bisect_left(cumulative, x)]))
    return plan


def plan_properties(plan):
    """Measured properties of a plan (or of the prefix a run used)."""
    n = len(plan)
    interactive = sum(1 for inter, _ in plan if inter)
    seen = set()
    repeats = 0
    for _, text in plan:
        if text in seen:
            repeats += 1
        seen.add(text)
    unique_inter = len({t for inter, t in plan if inter})
    return {
        "requests": n,
        "interactive_share": interactive / n if n else 0.0,
        "batch_share": (n - interactive) / n if n else 0.0,
        "unique_keys": len(seen),
        "unique_interactive_keys": unique_inter,
        "cache_entries": CACHE_ENTRIES,
        "unique_over_cache": len(seen) / CACHE_ENTRIES,
        "repeat_share": repeats / n if n else 0.0,
    }
