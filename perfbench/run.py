#!/usr/bin/env python3
"""The ntvsim benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload tables_cold|service_mix|hw_sim \
        --seed N --seconds S --trace 0|1

Run from the root of an ntvsim source tree. The first run builds the
product and the benchmark's own ntvbench into .bench_build/. Every run works in
an empty rundir area under .bench_runs/ (HOME, XDG_CACHE_HOME, TMPDIR,
--out-dir and --spill-dir all point into it) and removes it afterwards.

--trace 0 measures the end-to-end metrics; --trace 1 runs the workload's
traced twin and prints the per-layer metrics. The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}. README.md
in this directory explains the workloads and the layer map.

    python3 perfbench/run.py --write-refs   regenerates perfbench/ref/
"""
import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib as bl  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUNS = ROOT / ".bench_runs"
REF = HERE / "ref"
NPROC = len(os.sched_getaffinity(0))
EXPERIMENTS = ("fig4", "table1", "table2", "table4")
BENCH_BINS = ("bench_fig4_performance_drop", "bench_table1_spares",
              "bench_table2_voltage_margin", "bench_table4_frequency_margin")
NTVSIM = BUILD / "ntvsim" / "tools" / "ntvsim"
REPRO = BUILD / "ntvsim" / "tools" / "ntvsim_repro"
BENCH_DIR = BUILD / "ntvsim" / "bench"
NTVBENCH = BUILD / "ntvbench"
# ext_spice_mc registry bands for the transient 3sigma/mu [%].
SPICE_BANDS = {"1.00": (5.5, 8.0), "0.50": (13.0, 19.0)}
# Set-ups per tables_cold run (median reported): the set-up takes a few
# milliseconds, so it repeats often to steady its median.
TABLES_SETUP_REPEATS = 25
# A traced twin whose untraced wall differs from the product path's by
# more than this share is flagged: the replay may no longer describe it.
REPLAY_GAP_WARN_PCT = 50.0


def log(msg):
    print(msg, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Configures and builds the product targets plus ntvbench."""
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "a") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                fail_build(build_log, BUILD / "CMakeCache.txt")
        cmd = ["cmake", "--build", str(BUILD), "-j", str(NPROC), "--target",
               "ntvsim", "ntvsim_repro", "ntvbench", *BENCH_BINS]
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
            fail_build(build_log)


def fail_build(build_log, stale=None):
    if stale is not None and stale.exists():
        stale.unlink()  # A failed configure must not look configured.
    tail = build_log.read_text(errors="replace").splitlines()[-30:]
    sys.stderr.write("benchmark build failed:\n" + "\n".join(tail) + "\n")
    sys.exit(1)


# -------------------------------------------------------------- isolation

class RunDir:
    """An empty per-run directory plus the environment pointing into it.
    Leaving it kills any daemon started in it that is still running."""

    def __init__(self, tag):
        self.daemons = []
        RUNS.mkdir(exist_ok=True)
        self.path = RUNS / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
        self.path.mkdir()
        for sub in ("home", "cache", "tmp", "out", "spill"):
            (self.path / sub).mkdir()
        self.env = dict(os.environ)
        self.env.update(HOME=str(self.path / "home"),
                        XDG_CACHE_HOME=str(self.path / "cache"),
                        TMPDIR=str(self.path / "tmp"),
                        NTV_THREADS=str(NPROC))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for daemon in self.daemons:
            if daemon.proc.poll() is None:
                daemon.proc.kill()
                daemon.proc.wait()
        shutil.rmtree(self.path, ignore_errors=True)


def run_checked(cmd, rundir, **kw):
    """Runs cmd to completion; returns (returncode, stdout)."""
    proc = subprocess.run(cmd, env=rundir.env, cwd=rundir.path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, **kw)
    if proc.returncode:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, proc.stdout


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


# ------------------------------------------------------------ fingerprint

def fingerprint():
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and not line.startswith(("#", "//")):
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "?"
    simd = "?"
    with RunDir("fp") as s:
        report = s.path / "out" / "fp.json"
        rc, _ = run_checked([str(NTVSIM), "--quiet", "--report", str(report),
                             "nodes"], s)
        if rc == 0:
            simd = json.loads(report.read_text())["manifest"].get("simd", "?")
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {"nproc": NPROC, "simd": simd, "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
            "commit": commit, "dirty": dirty}


# ------------------------------------------------------------ references

def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_ref(name):
    return json.loads((REF / name).read_text())


def check_table_values(values_by_id, ref):
    """Number of experiments whose results.values differ from the
    committed reference (compared through their canonical digest)."""
    bad = 0
    for exp in EXPERIMENTS:
        got = values_by_id.get(exp)
        if got is None or digest(canonical(got)) != ref[exp]["digest"]:
            bad += 1
            log(f"MISMATCH {exp}: results.values differ from the reference")
    return bad


# ----------------------------------------------------------- tables_cold

def repro_once(rundir, order):
    """One cold `ntvsim_repro run`; returns (wall_s, child_ms, bad,
    metrics) with each experiment's report metrics by id."""
    out = rundir.path / "out" / "repro"
    cmd = [str(REPRO), "run", "--bin-dir", str(BENCH_DIR), "--out-dir",
           str(out), "--only", ",".join(order), "--no-resume"]
    t0 = time.perf_counter()
    rc, stdout = run_checked(cmd, rundir)
    wall = time.perf_counter() - t0
    values, metrics, child_ms = {}, {}, 0
    for line in (out / "journal.jsonl").read_text().splitlines():
        entry = json.loads(line)
        child_ms += entry["elapsed_ms"]
    for exp in EXPERIMENTS:
        report = out / "reports" / f"{exp}.json"
        if report.exists():
            doc = json.loads(report.read_text())
            values[exp] = doc["results"]["values"]
            metrics[exp] = doc["metrics"]
    bad = check_table_values(values, load_ref("tables_values.json"))
    if rc != 0 or "all gates passed" not in stdout:
        log(f"FAIL ntvsim_repro exit {rc}: registry gates did not pass")
        bad = len(EXPERIMENTS)
    return wall, child_ms, bad, metrics


def add_counters(into, counters, timers_ns):
    """Adds obs counter deltas and timer totals (as "timer:<name>", ns)."""
    for k, v in counters.items():
        into[k] = into.get(k, 0) + v
    for k, v in timers_ns.items():
        into["timer:" + k] = into.get("timer:" + k, 0) + v


def tables_cold(args):
    # The paper tables are pinned to the default seed (their reference
    # values are committed); the workload seed only orders --only.
    order = list(EXPERIMENTS)
    random.Random(args.seed).shuffle(order)
    if args.trace:
        return tables_traced(order)
    setups = []
    for _ in range(TABLES_SETUP_REPEATS):
        t0 = time.perf_counter()
        with RunDir("setup") as s:
            rc, _ = run_checked([str(REPRO), "list"], s)
            setups.append(time.perf_counter() - t0)
        if rc:
            raise SystemExit("ntvsim_repro list failed")
    walls, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        with RunDir("tables") as s:
            wall, _, bad, _ = repro_once(s, order)
        walls.append(wall)
        attempted += len(EXPERIMENTS)
        failed += bad
    log(f"tables_cold: {len(walls)} cold runs, walls "
        + " ".join(f"{w:.3f}" for w in walls))
    log(f"tables_s = {bl.median(walls):.6g} s")
    return {"setup_s": bl.median(setups), "job_s": bl.median(walls)}, \
        attempted, failed


def tables_traced(order):
    """Traced twin: each experiment replayed in its own ntvbench process
    (cold, as under the harness) through the product's single-point
    MitigationStudy calls, with spans around every call. The counters
    (builds, probes, pool) come from the ntvsim_repro run itself."""
    ref = load_ref("tables_values.json")
    with RunDir("tables") as s:
        repro_wall, child_ms, bad0, reports = repro_once(s, order)
    product = {}
    for m in reports.values():
        add_counters(product, m["counters"],
                     {k: t["total_ns"] for k, t in m["timers"].items()})
    child_s = child_ms / 1e3
    walls = {False: [], True: []}
    for traced in TRACE_ORDER:
        spans, values, replay = [], {}, {}
        t_start = time.perf_counter_ns()
        for exp in order:
            with RunDir("replay") as s:
                trace_file = s.path / "out" / "trace.json"
                cmd = [str(NTVBENCH), "tables", "--experiment", exp]
                if traced:
                    cmd += ["--trace", str(trace_file)]
                p0 = time.perf_counter_ns()
                rc, stdout = run_checked(cmd, s)
                p1 = time.perf_counter_ns()
                if rc:
                    raise SystemExit(f"ntvbench tables {exp} failed")
                if not traced:
                    continue
                result = last_json(stdout)
                values[exp] = result["values"]
                add_counters(replay, result["counters"], result["timers_ns"])
                # ntvbench's main thread is its trace tid 0.
                spans.append(("harness.experiment", p0, p1, f"{exp}/0"))
                for name, a, b, tid in bl.load_trace_spans(
                        json.loads(trace_file.read_text()), p0, f"{exp}/"):
                    spans.append((name, max(a, p0), min(b, p1), tid))
        t0, t1 = t_start, time.perf_counter_ns()
        walls[traced].append((t1 - t0) / 1e9)
    bad = bad0 + check_table_values(values, ref)
    wall = (t1 - t0) / 1e9
    keep_trace("tables_cold", spans)
    metrics = bl.self_time_metrics(spans, t0, t1)
    metrics.update(counter_metrics(product, child_s))
    # Every sign-off evaluation of table2's margin search (and the
    # nominal reference it normalizes to) is one Monte Carlo run.
    metrics["core.margin_probes"] = reports.get("table2", {}).get(
        "counters", {}).get("mc.runs", 0)
    # Lanes of the 128-wide datapath over every chip the replay sampled.
    metrics["stats.fill_ns_per_lane"] = ratio(
        metrics["stats.fill_s"] * 1e9, replay.get("mc.samples", 0) * 128)
    # The harness's own time: ntvsim_repro wall minus its children's.
    metrics["harness.overhead_s"] = repro_wall - child_s
    metrics.update(overhead_metrics(walls, wall, child_s))
    return metrics, 2 * len(EXPERIMENTS), bad


# Untraced and traced passes alternate so drift hits both sides alike.
TRACE_ORDER = (False, True, False, True)


def overhead_metrics(walls, traced_wall, product_wall):
    """trace.* metrics from the alternating passes' wall times (each
    side's best pass, so one slow first pass does not read as overhead)
    and from the wall time of the product path the twin stands for."""
    untraced = min(walls[False])
    log("trace passes: untraced " + " ".join(f"{w:.3f}" for w in walls[False])
        + " s; traced " + " ".join(f"{w:.3f}" for w in walls[True]) + " s")
    gap = 100.0 * (untraced / product_wall - 1.0)
    log(f"replay: untraced twin {untraced:.3f} s, product path "
        f"{product_wall:.3f} s, gap {gap:+.1f} %"
        + (" -- WARN: the twin no longer tracks the product path"
           if abs(gap) > REPLAY_GAP_WARN_PCT else ""))
    return {"trace.wall_s": traced_wall, "trace.untraced_wall_s": untraced,
            "trace.overhead_pct": 100.0 * (min(walls[True]) / untraced
                                           - 1.0),
            "trace.replay_gap_pct": abs(gap)}


def keep_trace(workload, spans):
    """Writes the traced run's spans as .bench_runs/trace-<workload>.json
    (Chrome trace-event format; outlives the run's directory)."""
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"trace-{workload}.json"
    path.write_text(json.dumps(bl.trace_document(spans)))
    log(f"trace: {path.relative_to(ROOT)} ({len(spans)} spans)")


def ratio(a, b):
    return a / b if b else 0.0


def counter_metrics(c, wall_s):
    """Per-layer metrics from summed obs counter/timer deltas over a
    stretch of `wall_s` seconds."""
    out = {
        "device.builds": c.get("device.dist_cache.builds", 0),
        "device.hit_ratio": ratio(c.get("device.dist_cache.calls", 0)
                                  - c.get("device.dist_cache.builds", 0),
                                  c.get("device.dist_cache.calls", 0)),
        "stats.quantile_scan_ratio": ratio(c.get("stats.quantile.scans", 0),
                                           c.get("stats.quantile.guide_hits", 0)),
        "exec.busy_s": c.get("timer:exec.busy", 0) / 1e9,
        "exec.steals": c.get("exec.steals", 0),
        "service.computed": c.get("service.computed", 0),
        "service.coalesced_joins": c.get("service.coalesced_joins", 0),
        "service.evictions": c.get("service.cache.evictions", 0),
        "circuit.newton_iters": c.get("circuit.newton.iterations", 0),
        "soda.events": c.get("soda.fabric.events", 0),
        "soda.stall_cycles": c.get("soda.fabric.lane_stall_cycles", 0)
        + c.get("soda.fabric.mem_stall_cycles", 0),
    }
    out["exec.utilization"] = ratio(out["exec.busy_s"], NPROC * wall_s)
    hits = c.get("service.cache.hits", 0)
    out["service.hit_ratio"] = ratio(hits, hits + c.get("service.cache.misses", 0))
    return out


# ----------------------------------------------------------- service_mix

class Daemon:
    """A fresh `ntvsim serve` on loopback inside a run directory."""

    def __init__(self, rundir, tag):
        self.report = rundir.path / "out" / f"serve-{tag}.json"
        port_file = rundir.path / "out" / f"port-{tag}.txt"
        spill = rundir.path / "spill" / tag
        spill.mkdir()
        with open(rundir.path / "out" / f"serve-{tag}.log", "w") as out:
            self.proc = subprocess.Popen(
                [str(NTVSIM), "--quiet", "--threads", str(NPROC), "--report",
                 str(self.report), "serve", "--port", "0", "--port-file",
                 str(port_file), "--spill-dir", str(spill)],
                env=rundir.env, cwd=rundir.path, stdout=out,
                stderr=subprocess.STDOUT)
        rundir.daemons.append(self)
        deadline = time.monotonic() + 60
        while not port_file.exists() or not port_file.read_text().strip():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise SystemExit("ntvsim serve did not start")
            time.sleep(0.002)
        self.port = int(port_file.read_text())

    def stop(self):
        """SIGTERM, wait, and return the shutdown report (or None)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.returncode != 0 or not self.report.exists():
            return None
        return json.loads(self.report.read_text())


def shutdown_ok(report):
    """drained: true and requests = computed + joins + hits + errors."""
    if report is None:
        log("FAIL daemon exited without a report")
        return False
    c = report["metrics"]["counters"]
    lhs = c.get("service.requests", 0)
    rhs = (c.get("service.computed", 0) + c.get("service.coalesced_joins", 0)
           + c.get("service.cache.hits", 0) + c.get("service.errors", 0))
    ok = report["results"].get("drained") is True and lhs == rhs
    if not ok:
        log(f"FAIL daemon report: drained={report['results'].get('drained')}"
            f" requests={lhs} accounted={rhs}")
    return ok


def load(rundir, port, texts, clients, tag):
    """Closed-loop load through `ntvbench load`. Returns its result and
    the first response per distinct request text, by plan index."""
    plan_file = rundir.path / "out" / f"{tag}-plan.txt"
    plan_file.write_text("".join(t + "\n" for t in texts))
    env_file = rundir.path / "out" / f"{tag}-envelopes.txt"
    cmd = [str(NTVBENCH), "load", "--port", str(port), "--plan", str(plan_file),
           "--clients", str(clients), "--envelopes", str(env_file)]
    rc, stdout = run_checked(cmd, rundir)
    if rc:
        raise SystemExit("ntvbench load failed")
    firsts = {}
    for line in env_file.read_text().splitlines():
        entry = json.loads(line)
        firsts[entry["index"]] = entry["response"]
    return last_json(stdout), firsts


def boot_and_warm(rundir, tag):
    daemon = Daemon(rundir, tag)
    _, firsts = load(rundir, daemon.port, bl.warm_requests(), NPROC,
                     tag=f"warm-{tag}")
    if any(json.loads(r).get("status") != "ok" for r in firsts.values()):
        daemon.stop()
        raise SystemExit("service warm-up request failed")
    return daemon


def envelope_ok(text, response, ref):
    """The response answers this request (every field sent is echoed in
    its canonical request) and its bytes match the reference for its
    content key."""
    try:
        doc = json.loads(response)
    except json.JSONDecodeError:
        return False
    if doc.get("status") != "ok":
        return False
    sent = json.loads(text)
    if any(doc["request"].get(k) != v for k, v in sent.items()):
        return False
    return ref.get(doc["key"]) == envelope_digest(response)


def envelope_digest(envelope):
    """Reference digest of one envelope (128 bits of its SHA-256)."""
    return digest(envelope)[:32]


def report_percentile(values, wanted, label):
    """Logs the highest supported percentile <= wanted, in ms."""
    p = bl.supported_percentile(len(values), wanted)
    if p is None:
        log(f"{label}: only {len(values)} samples, no percentile")
        return
    beyond = len(values) - bl.nearest_rank(p, len(values))
    log(f"{label} = {bl.percentile(values, p) * 1e3:.6g} ms "
        f"(p{p:g} of {len(values)} samples, {beyond} beyond)")


def service_mix(args):
    """Repeats, for --seconds: boot a fresh daemon and warm it (set-up),
    then the job: the plan's first SERVICE_JOB requests through NPROC
    closed-loop connections, then SIGTERM and the shutdown checks. A
    fresh daemon per job keeps every job's cache history identical."""
    plan = bl.make_plan(args.seed, SERVICE_JOB)
    ref = load_ref("service_envelopes.json")
    if args.trace:
        return service_traced(plan, ref)
    texts = [t for _, t in plan]
    setups, jobs, records = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    with RunDir("service") as s:
        while not jobs or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            daemon = boot_and_warm(s, str(len(jobs)))
            setups.append(time.perf_counter() - t0)
            result, job_firsts = load(s, daemon.port, texts, NPROC,
                                      tag=f"job-{len(jobs)}")
            jobs.append(result["wall_s"])
            records += result["records"]  # [plan index, latency ns, done ns]
            # Later responses were compared with the first one per text
            # by the load generator; the first ones with the reference.
            attempted += len(result["records"]) + 1
            failed += result["mismatched"] + sum(
                0 if envelope_ok(texts[i], r, ref) else 1
                for i, r in job_firsts.items())
            failed += 0 if shutdown_ok(daemon.stop()) else 1
    log("service_mix plan: " + json.dumps(bl.plan_properties(plan),
                                          sort_keys=True))
    inter = [r[1] / 1e9 for r in records if plan[r[0]][0]]
    batch = [r[1] / 1e9 for r in records if not plan[r[0]][0]]
    report_percentile(inter, 50, "interactive_p50_ms")
    report_percentile(inter, 99, "interactive_p99_ms")
    report_percentile(batch, 50, "batch_p50_ms")
    report_percentile(batch, 95, "batch_p95_ms")
    log(f"service_rps = {len(records) / sum(jobs):.6g} 1/s; jobs "
        + " ".join(f"{j:.3f}" for j in jobs) + " s")
    return {"setup_s": bl.median(setups), "job_s": bl.median(jobs)}, \
        attempted, failed


# service_mix's unit job: the first this-many requests of the plan.
SERVICE_JOB = 2000


def service_traced(plan, ref):
    """Traced twin: the same plan prefix through the service pipeline
    composed in-process by ntvbench, untraced and traced passes. A live
    daemon runs the job once (the product path the twin stands for),
    then a wire-cost probe."""
    texts = [t for _, t in plan]
    probe = plan[0][1] if plan[0][0] else bl.interactive_universe()[0]
    with RunDir("service") as s:
        daemon = boot_and_warm(s, "wire")
        job, job_firsts = load(s, daemon.port, texts, NPROC, tag="job")
        attempted = len(job["records"])
        failed = job["mismatched"] + sum(
            0 if envelope_ok(texts[i], r, ref) else 1
            for i, r in job_firsts.items())
        # One connection, the same cached key 201 times; the first
        # request fills the cache if the job did not.
        probed, firsts = load(s, daemon.port, [probe] * 201, 1, tag="probe")
        rtts = [r[1] for r in probed["records"][1:]]
        attempted += 2
        failed += probed["mismatched"]
        failed += 0 if envelope_ok(probe, firsts[0], ref) else 1
        failed += 0 if shutdown_ok(daemon.stop()) else 1

        plan_file = s.path / "out" / "plan.txt"
        plan_file.write_text("".join(t + "\n" for _, t in plan))
        warm_file = s.path / "out" / "warm.txt"
        warm_file.write_text("".join(t + "\n" for t in bl.warm_requests()))
        walls = {False: [], True: []}
        for n, traced in enumerate(TRACE_ORDER):
            trace_file = s.path / "out" / "trace.json"
            env_file = s.path / "out" / f"envelopes-{n}.txt"
            spill = s.path / "spill" / f"pipeline-{n}"
            spill.mkdir()
            cmd = [str(NTVBENCH), "service", "--plan", str(plan_file),
                   "--warm", str(warm_file),
                   "--spill-dir", str(spill), "--envelopes", str(env_file),
                   "--probe", probe]
            if traced:
                cmd += ["--trace", str(trace_file)]
            rc, stdout = run_checked(cmd, s)
            if rc:
                raise SystemExit("ntvbench service failed")
            result = last_json(stdout)
            attempted += result["attempted"]
            failed += result["errors"] + result["mismatched"]
            for line in env_file.read_text().splitlines():
                if ref.get(json.loads(line)["key"]) != envelope_digest(line):
                    failed += 1
            walls[traced].append(
                (result["wall_end_ns"] - result["wall_start_ns"]) / 1e9)
            if traced:
                traced_result = result
        spans = bl.load_trace_spans(json.loads(trace_file.read_text()))
    traced = traced_result
    t0, t1 = traced["wall_start_ns"], traced["wall_end_ns"]
    wall = (t1 - t0) / 1e9
    keep_trace("service_mix", spans)
    metrics = bl.self_time_metrics(spans, t0, t1)
    counters = {}
    add_counters(counters, traced["counters"], traced["timers_ns"])
    metrics.update(counter_metrics(counters, wall))
    reqs = traced["requests"]  # [interactive, hit, leader, parse, eval, total]
    inter_eval = [r[4] for r in reqs if r[0] and r[2]]
    batch_eval = [r[4] for r in reqs if not r[0] and r[2]]
    analytic = [b - a for name, a, b, _ in spans
                if name == "ssta.analytic" and t0 <= a and b <= t1]
    waits = [r[5] - r[3] - (r[4] if r[2] else 0.0) for r in reqs]
    inter_waits = [r[5] - r[3] - (r[4] if r[2] else 0.0) for r in reqs if r[0]]
    hit_ns = bl.median(traced["probe_ns"])
    metrics.update({
        "service.parse_us": mean([r[3] for r in reqs]) / 1e3,
        "service.eval_interactive_us": mean(inter_eval) / 1e3,
        "service.eval_batch_ms": mean(batch_eval) / 1e6,
        "ssta.analytic_us": mean(analytic) / 1e3,
        "service.wait_ms": mean(waits) / 1e6,
        "service.wait_interactive_p99_ms": bl.percentile(inter_waits, 99) / 1e6,
        "service.wire_us": (bl.median(rtts) - hit_ns) / 1e3,
    })
    metrics.update(overhead_metrics(walls, wall, job["wall_s"]))
    log(f"service_mix traced: {len(plan)} requests, wall {wall:.3f} s; "
        f"device builds in timed phase: {metrics['device.builds']}")
    return metrics, attempted, failed


def mean(values):
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------- hw_sim

def hw_check(result):
    """Failed checks: kernel mismatches and SPICE bands."""
    failed = result["failed"]
    for vdd, (lo, hi) in SPICE_BANDS.items():
        got = result["spice_3smu_pct"][vdd]
        if not lo <= got <= hi:
            log(f"FAIL spice 3s/mu @{vdd} V = {got:.3f} outside [{lo}, {hi}]")
            failed += 1
    return result["attempted"] + len(SPICE_BANDS), failed


HW_TRACE_JOBS = 5


def hw_sim(args):
    base = [str(NTVBENCH), "hw", "--seed", str(args.seed)]
    with RunDir("hw") as s:
        if not args.trace:
            rc, stdout = run_checked(base + ["--seconds", str(args.seconds)], s)
            if rc:
                raise SystemExit("ntvbench hw failed")
            result = last_json(stdout)
            attempted, failed = hw_check(result)
            log(f"hw_sim: {result['jobs']} jobs, {result['faulty_lanes']} "
                f"slow lanes, {result['bypass_activations']} bypasses")
            for name in ("spice_samples_per_s", "soda_mcycles_per_s"):
                log(f"{name} = {bl.median(result[name]):.6g} (median of jobs)")
            return {"setup_s": bl.median(result["setup_s"]),
                    "job_s": bl.median(result["job_s"])}, attempted, failed
        walls = {False: [], True: []}
        attempted = failed = 0
        trace_file = s.path / "out" / "trace.json"
        for traced in TRACE_ORDER:
            cmd = base + ["--jobs", str(HW_TRACE_JOBS)]
            if traced:
                cmd += ["--trace", str(trace_file)]
            rc, stdout = run_checked(cmd, s)
            if rc:
                raise SystemExit("ntvbench hw failed")
            result = last_json(stdout)
            n, bad = hw_check(result)
            attempted += n
            failed += bad
            walls[traced].append(result["wall_s"])
        spans = bl.load_trace_spans(json.loads(trace_file.read_text()))
    t0, t1 = result["wall_start_ns"], result["wall_end_ns"]
    wall = (t1 - t0) / 1e9
    keep_trace("hw_sim", spans)
    metrics = bl.self_time_metrics(spans, t0, t1)
    counters = {}
    add_counters(counters, result["counters"], result["timers_ns"])
    metrics.update(counter_metrics(counters, wall))
    transient_ns = sum(b - a for n, a, b, _ in spans if n == "circuit.transient")
    fabric_ns = sum(b - a for n, a, b, _ in spans if n == "soda.fabric")
    iters = metrics["circuit.newton_iters"]
    metrics.update({
        "circuit.ns_per_newton_iter": transient_ns / iters if iters else 0.0,
        "circuit.assemble_share": (counters.get("circuit.newton.assemble_ns", 0)
                                   / transient_ns if transient_ns else 0.0),
        "soda.ns_per_event": (fabric_ns / metrics["soda.events"]
                              if metrics["soda.events"] else 0.0),
    })
    # The untraced twin is the product path itself here.
    metrics.update(overhead_metrics(walls, wall, min(walls[False])))
    return metrics, attempted, failed


# ------------------------------------------------------------- reporting

WORKLOAD_FNS = {"tables_cold": tables_cold, "service_mix": service_mix,
                "hw_sim": hw_sim}


def finish_per_layer(workload, metrics):
    """Completes the per-layer set (zeros for layers the workload never
    entered) and checks its accounting (benchlib.accounting_problems)."""
    out = {name: float(metrics.get(name, 0.0)) for name in bl.PER_LAYER}
    total = sum(out[n] for n in bl.SELF_TIME_METRICS)
    log(f"accounting: layer self times + unattributed = {total:.6f} s, "
        f"traced wall = {out['trace.wall_s']:.6f} s, unattributed "
        f"{out['unattributed_s']:.6f} s; tracing overhead "
        f"{out['trace.overhead_pct']:.2f} %")
    problems = bl.accounting_problems(workload, out)
    for problem in problems:
        log(f"FAIL accounting: {problem}")
    return out, not problems


def measure(args):
    """Runs one workload; returns the result object."""
    fn = WORKLOAD_FNS[args.workload]
    metrics, attempted, failed = fn(args)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    correct = True
    if args.trace:
        values, correct = finish_per_layer(args.workload, metrics)
        units = bl.PER_LAYER
    else:
        metrics["peak_rss_mb"] = peak
        log(f"failed_ratio = {failed / attempted if attempted else 1.0:.6g}"
            f" ({failed} of {attempted} operations)")
        values = {n: float(metrics[n]) for n in bl.END_TO_END}
        units = {n: spec[0] for n, spec in bl.END_TO_END.items()}
    for name, value in values.items():
        log(f"{name} = {value:.6g} {units[name]}")
    return {"correct": correct and failed == 0, "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in values.items()}}


def run_in_child(args):
    """Measures in a forked child so RUSAGE_CHILDREN covers only the
    measured process tree (not the build)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = json.dumps(measure(args)).encode()
        except SystemExit as e:
            sys.stderr.write(f"benchmark failed: {e}\n")
            payload, code = b"", 1
        except Exception as e:  # noqa: BLE001 - report, then fail the run
            sys.stderr.write(f"benchmark failed: {e!r}\n")
            payload, code = b"", 1
        sys.stdout.flush()
        with os.fdopen(write_fd, "wb") as w:
            w.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as r:
        payload = r.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not payload:
        sys.exit(1)
    return json.loads(payload)


# ------------------------------------------------------------- references

def write_refs():
    """Regenerates perfbench/ref/ from the current build."""
    REF.mkdir(exist_ok=True)
    with RunDir("refs") as s:
        out = s.path / "out" / "repro"
        rc, stdout = run_checked([str(REPRO), "run", "--bin-dir",
                                  str(BENCH_DIR), "--out-dir", str(out),
                                  "--only", ",".join(EXPERIMENTS),
                                  "--no-resume"], s)
        if rc or "all gates passed" not in stdout:
            raise SystemExit("reference tables run failed its gates")
        tables = {}
        for exp in EXPERIMENTS:
            values = json.loads((out / "reports" / f"{exp}.json").read_text())[
                "results"]["values"]
            tables[exp] = {"digest": digest(canonical(values)), "values": values}
        (REF / "tables_values.json").write_text(
            json.dumps(tables, indent=1, sort_keys=True) + "\n")

        daemon = Daemon(s, "refs")
        texts = bl.interactive_universe() + bl.batch_universe()
        _, firsts = load(s, daemon.port, texts, NPROC, tag="refs")
        if not shutdown_ok(daemon.stop()):
            raise SystemExit("reference daemon did not drain")
        envelopes = {}
        for i, response in sorted(firsts.items()):
            text = texts[i]
            doc = json.loads(response)
            if doc.get("status") != "ok":
                raise SystemExit(f"reference request failed: {text}")
            envelopes[doc["key"]] = envelope_digest(response)
        (REF / "service_envelopes.json").write_text(
            json.dumps(envelopes, indent=0, sort_keys=True,
                       separators=(",", ":")) + "\n")
    log(f"wrote {REF}/tables_values.json and service_envelopes.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=bl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true")
    args = parser.parse_args()
    if not args.write_refs and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.write_refs:
        write_refs()
        return
    log("fingerprint: " + json.dumps(fingerprint(), sort_keys=True))
    result = run_in_child(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
