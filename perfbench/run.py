#!/usr/bin/env python3
"""GAA web-serving benchmark: one run of one workload.

Builds the program and the two benchmark processes from source, splits the
available CPUs in half, and runs the server harness on the first half and
the load generator on the second.  See README.md in this directory.

    python3 perfbench/run.py --workload static_memo --seed 1 --seconds 10 \
        --trace 0

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones,
from an untraced run; with --trace 1 they are the per-layer ones, from an
untraced run (counters, and the baseline for the tracing overhead) plus a
traced run (spans).  The line before it is the run's provenance block.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Open-loop offered rate (requests/s) per workload: about a fifth of the
# closed-loop goodput measured on 4 CPUs, so the open-loop latency is taken
# on a loaded but unsaturated server.
WORKLOADS = {"static_memo": 8000, "paper_mixed": 4000, "tenant_churn": 4000}
# A run is this many segments, each on a freshly set up server: setup_s is
# the median of their set-up times.  Fresh servers also bound the requests
# one server sees inside one IDS window (see README.md).
SEGMENTS = 5
# Unmeasured closed-loop warm-up at the start of each segment: a young
# server's memory is still growing and its caches are empty.
WARMUP_S = 0.5
# Open-loop requests per latency window: enough for ten beyond the p99.
WINDOW_REQUESTS = 1000
# The generator falls behind its schedule when its median send is this
# late; such a run is invalid.
LATE_P50_LIMIT_US = 200.0
# Workloads with no attacks: the IDS threat level must stay low on them.
BENIGN_ONLY = ("static_memo", "tenant_churn")
# Set-up probe: a site document every workload serves, and its size.
PROBE_PATH = "/site/p0.html"
PROBE_BYTES = 256
PROBE_SOURCE = "127.63.255.254"


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        die("the program's sources (src/) are not next to the benchmark")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return build_dir


def split_cpus():
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        die("needs at least 2 CPUs to keep load off the server's CPUs")
    half = len(cpus) // 2
    return cpus, cpus[:half], cpus[half:]


def cpu_list(cpus):
    return ",".join(str(c) for c in cpus)


def read_line(stream, timeout_s):
    ready, _, _ = select.select([stream], [], [], timeout_s)
    return stream.readline() if ready else ""


def probe(port, host, deadline):
    """Send one GET until it is answered correctly; False at the deadline."""
    request = ("GET %s HTTP/1.1\r\nHost: %s\r\n\r\n" % (PROBE_PATH, host)).encode()
    while time.perf_counter() < deadline:
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
                sock.settimeout(2.0)
                sock.bind((PROBE_SOURCE, 0))
                sock.connect(("127.0.0.1", port))
                sock.sendall(request)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                head, _, body = data.partition(b"\r\n\r\n")
                length = PROBE_BYTES
                while len(body) < length:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    body += chunk
                if head.startswith(b"HTTP/1.1 200") and len(body) == length:
                    return True
        except OSError:
            pass
        time.sleep(0.001)
    return False


class Server:
    """One server harness process: started, timed to its first correct
    response, and stopped (always waited for)."""

    def __init__(self, build_dir, workload, cpus, trace, report):
        self.report_path = report
        host = "t0.bench.test" if workload == "tenant_churn" else "localhost"
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.join(build_dir, "perfbench_server"), "--workload",
             workload, "--cpus", cpu_list(cpus), "--trace", str(trace),
             "--report", report],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)
        line = read_line(self.proc.stdout, 60)
        if not line.startswith("PORT "):
            self.stop()
            die("server did not start")
        self.port = int(line.split()[1])
        if not probe(self.port, host, time.perf_counter() + 60):
            self.stop()
            die("server never answered the set-up probe correctly")
        self.setup_s = time.perf_counter() - start

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            die("server exited with %s" % self.proc.returncode)
        try:
            with open(self.report_path) as report:
                return json.load(report)
        except (OSError, ValueError):
            die("server wrote no report")


def run_load(build_dir, workload, seed, port, cpus, conns, phase_s, server_pid):
    rate = WORKLOADS[workload]
    windows = max(1, int(rate * phase_s / WINDOW_REQUESTS))
    proc = subprocess.run(
        [os.path.join(build_dir, "perfbench_loadgen"), "--workload", workload,
         "--seed", str(seed), "--port", str(port), "--cpus", cpu_list(cpus),
         "--conns", str(conns), "--rate", str(rate),
         "--warmup", str(WARMUP_S), "--open", str(phase_s),
         "--closed", str(phase_s), "--windows", str(windows),
         "--server-pid", str(server_pid)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        die("load generator exited with %s" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge_loads(loads):
    """One run's load-generator figures from its segments' results."""
    out = {k: sum(l[k] for l in loads) for k in
           ("attempted", "failed", "attack_2xx", "conditional",
            "not_modified")}
    out.update({k: max(l[k] for l in loads)
                for k in ("threads", "max_open_conns")})
    out.update({k: statistics.median(l[k] for l in loads) for k in
                ("late_p50_us", "late_p99_us", "service_p50_us", "parse_us",
                 "resolve_us")})
    out["windows"] = {k: sum((l["windows"][k] for l in loads), [])
                      for k in loads[0]["windows"]}
    out["failures"] = {}
    for l in loads:
        for reason, count in l["failures"].items():
            out["failures"][reason] = out["failures"].get(reason, 0) + count
    return out


def merge_servers(reports):
    """One run's server figures: counts add up over segments, maxima take
    the maximum, and per-segment percentiles take their median."""
    out = {k: sum(r[k] for r in reports) for k in
           ("requests", "inline_served", "accepted", "memo_hits",
            "memo_misses")}
    out.update({k: max(r[k] for r in reports) for k in
                ("ring_high_watermark", "threat_max")})
    out.update({k: statistics.median(r[k] for r in reports) for k in
                ("dispatch_delay_p99_us", "ir_bytes", "publish_p50_ms")})
    out["ids_thresholds"] = reports[0]["ids_thresholds"]
    out["ids_reports"] = {}
    for r in reports:
        for kind, count in r["ids_reports"].items():
            out["ids_reports"][kind] = out["ids_reports"].get(kind, 0) + count
    if "layers" in reports[0]:
        out["layers"] = {
            name: {"calls": sum(r["layers"][name]["calls"] for r in reports),
                   "p50_us": statistics.median(r["layers"][name]["p50_us"]
                                               for r in reports),
                   "p99_us": statistics.median(r["layers"][name]["p99_us"]
                                               for r in reports)}
            for name in reports[0]["layers"]}
        out["traces"] = {k: statistics.median(r["traces"][k] for r in reports)
                         for k in reports[0]["traces"]}
    return out


def measure(build_dir, args, server_cpus, client_cpus, trace):
    """Run the segments: each sets a server up, drives it through a
    warm-up, an open-loop and a closed-loop phase, and stops it."""
    report = os.path.join(build_dir, "server_report_%d.json" % os.getpid())
    phase_s = args.seconds / 2.0 / SEGMENTS
    setups, loads, reports, rss = [], [], [], []
    for segment in range(SEGMENTS):
        server = Server(build_dir, args.workload, server_cpus, trace, report)
        try:
            loads.append(run_load(
                build_dir, args.workload, args.seed * SEGMENTS + segment,
                server.port, client_cpus, len(server_cpus) + len(client_cpus),
                phase_s, server.proc.pid))
            rss.append(server.peak_rss_mb())
        finally:
            reports.append(server.stop())
        setups.append(server.setup_s)
    os.unlink(report)
    return {"setup_s": statistics.median(setups), "load": merge_loads(loads),
            "server": merge_servers(reports), "rss_mb": statistics.median(rss)}


def compiler_and_build_type(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith("#"):
                key, _, value = line.strip().partition("=")
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return version, cache.get("CMAKE_BUILD_TYPE", "?")


def revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: identify the program by its source digest.
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def layer(stats, name):
    return stats["layers"][name]


def per_request(stats, name, requests):
    return layer(stats, name)["calls"] / max(1, requests)


def per_layer_metrics(base, traced):
    """The per-layer map: counters from the untraced run, spans from the
    traced one."""
    load, srv = base["load"], base["server"]
    t_load, t_srv = traced["load"], traced["server"]
    requests = max(1, srv["requests"])
    t_requests = max(1, t_srv["requests"])
    tr = t_srv["traces"]
    post_us = layer(t_srv, "gaa.post")["p50_us"] * per_request(t_srv, "gaa.post", t_requests)
    handle_self = max(0.0, tr["other_p50_us"] - post_us)
    check_us = layer(t_srv, "gaa.check")["p50_us"] * per_request(t_srv, "gaa.check", t_requests)
    layers_sum = (tr["queue_p50_us"] + tr["parse_p50_us"] + check_us +
                  tr["handler_p50_us"] + post_us + tr["respond_p50_us"] +
                  handle_self)
    lookups = srv["memo_hits"] + srv["memo_misses"]
    m = {
        "e2e.p90_us": (low_quartile(load["windows"]["p90_us"]), "us"),
        "e2e.p99_us": (low_quartile(load["windows"]["p99_us"]), "us"),
        "loadgen.late_p99_us": (load["late_p99_us"], "us"),
        "transport.inline_ratio": (srv["inline_served"] / requests, "ratio"),
        "transport.dispatch_delay_p99_us": (srv["dispatch_delay_p99_us"], "us"),
        "transport.ring_high_watermark": (srv["ring_high_watermark"], "count"),
        "transport.accepts_per_req": (srv["accepted"] / requests, "ratio"),
        "transport.ctx_switches_per_req":
            (statistics.median(load["windows"]["ctx_per_req"]), "count"),
        "transport.wire_us":
            (t_load["service_p50_us"] - tr["total_p50_us"], "us"),
        "http.parse_us": (load["parse_us"], "us"),
        "http.handle_self_us": (handle_self, "us"),
        "http.not_modified_ratio":
            (load["not_modified"] / max(1, load["conditional"]), "ratio"),
        "tenant.resolve_us": (load["resolve_us"], "us"),
        "gaa.check_p50_us": (layer(t_srv, "gaa.check")["p50_us"], "us"),
        "gaa.check_p99_us": (layer(t_srv, "gaa.check")["p99_us"], "us"),
        "gaa.memo_hit_ratio": (srv["memo_hits"] / max(1, lookups), "ratio"),
        "gaa.memo_probe_us": (layer(t_srv, "gaa.memo_probe")["p50_us"], "us"),
        "gaa.exec_us": (layer(t_srv, "gaa.exec")["p50_us"], "us"),
        "gaa.post_us": (layer(t_srv, "gaa.post")["p50_us"], "us"),
        "store.publish_ms": (srv["publish_p50_ms"], "ms"),
        "store.ir_bytes": (srv["ir_bytes"], "bytes"),
        "ids.observe_us": (layer(t_srv, "ids.observe")["p50_us"], "us"),
        "ids.report_us": (layer(t_srv, "ids.report")["p50_us"], "us"),
        "ids.reports_per_req": (per_request(t_srv, "ids.report", t_requests), "ratio"),
        "ids.threat_max": (srv["threat_max"], "level"),
        "audit.record_us": (layer(t_srv, "audit.record")["p50_us"], "us"),
        "audit.records_per_req":
            (per_request(t_srv, "audit.record", t_requests), "ratio"),
        "audit.notify_us": (layer(t_srv, "audit.notify")["p50_us"], "us"),
        "trace.overhead_ratio":
            (statistics.median(t_load["windows"]["goodput_rps"]) /
             max(1e-9, statistics.median(load["windows"]["goodput_rps"])),
             "ratio"),
        "layers.closure_ratio":
            (layers_sum / max(1e-9, tr["total_p50_us"]), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def low_quartile(values):
    """First quartile of per-window latency percentiles.  A stall of the
    (shared, virtual) host only ever lifts a window's latency, and stalls
    touch so many windows that their median moves from run to run; the
    least-touched quarter of windows is what repeats."""
    return statistics.quantiles(values, n=4)[0]


def end_to_end_metrics(base):
    """Each phase is cut into equal windows: throughput and CPU cost are the
    median of their per-window values, latencies the low quartile."""
    load = base["load"]
    windows = load["windows"]
    m = {
        "setup_s": (base["setup_s"], "s"),
        "goodput_rps": (statistics.median(windows["goodput_rps"]), "1/s"),
        "p50_us": (low_quartile(windows["p50_us"]), "us"),
        "server_cpu_us_per_req":
            (statistics.median(windows["cpu_us_per_req"]), "us"),
        "server_rss_mb": (base["rss_mb"], "MB"),
        "ok_ratio": (1.0 - load["failed"] / max(1, load["attempted"]), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = build()
    cpus, server_cpus, client_cpus = split_cpus()
    # This script waits on the client half, off the server's CPUs.
    os.sched_setaffinity(0, client_cpus)

    base = measure(build_dir, args, server_cpus, client_cpus, 0)
    traced = measure(build_dir, args, server_cpus, client_cpus, 1) \
        if args.trace else None

    runs = [base] + ([traced] if traced else [])
    problems = []
    for run in runs:
        load = run["load"]
        if load["attack_2xx"]:
            problems.append("%d attacks answered 2xx" % load["attack_2xx"])
        if load["failed"]:
            problems.append("failures: %s" % json.dumps(load["failures"]))
        if load["threads"] > len(client_cpus):
            problems.append("generator ran %d threads on %d CPUs"
                            % (load["threads"], len(client_cpus)))
        if load["max_open_conns"] > len(cpus):
            problems.append("generator held %d connections (cap %d)"
                            % (load["max_open_conns"], len(cpus)))
        if load["late_p50_us"] > LATE_P50_LIMIT_US:
            problems.append("generator fell behind its schedule (median "
                            "send %.0f us late)" % load["late_p50_us"])
        if args.workload in BENIGN_ONLY and run["server"]["threat_max"] > 0:
            problems.append("benign traffic raised the IDS threat level "
                            "(reports: %s)" % run["server"]["ids_reports"])

    compiler, build_type = compiler_and_build_type(build_dir)
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cores": os.cpu_count(), "cpus": cpus,
        "server_cpus": server_cpus, "client_cpus": client_cpus,
        "compiler": compiler, "build_type": build_type,
        "revision": revision(), "kernel": platform.release(),
        "transport": "TCP over loopback (127.0.0.0/8 client addresses)",
        "open_loop_rps": WORKLOADS[args.workload],
        "connections": len(cpus),
        "ids_thresholds": base["server"]["ids_thresholds"],
        "generator": {"threads": base["load"]["threads"],
                      "max_open_conns": base["load"]["max_open_conns"],
                      "late_p50_us": base["load"]["late_p50_us"],
                      "late_p99_us": base["load"]["late_p99_us"]},
        "valid": not problems, "problems": problems,
    }
    print(json.dumps({"provenance": provenance}))
    for problem in problems:
        print("perfbench: " + problem, file=sys.stderr)

    metrics = per_layer_metrics(base, traced) if traced else end_to_end_metrics(base)
    attempted = sum(r["load"]["attempted"] for r in runs)
    failed = sum(r["load"]["failed"] for r in runs)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if any(r["load"]["attack_2xx"] for r in runs):
        sys.exit(1)


if __name__ == "__main__":
    main()
