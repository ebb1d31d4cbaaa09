"""Socket-to-store fleet benchmark.

Launches a ``FleetServer`` in a child process (``launcher.py``), drives
it from this process over a closed loop on one keep-alive connection,
with both processes on one CPU, checks the answers, and prints the
metrics.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``ops_per_s``,
``latency_p50_ms``, ``server_cpu_ms_per_op``, ``server_rss_mb``,
``setup_s``); ``latency_p99_ms`` is printed and recorded in the
provenance line, and ``error_rate`` is ``failed`` over ``attempted``.
With ``--trace 1`` the run serves twice, once plain and once with every
layer wrapped in spans, and prints the per-layer metrics.
``--workload all`` runs every workload in turn; its last line sums the
counts and prefixes each metric with its workload.  See ``README.md``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload install_cold --seed 1 \\
        --seconds 10 --trace 0

The exit code is 0 when every correctness check passed, 1 when one
failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

#: Set-ups per plain run; ``setup_s`` is their median.
SETUPS = 3
#: Seconds to wait for the server to print its port.
START_TIMEOUT = 60.0
PHASES = ("parse", "admit", "queue", "execute", "write")
#: Span names whose self time lies inside the ``execute`` phase, by the
#: per-layer metric they feed.
EXECUTE_LAYERS = {
    "transport.handler_us": ("transport.handler",),
    "schemas.decode_us": ("schemas.decode",),
    "schemas.encode_us": ("schemas.encode",),
    "service.self_us": ("service",),
    "detector.detect_us": ("detector.detect",),
    "detector.chains_us": ("detector.chains",),
    "constraints.solve_us": ("constraints.solve",),
    "store.commit_us": ("store.commit", "store.save"),
    "store.load_us": ("store.load",),
    "monitor.ingest_us": ("monitor.ingest",),
}


class ServerProcess:
    """The launcher child: spawned, commanded over stdin, stopped."""

    def __init__(self, workload, store_root: Path, trace: int) -> None:
        command = [
            sys.executable, str(HERE / "launcher.py"),
            "--store-root", str(store_root), "--store", workload.store,
            "--trace", str(trace),
        ]
        if workload.max_resident is not None:
            command += ["--max-resident", str(workload.max_resident)]
        if workload.solve_cache is not None:
            command += ["--solve-cache", workload.solve_cache]
        # A fixed hash seed gives every run the same set and dict orders
        # inside the server, one source of run-to-run variance less.
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        words = self._read_line(START_TIMEOUT).split()
        if len(words) != 2 or words[0] != "READY":
            self.stop()
            raise RuntimeError(f"server did not start: {words!r}")
        self.port = int(words[1])

    def _read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline().strip() if ready else ""

    def command(self, line: str, timeout: float = 120.0) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        if self._read_line(timeout) != "ok":
            raise RuntimeError(f"server did not answer {line!r}")

    def _pids(self) -> list[int]:
        """The server and every process below it (solver pools)."""
        pids, queue = [], [self.proc.pid]
        while queue:
            pid = queue.pop()
            pids.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as f:
                        queue.extend(int(child) for child in f.read().split())
            except OSError:
                continue
        return pids

    def cpu_seconds(self) -> float:
        """User+system CPU of the server and its live and reaped children."""
        ticks = 0
        for pid in self._pids():
            try:
                with open(f"/proc/{pid}/stat") as f:
                    fields = f.read().rpartition(")")[2].split()
            except OSError:
                continue
            # utime, stime, cutime, cstime are fields 14-17 of stat(5).
            ticks += sum(int(value) for value in fields[11:15])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
                self.proc.stdin.close()
                self.proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


class Run:
    """One server with its populated workload, ready for the timed phase."""

    def __init__(self, workloads, name: str, seed: int, store_root: Path,
                 trace: int) -> None:
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[name](seed)
        started = time.perf_counter()
        self.server = ServerProcess(self.workload, store_root, trace)
        try:
            asyncio.run(self._populate())
        except BaseException:
            self.server.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _client(self, log):
        from repro.service.transport import AsyncFleetClient

        client = AsyncFleetClient("127.0.0.1", self.server.port, timeout=120.0)
        return self.workloads.Conn(client, log)

    async def _populate(self) -> None:
        conn = self._client(self.workloads.RpcLog())
        try:
            await self.workload.populate(conn)
        finally:
            await conn.client.close()

    def measure(self, seconds: float, trace_dir: Path | None) -> dict:
        return asyncio.run(self._measure(seconds, trace_dir))

    async def _measure(self, seconds: float, trace_dir: Path | None) -> dict:
        workload = self.workload
        # The timed window opens with one status call and closes with
        # another.  The server's phase totals cover the calls in between
        # plus the first status call (its phases are accounted after its
        # answer was built), and so does this log.
        log = self.workloads.RpcLog()
        probe = self._client(log)
        conn = self._client(log)
        try:
            for c in (probe, conn):
                await c.client.connect()
            if trace_dir is not None:
                self.server.command("reset")
            before = await self._status(probe)
            cpu = self.server.cpu_seconds()
            steal = host_steal_seconds()
            started = time.perf_counter()
            rss_watch = asyncio.ensure_future(
                self._rss_after(log, workload.rss_after_ops)
            )
            await workload.drive(conn, started + seconds)
            wall = time.perf_counter() - started
            cpu = self.server.cpu_seconds() - cpu
            steal = host_steal_seconds() - steal
            rss = rss_watch.result() if rss_watch.done() else None
            rss_watch.cancel()
            probe.log = self.workloads.RpcLog()
            after = await self._status(probe)
            if rss is None:
                rss = self.server.peak_rss_mb()
            summary = None
            if trace_dir is not None:
                self.server.command(f"dump {trace_dir}")
                summary = json.loads((trace_dir / "summary.json").read_text())
            failures = await workload.check(probe)
            final = await self._status(probe)
        finally:
            for c in (probe, conn):
                await c.client.close()
        if final is None or final["internal_errors"] != 0:
            failures.append("status.internal_errors is not 0")
        return {
            "log": log, "wall": wall, "cpu": cpu, "rss": rss, "steal": steal,
            "rounds": workload.rounds,
            "before": before, "after": after, "summary": summary,
            "failures": log.errors + failures,
            # Every RPC of the window and every check is one attempt.
            "attempted": log.requests + workload.checks_run() + 1,
            "failed": log.failed + len(failures),
        }

    async def _rss_after(self, log, ops: int | None) -> float | None:
        """The server's peak RSS once ``ops`` primary ops are done."""
        if ops is None:
            return None
        while len(log.primary) < ops:
            await asyncio.sleep(0.05)
        return self.server.peak_rss_mb()

    @staticmethod
    async def _status(conn):
        result, error = await conn.call("status")
        return None if error is not None else result

    def stop(self) -> None:
        self.server.stop()


def host_steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests while this one's
    CPUs had work (``steal`` of ``/proc/stat``), summed over CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def pin_to_one_cpu() -> None:
    """Run this process and the server it spawns on one CPU.

    A closed loop over one connection keeps at most one of them busy at
    a time, so a second CPU buys no parallelism; what it costs on a
    virtual machine is a wake-up of an idle virtual CPU at every hand-off
    between client and server, whose delay follows the host's load."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def throughput(result: dict) -> float:
    """Primary ops per second of the median complete round: not the
    round the deadline cut short, nor the untimed work before each
    round, and not the few rounds a stall of the host slowed down.  A
    window too short for one round counts all of it."""
    rounds = result["rounds"]
    if not rounds:
        return len(result["log"].primary) / result["wall"]
    return statistics.median(len(r.latencies) / r.seconds for r in rounds)


def end_to_end(result: dict, setups: list[float]) -> dict:
    latencies = result["log"].primary
    ops = len(latencies)
    return {
        "ops_per_s": (throughput(result), "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "server_cpu_ms_per_op": (result["cpu"] * 1e3 / ops, "ms"),
        "server_rss_mb": (result["rss"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(result: dict, plain_ops_per_s: float, ops: int) -> dict:
    """Per-request means of the transport phases and of every layer's
    self time over the traced window, plus the layers' counts."""
    before, after, summary = result["before"], result["after"], result["summary"]
    spans, counts = summary["spans"], summary["counts"]
    requests = after["requests_total"] - before["requests_total"]
    log = result["log"]
    client_us = log.seconds / requests * 1e6

    def phase(name: str) -> float:
        seconds = after["phase_seconds"][name] - before["phase_seconds"][name]
        return seconds / requests * 1e6

    def self_us(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names) / requests * 1e6

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    metrics = {f"transport.{p}_us": (phase(p), "us") for p in PHASES}
    served = sum(metrics[f"transport.{p}_us"][0] for p in PHASES)
    unattributed = client_us - served
    metrics["transport.unattributed_us"] = (unattributed, "us")
    encode = self_us("transport.encode")
    metrics["transport.encode_us"] = (encode, "us")
    inside = 0.0
    for metric, names in EXECUTE_LAYERS.items():
        metrics[metric] = (self_us(*names), "us")
        inside += metrics[metric][0]
    metrics["transport.execute_other_us"] = (
        metrics["transport.execute_us"][0] - inside, "us"
    )
    examined = counts.get("prescreen_pruned_pairs", 0) + counts.get("planned_pairs", 0)
    lookups = (counts.get("cache_hits", 0) + counts.get("shared_cache_hits", 0)
               + counts.get("solver_calls", 0))
    commits = calls("store.commit")
    metrics.update({
        "detector.pairs_per_op": (counts.get("pairs_examined", 0) / ops, "count"),
        "detector.prescreen_pruned_ratio": (
            counts.get("prescreen_pruned_pairs", 0) / examined if examined else 0.0,
            "ratio"),
        "detector.cache_hit_ratio": (
            (lookups - counts.get("solver_calls", 0)) / lookups if lookups else 0.0,
            "ratio"),
        "constraints.solver_calls_per_op": (
            counts.get("solver_calls", 0) / ops, "count"),
        "store.bytes_per_commit": (
            counts.get("commit_bytes", 0) / commits if commits else 0.0, "B"),
        "store.compactions": (calls("store.save"), "count"),
        "store.hydrations_per_op": (calls("store.load") / ops, "count"),
        "monitor.observations_per_op": (counts.get("observations", 0) / ops, "count"),
        "symex.extract_s": (
            summary["preload"]["extract"].get("self_s", 0.0), "s"),
        "symex.apps": (summary["preload"]["extract"].get("calls", 0), "count"),
        "trace.client_mean_us": (client_us, "us"),
        "trace.overhead_ratio": (plain_ops_per_s / throughput(result), "ratio"),
        "trace.unattributed_share": (
            (unattributed - encode + metrics["transport.execute_other_us"][0])
            / client_us, "ratio"),
    })
    return metrics


def git_commit() -> str | None:
    """The checkout's commit, or ``None`` when it has no ``.git``."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, workload, result: dict) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "clients": 1,
        "store_backend": workload.store,
        "solve_cache": workload.solve_cache,
        "shape": workload.shape(),
        "properties": workload.properties(),
        "requests": result["log"].requests,
        "primary_ops": len(result["log"].primary),
        "latency_p99_ms": percentile(result["log"].primary, 0.99) * 1e3,
        "host_steal_s": result["steal"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside, still stop the server and remove the stores.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "service").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402 (perfbench/, imports repro)

    pin_to_one_cpu()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        results[name] = run_workload(args, workloads, name)
        if results[name] is None:
            return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def run_workload(args, workloads, name: str) -> dict | None:
    """Set up, measure and check one workload; print its report and
    return its result object, or ``None`` when it could not run."""
    base = WORK / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    runs: list[Run] = []
    try:
        def start(tag: str, trace: int) -> Run:
            run = Run(workloads, name, args.seed, base / tag, trace)
            runs.append(run)
            return run

        if not args.trace:
            setups = []
            for n in range(SETUPS):
                run = start(f"setup{n}", 0)
                setups.append(run.setup_s)
                if n < SETUPS - 1:
                    run.stop()
            result = run.measure(args.seconds, None)
            metrics = end_to_end(result, setups)
        else:
            plain = start("plain", 0)
            plain_result = plain.measure(args.seconds, None)
            plain.stop()
            plain_ops = throughput(plain_result)
            run = start("traced", 1)
            result = run.measure(args.seconds, base / "trace")
            spans_out = WORK / f"spans-{name}-{args.seed}.jsonl"
            shutil.copyfile(base / "trace" / "spans.jsonl", spans_out)
            metrics = per_layer(result, plain_ops, len(result["log"].primary))
            for key in ("failures", "attempted", "failed"):
                result[key] = plain_result[key] + result[key]
        run.stop()
    except (workloads.SetupError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    finally:
        for run in runs:
            run.stop()
        shutil.rmtree(base, ignore_errors=True)

    log = result["log"]
    failures = result["failures"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}  seed {args.seed}  "
          f"{len(log.primary)} ops  {log.requests} requests  "
          f"{result['wall']:.2f} s")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:34s} {value:14.4f} {unit}")
    p99 = percentile(log.primary, 0.99) * 1e3
    print(f"  {'latency_p99_ms':34s} {p99:14.4f} ms")
    print(f"  {'error_rate':34s} {failed / attempted:14.4f} ratio")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"provenance": provenance(args, run.workload, result)}))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in metrics.items()
        },
    }



if __name__ == "__main__":
    sys.exit(main())
