#!/usr/bin/env python3
"""Wall-clock benchmark of reprocmp: the CLI's two compare paths and a
TCP daemon job mix. See README.md for the workloads and metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cli-onthefly --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 7 --seconds 20

It builds the `reprocmp` binary and the `perfbench` helper from source
into $CARGO_TARGET_DIR (default `.bench_build`), works in `.bench_work/`,
and prints human-readable lines followed by one JSON result line. Every
time is wall-clock, measured here or by the helper around public calls;
none is read from `compare --profile/--json`, whose capture phases are
modeled time under the default `sim_gpu` device.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

EPS_CLI = {"cli-onthefly": 1e-5, "cli-stored": 1e-7}
SPEC_CLI = {"cli-onthefly": "hacc_like", "cli-stored": "hacc_like_late"}
DAEMON_EPS = 1e-5
WORKLOADS = ["cli-onthefly", "cli-stored", "daemon-mix"]

# Input sizes: each CLI file is 64 MiB, 32x the 2 MiB per-core L2 of the
# reference box; daemon objects are 4 MiB. --tiny shrinks everything for
# the smoke test.
SIZES = {
    False: {"cli_values": 16 << 20, "daemon_values": 1 << 20, "pairs": 4, "reps_cli": 3, "reps_daemon": 5},
    True: {"cli_values": 1 << 18, "daemon_values": 1 << 18, "pairs": 2, "reps_cli": 1, "reps_daemon": 1},
}
SETUPS = 3            # set-ups per run; setup_s is their median
DAEMON_CLIENTS = 2    # closed-loop clients, at most nproc on the reference box
DAEMON_RSS_JOBS = 64  # the daemon's peak RSS is read after this many jobs
CLI_MIN_SAMPLES = 5   # timed compare processes per run, even past --seconds
TRACE_CLI_SAMPLES = 5 # untraced compare processes in a traced run

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"


class BenchError(Exception):
    """The benchmark cannot produce a result (build or set-up failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Builds the CLI binary (a root `cargo build --release` builds only
    the library) and the helper; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise BenchError(f"{ROOT} is not a reprocmp checkout (no Cargo.toml / crates/cli)")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "reprocmp-cli", "--bin", "reprocmp"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return target / "release" / "reprocmp", target / "release" / "perfbench"


# ------------------------------------------------------------ utilities

def helper_json(helper, *args):
    out = subprocess.run([str(helper), *map(str, args)], stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise BenchError(f"perfbench {args[0]} failed (exit {out.returncode})")
    return json.loads(out.stdout)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); None below eleven samples."""
    n = len(xs)
    if n < 11:
        return None
    return sorted(xs)[n - 11], 100.0 * (n - 10) / n, n


def fmt_tail(name, xs):
    t = tail(xs)
    if t is None:
        return f"{name}: n/a ({len(xs)} samples, fewer than 11)"
    return f"{name}: {t[0]:.6f} s (p{t[1]:.1f} of {t[2]} samples)"


def provenance():
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((l.split(":", 1)[1].strip() for l in cpuinfo.splitlines() if l.startswith("model name")), None)
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = read(idx / "level"), read(idx / "type"), read(idx / "size")
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    try:
        rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True).stdout.strip()
    except OSError:
        rustc = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True).stdout.strip() or None
    except OSError:
        commit = None
    # The checkout may not be a git repository: a digest of the sources
    # identifies the code either way.
    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")) + [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "rustc": rustc,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


# ------------------------------------------------------------ processes

class Procs:
    """Tracks started daemons so every one is stopped and reaped."""

    def __init__(self):
        self.live = []

    def start_daemon(self, cli, store, wd):
        addr_file = wd / "daemon.addr"
        addr_file.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [str(cli), "serve", "--store", str(store), "--addr", "127.0.0.1:0", "--addr-file", str(addr_file)],
            stdout=subprocess.DEVNULL,
        )
        self.live.append(proc)
        deadline = t0 + 30
        while time.perf_counter() < deadline:
            if proc.poll() is not None:
                raise BenchError(f"daemon exited early (code {proc.returncode})")
            text = addr_file.read_text().strip() if addr_file.exists() else ""
            if re.fullmatch(r"[\d.]+:\d+", text):
                return proc, text, time.perf_counter() - t0
            time.sleep(0.005)
        raise BenchError("daemon did not publish its address within 30 s")

    def stop_daemon(self, cli, proc, addr):
        subprocess.run([str(cli), "shutdown", "--addr", addr], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=60)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self.live.remove(proc)

    def kill_all(self):
        for proc in self.live:
            proc.kill()
            proc.wait()
        self.live.clear()


def cpu_steal_ticks():
    """(steal, total) CPU ticks from /proc/stat: time the hypervisor gave
    this machine's vCPUs to someone else shows up as steal."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


RESULT_RE = re.compile(r"^RESULT: (?:(\d+) values differ beyond the bound|runs agree within the bound)$", re.M)


def timed_compare(cmd, oracle, wd):
    """Runs one `reprocmp compare`; returns (wall s, peak RSS MiB, error).
    Peak RSS is the kernel's high-water mark for the process (VmHWM),
    taken from wait4 because the process is gone before /proc can be
    read."""
    with open(wd / "compare.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()
    if proc.returncode != 0:
        return wall, 0.0, f"compare exited {proc.returncode}: {stderr[:200]}"
    m = RESULT_RE.search(out.decode(errors="replace"))
    found = int(m.group(1) or 0) if m else None
    if found != oracle:
        return wall, 0.0, f"compare reported {found} diffs, oracle {oracle}"
    return wall, usage.ru_maxrss / 1024.0, None


# ------------------------------------------------------------ workloads

def cli_setup(workload, cli, helper, wd, seed, size):
    """Writes the pair (and, for cli-stored, its metadata); returns
    (seconds, gen result, compare command)."""
    eps = EPS_CLI[workload]
    t0 = time.perf_counter()
    gen = helper_json(helper, "gen", "--out", wd, "--values", size["cli_values"], "--spec",
                      SPEC_CLI[workload], "--seed", seed, "--eps", eps)
    cmd = [str(cli), "compare", "--run1", str(wd / "run1.ckpt"), "--run2", str(wd / "run2.ckpt"),
           "--error-bound", str(eps)]
    if workload == "cli-stored":
        for r in ("run1", "run2"):
            done = subprocess.run([str(cli), "create-tree", "--input", str(wd / f"{r}.ckpt"), "--output",
                                   str(wd / f"{r}.tree"), "--error-bound", str(eps)], stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                raise BenchError("create-tree failed")
        cmd += ["--tree1", str(wd / "run1.tree"), "--tree2", str(wd / "run2.tree")]
    return time.perf_counter() - t0, gen, cmd


def compare_loop(cmd, oracle, wd, seconds, min_samples):
    """Closed loop of compare processes for `seconds`, and at least
    `min_samples`, after one checked but untimed warm-up. Returns (wall
    times, peak RSS, errors, compares attempted, seconds measured)."""
    walls, rss, errors = [], [], []
    _, _, error = timed_compare(cmd, oracle, wd)
    errors += [error] if error else []
    timed = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or timed < min_samples:
        timed += 1
        wall, peak, error = timed_compare(cmd, oracle, wd)
        if error:
            errors.append(error)
        else:
            walls.append(wall)
            rss.append(peak)
    return walls, rss, errors, timed + 1, time.perf_counter() - t0


def run_cli(workload, cli, helper, wd, args, size):
    lines = []
    setups = []
    for _ in range(SETUPS if not args.trace else 1):
        secs, gen, cmd = cli_setup(workload, cli, helper, wd, args.seed, size)
        setups.append(secs)
    oracle, payload = gen["oracle_diffs"], gen["payload_bytes"]
    lines.append(f"inputs: 2 x {payload / 2**20:.2f} MiB payload, eps {EPS_CLI[workload]:g}, oracle {oracle} diffs")
    if args.trace:
        walls, _, errors, attempted, _ = compare_loop(cmd, oracle, wd, 0, TRACE_CLI_SAMPLES)
        traced = helper_json(helper, "trace", "--dir", wd, "--eps", EPS_CLI[workload], "--stored",
                             int(workload == "cli-stored"), "--reps", size["reps_cli"])
        if traced["oracle_diffs"] != oracle:
            errors.append("traced run's oracle disagrees with the generator's")
        p50 = median(walls)
        metrics = traced_metrics(traced, p50, None)
        layers = ["veloc.read_s", "core.source_s", "core.compare_s"]
        total = sum(metrics[k] for k in layers)
        lines.append(f"compare_p50_s {p50:.6f} s = " + " + ".join(f"{k} {metrics[k]:.6f}" for k in layers)
                     + f" (sum {total:.6f}) + cli.unattributed_s {metrics['cli.unattributed_s']:.6f}")
        lines += self_time_lines(traced)
        return lines, attempted, errors, metrics
    walls, rss, errors, attempted, elapsed = compare_loop(cmd, oracle, wd, args.seconds, CLI_MIN_SAMPLES)
    p50 = median(walls)
    metrics = {
        "compare_p50_s": p50,
        "compare_GBps": 2 * payload / p50 / 1e9 if p50 else 0.0,
        "jobs_per_s": len(walls) / elapsed,
        "peak_rss_MiB": median(rss),
        "setup_s": median(setups),
    }
    lines.append(fmt_tail("compare_tail_s", walls))
    return lines, attempted, errors, metrics


def run_daemon(cli, helper, wd, args, size, procs):
    lines, setups, errors = [], [], []
    n_setups = 1 if args.trace else SETUPS
    for i in range(n_setups):
        store = wd / f"store{i}"
        proc, addr, start_s = procs.start_daemon(cli, store, wd)
        last = i == n_setups - 1
        load = helper_json(helper, "daemon-load", "--addr", addr, "--seed", args.seed, "--values",
                           size["daemon_values"], "--pairs", size["pairs"], "--clients", DAEMON_CLIENTS,
                           "--seconds", args.seconds if last else 0, "--eps", DAEMON_EPS,
                           "--rss-pid", proc.pid, "--rss-jobs", DAEMON_RSS_JOBS)
        setups.append(start_s + load["gen_s"] + load["seed_s"])
        procs.stop_daemon(cli, proc, addr)
        shutil.rmtree(store)
    errors += load["errors"]
    by_verb = {"compare": [], "ingest": [], "materialize": []}
    for verb, latency, ok in load["jobs"]:
        if ok:
            by_verb[verb].append(latency)
    ok_jobs = sum(len(v) for v in by_verb.values())
    obj = load["object_bytes"]
    lines.append(f"inputs: {size['pairs']} pairs of {obj / 2**20:.2f} MiB objects, eps {DAEMON_EPS:g}, "
                 f"{DAEMON_CLIENTS} closed-loop clients, mix compare:materialize:ingest = 2:1:1")
    for verb, lat in by_verb.items():
        lines.append(f"{verb}_job_p50_s: {median(lat):.6f} s ({len(lat)} samples); " + fmt_tail(f"{verb}_job_tail_s", lat))
    if args.trace:
        gen = helper_json(helper, "gen", "--out", wd, "--values", size["daemon_values"], "--spec", "hacc_like",
                          "--seed", args.seed, "--eps", DAEMON_EPS)
        cmd = [str(cli), "compare", "--run1", str(wd / "run1.ckpt"), "--run2", str(wd / "run2.ckpt"),
               "--error-bound", str(DAEMON_EPS)]
        walls, _, cli_errors, cli_attempted, _ = compare_loop(cmd, gen["oracle_diffs"], wd, 0, TRACE_CLI_SAMPLES)
        errors += cli_errors
        traced = helper_json(helper, "trace", "--dir", wd, "--eps", DAEMON_EPS, "--stored", 0,
                             "--reps", size["reps_daemon"])
        metrics = traced_metrics(traced, median(walls), {v: median(l) for v, l in by_verb.items()})
        for verb in by_verb:
            lines.append(f"{verb}_job_p50_s {median(by_verb[verb]):.6f} s: derived "
                         f"server.residual_{verb}_s {metrics[f'server.residual_{verb}_s']:.6f}")
        lines += self_time_lines(traced)
        return lines, len(load["jobs"]) + cli_attempted, errors, metrics
    p50 = median(by_verb["compare"])
    metrics = {
        "compare_p50_s": p50,
        "compare_GBps": 2 * obj / p50 / 1e9 if p50 else 0.0,
        "jobs_per_s": ok_jobs / load["load_s"],
        "peak_rss_MiB": load["rss_MiB"],
        "setup_s": median(setups),
    }
    return lines, len(load["jobs"]), errors, metrics


def traced_metrics(traced, compare_p50, job_p50):
    """Per-layer metrics: the helper's, plus the derived ones.
    `cli.unattributed_s` is the untraced CLI process p50 minus the layer
    times on its path. `server.residual_<verb>_s` (daemon only; 0 on the
    CLI workloads, which start no daemon) is the client-observed p50
    minus the codec and execute times: transport plus queue wait."""
    h = traced["metrics"]
    m = dict(h)
    m["cli.unattributed_s"] = compare_p50 - (h["veloc.read_s"] + h["core.source_s"] + h["core.compare_s"])
    parts = {
        "ingest": ["server.hex_encode_s", "server.request_encode_s", "server.request_decode_s",
                   "server.hex_decode_s", "server.execute_ingest_s"],
        "compare": ["server.execute_compare_s", "server.compare_codec_s"],
        "materialize": ["server.execute_materialize_s", "server.response_encode_s", "server.response_decode_s"],
    }
    for verb, keys in parts.items():
        m[f"server.residual_{verb}_s"] = job_p50[verb] - sum(h[k] for k in keys) if job_p50 else 0.0
    return m


def self_time_lines(traced):
    lines = ["self time per span (median of per-request sums, s):"]
    for root, spans in traced["self_s"].items():
        lines.append(f"  {root}: " + ", ".join(f"{k} {v:.6f}" for k, v in spans.items()))
    return lines


def declared_units(trace):
    """The metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, cli, helper, args, size):
    wd = WORK / workload
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    procs = Procs()
    steal0 = cpu_steal_ticks()
    try:
        if workload == "daemon-mix":
            lines, attempted, errors, metrics = run_daemon(cli, helper, wd, args, size, procs)
        else:
            lines, attempted, errors, metrics = run_cli(workload, cli, helper, wd, args, size)
    finally:
        procs.kill_all()
        shutil.rmtree(wd, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # not empty: leave what is not ours
    units = declared_units(args.trace)
    steal1 = cpu_steal_ticks()
    steal = (steal1[0] - steal0[0]) / max(steal1[1] - steal0[1], 1)
    lines.append(f"cpu steal during the run: {100 * steal:.1f}% of CPU time (other tenants; high values mean noisy figures)")
    lines.append(f"ops_failed_frac: {len(errors) / max(attempted, 1):.6f} ({len(errors)} of {attempted})")
    lines += [f"error: {e}" for e in errors[:5]]
    return lines, {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload and print a summary")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    try:
        cli, helper = build()
        print("provenance: " + json.dumps(provenance()), flush=True)
        size = SIZES[args.tiny]
        results = {}
        for workload in WORKLOADS if args.all else [args.workload]:
            lines, result = run_workload(workload, cli, helper, args, size)
            print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
            for line in lines:
                print("  " + line)
            for name, m in result["metrics"].items():
                value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6f}"
                print(f"  {name}: {value} {m['unit']}")
            results[workload] = result
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    if args.all:
        print(json.dumps({w: r["correct"] for w, r in results.items()}))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
