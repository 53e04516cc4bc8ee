"""Benchmark of the rescal workbench.

    python3 perfbench/run.py --workload sweep|church|search|cli|all \
        [--seed N] [--seconds S] [--trace 0|1] [--tiny] [--record]

Run from any directory; the library is imported from src/ beside this
directory.  With --trace 0 the workload runs untraced for S seconds and
prints the end-to-end metrics.  With --trace 1 it runs a fixed number of
inputs untraced, then the same inputs traced, and prints the per-layer
metrics.  End-to-end timings are scaled to a fixed machine speed, read by
a pure-Python probe between inputs.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is
"outputs " and a JSON object with the run digest and the verdict of the
reference digests.  --workload all runs each
workload in its own process, one after another.  --record rewrites the
reference digests in perfbench/reference.json from one pass at the
default seed.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
from array import array  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
BLOCK = 500  # inputs per reference digest block, and per throughput chunk
DIGEST_INPUTS = 2000  # the printed run digest covers this many inputs of the order
PROBE_EVERY_S = 0.1  # wall time between two speed probes in a measured run
REFERENCE_PROBE_S = 0.001  # timings are reported at the speed where one probe takes this long
END_TO_END = {
    "setup_s": "s",
    "inputs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "decided_frac": "ratio",
}
WORKLOAD_NAMES = ("sweep", "church", "search", "cli")


def pin_interpreter():
    """Re-execute under a fixed hash seed, so set and dict orders repeat run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def import_library():
    """Import rescal from the checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "rescal" / "__init__.py").is_file():
        print(f"error: {src / 'rescal'} not found; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import rescal
    import rescal.cli

    if Path(rescal.__file__).resolve().parent != (src / "rescal").resolve():
        print(f"error: rescal was imported from {rescal.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return rescal


def environment() -> dict:
    return {
        "git": git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe() -> float:
    """Wall time of a fixed piece of pure-Python work that does not touch
    the library, with the garbage collector off: a reading of the machine's
    speed at this moment."""
    gc.disable()
    start = time.perf_counter()
    d = {}
    for k in range(6000):
        d[k % 97] = d.get(k % 97, 0) + k * k % 13
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """A wall time scaled to the speed at which one probe takes REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / probe_s


def digest(parts) -> str:
    return hashlib.sha1("\x1f".join(parts).encode("utf-8")).hexdigest()[:16]


class Run:
    """Outcomes of the inputs of one measured pass over a workload.

    Per-input records are packed (8 bytes a number or a digest), so that
    the run's own memory hardly grows with the number of inputs it gets
    through and peak_rss_mb does not rise when the library gets faster.
    """

    def __init__(self, n_items: int):
        self.n = n_items
        self.latencies = array("d")
        self.probes = array("d")  # per input: the last probe before it
        self.completed = bytearray()  # per input: 1 if it finished without raising
        self.attempted = 0
        self.raised: Counter = Counter()
        self.errors: Counter = Counter()
        self.incorrect: Counter = Counter()
        self.decided = 0
        self.failed = 0  # inputs that raised, ended in an error, or answered wrongly
        self.digests = bytearray()  # per input, in processing order, 8 bytes each
        self.wall = 0.0

    def add_digest(self, hex_digest: str) -> None:
        self.digests += bytes.fromhex(hex_digest)

    def digest_of(self, lo: int, hi: int) -> str:
        """Digest of the per-input digests of inputs lo..hi-1."""
        return digest([self.digests[8 * i:8 * i + 8].hex() for i in range(lo, hi)])

    def blocks(self) -> list[tuple[int, str]]:
        """(block number within the pass, digest) of every complete block of
        every pass, in processing order.

        Inputs are cycled in the same order every pass, so block b of one
        pass must digest exactly as block b of any other pass.
        """
        out = []
        size = min(self.n, BLOCK)
        done = len(self.digests) // 8
        for start in range(0, done, self.n):
            for b in range(math.ceil(self.n / size)):
                lo, hi = start + b * size, start + min((b + 1) * size, self.n)
                if hi <= done:
                    out.append((b, self.digest_of(lo, hi)))
        return out

    def run_digest(self, k: int) -> str | None:
        """Digest of the first k inputs of the order, or None when fewer completed."""
        return self.digest_of(0, k) if len(self.digests) // 8 >= k else None


def run_input(workload, L, item, run: Run, tracer=None, input_id=None):
    """Rebuild, time the work, then check one input."""
    if tracer is not None:
        tracer.input_id = input_id
        top = tracer.open("input")
    subject = workload.subject(item)
    run.attempted += 1
    if tracer is not None:
        span = tracer.open("work")
    start = time.perf_counter()
    try:
        out = workload.work(L, subject)
    except Exception as e:  # a raising input is a failed operation, reported by name
        run.latencies.append(time.perf_counter() - start)
        run.completed.append(0)
        if tracer is not None:
            tracer.close(span)
            tracer.close(top)
        run.raised[f"{item.label[:60]}: {type(e).__name__}"] += 1
        run.failed += 1
        run.add_digest(digest(["raised", type(e).__name__]))
        return
    run.latencies.append(time.perf_counter() - start)
    run.completed.append(1)
    if tracer is not None:
        tracer.close(span)
        span = tracer.open("check")
    try:
        checked = workload.check(L, subject, out)
        problems, errors = checked.problems, checked.failures
    except Exception as e:  # a check that cannot run is a failed check
        checked, problems, errors = None, [f"check raised {type(e).__name__}: {e}"], []
    if tracer is not None:
        tracer.close(span)
        tracer.close(top)
    for p in problems:
        run.incorrect[f"{item.label[:60]}: {p}"] += 1
    for p in errors:
        run.errors[f"{item.label[:60]}: {p}"] += 1
    run.failed += bool(problems or errors)
    run.decided += bool(checked and checked.decided and not problems)
    run.add_digest(digest(checked.digest) if checked else digest(["check-raised"]))


def measure(workload, L, items, order, seconds=None, limit=None, tracer=None) -> Run:
    """Cycle through the inputs in the seeded order.

    With a limit, stop after that many inputs.  Otherwise stop once
    `seconds` have passed; a set of at most BLOCK inputs is measured in
    whole passes, so that every run of it has the same composition.
    """
    n = len(items)
    run = Run(n)
    start = time.perf_counter()
    next_probe = start
    i = 0
    while True:
        now = time.perf_counter()
        if limit is not None:
            if i >= limit:
                break
        elif now - start >= seconds and (n > BLOCK or i % n == 0):
            break
        if now >= next_probe:
            last_probe = probe()
            next_probe = time.perf_counter() + PROBE_EVERY_S
        run_input(workload, L, items[order[i % n]], run, tracer, i)
        run.probes.append(last_probe)
        i += 1
    run.wall = time.perf_counter() - start
    return run


def percentile(sorted_values, p):
    """Nearest-rank percentile, with the number of samples above it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def scaled_latencies(run: Run) -> array:
    """Each input's wall time at the reference speed, by the probe before it."""
    return array("d", (at_reference_speed(t, p) for t, p in zip(run.latencies, run.probes)))


def chunk_rates(run: Run, latencies: array) -> list[float]:
    """Inputs completed per second of timed work, in each complete chunk of
    the run; a chunk is one block of the order (a whole pass when the
    set is small), so chunks of the same run have like compositions."""
    size = min(run.n, BLOCK)
    rates = []
    for lo in range(0, len(latencies) - size + 1, size):
        done = sum(run.completed[lo:lo + size])
        rates.append(done / sum(latencies[lo:lo + size]))
    return rates


def end_to_end(run: Run, setup_s: float, tail_p: float) -> tuple[dict, str]:
    """The timed metrics at the reference speed, from the probed latencies."""
    scaled = scaled_latencies(run)
    lat = sorted(scaled)
    metrics = {
        "setup_s": setup_s,
        "inputs_per_s": statistics.median(chunk_rates(run, scaled)),
        "latency_p50_ms": statistics.median(lat) * 1e3,
    }
    value, beyond = percentile(lat, tail_p)
    metrics["latency_tail_ms"] = value * 1e3
    tail = f"p{tail_p:g} of {len(lat)} samples, {beyond} beyond it"
    if beyond < 10:
        tail += "; fewer than 10 beyond, so this run is too short for the tail"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["decided_frac"] = run.decided / run.attempted
    return metrics, tail


def load_reference(name, seed, n, tiny):
    if tiny or seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text()).get(name)
    if ref is None or ref["inputs"] != n or ref["block"] != min(n, BLOCK):
        return None
    return ref["blocks"]


def compare_reference(run: Run, ref_blocks) -> tuple[list[int], int]:
    """Positions, in the run, of the completed blocks whose digest differs
    from the reference block of the same number, and blocks compared."""
    got = run.blocks()
    return [i for i, (b, d) in enumerate(got) if ref_blocks[b] != d], len(got)


def set_up(name, rescal, L, tiny, seed):
    """Generate the inputs and their seeded order, warm up on one fixed
    input, collect garbage."""
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](rescal, WORK_DIR)
    items, warmup = workload.inputs(seed, tiny)
    order = list(range(len(items)))
    random.Random(seed).shuffle(order)
    run_input(workload, L, warmup, Run(1))
    gc.collect()
    gc.freeze()  # the inputs stay alive all run; keep them out of later collections
    return workload, items, order


def check_outputs(args, run: Run, k: int) -> dict:
    """Compare the run's outputs with the reference blocks (default seed and
    full size only), and digest the first k inputs of the order, so that
    two commits can be compared at any seed."""
    outputs = {"digest_inputs": k, "run_digest": run.run_digest(k),
               "reference_blocks": None, "reference_differing": None}
    ref_blocks = load_reference(args.workload, args.seed, run.n, args.tiny)
    if ref_blocks is not None:
        bad, compared = compare_reference(run, ref_blocks)
        outputs.update(reference_blocks=compared, reference_differing=len(bad))
        print(f"reference digests: {compared - len(bad)}/{compared} blocks match" +
              (f"; differing blocks {bad[:10]}" if bad else ""))
    else:
        print("reference digests: none for this seed and size; compare the run digest between commits")
    print(f"run digest over the first {k} inputs of the order: {outputs['run_digest']}")
    return outputs


def report_known_defects(workload, L, outputs: dict) -> None:
    """Run the workload's known-defect inputs once, untimed, and list each
    by name with what happened; they are not inputs of the run, so they
    count in neither attempted nor failed."""
    if not hasattr(workload, "known_defects"):
        return
    outcomes = workload.known_defects(L)
    outputs["known_defects"] = outcomes
    print("known defects, run once outside the timed inputs:")
    for name, outcome in outcomes.items():
        print(f"  {name:20s} {'documented answer (fixed)' if outcome == 'ok' else outcome}")


def finish(correct, run: Run, metrics: dict, units: dict, outputs: dict):
    """The outputs line, then the result line, which is the last line printed."""
    print("outputs " + json.dumps(outputs))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def print_failures(run: Run) -> None:
    """Every failed input by name, with how often it failed."""
    for kind, counts in (("raised", run.raised), ("error", run.errors), ("incorrect", run.incorrect)):
        for label, count in sorted(counts.items()):
            print(f"  {kind:10s} x{count}  {label}")


def main_one(args) -> int:
    rescal = import_library()
    import_s = at_reference_speed(time.perf_counter() - T0, statistics.median(probe() for _ in range(5)))
    import tracing
    import workloads

    run_cli = workloads.make_run_cli(rescal.cli.main)
    L = tracing.bind(rescal, None, run_cli)
    repeats = 1 if (args.tiny or args.trace or args.record) else SETUP_REPEATS
    setups = []
    for _ in range(repeats):
        # Release the previous input set first, so that only one is ever alive.
        workload = items = order = None
        gc.unfreeze()
        gc.collect()
        before = probe()
        start = time.perf_counter()
        workload, items, order = set_up(args.workload, rescal, L, args.tiny, args.seed)
        elapsed = time.perf_counter() - start
        setups.append(at_reference_speed(elapsed, (before + probe()) / 2))
    setup_s = import_s + statistics.median(setups)
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  inputs {len(items)}  "
          f"git {env['git'][:12]}  python {env['python']}  nproc {env['nproc']}  loadavg {env['loadavg']}")

    if args.record:
        run = measure(workload, L, items, order, limit=len(items))
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        blocks = [d for _, d in run.blocks()]
        ref[args.workload] = {"seed": args.seed, "inputs": len(items), "block": min(len(items), BLOCK),
                              "git": env["git"], "blocks": blocks}
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(blocks)} reference blocks for {args.workload}; failed {run.failed}")
        print_failures(run)
        return 0

    if args.trace:
        limit = min(workload.trace_inputs or len(items), len(items))
        gc.collect()
        untraced = measure(workload, L, items, order, limit=limit)
        tracer = tracing.Tracer()
        traced_L = tracing.bind(rescal, tracer, run_cli)
        gc.collect()
        run = measure(workload, traced_L, items, order, limit=limit, tracer=tracer)
        spans_file = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        metrics = tracer.metrics()
        units = tracing.per_layer_units()
        outputs = check_outputs(args, run, limit)
        report_known_defects(workload, L, outputs)
        correct = not run.incorrect and run.digests == untraced.digests and not outputs["reference_differing"]
        print(f"traced {limit} inputs: untraced {untraced.wall:.3f} s, traced {run.wall:.3f} s, "
              f"tracing overhead {run.wall - untraced.wall:.3f} s; {len(tracer.spans)} spans in {spans_file}")
        for name, unit in units.items():
            value = metrics[name]
            shown = f"{value:.6f}" if unit == "s" or isinstance(value, float) else str(value)
            print(f"  {name:38s} {shown:>16s} {unit}")
        print_failures(run)
        finish(correct, run, metrics, units, outputs)
        return 0

    run = measure(workload, L, items, order, seconds=args.seconds)
    metrics, tail = end_to_end(run, setup_s, workload.tail_percentile)
    outputs = check_outputs(args, run, min(len(items), DIGEST_INPUTS))
    report_known_defects(workload, L, outputs)
    correct = not run.incorrect and not outputs["reference_differing"]
    rates = chunk_rates(run, scaled_latencies(run))
    raw_rate = statistics.median(chunk_rates(run, run.latencies))
    print(f"measured {run.attempted} inputs in {run.wall:.3f} s wall, {sum(run.latencies):.3f} s in timed work; "
          f"inputs_per_s is the median of {len(rates)} chunks of {min(run.n, BLOCK)} inputs "
          f"(range {min(rates):.1f} to {max(rates):.1f})")
    print(f"speed probe: median {statistics.median(run.probes) * 1e3:.3f} ms, range "
          f"{min(run.probes) * 1e3:.3f} to {max(run.probes) * 1e3:.3f} ms; timings below are at the speed where it "
          f"takes {REFERENCE_PROBE_S * 1e3:g} ms; unscaled: inputs_per_s {raw_rate:.1f}, "
          f"latency_p50_ms {statistics.median(run.latencies) * 1e3:.4f}")
    print(f"  {'setup_s':18s} {metrics['setup_s']:12.4f} s      import {import_s:.4f} s + median of "
          f"{repeats} set-ups {[round(s, 4) for s in setups]}")
    for name in ("inputs_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb", "decided_frac"):
        note = f"  ({tail})" if name == "latency_tail_ms" else ""
        print(f"  {name:18s} {metrics[name]:12.4f} {END_TO_END[name]}{note}")
    print(f"  {'error_rate':18s} {run.failed / run.attempted:12.4f} ratio  ({run.failed}/{run.attempted})")
    print_failures(run)
    finish(correct, run, metrics, END_TO_END, outputs)
    return 0


def main_all(args) -> int:
    """Each workload in a fresh process, one after another.  The last line
    maps each workload to its result object, with its outputs record added
    under "outputs"."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = dict(json.loads(lines[-1]), outputs=json.loads(lines[-2].removeprefix("outputs ")))
        print()
    print(json.dumps(results))
    return status


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="rescal benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    p.add_argument("--record", action="store_true", help="rewrite the reference digests (default seed)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record and (args.seed != DEFAULT_SEED or args.tiny):
        print("error: --record needs the default seed and full-size inputs", file=sys.stderr)
        return 2
    if args.workload == "all":
        return main_all(args)
    sys.path.insert(0, str(HERE))
    return main_one(args)


if __name__ == "__main__":
    pin_interpreter()
    sys.exit(main())
