"""Collect repeated benchmark runs and compare two collections.

    python3 perfbench/compare.py collect --out A.json [--trace 0|1]
    python3 perfbench/compare.py diff A.json B.json

collect runs `perfbench/run.py --workload all` once for each of the seeds
1..10, each workload in its own process, for the run_seconds that
BENCHMARK.json fixes.  It keeps every workload's result and outputs
record, and prints each metric's median and quartile spread (q3 - q1 over
the median) beside the bound that BENCHMARK.json fixes for it.  diff
compares two collections made on two commits, workload by workload: a
seed whose run digests differ is listed as changed output, and each
metric reads "worse" when the second median is worse than the first by
more than the bound, "unresolved" when either side's spread is wider
than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def summarize(results: list[dict]) -> dict[str, list[float]]:
    by_metric: dict[str, list[float]] = {}
    for r in results:
        for name, m in r["metrics"].items():
            by_metric.setdefault(name, []).append(m["value"])
    return by_metric


def collect(args) -> int:
    spec = bench_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"trace": args.trace, "results": {}}
    status = 0
    for seed in SEEDS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
        for w, result in (json.loads(lines[-1]) if lines else {}).items():
            out["results"].setdefault(w, []).append(dict(result, seed=seed))
            if not result["correct"]:
                print(f"{w} seed {seed}: incorrect output", file=sys.stderr)
                status = 1
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for w, runs in out["results"].items():
        print(f"{w}: {len(runs)} runs, failed {[r['failed'] for r in runs]}")
        for name, values in summarize(runs).items():
            q1, med, q3 = quartiles(values)
            bound = bounds.get(name)
            s = spread(values)
            mark = "" if bound is None else ("  ok" if s <= bound / 3 else ("  within bound" if s <= bound else "  TOO WIDE"))
            print(f"  {name:38s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {s:7.4f}"
                  + ("" if bound is None else f"  bound {bound}") + mark)
            print(f"  {'':38s} runs in seed order: {' '.join(f'{v:.4g}' for v in values)}")
    return status


def changed_outputs(ra: list[dict], rb: list[dict]) -> tuple[list[int], list[int]]:
    """Seeds whose run digests differ between the two sides, and seeds with a
    digest on both sides (a run too short to digest its prefix has none)."""
    da = {r["seed"]: r["outputs"]["run_digest"] for r in ra}
    db = {r["seed"]: r["outputs"]["run_digest"] for r in rb}
    compared = sorted(s for s in da.keys() & db.keys() if da[s] and db[s])
    return [s for s in compared if da[s] != db[s]], compared


def diff(args) -> int:
    spec = bench_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a = json.loads(Path(args.a).read_text())["results"]
    b = json.loads(Path(args.b).read_text())["results"]
    bad = 0
    for w in a:
        if w not in b:
            continue
        changed, compared = changed_outputs(a[w], b[w])
        incorrect = sorted({r["seed"] for r in a[w] + b[w] if not r["correct"]})
        bad += bool(changed or incorrect)
        print(f"{w}: run digests compared at seeds {compared}; "
              f"changed output at seeds {changed or 'none'}; incorrect runs at seeds {incorrect or 'none'}")
        va, vb = summarize(a[w]), summarize(b[w])
        for name in va:
            if name not in vb:
                continue
            ma, mb = statistics.median(va[name]), statistics.median(vb[name])
            m = metrics.get(name, {})
            sign = -1 if m.get("better") == "higher" else 1
            change = sign * (mb - ma) / ma if ma else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                if max(spread(va[name]), spread(vb[name])) > bound:
                    verdict = "unresolved"
                elif change > bound:
                    verdict = "worse"
                    bad += 1
                else:
                    verdict = "ok"
            print(f"  {name:38s} {ma:14.6g} -> {mb:14.6g}  worse by {change:+8.2%}  {verdict}")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.set_defaults(run=collect)
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    d.set_defaults(run=diff)
    args = p.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
