"""Compare two commits on interleaved, seed-paired runs, or summarise one commit.

    # run two checkouts in turn on shared seeds (the same directory twice is an A/A test)
    python3 perfbench/compare.py run --base BASE_DIR --change CHANGE_DIR \\
        --workload cnml-joints --seeds 1-10 --seconds 25 --out ab.jsonl
    python3 perfbench/compare.py ab ab.jsonl               # change against base, per seed pair
    python3 perfbench/compare.py summary RUNS.jsonl        # one commit: medians and spreads

``run`` starts ``perfbench/run.py`` in each checkout for every seed, base and
change back to back, and alternates which side goes first, so slow drift of
the host's speed reaches both sides of a pair alike.  Each run is appended
to ``--out`` with its side, order and start and end times.

``ab`` refuses a file whose runs are not interleaved pairs.  For each
workload and metric it prints the median and quartiles of each side, the
median of the per-pair ratios change / base (the base of each ratio is the
base run on the same seed), and for end-to-end metrics a status against the
metric's bound in BENCHMARK.json:

* ``unresolved`` -- the pair ratios spread (quartile distance over median)
  more than the bound, or the base runs of the later half of the pairs
  differ from those of the earlier half by more than the bound (the host
  drifted more than the bound while the pairs ran), and not every change
  run beats every base run;
* ``worse``      -- the median pair ratio is worse than 1 by more than the bound;
* ``better``     -- the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians of the two sides differ by more than the
  quartile distance of the base runs;
* ``same``       -- none of these.

``summary`` reads the records ``run.py`` appends to
``.perfbench_out/results.jsonl`` (or the ``run`` output) and prints, per
workload and metric, the median, quartiles and spread of the runs; spreads
above a third of the bound are marked ``!``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RUN_TIMEOUT_S = 900


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def load(path: str) -> list[dict]:
    records = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if not record["correct"]:
            print(f"skipping an incorrect run: {record['workload']} seed {record['seed']}", file=sys.stderr)
            continue
        records.append(record)
    return records


def metric_specs() -> tuple[dict, dict]:
    spec = json.loads(SPEC.read_text())
    return {0: spec["end_to_end"], 1: spec["per_layer"]}, {m["name"]: m for m in spec["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


# ---- run ------------------------------------------------------------------------


def run_one(directory: Path, args, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.time()
    done = subprocess.run(argv, cwd=directory, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    end = time.time()
    if done.returncode != 0:
        raise RuntimeError(f"{directory}: seed {seed} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    lines = done.stdout.strip().splitlines()
    provenance = next((json.loads(line.split(None, 1)[1]) for line in lines if line.startswith("  provenance ")), None)
    return {"workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
            "start": start, "end": end, "provenance": provenance, **json.loads(lines[-1])}


def cmd_run(args) -> int:
    dirs = {"base": Path(args.base).resolve(), "change": Path(args.change).resolve()}
    with open(args.out, "a") as out:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for position, side in enumerate(order):
                record = {"side": side, "position": position, **run_one(dirs[side], args, seed)}
                out.write(json.dumps(record) + "\n")
                out.flush()
                values = "" if args.trace else ", ".join(f"{k}={m['value']:.5g}" for k, m in record["metrics"].items())
                print(f"{args.workload} seed {seed} {side}: correct={record['correct']} {values}", flush=True)
    return 0


# ---- ab -------------------------------------------------------------------------


def pairs_of(records: list[dict]) -> list[tuple[dict, dict]]:
    """(base, change) per seed, in time order; raise unless the runs are interleaved pairs."""
    by_seed: dict[int, dict] = {}
    for r in records:
        side = by_seed.setdefault(r["seed"], {})
        if r["side"] in side:
            raise ValueError(f"seed {r['seed']} has two {r['side']} runs")
        side[r["side"]] = r
    pairs = []
    for seed, side in by_seed.items():
        if set(side) != {"base", "change"}:
            raise ValueError(f"seed {seed} has no {'change' if 'base' in side else 'base'} run")
        pairs.append((side["base"], side["change"]))
    pairs.sort(key=lambda p: min(p[0]["start"], p[1]["start"]))
    spans = [(min(b["start"], c["start"]), max(b["end"], c["end"])) for b, c in pairs]
    for (_, end), (start, _) in zip(spans, spans[1:]):
        if start < end:
            raise ValueError("runs of different seeds overlap in time: not interleaved pairs")
    firsts = [b["start"] < c["start"] for b, c in pairs]
    if len(pairs) > 1 and (all(firsts) or not any(firsts)):
        raise ValueError("the same side ran first in every pair; alternate the order")
    return pairs


def status(base: list[float], change: list[float], ratios: list[float], spec: dict) -> str:
    lower = spec["better"] == "lower"
    all_better = max(change) < min(base) if lower else min(change) > max(base)
    half = len(base) // 2
    drift = abs(statistics.median(base[half:]) / statistics.median(base[:half]) - 1.0) if half else 0.0
    if max(drift, spread(ratios)) > spec["bound"] and not all_better:
        return "unresolved"
    ratio = statistics.median(ratios)
    if (ratio - 1.0 if lower else 1.0 - ratio) > spec["bound"]:
        return "worse"
    wins = sum(1 for r in ratios if (r < 1.0 if lower else r > 1.0))
    q1, med_base, q3 = quartiles(base)
    if wins >= 0.9 * len(ratios) and abs(statistics.median(change) - med_base) > q3 - q1:
        return "better"
    return "same"


def cmd_ab(args) -> int:
    declared, bounded = metric_specs()
    records = load(args.runs)
    code = 0
    for key in sorted({(r["workload"], r["trace"]) for r in records}):
        workload, trace = key
        try:
            pairs = pairs_of([r for r in records if (r["workload"], r["trace"]) == key])
        except ValueError as exc:
            print(f"error: {workload} trace {trace}: {exc}", file=sys.stderr)
            code = 2
            continue
        print(f"\n{workload} ({'per-layer, traced' if trace else 'end to end'}), {len(pairs)} seed pairs;"
              f" columns: base, change, change / base per pair")
        for m in declared[trace]:
            name = m["name"]
            base = [b["metrics"][name]["value"] for b, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            ratios = [c / b for b, c in zip(base, change) if b]
            cells = [f"{name:<46} {m['unit']:<6}"]
            cells += [f"{fmt(side):<34} spread={spread(side):.3f}" for side in (base, change)]
            cells.append(f"ratio {fmt(ratios):<30} spread={spread(ratios):.3f}" if ratios else "ratio n/a (base 0)")
            if name in bounded and ratios:
                cells.append(status(base, change, ratios, bounded[name]))
            print("  " + "  ".join(cells))
    return code


# ---- summary --------------------------------------------------------------------


def cmd_summary(args) -> int:
    declared, _ = metric_specs()
    records = load(args.runs)
    for key in sorted({(r["workload"], r["trace"]) for r in records}):
        workload, trace = key
        runs = [r for r in records if (r["workload"], r["trace"]) == key]
        print(f"\n{workload} ({'per-layer, traced' if trace else 'end to end'}), {len(runs)} runs")
        for m in declared[trace]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            flag = "!" if "bound" in m and s > m["bound"] / 3 else " "
            print(f"  {m['name']:<46} {m['unit']:<6} {fmt(values):<36} spread={s:.3f}{flag}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run base and change interleaved on shared seeds")
    run.add_argument("--base", required=True, help="checkout of the base commit")
    run.add_argument("--change", required=True, help="checkout of the change (the base again for an A/A test)")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    run.add_argument("--seconds", type=int, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True, help="runs file to append to")
    ab = sub.add_parser("ab", help="compare change against base on the pairs of a run file")
    ab.add_argument("runs")
    summary = sub.add_parser("summary", help="medians and spreads of one commit's runs")
    summary.add_argument("runs")
    args = parser.parse_args()
    return {"run": cmd_run, "ab": cmd_ab, "summary": cmd_summary}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
