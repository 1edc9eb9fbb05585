"""The end-to-end benchmark's command line.

Three ways in, one measuring function (:func:`measure.run_once`) behind all::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload; the last stdout line is the result object
        (what BENCHMARK.json's ``command`` runs)
    python3 benchmarks/e2e/run.py run [--seed N] [--workload W] [--scale X]
                                      [--repeat N] [--out PATH]
        every workload, untraced then traced, into one result document
    python3 benchmarks/e2e/run.py compare A.json B.json
        one row per workload x end-to-end metric with a verdict

``src/`` is put on the path here, so no PYTHONPATH is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS_DIR = HERE / "results"
RUN_LIMIT_S = 170


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _with_units(metrics: dict, declared: list[dict]) -> dict:
    """Exactly the declared metrics, in declared order, each with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"run produced no value for {missing}")
    return {
        m["name"]: {**metrics[m["name"]], "unit": m["unit"]} for m in declared
    }


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        extra = "".join(
            f"  {key}={m[key]:.3g}" for key in ("spread", "samples") if key in m
        )
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']:8s}{extra}")


def run_workload(name: str, seed: int, scale: float, trace: bool, spec: dict) -> dict:
    import measure

    result = measure.run_once(name, seed, scale, trace)
    declared = spec["per_layer" if trace else "end_to_end"]
    result["metrics"] = _with_units(result["metrics"], declared)
    return result


# -- the contract command: one workload, one result line -----------------------


def _give_up(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s; giving up")


def driver_main(args: argparse.Namespace) -> int:
    # a wedged SUT must not hold the caller forever; unwinding kills the child
    signal.signal(signal.SIGALRM, _give_up)
    signal.alarm(RUN_LIMIT_S)
    import workloads

    spec = _load_spec()
    scale = args.seconds / workloads.FULL_SECONDS
    result = run_workload(args.workload, args.seed, scale, bool(args.trace), spec)
    _print_metrics(
        f"{args.workload} seed={args.seed} scale={scale:g} trace={args.trace}",
        result["metrics"],
    )
    checks = result["checks"]
    print(f"checks: {json.dumps(checks)}")
    print(f"phases_s: {json.dumps(result['phases_s'])}")
    print(json.dumps({
        "correct": checks["correct"],
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }))
    return 0 if checks["correct"] else 1


# -- the whole suite into one document -------------------------------------------


def _environment() -> dict:
    import numpy

    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        head = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_head": head,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_suite(names: list[str], seed: int, scale: float, spec: dict) -> dict:
    import stack
    import workloads

    started = time.time()
    document = {
        "benchmark": "e2e",
        "seed": seed,
        "scale": scale,
        "op_counts": workloads.op_counts(scale),
        "sut_config": stack.SUT_CONFIG,
        "load": {
            "clients": workloads.N_CLIENTS, "loop": "closed", "priority": "high",
            "deadline_ms": 1000, "blocks": workloads.N_BLOCKS,
        },
        "environment": _environment(),
        "workloads": {},
    }
    for name in names:
        untraced = run_workload(name, seed, scale, False, spec)
        traced = run_workload(name, seed, scale, True, spec)
        _print_metrics(f"== {name}: end to end", untraced["metrics"])
        _print_metrics(f"== {name}: per layer", traced["metrics"])
        document["workloads"][name] = {
            "why": workloads.WORKLOADS[name],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "runs": {
                mode: {k: v for k, v in run.items() if k not in ("metrics", "trace")}
                for mode, run in (("untraced", untraced), ("traced", traced))
            },
        }
    document["correct"] = all(
        run["checks"]["correct"]
        for w in document["workloads"].values()
        for run in w["runs"].values()
    )
    document["wall_s"] = round(time.time() - started, 1)
    return document


def _aggregate(documents: list[dict]) -> dict:
    """Median and quartiles of every metric across repeated suites."""
    summary: dict = {}
    for name in documents[0]["workloads"]:
        summary[name] = {}
        for section in ("end_to_end", "per_layer"):
            summary[name][section] = {}
            for metric, first in documents[0]["workloads"][name][section].items():
                values = [
                    d["workloads"][name][section][metric]["value"] for d in documents
                ]
                q1, median, q3 = statistics.quantiles(values, n=4)
                summary[name][section][metric] = {
                    "value": median, "q1": q1, "q3": q3, "unit": first["unit"],
                    "spread": (q3 - q1) / median if median else 0.0,
                    "samples": len(values),
                }
    return summary


def suite_main(args: argparse.Namespace) -> int:
    import workloads

    spec = _load_spec()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    scale = (
        args.scale if args.scale is not None
        else spec["run_seconds"] / workloads.FULL_SECONDS
    )
    documents = [
        run_suite(names, args.seed, scale, spec) for __ in range(args.repeat)
    ]
    document = documents[0]
    if args.repeat > 1:
        # the summary takes the place of one run's values; every run is kept
        document = {
            **{k: v for k, v in documents[0].items() if k != "workloads"},
            "repeats": args.repeat,
            "workloads": _aggregate(documents),
            "runs": documents,
            "correct": all(d["correct"] for d in documents),
        }
        for name, sections in document["workloads"].items():
            _print_metrics(
                f"== {name}: end to end, median of {args.repeat}",
                sections["end_to_end"],
            )
    out = Path(args.out) if args.out else (
        RESULTS_DIR / f"BENCH_e2e_seed{args.seed}_{int(time.time())}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}  correct={document['correct']}")
    return 0 if document["correct"] else 1


# -- comparing two documents -------------------------------------------------------


def compare(base: dict, change: dict, spec: dict) -> list[dict]:
    """One row per workload x end-to-end metric present in both documents."""
    rows = []
    for name, sections in base["workloads"].items():
        other = change["workloads"].get(name)
        if other is None:
            continue
        for declared in spec["end_to_end"]:
            metric, bound = declared["name"], declared["bound"]
            a = sections["end_to_end"][metric]
            b = other["end_to_end"][metric]
            ratio = b["value"] / a["value"]
            worse = ratio - 1.0 if declared["better"] == "lower" else 1.0 - ratio
            spread = max(a.get("spread", 0.0), b.get("spread", 0.0))
            if spread > bound:
                verdict = "unresolved"  # noisier than the bound: cannot tell
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({
                "workload": name, "metric": metric, "unit": declared["unit"],
                "base": a["value"], "change": b["value"], "ratio": ratio,
                "bound": bound, "spread": spread, "verdict": verdict,
            })
    return rows


def compare_main(args: argparse.Namespace) -> int:
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())
    rows = compare(base, change, _load_spec())
    print(f"base   A = {args.base}\nchange B = {args.change}")
    print(
        f"{'workload':18s}{'metric':20s}{'A':>12s}{'B':>12s} {'unit':6s}"
        f"{'B/A':>8s}{'bound':>7s}{'spread':>8s}  verdict"
    )
    for r in rows:
        print(
            f"{r['workload']:18s}{r['metric']:20s}{r['base']:12.5g}"
            f"{r['change']:12.5g} {r['unit']:6s}{r['ratio']:8.3f}"
            f"{r['bound']:7.2f}{r['spread']:8.3f}  {r['verdict']}"
        )
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.set_defaults(entry=driver_main)
    commands = parser.add_subparsers(dest="command")
    suite = commands.add_parser("run", help="every workload into one document")
    suite.add_argument("--workload")
    suite.add_argument("--seed", type=int, default=1234)
    suite.add_argument("--scale", type=float)
    suite.add_argument("--repeat", type=int, default=1)
    suite.add_argument("--out")
    suite.set_defaults(entry=suite_main)
    comparison = commands.add_parser("compare", help="verdict per workload x metric")
    comparison.add_argument("base")
    comparison.add_argument("change")
    comparison.set_defaults(entry=compare_main)
    args = parser.parse_args(argv)
    if args.command is None and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required (or use run / compare)")
    return args.entry(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
