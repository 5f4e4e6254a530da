"""ehrseq benchmark: runs a workload's command chain through ``ehrseq.cli``
and prints its metrics.  The last line of stdout is one JSON object.

    python3 bench/run.py --workload prep --seed 1 --trace 0
    python3 bench/run.py --workload all --trace 1   # each workload in its own process
    python3 bench/run.py --workload all --smoke     # tiny scale, one pass, every oracle

Workloads (see workloads.py for why each exists):
  prep    gen -> load -> serialize on a sparse 300-patient corpus (write path)
  score   audit (labeled and raw), privacy, metrics on dense stream files
          the benchmark writes itself (read path)
  design  plan --grid, plan + analyze over several shapes, hierarchical
          plans, quantize and an EMA update (no corpus)

One client sends each command after the previous one returns (closed
loop), in this process, with numpy single-threaded.  A pass is one run of
the chain; passes repeat until their timed total reaches --seconds, which
defaults to ``run_seconds`` in BENCHMARK.json.  The
first pass's outputs go to the oracles; a later pass must reproduce them.
A command that fails, or whose output is wrong, is a failed operation.

--trace 0 prints the end-to-end metrics: chain_s (median pass time),
setup_s (median of three set-ups, each in a fresh interpreter), peak_rss_mb
(this process, which runs nothing but the chain and light checks) and
output_bytes (bytes one pass writes).  --trace 1 alternates untraced and
traced passes and prints per-layer metrics of the traced ones (see
tracing.py) plus tracing_overhead_s, traced minus untraced chain_s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
WORK = Path(".bench_work")
WORKLOADS = ("prep", "score", "design")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 3
END_TO_END_UNITS = {"chain_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_bytes": "bytes"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds of passes (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one set-up, one pass (two with --trace 1)")
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the detailed report as JSON to this path")
    return parser.parse_args(argv)


def in_helper(task: str, *args):
    """Run a set-up or oracle task of workloads.py in a fresh interpreter, so
    its memory stays out of this process's peak RSS.  Arguments and result
    travel as JSON."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--helper", task],
                          input=json.dumps(args), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"helper task {task} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def fingerprint(out: Path, steps) -> dict:
    """op -> digest of the files under out/<op> and of its stdout."""
    prints = {}
    for step in steps:
        h = hashlib.sha256(step.stdout.encode())
        for path in sorted(p for p in (out / step.op).rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out)).encode())
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        prints[step.op] = h.hexdigest()
    return prints


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def summary(samples: list[float], unit: str) -> dict:
    """Median with its sample count, plus the highest percentile that has
    at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples), "unit": unit,
           "samples": samples}
    for p in (99, 95, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    import workloads
    from tracing import PER_LAYER, PROPERTIES, Tracer, unit

    workload = workloads.WORKLOADS[name]
    scale = "smoke" if smoke else "full"
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)

    setup_times = []
    for _ in range(1 if smoke else SETUP_RUNS):
        start = perf_counter()
        facts = in_helper("setup", name, str(work), seed, scale)
        setup_times.append(perf_counter() - start)
    run = workloads.Run(work, seed, workloads.SCALES[scale])
    workloads.warm(run)

    passes, failures, properties = [], [], {p: 0 for p in PROPERTIES}
    reference, reference_failed = None, set()
    measured = 0.0
    while len(passes) < (2 if trace else 1) or (not smoke and measured < seconds):
        traced = trace and len(passes) % 2 == 1
        shutil.rmtree(run.out, ignore_errors=True)
        run.out.mkdir(parents=True)
        workload.prepare(run, run.out)
        run.tracer = Tracer() if traced else None
        if traced:
            with run.tracer.installed():
                steps = workload.chain(run)
        else:
            steps = workload.chain(run)
        chain_s = sum(s.seconds for s in steps)
        measured += chain_s

        failed = {s.op: f"failed: {s.stdout.strip()[-300:]}" for s in steps if not s.ok}
        for op, why in workload.check_in_process(run, steps).items():
            failed.setdefault(op, why)
        prints = fingerprint(run.out, steps)
        if reference is None:
            oracle_failed, found = in_helper("check", name, str(work), seed, scale, facts,
                                             {s.op: s.stdout for s in steps})
            for op, why in oracle_failed.items():
                failed.setdefault(op, why)
            properties.update(found)
            reference, reference_failed = prints, set(failed)
        else:
            for op, digest in prints.items():
                if op in reference_failed or digest != reference.get(op):
                    failed.setdefault(op, "output differs from the first pass, or repeats "
                                          "its failed output")
        failures += [f"pass {len(passes) + 1} {op}: {why}" for op, why in failed.items()]
        passes.append({
            "traced": traced,
            "chain_s": chain_s,
            "stages": workload.stages(steps),
            "output_bytes": tree_bytes(run.out),
            "attempted": len(steps),
            "failed": len(failed),
            "layers": run.tracer.metrics() if traced else None,
        })
        run.tracer = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    timings = {"chain_s": summary([p["chain_s"] for p in plain], "s")}
    for stage in plain[0]["stages"]:
        timings[stage] = summary([p["stages"][stage] for p in plain],
                                 "plans/s" if stage == "plans_per_s" else "s")
    timings["setup_s"] = summary(setup_times, "s")
    end_to_end = {
        "chain_s": timings["chain_s"]["median"],
        "setup_s": timings["setup_s"]["median"],
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": statistics.median(p["output_bytes"] for p in plain),
    }
    report = {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        "passes": len(passes), "traced_passes": len(passes) - len(plain),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "failed_ratio_base": f"{failed} failed / {attempted} attempted operations",
        "timings": timings, "end_to_end": end_to_end, "properties": properties,
        "failures": failures,
    }
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        layers = {k: statistics.median(p["layers"][k] for p in traced_passes)
                  for k in traced_passes[0]["layers"]}
        layers.update(properties)
        layers["tracing_overhead_s"] = (
            statistics.median(p["chain_s"] for p in traced_passes) - end_to_end["chain_s"])
        report["per_layer"] = layers
        metrics = {k: {"value": layers[k], "unit": unit(k)} for k in PER_LAYER}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def print_report(report: dict) -> None:
    print(f"{report['workload']}: seed {report['seed']}, {report['scale']} scale, "
          f"{report['passes']} passes ({report['traced_passes']} traced), "
          "closed loop, one client")
    for name, t in report["timings"].items():
        extra = "".join(f", {k} {v:.6g}" for k, v in t.items() if k[0] == "p")
        print(f"  {name:<18} {t['median']:.6g} {t['unit']}  (median of {t['n']}{extra})")
    e2e = report["end_to_end"]
    print(f"  {'peak_rss_mb':<18} {e2e['peak_rss_mb']:.6g} MB")
    print(f"  {'output_bytes':<18} {e2e['output_bytes']:.0f} bytes")
    print(f"  {'failed_ratio':<18} {report['failed_ratio']:.6g} "
          f"({report['failed_ratio_base']})")
    for name, value in report["properties"].items():
        print(f"  property {name} = {value:.6g}")
    for name, value in report.get("per_layer", {}).items():
        print(f"  layer {name} = {value:.6g}")
    for line in report["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is that workload's own."""
    results, reports, code = {}, {}, 0
    for name in WORKLOADS:
        report_path = WORK / f"report_{name}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--report", str(report_path)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True, timeout=1800)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
        reports[name] = json.loads(report_path.read_text())
        report_path.unlink()
        code = code or int(not results[name]["correct"])
    if args.report:
        args.report.write_text(json.dumps(reports, indent=2) + "\n")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = ROOT / "src"
    if not (src / "ehrseq" / "__init__.py").is_file():
        print(f"error: ehrseq sources not found under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for var in THREAD_VARS:  # inherited by the helper processes too
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    if argv[:1] == ["--helper"]:
        import workloads
        task = {"setup": workloads.run_setup, "check": workloads.run_check}[argv[1]]
        print(json.dumps(task(*json.loads(sys.stdin.read()))))
        return 0
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    result, report = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.smoke)
    print_report(report)
    if args.report:
        args.report.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(result))
    return int(not result["correct"])


if __name__ == "__main__":
    sys.exit(main())
