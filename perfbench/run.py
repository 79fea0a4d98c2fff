"""The phantomfields benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times set-up in fresh interpreters (``setup_s``), then
runs untraced passes of the workload (``wall_s``, at least two passes), starting
a new pass while less than S seconds have gone since the run began, set-up
included, and reports the peak RSS (``peak_rss_mb``). With
``--trace 1`` it alternates untraced and traced passes of the workload (the
gap is the tracing overhead) and then runs the traced layer pass, whose
spans give the per-layer metrics; the spans are written to ``.perfbench/``.
Every run checks the outputs of every pass. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
each metric with its unit, sample count and tail percentile, and the run
manifest. A full record goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import harness

harness.pin_environment()  # before anything loads numpy

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

MIN_PASSES = 2  # the second pass reruns the first's inputs: its outputs must match
SETUP_REPEATS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def setup_samples(name: str, seed: int, tiny: bool, repeats: int) -> list[dict]:
    argv = [sys.executable, str(harness.BENCH_DIR / "setup_child.py"), name, str(seed), str(int(tiny))]
    out = []
    for i in range(repeats):
        log = harness.OUT / "setup" / f"{name}-{i}.log"
        code, _ = harness.run_child(argv, log)
        if code != 0:
            raise RuntimeError(f"set-up of {name} failed (exit {code}); see {log}")
        out.append(json.loads(log.read_text().splitlines()[-1]))
    return out


def timed_pass(w, tr, pass_id):
    tr.pass_id = pass_id
    t0 = time.perf_counter()
    with tr.span("pass"):
        result = w.run_pass(tr)
    wall = time.perf_counter() - t0
    tr.pass_id = None
    return wall, result


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full record (see the module docstring)."""
    import layers
    import workloads

    # the budget covers set-up, so a run lasts about `seconds` plus at most one pass
    start = time.perf_counter()
    setups = setup_samples(name, seed, tiny, 1 if tiny else SETUP_REPEATS)
    w = workloads.WORKLOADS[name](seed, tiny)
    w.setup()
    off = harness.Tracer(enabled=False)
    walls, passes, record = [], [], {}
    if not trace:
        while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
            wall, result = timed_pass(w, off, len(walls))
            walls.append(wall)
            passes.append(result)
        if name == "cli_defaults":
            rss = [p["peak_rss_mb"] for p in passes]
            record["cmd_s"] = {
                cmd: harness.summarize([p["commands"][cmd]["seconds"] for p in passes])
                for cmd in w.EXPECTED
            }
        else:
            rss = [harness.peak_rss_mb()]
        samples = {"wall_s": walls, "setup_s": [s["setup_s"] for s in setups], "peak_rss_mb": rss}
        record["samples"] = samples
        record["summaries"] = {k: harness.summarize(v) for k, v in samples.items()}
        metrics = {k: {"value": record["summaries"][k]["median"], "unit": u} for k, u in END_TO_END.items()}
    else:
        tr = harness.Tracer(enabled=True)
        traced = []
        while len(traced) < 1 or time.perf_counter() - start < seconds / 2:
            wall, result = timed_pass(w, off, None)
            walls.append(wall)
            passes.append(result)
            wall, result = timed_pass(w, tr, len(traced))
            traced.append(wall)
            passes.append(result)
        record["samples"] = {"untraced_wall_s": walls, "traced_wall_s": traced}
        counts = layers.run_layer_pass(tr, seed, tiny)
        metrics = layers.layer_metrics(tr, counts, [s["import_s"] for s in setups], traced, walls)
        trace_file = harness.OUT / "traces" / f"{name}-seed{seed}.json"
        tr.dump(trace_file)
        record["trace_file"] = str(trace_file)
    checks = w.checks(passes)
    failed = [c for c in checks if not c.ok]
    record |= {
        "manifest": harness.manifest(name, seed, seconds, trace),
        "metrics": metrics,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "mc_verdicts": w.mc_verdicts(passes),
        "result": {
            "correct": not failed,
            "attempted": len(checks),
            "failed": len(failed),
            "metrics": metrics,
        },
    }
    return record


def report(record: dict) -> None:
    """Human-readable lines, then the JSON result as the last line of stdout."""
    for key, value in record["manifest"].items():
        print(f"# {key}: {value}")
    res = record["result"]
    print(f"# checks: attempted {res['attempted']}, failed {res['failed']}, "
          f"fail_frac {res['failed'] / res['attempted']:.4f}")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"# FAILED {c['name']}: {c['detail']}")
    for key, value in record["mc_verdicts"].items():
        print(f"# program Monte-Carlo verdict (not a check) {key}: {value}")
    summaries = dict(record.get("summaries", {}))
    summaries |= {f"cmd_s.{k}": v for k, v in record.get("cmd_s", {}).items()}
    for key, m in res["metrics"].items():
        extra = ""
        if key in summaries:
            s = summaries[key]
            extra = f"  median of {s['n']}"
            extra += (f", p{s['percentile']:g} {s['percentile_value']:.6g}" if "percentile" in s
                      else ", no percentile has 10 samples beyond it")
        print(f"{key} {m['value']:.6g} {m['unit']}{extra}")
    for key, s in summaries.items():
        if key.startswith("cmd_s."):
            print(f"{key} {s['median']:.6g} s  median of {s['n']} (subprocess, startup included)")
    print(json.dumps(res))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (harness.SRC / "phantomfields" / "__init__.py").is_file():
        print(f"error: no phantomfields sources under {harness.SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = harness.OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
