"""Run the ledger: set-up, closed-loop passes, correctness gate, metrics.

A call for one workload
(``run.py --workload W --seed S --seconds T --trace 0|1``) works in three
processes, none of them concurrent with another:

1. this light parent, which imports no ``repro`` code;
2. two set-up-only children, timed from spawn until they are ready;
3. the measuring child, which is set-up sample three and then runs
   complete passes over the workload's ops, one op at a time, until ``T``
   seconds have passed.  With ``--trace 1`` it spends half of ``T``
   untraced and half with every probe of :mod:`benchmarks.ledger.spans`
   installed.

Host times are scaled to a reference host speed.  Other tenants of a
shared host slow its CPU by 10-50% for seconds at a time, and a fixed
calibration loop slows as much as the simulators do: every op and set-up
time is multiplied by ``REFERENCE_LOOP_S`` over the loop time measured
around it.  Every repetition of an op does identical work, and
interference only ever adds time, so an op's cost is its fastest scaled
repetition.

Every child gets a fresh ``REPRO_CACHE_DIR`` and ``TMPDIR`` under
``.ledger_tmp/`` in the checkout; the parent removes them at exit.  The
last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``).  Names, units and bounds of the
metrics come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import queue
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_PY = HERE / "run.py"
GOLDENS = HERE / "goldens.json"
SCRATCH_ROOT = ROOT / ".ledger_tmp"

READY = "LEDGER-READY"
RESULT = "LEDGER-RESULT "
SETUP_SAMPLES = 3
#: a call for one workload must end within 180 s; stop the child well before
CHILD_DEADLINE_S = 170.0


class LedgerError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- statistics ----------------------------------------------------------
def supported_percentile(samples: int) -> Optional[int]:
    """The highest whole percentile with at least ten samples beyond it,
    or None when there are ten samples or fewer."""
    if samples <= 10:
        return None
    return (100 * (samples - 10)) // samples


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return float("inf")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


# -- the measuring child -------------------------------------------------
#: what the calibration loop takes on the reference host; host times are
#: reported scaled to that speed
REFERENCE_LOOP_S = 0.0025


def _loop_s() -> float:
    """The fastest of three runs of a fixed dict-and-integer loop, the
    kind of work the simulators do, as a probe of the host's speed."""
    best = float("inf")
    for _ in range(3):
        table: Dict[int, int] = {}
        start = perf_counter()
        for i in range(20_000):
            table[i & 255] = table.get((i * 7) & 255, 0) + i
        best = min(best, perf_counter() - start)
    return best


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
               ) / 1024.0


def load_goldens() -> Dict[str, Dict[str, str]]:
    try:
        with open(GOLDENS) as handle:
            return json.load(handle)["workloads"]
    except FileNotFoundError:
        return {}


def run_passes(workload, seed: int, seconds: float, scratch: Path,
               tiny: bool = False,
               expected: Optional[Dict[str, str]] = None,
               tracer=None) -> dict:
    """Complete passes over ``workload``'s ops until ``seconds`` elapsed.

    An op fails when it raises, reports a problem (a fuzz finding) or its
    output digest differs from ``expected`` -- the goldens, or else the
    digest the op produced in the first pass.

    Each op record keeps ``loop_s``, the host's speed around the op: the
    faster of the calibration loop timed just before and just after it.
    """
    from repro.codegen.cache import process_stats

    ops: List[dict] = []
    digests: Dict[str, str] = {}
    failures: List[dict] = []
    summary: Dict[str, float] = {}
    passes = 0
    start = perf_counter()
    while True:
        results = []
        for op in workload.ops(seed, scratch, tiny):
            if tracer is not None:
                tracer.op = f"{passes}/{op.label}"
            loop0 = _loop_s()
            cache0 = process_stats()
            cpu0 = _cpu_s()
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception:
                elapsed = perf_counter() - t0
                result = None
                problem = traceback.format_exc(limit=-3).strip()
            else:
                elapsed = perf_counter() - t0
                problem = result.problem
            cpu = _cpu_s() - cpu0
            cache1 = process_stats()
            record = {
                "label": op.label, "s": elapsed, "cpu_s": cpu,
                "loop_s": min(loop0, _loop_s()), "work": 0.0,
                "cache_hits": cache1["hits"] - cache0["hits"],
                "cache_misses": cache1["misses"] - cache0["misses"],
            }
            if result is not None:
                record["work"] = result.work
                results.append(result)
                digest = hashlib.sha256(result.text.encode()).hexdigest()
                record["digest"] = digest
                if expected is not None:
                    want = expected.get(op.label)
                else:
                    want = digests.get(op.label, digest)
                if problem is None and want != digest:
                    problem = f"digest {digest[:12]} != expected {want}"
                digests.setdefault(op.label, digest)
            if problem is not None:
                failures.append({"op": op.label, "problem": problem})
            ops.append(record)
        passes += 1
        if not summary and results:
            summary = workload.summary(results)
        if perf_counter() - start >= seconds:
            break
    return {"passes": passes, "ops": ops, "digests": digests,
            "failures": failures, "simulated": summary}


def best_repetitions(run: dict) -> Dict[str, dict]:
    """Per op label: the fastest scaled wall and CPU time over its
    repetitions, the fastest unscaled wall time (``host_s``) and the work
    of one repetition."""
    best: Dict[str, dict] = {}
    for record in run["ops"]:
        scale = REFERENCE_LOOP_S / record["loop_s"]
        times = {"s": record["s"] * scale, "cpu_s": record["cpu_s"] * scale,
                 "host_s": record["s"]}
        seen = best.setdefault(record["label"],
                               {**times, "work": record["work"]})
        for key, value in times.items():
            seen[key] = min(seen[key], value)
    return best


def op_latency(run: dict) -> Dict[str, object]:
    """Median and highest supported percentile of the scaled op times.

    Informational: the ops of a pass are different jobs (seven targets,
    five configurations), so these order statistics jump between jobs
    when the seed changes which faults a campaign detects.
    """
    times = sorted(r["s"] * REFERENCE_LOOP_S / r["loop_s"] for r in run["ops"])
    tail = supported_percentile(len(times))
    if tail is not None and tail <= 50:
        tail = None  # not a tail: the median already covers it
    return {
        "samples": len(times),
        "p50_s": statistics.median(times),
        "tail_percentile": tail,
        "tail_s": (None if tail is None else
                   times[math.ceil(tail * len(times) / 100) - 1]),
    }


def end_to_end(run: dict) -> Dict[str, float]:
    """Every end-to-end metric but ``setup_s``; ``wall_s`` is one pass
    with every op at its fastest scaled repetition."""
    best = list(best_repetitions(run).values())
    wall = sum(r["s"] for r in best)
    return {
        "wall_s": wall,
        "work_per_s": sum(r["work"] for r in best) / wall,
        "cpu_s": sum(r["cpu_s"] for r in best),
        "peak_rss_mb": _peak_rss_mb(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            scratch: Path, tiny: bool = False) -> dict:
    """Untraced passes, then (with ``trace``) traced ones; a traced call
    splits ``seconds`` evenly between the two."""
    from benchmarks.ledger.spans import LayerProbe
    from benchmarks.ledger.workloads import GOLDEN_SEED, WORKLOADS

    workload = WORKLOADS[name]
    expected = None
    if seed == GOLDEN_SEED and not tiny:
        expected = load_goldens().get(name, {})
    if trace:
        seconds /= 2
    untraced = run_passes(workload, seed, seconds, scratch, tiny, expected)
    out = {
        "untraced": untraced,
        "metrics": end_to_end(untraced),
        "work_unit": workload.work_unit,
        "notes": [],
    }
    if trace:
        probe = LayerProbe()
        probe.install()
        try:
            traced = run_passes(workload, seed, seconds, scratch, tiny,
                                expected or untraced["digests"],
                                tracer=probe.tracer)
        finally:
            probe.tracer.restore()
        out["traced"] = traced
        out["layers"] = probe.metrics(out["metrics"]["wall_s"],
                                      end_to_end(traced)["wall_s"])
        out["spans"] = probe.tracer.spans
        out["notes"] = probe.notes()
    return out


def child_main(args) -> int:
    """``--phase setup|measure``: set up, say ready, maybe measure."""
    from benchmarks.ledger.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    for op in workload.warmup(args.seed, scratch):
        op.run()
    print(f"{READY} {_loop_s()}", flush=True)
    if args.phase == "setup":
        return 0
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  scratch)
    print(RESULT + json.dumps(out), flush=True)
    return 0


# -- the parent ----------------------------------------------------------
def child_env(scratch: Path) -> Dict[str, str]:
    """The environment of every child: caches and temp files in scratch."""
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_CACHE_DIR"] = str(scratch / "repro-cache")
    env["TMPDIR"] = str(scratch / "tmp")
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def _spawn(argv: List[str], env: Dict[str, str], deadline: float):
    """Run one child; returns the seconds from spawn until it was ready,
    scaled to the reference host speed, and its result or None."""
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(RUN_PY), *argv], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True,
    )
    lines: "queue.Queue" = queue.Queue()

    def pump() -> None:
        for line in proc.stdout:
            lines.put((perf_counter(), line))
        lines.put((perf_counter(), None))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    ready_s = None
    result = None
    try:
        while True:
            try:
                stamp, line = lines.get(timeout=max(deadline - perf_counter(),
                                                    0.0))
            except queue.Empty:
                raise LedgerError("child did not finish before the deadline")
            if line is None:
                break
            if line.startswith(READY):
                loop_s = float(line.split()[1])
                ready_s = (stamp - started) * REFERENCE_LOOP_S / loop_s
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stderr.write(line)
        code = proc.wait(timeout=max(deadline - perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=5)
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise LedgerError(f"child {argv[:4]} exited with code {code}")
    return ready_s, result


def _pick(declared: List[dict], values: Dict[str, float]) -> dict:
    """The declared metrics, in declared order, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise LedgerError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under ``.ledger_tmp/``, removed on exit."""
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH_ROOT))
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: bool, deadline: float) -> dict:
    """Set-up samples plus one measuring child, in a fresh scratch dir."""
    with scratch_dir(f"{name}-") as scratch:
        env = child_env(scratch)
        base = ["--workload", name, "--seed", str(seed),
                "--scratch", str(scratch)]
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                ready_s, _ = _spawn(["--phase", "setup", *base], env, deadline)
                setups.append(ready_s)
        ready_s, out = _spawn(
            ["--phase", "measure", *base, "--seconds", str(seconds),
             "--trace", str(int(trace))], env, deadline)
        setups.append(ready_s)
    if out is None:
        raise LedgerError("the measuring child printed no result")
    runs = [out["untraced"]] + ([out["traced"]] if trace else [])
    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(len(r["ops"]) for r in runs)
    if trace:
        metrics = _pick(spec["per_layer"], out["layers"])
    else:
        metrics = _pick(spec["end_to_end"],
                        {**out["metrics"], "setup_s": statistics.median(setups)})
    untraced = out["untraced"]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "samples": {
            "setup": setups,
            "passes": untraced["passes"],
            "ops": len(best_repetitions(untraced)),
            "unscaled_wall_s": sum(
                r["host_s"] for r in best_repetitions(untraced).values()),
            "op_latency": op_latency(untraced),
        },
        "work_unit": out["work_unit"],
        "simulated": untraced["simulated"],
        "digests": untraced["digests"],
        "failures": failures[:20],
        "notes": out["notes"],
        "spans": out.get("spans"),
    }


def _host() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_sha": sha,
    }


def _append_ledger(path: Path, records: List[dict]) -> None:
    """Append records (without their span lists) to a ledger file."""
    try:
        with open(path) as handle:
            ledger = json.load(handle)
    except FileNotFoundError:
        ledger = {"host": _host(), "records": []}
    ledger["records"].extend(
        {k: v for k, v in r.items() if k != "spans"} for r in records)
    with open(path, "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _print_table(records: List[dict]) -> None:
    for record in records:
        print(f"{record['workload']} seed={record['seed']} "
              f"trace={int(record['trace'])}: {record['attempted']} ops, "
              f"{record['failed']} failed, passes={record['samples']['passes']}, "
              f"work unit: {record['work_unit']}")
        for name, metric in record["metrics"].items():
            print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
        for key, value in record["simulated"].items():
            print(f"  {key + ' (simulated)':48s} {value:>16.6g}")
        for note in record["notes"]:
            print(f"  note: {note}")


def _print_list(spec: dict) -> None:
    print(f"run_seconds: {spec['run_seconds']}")
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:20s} {w['why']}")
    print("end-to-end metrics (untraced, --trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:20s} {m['unit']:8s} {m['better']:6s} "
              f"bound {m['bound']:.0%}")
    print("per-layer metrics (traced, --trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:48s} {m['unit']:8s} {m['better']}")


def compare(spec: dict, before: dict, after: dict) -> List[dict]:
    """Classify every (metric, workload) pair of ledger ``after`` against
    ledger ``before``.

    ``worse``: the median moved the wrong way by more than the bound.
    ``unresolved``: otherwise, when either side's quartile spread is wider
    than the bound, unless every run of ``after`` beats every run of
    ``before`` (then ``better``).  ``better``: the median improved by more
    than the wider spread.  ``same``: anything else.
    """
    def values(ledger: dict, workload: str, metric: str) -> List[float]:
        return [r["metrics"][metric]["value"] for r in ledger["records"]
                if r["workload"] == workload and not r["trace"]
                and metric in r["metrics"]]

    rows = []
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a = values(before, w["name"], m["name"])
            b = values(after, w["name"], m["name"])
            if not a or not b:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            base = statistics.median(a)
            change = sign * (statistics.median(b) - base) / base
            noise = max(spread(a), spread(b))
            if change > m["bound"]:
                verdict = "worse"
            elif noise > m["bound"]:
                beats = all(sign * (y - x) < 0 for x in a for y in b)
                verdict = "better" if beats else "unresolved"
            elif -change > noise:
                verdict = "better"
            else:
                verdict = "same"
            rows.append({"workload": w["name"], "metric": m["name"],
                         "before": base, "after": statistics.median(b),
                         "change": -change, "spread": noise,
                         "verdict": verdict})
    return rows


def _digest_mismatches(before: dict, after: dict) -> List[str]:
    seen = {(r["workload"], r["seed"]): r["digests"]
            for r in before["records"]}
    return sorted(
        f"{r['workload']} seed={r['seed']}"
        for r in after["records"]
        if (r["workload"], r["seed"]) in seen
        and seen[(r["workload"], r["seed"])] != r["digests"]
    )


def _print_compare(spec: dict, a_path: str, b_path: str) -> None:
    with open(a_path) as handle:
        before = json.load(handle)
    with open(b_path) as handle:
        after = json.load(handle)
    for row in compare(spec, before, after):
        print(f"{row['workload']:20s} {row['metric']:14s} "
              f"{row['before']:>12.6g} -> {row['after']:>12.6g} "
              f"({row['change']:+.1%} better, spread {row['spread']:.1%}) "
              f"{row['verdict']}")
    mismatched = _digest_mismatches(before, after)
    print("digests: " + ("identical" if not mismatched
                         else "differ for " + ", ".join(mismatched)))


def write_goldens(spec: dict) -> None:
    """One pass of every workload at the golden seed; store its digests."""
    from benchmarks.ledger.workloads import GOLDEN_SEED, WORKLOADS

    goldens = {}
    with scratch_dir("goldens-") as scratch:
        os.environ["REPRO_CACHE_DIR"] = str(scratch / "repro-cache")
        for w in spec["workloads"]:
            run = run_passes(WORKLOADS[w["name"]], GOLDEN_SEED, 0, scratch)
            if run["failures"]:
                raise LedgerError(f"{w['name']}: {run['failures']}")
            goldens[w["name"]] = run["digests"]
    with open(GOLDENS, "w") as handle:
        json.dump({"seed": GOLDEN_SEED, "workloads": goldens}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="Toolchain ledger: seeded workloads over the public "
                    "repro entry points; end-to-end metrics untraced, "
                    "per-layer metrics traced.")
    p.add_argument("--workload", help="one workload (default: all, each "
                   "in its own processes)")
    p.add_argument("--seed", type=int, default=2007)
    p.add_argument("--seconds", type=float,
                   help="measured time per run (default: run_seconds of "
                        "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report the per-layer metrics of a traced run "
                        "and the tracing overhead")
    p.add_argument("--out", help="append the run records to this ledger "
                   "JSON file")
    p.add_argument("--spans", help="with --trace 1: write the spans of "
                   "the traced run to this JSON file")
    p.add_argument("--list", action="store_true",
                   help="print every workload and metric")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                   help="classify every (metric, workload) pair of ledger "
                        "B against ledger A")
    p.add_argument("--write-goldens", action="store_true",
                   help="regenerate goldens.json at the golden seed")
    p.add_argument("--phase", choices=("setup", "measure"),
                   help=argparse.SUPPRESS)
    p.add_argument("--scratch", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    if args.phase is not None:
        return child_main(args)
    # SIGTERM unwinds like Ctrl-C, so children are killed and reaped and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.list:
        _print_list(spec)
        return 0
    if args.compare:
        _print_compare(spec, *args.compare)
        return 0
    if args.write_goldens:
        write_goldens(spec)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"ledger: unknown workload {args.workload!r}; pick one of "
              f"{names}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    records = []
    try:
        for name in ([args.workload] if args.workload else names):
            deadline = (started if args.workload else perf_counter()) \
                + CHILD_DEADLINE_S
            records.append(run_workload(spec, name, args.seed, seconds,
                                        bool(args.trace), deadline))
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1
    if args.spans and args.trace:
        with open(args.spans, "w") as handle:
            json.dump({r["workload"]: {"seed": r["seed"], "notes": r["notes"],
                                       "spans": r["spans"]}
                       for r in records}, handle)
    if args.out:
        _append_ledger(Path(args.out), records)
    _print_table(records)
    if args.workload:
        record = records[0]
        print(json.dumps({key: record[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0
