"""Degree-ladder benchmark of hopfscaffold, run against the checkout's own ``src/``.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop with one client: the next job or query starts
when the last returns):

- ``verify``: ``hopfscaffold scaffold-verify --output json``, a fresh process
  per rung, R16, R27 then R32.  Builds the whole coaction power table.
- ``atlas``: ``hopfscaffold atlas``, a fresh process per rung, R16, R27, R32
  then R81.  Integer combinatorics only; the control for arithmetic changes.
- ``certificate``: a fresh worker per rung runs the integer certificate and
  the dual-basis rank, R16, R27 then R32.  The only workload where the
  delta-power tensors and the dual multiplication dominate.
- ``act-stream``: fresh workers at R81 that build the parameters, make a
  first ``act`` call, then answer a seeded stream of small ``act(z, y)``
  queries.  Many small reads against state kept across calls.

Every rung uses beta = T^-b and f = T^v with v the least valuation whose
tolerance reaches 2p^n - 1.  No workload passes ``--jobs`` or
``--eager-cache``.  Each ladder stops at the largest rung whose job takes
at most about 3 s on the seed code, so that a run holds many passes and
its medians hold still on a shared host: R81 for ``verify`` (about 12 s)
and R64 for ``certificate`` (about 8 s) are left out, as is the stretch
rung p^n = 243, where one atlas period takes about a minute.

``--trace 0`` measures for ``--seconds``: passes of a ladder until the
next would overrun (at least two), or three act-stream workers, each
answering queries for a third of the time (at least 100 each).

The speed of a shared host drifts by up to a third within minutes, so a
median of raw times differs between runs of the same code by more than a
change worth catching.  Each measured job is therefore paired with
reference work timed next to it (calib.py in a fresh process, before,
between and after the jobs of each ladder pass or the blocks of an
act-stream worker), and the gated timings are ratios to that reference
time, in units ``ref``.  A change to the package moves the job's time but
not the reference's.  Printed and reported by every workload:

- ``wall_ref``: median over passes of the pass time in reference units,
  the sum over its jobs of job wall time / reference time.  A ladder pass
  is its jobs, each from process start to exit; an act-stream pass is a
  block of 24 consecutive queries (one period of the query-size cycle),
  building each query's input and running it, after set-up.
- ``large_ref``: median of the same ratio for one operation at the largest
  rung: the last rung's job, or the mean ``act`` call of a block (a mean
  over the whole size mix, so that the seed's draw of queries moves it
  less than a median over single queries would).
- ``setup_s``: median time from a job's launch until it is ready: the
  interpreter started, the package imported and the parameters validated;
  for act-stream also the first ``act`` call, which builds its tables.
- ``peak_rss_mb``: largest peak resident set over the run's processes.

It also prints, ungated, the raw medians ``wall_s`` and ``large_s``, the
median reference time ``ref_s``, ``small_s`` (summed job times of the
rungs below the last) for the ladders, ``act_p50_ms``, ``act_tail_ms``
(at the highest percentile with ten samples beyond it) and ``act_per_s``
for act-stream, and ``error_rate``.

``--trace 1`` runs one untraced and one traced pass of fixed work
(act-stream: one worker, 100 queries), with no reference work, and prints
the per-layer metrics (see spans.py) and ``trace.overhead_s``, traced
minus untraced pass time.

Every job's exit code and semantic output checks, and its stdout SHA-256
where reference.json holds one, are checked; a mismatch counts as a
failed operation.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.

``--record`` rewrites ``reference.json`` from the current code after its
semantic checks pass; ``--smoke`` restricts every workload to R16.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from calib import fresh_process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench"

# (p, n, r, b, v); v = min_f_valuation_for(2p^n - 1, ext, r), checked by selftest.py
RUNGS = {
    "R16": (2, 4, 2, 1, 3),
    "R27": (3, 3, 2, 2, 4),
    "R32": (2, 5, 3, 3, 4),
    "R81": (3, 4, 2, 1, 3),
}

# workload -> (worker mode, CLI words, ladder); the last rung is the large one
WORKLOADS = {
    "verify": ("cli", ("scaffold-verify", "--output", "json"), ("R16", "R27", "R32")),
    "atlas": ("cli", ("atlas",), ("R16", "R27", "R32", "R81")),
    "certificate": ("certificate", (), ("R16", "R27", "R32")),
    "act-stream": ("act", (), ("R81",)),
}

MIN_PASSES = 2
ACT_WORKERS = 3
ACT_QUERIES = 100
ACT_BLOCK = 24  # queries per act-stream pass: one period of the size cycle
DEFAULT_SEED = 1
# a job still running this long after the benchmark started is killed and
# counted as failed, so a hung program cannot hold a run past its limit
DEADLINE = time.perf_counter() + 160

END_TO_END = {"wall_ref": "ref", "large_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "base_arith.LaurentPoly.init.calls": "count",
    "base_arith.is_prime.calls": "count",
    "base_arith.LaurentPoly.mul.calls": "count",
    "base_arith.LaurentPoly.mul.self_s": "s",
    "base_arith.LaurentPoly.add.calls": "count",
    "base_arith.LaurentPoly.add.self_s": "s",
    "base_arith.padic_digits.calls": "count",
    "base_arith.padic_digits.self_s": "s",
    "field_tower.l_mul.calls": "count",
    "field_tower.l_mul.self_s": "s",
    "field_tower.l_valuation.calls": "count",
    "field_tower.l_valuation.self_s": "s",
    "field_tower.LElement.init.calls": "count",
    "hopf_primal.delta_power.calls": "count",
    "hopf_primal.delta_power.self_s": "s",
    "hopf_primal.tensor_mul.calls": "count",
    "hopf_primal.tensor_mul.self_s": "s",
    "hopf_dual.dual_mult.calls": "count",
    "hopf_dual.dual_mult.self_s": "s",
    "hopf_dual.z_monomial.calls": "count",
    "hopf_dual.z_monomial.self_s": "s",
    "hopf_dual.dual_basis_rank.self_s": "s",
    "action.coaction.calls": "count",
    "action.coaction.self_s": "s",
    "action.coaction.components": "count",
    "action.act.calls": "count",
    "action.act.self_s": "s",
    "action.components_read_ratio": "ratio",
    "scaffold.verify_scaffold.self_s": "s",
    "scaffold.checks": "count",
    "scaffold.lambda_element.calls": "count",
    "scaffold.integer_certificate_check.self_s": "s",
    "module_structure.is_free.calls": "count",
    "module_structure.is_free.self_s": "s",
    "module_structure.w_h.calls": "count",
    "module_structure.w_h.self_s": "s",
    "module_structure.d_h.calls": "count",
    "module_structure.w_h.useful_ratio": "ratio",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Job:
    """One fresh process: its timings from launch, exit code, output and check."""

    rung: str
    code: int
    wall_s: float
    marks: dict
    rss_mb: float
    stdout: bytes
    stderr: str
    errors: list = field(default_factory=list)
    ref_s: float = 0.0  # reference time of the job's pass or block, if measured
    ops: int = 1  # operations attempted: the job itself, or an act worker's queries
    failed: int = 0


def remaining() -> float:
    return max(DEADLINE - time.perf_counter(), 1.0)


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in ("SCAFFOLD_LOG", "PYTHONPATH")}


def kill(pid: int) -> None:
    # os.kill, not Popen.kill: the latter may reap the child on the timer's
    # thread, and the os.wait4 below would then find no child
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_job(mode: str, rung: str, words=(), extra=(), markers=("ready",), trace=None) -> Job:
    """Launch a worker and time it from launch to each stderr marker and to exit."""
    opts = list(extra) + ([] if trace is None else ["--trace-dir", str(trace[0]), "--job", trace[1]])
    cmd = [sys.executable, str(WORKER), *opts, "--", mode, ",".join(map(str, RUNGS[rung])), *words]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(remaining(), kill, (proc.pid,))
    watchdog.start()
    try:
        marks, other = {}, []
        want = list(markers)
        while want:
            line = proc.stderr.readline()
            if not line:
                break
            if line.decode().strip() == f"@{want[0]}":
                marks[want.pop(0)] = time.perf_counter() - t0
            else:
                other.append(line)
        out = proc.stdout.read()
        other.append(proc.stderr.read())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        # interrupted before the child was reaped: end it, then re-raise
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    job = Job(rung, proc.returncode, wall, marks, usage.ru_maxrss / 1024, out, b"".join(other).decode(errors="replace"))
    if want:
        job.errors.append(f"missing marker(s) {want}")
    return job


# -- output checks -------------------------------------------------------------


def tolerance(p, n, r, b, v) -> int:
    return p**n * v - b * (p ** (r + 1) - 1)


def free_b1(h: int, pn: int) -> bool:
    """Closed-form freeness at b = 1: res(h - 2) > (p^n - 3)/2."""
    return 2 * ((h - 2) % pn) > pn - 3


def semantic_errors(workload: str, job: Job) -> list[str]:
    """Checks that need no stored reference."""
    p, n, r, b, v = RUNGS[job.rung]
    if job.code != 0:
        return [f"exit code {job.code}: {job.stderr.strip()[-300:]}"]
    try:
        text = job.stdout.decode()
        if workload == "verify":
            rep = json.loads(text)
            errs = []
            if rep["status"] != "ok" or rep["all_passed"] is not True:
                errs.append(f"status {rep['status']!r}, all_passed {rep['all_passed']!r}")
            if rep["tolerance"] != tolerance(p, n, r, b, v):
                errs.append(f"tolerance {rep['tolerance']} != {tolerance(p, n, r, b, v)}")
            return errs
        if workload == "atlas":
            rows = [line.split("\t") for line in text.splitlines()[1:]]
            errs = [] if len(rows) == p**n else [f"{len(rows)} atlas rows, expected {p**n}"]
            if b == 1:
                errs += [f"h={h}: free={f}" for h, f, *_ in rows if (f == "1") != free_b1(int(h), p**n)]
            return errs
        if workload == "certificate":
            rep = json.loads(text)
            cert = rep["certificate"]
            if cert["all_ok"] and cert["complete_residue_system"] and rep["rank"] == p**n:
                return []
            return [f"certificate all_ok={cert['all_ok']} complete={cert['complete_residue_system']} rank={rep['rank']}"]
        summary = json.loads(text)
        if summary["mismatched"]:
            return [f"{summary['mismatched']} of {summary['checked']} act_fast checks failed"]
        return []
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def reference_entry(workload: str, job: Job, seed: int, stream: int) -> tuple[str, dict]:
    """Reference key and record: exit code and stdout SHA-256 of a job, or
    the SHA-256 of an act worker's first query block."""
    if workload == "act-stream":
        digest = json.loads(job.stdout)["block_sha256"]
        return f"act-stream/{job.rung}/seed{seed}/stream{stream}", {"sha256": digest}
    return f"{workload}/{job.rung}", {"exit": job.code, "sha256": hashlib.sha256(job.stdout).hexdigest()}


def check(workload: str, job: Job, refs: dict, seed: int = DEFAULT_SEED, stream: int = 0) -> Job:
    """Fill in errors, operations attempted and operations failed."""
    job.errors += semantic_errors(workload, job)
    if workload == "act-stream" and job.code == 0 and "block" in job.marks:
        summary = json.loads(job.stdout)
        job.ops = len(summary["latency_s"])
        job.failed = summary["mismatched"]
    if not job.errors:
        key, entry = reference_entry(workload, job, seed, stream)
        ref = refs.get(key)
        if ref is not None and ref != entry:
            job.errors.append(f"{key}: output {entry} != reference {ref}")
    job.failed = max(job.failed, min(len(job.errors), job.ops))
    return job


# -- workloads -----------------------------------------------------------------


def ladder_pass(workload: str, rungs, refs: dict, trace_dir=None, paired=False) -> list[Job]:
    """One job per rung.  With ``paired``, reference work is timed before,
    between and after the jobs, and each job's reference time is its pass's
    mean: host speed holds within a pass but drifts between passes."""
    mode, words, _ = WORKLOADS[workload]
    jobs, ref_times = [], []
    for rung in rungs:
        if paired:
            ref_times.append(fresh_process_time(remaining()))
        trace = None if trace_dir is None else (trace_dir, f"{workload}-{rung}")
        jobs.append(check(workload, run_job(mode, rung, words, trace=trace), refs))
    if paired:
        ref_times.append(fresh_process_time(remaining()))
        for job in jobs:
            job.ref_s = statistics.fmean(ref_times)
    return jobs


def act_worker(rung: str, seed: int, stream: int, budget: float, refs: dict, trace_dir=None, paired=False) -> Job:
    extra = ["--seed", str(seed), "--stream", str(stream), "--queries", str(ACT_QUERIES),
             "--block", str(ACT_BLOCK), "--budget", str(budget)] + (["--reference"] if paired else [])
    trace = None if trace_dir is None else (trace_dir, f"act-stream-{rung}-{stream}")
    job = run_job("act", rung, extra=extra, markers=("ready", "block"), trace=trace)
    return check("act-stream", job, refs, seed, stream)


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def batched(values: list, size: int) -> list[list]:
    return [values[k : k + size] for k in range(0, len(values) - size + 1, size)]


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def measure(workload: str, rungs, seed: int, seconds: float, refs: dict):
    """Untraced runs for ``seconds``; returns (jobs, metrics, extra printed metrics).

    A metric that no successful job measured is left out, which marks the
    result incorrect.
    """
    if workload == "act-stream":
        jobs = [act_worker(rungs[-1], seed, w, seconds / ACT_WORKERS, refs, paired=True) for w in range(ACT_WORKERS)]
        summaries = [json.loads(j.stdout) for j in jobs if not j.errors]
        lat = [t for s in summaries for t in s["latency_s"]]
        # (block wall time, its queries' latencies, mean of the reference times before and after it)
        blocks = [
            (t, qs, (s["ref_s"][k] + s["ref_s"][k + 1]) / 2)
            for s in summaries
            for k, (t, qs) in enumerate(zip(s["block_s"], batched(s["latency_s"], ACT_BLOCK)))
        ]
        metrics = {
            "wall_ref": median(t / ref for t, _, ref in blocks),
            "large_ref": median(statistics.fmean(qs) / ref for _, qs, ref in blocks),
            "setup_s": median(j.marks["ready"] for j in jobs if not j.errors),
            "peak_rss_mb": max(j.rss_mb for j in jobs),
        }
        extra = {}
        if lat:
            t_tail, pct = tail(lat)
            extra = {
                "wall_s": (median(t for t, _, _ in blocks), "s"),
                "large_s": (median(lat), "s"),
                "ref_s": (median(ref for _, _, ref in blocks), "s"),
                "act_p50_ms": (1000 * statistics.median(lat), "ms"),
                f"act_tail_ms (p{pct:.1f}, n={len(lat)})": (1000 * t_tail, "ms"),
                "act_per_s": (len(lat) / sum(lat), "1/s"),
            }
    else:
        passes: list[list[Job]] = []
        took: list[float] = []  # each pass with its reference work
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start + median(took) <= seconds:
            passes.append(ladder_pass(workload, rungs, refs, paired=True))
            took.append(time.perf_counter() - start - sum(took))
        jobs = [j for p in passes for j in p]
        metrics = {
            "wall_ref": median(sum(j.wall_s / j.ref_s for j in p) for p in passes),
            "large_ref": median(p[-1].wall_s / p[-1].ref_s for p in passes),
            "setup_s": median(j.marks["ready"] for j in jobs if "ready" in j.marks),
            "peak_rss_mb": max(j.rss_mb for j in jobs),
        }
        extra = {
            "wall_s": (median(sum(j.wall_s for j in p) for p in passes), "s"),
            "large_s": (median(p[-1].wall_s for p in passes), "s"),
            "ref_s": (median(j.ref_s for j in jobs), "s"),
            "small_s": (median(sum(j.wall_s for j in p[:-1]) for p in passes), "s"),
            "passes": (len(passes), "count"),
        }
    return jobs, {k: v for k, v in metrics.items() if v is not None}, extra


def traced(workload: str, rungs, seed: int, refs: dict):
    """One untraced and one traced pass of fixed work; returns (jobs, per-layer, absent)."""
    trace_dir = OUT / "trace" / workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    if workload == "act-stream":
        plain = [act_worker(rungs[-1], seed, 0, 0.0, refs)]
        spanned = [act_worker(rungs[-1], seed, 0, 0.0, refs, trace_dir)]
        walls = [j.marks.get("block", j.wall_s) for j in plain + spanned]
    else:
        plain = ladder_pass(workload, rungs, refs)
        spanned = ladder_pass(workload, rungs, refs, trace_dir)
        walls = [sum(j.wall_s for j in plain), sum(j.wall_s for j in spanned)]
    jobs = plain + spanned

    funcs: dict[str, list] = {}
    counters: dict[str, float] = {}
    failed_hooks: set[str] = set()
    for path in sorted(trace_dir.glob("*.totals.json")):
        totals = json.loads(path.read_text())
        for name, (calls, self_s) in totals["functions"].items():
            acc = funcs.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in totals["counters"].items():
            counters[name] = counters.get(name, 0) + value
        failed_hooks.update(totals["failed_hooks"])

    values: dict[str, float] = {}
    absent = []

    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            if base in funcs:
                values[name] = funcs[base][0 if kind == "calls" else 1]
            else:
                absent.append(name)
    values["cli.stdout_bytes"] = sum(len(j.stdout) for j in spanned) if WORKLOADS[workload][0] == "cli" else 0
    values["trace.overhead_s"] = walls[1] - walls[0]
    sources = {
        "action.coaction.components": (("action.coaction",), counters.get("action.coaction.components"), 1),
        "action.components_read_ratio": (
            ("action.coaction", "action.act"),
            counters.get("action.components_read"),
            counters.get("action.coaction.components"),
        ),
        "scaffold.checks": (("scaffold.verify_scaffold",), counters.get("scaffold.checks"), 1),
        "module_structure.w_h.useful_ratio": (
            ("module_structure.w_h", "base_arith.padic_digits"),
            counters.get("module_structure.w_h.compatible"),
            counters.get("module_structure.w_h.padic_digits"),
        ),
    }
    for name, (needs, num, den) in sources.items():
        if any(f not in funcs or f in failed_hooks for f in needs):
            absent.append(name)
        else:
            values[name] = num / den if den else 0.0
    for name in absent:
        values[name] = 0
    return jobs, values, absent


# -- entry -----------------------------------------------------------------------


def show(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def provenance() -> dict:
    """The machine facts a run can report without reading outside its checkout;
    provenance.json has the CPU model the reference was recorded on."""
    return {"nproc": os.cpu_count(), "python": platform.python_version()}


def record(seed: int) -> int:
    """Rewrite reference.json from the current code; refuses if any check fails."""
    refs: dict[str, dict] = {}
    errors: list[str] = []

    def keep(workload: str, job: Job, stream: int = 0) -> None:
        errors.extend(job.errors)
        if not job.errors:
            key, entry = reference_entry(workload, job, seed, stream)
            refs[key] = entry

    for workload, (mode, _, ladder) in WORKLOADS.items():
        if mode == "act":
            for w in range(ACT_WORKERS):
                keep(workload, act_worker(ladder[-1], seed, w, 0.0, {}), w)
            keep(workload, act_worker("R16", seed, 0, 0.0, {}))
        else:
            for job in ladder_pass(workload, ladder, {}):
                keep(workload, job)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(refs)} reference digests")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="R16 only")
    ap.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hopfscaffold" / "__init__.py").is_file():
        print(f"error: no hopfscaffold package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record(args.seed)
    if args.workload is None:
        ap.error("--workload is required")

    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    rungs = ("R16",) if args.smoke else WORKLOADS[args.workload][2]
    if args.trace:
        jobs, values, absent = traced(args.workload, rungs, args.seed, refs)
        units = PER_LAYER
        extra = {}
    else:
        jobs, values, extra = measure(args.workload, rungs, args.seed, args.seconds, refs)
        units = END_TO_END
        absent = []

    attempted = sum(j.ops for j in jobs)
    failed = sum(j.failed for j in jobs)
    for j in jobs:
        for e in j.errors:
            print(f"FAIL {args.workload} {j.rung}: {e}")
    for key, value in provenance().items():
        print(f"# {key}: {value}")
    print(f"# workload {args.workload}, rungs {' '.join(rungs)}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        if name in values:
            print(f"{name} {show(values[name])} {unit}" + (" (absent)" if name in absent else ""))
    for name, (value, unit) in extra.items():
        print(f"{name} {show(value)} {unit}")
    print(f"error_rate {failed / attempted:.6g} ratio")
    result = {
        "correct": failed == 0 and len(values) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
