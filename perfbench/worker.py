"""One benchmark job in a fresh process, against the checkout's own ``src/``.

    python3 perfbench/worker.py -- cli P,N,R,B,V <subcommand words>
    python3 perfbench/worker.py -- certificate P,N,R,B,V
    python3 perfbench/worker.py --seed S --stream W --queries Q --block K --budget SECONDS [--reference] -- act P,N,R,B,V

Every mode imports the package, validates the parameters (beta = T^-b,
f = T^v) and writes ``@ready`` to stderr; the parent times launch to that
line as set-up.  ``cli`` then runs the command line exactly as the
``hopfscaffold`` console script would, so stdout is the CLI's own output.
``certificate`` prints the integer certificate and the dual-basis rank as
JSON.  ``act`` also makes its first ``act`` call (which builds the
coaction state) before ``@ready``, then runs a seeded stream of queries:
at least Q, and more until BUDGET seconds after its start.  It writes
``@block`` when the Q-th query returns, checks the queries outside the
timed section and prints a JSON summary: each query's ``act`` latency and
the wall time of each run of K consecutive queries, input building
included.  With ``--reference`` it also times calib.py's reference work
in a fresh process before the first block and after each block, outside
the blocks' time.

With ``--trace-dir DIR --job ID`` the package is wrapped by
``spans.Tracer`` before any work, and the job's spans and per-function
totals are written under DIR when the work is done.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import hopfscaffold as hs  # noqa: E402
import hopfscaffold.cli  # noqa: E402,F401


def ready(marker: str) -> None:
    sys.stderr.write(f"@{marker}\n")
    sys.stderr.flush()


def query(seed: int, stream: int, j: int, p: int, pn: int, r: int):
    """Query j of a stream: (generator-only?, z terms, y terms).

    z has 1-3 terms and y 1-4, each with a random Laurent coefficient.  The
    sizes and the generator flag cycle with period 24, so every block of
    queries has the same size mix whatever the seed; indices and
    coefficients come from the seed.  Even-numbered queries draw z from the
    generators z_{p^s}, s <= r, whose action has the closed form act_fast;
    their z terms carry s, not p^s.
    """
    rng = random.Random(f"{seed}:{stream}:{j}")

    def coeff() -> str:
        exps = sorted(rng.sample(range(-2, 3), rng.randint(1, 2)))
        return " + ".join(f"{rng.randint(1, p - 1)}*T^{e}" for e in exps)

    gens = j % 2 == 0
    z_size, y_size = divmod((j // 2) % 12, 4)
    z_terms = [(rng.randint(0, r) if gens else rng.randrange(pn), coeff()) for _ in range(z_size + 1)]
    y_terms = [(rng.randrange(pn), coeff()) for _ in range(y_size + 1)]
    return gens, z_terms, y_terms


def run_act(args, ext, hopf, tracer) -> int:
    p, pn, r = ext.p, ext.degree, hopf.r
    hs.act(hs.DualElement.z_basis(1, hopf), hs.LElement.x_power(1, ext), ext, hopf)
    ready("ready")
    queries, results, latencies, block_s = [], [], [], []
    ref_s = [calib.fresh_process_time()] if args.reference else []
    clock = time.perf_counter
    block_start = clock()
    while len(queries) < args.queries or clock() - T0 < args.budget:
        gens, z_terms, y_terms = q = query(args.seed, args.stream, len(queries), p, pn, r)
        zidx = (lambda s: p**s) if gens else (lambda j: j)
        z = hs.dual_from_text(" + ".join(f"({c})*z_{zidx(k)}" for k, c in z_terms), hopf)
        y = hs.lelement_from_text(" + ".join(f"({c})*x^{i}" for i, c in y_terms), ext)
        t = clock()
        out = hs.act(z, y, ext, hopf)
        latencies.append(clock() - t)
        queries.append(q)
        results.append(out)
        if len(queries) == args.queries:
            ready("block")
        if len(queries) % args.block == 0:
            block_s.append(clock() - block_start)
            if args.reference:
                ref_s.append(calib.fresh_process_time())
            block_start = clock()
    upto = len(tracer.span_end) if tracer else 0

    # outside the timed section: K-linearity against the closed form
    checked = mismatched = 0
    for (gens, z_terms, y_terms), out in zip(queries, results):
        if not gens:
            continue
        expected = hs.LElement.zero(ext)
        for s, c in z_terms:
            for i, d in y_terms:
                scale = hs.LaurentPoly.from_text(c, p) * hs.LaurentPoly.from_text(d, p)
                expected = expected + hs.act_fast(s, i, ext, hopf).scale(scale)
        checked += 1
        mismatched += expected != out
    block = "\n".join(hs.lelement_to_text(out) for out in results[: args.queries])
    print(json.dumps({
        "latency_s": latencies,
        "block_s": block_s,
        "ref_s": ref_s,
        "block_sha256": hashlib.sha256(block.encode()).hexdigest(),
        "checked": checked,
        "mismatched": mismatched,
    }))
    finish(tracer, args, upto)
    return 0


def finish(tracer, args, upto=None) -> None:
    if tracer is None:
        return
    upto = len(tracer.span_end) if upto is None else upto
    out_dir = Path(args.trace_dir)
    tracer.write(out_dir, upto)
    (out_dir / f"{args.job}.totals.json").write_text(json.dumps(tracer.aggregate(upto)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("cli", "certificate", "act"))
    ap.add_argument("rung", help="p,n,r,b,v")
    ap.add_argument("words", nargs="*", help="CLI subcommand words (cli mode)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--stream", type=int, default=0)
    ap.add_argument("--queries", type=int, default=0)
    ap.add_argument("--block", type=int, default=1)
    ap.add_argument("--reference", action="store_true")
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace-dir")
    ap.add_argument("--job", default="job")
    args = ap.parse_args()
    p, n, r, b, v = map(int, args.rung.split(","))

    tracer = None
    if args.trace_dir:
        from spans import Tracer

        tracer = Tracer(args.job)
        tracer.install()

    ext = hs.ExtensionParams(p, n, b, hs.LaurentPoly.monomial(p, -b))
    hopf = hs.HopfParams(p, n, r, hs.LaurentPoly.monomial(p, v))

    if args.mode == "act":
        return run_act(args, ext, hopf, tracer)

    if args.mode == "cli":
        ready("ready")
        argv = [*args.words, "--p", str(p), "--n", str(n), "--r", str(r), "--b", str(b), "--f-val", str(v)]
        code = hs.cli.main(argv)
        sys.stdout.flush()
        finish(tracer, args)
        return code

    ctx = hs.scaffold_context(ext, hopf)
    ready("ready")
    report = hs.integer_certificate_check(hs.lambda_element(b, ctx), ctx)
    rank = hs.dual_basis_rank(hopf)
    print(json.dumps({"certificate": report.to_json_dict(), "rank": rank}, sort_keys=True))
    finish(tracer, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
