"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload verify_ensemble --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.
Set-up (imports, then five rounds of making the inputs, writing them
and one untimed warm-up operation) is followed by whole timed passes
over the workload's fixed list of operations, as many as come nearest
to --seconds (at least one).  The outputs of every pass are checked afterwards,
against computations made apart from the program.  --trace 0 reports
the end-to-end metrics, --trace 1 wraps the program's layers and
reports per-layer metrics per pass instead.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One program thread and one BLAS thread: the engine's thread pool buys
# nothing on two CPUs, and this leaves the other core to the OS, so the
# spread between runs comes from the work itself.  Set before numpy loads.
for _var in ("STOKOLMO_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.getcwd()
SETUP_ROUNDS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("verify_ensemble", "lattice_screen", "face_mc"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        sys.stderr.write("perfbench: --seed must be nonnegative\n")
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "stokolmo", "__init__.py")):
        sys.stderr.write("perfbench: run from the root of a checkout holding "
                         "src/stokolmo and models/\n")
        return 2
    sys.path.insert(0, src)
    import workloads  # imports numpy and stokolmo

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    import_s = time.perf_counter() - T_START

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        setup_rounds = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            load = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
            load.warmup()
            setup_rounds.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.reset()

        outputs, job_s, pass_s = [], [], []
        # whole passes only; stop at the pass count that lands nearest --seconds
        while not pass_s or sum(pass_s) + 0.5 * statistics.mean(pass_s) < args.seconds:
            t_pass = time.perf_counter()
            for op in load.ops:
                with tracer.op_span(op.name) if tracer else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    res = op.run()
                    job_s.append(time.perf_counter() - t0)
                outputs.append((op, op.collect(res)))
            pass_s.append(time.perf_counter() - t_pass)
            if len(pass_s) == 1:
                # taken after the first pass, while only its outputs are kept,
                # so the number of passes does not move the figure
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed, correct = 0, True
        for op, out in outputs:
            problems = op.check(out)
            if not problems:
                continue
            failed += 1
            if not op.known_fault:
                correct = False
                sys.stderr.write(f"perfbench: {op.name}: {'; '.join(problems)}\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics(len(pass_s))
        tracer.write_spans(os.path.join(
            out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_rounds), "unit": "s"},
            "wall_s": {"value": statistics.median(pass_s), "unit": "s"},
            "job_s_p50": {"value": statistics.median(job_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    sys.stderr.write(f"perfbench: {args.workload} seed {args.seed}: {len(pass_s)} passes "
                     f"of {len(load.ops)} operations, pass times "
                     f"{[round(t, 3) for t in pass_s]}\n")
    print(json.dumps({"correct": correct, "attempted": len(outputs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
