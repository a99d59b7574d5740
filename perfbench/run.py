"""Benchmark of the coverramsey toolkit, end to end and layer by layer.

    python3 perfbench/run.py --workload exhaustive --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

One run sets up the workload's seeded input files several times
(`setup_s` is the median), then repeats timed passes over the instance
list until they have measured `--seconds`, at least twice.  Each pass drives
`coverramsey.cli.main` in-process (and, for `certify`, library routes);
the first pass is checked against reference answers computed outside the
timed region, and every later pass must reproduce its output files byte
for byte.

With `--trace 0` the last stdout line reports the end-to-end metrics
(medians over passes); with `--trace 1` one untraced pass is followed by
two traced passes, whose count metrics must agree exactly, and the last
line reports the per-layer metrics of the first traced pass.  Results,
with the Python version, CPU count, git SHA and seed, are also written to
`.perfbench-out/` under the checkout.  `--workload all` runs each
workload in a fresh process and prints every metric by name and unit.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
RESULTS = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
MIN_PASSES = 2
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import coverramsey.cli; print(time.perf_counter() - t)")


def cpu_now():
    """CPU seconds of this process plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


class Pass:
    """One pass over a workload's instance list: timed calls, their
    outputs under `outdir`, and the failures found, by instance."""

    def __init__(self, outdir, tracer=None):
        self.outdir = outdir
        self.tracer = tracer
        self.wall = 0.0
        self.cpu = 0.0
        self.instance = None
        self.failures = {}
        self.results = {}
        self.stdout = {}
        self.files = {}
        self.instance_wall = {}
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)

    def out(self, name):
        self.files.setdefault(name, self.instance)
        return os.path.join(self.outdir, name)

    def fail(self, instance, message):
        self.failures.setdefault(instance, []).append(message)

    def _timed(self, fn, *args):
        if self.tracer is not None:
            self.tracer.instance = self.instance
        wall, cpu = time.perf_counter(), cpu_now()
        try:
            return fn(*args)
        finally:
            self.cpu += cpu_now() - cpu
            wall = time.perf_counter() - wall
            self.wall += wall
            self.instance_wall[self.instance] = (
                self.instance_wall.get(self.instance, 0.0) + wall)

    def cli(self, argv):
        """`coverramsey.cli.main(argv)` with stdout captured; a non-zero
        exit fails the instance."""
        import coverramsey.cli as cli

        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self._timed(lambda a: cli.main(a), argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed instance
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            tail = err.getvalue().strip().splitlines()[-1:] or [""]
            self.fail(self.instance, f"{argv[0]} exited {code} {tail[0]}")
        return code, out.getvalue()

    def lib(self, fn, *args):
        try:
            self.results[self.instance] = self._timed(fn, *args)
        except Exception as exc:  # a raising route is a failed instance
            self.fail(self.instance, f"{fn.__name__} raised {exc!r}")

    @contextmanager
    def guard(self, instance):
        """Fail the instance, rather than the run, on a missing or
        malformed output."""
        try:
            yield
        except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
            self.fail(instance, f"missing or malformed output: {exc!r}")

    def record(self, instance, name):
        try:
            with open(self.out(name), encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            self.fail(instance, f"{name}: {exc}")
            return None

    def snapshot(self):
        """SHA-256 of every output file, by name."""
        out = {}
        for name in sorted(os.listdir(self.outdir)):
            with open(os.path.join(self.outdir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    def compare(self, first, first_pass):
        """Fail each instance whose output bytes differ from the first
        pass's."""
        mine = self.snapshot()
        for name in sorted(set(first) | set(mine)):
            if first.get(name) != mine.get(name):
                owner = self.files.get(name) or first_pass.files.get(name)
                self.fail(owner, f"{name} differs from the first pass")


def import_seconds():
    """Import time of the CLI in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout.strip())


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coverramsey").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def run_passes(workload, workdir, seconds, trace):
    """Timed passes (one untraced pass when tracing, then two traced);
    returns (passes, per-layer metrics or None, count mismatch or None)."""
    outdir = os.path.join(workdir, "out")
    passes = []
    first = None
    while True:
        p = Pass(outdir)
        workload.run_pass(p)
        if first is None:
            workload.check(p)
            first = p.snapshot()
        else:
            p.compare(first, passes[0])
        passes.append(p)
        if trace or (len(passes) >= MIN_PASSES
                     and sum(p.wall for p in passes) >= seconds):
            break
    if not trace:
        return passes, None, None

    from tracer import Tracer, count_metrics

    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for _ in range(2):
            tracer.reset()
            p = Pass(outdir, tracer)
            workload.run_pass(p)
            p.compare(first, passes[0])
            traced.append((p, tracer.metrics()))
            if len(traced) == 1:
                RESULTS.mkdir(exist_ok=True)
                tracer.write_spans(RESULTS / f"spans-{workload.name}-"
                                             f"seed{workload.seed}.jsonl.gz")
    finally:
        tracer.uninstall()
    (p1, m1), (p2, m2) = traced
    passes += [p1, p2]
    metrics = dict(m1)
    metrics["trace.overhead_ratio"] = p1.wall / passes[0].wall
    c1, c2 = count_metrics(m1), count_metrics(m2)
    mismatch = None
    if c1 != c2:
        diff = sorted(k for k in c1 if c1[k] != c2.get(k))
        mismatch = f"count metrics differ between traced passes: {diff}"
    return passes, metrics, mismatch


def run_one(args):
    workload = WORKLOADS[args.workload](args.seed)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    setup_times = []
    try:
        for i in range(SETUP_REPEATS):
            if i:
                shutil.rmtree(workdir)
            os.makedirs(workdir)
            imported = import_seconds()
            start = time.perf_counter()
            workload.setup(str(workdir))
            setup_times.append(imported + time.perf_counter() - start)
        passes, layer_metrics, mismatch = run_passes(
            workload, str(workdir), args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    instances = len(workload.instances)
    failures = {f"pass{i}:{inst}": msgs for i, p in enumerate(passes)
                for inst, msgs in p.failures.items()}
    attempted = instances * len(passes)
    failed = len(failures) + (mismatch is not None)
    if mismatch:
        failures["trace"] = [mismatch]
    untraced = passes[:1] if args.trace else passes
    end_to_end = {
        "wall_s": statistics.median(p.wall for p in untraced),
        "cpu_s": statistics.median(p.cpu for p in untraced),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.trace:
        from tracer import metric_unit
        metrics = {k: {"value": v, "unit": metric_unit(k)}
                   for k, v in layer_metrics.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end.items()}
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "passes": len(passes), "instances": instances,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(), "src_sha256": source_digest()}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace"
                        f"{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "end_to_end": end_to_end,
                   "fail_ratio": failed / attempted,
                   "pass_wall_s": [p.wall for p in passes],
                   "instance_wall_s": {
                       inst: statistics.median(p.instance_wall.get(inst, 0.0)
                                               for p in untraced)
                       for inst in workload.instances},
                   "setup_s_samples": setup_times,
                   "layer_metrics": layer_metrics,
                   "references": workload.expected,
                   "failures": failures}, fh, indent=1, sort_keys=True)
    for name, msgs in sorted(failures.items())[:20]:
        print(f"FAIL {name}: {'; '.join(msgs)}", file=sys.stderr)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in a fresh process; every metric by name and unit."""
    ok = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}\n{done.stderr}")
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        print(f"  {'fail_ratio':<48} "
              f"{result['failed'] / result['attempted']:>14.6g} ratio")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<48} {entry['value']:>14.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coverramsey" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "_oracles.py").is_file():
        print(f"error: {ROOT} has no coverramsey sources (src/coverramsey, "
              f"tests/_oracles.py); perfbench/ must sit in a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import coverramsey
    if Path(coverramsey.__file__).resolve().parent != \
            (ROOT / "src" / "coverramsey").resolve():
        print(f"error: imported coverramsey from {coverramsey.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
