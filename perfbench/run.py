"""kfull benchmark driver.

    python3 perfbench/run.py --workload engine --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (or point --root at one).  Each workload is a
closed loop with one client: its commands (workloads.py) run one after
another, each as a fresh `python -m kfull ...` process with PYTHONPATH set to
the checkout's src/, so every lru cache starts cold as it does for a user.
The only concurrency is the program's own --threads 2 in the sweep workload.

A run first checks its own checker (check.self_test), makes one discarded
warm-up process (`python -m kfull --help`, which imports and so byte-compiles
every module), then repeats whole passes over the commands until --seconds is
used up (ending within half a pass of it), at least MIN_PASSES of them (one
when tracing).  Before each pass it times SETUP_PROBES fresh
`import kfull.cli` processes.  Every output is checked; a command that exits
non-zero, times out or fails its check is a failed operation.

Each command runs through launch.py, which times a few speed probes in the
command's own process before and after it; their time is taken out of the
command's wall.

--trace 0 prints the end-to-end metrics: wall_s (a typical pass: each
command's median over the passes, summed, then scaled by SPEED_REF_S over the
run's mean speed probe to the reference host's speed), setup_s
(median of the set-up timings), peak_rss_mb (largest resident set of any process of a pass,
forked workers included, median over passes), digits_certified (fewest
digits any printed value certifies) and ok_ops (share of commands that
passed).  --trace 1 runs each command untraced and then under tracer.py and
prints the per-layer metrics of layers.py, median over passes.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  The line starting "stamp " before it records the
commit, source digest, Python, mpmath backend, numpy, nproc and load average.
--workload all runs every workload and prints each one's table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import check
import launch
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
SETUP_PROBES = 3  # per pass
MIN_PASSES = 2
RUN_LIMIT_S = 165  # a run starts no command after this, and kills one that would pass it

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "digits_certified": "digits",
    "ok_ops": "share",
}


@dataclass
class Outcome:
    rc: int | None
    wall: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool
    probes: tuple = ()  # speed probes the launcher ran, already taken out of wall


class Bench:
    def __init__(self, root: str, refs: check.Refs):
        self.root, self.refs = root, refs
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # byte-compiled modules are cached, as they are for an installed package
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.deadline = math.inf
        os.makedirs(WORK, exist_ok=True)

    def run(self, argv: list) -> Outcome:
        """One fresh process, timed from spawn to reaping; resident set from wait4."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Outcome(None, 0.0, 0.0, b"", b"run time limit reached", True)
        out_path, err_path = os.path.join(WORK, "stdout"), os.path.join(WORK, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                 env=self.env, cwd=self.root, start_new_session=True)
            fired = threading.Event()
            timer = threading.Timer(timeout, lambda: (fired.set(), _kill_group(p.pid)))
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
                wall = time.perf_counter() - t0
            except BaseException:
                _kill_group(p.pid)
                os.waitpid(p.pid, 0)
                raise
            finally:
                timer.cancel()
            _kill_group(p.pid)  # workers a crashed command left behind
            p.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Outcome(p.returncode, wall, usage.ru_maxrss / 1024, stdout, stderr,
                       fired.is_set())

    def kfull(self, args) -> Outcome:
        """`python -m kfull ARGS` through launch.py, net of its speed probes."""
        path = os.path.join(WORK, "probes.json")
        if os.path.exists(path):
            os.remove(path)
        o = self.run([sys.executable, os.path.join(HERE, "launch.py"), path, "--", *args])
        try:
            with open(path) as fh:
                o.probes = tuple(json.load(fh))
        except (OSError, ValueError):
            return o  # the command failed before the launcher wrote its probes
        o.wall -= sum(o.probes)
        return o

    def traced(self, args, trace_path) -> Outcome:
        return self.run([sys.executable, os.path.join(HERE, "tracer.py"), trace_path, "--",
                         *args])

    def checked(self, cmd, o: Outcome):
        """(ok, digits) for one outcome; a failure is reported on stderr."""
        if o.timed_out:
            ok, reason, digits = False, "timed out", None
        else:
            try:
                text = o.stdout.decode()
            except UnicodeDecodeError:
                ok, reason, digits = False, "stdout is not UTF-8", None
            else:
                ok, reason, digits = check.check(cmd, o.rc, text, self.refs)
        if not ok:
            tail = o.stderr.decode(errors="replace").strip().splitlines()[-3:]
            print(f"FAILED kfull {' '.join(cmd.args)}: {reason} {' | '.join(tail)}",
                  file=sys.stderr)
        return ok, digits

    def workload(self, name: str, seed: int, seconds: float, trace: bool) -> dict:
        cmds = workloads.commands(name, seed)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.kfull(["--help"])  # warm-up, discarded
        attempted = failed = 0
        setup, passes = [], []
        start = time.perf_counter()
        while True:
            # probes sit between passes so they see the same machine as the passes
            setup += [self.run([sys.executable, "-c", "import kfull.cli"])
                      for _ in range(SETUP_PROBES)]
            p = self.traced_pass(cmds) if trace else self.plain_pass(cmds)
            passes.append(p)
            attempted += p["attempted"]
            failed += p["failed"]
            used = time.perf_counter() - start
            typical = statistics.median(q["seconds"] for q in passes)
            # another pass starts when it should end no later than half a pass
            # past --seconds, so runs average about --seconds
            if (len(passes) >= (1 if trace else MIN_PASSES) and used + typical / 2 > seconds) \
                    or time.monotonic() + typical > self.deadline:
                break
        failed += sum(1 for o in setup if o.rc != 0)
        attempted += len(setup)
        if trace:
            metrics = {n: statistics.median(p["layers"][n] for p in passes)
                       for n in layers.PER_LAYER}
            units = layers.PER_LAYER
        else:
            digits = [d for p in passes for d in p["digits"] if math.isfinite(d)]
            # a typical pass: each command's median over the run's passes
            typical_wall = sum(statistics.median(p["walls"][i] for p in passes)
                               for i in range(len(cmds)))
            probes = [t for p in passes for t in p["probes"]]
            probe = statistics.mean(probes) if probes else launch.SPEED_REF_S
            metrics = {
                "wall_s": typical_wall * launch.SPEED_REF_S / probe,
                "setup_s": statistics.median(o.wall for o in setup),
                "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
                "digits_certified": min(digits, default=0.0),
                "ok_ops": 1.0 - failed / attempted,
            }
            units = END_TO_END
        return {
            "workload": name,
            "unscaled_wall_s": None if trace else typical_wall,
            "probe_s": None if trace else probe,
            "passes": len(passes),
            "pass_walls": [p["wall"] for p in passes],
            "command_walls": [p.get("walls") for p in passes],
            "commands": [" ".join(c.args) for c in cmds],
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        }

    def plain_pass(self, cmds) -> dict:
        t0 = time.perf_counter()
        outcomes = [(c, self.kfull(c.args)) for c in cmds]
        checked = [self.checked(c, o) for c, o in outcomes]
        return {
            "seconds": time.perf_counter() - t0,
            "wall": sum(o.wall for _, o in outcomes),
            "walls": [o.wall for _, o in outcomes],
            "probes": [t for _, o in outcomes for t in o.probes],
            "rss_mb": max(o.rss_mb for _, o in outcomes),
            "digits": [d for ok, d in checked if ok and d is not None],
            "attempted": len(cmds),
            "failed": sum(1 for ok, _ in checked if not ok),
        }

    def traced_pass(self, cmds) -> dict:
        t0 = time.perf_counter()
        runs, failed, wall = [], 0, 0.0
        for i, c in enumerate(cmds):
            path = os.path.join(WORK, f"trace-{i}.json")
            plain = self.kfull(c.args)
            traced = self.traced(c.args, path)
            ok = [self.checked(c, o)[0] for o in (plain, traced)]
            identical = plain.stdout == traced.stdout
            wall += plain.wall + traced.wall
            if not identical:
                print(f"FAILED kfull {' '.join(c.args)}: stdout differs under the tracer",
                      file=sys.stderr)
            failed += ok.count(False) + (not identical and all(ok))
            if all(ok):
                with open(path) as fh:
                    runs.append({"cmd": c, "trace": json.load(fh), "plain_s": plain.wall,
                                 "traced_s": traced.wall, "identical": identical})
        metrics = layers.layer_metrics(runs) if runs else dict.fromkeys(layers.PER_LAYER, 0.0)
        return {"seconds": time.perf_counter() - t0, "wall": wall, "layers": metrics,
                "attempted": 2 * len(cmds), "failed": failed}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def stamp(root: str) -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for f in sorted(filenames):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        git = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg()[0],
    }


def print_table(result: dict) -> None:
    walls = result["pass_walls"]
    print(f"workload {result['workload']}: {result['passes']} passes "
          f"(pass walls {', '.join(f'{w:.2f}' for w in walls)} s), "
          f"{result['failed']} of {result['attempted']} operations failed")
    for i, c in enumerate(result["commands"]):
        walls = [w[i] for w in result["command_walls"] if w]
        print(f"    kfull {c}" + (f"  ({', '.join(f'{w:.2f}' for w in walls)} s)" if walls else ""))
    if result["probe_s"] is not None:
        print(f"  unscaled wall {result['unscaled_wall_s']:.4g} s; mean speed probe "
              f"{result['probe_s']:.4g} s, against {launch.SPEED_REF_S} s on the reference host")
    rows = dict(result["metrics"])
    if "ok_ops" in rows:
        rows["failed_ops"] = {"value": result["failed"] / result["attempted"], "unit": "share"}
    for name, m in rows.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description="kfull benchmark")
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring time per workload; at least MIN_PASSES passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", default=".", help="checkout to benchmark (default: cwd)")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    try:
        if not os.path.isfile(os.path.join(root, "src", "kfull", "cli.py")):
            raise FileNotFoundError(f"no src/kfull/cli.py under {root}")
        refs = check.Refs(root)
    except (OSError, ValueError, SyntaxError) as exc:
        print(f"perfbench: cannot benchmark {root}: {exc}", file=sys.stderr)
        return 2
    problems = check.self_test(refs)
    if problems:
        print("perfbench: the output checks are not live: " + "; ".join(problems),
              file=sys.stderr)
        return 3
    info = stamp(root)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("stamp " + json.dumps(info, sort_keys=True), flush=True)

    bench = Bench(root, refs)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        results.append(bench.workload(name, args.seed, args.seconds, bool(args.trace)))
        print_table(results[-1])
        sys.stdout.flush()
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results for n, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
