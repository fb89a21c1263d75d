"""End-to-end and per-layer benchmark of the `oscispec` CLI.

    python3 perfbench/run.py --workload scan_catalog --seed 0 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) through
`oscispec.cli.main(argv)` in this process, as a closed loop with one client:
each operation starts when the previous one ends.  The loop runs whole
rounds of the workload's operations: as many as fill `--seconds` at the
workload's nominal round time (ROUND_S), and at least MIN_ROUNDS.  Set-up is
timed in fresh processes spread over the run.  Every execution is checked
against reference roots (checks.py).

--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
runs every operation once untraced and once traced per round, in alternating
order, for at least two rounds; it reports the per-layer metrics of the
traced executions (tracing.py), prints the end-to-end metrics of the untraced
ones beside them, and writes the spans to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 whenever a
result is printed, and nonzero without a result when the benchmark cannot
run (for example when the checkout has no src/oscispec).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402
import tracing  # noqa: E402
from checks import References, check  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402

OUT = env.ROOT / ".perfbench_out"

#: set-up is timed in this many fresh processes, spread over the run; the
#: median is reported
SETUP_PROBES = 7

#: every operation runs at least this many times, whatever --seconds says,
#: so that its mean execution time never rests on a single sample
MIN_ROUNDS = 3

#: nominal time of one round of each workload, in seconds, at seed 0 on a
#: 2-vCPU x86-64 VM; with --seconds it sets the number of rounds of a run
ROUND_S = {"scan_catalog": 7.0, "rect_search": 6.5, "verify_oracle": 15.0, "modes_split": 1.9}

#: end-to-end metrics: name -> unit, in report order
E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "root_rel_dev_max": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help="only set up, then exit (times setup_s)"
    )
    return parser.parse_args(argv)


class Setup:
    """Imported modules, operations, built problems and reference roots."""

    def __init__(self, workload: str, seed: int, tracer_factory=None):
        self.threads = env.pin_threads()
        self.oscispec = env.import_oscispec()
        from oscispec import cli, models, oracle, problem

        self.cli, self.models = cli, models
        self.tracer = tracer_factory(self.oscispec) if tracer_factory else None
        if self.tracer is not None:
            self.tracer.activate(True)
        self.ops = build_ops(workload, seed)
        stored = json.loads((HERE / "reference_roots.json").read_text())
        self.refbook = References(models, oracle, stored)
        for op in self.ops:
            for model, params in op.problems():
                built = models.build_model(model, **params)
                violations = problem.validate(built)
                if violations:
                    raise ValueError(f"{op.label}: {violations}")
                self.refbook.roots(model, params)
        if self.tracer is not None:
            self.tracer.activate(False)


def setup_probe(workload: str, seed: int) -> float:
    """Time one set-up in a fresh process, from its start to its exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return elapsed


class Runner:
    """Executes and checks operations; keeps what the metrics need."""

    def __init__(self, setup: Setup, workload: str):
        self.s = setup
        self.work = OUT / "work" / workload
        self.times: dict[tuple[int, bool], list[float]] = {}
        self.outcomes = []  # (op index, op id or None, Outcome)

    def execute(self, k: int, traced: bool, op_id=None) -> None:
        op = self.s.ops[k]
        out_dir = self.work / str(k)
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        tracer = self.s.tracer
        if tracer is not None:
            tracer.activate(traced)
        # keep the roots the solver returns, for the checks; no timing here
        cli = self.s.cli
        inner, calls = cli.solve_spectrum, []

        def capture(*args, **kwargs):
            calls.append(inner(*args, **kwargs))
            return calls[-1]

        cli.solve_spectrum = capture
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, error = None, None
        span = tracer.begin_op(op_id) if traced else None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(op.argv(str(out_dir)))
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code
        except Exception as exc:  # a crash of the operation is a failure, not the end of the run
            error = exc
        elapsed = perf_counter() - t0
        if span is not None:
            tracer.end_op(span)
        cli.solve_spectrum = inner
        if tracer is not None:
            tracer.activate(False)
        self.times.setdefault((k, traced), []).append(elapsed)
        outcome = check(op, rc, error, calls, stdout.getvalue(), out_dir,
                        self.s.refbook, self.s.models)
        if outcome.failed and stderr.getvalue().strip():
            outcome.reasons.append(f"stderr: {stderr.getvalue().strip()[-300:]}")
        self.outcomes.append((k, op_id, outcome))

    def per_op_means(self, traced: bool) -> list[float]:
        """Each operation's mean execution time in the run; their sum is the
        run's total execution time per round."""
        return [statistics.fmean(self.times[(k, traced)]) for k in range(len(self.s.ops))]


def rounds_for(workload: str, seconds: float, traced: bool = False) -> int:
    """Rounds a run makes: enough to fill `seconds` at the nominal round
    time, at least MIN_ROUNDS (two when traced, where a round runs every
    operation twice).  The count depends only on the arguments, so a seed
    gives the same executions, and the same `attempted`, every run."""
    if traced:
        return max(2, round(seconds / (2 * ROUND_S[workload])))
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def run_untraced(runner: Runner, rounds: int, probe, setup_times: list[float]) -> None:
    """`rounds` full rounds of the workload's operations.

    Between operations, `probe()` tops `setup_times` up evenly over the run,
    so that set-up is timed across the whole of it, not at one moment.
    """
    n = len(runner.s.ops)
    total = rounds * n
    for i in range(total):
        while len(setup_times) < 1 + (SETUP_PROBES - 1) * i // total:
            setup_times.append(probe())
        runner.execute(i % n, traced=False)
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(probe())


def run_traced(runner: Runner, rounds: int) -> None:
    """`rounds` rounds; in each, every operation runs once untraced and once
    traced, in an order that alternates from round to round."""
    n = len(runner.s.ops)
    for r in range(rounds):
        for k in range(n):
            order = (False, True) if r % 2 == 0 else (True, False)
            for traced in order:
                runner.execute(k, traced, op_id=(r, k) if traced else None)


def e2e_metrics(runner: Runner, setup_times: list[float]) -> dict:
    means = runner.per_op_means(traced=False)
    devs = [d for _, op_id, o in runner.outcomes if op_id is None for d in o.devs]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(means),
        "op_p50_s": statistics.median(means),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "root_rel_dev_max": max(devs) if devs else 0.0,
    }


def layer_metrics(runner: Runner, rounds: int) -> tuple[dict, list[str]]:
    spans = runner.s.tracer.spans
    per_round = []
    for r in range(rounds):
        roots = sum(o.roots for _, op_id, o in runner.outcomes if op_id and op_id[0] == r)
        per_round.append(tracing.round_metrics(spans, r, roots))
    problems = [
        f"{name} differs between traced rounds: {[m[name] for m in per_round]}"
        for name in tracing.COUNTS
        if len({m[name] for m in per_round}) != 1
    ]
    metrics = {
        name: (per_round[0][name] if name in tracing.COUNTS
               else statistics.median(m[name] for m in per_round))
        for name in per_round[0]
    }
    traced = sum(runner.per_op_means(True))
    untraced = sum(runner.per_op_means(False))
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics, problems


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1
    try:
        if args.setup_probe:
            Setup(args.workload, args.seed)
            return 0
        setup = Setup(args.workload, args.seed, tracing.Tracer if args.trace else None)
        probe = functools.partial(setup_probe, args.workload, args.seed)
        # one probe up front, so that a checkout that cannot set up fails here
        setup_times = [probe()]
    except (ImportError, OSError, ValueError, KeyError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    runner = Runner(setup, args.workload)
    problems = []
    if args.trace:
        rounds = rounds_for(args.workload, args.seconds, traced=True)
        run_traced(runner, rounds)
        setup_times += [probe() for _ in range(SETUP_PROBES - 1)]
        metrics, problems = layer_metrics(runner, rounds)
        units = tracing.LAYER_METRICS
    else:
        run_untraced(runner, rounds_for(args.workload, args.seconds), probe, setup_times)
        metrics, units = e2e_metrics(runner, setup_times), E2E_METRICS

    outcomes = [o for _, _, o in runner.outcomes]
    failed = sum(o.failed for o in outcomes)
    correct = not problems and not any(o.wrong for o in outcomes)
    record = {
        "workload": args.workload,
        "env": env.record(args.seed, setup.threads),
        "ops": [op.label for op in setup.ops],
        "op_times_s": [runner.times[(k, False)] for k in range(len(setup.ops))],
        "setup_times_s": setup_times,
        "failures": sorted({
            f"{setup.ops[k].label}: {reason}"
            for k, _, o in runner.outcomes for reason in o.reasons
        }),
        "self_check": problems,
    }
    if args.trace:
        record["untraced"] = e2e_metrics(runner, setup_times)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        setup.tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(env.ROOT))

    print(json.dumps(record, indent=1))
    if args.trace:
        for name, value in record["untraced"].items():
            print(f"{name:34s} {value:>16.6g} {E2E_METRICS[name]}  (untraced executions)")
    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':34s} {failed / len(outcomes):>16.6g} ratio  ({failed} of {len(outcomes)})")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
