"""Benchmark of the readgauge CLI path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BEFORE.jsonl AFTER.jsonl

Run from the root of a source checkout. With ``--trace 0`` it times whole
rounds of CLI processes (one at a time, a closed loop) for about ``S``
seconds and reports the end-to-end metrics as medians over rounds; with
``--trace 1`` it runs rounds in-process, one with spans around each
module's entry points between two without, and reports the per-layer
metrics.
Either way it checks the outputs, appends a run record to
``.perfbench/runs.jsonl`` and prints one JSON result as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
GRAMMAR = os.path.join(SRC, "readgauge", "data", "demo_grammar.txt")

# One BLAS thread everywhere: the CLI is single-threaded Python, and a second
# BLAS thread only adds contention and run-to-run spread on two cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
sys.path[:0] = [HERE, SRC, os.path.join(ROOT, "tests")]

import ambiguous  # noqa: E402
import checks  # noqa: E402
from workloads import (  # noqa: E402
    FOLDS, KBEST_SAMPLE_MAX_READINGS, WORKLOADS, corpus_docs, make_inputs, pd_sample, round_commands,
)

SETUP_PROBES = 7  # at least this many; one more before every round
MIN_ROUNDS = 3
RUN_LIMIT_S = 165.0  # every process is killed past this, to end within 180 s
K = 10  # the registry's k-best size

SETUP_PROBE = """
import time
t0 = time.perf_counter()
import readgauge.cli as cli
args = cli.build_arg_parser().parse_args(
    ["extract", "--manifest", "unused.csv", "--features", "linguistic", "--out", "unused"])
cli.build_resources(args)
print(repr(time.perf_counter() - t0))
"""


class Runner:
    """Runs CLI processes one at a time and keeps the counts."""

    def __init__(self, started: float):
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)

    def run(self, argv: list[str], log_path: str) -> tuple[float, float, int, str]:
        """Wall seconds, peak RSS in MB, exit code and stdout of one process."""
        limit = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if limit <= 0:
            raise TimeoutError("run time limit reached")
        with open(log_path, "wb") as err, open(log_path + ".out", "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        with open(log_path + ".out", encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        os.remove(log_path + ".out")
        self.attempted += 1
        if code != 0:
            self.failed += 1
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                print(f"command failed ({code}): {argv}\n{fh.read()[-2000:]}", file=sys.stderr)
        return wall, usage.ru_maxrss / 1024.0, code, stdout


def median(xs):
    return statistics.median(xs) if xs else 0.0


def measure_setup(runner: Runner, workdir: str, values: list[float]) -> None:
    _wall, _rss, code, out = runner.run(["-c", SETUP_PROBE], os.path.join(workdir, "setup.log"))
    if code == 0:
        values.append(float(out.strip().splitlines()[-1]))


def run_round(runner: Runner, commands, round_dir: str) -> dict[str, float]:
    os.makedirs(round_dir, exist_ok=True)
    times: dict[str, float] = {}
    peak = 0.0
    for kind, args in commands:
        wall, rss, _code, _out = runner.run(["-m", "readgauge.cli", *args], os.path.join(round_dir, kind + ".log"))
        times[kind] = wall
        peak = max(peak, rss)
    times["wall"] = sum(times.values())
    times["peak_rss_mb"] = peak
    return times


def run_in_process(commands, round_dir: str, tracer=None) -> tuple[float, int, list]:
    """One round through readgauge.cli.main in this process; wall time,
    failed commands, and per-command (kind, seconds)."""
    from readgauge import cli

    os.makedirs(round_dir, exist_ok=True)
    failed = 0
    per_command = []
    start = time.perf_counter()
    for run_id, (kind, args) in enumerate(commands):
        if tracer is not None:
            tracer.run_id = run_id
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(args)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            print(f"command raised {exc!r}: {args}", file=sys.stderr)
            code = 1
        per_command.append((kind, time.perf_counter() - t0))
        failed += code != 0
    return time.perf_counter() - start, failed, per_command


def run_checks(workload, round_dir: str, layout, tracer=None) -> list[str]:
    """Every independent check for this workload; returns what each covered."""
    import oracles
    from readgauge.grammar import load_grammar

    grammar = load_grammar(GRAMMAR)
    out = os.path.join(round_dir, "out")
    manifest = (os.path.join(round_dir, "corpus", "manifest.csv") if workload.synth_docs
                else layout[0])
    texts = checks.manifest_texts(manifest)
    features = os.path.join(out, "extract", "features.csv")
    done = []
    if "traditional" in workload.checks:
        n = checks.check_traditional(features, texts, oracles.oracle_traditional)
        done.append(f"traditional features of {n} docs")
    if "ambiguity" in workload.checks:
        sample = pd_sample(texts, layout)
        checks.check_ambiguity(features, texts, sample, grammar, oracles.enumerate_derivations)
        done.append(f"pd_2/pd_10/pdm_10 of {sample} by enumeration")
    if "skips" in workload.checks:
        n = checks.check_skips(features, layout[1])
        done.append(f"{n} skipped sentences via subtrees_per_sentence")
    if "kbest" in workload.checks:
        tag_of = {w: t for t, ws in ambiguous.grammar_vocabulary(GRAMMAR).items() for w in ws}
        if tracer is not None:
            results = tracer.kbest_results
        else:
            results = _kbest_sample(grammar, texts, tag_of)
        for words, parses in results:
            checks.check_kbest(words, parses, K, tag_of, lambda t: oracles.tree_logprob_by_rules(t, grammar))
        done.append(f"{len(results)} k-best lists")
    if tracer is not None and "skips" in workload.checks:
        want = {"over_cap": 0, "no_parse": 0}
        for sents in layout[1].values():
            for s in sents:
                if s.skip:
                    want[s.skip] += 1
        got = {k: int(tracer.counts[f"skipped.{k}"]) for k in want}
        if got != want:
            raise checks.CheckFailed(f"parser skipped {got}, generated {want}")
        done.append(f"skip counts {got}")
    weighted = checks.check_eval(os.path.join(out, "eval", "eval_summary.csv"),
                                 os.path.join(out, "eval", "eval_folds.csv"), FOLDS, workload.min_f1)
    done.append(f"eval summary (weighted F1 {weighted:.4f})")
    checks.check_ablation(os.path.join(out, "ablate", "ablation.csv"), workload.sizes)
    done.append("ablation rows")
    return done


def _kbest_sample(grammar, texts, tag_of):
    """The parser's own k-best lists for the sample documents' cheaper sentences."""
    import re

    from readgauge.cky import Parser

    parser = Parser(grammar)
    results = []
    for doc_id in sorted(texts, reverse=True):  # ambiguous docs grow harder
        for sentence in re.split(r"(?<=[.?!])\s+", texts[doc_id].strip()):
            words = [w.lower() for w in re.findall(r"[A-Za-z]+", sentence)]
            if len(words) > ambiguous.SENTENCE_CAP or not set(words) <= tag_of.keys():
                continue
            if ambiguous.tag_readings([tag_of[w] for w in words]) <= KBEST_SAMPLE_MAX_READINGS:
                results.append((words, parser.kbest(words, K).parses))
        if len(results) >= 60:
            break
    return results


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_record(args, result: dict, extra: dict) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **extra,
        **result,
    }


def checked(workload, round_dir, layout, problems, tracer=None) -> list[str]:
    try:
        return run_checks(workload, round_dir, layout, tracer)
    except checks.CheckFailed as exc:
        problems.append(str(exc))
        return []


def untraced(args, workload, workdir, layout, runner) -> tuple[dict, dict]:
    setup: list[float] = []
    rounds: list[dict[str, float]] = []
    first_digest = None
    deadline = time.perf_counter() + args.seconds
    problems = []
    # Set-up probes go between rounds, so they sample the same stretch of
    # time as the rounds do.
    while len(rounds) < MIN_ROUNDS or time.perf_counter() + median([r["wall"] for r in rounds]) <= deadline:
        measure_setup(runner, workdir, setup)
        round_dir = os.path.join(workdir, f"round{len(rounds)}")
        commands = round_commands(workload, args.seed, workdir, round_dir)
        rounds.append(run_round(runner, commands, round_dir))
        digest = checks.tree_digest(round_dir)
        if first_digest is None:
            first_digest = digest
            continue
        try:
            checks.check_same_outputs(first_digest, digest)
        except checks.CheckFailed as exc:
            problems.append(str(exc))
        shutil.rmtree(round_dir)
    while len(setup) < SETUP_PROBES:
        measure_setup(runner, workdir, setup)
    n_docs = corpus_docs(workload, layout)
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_s": (median([r["wall"] for r in rounds]), "s"),
        "extract_docs_per_s": (median([n_docs / r["extract"] for r in rounds]), "docs/s"),
        "eval_s": (median([r["eval"] for r in rounds]), "s"),
        "ablate_s": (median([r["ablate"] for r in rounds]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in rounds]), "MB"),
    }
    if runner.failed == 0:
        done = checked(workload, os.path.join(workdir, "round0"), layout, problems)
    else:
        done = []
        problems.append("failed commands leave no outputs to check")
    done.append(f"byte-identical outputs over {len(rounds)} rounds")
    extra = {"rounds": rounds, "setup_samples": setup, "checked": done, "problems": problems}
    return metrics, extra


def traced(args, workload, workdir, layout, runner) -> tuple[dict, dict]:
    import tracing

    import readgauge.cli  # noqa: F401  imports stay outside both timed rounds

    # An untraced round before the traced one pays the first-call costs; the
    # untraced round after it is the baseline for the tracing overhead.
    plain_dir = os.path.join(workdir, "plain")
    plain_commands = round_commands(workload, args.seed, workdir, plain_dir)
    _warm_wall, fl, _cmds = run_in_process(plain_commands, plain_dir)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    traced_dir = os.path.join(workdir, "traced")
    commands = round_commands(workload, args.seed, workdir, traced_dir)
    try:
        traced_wall, traced_failed, per_command = run_in_process(commands, traced_dir, tracer)
    finally:
        restore()
    again_dir = os.path.join(workdir, "again")
    plain_wall, again_failed, plain_cmds = run_in_process(
        round_commands(workload, args.seed, workdir, again_dir), again_dir)
    fl += traced_failed + again_failed
    runner.attempted += 3 * len(commands)
    runner.failed += fl
    problems = []
    try:
        checks.check_same_outputs(checks.tree_digest(plain_dir), checks.tree_digest(traced_dir))
    except checks.CheckFailed as exc:
        problems.append(str(exc))
    done = checked(workload, traced_dir, layout, problems, tracer) if fl == 0 else []
    metrics = tracing.layer_metrics(tracer, traced_wall - plain_wall, traced_wall)
    os.makedirs(os.path.join(STATE, "trace"), exist_ok=True)
    trace_path = os.path.join(STATE, "trace", f"{workload.name}-seed{args.seed}.json")
    tracer.write(trace_path, {"workload": workload.name, "seed": args.seed,
                              "untraced_s": plain_cmds, "traced_s": per_command})
    inclusive, self_time, calls = tracer.totals()
    print(f"{'span':40s} {'calls':>7s} {'incl s':>9s} {'self s':>9s} {'% wall':>7s}", file=sys.stderr)
    for name in sorted(calls, key=lambda n: -inclusive[n]):
        print(f"{name:40s} {calls[name]:7d} {inclusive[name]:9.3f} {self_time[name]:9.3f} "
              f"{100 * inclusive[name] / traced_wall:6.1f}%", file=sys.stderr)
    print(f"traced {traced_wall:.3f} s, untraced {plain_wall:.3f} s, spans in {trace_path}", file=sys.stderr)
    extra = {"checked": done, "problems": problems, "trace_file": os.path.relpath(trace_path, ROOT)}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=os.path.join(STATE, "runs.jsonl"),
                        help="JSON-lines file the run record is appended to")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two run-record files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "readgauge", "cli.py")):
        print(f"error: no readgauge sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(STATE, "work", f"{workload.name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(started)
    try:
        layout = make_inputs(workload, args.seed, workdir, GRAMMAR)
        mode = traced if args.trace else untraced
        try:
            metrics, extra = mode(args, workload, workdir, layout, runner)
        except TimeoutError as exc:
            metrics, extra = {}, {"problems": [str(exc)]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in extra["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if not metrics:
        return 1
    result = {
        "correct": not extra["problems"] and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    extra["elapsed_s"] = time.perf_counter() - started
    os.makedirs(os.path.dirname(os.path.abspath(args.record)), exist_ok=True)
    with open(args.record, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(run_record(args, result, extra)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
