"""Compare two sets of untraced run records, workload by workload.

For every end-to-end metric in BENCHMARK.json it prints each side's median
and quartiles and a label:

- ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the metric's bound, and not every AFTER run beats every
  BEFORE run;
- ``worse``: AFTER's median is worse than BEFORE's by more than the bound;
- ``better``: AFTER's median is better by more than BEFORE's own spread;
- ``unchanged``: anything else.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str):
    """workload -> metric -> values, workload -> [attempted, failed], run metadata."""
    values: dict = defaultdict(lambda: defaultdict(list))
    counts: dict = defaultdict(lambda: [0, 0])
    meta: set = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            for name, m in rec["metrics"].items():
                values[rec["workload"]][name].append(m["value"])
            counts[rec["workload"]][0] += rec["attempted"]
            counts[rec["workload"]][1] += rec["failed"]
            meta.add(f"sha {rec['git_sha'][:12]} python {rec['python']} numpy {rec['numpy']} "
                     f"nproc {rec['nproc']} blas_threads {rec['blas_threads']}")
    return values, counts, meta


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def label(before: list[float], after: list[float], bound: float, better: str) -> tuple[str, float]:
    """The label and AFTER's median change toward worse, as a share of BEFORE's."""
    bq1, bmed, bq3 = summary(before)
    aq1, amed, aq3 = summary(after)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (amed - bmed) / bmed
    spread_before = (bq3 - bq1) / bmed
    spread_after = (aq3 - aq1) / amed
    if max(spread_before, spread_after) > bound:
        all_better = max(sign * a for a in after) < min(sign * b for b in before)
        return ("better" if all_better else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > spread_before:
        return "better", worse_by
    return "unchanged", worse_by


def main(before_path: str, after_path: str, benchmark_json: str) -> int:
    with open(benchmark_json, encoding="utf-8") as fh:
        spec = json.load(fh)
    before, before_counts, before_meta = load(before_path)
    after, after_counts, after_meta = load(after_path)
    for side, meta in (("before", before_meta), ("after", after_meta)):
        for line in sorted(meta):
            print(f"{side}: {line}")
    print(f"{'workload':16s} {'metric':20s} {'before median [q1, q3] n':>34s} "
          f"{'after median [q1, q3] n':>34s} {'worse by':>9s}  label")
    for workload in sorted(set(before) | set(after)):
        if workload not in before or workload not in after:
            print(f"{workload:16s} runs on one side only")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, a = before[workload][name], after[workload][name]
            verdict, worse_by = label(b, a, metric["bound"], metric["better"])
            cells = []
            for values in (b, a):
                q1, med, q3 = summary(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}")
            print(f"{workload:16s} {name:20s} {cells[0]:>34s} {cells[1]:>34s} {100 * worse_by:+8.1f}%  {verdict}")
        for side, counts in (("before", before_counts), ("after", after_counts)):
            attempted, failed = counts[workload]
            print(f"{workload:16s} {side} failed {failed} of {attempted} operations")
    return 0
