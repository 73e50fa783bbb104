"""``ledger``: render ``LEDGER.md`` and extend ``trajectory.csv`` from runs.

Input is directories of ``run -o`` files: two or more untraced sets of
the same commit (their agreement is the benchmark's repeatability) and
one traced set (the per-layer attribution).
"""

from __future__ import annotations

import csv
import statistics
from pathlib import Path

from .compare import load_results
from .spans import LAYER_OF_SPAN
from .stats import quartiles, spread

#: Layers of one ``dsspy analyze`` process, in display order; with the
#: import, exit-handler and unattributed time they add up to its wall time.
CLI_LAYERS = ("cli.import_s", *dict.fromkeys(LAYER_OF_SPAN.values()), "cli.atexit_s",
              "cli.unattributed_s")


#: Workload -> results, as :func:`~benchmarks.e2e.compare.load_results` gives them.
Results = dict[str, list[dict]]


def _files(directory: str) -> list[str]:
    return sorted(str(p) for p in Path(directory).glob("*.json"))


def _values(results: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def _host_line(results: Results) -> str:
    hosts = {
        (h["cpu"], h["cpus"], h["memory_gb"], h["python"])
        for rs in results.values()
        for r in rs
        if (h := r.get("host"))
    }
    return "; ".join(
        f"{cpu}, {cpus} CPUs, {memory} GB RAM, Python {python}"
        for cpu, cpus, memory, python in sorted(hosts)
    )


def render(sets: dict[str, Results], traced: Results, bench: dict, commit: str) -> str:
    names = list(sets)
    first = sets[names[0]]
    lines = [
        f"# End-to-end benchmark ledger: commit {commit}",
        "",
        f"Measured on {_host_line(first)}, `run_seconds` = {bench['run_seconds']}.",
        "Each result file is one run of the `BENCHMARK.json` command in a fresh checkout,",
        "`python3 benchmarks/e2e/run.py --workload W --seed N --trace T -o FILE`, one",
        "workload and seed after another.  Generated by `python -m benchmarks.e2e ledger`;",
        "regenerate rather than edit.",
        "",
        "## End-to-end metrics, untraced",
        "",
        "Median over runs (one run per seed) with the interquartile distance as a share",
        "of the median (`spread`); `drift` is the last set's median against the first's.",
        "A metric is within its bound when it drifts no worse than the bound and, except",
        "for `setup_s`, every set's spread is within the bound too.",
        "",
        "| workload | metric | bound | "
        + " | ".join(f"{n} median [q1, q3] | {n} spread" for n in names)
        + " | drift | within bound |",
        "|---|---|---|" + "---|---|" * len(names) + "---|---|",
    ]
    for workload in sorted(first):
        for entry in bench["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            cells, medians = [], []
            for set_name in names:
                values = _values(sets[set_name].get(workload, []), name)
                q1, median, q3 = quartiles(values)
                medians.append(median)
                cells.append(
                    f"{median:.4g} {entry['unit']} [{q1:.4g}, {q3:.4g}] (n={len(values)}) "
                    f"| {spread(values):.1%}"
                )
            sign = 1.0 if entry["better"] == "lower" else -1.0
            drift = (medians[-1] - medians[0]) / medians[0]
            ok = sign * drift <= bound and (
                name == "setup_s"
                or all(spread(_values(sets[s].get(workload, []), name)) <= bound for s in names)
            )
            lines.append(
                f"| {workload} | {name} | {bound:.0%} | " + " | ".join(cells)
                + f" | {drift:+.1%} | {'yes' if ok else 'NO'} |"
            )
    lines += ["", "## Operations", "", "| workload | " + " | ".join(
        f"{n} attempted | {n} failed" for n in names) + " |",
        "|---|" + "---|---|" * len(names)]
    for workload in sorted(first):
        cells = []
        for set_name in names:
            rs = sets[set_name].get(workload, [])
            cells.append(f"{sum(r['attempted'] for r in rs)} | {sum(r['failed'] for r in rs)}")
        lines.append(f"| {workload} | " + " | ".join(cells) + " |")
    lines += _layer_sections(traced, first, bench)
    return "\n".join(lines) + "\n"


def _layer_sections(traced: Results, untraced: Results, bench: dict) -> list[str]:
    lines = [
        "",
        "## Per-layer attribution, traced",
        "",
        "Per operation: a pass of analyze processes (Table V workloads), one analyze",
        "process (alloc-churn), or one session (fleet-sessions).  Times are self times;",
        "see README.md for the function behind each layer.",
    ]
    units = {e["name"]: e["unit"] for e in bench["per_layer"]}
    for workload in sorted(traced):
        runs = traced[workload]
        lines += ["", f"### {workload}", ""]
        breakdowns = [r["cli_breakdown"] for r in runs if r.get("cli_breakdown")]
        if breakdowns:
            wall = statistics.mean(b["cli.wall_s"] for b in breakdowns)
            lines += [
                "Inside the analyze processes (the layers add up to the traced wall time):",
                "",
                "| layer | s per op | share of wall |",
                "|---|---|---|",
            ]
            total = 0.0
            for layer in CLI_LAYERS:
                value = statistics.mean(b.get(layer, 0.0) for b in breakdowns)
                total += value
                if value:
                    lines.append(f"| {layer} | {value:.4f} | {value / wall:.1%} |")
            unattributed = statistics.mean(b["cli.unattributed_s"] for b in breakdowns)
            lines += [
                "",
                f"Reconciliation: the layers sum to {total:.4f} s against a traced wall time of "
                f"{wall:.4f} s per op; `cli.unattributed_s` is {unattributed / wall:.1%} of it.",
                "",
            ]
        lines += ["All per-layer metrics (every process):", "", "| metric | value per op | unit |",
                  "|---|---|---|"]
        for entry in bench["per_layer"]:
            values = _values(runs, entry["name"])
            if values and any(values):
                name = entry["name"]
                lines.append(f"| {name} | {statistics.mean(values):.6g} | {units[name]} |")
        fin = _values(runs, "client.fin_wait_s")
        if any(fin) and _values(runs, "fin.worker_s"):  # split for fleet sessions only
            worker = statistics.mean(_values(runs, "fin.worker_s"))
            other = statistics.mean(_values(runs, "fin.other_s"))
            lines += [
                "",
                f"FIN wait split: {statistics.mean(fin) * 1000:.2f} ms per session = "
                f"{worker * 1000:.2f} ms while worker spans of the same session ran + "
                f"{other * 1000:.2f} ms elsewhere (router, wire, scheduling).",
            ]
    lines += [
        "",
        "## Tracing overhead",
        "",
        "Traced `latency_ms` against the untraced median of the first set.",
        "",
        "| workload | untraced latency_ms | traced latency_ms | overhead |",
        "|---|---|---|---|",
    ]
    for workload in sorted(traced):
        base = statistics.median(_values(untraced.get(workload, []), "latency_ms"))
        value = statistics.median(_values(traced[workload], "latency_ms"))
        lines.append(
            f"| {workload} | {base:.1f} | {value:.1f} | {value - base:+.1f} ms "
            f"({(value - base) / base:+.1%}) |"
        )
    return lines


def trajectory_rows(sets: dict[str, Results], bench: dict, commit: str) -> list[list]:
    rows = []
    for set_name, results in sets.items():
        for workload in sorted(results):
            for entry in bench["end_to_end"]:
                values = _values(results[workload], entry["name"])
                q1, median, q3 = quartiles(values)
                rows.append(
                    [commit, set_name, workload, entry["name"], entry["unit"],
                     f"{median:.6g}", f"{q1:.6g}", f"{q3:.6g}", len(values)]
                )
    return rows


def write_ledger(
    untraced_dirs: list[str],
    traced_dirs: list[str],
    bench: dict,
    output: str,
    trajectory: str,
    commit: str,
) -> None:
    sets = {Path(d).name: load_results(_files(d)) for d in untraced_dirs}
    traced = load_results([f for d in traced_dirs for f in _files(d)])
    Path(output).write_text(render(sets, traced, bench, commit), encoding="utf-8")
    path = Path(trajectory)
    new = not path.exists()
    with path.open("a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(
                ["commit", "set", "workload", "metric", "unit", "median", "q1", "q3", "runs"]
            )
        writer.writerows(trajectory_rows(sets, bench, commit))
