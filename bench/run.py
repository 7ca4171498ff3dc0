"""romanoff-lab benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; romanoff_lab is imported from ``src/``.
Workloads: ``moments``, ``curves`` and ``profiles`` call the library in this
process; ``cli_batch`` runs short ``python -m romanoff_lab`` calls one after
another.  Inputs come from ``inputs.py`` and depend only on the seed.

A run first times set-up several times in fresh processes (interpreter,
``import romanoff_lab`` and the shared tables; for cli_batch one ``--help``
call) and reports the median.  It then makes round(S / nominal pass time)
passes over the workload's fixed op list, so that two commits always do the
same work, and checks every output outside the timed region: invariants on
the first pass, equality of every later pass with the first, and on the
default seed the golden record (on other seeds, the record of every op whose
inputs do not depend on the seed).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` spends half the passes untraced and half under the span
wrappers of ``spans.py`` and prints the per-layer metrics, the tracing
overhead and the time the benchmark itself took between spans.  The last
line of stdout is one JSON object; the full report (machine record, per-op
samples, errors) and the spans go to ``.bench_out/``.

Timings are per op (per call for cli_batch), each at the reference speed of
``speed.py``: ``wall_s`` adds up each op's median over the passes, and the
latency percentiles are taken over every timed execution of every op.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("moments", "curves", "profiles", "cli_batch")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
OP_STRIDE = 1000  # op id = pass * OP_STRIDE + position in the op list

CLI_SUBCOMMANDS = ("sieve", "moments", "extremal", "elliptic", "romanoff", "lemmas", "verify-all")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_p50_s": "s",
    "call_tail_s": "s",
}

PER_LAYER_UNITS = {
    "sieve.build_sieve.s": "s",
    "sieve.PrimeList.build.s": "s",
    "sieve.totient_ratio.calls": "count",
    "sieve.totient_ratio.s": "s",
    "sieve.cache_hits": "count",
    "sieve.cache_misses": "count",
    "sieve.cache_corrupt_rebuilds": "count",
    "sieve.table_bytes": "computed_bytes",
    "exact.exact_fraction_sum.self_s": "s",
    "moments.moment_sum.terms": "count",
    "moments.report.self_s": "s",
    "extremal.construct_extremal_set.self_s": "s",
    "elliptic.count_points.calls": "count",
    "elliptic.count_points.distinct": "count",
    "elliptic.count_points.useful_ratio": "ratio",
    "elliptic.count_points.s": "s",
    "sequences.enumerate_terms.calls": "count",
    "sequences.enumerate_terms.self_s": "s",
    "sequences.congruence_pair_sum.self_s": "s",
    "romanoff.representation_counts.s": "s",
    "romanoff.representation_counts.pair_ops": "count",
    "romanoff.multiplicative_order.calls": "count",
    "romanoff.multiplicative_order.s": "s",
    "romanoff.report.self_s": "s",
    **{f"cli.{sub}.s": "s" for sub in CLI_SUBCOMMANDS},
    "run.cpu_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}

MOMENT_REPORTS = ("moments.theorem1_report", "moments.poly_moment_report", "moments.delta_moment_report")
ROMANOFF_REPORTS = ("romanoff.theorem6_report", "romanoff.theorem9_report")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Sample:
    """One timed execution: raw wall and CPU seconds, and the index of the
    speed sample taken right before it (``SpeedMeter.factor``)."""

    seconds: float
    cpu_s: float
    before: int


@dataclass
class OpStats:
    """Timings and failures of one op (one call for cli_batch) over a run."""

    runs: int = 0  # executions attempted
    times: list[Sample] = field(default_factory=list)  # untraced passes
    traced: list[Sample] = field(default_factory=list)
    failed_runs: int = 0  # executions that raised, exited wrongly or differed from the first
    bad_output: bool = False  # the first output failed a check or the golden record
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str, *, output: bool = False) -> None:
        self.errors.append(message)
        if output:
            self.bad_output = True
        else:
            self.failed_runs += 1

    def failures(self) -> int:
        return self.runs if self.bad_output else self.failed_runs


def at_reference(samples: list[Sample], meter, cpu: bool = False) -> list[float]:
    return [(s.cpu_s if cpu else s.seconds) * meter.factor(s.before) for s in samples]


def medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {k: statistics.median(v) for k, v in samples.items() if v}


def overhead_ratio(stats: dict, meter) -> float:
    """Traced over untraced wall time minus 1, both at the reference speed."""
    traced = sum(medians({n: at_reference(st.traced, meter) for n, st in stats.items()}).values())
    untraced = sum(medians({n: at_reference(st.times, meter) for n, st in stats.items()}).values())
    return traced / untraced - 1.0


def latency_percentiles(samples: list[float]) -> dict:
    """p50 and the tail over every per-call sample.  The tail is the highest
    percentile with TAIL_BEYOND samples above it, but not below the median in
    a run too short to have that many."""
    pooled = sorted(samples)
    n = len(pooled)
    rank = max(n - 1 - TAIL_BEYOND, (n - 1) // 2)
    return {
        "p50": statistics.median(pooled),
        "tail": pooled[rank],
        "tail_percentile": 100.0 * rank / max(1, n - 1),
        "samples": n,
    }


def end_to_end(times: dict[str, list[float]], setup: list[float], peak_rss_mb: float) -> dict:
    lat = latency_percentiles([t for ts in times.values() for t in ts])
    return {
        "wall_s": sum(medians(times).values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "call_p50_s": lat["p50"],
        "call_tail_s": lat["tail"],
        "latency": lat,
    }


def time_setup(workload: str, meter) -> list[Sample]:
    """Process launch to shared tables ready, in fresh processes, one at a time."""
    if workload == "cli_batch":
        command = [sys.executable, "-m", "romanoff_lab", "--help"]
    else:
        command = [sys.executable, str(BENCH / "setup_tables.py"), str(SRC), workload]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = []
    for _ in range(SETUP_PROBES):
        before = meter.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            try:
                if workload == "cli_batch":
                    _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
                    elapsed = time.perf_counter() - t0
                    ready = proc.returncode == 0
                else:
                    line = proc.stdout.readline()
                    elapsed = time.perf_counter() - t0
                    _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
                    ready = line.strip() == b"ready" and proc.returncode == 0
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("set-up probe timed out")
        if not ready:
            raise BenchError(f"set-up probe failed: {err.decode()[-500:]}")
        probes.append(Sample(elapsed, 0.0, before))
    return probes


# --- library workloads -------------------------------------------------------


def layer_metrics(L: dict) -> dict[str, float]:
    """Per-layer metric values from one ``SpanSet.layers()`` result."""
    s, own, calls, counts = L["s"], L["self_s"], L["calls"], L["counts"]
    return {
        "sieve.build_sieve.s": s.get("sieve.build_sieve", 0.0),
        "sieve.PrimeList.build.s": s.get("sieve.PrimeList.build", 0.0),
        "sieve.totient_ratio.calls": calls.get("sieve.totient_ratio", 0),
        "sieve.totient_ratio.s": s.get("sieve.totient_ratio", 0.0),
        "exact.exact_fraction_sum.self_s": own.get("exact.exact_fraction_sum", 0.0),
        "moments.moment_sum.terms": counts.get("moments.moment_sum.terms", 0),
        "moments.report.self_s": sum(own.get(k, 0.0) for k in MOMENT_REPORTS),
        "extremal.construct_extremal_set.self_s": own.get("extremal.construct_extremal_set", 0.0),
        "elliptic.count_points.calls": calls.get("elliptic.count_points", 0),
        "elliptic.count_points.distinct": L["distinct"].get("elliptic.count_points", 0),
        "elliptic.count_points.s": s.get("elliptic.count_points", 0.0),
        "sequences.enumerate_terms.calls": calls.get("sequences.enumerate_terms", 0),
        "sequences.enumerate_terms.self_s": own.get("sequences.enumerate_terms", 0.0),
        "sequences.congruence_pair_sum.self_s": own.get("sequences.congruence_pair_sum", 0.0),
        "romanoff.representation_counts.s": s.get("romanoff.representation_counts", 0.0),
        "romanoff.representation_counts.pair_ops": counts.get("romanoff.representation_counts.pair_ops", 0),
        "romanoff.multiplicative_order.calls": calls.get("romanoff.multiplicative_order", 0),
        "romanoff.multiplicative_order.s": s.get("romanoff.multiplicative_order", 0.0),
        "romanoff.report.self_s": sum(own.get(k, 0.0) for k in ROMANOFF_REPORTS),
    }


def trace_layers(spans, fixed_ops: list[int], passes: list[list[int]], pass_walls: list[float]) -> dict:
    """Per-layer metrics: the fixed ops (set-up) plus the median traced pass."""
    fixed = layer_metrics(spans.layers(fixed_ops))
    per_pass, unattributed = [], []
    for op_ids, wall in zip(passes, pass_walls):
        L = spans.layers(op_ids)
        if abs(L["self_total_s"] - L["root_s"]) > 1e-6 * max(1.0, L["root_s"]):
            raise BenchError("span self times do not add up to the root spans")
        per_pass.append(layer_metrics(L))
        # the benchmark's own time inside the timed ops, between wrapped calls
        unattributed.append(wall - L["root_s"])
    out = {k: fixed[k] + statistics.median_low(p[k] for p in per_pass) for k in fixed}
    calls = out["elliptic.count_points.calls"]
    # a ratio over zero calls is reported as 0; the report file keeps the base
    out["elliptic.count_points.useful_ratio"] = out["elliptic.count_points.distinct"] / calls if calls else 0.0
    out["sieve.table_bytes"] = max(spans.counts_by_op("sieve.table_bytes").values(), default=0)
    out["trace.unattributed_s"] = statistics.median(unattributed)
    return out


def top_self_times(spans, op_ids: list[int], count: int = 8) -> list[tuple[str, float]]:
    """The layers with the largest self time over the given ops: where the time went."""
    own = spans.layers(op_ids)["self_s"]
    return sorted(own.items(), key=lambda kv: -kv[1])[:count]


def run_library(workload: str, seed: int, passes: int, traced: bool, record_golden: bool, meter) -> dict:
    import romanoff_lab as rl

    import checks
    import workloads as wl
    from setup_tables import build_tables
    from spans import NO_OP, SETUP_OP, Tracer

    tracer = Tracer() if traced else None
    # op id -> index of the speed sample taken right before that op
    op_before = {SETUP_OP: meter.sample()}
    if tracer is not None:
        tracer.op = SETUP_OP
        tracer.install()
    try:
        tables = build_tables(rl, workload)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.op = NO_OP

    ops = wl.OPS[workload](rl, tables, seed)
    stats = {op.name: OpStats() for op in ops}
    n_untraced = max(1, passes // 2) if traced else passes
    n_total = n_untraced + (max(1, passes // 2) if traced else 0)
    first: dict[str, object] = {}
    traced_passes: list[list[Sample]] = []
    peak_rss_kb = 0
    try:
        for p in range(n_total):
            under_trace = p >= n_untraced
            if under_trace and p == n_untraced:
                tracer.install()
            outputs = {}
            pass_samples = []
            for k, op in enumerate(ops):
                st = stats[op.name]
                st.runs += 1
                gc.collect()
                before = op_before[p * OP_STRIDE + k] = meter.sample()
                if under_trace:
                    tracer.op = p * OP_STRIDE + k
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception:
                    st.fail(f"pass {p} raised: {traceback.format_exc(limit=4)}")
                    continue
                finally:
                    if under_trace:
                        tracer.op = NO_OP
                sample = Sample(time.perf_counter() - t0, time.process_time() - c0, before)
                pass_samples.append(sample)
                (st.traced if under_trace else st.times).append(sample)
                summary = checks.plain(op.summary(out))
                if p == 0:
                    outputs[op.name] = out
                    first[op.name] = summary
                elif checks.differences(first.get(op.name), summary):
                    st.fail(f"pass {p}: output differs from pass 0")
            if under_trace:
                traced_passes.append(pass_samples)
            if p == 0:
                # high-water mark of the workload before the checks allocate their oracle
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                check_outputs(ops, outputs, stats, checks.PrimeOracle(wl.ORACLE_LIMIT[workload]))
                del outputs
    finally:
        if tracer is not None:
            tracer.uninstall()

    unseeded = {op.name for op in ops if not op.seeded}
    golden = golden_step(workload, seed, first, stats, record_golden, unseeded)
    result = {"stats": stats, "golden": golden, "peak_rss_mb": peak_rss_kb / 1024.0}
    if traced:
        meter.sample()  # closes the last traced op's pair of speed samples
        spans = tracer.span_set()
        OUT.mkdir(exist_ok=True)
        spans.save(OUT / f"{workload}.spans.npz")
        spans = spans.at_reference({op: meter.factor(i) for op, i in op_before.items()})
        pass_ops = [[p * OP_STRIDE + k for k in range(len(ops))] for p in range(n_untraced, n_total)]
        pass_walls = [sum(at_reference(samples, meter)) for samples in traced_passes]
        layers = trace_layers(spans, [SETUP_OP], pass_ops, pass_walls)
        layers.update(
            {
                "sieve.cache_hits": 0,
                "sieve.cache_misses": 0,
                "sieve.cache_corrupt_rebuilds": 0,
                **{f"cli.{sub}.s": 0.0 for sub in CLI_SUBCOMMANDS},
                "run.cpu_s": sum(
                    medians({n: at_reference(st.times, meter, cpu=True) for n, st in stats.items()}).values()
                ),
                "trace.overhead_ratio": overhead_ratio(stats, meter),
            }
        )
        result["layers"] = layers
        result["trace"] = {
            "traced_wall_s": sum(medians({n: at_reference(st.traced, meter) for n, st in stats.items()}).values()),
            "spans": len(spans.starts),
            "top_self_s": top_self_times(spans, [i for ids in pass_ops for i in ids]),
        }
    return result


def check_outputs(ops, outputs: dict, stats: dict, oracle) -> None:
    """Every op's invariant on its first output, in op-list order."""
    seen = {}
    for op in ops:
        if op.name not in outputs:
            continue
        try:
            for message in op.check(outputs[op.name], seen, oracle):
                stats[op.name].fail(message, output=True)
        except Exception:
            stats[op.name].fail(f"check raised: {traceback.format_exc(limit=4)}", output=True)
        seen[op.name] = outputs[op.name]


def golden_step(workload: str, seed: int, outputs: dict, stats: dict, record: bool, unseeded: set[str]) -> str:
    """Compare the first outputs with the golden record: every op on the
    golden seed, the ``unseeded`` ops (inputs independent of the seed) on
    every other seed.  With ``record``, write the record instead."""
    import checks

    if record:
        checks.write_golden(workload, outputs)
        return "recorded"
    golden = checks.load_golden(workload)
    if golden is None:
        raise BenchError(f"no golden record for {workload}")
    missing = unseeded - set(golden["outputs"])
    if missing:
        raise BenchError(f"golden record for {workload} lacks {sorted(missing)}")
    names = [n for n in golden["outputs"] if seed == checks.GOLDEN_SEED or n in unseeded]
    for name in names:
        if name not in stats:
            raise BenchError(f"golden record names an unknown op {name}")
        diffs = checks.differences(golden["outputs"][name], outputs.get(name), name)
        if diffs:
            stats[name].fail("golden: " + "; ".join(diffs[:5]), output=True)
    return f"compared {len(names)} of {len(stats)} ops"


# --- cli_batch ---------------------------------------------------------------


def parsed_stdout(raw: bytes):
    """JSON stdout as data, so floats compare within the tolerance; anything else as text."""
    try:
        return json.loads(raw)
    except ValueError:
        return raw.decode(errors="replace")


def canonical_bytes(value) -> bytes:
    if isinstance(value, str):
        return value.encode()
    return (json.dumps(value, sort_keys=True, indent=2) + "\n").encode()


def run_cli(seed: int, rounds: int, traced: bool, record_golden: bool, meter) -> dict:
    import checks
    import cli_batch as cb
    from spans import SpanSet

    oracle = checks.PrimeOracle(cb.ORACLE_LIMIT)
    n_untraced = max(1, rounds // 2) if traced else rounds
    n_total = n_untraced + (max(1, rounds // 2) if traced else 0)
    work_root = OUT / f"cli-{os.getpid()}"
    stats: dict[str, OpStats] = {}
    reference: dict[str, bytes] = {}
    first_round: list = []
    cache_counts: list[dict] = []
    untraced_rounds: list[list[Sample]] = []
    traced_rounds: list[list[Sample]] = []
    subcommand_times: dict[str, list[Sample]] = {}
    op_before: dict[int, int] = {}  # op id -> index of the speed sample taken right before it
    peak_rss_kb = 0
    parts = []
    try:
        for r in range(n_total):
            under_trace = r >= n_untraced
            round_dir = work_root / f"round{r}"
            cache = round_dir / "cache"
            cache.mkdir(parents=True)
            calls = cb.build_round(seed, round_dir, oracle)
            env = cb.child_env(SRC, cache)
            by_name = {}
            counts = {"hit": 0, "miss": 0, "corrupt": 0}
            round_samples = []
            for k, call in enumerate(calls):
                st = stats.setdefault(call.name, OpStats())
                st.runs += 1
                spans_path = round_dir / f"spans{k}.npz" if under_trace else None
                before = op_before[r * OP_STRIDE + k] = meter.sample()
                try:
                    out = cb.run_call(call, cb.cli_command(spans_path), env, cache)
                except subprocess.TimeoutExpired:
                    st.fail(f"round {r}: timed out")
                    continue
                by_name[call.name] = out
                sample = Sample(out.seconds, out.cpu_s, before)
                round_samples.append(sample)
                if out.cache:
                    counts[out.cache] += 1
                errors = out.errors + cb.check_outcome(out, by_name)
                if call.name in reference and out.stdout != reference[call.name]:
                    errors.append(f"round {r}: stdout differs from round 0")
                reference.setdefault(call.name, out.stdout)
                if under_trace:
                    st.traced.append(sample)
                    if spans_path.exists():
                        parts.append((r * OP_STRIDE + k, SpanSet.load(spans_path)))
                else:
                    st.times.append(sample)
                    subcommand_times.setdefault(out.subcommand, []).append(sample)
                if errors:
                    st.fail(f"round {r}: " + "; ".join(errors))
                if r == 0:
                    first_round.append(out)
            if under_trace:
                traced_rounds.append(round_samples)
            else:
                cache_counts.append(counts)
                untraced_rounds.append(round_samples)
                peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            shutil.rmtree(round_dir)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    outputs = {out.call.name: {"exit": out.exit_code, "stdout": parsed_stdout(out.stdout)} for out in first_round}
    unseeded = {out.call.name for out in first_round if not out.call.seeded}
    golden = golden_step("cli_batch", seed, outputs, stats, record_golden, unseeded)
    if not record_golden:
        # stdout is canonical JSON (checked per call), so re-serializing the record gives its bytes
        recorded = checks.load_golden("cli_batch")["outputs"]
        compared = [out for out in first_round if seed == checks.GOLDEN_SEED or not out.call.seeded]
        identical = sum(
            1 for out in compared if canonical_bytes(recorded.get(out.call.name, {}).get("stdout")) == out.stdout
        )
        golden += f"; {identical} of {len(compared)} stdouts byte-identical"
    result = {"stats": stats, "golden": golden, "peak_rss_mb": peak_rss_kb / 1024.0, "cache": cache_counts}
    if traced:
        meter.sample()  # closes the last traced call's pair of speed samples
        spans = SpanSet.merge(parts)
        OUT.mkdir(exist_ok=True)
        spans.save(OUT / "cli_batch.spans.npz")
        spans = spans.at_reference({op: meter.factor(i) for op, i in op_before.items()})
        rounds_ops = [[op for op, _ in parts if op // OP_STRIDE == r] for r in range(n_untraced, n_total)]
        traced_walls = [sum(at_reference(samples, meter)) for samples in traced_rounds]
        layers = trace_layers(spans, [], rounds_ops, traced_walls)
        layers.update(
            {
                "sieve.cache_hits": statistics.median_low(c["hit"] for c in cache_counts),
                "sieve.cache_misses": statistics.median_low(c["miss"] for c in cache_counts),
                "sieve.cache_corrupt_rebuilds": statistics.median_low(c["corrupt"] for c in cache_counts),
                **{
                    f"cli.{sub}.s": statistics.median(at_reference(subcommand_times[sub], meter))
                    if sub in subcommand_times
                    else 0.0
                    for sub in CLI_SUBCOMMANDS
                },
                "run.cpu_s": statistics.median(sum(at_reference(rs, meter, cpu=True)) for rs in untraced_rounds),
                "trace.overhead_ratio": overhead_ratio(stats, meter),
            }
        )
        result["layers"] = layers
        result["trace"] = {
            "traced_wall_s": statistics.median(traced_walls),
            "spans": len(spans.starts),
            "top_self_s": top_self_times(spans, [op for op, _ in parts]),
        }
    return result


# --- entry point -------------------------------------------------------------


def nominal_pass_s(workload: str) -> float:
    if workload == "cli_batch":
        import cli_batch

        return cli_batch.NOMINAL_ROUND_S
    import workloads

    return workloads.NOMINAL_PASS_S[workload]


def run_all(args) -> int:
    """Every workload in turn, each in its own process; the last line sums them up."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden", action="store_true", help="write the golden record (default seed only)"
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.record_golden and args.seed != 0:
        parser.error("golden records are kept for seed 0 only")
    if not (SRC / "romanoff_lab" / "__init__.py").is_file():
        raise BenchError(f"no romanoff_lab package under {SRC}; run from the root of a checkout")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import romanoff_lab

    if Path(romanoff_lab.__file__).resolve().parent != SRC / "romanoff_lab":
        raise BenchError(f"romanoff_lab imported from {romanoff_lab.__file__}, not from {SRC}")
    from machine import machine_record
    from speed import SpeedMeter

    workload = args.workload
    passes = max(1, round(args.seconds / nominal_pass_s(workload)))
    meter = SpeedMeter()
    probes = time_setup(workload, meter)
    if workload == "cli_batch":
        result = run_cli(args.seed, passes, bool(args.trace), args.record_golden, meter)
    else:
        result = run_library(workload, args.seed, passes, bool(args.trace), args.record_golden, meter)
    meter.sample()  # closes the last op's pair of speed samples

    # time figures at the reference machine speed (see speed.py)
    stats: dict[str, OpStats] = result.pop("stats")
    raw_e2e = end_to_end(
        {n: [t.seconds for t in st.times] for n, st in stats.items()},
        [t.seconds for t in probes],
        result["peak_rss_mb"],
    )
    e2e = end_to_end(
        {n: at_reference(st.times, meter) for n, st in stats.items()},
        at_reference(probes, meter),
        result["peak_rss_mb"],
    )

    attempted = sum(st.runs for st in stats.values())
    failed = sum(st.failures() for st in stats.values())
    if args.trace:
        metrics = {k: {"value": result["layers"][k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    report = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "trace": args.trace,
        "machine": machine_record(),
        "setup_samples_s": [t.seconds for t in probes],
        "end_to_end": e2e,
        "speed": {"kernel_samples_s": meter.samples, "raw_end_to_end": raw_e2e},
        "error_rate": {"value": failed / max(1, attempted), "failed": failed, "attempted": attempted},
        "errors": {name: st.errors for name, st in stats.items() if st.errors},
        "op_samples_s": {name: [t.seconds for t in st.times] for name, st in stats.items()},
        "op_traced_s": {name: [t.seconds for t in st.traced] for name, st in stats.items()},
        **result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}.trace{args.trace}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")

    for name, errs in report["errors"].items():
        for e in errs:
            print(f"bench: {workload}/{name}: {e}", file=sys.stderr)
    m = report["machine"]
    print(
        f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} caches={m['caches']} "
        f"python={m['python']} numpy={m['numpy']}"
    )
    print(f"workload {workload} seed {args.seed}: {passes} passes, golden: {result['golden']}")
    print(
        f"  seconds below are at the reference speed; "
        f"raw wall_s {raw_e2e['wall_s']:.4f} s, raw setup_s {raw_e2e['setup_s']:.4f} s"
    )
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {shown} {metric['unit']}")
    lat = e2e["latency"]
    print(
        f"  call_tail_s is p{lat['tail_percentile']:.1f} of {lat['samples']} samples; "
        f"error_rate = {failed}/{attempted} = {failed / max(1, attempted):.3g}"
    )
    if args.trace:
        layers = result["layers"]
        print(
            f"  useful_ratio base: {layers['elliptic.count_points.distinct']} distinct of "
            f"{layers['elliptic.count_points.calls']} calls; sieve.table_bytes computed as "
            "4*(limit+1) spf + 8*pi(limit) primes"
        )
        top = ", ".join(f"{name} {sec:.3f}s" for name, sec in result["trace"]["top_self_s"])
        print(f"  largest self times over the traced passes: {top}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
