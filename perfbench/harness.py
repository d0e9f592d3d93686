"""The benchmark's runs, checks and metrics; see run.py for the command."""

from __future__ import annotations

import json
import math
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import workload
from probes import Probe, Round, StopRun, rusage
from whiteboard import board
from whiteboard.chart import load_grammar
from whiteboard.demo import DemoConfig, demo_run
from whiteboard.translate import load_dictionary

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / "perfbench" / "work"
OUT = ROOT / "perfbench" / "out"
perf = time.perf_counter


def pool_size(name: str, seconds: float) -> int:
    """Utterances to generate: more than a run of `seconds` can use even
    if the program gets many times faster."""
    per_second = {"short": 20, "long": 2, "inproc": 4}[name]
    return math.ceil(per_second * seconds) + 3


def median(values):
    return statistics.median(values) if values else float("nan")


def tail_note(latencies) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(latencies)
    if n < 11:
        return f"n={n}: no percentile has 10 samples above it"
    rank = n - 10
    ordered = sorted(latencies)
    pct = math.floor(100 * rank / n)
    note = f"p{pct} of n={n} = {ordered[rank - 1]:.4f} s"
    return note + ("" if pct > 50 else " (at or below the median: too few samples)")


# -- the two kinds of run ---------------------------------------------------------

def run_pipeline(probe, run_dir, grammar_path, dict_path):
    """One demo_run call over the generated files, ended between
    utterances by the probe once the time is up."""
    config = DemoConfig(matrices=run_dir / "mat", grammar=grammar_path,
                        dictionary=dict_path, out=run_dir / "boards",
                        topk=workload.TOPK, beam=workload.BEAM)
    usage0 = rusage()
    probe.run_start = perf()
    try:
        result = demo_run(config, process_hook=probe.process_hook)
    except StopRun:
        return usage0
    if result.config_error:
        raise SystemExit(f"demo configuration error: {result.config_error}")
    return usage0


def run_inproc(probe, utterances, grammar_path, dict_path, failures):
    """Build boards until the time is up. Each board is checked as soon as
    its utterance ends, outside the timed window, and then dropped, so the
    heap does not grow over the run."""
    usage0 = rusage()
    probe.run_start = perf()
    for u in utterances:
        if probe.completed() and not probe.time_left():
            break
        loading = perf()
        grammar = load_grammar(grammar_path.read_text(encoding="utf-8"))
        dictionary = load_dictionary(dict_path.read_text(encoding="utf-8"))
        utt = probe.begin_utterance()
        utt.setup_from = loading

        def stage(name, board_, utt=utt):
            begin = utt.rounds[-1].end if utt.rounds else utt.start
            utt.rounds.append(Round(begin, perf(), len(
                board_.layers["ww"].white_nodes), 0, 0, 0))

        board_ = workload.build_board(u.path.read_text(encoding="utf-8"),
                               grammar, dictionary, stage)
        imported = board.from_json(board.to_json(board_))
        probe.end_utterance(board_)
        reasons = check_board(utt, u, dictionary, [
            f"round trip: {d}" for d in workload.board_differences(imported, board_)])
        if reasons:
            failures[utt.index] = reasons
        utt.board = None
    return usage0


# -- checks -------------------------------------------------------------------------

def check_pipeline(probe, utterances, grammar_path, dict_path, failures):
    """Compare every completed board with the in-process reference build."""
    grammar = load_grammar(grammar_path.read_text(encoding="utf-8"))
    dictionary = load_dictionary(dict_path.read_text(encoding="utf-8"))
    for utt in probe.completed():
        u = utterances[utt.index]
        reasons = []
        if utt.board is not None and utt.board.layers["ww"].white_nodes:
            reference = workload.build_board(u.path.read_text(encoding="utf-8"),
                                      grammar, dictionary)
            reasons = [f"vs reference: {d}" for d in
                       workload.board_differences(utt.board, reference)]
        reasons = check_board(utt, u, dictionary, reasons)
        if reasons:
            failures[utt.index] = reasons


def check_board(utt, u, dictionary, reasons) -> list[str]:
    """Adds the checks every workload shares to `reasons`: the program
    reported no error, ww is not empty, and the spoken words are there."""
    if utt.error:
        reasons.insert(0, utt.error)
    if utt.board is None or not utt.board.layers["ww"].white_nodes:
        return reasons + ["ww is empty"]
    return reasons + workload.truth_differences(utt.board, u.words, dictionary)


# -- metrics --------------------------------------------------------------------------

def end_to_end(probe, utterances, usage0):
    """Setup is from the end of the previous utterance (or the start of the
    run) to the first pump round, or on inproc to the first build stage.
    Throughput counts every second from setup to the end of each utterance,
    which on the pipelines is the whole run."""
    done = probe.completed()
    n = len(done)
    cpu, peak_rss, _ = probe.usage_at_end
    wall = sum(u.end - u.setup_from for u in done)
    cells = sum(utterances[u.index].cells for u in done)
    return {
        "setup_s": (median([u.rounds[0].start - u.setup_from
                            for u in done if u.rounds]), "s"),
        "utterance_p50_s": (median([u.end - u.start for u in done]), "s"),
        "first_ww_p50_s": (median([u.first_ww - u.start for u in done
                                   if u.first_ww is not None]), "s"),
        "last_ww_p50_s": (median([u.last_ww - u.start for u in done
                                  if u.last_ww is not None]), "s"),
        "cells_per_s": (cells / wall, "1/s"),
        "cpu_s_per_utterance": ((cpu - usage0[0]) / n, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def per_layer(probe, pipeline: bool, end_to_end_metrics):
    """Times and counts per utterance (the run's total over its utterances),
    ratios over the whole run. Each metric is reported only on the
    workloads whose code path runs its layer."""
    done = probe.completed()
    ids = {u.index for u in done}
    n = len(done)
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for _, name, start, end, _, utt, child in probe.spans:
        if utt in ids:
            total[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
    counts = Counter()
    for (utt, name), value in probe.counts.items():
        if utt in ids:
            counts[name] += value

    def ratio(a, b):
        return a / b if b else 0.0

    distinct = sum(len(probe.distinct_cells.get(i, ())) for i in ids)
    metrics = {
        "demo.settle_s": (sum(u.end - u.last_ww for u in done
                              if u.last_ww is not None) / n, "s"),
        "board.add_white_node_calls": (counts["board.add_white_node_calls"] / n,
                                       "count"),
        "board.packed_ratio": (ratio(counts["board.packed"],
                                     counts["board.add_white_node_calls"]), "ratio"),
        "board.add_arc_calls": (calls["board.add_arc"] / n, "count"),
        "board.add_arc_s": (total["board.add_arc"] / n, "s"),
        "board.arcs_dropped": (counts["board.arcs_dropped"] / n, "count"),
        "board.seal_s": (total["board.seal"] / n, "s"),
        "board.to_json_s": (total["board.to_json"] / n, "s"),
        "grid.topk_s": (total["grid.topk"] / n, "s"),
        "grid.connected_calls": (counts["grid.connected_calls"] / n, "count"),
        "chart.island_parse_calls": (counts["chart.island_parse_calls"] / n,
                                     "count"),
        "chart.island_parse_s": (total["chart.island_parse"] / n, "s"),
        "chart.reparse_ratio": (ratio(counts["chart.cells_fed"], distinct), "ratio"),
        "chart.edges": (sum(probe.final_edges.get(i, 0) for i in ids) / n, "count"),
        "trace.utterance_p50_s": (end_to_end_metrics["utterance_p50_s"][0], "s"),
    }
    if not pipeline:
        # the batch build's own stages; no processes, mailboxes or wire
        metrics.update({
            "grid.to_lattice_s": (total["grid.to_lattice"] / n, "s"),
            "translate.translate_layer_s": (total["translate.translate_layer"] / n,
                                            "s"),
            "board.from_json_s": (total["board.from_json"] / n, "s"),
        })
        return metrics, self_times(total, own, calls, n)
    rounds = [r for u in done for r in u.rounds]
    wall = sum(u.end - u.start for u in done)
    metrics.update({
        "demo.wait_share": (1 - ratio(total["coordinator.pump"], wall), "ratio"),
        "manager.open_s": (total["manager.open"] / n, "s"),
        "manager.close_s": (total["manager.close"] / n, "s"),
        "coordinator.rounds": (len(rounds) / n, "count"),
        "coordinator.idle_round_ratio": (ratio(sum(
            1 for r in rounds if r.collected + r.deposited == 0), len(rounds)),
            "ratio"),
        "coordinator.pump_s": (total["coordinator.pump"] / n, "s"),
        "coordinator.self_s": (own["coordinator.pump"] / n, "s"),
        "coordinator.records_in": (sum(r.collected for r in rounds) / n, "count"),
        "coordinator.records_out": (sum(r.deposited for r in rounds) / n, "count"),
        "coordinator.errors": (sum(r.errors for r in rounds) / n, "count"),
        "mailbox.collect_calls": (counts["mailbox.collect_calls"] / n, "count"),
        "mailbox.collect_empty_ratio": (ratio(counts["mailbox.collect_empty"],
                                              counts["mailbox.collect_calls"]),
                                        "ratio"),
        "mailbox.deposit_busy_ratio": (ratio(counts["mailbox.deposit_busy"],
                                             counts["mailbox.deposit_calls"]),
                                       "ratio"),
        "mailbox.handoff_s": (ratio(sum(probe.handoff_s.get(i, 0.0) for i in ids),
                                    counts["mailbox.handoffs"]), "s"),
        "mailbox.stale_locks_broken": (counts["mailbox.stale_locks_broken"] / n,
                                       "count"),
        "wire.serialize_s": (total["wire.serialize"] / n, "s"),
        "wire.parse_s": (total["wire.parse"] / n, "s"),
        "wire.bytes": (counts["wire.bytes"] / n, "B"),
        "wire.records": (counts["wire.records"] / n, "count"),
        "components.source_s": (total["components.source"] / n, "s"),
        "components.parser_s": (total["components.parser"] / n, "s"),
        "components.translator_s": (total["components.translator"] / n, "s"),
        "workers.peak_rss_mb": (probe.usage_at_end[2], "MB"),
    })
    return metrics, self_times(total, own, calls, n)


def self_times(total, own, calls, n):
    """(self s, total s, calls) per utterance for each span name, by self time."""
    return sorted(((own[k] / n, total[k] / n, calls[k] / n, k) for k in total),
                  reverse=True)


# -- output -----------------------------------------------------------------------------

def write_spans(path: Path, probe) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for sid, name, start, end, parent, utt, _ in probe.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "utterance": utt}) + "\n")


def run(args) -> int:
    """One benchmark run; prints the report and the result line."""
    run_dir = WORK / args.workload
    run_dir.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    # the demo makes its mailboxes with tempfile; keep them in the checkout
    tempfile.tempdir = str(run_dir)
    utterances, grammar_path, dict_path = workload.write_inputs(
        ROOT, run_dir, args.workload, args.seed, pool_size(args.workload, args.seconds))
    pipeline = args.workload != "inproc"
    probe = Probe(bool(args.trace), args.seconds)
    failures: dict[int, list[str]] = {}
    probe.install()
    try:
        if pipeline:
            usage0 = run_pipeline(probe, run_dir, grammar_path, dict_path)
        else:
            usage0 = run_inproc(probe, utterances, grammar_path, dict_path,
                                failures)
        if args.trace and pipeline:
            grammar = load_grammar(grammar_path.read_text(encoding="utf-8"))
            dictionary = load_dictionary(dict_path.read_text(encoding="utf-8"))
            for utt in probe.completed():
                probe.replay(utt, utterances[utt.index].path, grammar, dictionary,
                             workload.THRESHOLDS, workload.TOPK, workload.BEAM)
    finally:
        probe.uninstall()
    done = probe.completed()
    if not done:
        print("no utterance completed", file=sys.stderr)
        return 1
    e2e = end_to_end(probe, utterances, usage0)
    if pipeline:
        check_pipeline(probe, utterances, grammar_path, dict_path, failures)

    latencies = [u.end - u.start for u in done]
    print(f"workload {args.workload} seed {args.seed}: {len(done)} utterances, "
          f"{sum(utterances[u.index].cells for u in done)} cells")
    print(f"fail_ratio {len(failures) / len(done):.4f} ratio "
          f"({len(failures)} of {len(done)})")
    for index, reasons in sorted(failures.items()):
        print(f"  FAILED {utterances[index].path.name}: {'; '.join(reasons)}")
    print("utterance_s: " + " ".join(f"{x:.4f}" for x in latencies))
    print("first_ww_s: " + " ".join(f"{u.first_ww - u.start:.4f}" for u in done
                                    if u.first_ww is not None))
    print(f"utterance_tail_s: {tail_note(latencies)}")
    stem = f"{args.workload}-{args.seed}"
    if args.trace:
        metrics, table = per_layer(probe, pipeline, e2e)
        print("self time per utterance (s), total (s), calls, span:")
        for own, total, calls, name in table:
            print(f"  {own:10.5f} {total:10.5f} {calls:10.1f}  {name}")
        write_spans(OUT / f"{stem}-spans.jsonl", probe)
        untraced = OUT / f"{stem}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]["utterance_p50_s"]["value"]
            traced = e2e["utterance_p50_s"][0]
            print(f"tracing overhead: utterance_p50_s {traced:.4f} s traced vs "
                  f"{base:.4f} s untraced = {traced - base:+.4f} s "
                  f"({(traced - base) / base:+.1%})")
        else:
            print(f"tracing overhead: run --trace 0 with seed {args.seed} first")
    else:
        metrics = e2e
    result = {"correct": not failures, "attempted": len(done),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(result))
    print(json.dumps(result))
    return 0
