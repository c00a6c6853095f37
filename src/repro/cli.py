"""Command-line interface — a thin client over :mod:`repro.api`.

Subcommands::

    minirust check FILE... [--detector NAME]... [--json] [--profile]
                           [--jobs N] [--cache-dir DIR] [--no-cache]
                           [--trace-out T.json] [--flame-out F.folded]
                                               run static detectors
    minirust detectors                         list every detector name
    minirust explain FILE                      findings + provenance trails
    minirust run FILE [--seed N] [--races]     interpret (Miri-like)
    minirust mir FILE [--fn NAME]              dump MIR
    minirust scan FILE...                      §4 unsafe-usage scan
    minirust audit-unsafe FILE...|--corpus     §4.3 interior-unsafe audit
    minirust tables [--table N|all]            regenerate study tables
    minirust corpus [--scale N] [--seed N]     corpus + detector evaluation
    minirust stats FILE [--json] [--top N]     full-pipeline obs dump
    minirust bench-diff OLD NEW [--warn]       benchmark-regression diff
                        [--enforce REGEX]      (contract metrics exit 1
                                               even under --warn)

``--jobs N`` (on ``check``, ``explain``, ``audit-unsafe`` and
``corpus``) fans whole files out across N worker processes; each file's
summary solve runs serially, and findings are identical at any N.

``--trace-out`` (also on ``audit-unsafe`` and ``corpus``) writes a
Chrome-trace/Perfetto timeline of the whole command — including the
worker processes' per-file spans, re-parented into the main process's
tree; ``--flame-out`` writes folded flamegraph stacks from the same span
tree.

Exit codes are uniform: 0 clean or notes only, 1 an error or warning
finding / failed run, 2 usage or compile error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import obs
from repro.driver import compile_file
from repro.lang.diagnostics import CompileError


def _analysis_config(args):
    """Build the one validated AnalysisConfig from CLI flags."""
    from repro.api import AnalysisConfig
    detector_names = tuple(getattr(args, "detector", ()) or ()) or None
    cache_dir = None if getattr(args, "no_cache", False) \
        else getattr(args, "cache_dir", None)
    return AnalysisConfig(
        detectors=detector_names,
        jobs=getattr(args, "jobs", 1),
        cache_dir=cache_dir,
        unwind_edges=not getattr(args, "no_unwind_edges", False))


def _session_reports(args):
    """Analyze every FILE through one AnalysisSession; None on usage
    errors (already printed)."""
    from repro.api import AnalysisSession
    try:
        config = _analysis_config(args)
        with AnalysisSession(config) as session:
            return session.analyze_files(args.files)
    except ValueError as exc:
        # Unknown detector names and bad flag values land here — the
        # single validation point of the config object.
        print(str(exc), file=sys.stderr)
        return None


def _cmd_detectors(args) -> int:
    """Print every registry detector with its one-line description."""
    from repro.api import detector_catalog
    catalog = detector_catalog()
    if getattr(args, "json", False):
        print(json.dumps(catalog, indent=2))
        return 0
    width = max(len(entry["name"]) for entry in catalog)
    for entry in catalog:
        section = f" [§{entry['paper_section']}]" \
            if entry["paper_section"] else ""
        print(f"{entry['name']:<{width}}  {entry['description']}{section}")
    return 0


def _cmd_check(args) -> int:
    if args.list_detectors:
        return _cmd_detectors(args)
    if not args.files:
        print("usage: minirust check FILE... (or --list-detectors)",
              file=sys.stderr)
        return 2
    reports = _session_reports(args)
    if reports is None:
        return 2
    if args.json:
        if len(reports) == 1:
            payload = reports[0].to_dict()
        else:
            from repro.api import SCHEMA_VERSION
            payload = {"schema_version": SCHEMA_VERSION,
                       "reports": [r.to_dict() for r in reports]}
        collector = obs.get_collector()
        if collector is not None:
            payload["profile"] = collector.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            if len(reports) > 1:
                print(f"== {report.name}")
            print(report.render())
            if args.advice and report.findings:
                from repro.tools.fixes import suggest_fixes
                print("\nsuggested fixes:")
                for line in suggest_fixes(report.findings):
                    print("  " + line)
    return max(r.exit_code for r in reports)


def _cmd_explain(args) -> int:
    reports = _session_reports(args)
    if reports is None:
        return 2
    for report in reports:
        if len(reports) > 1:
            print(f"== {report.name}")
        print(report.explain())
    return max(r.exit_code for r in reports)


def _cmd_stats(args) -> int:
    """Run the full static pipeline under a collector and dump the obs
    trace: per-phase spans, analysis cache counters, detector timings,
    and (``--top``) the hottest SCCs by summary-solve wall time."""
    installed_here = obs.get_collector() is None
    collector = obs.get_collector() or obs.install("minirust-stats")
    top = args.top if args.top is not None else 5
    try:
        from repro.api import AnalysisSession
        compiled = compile_file(args.file)
        with AnalysisSession() as session:
            report = session.analyze_compiled(compiled)
        if args.run:
            from repro.mir.interp import ScheduleConfig, run_program
            run_program(compiled.program, schedule=ScheduleConfig())
        if args.json:
            payload = collector.to_dict()
            payload["phases"] = obs.phase_timings(collector)
            payload["hot_sccs"] = obs.hot_sccs(collector, top=top)
            payload["report"] = report.to_dict()
            print(json.dumps(payload, indent=2))
        else:
            print(obs.render_text(collector, top_sccs=top))
            print(f"-- findings: {len(report.findings)}")
    finally:
        if installed_here:
            obs.uninstall()
    return 0


def _cmd_bench_diff(args) -> int:
    """Benchmark-regression observatory: diff two BENCH_*.json artifacts
    (or directories of them) and flag directed changes past threshold."""
    from repro.obs.benchdiff import bench_diff
    try:
        report = bench_diff(args.old, args.new, threshold=args.threshold)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"bench-diff: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    if args.warn and report.exit_code:
        # ``--enforce REGEX`` carves enforced metrics out of warn mode:
        # a regression whose ``file:key`` matches still fails the run.
        # CI runs with --warn (host timing noise) but enforces the
        # contract metrics the benchmarks themselves gate on.
        import re as _re
        enforced = [d for d in report.regressions
                    if args.enforce
                    and _re.search(args.enforce, f"{d.file}:{d.key}")]
        if enforced:
            for d in enforced:
                print(f"bench-diff: enforced regression: "
                      f"{d.file}:{d.key} {d.old:.6g} -> {d.new:.6g}",
                      file=sys.stderr)
            return 1
        print("bench-diff: regressions found (exit 0 due to --warn)",
              file=sys.stderr)
        return 0
    return report.exit_code


def _cmd_run(args) -> int:
    from repro.mir.interp import ScheduleConfig, run_program
    compiled = compile_file(args.file)
    config = ScheduleConfig(seed=args.seed, quantum=args.quantum)
    result = run_program(compiled.program, entry=args.entry,
                         schedule=config, detect_races=args.races)
    for line in result.stdout:
        print(line)
    print(f"-- outcome: {result.outcome} ({result.steps} steps)")
    if result.error is not None:
        print(f"-- {result.error}")
    for race in result.races:
        print(f"-- race: {race.message}")
    return 0 if result.ok else 1


def _cmd_annotate(args) -> int:
    from repro.tools.annotate import (
        annotate_critical_sections, annotate_lifetimes,
    )
    compiled = compile_file(args.file)
    if args.fn not in compiled.program.functions:
        print(f"no function named {args.fn!r}", file=sys.stderr)
        return 2
    print(annotate_lifetimes(compiled, args.fn).render())
    sections = annotate_critical_sections(compiled, args.fn)
    if sections.critical_sections:
        print(sections.render())
    return 0


def _cmd_mir(args) -> int:
    from repro.mir.pretty import pretty_body, pretty_program
    compiled = compile_file(args.file)
    if args.fn:
        body = compiled.program.body(args.fn)
        if body is None:
            print(f"no function named {args.fn!r}", file=sys.stderr)
            return 2
        print(pretty_body(body))
    else:
        print(pretty_program(compiled.program))
    return 0


def _cmd_scan(args) -> int:
    from repro.study.unsafe_scan import scan_sources
    sources = []
    for path in args.files:
        with open(path, "r", encoding="utf-8") as f:
            sources.append((path, f.read()))
    result = scan_sources(sources)
    print(f"unsafe blocks:    {result.counts.blocks}")
    print(f"unsafe functions: {result.counts.functions}")
    print(f"unsafe traits:    {result.counts.traits}")
    print(f"unsafe impls:     {result.counts.impls}")
    print("operations:")
    for kind, count in sorted(result.operations.items(),
                              key=lambda kv: -kv[1]):
        print(f"  {kind.value}: {count}")
    audit = result.audit
    print(f"interior-unsafe functions: {audit.total}")
    print(", ".join(f"{label}: {count}"
                    for label, count in audit.breakdown.items()))
    if audit.unchecked:
        print("unchecked:")
        for fn in audit.unchecked:
            print(f"  {fn}")
    return 0


def _cmd_audit_unsafe(args) -> int:
    """§4.3 interior-unsafe encapsulation audit: classify every
    interior-unsafe function as checked / unchecked / caller-delegated."""
    from repro.api import audit_unsafe
    if bool(args.files) == bool(args.corpus):
        print("usage: minirust audit-unsafe FILE... (or --corpus)",
              file=sys.stderr)
        return 2
    if args.corpus:
        from repro.corpus import generate_corpus
        corpus = generate_corpus(seed=args.seed, scale=args.scale)
        named = [(f.name, f.text) for f in corpus.files]
    else:
        named = []
        for path in args.files:
            with open(path, "r", encoding="utf-8") as f:
                named.append((path, f.read()))
    try:
        config = _analysis_config(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    result = audit_unsafe(named, config=config)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
    return 0


def _cmd_tables(args) -> int:
    from repro.study import tables as t
    which = args.table
    if which in ("1", "all"):
        rows = t.table1_studied_software()
        print(t.render_table(
            ["Software", "Start", "Stars", "Commits", "KLOC", "Mem", "Blk",
             "NBlk"],
            [[r["software"], r["start"], r["stars"], r["commits"],
              r["loc_k"], r["mem"], r["blk"], r["nblk"]] for r in rows],
            title="Table 1. Studied Applications and Libraries."))
        print()
    if which in ("2", "all"):
        rows = t.table2_memory_categories()
        headers = ["Category"] + [e.value for e in t.TABLE2_EFFECT_ORDER] + \
            ["Total"]
        body = []
        for r in rows:
            body.append([r["category"]] +
                        [f"{r[e.value][0]} ({r[e.value][1]})"
                         if r[e.value][0] else "0"
                         for e in t.TABLE2_EFFECT_ORDER] + [r["total"]])
        print(t.render_table(headers, body,
                             title="Table 2. Memory Bugs Category."))
        print()
    if which in ("3", "all"):
        rows = t.table3_blocking_sync()
        headers = ["Software"] + [c.value for c in t.TABLE3_COLUMNS] + \
            ["Total"]
        body = [[r["software"]] + [r[c.value] for c in t.TABLE3_COLUMNS] +
                [r["total"]] for r in rows]
        print(t.render_table(
            headers, body,
            title="Table 3. Types of Synchronization in Blocking Bugs."))
        print()
    if which in ("4", "all"):
        rows = t.table4_data_sharing()
        headers = ["Software"] + [c.value for c in t.TABLE4_COLUMN_ORDER] + \
            ["Total"]
        body = [[r["software"]] + [r[c.value] for c in t.TABLE4_COLUMN_ORDER]
                + [r["total"]] for r in rows]
        print(t.render_table(headers, body,
                             title="Table 4. How Threads Communicate."))
        print()
    if which == "all":
        print("Section 4:", json.dumps(t.section4_unsafe_usage(), indent=2,
                                       default=str))
        print("Section 5.2:", json.dumps(t.section5_fix_strategies(),
                                         indent=2))
        print("Section 6.1:", json.dumps(t.section6_blocking_causes(),
                                         indent=2))
        print("Section 6.2:", json.dumps(t.section6_nonblocking_stats(),
                                         indent=2))
    return 0


def _cmd_corpus(args) -> int:
    from repro.corpus import evaluate_detectors, generate_corpus
    try:
        config = _analysis_config(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    corpus = generate_corpus(seed=args.seed, scale=args.scale)
    print(f"corpus: {len(corpus.files)} files, {corpus.total_loc} LOC, "
          f"{len(corpus.injected)} injected bugs")
    result = evaluate_detectors(corpus, config=config)
    print(f"{'detector':24} {'injected':>8} {'found':>6} {'FP':>4} "
          f"{'recall':>7}")
    for name, injected, found, fps, recall in result.summary_rows():
        print(f"{name:24} {injected:>8} {found:>6} {fps:>4} {recall:>7}")
    return 0


#: ``--jobs`` help, shared by every command that runs the pipeline.
JOBS_HELP = ("worker processes; whole files fan out, one per task, and "
             "each file's solve stays serial (findings are identical at "
             "any N)")


def _add_unwind_flag(p: argparse.ArgumentParser) -> None:
    """``--no-unwind-edges`` ablation for the commands that run the
    analysis pipeline: the CFG keeps the pre-unwind straight-line-success
    shape and the panic-path detectors go quiet."""
    p.add_argument("--no-unwind-edges", action="store_true",
                   dest="no_unwind_edges",
                   help="ablation: analyse without unwind successor "
                        "edges and landing pads (panic-path detectors "
                        "go quiet)")


def _add_trace_flags(p: argparse.ArgumentParser) -> None:
    """``--trace-out``/``--flame-out`` for the commands that run the
    analysis pipeline (check / audit-unsafe / corpus)."""
    p.add_argument("--trace-out", default=None, metavar="TRACE.json",
                   help="write a Chrome-trace/Perfetto timeline of the "
                        "whole command (worker spans included)")
    p.add_argument("--flame-out", default=None, metavar="OUT.folded",
                   help="write folded flamegraph stacks "
                        "(flamegraph.pl / speedscope format)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="minirust",
        description="MiniRust analysis toolkit (PLDI 2020 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run static bug detectors")
    p.add_argument("files", nargs="*", default=[], metavar="FILE")
    p.add_argument("--detector", "--detectors", action="append",
                   default=[], dest="detector")
    p.add_argument("--list-detectors", action="store_true",
                   help="list every detector name and exit")
    p.add_argument("--advice", action="store_true",
                   help="print the paper's fix strategy for each finding")
    p.add_argument("--json", action="store_true",
                   help="emit the report (and profile, if any) as JSON")
    p.add_argument("--profile", action="store_true",
                   help="print the phase/detector timing tree")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help=JOBS_HELP)
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="on-disk cache directory: whole-file reports, "
                        "so a warm run skips every unchanged file")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore --cache-dir: no cache reads or writes")
    _add_unwind_flag(p)
    _add_trace_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("detectors", help="list every registry detector "
                                         "with its description")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_detectors)

    p = sub.add_parser("explain", help="findings with their provenance "
                                       "trails")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--detector", "--detectors", action="append",
                   default=[], dest="detector")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help=JOBS_HELP)
    p.add_argument("--cache-dir", default=None, metavar="DIR")
    p.add_argument("--no-cache", action="store_true")
    _add_unwind_flag(p)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("run", help="interpret a program (Miri-like)")
    p.add_argument("file")
    p.add_argument("--entry", default="main")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quantum", type=int, default=10)
    p.add_argument("--races", action="store_true")
    p.add_argument("--profile", action="store_true",
                   help="print interpreter timing and step counters")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("annotate", help="IDE-style lifetime and "
                                         "critical-section annotations")
    p.add_argument("file")
    p.add_argument("--fn", required=True)
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("mir", help="dump MIR")
    p.add_argument("file")
    p.add_argument("--fn", default=None)
    p.set_defaults(func=_cmd_mir)

    p = sub.add_parser("scan", help="unsafe-usage scan")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("audit-unsafe",
                       help="classify interior-unsafe functions as "
                            "checked/unchecked/caller-delegated (§4.3)")
    p.add_argument("files", nargs="*", default=[], metavar="FILE")
    p.add_argument("--corpus", action="store_true",
                   help="audit the generated corpus instead of files")
    p.add_argument("--scale", type=int, default=1,
                   help="corpus scale (with --corpus)")
    p.add_argument("--seed", type=int, default=0,
                   help="corpus seed (with --corpus)")
    p.add_argument("--json", action="store_true",
                   help="emit the schema-versioned audit payload as JSON")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help=JOBS_HELP)
    p.add_argument("--cache-dir", default=None, metavar="DIR")
    p.add_argument("--no-cache", action="store_true")
    _add_unwind_flag(p)
    _add_trace_flags(p)
    p.set_defaults(func=_cmd_audit_unsafe)

    p = sub.add_parser("tables", help="regenerate the study tables")
    p.add_argument("--table", default="all", choices=["1", "2", "3", "4",
                                                      "all"])
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("corpus", help="generate corpus and evaluate "
                                      "detectors")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help=JOBS_HELP)
    p.add_argument("--cache-dir", default=None, metavar="DIR")
    p.add_argument("--no-cache", action="store_true")
    _add_unwind_flag(p)
    p.add_argument("--profile", action="store_true",
                   help="print corpus generation/evaluation timings")
    _add_trace_flags(p)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("stats", help="run the pipeline under the obs "
                                     "collector and dump its trace")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--run", action="store_true",
                   help="also interpret the program")
    p.add_argument("--top", type=int, nargs="?", const=10, default=None,
                   metavar="N",
                   help="show the N hottest SCCs by solve time "
                        "(default 10 when given bare)")
    p.set_defaults(func=_cmd_stats)

    from repro.obs.benchdiff import DEFAULT_ENFORCE
    p = sub.add_parser("bench-diff",
                       help="compare two BENCH_*.json artifacts (or "
                            "directories) for perf regressions")
    p.add_argument("old", metavar="OLD",
                   help="baseline artifact file or directory")
    p.add_argument("new", metavar="NEW",
                   help="candidate artifact file or directory")
    p.add_argument("--threshold", type=float, default=None,
                   metavar="REL",
                   help="relative-change significance bar (default 0.10)")
    p.add_argument("--warn", action="store_true",
                   help="report regressions but exit 0 (CI warn mode)")
    p.add_argument("--enforce", default=DEFAULT_ENFORCE, metavar="REGEX",
                   help="regressions whose file:key matches REGEX exit 1 "
                        "even under --warn (default: the three contract "
                        "metrics; '' disables)")
    p.add_argument("--json", action="store_true",
                   help="emit the diff report as JSON")
    p.set_defaults(func=_cmd_bench_diff)

    args = parser.parse_args(argv)
    if getattr(args, "threshold", "absent") is None:
        from repro.obs.benchdiff import DEFAULT_THRESHOLD
        args.threshold = DEFAULT_THRESHOLD
    # `--profile` (and any trace/flame output request) turns on the obs
    # collector for the whole command; the timing tree prints after the
    # command's own output (inside the JSON payload when `--json` is also
    # given), and timeline/flame files are written last so they capture
    # every span the command recorded.
    profiling = getattr(args, "profile", False)
    trace_out = getattr(args, "trace_out", None)
    flame_out = getattr(args, "flame_out", None)
    collector = obs.install("minirust") \
        if (profiling or trace_out or flame_out) else None
    try:
        code = args.func(args)
        if collector is not None and profiling \
                and not getattr(args, "json", False):
            print(collector.render())
        if collector is not None and trace_out:
            obs.write_chrome_trace(collector, trace_out)
            print(f"trace written to {trace_out} "
                  f"(load in ui.perfetto.dev or chrome://tracing)",
                  file=sys.stderr)
        if collector is not None and flame_out:
            obs.write_folded(collector, flame_out)
            print(f"folded stacks written to {flame_out}",
                  file=sys.stderr)
        return code
    except CompileError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # Output piped into a pager that closed early (e.g. `| head`).
            try:
                sys.stdout.close()
            except OSError:
                pass
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collector is not None:
            obs.uninstall()


if __name__ == "__main__":
    sys.exit(main())
