#!/usr/bin/env python3
"""Lints obs metric registrations in the C++ sources.

Every metric registered through obs::Registry::Get{Counter,Gauge,Histogram}
in src/ must follow the naming convention

    regal_<subsystem>_<noun>[_<unit>]

with these rules:

  * lowercase [a-z0-9_] only, at least three '_'-separated components,
    'regal' first;
  * the <subsystem> component is one of KNOWN_SUBSYSTEMS below — a new
    subsystem is a deliberate act (add it here in the same change), never
    a typo like 'regal_recvoery_...' silently minting a parallel family;
  * counters end in '_total' (Prometheus counter convention);
  * gauges and histograms do NOT end in '_total';
  * histograms end in a recognized unit suffix (_ms, _us, _s, _seconds,
    _bytes, _ratio) so the bucket bounds are interpretable;
  * one name is registered as exactly one kind — the same string must not
    appear as both a counter and a gauge anywhere in the tree;
  * every registered name has a HELP entry in the BuiltinHelp() table
    (obs/prometheus.cc), and every entry there names a registered metric,
    so a scrape never falls back to "no help registered" and the table
    cannot keep prose for a family that is gone.

Usage: check_metric_names.py <source-dir> [<source-dir>...]
Exits non-zero and prints one line per violation (file:line: message).
"""

import os
import re
import sys

REGISTRATION = re.compile(
    r'Get(Counter|Gauge|Histogram)\(\s*"([^"]*)"', re.MULTILINE)
NAME = re.compile(r"^regal_[a-z][a-z0-9]*(_[a-z0-9]+)+$")
HISTOGRAM_UNITS = ("_ms", "_us", "_s", "_seconds", "_bytes", "_ratio")
KNOWN_SUBSYSTEMS = frozenset({
    "admin",      # admin/admin_server.h (embedded admin endpoint)
    "cache",      # cache/result_cache.h
    "engine",     # query/engine.h
    "exec",       # exec/thread_pool.h
    "log",        # obs/log.h
    "queries",    # query counters (regal_queries_total{verb})
    "query",      # per-query latency/memory histograms
    "recorder",   # obs/flight_recorder.h
    "recovery",   # recovery/ (crash recovery, salvage, checkpoints)
    "resilience", # safety/admission.h + server/ (overload shedding,
                  # brownout, frame-deadline watchdog)
    "safety",     # safety/ (admission, degradation, failpoints)
    "server",     # server/ (multi-tenant query service front-end)
    "storage",    # storage/ (snapshots, atomic writes)
    "wal",        # recovery/wal.h (write-ahead log)
})
SOURCE_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")
HELP_TABLE = re.compile(r"BuiltinHelp\(\)\s*\{(.*?)\n\s*\};", re.DOTALL)
HELP_ENTRY = re.compile(r'\{\s*"([^"]*)",')


def find_sources(roots):
    for root in roots:
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, _, filenames in os.walk(root):
            for filename in sorted(filenames):
                if filename.endswith(SOURCE_EXTENSIONS):
                    yield os.path.join(dirpath, filename)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = []
    # name -> (kind, first registration site), for duplicate-kind detection.
    kinds = {}
    # name -> site of its BuiltinHelp() entry.
    help_sites = {}
    help_tables = 0
    registrations = 0
    for path in find_sources(argv[1:]):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for table in HELP_TABLE.finditer(text):
            help_tables += 1
            for entry in HELP_ENTRY.finditer(table.group(1)):
                line = text.count("\n", 0, table.start(1) + entry.start()) + 1
                help_sites.setdefault(entry.group(1), f"{path}:{line}")
        for match in REGISTRATION.finditer(text):
            kind, name = match.group(1), match.group(2)
            line = text.count("\n", 0, match.start()) + 1
            site = f"{path}:{line}"
            registrations += 1

            if not NAME.match(name):
                errors.append(
                    f"{site}: '{name}' does not match "
                    "regal_<subsystem>_<noun>[_<unit>] "
                    "(lowercase, >= 3 components)")
                continue
            subsystem = name.split("_")[1]
            if subsystem not in KNOWN_SUBSYSTEMS:
                errors.append(
                    f"{site}: '{name}' uses unknown subsystem "
                    f"'{subsystem}' (add it to KNOWN_SUBSYSTEMS in "
                    "tools/check_metric_names.py if intentional)")
            if kind == "Counter" and not name.endswith("_total"):
                errors.append(
                    f"{site}: counter '{name}' must end in '_total'")
            if kind != "Counter" and name.endswith("_total"):
                errors.append(
                    f"{site}: {kind.lower()} '{name}' must not end in "
                    "'_total' (reserved for counters)")
            if kind == "Histogram" and not name.endswith(HISTOGRAM_UNITS):
                errors.append(
                    f"{site}: histogram '{name}' must end in a unit suffix "
                    f"({', '.join(HISTOGRAM_UNITS)})")

            previous = kinds.get(name)
            if previous is None:
                kinds[name] = (kind, site)
            elif previous[0] != kind:
                errors.append(
                    f"{site}: '{name}' registered as {kind} but as "
                    f"{previous[0]} at {previous[1]}")

    if help_tables == 0:
        errors.append("no BuiltinHelp() table found (obs/prometheus.cc)")
    else:
        for name, (_, site) in sorted(kinds.items()):
            if name not in help_sites:
                errors.append(
                    f"{site}: '{name}' has no HELP entry in BuiltinHelp() "
                    "(obs/prometheus.cc)")
        for name, site in sorted(help_sites.items()):
            if name not in kinds:
                errors.append(
                    f"{site}: HELP entry '{name}' names no registered metric")

    for error in errors:
        print(error)
    if errors:
        print(f"check_metric_names: {len(errors)} violation(s) in "
              f"{registrations} registration(s)")
        return 1
    print(f"check_metric_names: OK — {registrations} registration(s), "
          f"{len(kinds)} metric name(s), each with HELP text")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
