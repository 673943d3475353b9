#!/usr/bin/env python3
"""Check that the benchmark only calls the program APIs the ROADMAP keeps.

    python3 perfbench/api_guard.py              # scan the benchmark's files
    python3 perfbench/api_guard.py --self-test  # also prove each rule fires

Allowed: atoms, core::SharedModel / core::JobState (core/model.hpp,
core/job.hpp), svc, ks, fe, la, xc, ml::Mlp, dd::make_backend / ExecBackend
(dd/backend.hpp) and the RankEngine stats (dd/engine.hpp). Anything the
ROADMAP schedules for removal or redesign is rejected, so those refactors
never need to edit the benchmark.
"""

import argparse
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

ALLOWED_INCLUDE = re.compile(
    r'^(atoms/[\w]+\.hpp|core/(model|job)\.hpp|svc/[\w]+\.hpp|ks/[\w]+\.hpp|fe/[\w]+\.hpp'
    r'|la/[\w]+\.hpp|xc/[\w]+\.hpp|ml/mlp\.hpp|dd/(backend|engine)\.hpp)$')

# (rule name, pattern, file suffixes it applies to)
FORBIDDEN = [
    ("core::Simulation facade", re.compile(r"\bSimulation\b(?!Result)|core/simulation\.hpp"),
     (".cpp", ".hpp")),
    ("slab types", re.compile(r"\bSlab(Engine|Partition)\b"), (".cpp", ".hpp")),
    ("dd/pipeline.hpp", re.compile(r"dd/pipeline\.hpp|\bsimulate_(sync|overlap)\b"),
     (".cpp", ".hpp")),
    ("obs/base registries", re.compile(
        r"\b(ProfileRegistry|FlopCounter|ScopedFlopStep|MetricsRegistry|TraceRecorder|TraceSpan"
        r"|RunReport|build_run_report|write_run_report|JobScope)\b"), (".cpp", ".hpp")),
    ("DFTFE_* environment setting",
     re.compile(r"(getenv|setenv|putenv)\s*\(\s*\"DFTFE_|\bfrom_env\s*\("), (".cpp", ".hpp")),
    # The scripts have no reason to name a DFTFE_* variable at all.
    ("DFTFE_* environment setting", re.compile(r"\bDFTFE_\w+"), (".py", ".sh")),
]

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


def scan_text(path, text, local_headers):
    problems = []
    for rule, pat, suffixes in FORBIDDEN:
        if path.endswith(suffixes):
            for m in pat.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                problems.append(f"{path}:{line}: {rule}: {m.group(0)!r}")
    if path.endswith((".cpp", ".hpp")):
        for m in INCLUDE.finditer(text):
            inc = m.group(1)
            if inc not in local_headers and not ALLOWED_INCLUDE.match(inc):
                line = text.count("\n", 0, m.start()) + 1
                problems.append(f"{path}:{line}: include outside the kept API: {inc}")
    return problems


def benchmark_files():
    me = os.path.abspath(__file__)
    for dirpath, _, names in os.walk(HERE):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            if os.path.abspath(path) != me and name.endswith((".cpp", ".hpp", ".py", ".sh")):
                yield path


def scan_tree():
    files = list(benchmark_files())
    local = {os.path.basename(p) for p in files if p.endswith(".hpp")}
    problems = []
    for path in files:
        with open(path) as f:
            problems += scan_text(os.path.relpath(path, HERE), f.read(), local)
    return problems


SELF_TEST_CASES = [
    ("a.cpp", "dftfe::core::Simulation sim(st, opt);"),
    ("a.cpp", '#include "core/simulation.hpp"'),
    ("a.cpp", "dd::SlabEngine<double> e(dofs);"),
    ("a.cpp", "dd::SlabPartition p(mesh, 2);"),
    ("a.cpp", '#include "dd/pipeline.hpp"'),
    ("a.cpp", "obs::ProfileRegistry::global().snapshot();"),
    ("a.cpp", "FlopCounter::global().total();"),
    ("a.cpp", "obs::MetricsRegistry::global();"),
    ("a.cpp", "obs::TraceRecorder::global().size();"),
    ("a.cpp", "auto r = obs::build_run_report(name);"),
    ("a.cpp", 'const char* b = std::getenv("DFTFE_BACKEND");'),
    ("a.cpp", "auto be = dd::BackendOptions::from_env();"),
    ("a.py", 'env["DFTFE_NLANES"] = "2"'),
    ("a.py", 'os.environ.setdefault("DFTFE_WIRE", "fp64")'),
    ("a.py", 'env = dict(os.environ, DFTFE_WIRE="bf16")'),
    ("a.sh", "DFTFE_BACKEND=threaded ./perfbench"),
    ("a.cpp", '#include "obs/metrics.hpp"'),
    ("a.cpp", '#include "base/timer.hpp"'),
]
SELF_TEST_CLEAN = [
    ("a.cpp", "core::SimulationResult r = job.run();"),
    ("a.cpp", '#include "dd/backend.hpp"\n#include "core/job.hpp"'),
    ("a.cpp", "std::printf(\"DFTFE_ENABLE_TRACING %d\", DFTFE_ENABLE_TRACING);"),
]


def self_test():
    ok = True
    for path, text in SELF_TEST_CASES:
        if not scan_text(path, text, set()):
            print(f"api_guard self-test: rule missed {text!r}")
            ok = False
    for path, text in SELF_TEST_CLEAN:
        found = scan_text(path, text, set())
        if found:
            print(f"api_guard self-test: false positive on {text!r}: {found}")
            ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    ok = True
    if args.self_test:
        ok = self_test()
    problems = scan_tree()
    for p in problems:
        print(p)
    ok = ok and not problems
    print("api_guard: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
