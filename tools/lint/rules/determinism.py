"""Determinism rules: the known sources of run-to-run nondeterminism.

Every experiment in this repo must be bit-reproducible from its
parameters (docs/SIMULATOR.md): the DES kernel breaks timestamp ties
with a monotone sequence number, the sweep runner produces
byte-identical CSV at every job count, and the workloads take explicit
seeds.  These rules reject anything that makes a run depend on when or
where it executed, on ASLR, or on hash-bucket order.  All rules here
carry the ``determinism`` category.
"""

from __future__ import annotations

import pathlib
import re
from typing import Iterator

from ..framework import Rule, SelfTestCase, register

# Directories whose per-message tables must be the deterministic pooled
# containers (common/dense.hpp) rather than raw unordered maps.
CONTROL_PATH_DIRS = {"nic", "net"}


def _pattern_rule(rule_id: str, pattern: str, message: str,
                  bad: str, good: str) -> Rule:
    compiled = re.compile(pattern)

    def check(path: pathlib.PurePath, raw_lines: list[str],
              code_lines: list[str], ctx: dict) -> Iterator[tuple[int, str]]:
        del path, raw_lines, ctx
        for lineno, code in enumerate(code_lines, start=1):
            if compiled.search(code):
                yield lineno, message

    return register(Rule(
        id=rule_id, category="determinism", severity="error",
        description=message, check=check,
        self_tests=[
            SelfTestCase("src/sim/x.cpp", bad, expect_hit=True),
            SelfTestCase("src/sim/x.cpp", good, expect_hit=False),
        ]))


_pattern_rule(
    "libc-rand", r"(?<![\w:])s?rand\s*\(",
    "libc rand()/srand() (seedless global stream; use common::Xoshiro256)",
    bad="int x = rand();",
    good="int x = rng.next();")

_pattern_rule(
    "random-device", r"\brandom_device\b",
    "std::random_device (hardware entropy; runs are not reproducible)",
    bad="std::random_device rd;",
    good="common::Xoshiro256 rng(seed);")

_pattern_rule(
    "wall-clock", r"(?<![\w:_.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
                  r"|\bgettimeofday\s*\(",
    "wall-clock time (results must not depend on when the run happened)",
    bad="auto t = time(nullptr);",
    good="const TimePs t = engine.now();")

_pattern_rule(
    "chrono-clock",
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\b",
    "chrono wall clock (simulated time comes from the engine)",
    bad="auto t0 = std::chrono::steady_clock::now();",
    good="const TimePs t0 = engine.now();")

_pattern_rule(
    "pointer-keyed-map", r"\bstd::(?:multi)?(?:map|set)\s*<[^,>]*\*",
    "pointer-keyed std::map/set (ordered by allocation address, i.e. ASLR)",
    bad="std::map<Node*, int> by_node;",
    good="std::map<NodeId, int> by_node;")

_pattern_rule(
    "hardware-concurrency", r"\bhardware_concurrency\b",
    "hardware_concurrency (the host's core count must not shape simulated "
    "results; waive for pools of independent host threads)",
    bad="unsigned n = std::thread::hardware_concurrency();",
    good="unsigned n = flags.jobs;")


# --- unordered-container rules (cross-file state) ---------------------

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:multi)?(?:map|set)\s*<[^;]*>\s+(\w+)\s*[;{=]")
UNORDERED_ANY = re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\b")
RANGE_FOR = re.compile(r"\bfor\s*\([^():]*:\s*(?:this->)?(\w+)\s*\)")


def _collect_unordered(file_lines, ctx: dict) -> None:
    """Names of members/locals declared as unordered containers anywhere
    in the linted tree (declaration and iteration often live in
    different files: member in the .hpp, loop in the .cpp)."""
    from ..framework import strip_comments
    names = ctx.setdefault("unordered_names", set())
    for _, lines in file_lines:
        for line in lines:
            m = UNORDERED_DECL.search(strip_comments(line))
            if m:
                names.add(m.group(1))


def _check_unordered_iteration(path, raw_lines, code_lines,
                               ctx) -> Iterator[tuple[int, str]]:
    del path, raw_lines
    names = ctx.get("unordered_names", set())
    for lineno, code in enumerate(code_lines, start=1):
        m = RANGE_FOR.search(code)
        if m and m.group(1) in names:
            yield lineno, (f"iteration over unordered container "
                           f"'{m.group(1)}' (hash order is not "
                           f"deterministic)")


register(Rule(
    id="unordered-iteration", category="determinism", severity="error",
    description="range-for over a std::unordered_{map,set} (hash iteration "
                "order varies across libstdc++ versions and ASLR)",
    check=_check_unordered_iteration, prepare=_collect_unordered,
    self_tests=[
        SelfTestCase(
            "src/sim/x.cpp",
            "std::unordered_map<int, int> table_;\n"
            "for (auto& kv : table_) {}\n",
            expect_hit=True),
        SelfTestCase(
            "src/sim/x.cpp",
            "std::vector<int> table_;\n"
            "for (auto& kv : table_) {}\n",
            expect_hit=False),
    ]))


def _check_control_path_unordered(path, raw_lines, code_lines,
                                  ctx) -> Iterator[tuple[int, str]]:
    del raw_lines, ctx
    if not (CONTROL_PATH_DIRS & set(path.parts)):
        return
    for lineno, code in enumerate(code_lines, start=1):
        if UNORDERED_ANY.search(code):
            yield lineno, ("raw unordered container on the NIC/net control "
                           "path (use common/dense.hpp "
                           "DenseNodeTable/FlatMap)")


register(Rule(
    id="control-path-unordered", category="determinism", severity="error",
    description="std::unordered_{map,set} in src/nic or src/net (per-message "
                "protocol state must use the deterministic pooled containers "
                "from common/dense.hpp)",
    check=_check_control_path_unordered,
    self_tests=[
        SelfTestCase("src/nic/x.hpp",
                     "std::unordered_map<int, int> inflight_;",
                     expect_hit=True),
        SelfTestCase("src/workload/x.hpp",
                     "std::unordered_map<int, int> inflight_;",
                     expect_hit=False),
    ]))
