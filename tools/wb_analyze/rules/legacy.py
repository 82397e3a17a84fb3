"""The six wb_lint rule generations, ported onto the wb_analyze engine.

Behaviour is intentionally identical to the original regex lint (scope
included): pragma-once / using-namespace / unit-suffix over src/ headers,
no-rand / metric-name / no-raw-thread over src/, no-stox additionally over
bench/ and examples/.
"""
from __future__ import annotations

import re

from ..cpptext import line_of
from ..engine import Context, Rule, SourceFile, register

# Unit suffixes accepted by the unit-suffix rule.
UNIT_SUFFIXES = (
    "_us", "_ms", "_s",             # time
    "_hz", "_khz", "_mhz", "_ghz",  # frequency
    "_dbm", "_db",                  # power / gain, log domain
    "_mw", "_uw", "_w",             # power, linear
    "_uj", "_j",                    # energy
    "_m", "_cm", "_km",             # distance
    "_bps", "_pps",                 # rates
    "_f",                           # capacitance
)

# A double parameter whose name contains one of these stems is a physical
# quantity and must carry a unit suffix.
PHYSICAL_STEMS = (
    "power", "freq", "duration", "delay", "window", "interval",
    "tau", "loss", "atten", "energy", "wavelength", "bandwidth",
    "distance", "dist",
)

# Unit suffixes accepted at the end of a metric name (wb::obs convention:
# the last path segment says what is being counted/measured).
METRIC_UNIT_SUFFIXES = (
    "_total", "_count",                    # event / object counts
    "_us", "_ns", "_s",                    # time
    "_uj", "_j",                           # energy
    "_uw", "_mw", "_w",                    # power
    "_bps", "_pps", "_hz",                 # rates
    "_bits", "_bytes",                     # sizes
    "_ratio", "_pct",                      # dimensionless
    "_db", "_dbm", "_m",                   # physical
)


@register
class PragmaOnce(Rule):
    name = "pragma-once"
    family = "legacy"
    severity = "error"
    description = "every header under src/ starts its code with #pragma once"

    def check_file(self, ctx: Context, f: SourceFile) -> None:
        if f.top != "src" or not f.is_header:
            return
        if not re.search(r"^\s*#\s*pragma\s+once\b", f.code, re.MULTILINE):
            ctx.report(self, f, 1, "header lacks #pragma once")


@register
class UsingNamespace(Rule):
    name = "using-namespace"
    family = "legacy"
    severity = "error"
    description = "no `using namespace` at any scope in headers under src/"

    def check_file(self, ctx: Context, f: SourceFile) -> None:
        if f.top != "src" or not f.is_header:
            return
        for m in re.finditer(r"\busing\s+namespace\b", f.code):
            ctx.report(self, f, line_of(f.code, m.start()),
                       "`using namespace` in a header leaks into every "
                       "includer; qualify names instead")


@register
class NoRand(Rule):
    name = "no-rand"
    family = "legacy"
    severity = "error"
    description = ("no rand()/srand() in src/ (use sim::RngStream: seeded, "
                   "forkable, deterministic across platforms)")

    def check_file(self, ctx: Context, f: SourceFile) -> None:
        if f.top != "src":
            return
        for m in re.finditer(r"\b(?:std\s*::\s*)?(s?rand)\s*\(", f.code):
            ctx.report(self, f, line_of(f.code, m.start()),
                       f"{m.group(1)}() is non-deterministic across "
                       "platforms; use wb::sim::RngStream")


@register
class NoStox(Rule):
    name = "no-stox"
    family = "legacy"
    severity = "error"
    description = ("no std::sto{i,l,ll,ul,ull,d,f,ld} in src/, bench/, "
                   "examples/: trailing garbage accepted, negative wrap, "
                   "context-free throws — use wb::util::parse_full")

    STOX_RE = re.compile(r"\bstd\s*::\s*(sto(?:i|l|ll|ul|ull|d|f|ld))\s*\(")

    def check_file(self, ctx: Context, f: SourceFile) -> None:
        for m in self.STOX_RE.finditer(f.code):
            ctx.report(self, f, line_of(f.code, m.start()),
                       f"std::{m.group(1)}() accepts trailing garbage and "
                       "throws context-free errors; use "
                       "wb::util::parse_full (util/parse.h)")


@register
class NoRawThread(Rule):
    name = "no-raw-thread"
    family = "legacy"
    severity = "error"
    description = ("no raw std::thread/std::jthread/std::async outside "
                   "src/runner/ — parallelism goes through "
                   "wb::runner::SweepRunner so results stay deterministic")

    def check_file(self, ctx: Context, f: SourceFile) -> None:
        if f.top != "src" or f.module == "runner":
            return
        for m in re.finditer(r"\bstd\s*::\s*(thread|jthread|async)\b", f.code):
            ctx.report(self, f, line_of(f.code, m.start()),
                       f"std::{m.group(1)} outside src/runner/ bypasses the "
                       "deterministic sweep API; use "
                       "wb::runner::SweepRunner (or for_each_index)")


@register
class UnitSuffix(Rule):
    name = "unit-suffix"
    family = "legacy"
    severity = "error"
    description = ("public-API scalar parameters in src/phy/ and src/reader/ "
                   "headers carry a physical-unit suffix (_us, _dbm, _hz, …)")

    # Matches `TimeUs name` / `double name` parameter declarations: the name
    # must be followed by `,` or `)` (optionally via a simple default value),
    # which excludes struct fields and locals (they end with `;`).
    PARAM_RE = re.compile(
        r"\b(TimeUs|double|float)\s+([A-Za-z_]\w*)\s*(?:=\s*[^,;(){}]*)?([,)])")

    def check_file(self, ctx: Context, f: SourceFile) -> None:
        if f.top != "src" or not f.is_header \
                or f.module not in ("phy", "reader"):
            return
        for m in self.PARAM_RE.finditer(f.code):
            typ, name = m.group(1), m.group(2)
            line = line_of(f.code, m.start())
            if typ == "TimeUs":
                if not name.endswith(("_us", "_s")):
                    ctx.report(self, f, line,
                               f"TimeUs parameter `{name}` must carry its "
                               f"unit (e.g. `{name}_us`)")
            elif any(stem in name for stem in PHYSICAL_STEMS):
                if not name.endswith(UNIT_SUFFIXES):
                    ctx.report(self, f, line,
                               f"{typ} parameter `{name}` names a physical "
                               "quantity but not its unit (expected one of "
                               + ", ".join(UNIT_SUFFIXES) + ")")


@register
class MetricName(Rule):
    name = "metric-name"
    family = "legacy"
    severity = "error"
    description = ("metric names passed to counter()/gauge()/histogram() in "
                   "src/ are lowercase dotted module.subsystem.name (≥3 "
                   "segments) ending in a unit suffix")

    # Direct string-literal first argument of an instrument lookup. Computed
    # names (ternaries, concatenation) are rare and checked by eye.
    METRIC_CALL_RE = re.compile(
        r"\b(?:counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"")
    METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*){2,}$")

    def check_file(self, ctx: Context, f: SourceFile) -> None:
        if f.top != "src":
            return
        code = f.code_with_strings
        for m in self.METRIC_CALL_RE.finditer(code):
            name = m.group(1)
            line = line_of(code, m.start())
            if not self.METRIC_NAME_RE.match(name):
                ctx.report(self, f, line,
                           f'metric "{name}" must be lowercase dotted '
                           "`module.subsystem.name` with at least three "
                           "segments")
            elif not name.endswith(METRIC_UNIT_SUFFIXES):
                ctx.report(self, f, line,
                           f'metric "{name}" must end in a unit suffix '
                           "(one of " + ", ".join(METRIC_UNIT_SUFFIXES) + ")")
