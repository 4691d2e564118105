"""Hot-path pass: no heap allocation, vector or lock in marked functions.

The simulator's per-reference cost is the product; the hot loops
(Cache::access, the StreamSet operations, the PrefetchEngine, the
MemorySystem batch drain and secondary level) touch no allocator and
no lock in steady state. This pass keeps that property: a function
whose definition is preceded by a `// analyze:hot-path` marker comment
must not

  * allocate (`new`, std::make_unique/make_shared, malloc/calloc/
    realloc/strdup),
  * build or grow a vector (a `std::vector<...>` in the body, or a
    push_back/emplace_back/resize call), or
  * lock (std::mutex/sbsim::Mutex types, lock_guard/unique_lock/
    scoped_lock/MutexLock, or a `.lock()` / `->lock()` call).

Per-miss output goes into fixed buffers instead (the stream set's
issue buffer, read back as a span), so even amortised growth into a
reused vector is a finding.

Rules:

  hot-path      A banned expression inside a marked function body, or
                a dangling marker with no function body following it.

Suppress with `// analyze:allow(hot-path) <reason>` on the offending
line — e.g. for a cold error path inside a hot function.
"""

import re

import framework

MARKER_RE = re.compile(r"^\s*//\s*analyze:hot-path\s*$")

# How far below a marker the opening brace may sit (doc comment plus a
# gem5-style two-line signature fits comfortably).
MARKER_SCOPE_LINES = 12

BANNED_PATTERNS = [
    (re.compile(r"\bnew\b"), "heap allocation (new expression)"),
    (re.compile(r"\bmake_unique\b|\bmake_shared\b"),
     "heap allocation (std::make_unique/make_shared)"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup)\s*\("),
     "heap allocation (C allocator)"),
    (re.compile(r"\bstd::vector\s*<"), "vector construction (std::vector)"),
    (re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|resize)\s*\("),
     "vector growth (push_back/emplace_back/resize)"),
    (re.compile(r"\block_guard\b|\bunique_lock\b|\bscoped_lock\b|"
                r"\bMutexLock\b"),
     "locking (scoped lock construction)"),
    (re.compile(r"\bstd::mutex\b|\bsbsim::Mutex\b"),
     "locking (mutex type)"),
    (re.compile(r"(?:\.|->)\s*lock\s*\("), "locking (.lock() call)"),
]


class HotPathPass(framework.Pass):
    name = "hotpath"
    description = ("no allocation, vector growth or locking in "
                   "// analyze:hot-path marked functions")

    def run(self, ctx):
        findings = []
        for sf in ctx.files(subdirs=("src",)):
            for i, raw_line in enumerate(sf.raw_lines):
                if MARKER_RE.match(raw_line):
                    self._check_marked(sf, i, findings)
        return findings

    def _check_marked(self, sf, marker_index, findings):
        # Locate the function body: the first `{` after the marker.
        open_index = None
        col = 0
        last = min(marker_index + MARKER_SCOPE_LINES,
                   len(sf.code_lines) - 1)
        for j in range(marker_index + 1, last + 1):
            pos = sf.code_lines[j].find("{")
            if pos != -1:
                open_index, col = j, pos
                break
        if open_index is None:
            findings.append(framework.Finding(
                sf.rel, marker_index + 1, "hot-path",
                "dangling marker: no function body opens within "
                f"{MARKER_SCOPE_LINES} lines"))
            return

        depth = 0
        j = open_index
        while j < len(sf.code_lines):
            line = sf.code_lines[j]
            start = col if j == open_index else 0
            self._check_line(sf, j, findings)
            for ch in line[start:]:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth == 0:
                        return
            j += 1

    def _check_line(self, sf, index, findings):
        line = sf.code_lines[index]
        raw_line = sf.raw_line(index)
        for pattern, why in BANNED_PATTERNS:
            if pattern.search(line) and \
                    not framework.allowed(raw_line, "hot-path"):
                findings.append(framework.Finding(
                    sf.rel, index + 1, "hot-path",
                    f"{why} in a hot-path function"))

    def self_test_cases(self):
        def body(stmt):
            return ("// analyze:hot-path\n"
                    "void\n"
                    "f()\n"
                    "{\n"
                    f"    {stmt}\n"
                    "}\n")

        return [
            ("new in a marked function",
             {"src/cache/a.cc": body("auto *p = new int[4];")},
             {"hot-path"}),
            ("make_unique in a marked function",
             {"src/sim/a.cc":
              body("auto p = std::make_unique<int>(3);")},
             {"hot-path"}),
            ("lock_guard in a marked function",
             {"src/trace/a.cc":
              body("std::lock_guard<std::mutex> g(m);")},
             {"hot-path"}),
            ("MutexLock in a marked function",
             {"src/trace/b.cc": body("MutexLock lock(mutex_);")},
             {"hot-path"}),
            (".lock() call in a marked function",
             {"src/stream/a.cc": body("mutex_.lock();")},
             {"hot-path"}),
            ("push_back into a reused buffer is a finding",
             {"src/stream/b.cc": body("lastIssued_.push_back(addr);")},
             {"hot-path"}),
            ("a vector local is a finding",
             {"src/stream/c.cc":
              body("std::vector<BlockAddr> issued;")},
             {"hot-path"}),
            ("writing into a fixed buffer is allowed",
             {"src/stream/d.cc": body("issued_[issuedCount_++] = block;")},
             set()),
            ("unmarked functions are out of scope",
             {"src/cache/b.cc":
              "void\ng()\n{\n    auto *p = new int;\n}\n"},
             set()),
            ("allocation after the marked body is out of scope",
             {"src/cache/c.cc":
              body("x += 1;") + "void\nh()\n{\n    auto *p = new int;\n}\n"},
             set()),
            ("dangling marker is itself a finding",
             {"src/sim/b.cc": "// analyze:hot-path\n"},
             {"hot-path"}),
            ("suppression is honoured",
             {"src/sim/c.cc":
              body("auto *p = new int;  "
                   "// analyze:allow(hot-path) cold resize path")},
             set()),
        ]


PASS = HotPathPass()
