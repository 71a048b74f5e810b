#!/usr/bin/env python3
"""ccg_lint: whole-project structural linter for the ccg codebase.

Enforces the invariants the compiler cannot see (API.md "Static
guarantees" documents each one from the user's side):

  R1 shared-rng      No call path from a parallel dispatch site
                     (ParallelRound::shards / ThreadPool::for_shards /
                     exec::shards_or_inline / the scheduler's steal
                     loop) to a shared-RNG draw (State::rng).
                     Parallel phases must draw from
                     counter-based streams (stream_rng / StreamCtx) or
                     the bit-identical-for-every-thread-count contract
                     is gone. Functions that draw st.rng in a documented
                     sequential commit phase carry
                     `// ccg-lint: commit-phase-sequential`.
  R2 zero-alloc      No heap-allocation idiom reachable from a function
                     annotated `// ccg-lint: zero-alloc` (the warm fast
                     path, JobSlot::run_attempt, the server dispatch
                     loop), except lines carrying
                     `// ccg-lint: allow(zero-alloc): why` and callees
                     annotated `// ccg-lint: cold-path` or allowlisted.
  R3 no-throw        No throw (or CCG_CHECK, which throws) reachable
                     from a public method of ccg::Solver outside the
                     documented catch boundary
                     (`// ccg-lint: catch-boundary` on Solver::solve in
                     src/api/solver.cpp).
  R4 failpoint-name  Every CCG_FAILPOINT / CCG_FAILPOINT_ARG site name
                     is unique and matches the `subsystem.site` grammar
                     ([a-z0-9_]+(\.[a-z0-9_]+)+).

The rules run on function records (spans, qualified names, call edges,
markers) that a built-in textual scanner extracts, and on the call graph
it resolves from them, so the linter needs only Python 3: no clang, no
build tree.

Findings print file:line plus the call chain from the rule's root.
Exit status: 0 clean, 1 findings, 2 usage/internal error.

Suppressions:
  * inline: `// ccg-lint: allow(<rule>): reason` on the offending line
    or the line directly above it;
  * function markers: `// ccg-lint: <marker>` on the signature line or
    up to 3 lines above it (zero-alloc, catch-boundary, cold-path,
    commit-phase-sequential);
  * project allowlist (tools/ccg_lint_allow.txt): `<rule> <function>
    <reason>` lines; the named function is a traversal stop for that
    rule. Every entry must carry a reason.
"""

import argparse
import bisect
import os
import re
import sys

RULES = ("shared-rng", "zero-alloc", "no-throw", "failpoint-name")
RULE_IDS = {"shared-rng": "R1", "zero-alloc": "R2", "no-throw": "R3",
            "failpoint-name": "R4"}
FUNC_MARKERS = ("zero-alloc", "catch-boundary", "cold-path",
                "commit-phase-sequential")

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "catch", "new", "delete", "throw", "else", "do", "case", "default",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "decltype", "typeid", "alignas", "static_assert", "noexcept",
    "co_await", "co_return", "co_yield", "and", "or", "not", "assert",
}

PARALLEL_DISPATCH = {"shards", "for_shards", "shards_or_inline", "steal",
                     "pop_local"}

# Method names that are overwhelmingly STL-container/atomic calls; never
# resolve them to same-named project functions (a `.resize(` on a vector
# must not edge into ThreadPool::resize). They still register as
# allocation idioms for R2 via ALLOC_RE.
STL_METHODS = {
    "resize", "reserve", "push_back", "emplace_back", "emplace",
    "pop_back", "assign", "append", "insert", "erase", "clear",
    "begin", "end", "find", "count", "at", "front", "back", "data",
    "swap", "substr", "c_str", "str", "load", "store", "exchange",
    "fetch_add", "fetch_sub", "compare_exchange_weak",
    "compare_exchange_strong", "notify_one", "notify_all",
}

SHARED_RNG_RE = re.compile(r"(\.|->)\s*rng\b")
ALLOC_RE = re.compile(
    r"\bnew\b(?!\s*\()"           # new T / new T[] (placement-new excluded)
    r"|\bnew\s*\("                # placement/nothrow still counts
    r"|\b(?:malloc|calloc|realloc|strdup)\s*\("
    r"|\bmake_unique\s*<"
    r"|\bmake_shared\s*<"
    r"|[.>]\s*(?:resize|reserve|push_back|emplace_back|emplace|assign"
    r"|append|insert)\s*\("
    r"|\bto_string\s*\(")
THROW_RE = re.compile(r"\bthrow\b|\bCCG_CHECK(?:_MSG)?\s*\(")
FAILPOINT_RE = re.compile(r'\bCCG_FAILPOINT(?:_ARG)?\s*\(\s*"([^"]*)"')
FAILPOINT_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
CALL_RE = re.compile(
    r"([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*)\s*\(")
MARKER_RE = re.compile(r"ccg-lint:\s*([a-z-]+)(?:\(([a-z-]+)\))?")
SIG_NAME_RE = re.compile(
    r"((?:~\s*)?[A-Za-z_]\w*(?:\s*::\s*~?\s*[A-Za-z_]\w*)*"
    r"|operator\s*(?:\(\)|\[\]|[^\s\w]{1,3}))\s*$")
SIG_TAIL_RE = re.compile(
    r"^(\s*(?:const|mutable|noexcept(?:\([^()]*\))?|override|final|try"
    r"|&&?|->\s*[^{]*|CCG_[A-Z_0-9]+(?:\([^()]*\))?|:\s*[^{]*))*\s*$")
CLASS_RE = re.compile(
    r"\b(?:class|struct|union)\s+(?:alignas\s*\([^)]*\)\s*)?"
    r"(?:CCG_[A-Z_0-9]+\s*(?:\([^()]*\))?\s*)*"
    r"([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*"
    r"(?:final\s*)?(?::(?!:).*)?$")


class SourceFile:
    """One scanned file: raw lines, comment-stripped code lines, and the
    comment text found on each line (for ccg-lint markers)."""

    def __init__(self, path, rel):
        self.path = path
        self.rel = rel
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        self.raw_lines = text.split("\n")
        self.code_lines, self.comment_lines = _strip_comments(text)


def _strip_comments(text):
    """Blank comments (and preprocessor lines) out of `text`, keeping the
    line structure. Returns (code_lines, comment_lines)."""
    n = len(text)
    code = []
    comments = [[]]
    i = 0
    state = "code"
    raw_delim = None
    line_is_pp = False
    at_line_start = True
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            code.append("\n")
            comments.append([])
            if state == "line_comment":
                state = "code"
            line_is_pp = False
            at_line_start = True
            i += 1
            continue
        if state == "code":
            if at_line_start and c == "#":
                line_is_pp = True
            if not c.isspace():
                at_line_start = False
            if line_is_pp:
                # Preprocessor lines are invisible to the scanner (so
                # #define bodies never register as code), but their
                # comments still carry markers.
                if c == "/" and nxt == "/":
                    state = "line_comment"
                    i += 2
                    code.append("  ")
                    continue
                code.append(" ")
                i += 1
                continue
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                code.append("  ")
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                code.append("  ")
                continue
            if c == '"':
                if code and re.search(r"R[A-Za-z_]*$", "".join(code[-8:])):
                    m = re.match(r'R"([^()\s]{0,16})\(', text[i - 1:i + 20])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "raw_string"
                        code.append(c)
                        i += 1
                        continue
                state = "string"
            elif c == "'":
                state = "char"
            code.append(c)
            i += 1
            continue
        if state == "line_comment":
            comments[-1].append(c)
            code.append(" ")
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                code.append("  ")
                i += 2
                continue
            comments[-1].append(c)
            code.append(" ")
            i += 1
            continue
        if state == "string":
            if c == "\\":
                code.append(c + nxt)
                i += 2
                continue
            if c == '"':
                state = "code"
            code.append(c)
            i += 1
            continue
        if state == "char":
            if c == "\\":
                code.append(c + nxt)
                i += 2
                continue
            if c == "'":
                state = "code"
            code.append(c)
            i += 1
            continue
        if state == "raw_string":
            if text.startswith(raw_delim, i):
                code.append(raw_delim)
                i += len(raw_delim)
                state = "code"
                continue
            code.append(" " if c != "\n" else "\n")
            if c == "\n":
                comments.append([])
            i += 1
            continue
    code_lines = "".join(code).split("\n")
    comment_lines = ["".join(ch) for ch in comments]
    while len(comment_lines) < len(code_lines):
        comment_lines.append("")
    return code_lines, comment_lines[:len(code_lines)]


class FunctionIR:
    """One function the textual frontend found."""

    def __init__(self, name, rel, line, body_start, end_line):
        self.name = name          # qualified, e.g. ccg::Solver::run_fast
        self.rel = rel            # repo-relative file
        self.line = line          # 1-based signature start
        self.body_start = body_start
        self.end_line = end_line
        self.calls = []           # (callee name as written, 1-based line)
        self.markers = set()      # function-level ccg-lint markers

    @property
    def simple(self):
        return self.name.rsplit("::", 1)[-1]

    def __repr__(self):
        return f"{self.name} ({self.rel}:{self.line})"


# ---------------------------------------------------------------------------
# Textual frontend
# ---------------------------------------------------------------------------

def _skip_template_prefix(head):
    i = 0
    while True:
        m = re.match(r"\s*template\s*<", head[i:])
        if not m:
            return head[i:]
        j = i + m.end()
        depth = 1
        while j < len(head) and depth:
            if head[j] == "<":
                depth += 1
            elif head[j] == ">":
                depth -= 1
            j += 1
        i = j


def _find_signature(head):
    """If `head` (code text preceding a '{') is a function signature,
    return the declared (possibly class-qualified) name, else None."""
    body = _skip_template_prefix(head).strip()
    if not body or body.endswith("="):
        return None
    k = 0
    while k < len(body):
        if body[k] != "(":
            k += 1
            continue
        pre = body[:k].rstrip()
        m = SIG_NAME_RE.search(pre)
        # Find the matching ')'.
        depth = 1
        j = k + 1
        while j < len(body) and depth:
            if body[j] == "(":
                depth += 1
            elif body[j] == ")":
                depth -= 1
            j += 1
        if not m:
            k = j
            continue
        name = re.sub(r"\s+", "", m.group(1))
        last = name.rsplit("::", 1)[-1].lstrip("~")
        if (not name.startswith("operator")
                and (last in CPP_KEYWORDS or last == "defined")):
            k = j
            continue
        if depth:
            return None
        tail = body[j:]
        if SIG_TAIL_RE.match(tail):
            return name
        k = j
    return None


def _classify_head(head, in_function):
    """Classify the block a '{' opens: ('namespace', name) /
    ('class', name) / ('function', name) / ('other', None)."""
    stripped = head.strip()
    if in_function or not stripped:
        return ("other", None)
    m = re.search(r"\bnamespace\s+((?:[A-Za-z_]\w*)(?:::[A-Za-z_]\w*)*)?\s*$",
                  stripped)
    if m:
        return ("namespace", m.group(1) or "")
    if re.search(r"\benum\b", stripped):
        return ("other", None)
    body = _skip_template_prefix(stripped).strip()
    cm = CLASS_RE.search(body)
    if cm and "(" not in body.split(cm.group(1), 1)[0]:
        return ("class", cm.group(1))
    name = _find_signature(stripped)
    if name:
        return ("function", name)
    return ("other", None)


def _functions_from_textual(src, verbose=False):
    """Scan one SourceFile for function definitions and their calls."""
    funcs = []
    ctx = []  # (kind, name)
    head_chars = []
    head_start_line = None
    line_no = 1
    open_funcs = []  # (FunctionIR, depth-at-open)
    depth = 0
    for ln, line in enumerate(src.code_lines, start=1):
        line_no = ln
        for ch in line:
            if ch in ";":
                head_chars = []
                head_start_line = None
                continue
            if ch == "{":
                in_function = any(k == "function" for k, _ in ctx)
                kind, name = _classify_head("".join(head_chars), in_function)
                if kind == "function":
                    scopes = [n for k, n in ctx
                              if k in ("namespace", "class") and n]
                    qual = "::".join(scopes + [name]) if scopes else name
                    # Out-of-class definitions already carry their class
                    # qualifier; don't double the enclosing namespaces.
                    f = FunctionIR(qual, src.rel,
                                   head_start_line or line_no, line_no,
                                   line_no)
                    funcs.append(f)
                    open_funcs.append((f, depth))
                ctx.append((kind, name))
                depth += 1
                head_chars = []
                head_start_line = None
                continue
            if ch == "}":
                depth -= 1
                if ctx:
                    kind, _ = ctx.pop()
                    if kind == "function" and open_funcs:
                        f, d = open_funcs[-1]
                        if d == depth:
                            f.end_line = line_no
                            open_funcs.pop()
                head_chars = []
                head_start_line = None
                continue
            if not ch.isspace() and head_start_line is None:
                head_start_line = line_no
            head_chars.append(ch)
        head_chars.append("\n")
    for f, _ in open_funcs:
        f.end_line = line_no
    # Record calls per function (innermost function owning each line; a
    # lambda's body attributes to its enclosing function).
    spans = sorted(funcs, key=lambda f: (f.line, -(f.end_line)))
    for f in funcs:
        for ln in range(f.body_start, f.end_line + 1):
            if ln - 1 >= len(src.code_lines):
                break
            owner = _innermost_owner(spans, ln)
            if owner is not f:
                continue
            for m in CALL_RE.finditer(src.code_lines[ln - 1]):
                callee = re.sub(r"\s+", "", m.group(1))
                last = callee.rsplit("::", 1)[-1]
                if last in CPP_KEYWORDS:
                    continue
                f.calls.append((callee, ln))
    if verbose:
        print(f"  textual: {src.rel}: {len(funcs)} function(s)",
              file=sys.stderr)
    return funcs


def _innermost_owner(spans, ln):
    owner = None
    for f in spans:
        if f.body_start <= ln <= f.end_line:
            if owner is None or (f.body_start >= owner.body_start
                                 and f.end_line <= owner.end_line):
                owner = f
    return owner


def textual_frontend(sources, verbose=False):
    funcs = []
    for src in sources:
        funcs.extend(_functions_from_textual(src, verbose))
    return funcs


# ---------------------------------------------------------------------------
# Markers, allowlist, call graph
# ---------------------------------------------------------------------------

def attach_markers(funcs, sources):
    by_file = {}
    for f in funcs:
        by_file.setdefault(f.rel, []).append(f)
    for rel, fs in by_file.items():
        fs.sort(key=lambda f: f.line)
        starts = [f.line for f in fs]
        src = sources.get(rel)
        if src is None:
            continue
        for ln, comment in enumerate(src.comment_lines, start=1):
            for m in MARKER_RE.finditer(comment):
                marker, arg = m.group(1), m.group(2)
                if marker != "allow" and marker in FUNC_MARKERS:
                    i = bisect.bisect_left(starts, ln)
                    if i < len(fs) and fs[i].line - ln <= 3:
                        fs[i].markers.add(marker)
                    elif i > 0 and fs[i - 1].line <= ln <= fs[i - 1].end_line \
                            and fs[i - 1].line >= ln - 3:
                        fs[i - 1].markers.add(marker)


def inline_allows(src):
    """Map rule -> set of allowed line numbers (marker line + next)."""
    allows = {}
    for ln, comment in enumerate(src.comment_lines, start=1):
        for m in MARKER_RE.finditer(comment):
            if m.group(1) == "allow" and m.group(2):
                allows.setdefault(m.group(2), set()).update((ln, ln + 1))
    return allows


def load_allowlist(path):
    entries = {r: {} for r in RULES}
    if not path or not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 3:
                raise SystemExit(
                    f"{path}:{lineno}: allowlist entries are "
                    f"'<rule> <function> <reason>' (reason required)")
            rule, name, reason = parts
            if rule not in RULES:
                raise SystemExit(f"{path}:{lineno}: unknown rule '{rule}'")
            entries[rule][name] = reason
    return entries


def allow_match(entries, name):
    for suffix in entries:
        if name == suffix or name.endswith("::" + suffix):
            return True
    return False


class CallGraph:
    def __init__(self, funcs):
        self.funcs = funcs
        self.by_simple = {}
        for f in funcs:
            self.by_simple.setdefault(f.simple, []).append(f)

    def resolve(self, callee):
        simple = callee.rsplit("::", 1)[-1]
        if simple in STL_METHODS and "::" not in callee:
            return []
        cands = self.by_simple.get(simple, [])
        if "::" in callee:
            suffix = callee.replace(" ", "")
            exact = [f for f in cands
                     if f.name == suffix or f.name.endswith("::" + suffix)]
            if exact:
                return exact
        return cands


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, rule, rel, line, message, chain):
        self.rule = rule
        self.rel = rel
        self.line = line
        self.message = message
        self.chain = chain  # list of FunctionIR, root first

    def render(self):
        rid = RULE_IDS[self.rule]
        out = [f"[{rid} {self.rule}] {self.rel}:{self.line}: {self.message}"]
        for i, f in enumerate(self.chain):
            arrow = "via" if i == 0 else " ->"
            out.append(f"    {arrow} {f.name} ({f.rel}:{f.line})")
        return "\n".join(out)


def _body_lines(f, sources):
    src = sources.get(f.rel)
    if src is None:
        return []
    lo, hi = f.body_start, min(f.end_line, len(src.code_lines))
    return [(ln, src.code_lines[ln - 1]) for ln in range(lo, hi + 1)]


def _scan_sinks(f, sources, rule, sink_re, allows_cache):
    src = sources.get(f.rel)
    if src is None:
        return []
    if f.rel not in allows_cache:
        allows_cache[f.rel] = inline_allows(src)
    allowed = allows_cache[f.rel].get(rule, set())
    hits = []
    for ln, text in _body_lines(f, sources):
        m = sink_re.search(text)
        if m and ln not in allowed:
            hits.append((ln, text.strip()))
    return hits


def _traverse(roots, graph, sources, rule, sink_re, stop, allowlist,
              message, max_depth=24):
    findings = []
    reported = set()
    allows_cache = {}
    for root in roots:
        stack = [(root, [root])]
        visited = {id(root)}
        while stack:
            f, chain = stack.pop()
            for ln, text in _scan_sinks(f, sources, rule, sink_re,
                                        allows_cache):
                key = (rule, f.rel, ln)
                if key in reported:
                    continue
                reported.add(key)
                findings.append(Finding(rule, f.rel, ln,
                                        f"{message}: {text}", chain))
            if len(chain) >= max_depth:
                continue
            for callee, _ln in f.calls:
                for g in graph.resolve(callee):
                    if id(g) in visited:
                        continue
                    visited.add(id(g))
                    if stop(g) or allow_match(allowlist, g.name):
                        continue
                    stack.append((g, chain + [g]))
    return findings


def rule_shared_rng(graph, sources, allowlist):
    roots = []
    for f in graph.funcs:
        if "commit-phase-sequential" in f.markers:
            continue
        if any(c.rsplit("::", 1)[-1] in PARALLEL_DISPATCH
               for c, _ in f.calls):
            roots.append(f)
    return _traverse(
        roots, graph, sources, "shared-rng", SHARED_RNG_RE,
        stop=lambda g: "commit-phase-sequential" in g.markers,
        allowlist=allowlist["shared-rng"],
        message="shared-RNG draw reachable from a parallel dispatch site "
                "(use stream_rng/StreamCtx)")


def rule_zero_alloc(graph, sources, allowlist):
    roots = [f for f in graph.funcs if "zero-alloc" in f.markers]
    return _traverse(
        roots, graph, sources, "zero-alloc", ALLOC_RE,
        stop=lambda g: "cold-path" in g.markers,
        allowlist=allowlist["zero-alloc"],
        message="heap allocation reachable from a zero-alloc function")


def _public_methods(sources, class_name):
    """Textually collect public method names of `class_name` from the
    scanned headers (class bodies default private, struct public)."""
    methods = set()
    decl_re = re.compile(
        r"\b(?:class|struct)\s+(?:CCG_[A-Z_0-9]+\s*(?:\([^()]*\))?\s*)*"
        + re.escape(class_name) + r"\b[^;{]*\{")
    for src in sources.values():
        text = "\n".join(src.code_lines)
        for m in decl_re.finditer(text):
            is_struct = "struct" in m.group(0).split(class_name)[0]
            public = is_struct
            depth = 1
            i = m.end()
            seg = []

            def _capture(stmt):
                if public:
                    dm = re.search(r"(~?[A-Za-z_]\w*)\s*\(", stmt)
                    if dm and dm.group(1) not in CPP_KEYWORDS:
                        methods.add(dm.group(1).lstrip("~"))

            while i < len(text) and depth:
                c = text[i]
                if c == "{":
                    # An inline method body: its head is a declaration.
                    if depth == 1:
                        _capture("".join(seg))
                        seg = []
                    depth += 1
                elif c == "}":
                    depth -= 1
                    if depth == 1:
                        seg = []
                elif depth == 1:
                    seg.append(c)
                    if c in ";:":
                        stmt = "".join(seg)
                        if re.search(r"\bpublic\s*:$", stmt):
                            public = True
                            seg = []
                        elif re.search(r"\b(private|protected)\s*:$", stmt):
                            public = False
                            seg = []
                        elif c == ";":
                            _capture(stmt)
                            seg = []
                i += 1
    return methods


def rule_no_throw(graph, sources, allowlist, class_name):
    methods = _public_methods(sources, class_name)
    roots = []
    for f in graph.funcs:
        parts = f.name.split("::")
        if len(parts) >= 2 and parts[-2] == class_name \
                and parts[-1].lstrip("~") in methods \
                and "catch-boundary" not in f.markers:
            roots.append(f)
    return _traverse(
        roots, graph, sources, "no-throw", THROW_RE,
        stop=lambda g: "catch-boundary" in g.markers,
        allowlist=allowlist["no-throw"],
        message=f"throw reachable from a public {class_name} method "
                "outside the documented catch boundary")


def rule_failpoint_name(sources):
    findings = []
    seen = {}
    for src in sources.values():
        for ln, text in enumerate(src.code_lines, start=1):
            for m in FAILPOINT_RE.finditer(text):
                name = m.group(1)
                if not FAILPOINT_NAME_RE.match(name):
                    findings.append(Finding(
                        "failpoint-name", src.rel, ln,
                        f"failpoint name '{name}' does not match the "
                        "subsystem.site grammar "
                        "([a-z0-9_]+(.[a-z0-9_]+)+)", []))
                if name in seen:
                    prev = seen[name]
                    findings.append(Finding(
                        "failpoint-name", src.rel, ln,
                        f"duplicate failpoint name '{name}' "
                        f"(first defined at {prev[0]}:{prev[1]})", []))
                else:
                    seen[name] = (src.rel, ln)
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_sources(root, src_dirs):
    # Lint scope is the library proper (src + include by default): tests,
    # benches, and examples are deliberately out — their gtest TEST()
    # bodies all share one function name, which would poison the
    # name-resolved call graph.
    files = set()
    for d in src_dirs:
        base = d if os.path.isabs(d) else os.path.join(root, d)
        for dirpath, _dirnames, filenames in os.walk(base):
            for fn in filenames:
                if fn.endswith((".cpp", ".cc", ".cxx", ".hpp", ".h")):
                    files.add(os.path.realpath(os.path.join(dirpath, fn)))
    sources = {}
    realroot = os.path.realpath(root)
    for path in sorted(files):
        rel = os.path.relpath(path, realroot)
        sources[rel] = SourceFile(path, rel)
    return sources


def fail(message):
    # Operational errors exit 2; exit 1 means findings.
    print(f"ccg_lint: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="ccg_lint.py",
        description="Structural linter for the ccg codebase (rules "
                    "R1 shared-rng, R2 zero-alloc, R3 no-throw, "
                    "R4 failpoint-name).")
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of tools/)")
    ap.add_argument("--src", action="append", default=None,
                    help="source directory to scan (repeatable; default: "
                         "src and include under the root)")
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (default: "
                         "<root>/tools/ccg_lint_allow.txt)")
    ap.add_argument("--rules", default=",".join(RULES),
                    help="comma-separated rule subset to run")
    ap.add_argument("--nothrow-class", default="Solver",
                    help="class whose public methods R3 checks")
    ap.add_argument("--list-functions", action="store_true",
                    help="dump the IR (debugging) and exit")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)

    root = os.path.realpath(
        args.root or os.path.join(os.path.dirname(__file__), ".."))
    src_dirs = args.src or ["src", "include"]
    allowlist_path = args.allowlist
    if allowlist_path is None:
        default_allow = os.path.join(root, "tools", "ccg_lint_allow.txt")
        allowlist_path = default_allow if os.path.exists(default_allow) \
            else None

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    for r in rules:
        if r not in RULES:
            fail(f"unknown rule '{r}' (known: {', '.join(RULES)})")

    sources = collect_sources(root, src_dirs)
    if not sources:
        fail(f"no sources found under {src_dirs}")
    funcs = textual_frontend(sources.values(), args.verbose)
    if not funcs:
        fail(f"no functions found under {src_dirs}")
    attach_markers(funcs, sources)
    allowlist = load_allowlist(allowlist_path)

    if args.list_functions:
        for f in sorted(funcs, key=lambda f: (f.rel, f.line)):
            marks = f" [{','.join(sorted(f.markers))}]" if f.markers else ""
            print(f"{f.rel}:{f.line}-{f.end_line} {f.name}{marks}")
            if args.verbose:
                for c, ln in f.calls:
                    print(f"    calls {c} at :{ln}")
        return 0

    graph = CallGraph(funcs)
    findings = []
    if "shared-rng" in rules:
        findings += rule_shared_rng(graph, sources, allowlist)
    if "zero-alloc" in rules:
        findings += rule_zero_alloc(graph, sources, allowlist)
    if "no-throw" in rules:
        findings += rule_no_throw(graph, sources, allowlist,
                                  args.nothrow_class)
    if "failpoint-name" in rules:
        findings += rule_failpoint_name(sources)

    findings.sort(key=lambda f: (RULE_IDS[f.rule], f.rel, f.line))
    for f in findings:
        print(f.render())
    n_funcs = len(funcs)
    n_files = len(sources)
    status = f"{len(findings)} finding(s)" if findings else "clean"
    print(f"ccg_lint: {status} — {n_files} file(s), {n_funcs} function(s), "
          f"rules={','.join(rules)}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
