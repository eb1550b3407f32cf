#!/usr/bin/env python3
"""Semantic (AST-level) linter for the dswm codebase.

Enforces the concurrency and error-handling contracts that the regex
linter (tools/dswm_lint.py, rules R1-R4 + R7) structurally cannot see:
rules here need a symbol table, statement boundaries, expression shape
(ternaries, lambdas, cast-to-void), or class-body structure. Rules R5 and
R6 started life as regex rules in dswm_lint.py and were migrated here.

  R5  raw-thread-outside-common
          No std::thread / std::jthread / std::async outside src/common/.
          All parallelism flows through common/thread_pool.h so the
          deterministic single-threaded default holds. This includes
          batched fan-out: batches of small-matrix problems go through
          linalg/batched.h (one ThreadPool dispatch per batch), never a
          hand-rolled thread-per-problem loop. (Migrated.)
  R6  comm-outside-net
          No CommStats mutation (member SendUp/SendDown/Broadcast calls)
          in src/ outside src/net/: comm accounting is derived from the
          message ledger, never hand-counted. (Migrated.)
  R8  discarded-status
          No call whose result is Status/StatusOr may be evaluated as a
          discarded expression -- as a bare expression statement, behind a
          (void) cast (outside tests/), through either branch of a
          ternary statement, or inside a lambda body. The compiler's
          [[nodiscard]] only fires with -Werror and never in
          uninstantiated templates; this rule always fires.
  R9  unordered-iteration
          No iteration (range-for, .begin()/.end() loops) over
          std::unordered_{map,set,multimap,multiset} in src/core,
          src/window, or src/sketch: iteration order is
          implementation-defined and would leak into tracker results,
          breaking the bit-identity contract.
  R10 mutex-without-capability
          Every mutex-typed class member must participate in the clang
          thread-safety capability system: raw std::mutex is confined to
          src/common/mutex.h (it cannot carry the CAPABILITY attribute),
          and every dswm::Mutex member must be referenced by at least one
          DSWM_GUARDED_BY / DSWM_PT_GUARDED_BY / DSWM_REQUIRES /
          DSWM_ACQUIRE / DSWM_RELEASE / DSWM_EXCLUDES annotation in the
          same class -- an unannotated lock checks nothing.
  R11 cast-confinement
          No const_cast / reinterpret_cast outside src/net/ (wire framing
          is the one sanctioned place to reinterpret bytes; linalg binary
          I/O stages through memcpy instead).
  R12 socket-confinement
          No raw POSIX socket/poll/select calls (socket, socketpair,
          accept, listen, poll, select, epoll_*, recvmsg, sendmsg, ...)
          outside src/net/: transport I/O flows through net::Channel,
          never ad-hoc descriptors. Member and qualified calls (x.poll(),
          ns::select()) are not raw sockets and do not fire.
  R13 snapshot-immutability
          No member call to CovarianceEstimate::MaterializeAndSeal
          (x.MaterializeAndSeal(), p->MaterializeAndSeal()) outside
          src/serve/: sealing is the serving tier's publish-time step.
          Everywhere else an estimate is either still being built (the
          tracker side) or already sealed behind a SnapshotRef; a stray
          seal call would hide a mutation on what readers assume is an
          immutable snapshot. The qualified definition
          (CovarianceEstimate::MaterializeAndSeal() { ... }) in
          src/core/ does not fire.

Frontends: with the clang python bindings + libclang available the rules
that benefit from real types (R8, R9) run over the actual AST using the
build's compile_commands.json; otherwise a built-in C++ lexer and
structural parser computes the same verdicts (statement splitting,
brace-tree classification, declaration scanning). Both frontends share
the structural rules (R5, R6, R10, R11) and the reporting format.

Grandfather lists are EMPTY and must stay empty -- tools/run_checks.sh
fails the gate if any rule acquires one. Suppress a single line with a
trailing `// dswm-semlint: allow(<rule>)` and a justifying comment.

Exit status: 0 clean, 1 violations, 2 usage/environment error.
"""

import argparse
import json
import pathlib
import re
import sys

LINT_DIRS = ("src", "tests", "bench", "examples", "tools", "fuzz")
CPP_SUFFIXES = (".h", ".cc", ".cpp")
# Fixture files deliberately violate rules; the selftest lints them from a
# staged tree with realistic pretend paths.
EXCLUDED_PARTS = {("tests", "semlint_fixtures")}

THREAD_ALLOWED_PREFIX = ("src", "common")
COMM_ALLOWED_PREFIX = ("src", "net")
CAST_ALLOWED_PREFIX = ("src", "net")
SOCKET_ALLOWED_PREFIX = ("src", "net")
SEAL_ALLOWED_PREFIX = ("src", "serve")
UNORDERED_SCOPED_PREFIXES = (("src", "core"), ("src", "window"),
                             ("src", "sketch"))
STD_MUTEX_ALLOWED = {pathlib.PurePosixPath("src/common/mutex.h")}

# Grandfather lists: one set of PurePosixPath per rule. All empty; the
# run_checks.sh gate greps this block and fails on any entry.
GRANDFATHERED = {
    "raw-thread-outside-common": set(),
    "comm-outside-net": set(),
    "discarded-status": set(),
    "unordered-iteration": set(),
    "mutex-without-capability": set(),
    "cast-confinement": set(),
    "socket-confinement": set(),
    "snapshot-immutability": set(),
}

# Legacy `dswm-lint:` markers stay honored for the migrated rules so the
# move from the regex linter did not require touching every suppression.
ALLOW = re.compile(r"//\s*dswm-(?:sem)?lint:\s*allow\(([\w-]+)\)")

UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
MUTEX_STD_TYPES = {"mutex", "recursive_mutex", "timed_mutex",
                   "recursive_timed_mutex", "shared_mutex",
                   "shared_timed_mutex"}
CAPABILITY_MACROS = {"DSWM_GUARDED_BY", "DSWM_PT_GUARDED_BY",
                     "DSWM_REQUIRES", "DSWM_ACQUIRE", "DSWM_RELEASE",
                     "DSWM_EXCLUDES", "DSWM_ASSERT_CAPABILITY"}
# POSIX transport-layer entry points. Deliberately excludes read/write/
# close (ubiquitous on ordinary fds) and bind/connect/shutdown/send/recv
# (too commonly shadowed by member functions to flag reliably); the
# remaining names only ever mean the socket layer when called unqualified.
SOCKET_CALLS = {"socket", "socketpair", "accept", "accept4", "listen",
                "poll", "ppoll", "select", "pselect", "epoll_create",
                "epoll_create1", "epoll_ctl", "epoll_wait", "epoll_pwait",
                "recvmsg", "recvfrom", "sendmsg", "sendto", "getsockopt",
                "setsockopt"}


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind  # 'id' | 'num' | 'str' | 'punct'
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}"


TWO_CHAR_PUNCT = {"::", "->", "==", "!=", "<=", ">=", "+=", "-=", "*=",
                  "/=", "%=", "&=", "|=", "^=", "<<", ">>", "&&", "||",
                  "++", "--"}
ID_START = re.compile(r"[A-Za-z_]")
ID_CHARS = re.compile(r"[A-Za-z0-9_]*")
NUM_RE = re.compile(r"[0-9](?:[0-9a-fA-FxXbB'.]|[eEpP][+-]?)*")


def tokenize(text):
    """C++-aware token stream: comments, strings, char literals, and
    preprocessor directives are consumed (not emitted); line numbers are
    preserved for reporting."""
    toks = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r\f\v":
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            line += text.count("\n", i, j)
            i = j
        elif c == "#":
            # Preprocessor directive: consume to end of line, honoring
            # backslash continuations.
            j = i
            while j < n:
                k = text.find("\n", j)
                if k == -1:
                    j = n
                    break
                if text[k - 1] == "\\" or (k >= 2 and text[k - 2:k] == "\\\r"):
                    line += 1
                    j = k + 1
                    continue
                j = k
                break
            i = j
        elif c == "R" and i + 1 < n and text[i + 1] == '"':
            # Raw string literal R"delim( ... )delim"
            m = re.match(r'R"([^()\\ \t\n]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j == -1 else j + len(close)
                toks.append(Token("str", '""', line))
                line += text.count("\n", i, j)
                i = j
            else:
                toks.append(Token("id", "R", line))
                i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            toks.append(Token("str", '""', line))
            i = j + 1
        elif c == "'" and not (toks and toks[-1].kind == "num"):
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            toks.append(Token("str", "''", line))
            i = j + 1
        elif ID_START.match(c):
            m = ID_CHARS.match(text, i + 1)
            word = text[i:m.end()]
            toks.append(Token("id", word, line))
            i = m.end()
        elif c.isdigit():
            m = NUM_RE.match(text, i)
            toks.append(Token("num", m.group(0), line))
            i = m.end()
        else:
            two = text[i:i + 2]
            if two in TWO_CHAR_PUNCT:
                toks.append(Token("punct", two, line))
                i += 2
            else:
                toks.append(Token("punct", c, line))
                i += 1
    return toks


OPEN = {"(": ")", "[": "]", "{": "}"}
CLOSE = {")": "(", "]": "[", "}": "{"}


def match_brackets(toks):
    """index of opener -> index of closer (and vice versa); unbalanced
    brackets map to None entries being absent."""
    pairs = {}
    stack = []
    for idx, t in enumerate(toks):
        if t.kind != "punct":
            continue
        if t.text in OPEN:
            stack.append(idx)
        elif t.text in CLOSE:
            while stack:
                o = stack.pop()
                if toks[o].text == CLOSE[t.text]:
                    pairs[o] = idx
                    pairs[idx] = o
                    break
    return pairs


# ---------------------------------------------------------------------------
# Shared infrastructure
# ---------------------------------------------------------------------------

class Reporter:
    def __init__(self):
        self.count = 0

    def report(self, path, line_no, rule, msg):
        self.count += 1
        print(f"{path}:{line_no}: [{rule}] {msg}")


def allow_map(text):
    """line number -> set of allowed rule names on that line."""
    allowed = {}
    for ln, raw in enumerate(text.split("\n"), start=1):
        for m in ALLOW.finditer(raw):
            allowed.setdefault(ln, set()).add(m.group(1))
    return allowed


class FileUnit:
    def __init__(self, rel, text):
        self.rel = rel  # PurePosixPath relative to root
        self.text = text
        self.toks = tokenize(text)
        self.pairs = match_brackets(self.toks)
        self.allowed = allow_map(text)

    def is_allowed(self, line_no, rule):
        return rule in self.allowed.get(line_no, set())

    def emit(self, rep, line_no, rule, msg):
        if self.is_allowed(line_no, rule):
            return
        if self.rel in GRANDFATHERED.get(rule, set()):
            return
        rep.report(self.rel, line_no, rule, msg)


def under(rel, prefix):
    return tuple(rel.parts[:len(prefix)]) == tuple(prefix)


# ---------------------------------------------------------------------------
# Symbol table for R8 (both frontends; the libclang frontend refines it)
# ---------------------------------------------------------------------------

def collect_status_functions(units):
    """Names declared with Status/StatusOr return type anywhere in the
    tree, minus names that are also declared returning void somewhere
    (ambiguous without real overload resolution; the libclang frontend
    resolves those via actual types)."""
    status, void = set(), set()

    def plausible_function(name):
        # Repo style: functions are PascalCase, variables lower_snake.
        # `StatusOr<int> v(42);` is a variable with ctor args, textually
        # identical to a function declaration; the case convention is
        # what separates them without overload resolution.
        return name[0].isupper()

    for u in units:
        toks = u.toks
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text == "Status":
                if i + 2 < n and toks[i + 1].kind == "id" and \
                        toks[i + 2].text == "(":
                    name = toks[i + 1].text
                    if name != "Status" and plausible_function(name):
                        status.add(name)
            elif t.text == "StatusOr":
                if i + 1 < n and toks[i + 1].text == "<":
                    depth = 0
                    j = i + 1
                    while j < n:
                        if toks[j].text == "<":
                            depth += 1
                        elif toks[j].text == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        elif toks[j].text == ">>":
                            depth -= 2
                            if depth <= 0:
                                break
                        elif toks[j].text == ";":
                            j = n
                            break
                        j += 1
                    if j < n - 2 and toks[j + 1].kind == "id" and \
                            toks[j + 2].text == "(" and \
                            plausible_function(toks[j + 1].text):
                        status.add(toks[j + 1].text)
            elif t.text == "void":
                if i + 2 < n and toks[i + 1].kind == "id" and \
                        toks[i + 2].text == "(":
                    void.add(toks[i + 1].text)
    return status - void, status & void


# ---------------------------------------------------------------------------
# Built-in frontend: statement-level analysis
# ---------------------------------------------------------------------------

BLOCK_PREDECESSORS = {")", "]", "else", "do", "try", "{", "}", ";"}
QUALIFIER_SKIP = {"const", "noexcept", "override", "final", "mutable", "&",
                  "&&"}
STMT_SKIP_LEADERS = {"return", "co_return", "throw", "goto", "using",
                     "typedef", "template", "public", "private",
                     "protected", "friend", "static_assert", "break",
                     "continue"}


def is_block_brace(toks, idx):
    """Heuristic: does the '{' at idx open a statement block (function,
    control-flow, or lambda body) rather than an initializer/class/enum/
    namespace body?"""
    j = idx - 1
    while j >= 0 and (toks[j].text in QUALIFIER_SKIP or
                      (toks[j].kind == "id" and toks[j].text in
                       QUALIFIER_SKIP)):
        j -= 1
    if j < 0:
        return False
    prev = toks[j]
    # `-> Type {` trailing return: walk back over the type to the ')'.
    if prev.kind == "id" or prev.text in (">", "::", "*"):
        k = j
        while k >= 0 and (toks[k].kind == "id" or
                          toks[k].text in (">", "<", "::", "*", "&", ",")):
            k -= 1
        if k >= 0 and toks[k].text == "->" and k >= 1 and \
                toks[k - 1].text == ")":
            return True
        return False
    return prev.text in BLOCK_PREDECESSORS


def block_statements(toks, pairs, open_idx):
    """Yields (start, end) token index ranges for statements directly
    inside the block opened at open_idx: runs split at top-level ';',
    with nested bracket groups treated as opaque."""
    close_idx = pairs.get(open_idx)
    if close_idx is None:
        return
    i = open_idx + 1
    start = i
    while i < close_idx:
        t = toks[i]
        if t.kind == "punct" and t.text in OPEN:
            nested_brace = t.text == "{"
            i = pairs.get(i, close_idx) + 1
            # A nested brace group ends the current statement run:
            # `if (...) { ... } return Foo();` must split at the '}' or
            # the trailing return would hide inside an `if`-led run.
            if nested_brace:
                start = i
            continue
        if t.kind == "punct" and t.text == ";":
            if i > start:
                yield (start, i)
            start = i + 1
        i += 1


def statement_calls(toks, pairs, start, end):
    """Returns (top-level call names in order, has_assign, leading_void_cast)
    for the statement toks[start:end), nested brackets opaque."""
    calls = []
    has_assign = False
    void_cast = False
    if end - start >= 3 and toks[start].text == "(" and \
            toks[start + 1].text == "void" and toks[start + 2].text == ")":
        void_cast = True
    i = start
    while i < end:
        t = toks[i]
        if t.kind == "punct" and t.text in OPEN:
            if t.text == "(" and i > start and toks[i - 1].kind == "id":
                calls.append((toks[i - 1].text, toks[i - 1].line))
            i = pairs.get(i, end - 1) + 1
            continue
        if t.kind == "punct" and t.text == "=":
            has_assign = True
        elif t.kind == "id" and t.text in ("return", "co_return", "throw"):
            # The value escapes (e.g. `if (x) return Foo();`): not a
            # discard regardless of where the keyword sits in the run.
            has_assign = True
        i += 1
    return calls, has_assign, void_cast


def split_ternary(toks, pairs, start, end):
    """If the statement has a top-level ternary, returns the two branch
    ranges [(b1s, b1e), (b2s, b2e)]; else None."""
    i = start
    q = None
    while i < end:
        t = toks[i]
        if t.kind == "punct" and t.text in OPEN:
            i = pairs.get(i, end - 1) + 1
            continue
        if t.text == "?":
            q = i
            break
        i += 1
    if q is None:
        return None
    depth = 0
    i = q + 1
    while i < end:
        t = toks[i]
        if t.kind == "punct" and t.text in OPEN:
            i = pairs.get(i, end - 1) + 1
            continue
        if t.text == "?":
            depth += 1
        elif t.text == ":":
            if depth == 0:
                return [(q + 1, i), (i + 1, end)]
            depth -= 1
        i += 1
    return None


def final_call(toks, pairs, start, end):
    calls, has_assign, void_cast = statement_calls(toks, pairs, start, end)
    if has_assign or not calls:
        return None, void_cast
    return calls[-1], void_cast


def check_discarded_status(u, status_funcs, rep):
    in_tests = u.rel.parts[0] == "tests"
    toks, pairs = u.toks, u.pairs
    for idx, t in enumerate(toks):
        if t.text != "{" or t.kind != "punct":
            continue
        if not is_block_brace(toks, idx):
            continue
        for (s, e) in block_statements(toks, pairs, idx):
            if toks[s].kind == "id" and toks[s].text in STMT_SKIP_LEADERS:
                continue
            tern = split_ternary(toks, pairs, s, e)
            ranges = tern if tern else [(s, e)]
            for (bs, be) in ranges:
                call, void_cast = final_call(toks, pairs, bs, be)
                if call is None:
                    continue
                name, line = call
                if name not in status_funcs:
                    continue
                if void_cast and in_tests:
                    continue  # sanctioned in death/expectation tests
                what = "(void)-discarded" if void_cast else "discarded"
                u.emit(rep, line, "discarded-status",
                       f"result of '{name}(...)' (returns Status/StatusOr) "
                       f"is {what}; check it, propagate it "
                       "(DSWM_RETURN_NOT_OK), or DSWM_CHECK(...ok())")


# ---------------------------------------------------------------------------
# R9: unordered-container iteration (built-in frontend)
# ---------------------------------------------------------------------------

def unordered_var_names(u):
    names = set()
    aliases = set()
    toks, pairs = u.toks, u.pairs
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in UNORDERED_TYPES:
            continue
        j = i + 1
        if j < n and toks[j].text == "<":
            depth = 0
            while j < n:
                if toks[j].text == "<":
                    depth += 1
                elif toks[j].text == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif toks[j].text == ">>":
                    depth -= 2
                    if depth <= 0:
                        break
                j += 1
            j += 1
        # `using Alias = std::unordered_map<...>`: record the alias.
        k = i - 1
        while k >= 0 and toks[k].text in ("::", "std"):
            k -= 1
        if k >= 1 and toks[k].text == "=" and toks[k - 1].kind == "id":
            aliases.add(toks[k - 1].text)
            continue
        if j < n and toks[j].kind == "id":
            names.add(toks[j].text)
    if aliases:
        for i, t in enumerate(toks):
            if t.kind == "id" and t.text in aliases and i + 1 < n and \
                    toks[i + 1].kind == "id":
                names.add(toks[i + 1].text)
    return names


def check_unordered_iteration(u, rep):
    if not any(under(u.rel, p) for p in UNORDERED_SCOPED_PREFIXES):
        return
    names = unordered_var_names(u)
    if not names:
        return
    toks, pairs = u.toks, u.pairs
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text == "for" and i + 1 < n and \
                toks[i + 1].text == "(":
            close = pairs.get(i + 1)
            if close is None:
                continue
            # Range-for: a top-level ':' with no top-level ';'.
            j = i + 2
            colon = None
            has_semi = False
            while j < close:
                if toks[j].text in OPEN:
                    j = pairs.get(j, close) + 1
                    continue
                if toks[j].text == ";":
                    has_semi = True
                    break
                if toks[j].text == ":" and colon is None:
                    colon = j
                j += 1
            if has_semi or colon is None:
                continue
            k = colon + 1
            while k < close and toks[k].kind != "id":
                k += 1
            if k < close and toks[k].text in names:
                u.emit(rep, toks[k].line, "unordered-iteration",
                       f"range-for over unordered container '{toks[k].text}'"
                       "; iteration order is implementation-defined and may "
                       "reach a tracker result -- use a sorted container or "
                       "an explicitly ordered traversal")
        elif t.kind == "id" and t.text in names and i + 2 < n and \
                toks[i + 1].text in (".", "->") and \
                toks[i + 2].kind == "id" and \
                toks[i + 2].text in ("begin", "cbegin", "rbegin"):
            u.emit(rep, t.line, "unordered-iteration",
                   f"iterator traversal of unordered container '{t.text}'; "
                   "iteration order is implementation-defined and may reach "
                   "a tracker result")


# ---------------------------------------------------------------------------
# R10: mutex members must carry capability annotations
# ---------------------------------------------------------------------------

def class_bodies(toks, pairs):
    """Yields (open_idx, close_idx) for each class/struct definition body."""
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in ("class", "struct"):
            continue
        if i > 0 and toks[i - 1].text == "enum":
            continue
        j = i + 1
        while j < n and toks[j].text not in ("{", ";"):
            if toks[j].text in ("(", "["):  # e.g. a variable of type
                break                       # `struct {...}`? bail out
            j += 1
        if j < n and toks[j].text == "{":
            close = pairs.get(j)
            if close is not None:
                yield (j, close)


def mutex_fields(toks, pairs, open_idx, close_idx):
    """(name, line, is_std) for every owned mutex member directly in the
    class body (nested classes are visited by their own class_bodies
    entry; their tokens are skipped here)."""
    out = []
    i = open_idx + 1
    while i < close_idx:
        t = toks[i]
        if t.text in OPEN and t.kind == "punct":
            i = pairs.get(i, close_idx) + 1
            continue
        is_std = False
        type_end = None
        if t.kind == "id" and t.text == "std" and i + 2 < close_idx and \
                toks[i + 1].text == "::" and \
                toks[i + 2].text in MUTEX_STD_TYPES:
            is_std = True
            type_end = i + 3
        elif t.kind == "id" and t.text == "Mutex":
            if i > open_idx + 1 and toks[i - 1].text == "::" and \
                    i >= 2 and toks[i - 2].text != "dswm":
                type_end = None
            else:
                type_end = i + 1
        if type_end is not None:
            j = type_end
            while j < close_idx and toks[j].text == "::":
                j += 2
            if j < close_idx and toks[j].kind == "id" and \
                    j + 1 < close_idx and toks[j + 1].text in (";", "=", "{"):
                out.append((toks[j].text, toks[j].line, is_std))
                i = j + 1
                continue
        i += 1
    return out


def check_mutex_capability(u, rep):
    toks, pairs = u.toks, u.pairs
    for (o, c) in class_bodies(toks, pairs):
        fields = mutex_fields(toks, pairs, o, c)
        if not fields:
            continue
        # Annotation references anywhere in the class body (including
        # nested blocks: lambdas in inline methods may carry REQUIRES).
        annotated = set()
        for i in range(o + 1, c):
            t = toks[i]
            if t.kind == "id" and t.text in CAPABILITY_MACROS and \
                    i + 1 < c and toks[i + 1].text == "(":
                close = pairs.get(i + 1)
                if close is None:
                    continue
                for j in range(i + 2, close):
                    if toks[j].kind == "id":
                        annotated.add(toks[j].text)
        for (name, line, is_std) in fields:
            if is_std:
                if u.rel in STD_MUTEX_ALLOWED:
                    continue
                u.emit(rep, line, "mutex-without-capability",
                       f"raw std::mutex member '{name}'; use dswm::Mutex "
                       "(common/mutex.h) so the lock carries the clang "
                       "thread-safety capability")
            elif name not in annotated:
                u.emit(rep, line, "mutex-without-capability",
                       f"mutex member '{name}' is referenced by no "
                       "DSWM_GUARDED_BY / DSWM_REQUIRES / DSWM_EXCLUDES "
                       "annotation in this class; an unannotated lock "
                       "checks nothing")


# ---------------------------------------------------------------------------
# R5 / R6 / R11: migrated + token-level rules
# ---------------------------------------------------------------------------

def check_raw_thread(u, rep):
    if under(u.rel, THREAD_ALLOWED_PREFIX):
        return
    toks = u.toks
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text in ("thread", "jthread", "async") and \
                i >= 2 and toks[i - 1].text == "::" and \
                toks[i - 2].text == "std":
            u.emit(rep, t.line, "raw-thread-outside-common",
                   f"'std::{t.text}' outside src/common/; route parallelism "
                   "through dswm::ThreadPool (common/thread_pool.h) so the "
                   "deterministic single-threaded default holds")


def check_comm_mutation(u, rep):
    if u.rel.parts[0] != "src" or under(u.rel, COMM_ALLOWED_PREFIX):
        return
    toks = u.toks
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text in ("SendUp", "SendDown", "Broadcast") \
                and i >= 1 and toks[i - 1].text in (".", "->") and \
                i + 1 < len(toks) and toks[i + 1].text == "(":
            u.emit(rep, t.line, "comm-outside-net",
                   f"'{t.text}(...)' mutates CommStats outside src/net/; "
                   "send a typed wire message through a net::Channel -- the "
                   "ledger derives the counters")


def check_cast_confinement(u, rep):
    if under(u.rel, CAST_ALLOWED_PREFIX):
        return
    for t in u.toks:
        if t.kind == "id" and t.text in ("const_cast", "reinterpret_cast"):
            u.emit(rep, t.line, "cast-confinement",
                   f"'{t.text}' outside src/net/; type-punning is confined "
                   "to wire framing -- stage binary I/O through std::memcpy "
                   "or redesign the API to avoid the cast")


def check_snapshot_immutability(u, rep):
    if under(u.rel, SEAL_ALLOWED_PREFIX):
        return
    toks = u.toks
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "MaterializeAndSeal":
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue  # mention in a comment-adjacent identifier or decl list
        if i == 0 or toks[i - 1].text not in (".", "->"):
            continue  # declaration or qualified definition, not a call
        u.emit(rep, t.line, "snapshot-immutability",
               "'MaterializeAndSeal(...)' member call outside src/serve/; "
               "sealing is the publish-time step of the serving tier -- "
               "publish the estimate through serve::SnapshotStore and read "
               "it via a pinned SnapshotRef instead of sealing in place")


def check_socket_confinement(u, rep):
    if under(u.rel, SOCKET_ALLOWED_PREFIX):
        return
    toks = u.toks
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in SOCKET_CALLS:
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue  # not a call
        if i > 0 and toks[i - 1].text in (".", "->", "::"):
            continue  # member or qualified call: not the POSIX entry point
        if i > 0 and toks[i - 1].kind == "id" and \
                toks[i - 1].text not in ("return", "co_return"):
            continue  # `bool poll(...)`: a declaration, not a call
        u.emit(rep, t.line, "socket-confinement",
               f"raw socket-layer call '{t.text}(...)' outside "
               "src/net/; transport I/O goes through a net::Channel, "
               "never ad-hoc descriptors")


# ---------------------------------------------------------------------------
# libclang frontend (used when the bindings + library are importable)
# ---------------------------------------------------------------------------

def try_libclang(root, units, compile_commands, rep):
    """Runs R8/R9 over the real AST. Returns True on success; on any
    failure the caller falls back to the built-in frontend for those
    rules (structural rules always run built-in)."""
    try:
        import clang.cindex as ci  # noqa: PLC0415

        index = ci.Index.create()
        by_file = {}
        if compile_commands and compile_commands.exists():
            for entry in json.loads(compile_commands.read_text()):
                args = [a for a in entry.get("arguments",
                                             entry.get("command", "").split())
                        if a not in ("-c", "-o")][1:]
                by_file[pathlib.Path(entry["directory"], entry["file"])
                        .resolve()] = args

        wanted = {(root / u.rel).resolve(): u for u in units}

        def unit_for(loc):
            if loc.file is None:
                return None
            return wanted.get(pathlib.Path(loc.file.name).resolve())

        def status_type(t):
            s = t.spelling
            return s.startswith(("dswm::Status", "Status", "dswm::StatusOr",
                                 "StatusOr"))

        def walk(node, parent):
            u = unit_for(node.location)
            if u is not None:
                if node.kind == ci.CursorKind.CALL_EXPR and \
                        status_type(node.type) and parent is not None and \
                        parent.kind in (ci.CursorKind.COMPOUND_STMT,):
                    u.emit(rep, node.location.line, "discarded-status",
                           f"result of '{node.spelling}(...)' "
                           "(returns Status/StatusOr) is discarded; check "
                           "it, propagate it (DSWM_RETURN_NOT_OK), or "
                           "DSWM_CHECK(...ok())")
                if node.kind == ci.CursorKind.CXX_FOR_RANGE_STMT and \
                        any(under(u.rel, p)
                            for p in UNORDERED_SCOPED_PREFIXES):
                    children = list(node.get_children())
                    if children:
                        rng = children[-2] if len(children) >= 2 else None
                        if rng is not None and "unordered_" in \
                                rng.type.spelling:
                            u.emit(rep, node.location.line,
                                   "unordered-iteration",
                                   "range-for over unordered container; "
                                   "iteration order is implementation-"
                                   "defined and may reach a tracker result")
            for child in node.get_children():
                walk(child, node)

        parsed_any = False
        for path, args in by_file.items():
            if path not in wanted:
                continue
            tu = index.parse(str(path), args=args)
            walk(tu.cursor, None)
            parsed_any = True
        return parsed_any
    except Exception as exc:  # any failure -> honest fallback
        print(f"dswm_semlint: libclang frontend unavailable ({exc}); "
              "using built-in parser", file=sys.stderr)
        return False


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(root):
    files = []
    for top in LINT_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in CPP_SUFFIXES and p.is_file():
                rel = pathlib.PurePosixPath(p.relative_to(root).as_posix())
                if any(tuple(rel.parts[:len(e)]) == e
                       for e in EXCLUDED_PARTS):
                    continue
                files.append(rel)
    return files


def main():
    parser = argparse.ArgumentParser(
        description="AST-level linter (see module docstring for rules)")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json for the libclang "
                        "frontend (tools/compiledb.sh prints one)")
    parser.add_argument("--frontend", choices=("auto", "libclang", "builtin"),
                        default="auto")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"dswm_semlint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    for rule, entries in GRANDFATHERED.items():
        if entries:
            print(f"dswm_semlint: grandfather list for '{rule}' must stay "
                  f"empty but has {len(entries)} entries", file=sys.stderr)
            return 2

    rep = Reporter()
    units = []
    for rel in collect_files(root):
        text = (root / rel).read_text(encoding="utf-8", errors="replace")
        units.append(FileUnit(rel, text))

    status_funcs, ambiguous = collect_status_functions(units)

    ast_done = False
    if args.frontend in ("auto", "libclang"):
        cc = pathlib.Path(args.compile_commands) if args.compile_commands \
            else None
        ast_done = try_libclang(root, units, cc, rep)
        if args.frontend == "libclang" and not ast_done:
            return 2

    for u in units:
        if not ast_done:
            check_discarded_status(u, status_funcs, rep)
            check_unordered_iteration(u, rep)
        check_mutex_capability(u, rep)
        check_raw_thread(u, rep)
        check_comm_mutation(u, rep)
        check_cast_confinement(u, rep)
        check_socket_confinement(u, rep)
        check_snapshot_immutability(u, rep)

    frontend = "libclang" if ast_done else "builtin"
    if rep.count:
        print(f"dswm_semlint: {rep.count} violation(s) in {len(units)} "
              f"files ({frontend} frontend)")
        return 1
    note = f", {len(ambiguous)} name(s) ambiguous" if ambiguous else ""
    print(f"dswm_semlint: OK ({len(units)} files clean, {frontend} "
          f"frontend, {len(status_funcs)} Status-returning symbols{note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
