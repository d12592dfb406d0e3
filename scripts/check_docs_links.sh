#!/usr/bin/env bash
# Documentation hygiene, used by the CI docs job:
#  1. every relative markdown link in docs/*.md, README.md and
#     bench/README.md resolves to an existing file (anchors stripped);
#  2. every workload header (src/workloads/*.h) is mentioned in
#     docs/workloads.md, so the workload matrix cannot silently go
#     stale when a workload is added;
#  3. every core header (src/core/*.h) is mentioned somewhere under
#     docs/, so a new core subsystem cannot land undocumented;
#  4. every JIT header (src/jit/*.h) is mentioned somewhere under
#     docs/, for the same reason (docs/jit.md is the map);
#  5. every topology header (src/topology/*.h) is mentioned somewhere
#     under docs/ (docs/topology.md is the operator guide);
#  6. every option, counter or runtime method the docs cite as
#     Scope::Name -- for the option structs (RuntimeConfig, LoopOptions,
#     ChunkPolicy, JitTierOptions), the policy enums (LanePolicy,
#     OverloadPolicy), the counter structs (SpiceStats, SchedulerStats)
#     and the runtime classes (WorkerPool, WorkerSession, Scheduler,
#     SpiceRuntime, SpiceLoop) -- is a member of that struct, enum or
#     class in its header, so a deleted or renamed knob or method cannot
#     live on in the docs. Scope-aware: ChunkPolicy::Adaptive resolving
#     says nothing about LanePolicy::Adaptive.
set -u
cd "$(dirname "$0")/.."

fail=0

# --- 1. relative links resolve ---------------------------------------------
for doc in docs/*.md README.md bench/README.md; do
  [ -f "$doc" ] || continue
  docdir=$(dirname "$doc")
  # Markdown inline links: [text](target). External and intra-page
  # links are skipped; targets are resolved relative to the document.
  # Fenced code blocks are stripped first (a C++ lambda is not a link).
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$docdir/$path" ]; then
      echo "broken link in $doc: $target"
      fail=1
    fi
  done < <(awk '/^```/ { inblock = !inblock; next } !inblock' "$doc" |
           grep -o '\[[^]]*\]([^)]*)' | sed 's/.*(\(.*\))/\1/')
done

# --- 2. every workload header is documented --------------------------------
for hdr in src/workloads/*.h; do
  base=$(basename "$hdr")
  if ! grep -q "$base" docs/workloads.md; then
    echo "src/workloads/$base is not mentioned in docs/workloads.md"
    fail=1
  fi
done

# --- 3. every core header is documented ------------------------------------
for hdr in src/core/*.h; do
  base=$(basename "$hdr")
  if ! grep -rq "$base" docs/; then
    echo "src/core/$base is not referenced anywhere in docs/"
    fail=1
  fi
done

# --- 4. every JIT header is documented --------------------------------------
for hdr in src/jit/*.h; do
  base=$(basename "$hdr")
  if ! grep -rq "$base" docs/; then
    echo "src/jit/$base is not referenced anywhere in docs/"
    fail=1
  fi
done

# --- 5. every topology header is documented ----------------------------------
for hdr in src/topology/*.h; do
  base=$(basename "$hdr")
  if ! grep -rq "$base" docs/; then
    echo "src/topology/$base is not referenced anywhere in docs/"
    fail=1
  fi
done

# --- 6. every cited Scope::Name is a member of that scope ------------------
python3 - docs/*.md README.md bench/README.md <<'PY' || fail=1
import glob, re, sys

SCOPES = ("RuntimeConfig", "LoopOptions", "ChunkPolicy", "JitTierOptions",
          "LanePolicy", "OverloadPolicy", "SpiceStats", "SchedulerStats",
          "WorkerPool", "WorkerSession", "Scheduler", "SpiceRuntime",
          "SpiceLoop")
SOURCES = {path: re.sub(r"//[^\n]*", "", open(path).read())
           for path in glob.glob("src/**/*.h", recursive=True)}

def body(scope):
    """Text between the braces of the struct/enum/class definition of
    scope."""
    head = re.compile(r"\b(?:struct|enum class|class)\s+%s\b[^;{]*\{" % scope)
    hits = [(p, m) for p, t in SOURCES.items() for m in head.finditer(t)]
    if len(hits) != 1:
        sys.exit("check 6: %d definitions of %s under src/" % (len(hits), scope))
    text, depth = SOURCES[hits[0][0]], 1
    start = i = hits[0][1].end()
    while depth:
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return text[start:i - 1]

def members(scope):
    """Names declared directly in the scope: fields, methods, nested
    types and enumerators -- not parameters, initializers or bodies."""
    text = body(scope)
    while True:  # Nested braces (method bodies, nested enums) end a decl.
        text, n = re.subn(r"\{[^{}]*\}", ";", text)
        if not n:
            break
    names = set()
    for stmt in text.split(";"):
        while True:  # Parameter lists become a call marker.
            stmt, n = re.subn(r"\([^()]*\)", "@", stmt)
            if not n:
                break
        while True:  # Template arguments go.
            stmt, n = re.subn(r"<[^<>]*>", "", stmt)
            if not n:
                break
        for decl in stmt.split(","):  # Enumerator lists.
            decl = decl.split("=")[0]
            nested = re.search(r"\b(?:enum class|enum|struct|class)\s+(\w+)",
                               decl)
            called = re.search(r"(\w+)\s*@", decl)
            words = re.findall(r"[A-Za-z_]\w*", decl)
            if nested:
                names.add(nested.group(1))
            elif called:
                names.add(called.group(1))
            elif words:
                names.add(words[-1])
    return names

known = {scope: members(scope) for scope in SCOPES}
cite = re.compile(r"\b(%s)::(\w+)" % "|".join(SCOPES))
bad = 0
for doc in sys.argv[1:]:
    for line_no, line in enumerate(open(doc), 1):
        for scope, name in cite.findall(line):
            if name not in known[scope]:
                print("%s:%d: %s::%s is not a member of %s"
                      % (doc, line_no, scope, name, scope))
                bad = 1
sys.exit(bad)
PY

if [ "$fail" -ne 0 ]; then
  echo "docs link check FAILED"
  exit 1
fi
echo "docs links resolve; all workload, core, jit and topology headers documented; every cited option, counter and method exists"
