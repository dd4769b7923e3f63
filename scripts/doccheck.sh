#!/usr/bin/env bash
# doccheck.sh — verify that the repository's markdown docs agree with
# the tree:
#
#   - every relative link points at a file or directory that actually
#     exists. Checked files: README.md, ARCHITECTURE.md, and everything
#     under docs/. External links (http/https) and pure in-page anchors
#     (#...) are skipped; a link's own anchor suffix (FILE.md#section)
#     is stripped before the existence check.
#   - every flag the `go run ./cmd/battschedd ...` block in docs/API.md
#     names is one `battschedd -h` lists, and every flag a
#     `go run ./cmd/battload ...` invocation in README.md,
#     ARCHITECTURE.md or .github/workflows/ci.yml names is one
#     `battload -h` lists, so a deleted or renamed flag cannot linger in
#     the docs or CI.
#   - every `Options.<Field>` the checked files name is a field that
#     `go doc repro/internal/core Options` lists, so a deleted scheduler
#     option cannot linger in the docs either.
#   - every markdown file a `//` comment in a Go file names exists, so
#     code cannot cite a design note that was never written.
#
# Run from anywhere; exits non-zero listing every broken link, every
# unknown flag, every unknown Options field and every missing cited
# markdown file.
set -u

cd "$(dirname "$0")/.."

files=(README.md ARCHITECTURE.md)
while IFS= read -r f; do
  files+=("$f")
done < <(find docs -name '*.md' 2>/dev/null | sort)

fail=0
for md in "${files[@]}"; do
  [ -f "$md" ] || { echo "doccheck: missing doc file $md"; fail=1; continue; }
  dir=$(dirname "$md")
  # Pull out every ](target) markdown link target.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"            # strip an anchor suffix
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ]; then
      echo "doccheck: $md links to missing file: $target"
      fail=1
    fi
  done < <(grep -o ']([^)]*)' "$md" | sed 's/^](//; s/)$//')
done

# flagdrift CMD FILE...: every flag a `go run ./cmd/CMD` invocation in
# the files names must be one `CMD -h` lists. An invocation is the line
# plus its backslash continuations, cut at the first pipe or redirect
# (what follows belongs to another command). There must be at least one.
invocations=0
flagdrift() {
  local cmd=$1 usage listed md inv flag found=0
  shift
  usage=$(go run "./cmd/$cmd" -h 2>&1)
  listed=$(printf '%s\n' "$usage" | sed -nE 's/^[[:space:]]+-([a-z][a-z0-9-]*).*/\1/p' | sort -u)
  if [ -z "$listed" ]; then
    echo "doccheck: could not read $cmd -h:"
    printf '%s\n' "$usage"
    fail=1
    return
  fi
  for md in "$@"; do
    while IFS= read -r inv; do
      found=$((found + 1))
      for flag in $(printf '%s\n' "${inv%%[|>]*}" | grep -oE '(^|[[:space:]])-[a-z][a-z0-9-]*' | sed -E 's/^[[:space:]]*-//'); do
        if ! printf '%s\n' "$listed" | grep -qx -- "$flag"; then
          echo "doccheck: $md runs $cmd with -$flag, which $cmd -h does not list"
          fail=1
        fi
      done
    done < <(awk -v start="go run ./cmd/$cmd" '
      { line = $0; sub(/^[[:space:]]+/, "", line) }
      !on && (line == start || index(line, start " ") == 1) { on = 1; buf = "" }
      on { cont = (line ~ /\\$/); sub(/\\$/, "", line); buf = buf " " line; if (!cont) { print buf; on = 0 } }
    ' "$md")
  done
  if [ "$found" -eq 0 ]; then
    echo "doccheck: no go run ./cmd/$cmd invocation in $*"
    fail=1
  fi
  invocations=$((invocations + found))
}
flagdrift battschedd docs/API.md
flagdrift battload README.md ARCHITECTURE.md .github/workflows/ci.yml

# Scheduler options named in the docs: Options.<Field>, with "Options"
# a whole word (so MultiStartOptions.Workers is not read as one).
fields=$(go doc repro/internal/core Options 2>&1 |
  awk '/^type Options struct/ {on=1; next} on && /^}/ {on=0} on' |
  sed -nE 's/^\t([A-Z][A-Za-z0-9_]*)[[:space:]].*/\1/p' | sort -u)
if [ -z "$fields" ]; then
  echo "doccheck: could not read the fields of core.Options from go doc"
  fail=1
fi
named=0
for md in "${files[@]}"; do
  [ -f "$md" ] || continue
  while IFS= read -r field; do
    named=$((named + 1))
    if ! printf '%s\n' "$fields" | grep -qx -- "$field"; then
      echo "doccheck: $md names Options.$field, which core.Options does not have"
      fail=1
    fi
  done < <(grep -oE '(^|[^A-Za-z0-9_])Options\.[A-Z][A-Za-z0-9_]*' "$md" | sed -E 's/.*Options\.//')
done

# Markdown files named in Go comments: every NAME.md or DIR/NAME.md in a
# `//` comment must exist, from the repository root or from the Go
# file's own directory, so a comment cannot cite a document that is not
# there.
mdrefs=0
while IFS=$'\t' read -r at ref; do
  mdrefs=$((mdrefs + 1))
  gofile=${at%%:*}
  if [ ! -e "$ref" ] && [ ! -e "$(dirname "$gofile")/$ref" ]; then
    echo "doccheck: $at cites $ref, which does not exist"
    fail=1
  fi
done < <(find . \( -name .git -o -name .bench_build \) -prune -o -name '*.go' -print | sort |
  xargs grep -nHoE '//.*' |
  awk '{
    at = $0; sub(/:\/\/.*/, "", at)   # path:line
    rest = substr($0, length(at) + 2)
    while (match(rest, /[A-Za-z0-9_.\/-]+\.md([^A-Za-z0-9_]|$)/)) {
      ref = substr(rest, RSTART, RLENGTH)
      rest = substr(rest, RSTART + RLENGTH)
      sub(/[^A-Za-z0-9_]$/, "", ref)
      if (ref !~ /^\//) print at "\t" ref   # a URL path, not a file
    }
  }')

if [ "$fail" -ne 0 ]; then
  echo "doccheck: FAILED"
  exit 1
fi
echo "doccheck: all doc links resolve (${#files[@]} files checked), flags of $invocations battschedd/battload invocations match their -h, Options fields named in docs exist ($named mentions), markdown files cited in Go comments exist ($mdrefs citations)"
