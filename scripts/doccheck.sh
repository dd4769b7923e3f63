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
#     names is one `battschedd -h` lists, so a deleted or renamed flag
#     cannot linger in the docs.
#   - every `Options.<Field>` the checked files name is a field that
#     `go doc repro/internal/core Options` lists, so a deleted scheduler
#     option cannot linger in the docs either.
#
# Run from anywhere; exits non-zero listing every broken link, every
# unknown flag and every unknown Options field.
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

# The daemon's documented start command: the `go run ./cmd/battschedd`
# line plus its backslash continuations.
documented=$(awk '/^go run \.\/cmd\/battschedd/ {on=1} on {print} on && !/\\$/ {on=0}' docs/API.md |
  grep -oE '(^|[[:space:]])-[a-z][a-z0-9-]*' | sed -E 's/^[[:space:]]*-//' | sort -u)
if [ -z "$documented" ]; then
  echo "doccheck: docs/API.md has no go run ./cmd/battschedd block"
  fail=1
fi
usage=$(go run ./cmd/battschedd -h 2>&1)
listed=$(printf '%s\n' "$usage" | sed -nE 's/^[[:space:]]+-([a-z][a-z0-9-]*).*/\1/p' | sort -u)
if [ -z "$listed" ]; then
  echo "doccheck: could not read battschedd -h:"
  printf '%s\n' "$usage"
  fail=1
fi
for flag in $documented; do
  if ! printf '%s\n' "$listed" | grep -qx -- "$flag"; then
    echo "doccheck: docs/API.md starts battschedd with -$flag, which battschedd -h does not list"
    fail=1
  fi
done

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

if [ "$fail" -ne 0 ]; then
  echo "doccheck: FAILED"
  exit 1
fi
echo "doccheck: all doc links resolve (${#files[@]} files checked), battschedd flags match docs/API.md ($(echo $documented | wc -w) flags), Options fields named in docs exist ($named mentions)"
