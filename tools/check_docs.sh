#!/usr/bin/env bash
# Docs lint (registered as ctest label `docs-lint`): keeps the shipped
# documentation from drifting away from the code it documents.
#
#   1. Every CLI flag in gvex_tool's flag table (the kCommands rows of
#      src/gvex/cli/cli.cc and the flag groups they share) appears in at
#      least one user-facing doc (README.md, docs/SERVING.md,
#      docs/ARCHITECTURE.md, docs/WIRE_PROTOCOL.md,
#      docs/OBSERVABILITY.md).
#   2. Every StatusCode in status.h maps to an exit-code row in both
#      README.md and docs/WIRE_PROTOCOL.md (the normative table).
#   3. The request-type table in src/gvex/serve/protocol.h
#      (kRequestTypes) matches the "Request kinds" table in
#      docs/WIRE_PROTOCOL.md row for row. (`client --type` takes exactly
#      these names; the CLI prints them from kRequestTypes.)
#   4. Every intra-repo relative markdown link resolves to a file.
#   5. The text-format codec files stay off iostreams: none includes
#      <sstream> or names SetMaxPrecision, std::istringstream or
#      std::ostringstream (numbers go through common/text_codec.h).
#
# Run from the repo root (ctest sets the working directory); exits
# non-zero listing every violation, so one run shows all drift.
set -uo pipefail

cd "$(dirname "$0")/.."

FAILURES=0
complain() { echo "docs-lint: $*" >&2; FAILURES=$((FAILURES + 1)); }

CLI_DOCS=(README.md docs/SERVING.md docs/ARCHITECTURE.md
          docs/WIRE_PROTOCOL.md docs/OBSERVABILITY.md)
for doc in "${CLI_DOCS[@]}"; do
  [[ -f "$doc" ]] || complain "missing expected doc: $doc"
done

echo "== docs-lint: CLI flags in the cli.cc flag table vs user-facing docs"
# The flag table is the inventory the parser reads: the string literals of
# the kCommands rows and of the `constexpr std::string_view k...` flag
# groups. Every `--flag` they name must be documented where a user looks.
FLAGS="$(awk '/^constexpr std::string_view k[A-Za-z]+ =/ ||
              /^const Command kCommands\[\] = \{/ { on = 1 }
              on { print }
              on && /;$/ { on = 0 }' src/gvex/cli/cli.cc |
         grep -oE '"[^"]*"' | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u)"
[[ -n "$FLAGS" ]] || complain "no flags parsed from the src/gvex/cli/cli.cc table"
for flag in $FLAGS; do
  if ! grep -qF -- "$flag" "${CLI_DOCS[@]}" 2>/dev/null; then
    complain "flag $flag (cli.cc flag table) is not documented in any of:" \
             "${CLI_DOCS[*]}"
  fi
done

echo "== docs-lint: StatusCode exit codes vs exit-code tables"
# ExitCodeForStatus maps enum value v -> exit v+1 (0 stays 0); the
# tables must carry one `| <exit> | <kName> |` row per code.
while IFS= read -r line; do
  name="$(echo "$line" | sed -E 's/^ *(k[A-Za-z]+) = ([0-9]+).*/\1/')"
  value="$(echo "$line" | sed -E 's/^ *(k[A-Za-z]+) = ([0-9]+).*/\2/')"
  [[ "$name" == "kOk" ]] && continue
  exit_code=$((value + 1))
  for table in README.md docs/WIRE_PROTOCOL.md; do
    [[ -f "$table" ]] || continue
    if ! grep -qE "^\| *$exit_code *\| *\`?$name\`?" "$table"; then
      complain "$table exit-code table is missing | $exit_code | $name |"
    fi
  done
done < <(grep -E '^ *k[A-Za-z]+ = [0-9]+' src/gvex/common/status.h)

echo "== docs-lint: request types in protocol.h vs WIRE_PROTOCOL.md"
# kRequestTypes holds one row per type in enum order; print "<type> <name>".
TYPES="$(grep -oE '^ *\{RequestType::k[A-Za-z]+, "[a-z]+"' \
           src/gvex/serve/protocol.h |
         sed -E 's/.*"([a-z]+)"/\1/' | awk '{ print NR - 1, $0 }')"
[[ -n "$TYPES" ]] || complain "no request types parsed from src/gvex/serve/protocol.h"
WIRE_TYPES="$(awk '/^## Request kinds/ { on = 1; next }
                   on && /^#/ { on = 0 }
                   on && /^\| *[0-9]+ *\| *`[a-z]+`/ {
                     gsub(/[|`]/, " "); print $1, $2 }' docs/WIRE_PROTOCOL.md)"
if [[ "$WIRE_TYPES" != "$TYPES" ]]; then
  complain "docs/WIRE_PROTOCOL.md \"Request kinds\" rows differ from" \
           "kRequestTypes:" \
           "$(diff <(echo "$TYPES") <(echo "$WIRE_TYPES") | grep '^[<>]' |
              tr '\n' ' ')"
fi

echo "== docs-lint: relative markdown links resolve"
ALL_DOCS="$(ls ./*.md docs/*.md 2>/dev/null)"
for doc in $ALL_DOCS; do
  dir="$(dirname "$doc")"
  # Inline links only: [text](target). External URLs and pure anchors
  # are out of scope; a #fragment on a file link is stripped.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
      complain "$doc links to missing file: $target"
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
done

echo "== docs-lint: codec files stay off string streams"
CODEC_FILES=(src/gvex/common/text_codec.h src/gvex/common/text_codec.cc
             src/gvex/common/io_util.cc src/gvex/serve/protocol.cc
             src/gvex/graph/graph_io.cc src/gvex/explain/view_io.cc
             src/gvex/explain/snapshot_io.cc src/gvex/explain/checkpoint.cc
             src/gvex/ingest/journal.cc src/gvex/gnn/serialize.cc
             src/gvex/gnn/quantize.cc src/gvex/cluster/bundle.cc
             src/gvex/cluster/shard_map.cc src/gvex/zoo/evaluator.cc)
for file in "${CODEC_FILES[@]}"; do
  if [[ ! -f "$file" ]]; then
    complain "codec file $file is missing"
    continue
  fi
  while IFS= read -r hit; do
    complain "$file:$hit (use TextWriter/TextReader, common/text_codec.h)"
  done < <(grep -nE '#include <sstream>|SetMaxPrecision|std::(i|o)stringstream' \
             "$file")
done

if [[ "$FAILURES" -gt 0 ]]; then
  echo "docs-lint FAILED with $FAILURES violation(s)" >&2
  exit 1
fi
echo "docs-lint PASSED"
