#!/usr/bin/env bash
# Docs lint (registered as ctest label `docs-lint`): keeps the shipped
# documentation from drifting away from the code it documents.
#
#   1. Every CLI flag named in the cli.h synopsis appears in at least
#      one user-facing doc (README.md, docs/SERVING.md,
#      docs/ARCHITECTURE.md, docs/WIRE_PROTOCOL.md,
#      docs/OBSERVABILITY.md).
#   2. Every StatusCode in status.h maps to an exit-code row in both
#      README.md and docs/WIRE_PROTOCOL.md (the normative table).
#   3. The request-type table in src/gvex/serve/protocol.h
#      (kRequestTypes) matches the "Request kinds" table in
#      docs/WIRE_PROTOCOL.md row for row, and the `client --type` list in
#      cli.h names exactly its wire names.
#   4. Every intra-repo relative markdown link resolves to a file.
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

echo "== docs-lint: CLI flags in cli.h vs user-facing docs"
# The synopsis block in cli.h is the flag inventory: every `--flag`
# token it names must be documented somewhere a user would look.
FLAGS="$(grep -oE -- '--[a-z][a-z0-9-]*' src/gvex/cli/cli.h | sort -u)"
[[ -n "$FLAGS" ]] || complain "no flags parsed from src/gvex/cli/cli.h"
for flag in $FLAGS; do
  if ! grep -qF -- "$flag" "${CLI_DOCS[@]}" 2>/dev/null; then
    complain "flag $flag (cli.h) is not documented in any of:" \
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

echo "== docs-lint: request types in protocol.h vs WIRE_PROTOCOL.md and cli.h"
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
# The `--type a|b|...` list in the cli.h synopsis, which wraps over
# comment lines holding nothing but names and bars.
CLI_TYPES="$(awk '!seen && /--type [a-z]/ { sub(/.*--type /, ""); list = $0
                                            seen = more = 1; next }
                  more && /^\/\/ +[a-z|]+$/ { sub(/^\/\/ +/, ""); list = list $0
                                            next }
                  { more = 0 }
                  END { n = split(list, w, "|")
                        for (i = 1; i <= n; i++) if (w[i] != "") print w[i] }' \
               src/gvex/cli/cli.h | sort)"
TYPE_NAMES="$(echo "$TYPES" | awk '{ print $2 }' | sort)"
if [[ "$CLI_TYPES" != "$TYPE_NAMES" ]]; then
  complain "cli.h client --type list differs from kRequestTypes:" \
           "$(diff <(echo "$TYPE_NAMES") <(echo "$CLI_TYPES") | grep '^[<>]' |
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

if [[ "$FAILURES" -gt 0 ]]; then
  echo "docs-lint FAILED with $FAILURES violation(s)" >&2
  exit 1
fi
echo "docs-lint PASSED"
