#!/usr/bin/env bash
# Prints the path of a compile_commands.json for this tree, configuring a
# build directory to produce one if none exists yet. clang-tidy (the
# run_checks.sh tidy stages) and editor language servers share this one
# database; CMakeLists.txt exports it unconditionally
# (CMAKE_EXPORT_COMPILE_COMMANDS), so any configured build directory
# works.
#
# Usage:
#   tools/compiledb.sh            # print path (configure build/ if needed)
#   tools/compiledb.sh --fresh    # reconfigure before printing
#
# Exit status: 0 with the path on stdout; non-zero if configuring failed.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
fresh=0
[[ "${1:-}" == "--fresh" ]] && fresh=1

# Prefer an existing database from any known build tree (newest wins).
if [[ $fresh -eq 0 ]]; then
  newest=""
  for dir in "$root"/build "$root"/build-*; do
    db="$dir/compile_commands.json"
    [[ -f "$db" ]] || continue
    if [[ -z "$newest" || "$db" -nt "$newest" ]]; then
      newest="$db"
    fi
  done
  if [[ -n "$newest" ]]; then
    echo "$newest"
    exit 0
  fi
fi

cmake -S "$root" -B "$root/build" >&2
echo "$root/build/compile_commands.json"
