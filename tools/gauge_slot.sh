#!/usr/bin/env bash
# Where the benchmark's host gauge landed in a perfbench_replay binary.
#
# update_ref_us_per_row divides raw update time by HostGauge's reading,
# and that reading depends on where Sampler::Checkpoint (which runs the
# gauge) sits in its 64-byte line. GNU ld puts the linked .cold clones
# first in .text, then main, then replay_bench.o's code at a fixed offset
# from main, so the gauge moves only when the net size of cold code does.
#
# Usage: tools/gauge_slot.sh <path to perfbench_replay>
# Prints Checkpoint's address and its offset mod 0x40, main's address,
# the last .cold clone before main and the slack between its end and
# main. Exits 1 if a symbol is missing.

set -euo pipefail

if [[ $# -ne 1 || ! -f "$1" ]]; then
  echo "usage: $0 <perfbench_replay>" >&2
  exit 2
fi
bin="$1"

# awk reads all of nm's output (no early exit), so pipefail sees no SIGPIPE.
checkpoint="$(nm -C "${bin}" |
  awk '/Sampler::Checkpoint\(\)$/ && !found { print $1; found = 1 }')"
if [[ -z "${checkpoint}" ]]; then
  echo "gauge_slot: no Sampler::Checkpoint() in ${bin}" >&2
  exit 1
fi

# The symbol just before main in address order: the last cold clone.
slot="$(nm -n -S --defined-only "${bin}" | awk '
  $NF == "main" && $(NF-1) ~ /^[Tt]$/ && !found {
    print prev_addr, prev_size, prev_name, $1
    found = 1
  }
  NF == 4 { prev_addr = $1; prev_size = $2; prev_name = $4 }')"
if [[ -z "${slot}" ]]; then
  echo "gauge_slot: no main in ${bin}" >&2
  exit 1
fi
read -r cold_addr cold_size cold_name main_addr <<< "${slot}"

printf 'checkpoint : 0x%x (offset 0x%02x mod 0x40; 0x30 is the measured slot)\n' \
  "$((16#${checkpoint}))" "$((16#${checkpoint} % 0x40))"
printf 'main       : 0x%x\n' "$((16#${main_addr}))"
printf 'last cold  : %s at 0x%x, ends 0x%x\n' "${cold_name}" \
  "$((16#${cold_addr}))" "$((16#${cold_addr} + 16#${cold_size}))"
printf 'slack      : %d bytes\n' \
  "$((16#${main_addr} - 16#${cold_addr} - 16#${cold_size}))"
