#!/bin/sh
# Run a command and require its stdout to equal a committed golden file.
#
#   compare.sh <golden> <scratch-output> <command> [args...]
#
# Exits 0 when the command succeeds and its stdout is byte-identical to
# <golden>; otherwise prints the first lines of the difference and
# exits 1.  The output is kept in <scratch-output> for inspection.
golden=$1
out=$2
shift 2
if ! "$@" > "$out"; then
  echo "command failed: $*" >&2
  exit 1
fi
if ! cmp -s "$golden" "$out"; then
  echo "output of '$*' differs from $golden:" >&2
  diff "$golden" "$out" | head -n 40 >&2
  exit 1
fi
