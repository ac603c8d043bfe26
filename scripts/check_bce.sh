#!/usr/bin/env bash
# check_bce.sh — assert the mat inner kernels stay bounds-check-free.
#
# Compiles internal/mat with the ssa/check_bce debug flag and fails if
# the compiler reports any per-element IsInBounds check inside
# internal/mat/inner.go, the file holding the multiply-add inner loops
# of the tiled Gram / MulABt / MulTo kernels and of the symmetric
# eigensolver (Householder updates, back-accumulation, QL rotations).
#
# Per-call IsSliceInBounds findings (the `b = b[:n]` hoists at the top
# of dot2x2/dot1x2) are allowed: hoisting the check out of the element
# loop is the point of the idiom. What must never appear is IsInBounds,
# a compare+branch inside the element loop itself.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(go build -gcflags='-d=ssa/check_bce' ./internal/mat/ 2>&1 | grep 'inner\.go' || true)"
bad="$(printf '%s\n' "$out" | grep 'Found IsInBounds' || true)"

if [[ -n "$bad" ]]; then
    echo "FAIL: per-element bounds checks in internal/mat/inner.go:" >&2
    printf '%s\n' "$bad" >&2
    echo "Keep inner loops in the hoisted or slice-advance idiom (see inner.go header)." >&2
    exit 1
fi

echo "check_bce: internal/mat/inner.go is free of per-element bounds checks"
