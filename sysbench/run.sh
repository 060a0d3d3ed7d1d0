#!/usr/bin/env bash
# run.sh — build the daemons and the sysbench generator from source, make
# the reused key fixture once, and run one benchmark invocation:
#
#   bash sysbench/run.sh --workload fig9a-local --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory (Go build cache,
# binaries, key fixture, daemon data, logs, run records).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/draportal" ] || [ ! -d "$root/internal" ]; then
	echo "sysbench: run from the root of a DRA4WfMS checkout (go.mod, cmd/, internal/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
bin="$out/bin"
mkdir -p "$bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# The source digest names what was measured when the checkout carries
# no git metadata; it also keys the build so unchanged sources skip it.
digest=$(find cmd internal sysbench go.mod -type f \( -name '*.go' -o -name go.mod \) ! -name '*_test.go' -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)

if [ "$(cat "$bin/.digest" 2>/dev/null)" != "$digest" ]; then
	go build -o "$bin/" ./cmd/draportal ./cmd/dratfc ./cmd/drapool ./cmd/drakeys >&2
	(cd sysbench && go build -o "$bin/sysbench" .) >&2
	echo "$digest" >"$bin/.digest"
fi

# RSA key generation takes seconds and varies run to run, so the trust
# bundle and keys are made once per checkout and reused by every run.
fixture="$out/fixture"
if [ ! -f "$fixture/trust.json" ]; then
	rm -rf "$fixture.tmp"
	"$bin/drakeys" -out "$fixture.tmp" -validity 87600h \
		-principals designer@acme,alice@acme,bob@acme,betty@bolt,carol@bolt,dave@acme,tfc@cloud >&2
	mv "$fixture.tmp" "$fixture"
fi

exec "$bin/sysbench" -bin "$bin" -fixture "$fixture" -work "$out" \
	-commit "$commit" -source-digest "$digest" "$@"
