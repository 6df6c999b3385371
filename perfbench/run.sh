#!/usr/bin/env bash
# Builds the frame benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload action-solo --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary, and the result and span files all
# live under .bench_build/, so a run reads and writes only inside the
# checkout. The build is offline and uses the installed toolchain.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/perfbench" "$out/tmp"
(
	cd "$root/perfbench"
	export GOCACHE="$out/go-build" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
		XDG_CONFIG_HOME="$out/config" HOME="$out/home" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
	go build -buildvcs=false -o "$out/perfbench/perfbench" .
)

# The commit goes into every result's provenance; a checkout without
# version control reports "unknown".
commit=unknown
if [ -d "$root/.git" ] && rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	commit=$rev
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$rev+modified"
	fi
fi
exec "$out/perfbench/perfbench" --out "$out/perfbench" --commit "$commit" "$@"
