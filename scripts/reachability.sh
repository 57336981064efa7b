#!/usr/bin/env bash
# Lists the functions declared in the module's non-test files that no
# binary links (dead code), one symbol a line, sorted. From the repo root:
#
#   bash scripts/reachability.sh | diff -u scripts/reachability-survivors.txt -
#
# Every cmd/*, examples/* and bench binary is built with inlining off, so
# each called function keeps its own symbol, and every package archive
# the same way; the functions in the archives' text symbols that no
# binary's text symbols name are printed. Interface-method thunks and the
# (*T).M wrappers the compiler generates for value methods T.M are noise
# and filtered out. Build output goes to a temporary directory.
set -euo pipefail
export LC_ALL=C # one collation for sort and comm, and a stable order
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
mkdir -p "$out/bin" "$out/pkg"
for d in cmd/* examples/*; do
	go build -gcflags=all=-l -o "$out/bin/$(echo "$d" | tr / _)" "./$d"
done
(cd bench && go build -gcflags=all=-l -o "$out/bin/bench" .)
for p in $(go list ./... | grep -v '/cmd/\|/examples/'); do
	go build -gcflags=-l -o "$out/pkg/$(echo "$p" | tr / _).a" "$p"
done
norm() {
	awk '$2=="T"||$2=="t"{print $3}' | grep '^repro' |
		sed -E 's/\.func[0-9.]+$//; s/\.(gowrap|deferwrap)[0-9]+$//; s/\[.*\]//' | sort -u
}
for b in "$out"/bin/*; do go tool nm "$b"; done | norm >"$out/linked.txt"
for a in "$out"/pkg/*.a; do go tool nm "$a"; done | norm >"$out/declared.txt"
grep -rhoE --include='*.go' --exclude='*_test.go' --exclude-dir=bench -H '^(type +|	)[A-Za-z_][A-Za-z0-9_]* +interface *\{' . |
	sed -E 's#^\./(.*)/[^/]*\.go:(type +|	)([A-Za-z0-9_]+).*#repro/\1.\3.#' | sort -u >"$out/ifaces.txt"
comm -23 "$out/declared.txt" "$out/linked.txt" | grep -vFf "$out/ifaces.txt" |
	grep -vE '\.init(\.[0-9]+)?$|\.(eq|hash)\.|^type:|go:itab|\.inittask$' |
	while read -r s; do
		v=$(echo "$s" | sed -E 's/\(\*([A-Za-z0-9_]+)\)\./\1./')
		[ "$v" != "$s" ] && grep -qxF "$v" "$out/declared.txt" && continue
		echo "$s"
	done
