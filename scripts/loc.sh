#!/usr/bin/env bash
# loc.sh — code size of the router's core packages: non-test Go lines
# that are neither blank nor a // comment line, per package, plus the
# total. Usage: scripts/loc.sh [pkg ...] (default: ipcore telemetry
# netio netdev, under internal/).
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
	pkgs=(ipcore telemetry netio netdev)
fi

total=0
for p in "${pkgs[@]}"; do
	n=0
	for f in internal/"$p"/*.go; do
		case "$f" in *_test.go) continue ;; esac
		c=$(sed 's/^[[:space:]]*//' "$f" | grep -v -e '^$' -e '^//' | wc -l)
		n=$((n + c))
	done
	printf '%-10s %5d\n' "$p" "$n"
	total=$((total + n))
done
printf '%-10s %5d\n' total "$total"
