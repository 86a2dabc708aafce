#!/usr/bin/env bash
# check_ci_test_names.sh: fail when a -run, -bench or -fuzz alternative in
# the CI workflow names no test of the packages its `go test` command
# runs. `go test -run 'TestGone'` passes while running nothing, so a test
# renamed or deleted without its CI step would otherwise drop out of CI
# unnoticed.
#
# Every `go test` command line of the workflow (comments aside) is read
# on its own: its packages are the ./... arguments, each flag pattern is
# split at `|` into alternatives, a subtest part after `/` is dropped, and
# each alternative must match, as an unanchored regular expression, the
# name of some test (-run), benchmark (-bench) or fuzz target (-fuzz) that
# `go test -list` reports for those packages. The `^$` alternative (run
# nothing) is exempt.
#
# Usage: scripts/check_ci_test_names.sh [workflow]
#        (default .github/workflows/ci.yml; run from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."
wf=${1:-.github/workflows/ci.yml}

fail=0
checked=0
while IFS= read -r line; do
	cmd=${line#*go test }
	read -ra pkgs <<<"$(grep -oE '\./[^ )]*' <<<"$cmd" | tr '\n' ' ')"
	[ ${#pkgs[@]} -gt 0 ] || continue
	names=""
	for flag in run bench fuzz; do
		if [[ $cmd =~ -$flag[\ =]\'([^\']*)\' ]] || [[ $cmd =~ -$flag[\ =]([^\ \']+) ]]; then
			pat=${BASH_REMATCH[1]}
		else
			continue
		fi
		case $flag in
		run) kind='^(Test|Example|Fuzz)' ;;
		bench) kind='^Benchmark' ;;
		fuzz) kind='^Fuzz' ;;
		esac
		if [ -z "$names" ]; then
			names=$(go test -list '.*' "${pkgs[@]}")
		fi
		IFS='|' read -ra alts <<<"$pat"
		for alt in "${alts[@]}"; do
			[ "$alt" = '^$' ] && continue
			alt=${alt%%/*}
			checked=$((checked + 1))
			if ! grep -E "$kind" <<<"$names" | grep -qE -- "$alt"; then
				echo "no test matches -$flag alternative '$alt' in ${pkgs[*]}" >&2
				fail=1
			fi
		done
	done
done < <(grep -E 'go test ' "$wf" | grep -vE '^[[:space:]]*#')

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_ci_test_names: all $checked -run/-bench/-fuzz alternatives in $wf match a test"
