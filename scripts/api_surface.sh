#!/bin/sh
# api_surface.sh — guards the public API surface against accidental
# breaks. Renders `go doc -all` for every non-internal package and diffs
# it against the committed golden (scripts/api_surface.golden). Run with
# -update after an intentional API change to re-record the golden; a
# bare run fails (nonzero) when the surface drifted. `make check` and CI
# both run the bare mode.
set -eu

GO=${GO:-go}
cd "$(dirname "$0")/.."
golden=scripts/api_surface.golden

render() {
    # Every package outside internal/ is public surface: the facade and
    # the runnable commands/examples (whose doc comments are user-facing).
    $GO list ./... | grep -v '/internal' | LC_ALL=C sort | while read -r pkg; do
        echo "=== $pkg ==="
        $GO doc -all "$pkg"
        echo
    done
}

case "${1:-}" in
-update)
    render >"$golden"
    echo "api_surface: recorded $golden"
    ;;
"")
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    trap 'exit 1' INT TERM
    render >"$tmp"
    if ! diff -u "$golden" "$tmp"; then
        echo "api_surface: public API drifted from $golden" >&2
        echo "api_surface: run 'sh scripts/api_surface.sh -update' if the change is intentional" >&2
        exit 1
    fi
    echo "api_surface: ok"
    ;;
*)
    echo "usage: $0 [-update]" >&2
    exit 2
    ;;
esac
