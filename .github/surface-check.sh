#!/usr/bin/env bash
# Public-surface ratchet.
#
# Lists every `pub` / `pub(crate)` fn declared above the first
# `#[cfg(test)]` of a program-crate source file (every crate except
# `bench` and `compat-*`; files under a `tests/` directory are test code)
# that no other non-test line of any program crate names. A line that
# declares a fn of the same name does not count as naming it.
#
# That list must equal the `path name` columns of the allowlist exactly.
# Each allowlist line is `path name user`, where `user` is the file that
# reaches the fn: a root test, a bench, an example, a `benchmark/src`
# file, or a unit test of a program crate. The user must name the fn on a
# line that is not a `fn` declaration of it (in a program-crate file,
# below its first `#[cfg(test)]`), so a stale entry fails as well as a new
# uncalled fn.
#
# Run from the repository root: `.github/surface-check.sh`.
set -euo pipefail
shopt -s globstar

allow=.github/surface-allowlist.txt
export LC_ALL=C

# Whether a path is program-crate source (not bench, compat-* or tests/).
is_program() {
    case "$1" in
        crates/bench/* | crates/compat-*/* | */tests/*) return 1 ;;
        crates/*/src/*) return 0 ;;
        *) return 1 ;;
    esac
}

files=()
for f in crates/*/src/**/*.rs; do
    if is_program "$f"; then
        files+=("$f")
    fi
done

found=$(awk '
    FNR == 1 { intest = 0 }
    /^#\[cfg\(test\)\]/ { intest = 1 }
    intest { next }
    {
        if (match($0, /^[ \t]*pub(\(crate\))?[ \t]+((const|unsafe|async)[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            d = substr($0, RSTART, RLENGTH)
            sub(/.*fn[ \t]+/, "", d)
            decls[++ndecl] = FILENAME " " d
        }
        own = ""
        if (match($0, /(^|[^A-Za-z0-9_])fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            own = substr($0, RSTART, RLENGTH)
            sub(/.*fn[ \t]+/, "", own)
        }
        line = $0
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        n = split(line, w, " ")
        for (i = 1; i <= n; i++) {
            if (w[i] != own) {
                named[w[i]] = 1
            }
        }
    }
    END {
        for (i = 1; i <= ndecl; i++) {
            split(decls[i], p, " ")
            if (!(p[2] in named)) {
                print decls[i]
            }
        }
    }
' "${files[@]}" | sort)

entries=$(sed -e '/^#/d' -e '/^$/d' "$allow")
listed=$(echo "$entries" | awk 'NF { print $1 " " $2 }' | sort)

status=0
if ! diff <(echo "$listed") <(echo "$found") >/dev/null; then
    status=1
    echo "the public surface does not match $allow:" >&2
    comm -13 <(echo "$listed") <(echo "$found") | sed 's/^/  no program caller, not allowlisted: /' >&2
    comm -23 <(echo "$listed") <(echo "$found") | sed 's/^/  allowlisted, but has a program caller or is gone: /' >&2
    echo "delete an uncalled fn (or move it into its file's test module); allowlist it only with the file that uses it" >&2
fi

while read -r path name user rest; do
    if [ -z "$path" ]; then
        continue
    fi
    if [ -z "$user" ] || [ -n "$rest" ]; then
        echo "$allow: '$path $name $user $rest' is not 'path name user'" >&2
        status=1
        continue
    fi
    if [ ! -f "$user" ]; then
        echo "$allow: $name's user $user does not exist" >&2
        status=1
        continue
    fi
    if is_program "$user"; then
        body=$(awk 'f { print } /^#\[cfg\(test\)\]/ { f = 1 }' "$user")
    else
        body=$(cat "$user")
    fi
    if ! echo "$body" | grep -vE "(^|[^A-Za-z0-9_])fn[[:space:]]+$name([^A-Za-z0-9_]|$)" \
        | grep -w "$name" >/dev/null; then
        echo "$allow: $user does not use $path's $name: remove the entry or name its real user" >&2
        status=1
    fi
done <<<"$entries"

exit $status
