# Sourced by the release test steps of .github/workflows/ci.yml.
#
# cargo_test_some ARGS...: run `cargo test ARGS...` and fail when cargo
# fails, or when no test binary reports `test result: ok. N passed` with
# N >= 1, so a misspelt filter that selects nothing cannot pass. The
# workflow's default shell (`bash -e`) has no pipefail, so cargo's status
# is read from PIPESTATUS instead of from the pipeline through tee.
cargo_test_some() {
    local log status
    log=$(mktemp)
    cargo test "$@" 2>&1 | tee "$log"
    status=${PIPESTATUS[0]}
    if [ "$status" -ne 0 ]; then
        echo "cargo test $*: exit status $status" >&2
        return "$status"
    fi
    if ! sed 's/\x1b\[[0-9;]*m//g' "$log" | grep -Eq '^test result: ok\. [1-9][0-9]* passed'; then
        echo "cargo test $*: the filter selected no test" >&2
        return 1
    fi
}
