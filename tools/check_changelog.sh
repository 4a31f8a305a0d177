#!/bin/sh
# Fail CI when a "PR N:"-titled commit lands without its CHANGES.md
# entry. The head commit's subject names the PR (repo convention:
# "PR 7: ..."); CHANGES.md must then contain a matching "PR 7"
# heading. Commits whose subject names no PR (fixups, reverts) pass —
# the check guards the PR-landing commit itself, which is the one
# that must carry the changelog.
#
# Usage: tools/check_changelog.sh [changes-file]   (from the repo root)
#        tools/check_changelog.sh --cli-smoke <warped_sim>
#
# --cli-smoke exercises the strict-CLI contract of the campaign-family
# subcommands on a built warped_sim binary: malformed or missing
# required arguments must exit 2 (usage), never run with a silently
# defaulted value. CI runs it after the build so a new subcommand
# can't land without its argument validation.

set -eu

if [ "${1:-}" = "--cli-smoke" ]; then
    sim="${2:?usage: check_changelog.sh --cli-smoke <warped_sim>}"

    expect_exit() {
        want="$1"
        shift
        set +e
        "$@" >/dev/null 2>&1
        got=$?
        set -e
        if [ "$got" -ne "$want" ]; then
            echo "check_changelog --cli-smoke: '$*' exited $got," \
                 "expected $want" >&2
            exit 1
        fi
    }

    # Strict numeric parsing across the campaign family.
    expect_exit 2 "$sim" campaign SCAN --sites banana
    expect_exit 2 "$sim" campaign SCAN --checkpoint-every 0
    expect_exit 2 "$sim" campaign SCAN --strata 0
    # Keyword flags shared by run mode and the campaign family take
    # exactly their listed values; a bad or missing value never falls
    # back to the default machine.
    for mode in "" campaign; do
        expect_exit 2 "$sim" $mode SCAN --dmr foo
        expect_exit 2 "$sim" $mode SCAN --dmr
        expect_exit 2 "$sim" $mode SCAN --mapping bogus
        expect_exit 2 "$sim" $mode SCAN --sched bogus
        # A machine GpuConfig::validate() refuses is a usage error,
        # not an abort (and campaign --schedulers 0 no longer means
        # "keep the default").
        expect_exit 2 "$sim" $mode SCAN --sms 0
        expect_exit 2 "$sim" $mode SCAN --schedulers 0
        expect_exit 2 "$sim" $mode SCAN --schedulers 5
    done
    # serve/shard required arguments and bounds.
    expect_exit 2 "$sim" serve SCAN --sites 5
    expect_exit 2 "$sim" serve SCAN --sites 5 --shards 0
    expect_exit 2 "$sim" serve SCAN --sites 5 --shards 2 --workers 0
    expect_exit 2 "$sim" shard SCAN --sites 5
    expect_exit 2 "$sim" shard SCAN --sites 5 --shard-index 3 \
        --shard-count 2 --delta-out /dev/null
    # Socket-transport edges: malformed endpoints, socket-only flags
    # without --listen, file-mode flags mixed into --connect mode,
    # and out-of-range transport knobs all refuse up front.
    expect_exit 2 "$sim" shard SCAN --sites 5 --connect 127.0.0.1
    expect_exit 2 "$sim" shard SCAN --sites 5 \
        --connect 127.0.0.1:7 --shard-index 0
    expect_exit 2 "$sim" shard SCAN --sites 5 \
        --connect 127.0.0.1:7 --chaos bogus
    expect_exit 2 "$sim" shard SCAN --sites 5 \
        --connect 127.0.0.1:7 --connect-attempts 0
    expect_exit 2 "$sim" serve SCAN --sites 5 --shards 2 \
        --port-file /tmp/port.txt
    expect_exit 2 "$sim" serve SCAN --sites 5 --shards 2 \
        --no-local-fallback
    expect_exit 2 "$sim" serve SCAN --sites 5 --shards 2 \
        --listen 127.0.0.1:99999
    expect_exit 2 "$sim" serve SCAN --sites 5 --shards 2 \
        --heartbeat 0
    expect_exit 2 "$sim" serve SCAN --sites 5 --shards 2 \
        --strikes 0
    echo "check_changelog --cli-smoke: campaign-family CLI edges OK"
    exit 0
fi

changes="${1:-CHANGES.md}"

if [ ! -f "$changes" ]; then
    echo "check_changelog: $changes not found" >&2
    exit 1
fi

if ! grep -Eq 'PR [0-9]+' "$changes"; then
    echo "check_changelog: $changes has no 'PR <n>' entries at all" >&2
    exit 1
fi

subject=$(git log -1 --format=%s)
pr=$(printf '%s\n' "$subject" | sed -n 's/^PR \([0-9][0-9]*\):.*/\1/p')

if [ -z "$pr" ]; then
    echo "check_changelog: head commit does not name a PR" \
         "('$subject') - skipping entry check"
    exit 0
fi

if grep -Eq "PR ${pr}[^0-9]" "$changes"; then
    echo "check_changelog: found CHANGES.md entry for PR ${pr}"
    exit 0
fi

echo "check_changelog: head commit is 'PR ${pr}: ...' but $changes" \
     "has no 'PR ${pr}' entry - add one describing this PR" >&2
exit 1
