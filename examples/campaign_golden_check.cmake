# campaign_golden_smoke check: `warped_sim campaign --out` reports
# for configurations the campaign benchmark does not cover must stay
# byte-identical to the reports committed under tests/golden/. They
# pin the exact campaign shortcuts (docs/FAULT_MODEL.md): stopping a
# launch at its first detection and skipping the per-lane fault hook
# on quiet cycles must not move a single reported number, across
# recovery off and on, stuck-at sites and the non-default schemes.
#
# Each entry: <golden file stem> then the campaign arguments, space
# separated.
set(configs
    "campaign_sha SHA --size 2 --sites 200 --seed 7"
    "campaign_stuck_at MatrixMul --size 32 --sites 150 --seed 7 --kinds stuck0,stuck1"
    "campaign_replay_compare MatrixMul --size 32 --sites 300 --seed 7 --scheme replay-compare"
    "campaign_partial_thread MatrixMul --size 32 --sites 300 --seed 7 --scheme partial-thread --protect-frac 0.5"
    "campaign_bfs_recovery BFS --size 2 --sites 200 --seed 7 --recovery")

foreach(entry IN LISTS configs)
    separate_arguments(args UNIX_COMMAND "${entry}")
    list(POP_FRONT args stem)
    set(out ${OUTDIR}/${stem}.json)
    execute_process(
        COMMAND ${SIM} campaign ${args} --jobs 2 --out ${out}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${stem}: campaign failed (exit ${rc})")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${out}
                ${GOLDEN}/${stem}.json
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR
                "campaign_golden_smoke: ${stem} report differs from "
                "tests/golden/${stem}.json — a campaign number moved")
    endif()
endforeach()
