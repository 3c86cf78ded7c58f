"""The benchmark's workloads, by name; each module records why it exists."""

from workloads import build_large_streamed, live_replay, study_small

WORKLOADS = {
    module.NAME: module
    for module in (study_small, build_large_streamed, live_replay)
}
