#!/usr/bin/env bash
# The single pre-merge gate, in escalating tiers:
#
#   1. ruff         static lint over src (incl. repro.testing), tests,
#                   benchmarks, examples, scripts; degrades when absent
#   2. fast tests   tier-1 suite minus @pytest.mark.slow
#   3. slow tests   the @slow end-to-end checks on their own
#   4. selfcheck    repro selfcheck --smoke: invariants, the float32
#                   op-coverage gradcheck sweep, and the smoke golden
#                   scenario against ./goldens
#   5. nn smoke     fused-op gradchecks, the replay-parity sweep
#                   (eager vs compiled bit-identity for every
#                   registered op), the two Hypothesis graph threading
#                   properties (capture beside another thread,
#                   concurrent replays), and the tiny dtype/replay bench
#   6. chaos smoke  seeded SIGKILL-at-a-point + resume over a scripted
#                   grid: the journal/lease layer must converge to the
#                   reference results with zero re-executed done jobs
#                   (deterministic, well under a minute)
#   7. serve smoke  registry round-trip + a seeded in-process request
#                   burst (bit-identity + saturation errors), the
#                   fixed-tile contract over offline batch sizes and
#                   served max_batch, bad-request isolation and pool
#                   backpressure, then the micro-batching bench in
#                   --smoke mode (whose streaming section also gates
#                   the O(changed windows) re-encode economy)
#   8. stream smoke the streaming equivalence contract (sample-at-a-
#                   time == offline bits, push-granularity invariance),
#                   the fixed-tile contract over stream batch sizes,
#                   encode_long batch_windows and the fit-time fill,
#                   plus the measured-vs-predicted peak-memory bound
#                   for chunked long-series encoding (< 30 s)
#   9. paper benches the 18 paper-regeneration benches (tables,
#                   figures, ablations, report) on the micro preset,
#                   rendering to the gitignored benchmarks/results-micro/
#                   (~1 min)
#
# Usage: scripts/check.sh [extra pytest args...]
#
# With arguments, tiers 2-3 collapse into one pytest run forwarding the
# arguments (e.g. `scripts/check.sh tests/exec -q` for one subtree);
# lint and tiers 4-9 always run.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks examples scripts
elif python -c "import ruff" >/dev/null 2>&1; then
    echo "== ruff (module) =="
    python -m ruff check src tests benchmarks examples scripts
else
    echo "!! ruff not installed; skipping lint (pip install ruff)" >&2
fi

if [ "$#" -eq 0 ]; then
    echo "== fast tests (-m 'not slow') =="
    python -m pytest -m "not slow" -q

    # Exit code 5 means "no tests collected": an empty slow tier is
    # not a gate failure, just an empty marker set.
    echo "== slow tests (-m slow) =="
    python -m pytest -m "slow" -q || { status=$?; [ "$status" -eq 5 ] || exit "$status"; }
else
    echo "== tier-1 tests =="
    python -m pytest "$@"
fi

echo "== repro selfcheck (smoke) =="
python -m repro.cli selfcheck --smoke

# The numerics kernels back everything else, so they get an explicit
# gate even when the pytest args above selected an unrelated subtree:
# finite-difference gradchecks for the fused ops, the replay-parity
# sweep (every registered op must replay bit-identically through the
# compiled graph engine or refuse capture by its own name), the graph
# threading properties (a capture records only its own thread; replays
# of one graph never share intermediates), then a tiny
# float64-vs-float32 trainer-step + eager-vs-compiled inference bench
# that must run end to end.
echo "== nn fast-numerics smoke =="
python -m pytest tests/nn/test_fused_ops.py tests/properties/test_replay_parity.py \
                 tests/properties/test_graph_threads.py -q
python benchmarks/bench_nn.py --smoke

# Crash-safety gate: one seeded kill/resume scenario plus the shard
# double-claim race, end to end through real SIGKILLed subprocesses.
# The full kill-point sweep lives in tests/exec/test_chaos.py (tier 2);
# this tier pins the deepest scenario even when pytest args above
# selected an unrelated subtree.
echo "== chaos smoke (kill/resume) =="
python -m pytest "tests/exec/test_chaos.py::TestKillResumeConvergence::test_kill_anywhere_resume_converges[journal.committed-15]" \
                 "tests/exec/test_chaos.py::TestConcurrentShards::test_two_shards_share_a_grid_without_duplicate_execution" -q

# Serving gate: the registry publish/load round-trip and a seeded
# in-process request burst (concurrent submitters, micro-batch width,
# served-bits == offline-bits, queue-full / deadline typed errors), the
# tile contract (served rows at any max_batch == offline rows at any
# batch_size), one bad request never failing its co-batchees and the
# one-batch-per-worker pool hand-off, then the micro-batching bench's
# machinery tier.  Seeded; one spawned worker at most — under 30 s.
echo "== serve smoke (registry + request burst + tile contract) =="
python -m pytest tests/serve/test_registry.py::TestPublishLoad \
                 tests/serve/test_serving.py \
                 tests/serve/test_isolation.py \
                 tests/properties/test_tile_contract.py::TestOfflineBatchSize \
                 tests/properties/test_tile_contract.py::TestServedWidth -q
python benchmarks/bench_serve.py --smoke

# Streaming gate: the equivalence contract property (streamed bits ==
# offline bits, push granularity invisible), the tile contract (stream
# batch_size, encode_long batch_windows and the fit-time fill never
# change a row) and the cost-model peak-memory bound on a 100k-step
# chunked encode.
echo "== stream smoke (parity + tile contract + memory bound) =="
python -m pytest "tests/properties/test_stream_parity.py::TestStreamOfflineParity::test_sample_at_a_time_matches_offline_compiled" \
                 "tests/properties/test_stream_parity.py::TestChunkingInvariance::test_push_granularity_is_invisible" \
                 tests/properties/test_tile_contract.py::TestStreamWidth \
                 tests/properties/test_tile_contract.py::TestFitFill \
                 "tests/stream/test_memory_bound.py::test_peak_memory_within_cost_model_bound" -q

# Paper-regeneration gate: every table/figure bench end to end on the
# micro grid (3 datasets, 2 seeds), so a change that breaks a rendering
# or a paper-shape assertion fails here rather than in a 20-minute
# `fast` run.  Renderings go to benchmarks/results-micro/, leaving the
# committed `fast` renderings in benchmarks/results/ untouched.
echo "== paper benches (micro) =="
REPRO_BENCH_PRESET=micro python -m pytest benchmarks/ --benchmark-only -q
