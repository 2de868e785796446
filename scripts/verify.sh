#!/usr/bin/env bash
# Tier-1 verification gate plus workspace-wide lint pass.
# Run from the repo root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== network fabric tests (bounded: must not hang on a dead socket) =="
timeout 120 cargo test -q --test network_fabric

echo "== churn smoke (breaker + memo under injected faults) =="
timeout 120 cargo test -q --test network_fabric -- churn_burst timed_out_op

echo "== hetsec lint: clean fixtures stay clean, defect fixture matches golden =="
LINT=./target/release/hetsec
out="$($LINT lint fixtures/figures_clean.kn --rbac fixtures/figures_clean.rbac.json)"
if [ "$out" != "clean: no findings" ]; then
    echo "figures_clean.kn is no longer lint-clean:"; echo "$out"; exit 1
fi
$LINT lint fixtures/defects.kn --rbac fixtures/defects.rbac.json \
    --now 200 --revoked Kdave --format json | diff -u fixtures/defects.golden.json - \
    || { echo "defects.kn lint output drifted from fixtures/defects.golden.json"; exit 1; }

echo "== incremental analysis: warm engine must agree with the cold run =="
$LINT lint fixtures/defects.kn --rbac fixtures/defects.rbac.json \
    --now 200 --revoked Kdave --incremental-check > /dev/null \
    || { echo "verify.sh: incremental-check diverged on defects.kn"; exit 1; }
$LINT lint fixtures/figures_clean.kn --incremental-check > /dev/null \
    || { echo "verify.sh: incremental-check diverged on figures_clean.kn"; exit 1; }

echo "== hetsec diff: semantic verdict diff matches golden =="
$LINT diff fixtures/defects.kn fixtures/defects_v2.kn \
    --now 200 --revoked Kdave --format json | diff -u fixtures/semdiff.golden.json - \
    || { echo "hetsec diff output drifted from fixtures/semdiff.golden.json"; exit 1; }

echo "== sharded fabric tests (bounded: mux + forwarding must not hang) =="
timeout 120 cargo test -q --test sharded_fabric

echo "== peer links over mux: forwards overlap on one link, peer failures fail fast =="
timeout 120 cargo test -q --test sharded_fabric -- \
    two_forwards_are_in_flight_on_one_tcp_peer_link \
    a_peer_stopped_mid_forward_fails_it_as_retryable_closed \
    a_silent_peer_times_forwards_out_and_leaves_no_pending_entry \
    ring_disagreement_over_tcp_peer_links_fails_fast_and_typed

echo "== 2-shard mux smoke (small principal count, real TCP fabric) =="
out="$(timeout 120 ./target/release/hetsec loadgen \
    --principals 500 --ops 60 --shards 2 --window 8 --callers 2 \
    --pipeline 4 --service-us 200)"
echo "$out"
echo "$out" | grep -q "60/60 ops ok over 2 shard(s), mux transport" \
    || { echo "verify.sh: 2-shard mux smoke dropped ops"; exit 1; }

echo "== two-node verdict-stamp smoke (stamps must amortise across a real fabric) =="
out="$(timeout 120 ./target/release/hetsec serve 127.0.0.1:0 smoke Kc 24 --shards 2)"
echo "$out"
echo "$out" | grep -q "24/24 ok" \
    || { echo "verify.sh: two-node stamp smoke dropped ops"; exit 1; }
echo "$out" | grep -Eq "verdict stamps: issued [1-9][0-9]*, clients admitted [1-9][0-9]* \(rejected 0, stale 0\)" \
    || { echo "verify.sh: two-node stamp smoke issued/admitted no verdict stamps"; exit 1; }

echo "== wire codec: golden frame corpus, mutation property, nesting cap =="
timeout 120 cargo test -q --test wire_codec

echo "== depth bombs against a live listener (connection dropped, server keeps serving) =="
timeout 120 cargo test -q --test wire_codec -- live_listener_survives_depth_bombs

echo "== graphs engine: each wave handed to the executor as one batch =="
timeout 120 cargo test -q -p hetsec-graphs

echo "== distributed execution: pipelined waves vs the local evaluator, client killed mid-wave =="
timeout 120 cargo test -q --test distributed_execution
timeout 120 cargo test -q --test distributed_execution -- wave_survives_its_client_being_killed_mid_wave

echo "== verdict-stamp tests (tamper property, revocation, cross-node amortisation) =="
timeout 120 cargo test -q --test verdict_stamps

echo "== batch-equivalence smoke (decide_batch === per-request decide) =="
timeout 120 cargo test -q --test batch_equivalence
timeout 120 cargo test -q --test hotpath_equivalence -- batch

echo "== leader/follower serving and caller-read mux replies =="
timeout 120 cargo test -q -p hetsec-webcom --lib -- \
    threads_track_the_frames_in_flight a_slow_op_does_not_hold_up_a_later_fast_one \
    a_deadline_mid_frame_leaves_the_framing_intact \
    callers_read_each_others_replies_with_no_reader_thread \
    a_peer_closing_an_idle_connection_costs_one_fast_retryable_failure

echo "== wave batching: one frame each way, one mediation per head =="
timeout 120 cargo test -q --test wave_batching -- \
    handle_batch_equals_per_op_handle_on_a_twin_engine \
    batch_frames_match_their_golden_bytes \
    a_slow_op_does_not_hold_back_its_batch_mates
timeout 120 cargo test -q --test wave_frame_count -- a_32_wide_zero_service_wave_is_one_frame_each_way

echo "== presented sets: a set crosses a connection once, then goes by id =="
timeout 120 cargo test -q --test presented_sets -- \
    requests_by_reference_equal_their_inline_decoding \
    a_set_crosses_a_connection_once_and_again_after_a_cut \
    undefined_or_misdefined_sets_close_the_connection_with_nothing_run \
    an_unresolved_set_fails_closed_at_the_client_and_the_mux
timeout 120 cargo test -q --test verdict_stamps -- a_tampered_credential_in_a_definition_is_refused_as_inline
timeout 120 cargo test -q -p hetsec-webcom --lib -- \
    reference_frames_match_the_owned_named_form the_set_table_evicts_first_in_first_out

echo "== one decision cache: the trust manager's, staleness-checked; stamps and lost connections =="
timeout 120 cargo test -q --test decision_cache -- \
    revocation_reflected_in_next_decision cache_never_serves_stale_epoch_under_concurrency
timeout 120 cargo test -q -p hetsec-webcom --lib -- \
    equal_length_lists_get_stamps_over_their_own_credentials \
    stamps_are_signed_once_per_epoch_and_set \
    a_lost_connection_is_retried_on_the_same_client
timeout 120 cargo test -q --test presented_sets -- a_set_crosses_a_connection_once_and_again_after_a_cut

echo "== listener bookkeeping: closed connections leave the tracked set =="
timeout 120 cargo test -q -p hetsec-webcom --lib -- closed_connections_leave_the_tracked_set peer_listener_untracks_closed_connections

echo "== perfbench builds against the public API =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== clippy (-D warnings): whole workspace, all targets =="
cargo clippy --no-deps --workspace --all-targets -- -D warnings

echo "== rustdoc (-D warnings): no broken or ambiguous intra-doc links =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== bench smoke (--test mode: run once, no timing) =="
./scripts/bench.sh --smoke

echo "verify.sh: all gates passed"
