#include "src/protocol/batch_verifier.h"

#include <utility>

#include "src/observability/trace.h"
#include "src/runtime/parallel_for.h"
#include "src/runtime/thread_pool.h"
#include "src/util/check.h"

namespace tao {

BatchVerifier::BatchVerifier(const Model& model, const ModelCommitment& commitment,
                             const ThresholdSet& thresholds, Coordinator& coordinator,
                             BatchVerifierOptions options)
    : model_(model),
      commitment_(commitment),
      thresholds_(thresholds),
      coordinator_(coordinator),
      options_(std::move(options)) {}

std::vector<ClaimPhase1> BatchVerifier::ExecutePhase1(const std::vector<BatchClaim>& claims,
                                                      TensorArena::Stats* arena_stats) {
  const size_t num_claims = claims.size();
  std::vector<ClaimPhase1> phase1(num_claims);
  if (num_claims == 0) {
    return phase1;
  }
  const Graph& graph = *model_.graph;
  const NodeId output = graph.output();

  // ---- Batched phase 1: one batched run for the whole cohort -----------------------
  // Every lane is output-only — proposer lanes included — so the batch's working set
  // stays flat in the number of supervised claims; flagged claims re-acquire their
  // full trace lazily below. The commitment check for each claim runs as its
  // proposer lane's epilogue, while other lanes are still computing.
  std::vector<Executor::BatchItem> items;
  items.reserve(2 * num_claims);
  constexpr size_t kNoLane = static_cast<size_t>(-1);
  std::vector<size_t> proposer_lane(num_claims, kNoLane);
  std::vector<size_t> challenger_lane(num_claims, kNoLane);
  for (size_t i = 0; i < num_claims; ++i) {
    const BatchClaim& claim = claims[i];
    TAO_CHECK(claim.proposer_device != nullptr) << "claim " << i << " has no proposer device";

    Executor::BatchItem proposer;
    proposer.inputs = &claim.inputs;
    proposer.perturbations = claim.perturbations.empty() ? nullptr : &claim.perturbations;
    proposer.device = claim.proposer_device;
    proposer.on_complete = [this, i, output, &claims, &phase1](size_t,
                                                               const ExecutionTrace& trace) {
      ResultMeta meta;
      meta.device = claims[i].proposer_device->name;
      meta.challenge_window = options_.dispute.challenge_window;
      phase1[i].c0 = ComputeResultCommitment(commitment_, claims[i].inputs,
                                             trace.value(output), meta);
    };
    proposer_lane[i] = items.size();
    items.push_back(std::move(proposer));

    if (claim.supervised()) {
      Executor::BatchItem challenger;
      challenger.inputs = &claim.inputs;
      challenger.device = claim.verifier_device;
      challenger_lane[i] = items.size();
      items.push_back(std::move(challenger));
    }
  }

  ExecutorOptions exec_options;
  exec_options.num_threads = options_.dispute.num_threads;
  exec_options.reuse_buffers = options_.reuse_buffers;
  const Executor executor(graph, *claims[0].proposer_device);  // per-lane device overrides
  std::vector<ExecutionTrace> traces = executor.RunBatch(items, exec_options, arena_stats);

  // ---- Threshold checks + lazy full re-execution of flagged claims ------------------
  // Unflagged claims keep nothing beyond c0 and the challenger output: their
  // resolution never reads the proposer trace (the threshold verdict is passed
  // precomputed), so the lane traces die here instead of riding the reorder buffer.
  for (size_t i = 0; i < num_claims; ++i) {
    ClaimPhase1& result = phase1[i];
    if (!claims[i].supervised()) {
      continue;
    }
    // Tracing: the service worker published the cohort's contexts (indexed by
    // claim position) around this call; null when driven standalone.
    const bool tracing = Tracer::enabled();
    const int64_t check_begin = tracing ? Tracer::NowNs() : 0;
    result.supervised = true;
    result.challenger_output = traces[challenger_lane[i]].value(output);
    result.flagged = thresholds_.Exceeds(output, traces[proposer_lane[i]].value(output),
                                         result.challenger_output);
    if (result.flagged) {
      // A dispute will post partition interface values from interior nodes, so this
      // claim — and only this claim — pays for a full-trace re-execution. Bitwise
      // identical to the output-only lane (same inputs, perturbations, device), so
      // C0 and every downstream verdict are unchanged.
      ExecutorOptions reexec_options;
      reexec_options.num_threads = options_.dispute.num_threads;
      const Executor proposer_exec(graph, *claims[i].proposer_device);
      result.proposer_trace =
          proposer_exec.RunPerturbed(claims[i].inputs, claims[i].perturbations,
                                     reexec_options);
    }
    if (tracing) {
      if (const TraceContext* context = ScopedTraceContext::At(i)) {
        SpanRecord span;
        span.model = context->model;
        span.sequence = context->sequence;
        span.shard = context->shard;
        span.worker = context->worker;
        span.kind = SpanKind::kThresholdCheck;
        span.detail = result.flagged ? 1 : 0;
        span.begin_ns = check_begin;
        span.end_ns = Tracer::NowNs();
        Tracer::Record(span);
      }
    }
  }
  return phase1;
}

BatchClaimOutcome BatchVerifier::ResolveClaim(const BatchClaim& claim,
                                              const ClaimPhase1& phase1, uint64_t shard) {
  DisputeOptions dispute_options = options_.dispute;
  dispute_options.coordinator_shard = shard;
  return ResolveClaimWithOptions(claim, phase1, dispute_options);
}

BatchClaimOutcome BatchVerifier::ResolveClaimWithOptions(
    const BatchClaim& claim, const ClaimPhase1& phase1,
    const DisputeOptions& dispute_options) {
  BatchClaimOutcome outcome;
  outcome.model = coordinator_.model_id();
  outcome.c0 = phase1.c0;
  if (!claim.supervised()) {
    // Nobody watches this claim: the proposer commits and the window elapses (on the
    // owning shard's clock only — flows on other shards are untouched).
    const ClaimId id = coordinator_.SubmitCommitment(
        phase1.c0, dispute_options.challenge_window, dispute_options.proposer_bond,
        dispute_options.coordinator_shard);
    coordinator_.AdvanceTimeFor(id, dispute_options.challenge_window);
    TAO_CHECK(coordinator_.TryFinalize(id) == ClaimState::kFinalized);
    outcome.claim_id = id;
    outcome.final_state = ClaimState::kFinalized;
    outcome.gas_used = coordinator_.claim_gas(id);
    return outcome;
  }
  DisputeGame game(model_, commitment_, thresholds_, coordinator_, dispute_options);
  outcome.dispute =
      game.RunFromPhase1(claim.inputs, *claim.verifier_device, phase1.proposer_trace,
                         phase1.challenger_output, phase1.c0, phase1.flagged);
  outcome.claim_id = outcome.dispute.claim_id;
  outcome.supervised = true;
  outcome.flagged = outcome.dispute.challenge_raised;
  outcome.proposer_guilty = outcome.dispute.proposer_guilty;
  outcome.final_state = outcome.dispute.final_state;
  outcome.gas_used = outcome.dispute.gas_used;
  return outcome;
}

std::vector<BatchClaimOutcome> BatchVerifier::VerifyBatch(
    const std::vector<BatchClaim>& claims, TensorArena::Stats* arena_stats) {
  const size_t num_claims = claims.size();
  std::vector<BatchClaimOutcome> outcomes(num_claims);
  if (num_claims == 0) {
    return outcomes;
  }
  const std::vector<ClaimPhase1> phase1 = ExecutePhase1(claims, arena_stats);

  if (!options_.concurrent_disputes) {
    // Claim-ordered resolution: the exact per-claim action sequence of the
    // historical one-claim-at-a-time path, so gas, ledger, claim ids, and stats are
    // bitwise identical to it.
    for (size_t i = 0; i < num_claims; ++i) {
      outcomes[i] = ResolveClaim(claims[i], phase1[i]);
    }
    return outcomes;
  }

  // Concurrent mode: resolve unflagged claims first in claim order (their happy
  // paths advance the shared clock), then fan the flagged claims' dispute games out
  // across the pool with the per-round clock advance disabled — games sharing the
  // coordinator must not push each other past round deadlines or challenge windows.
  std::vector<size_t> flagged;
  for (size_t i = 0; i < num_claims; ++i) {
    if (phase1[i].supervised && phase1[i].flagged) {
      flagged.push_back(i);
    } else {
      outcomes[i] = ResolveClaim(claims[i], phase1[i]);
    }
  }
  if (!flagged.empty()) {
    DisputeOptions frozen_clock = options_.dispute;
    frozen_clock.advance_clock_per_round = false;
    ThreadPool* pool =
        options_.dispute.num_threads > 1 ? &ThreadPool::Shared() : nullptr;
    const ParallelFor fan_out(pool, options_.dispute.num_threads);
    fan_out(static_cast<int64_t>(flagged.size()), [&](int64_t begin, int64_t end) {
      for (int64_t j = begin; j < end; ++j) {
        const size_t i = flagged[static_cast<size_t>(j)];
        outcomes[i] = ResolveClaimWithOptions(claims[i], phase1[i], frozen_clock);
      }
    });
  }
  return outcomes;
}

}  // namespace tao
