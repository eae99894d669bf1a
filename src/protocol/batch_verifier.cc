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

  // ---- Threshold checks ------------------------------------------------------------
  // Tracing: the service worker published the cohort's contexts (indexed by claim
  // position) around this call; null when driven standalone. A claim's
  // threshold-check span runs from its check to the end of its dispute plan.
  const bool tracing = Tracer::enabled();
  const auto record_check_span = [](const TraceContext* context, bool flagged,
                                    int64_t begin_ns) {
    if (context == nullptr) {
      return;
    }
    SpanRecord span;
    span.model = context->model;
    span.sequence = context->sequence;
    span.shard = context->shard;
    span.worker = context->worker;
    span.kind = SpanKind::kThresholdCheck;
    span.detail = flagged ? 1 : 0;
    span.begin_ns = begin_ns;
    span.end_ns = Tracer::NowNs();
    Tracer::Record(span);
  };
  // A flagged claim and what its planning task needs from this thread.
  struct Flagged {
    size_t claim;
    const TraceContext* context;
    int64_t check_begin_ns;
  };
  std::vector<Flagged> flagged;
  for (size_t i = 0; i < num_claims; ++i) {
    if (!claims[i].supervised()) {
      continue;
    }
    const int64_t check_begin_ns = tracing ? Tracer::NowNs() : 0;
    const TraceContext* context = ScopedTraceContext::At(i);
    phase1[i].supervised = true;
    if (thresholds_.Exceeds(output, traces[proposer_lane[i]].value(output),
                            traces[challenger_lane[i]].value(output))) {
      flagged.push_back({i, context, check_begin_ns});
    } else if (tracing) {
      record_check_span(context, false, check_begin_ns);
    }
  }

  // ---- Dispute plans: one pool task per flagged claim ------------------------------
  // A dispute posts partition interface values from interior nodes, so each flagged
  // claim — and only it — re-executes its proposer with a full trace (bitwise
  // identical to the output-only lane: same inputs, perturbations, device) and plans
  // its game from it. Each task re-publishes its claim's context on the thread it
  // runs on, so the plan's round spans join the claim's chain.
  const int num_threads = options_.dispute.num_threads;
  const ParallelFor plan_parallel(num_threads > 1 ? &ThreadPool::Shared() : nullptr,
                                  num_threads);
  plan_parallel(static_cast<int64_t>(flagged.size()), [&](int64_t begin, int64_t end) {
    for (int64_t j = begin; j < end; ++j) {
      const Flagged& f = flagged[static_cast<size_t>(j)];
      const BatchClaim& claim = claims[f.claim];
      const ScopedTraceContext scope(f.context, f.context != nullptr ? 1 : 0);
      ExecutorOptions reexec_options;
      reexec_options.num_threads = num_threads;
      const Executor proposer_exec(graph, *claim.proposer_device);
      const ExecutionTrace proposer_trace =
          proposer_exec.RunPerturbed(claim.inputs, claim.perturbations, reexec_options);
      phase1[f.claim].dispute =
          PlanDispute(model_, commitment_, thresholds_, options_.dispute, claim.inputs,
                      *claim.verifier_device, proposer_trace);
      if (tracing) {
        record_check_span(f.context, true, f.check_begin_ns);
      }
    }
  });
  return phase1;
}

BatchClaimOutcome BatchVerifier::ResolveClaim(ClaimPhase1 phase1, uint64_t shard) {
  BatchClaimOutcome outcome;
  outcome.model = coordinator_.model_id();
  outcome.c0 = phase1.c0;
  outcome.supervised = phase1.supervised;
  outcome.dispute = std::move(phase1.dispute);
  ApplyDispute(coordinator_, phase1.c0, options_.dispute, shard, outcome.dispute);
  outcome.claim_id = outcome.dispute.claim_id;
  outcome.flagged = outcome.dispute.challenge_raised;
  outcome.proposer_guilty = outcome.dispute.proposer_guilty;
  outcome.final_state = outcome.dispute.final_state;
  outcome.gas_used = outcome.dispute.gas_used;
  return outcome;
}

std::vector<BatchClaimOutcome> BatchVerifier::VerifyBatch(
    const std::vector<BatchClaim>& claims, TensorArena::Stats* arena_stats) {
  // Claim-ordered resolution: the exact per-claim action sequence of the historical
  // one-claim-at-a-time path, so gas, ledger, claim ids, and stats are bitwise
  // identical to it.
  std::vector<ClaimPhase1> phase1 = ExecutePhase1(claims, arena_stats);
  std::vector<BatchClaimOutcome> outcomes;
  outcomes.reserve(phase1.size());
  for (ClaimPhase1& executed : phase1) {
    outcomes.push_back(ResolveClaim(std::move(executed)));
  }
  return outcomes;
}

}  // namespace tao
