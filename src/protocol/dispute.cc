#include "src/protocol/dispute.h"

#include <map>
#include <utility>

#include "src/observability/trace.h"
#include "src/runtime/parallel_for.h"
#include "src/runtime/thread_pool.h"
#include "src/util/check.h"
#include "src/util/stopwatch.h"

namespace tao {
namespace {

// What the proposer publishes for one partition child: indices, interface hashes and
// tensors (tensors travel off-chain; hashes are committed on-chain), plus Merkle
// inclusion proofs for every referenced weight leaf and operator signature.
struct ChildRecord {
  Slice slice;
  Frontier frontier;
  std::vector<Tensor> live_in_values;
  std::vector<Tensor> live_out_values;
  Digest h_in{};
  Digest h_out{};
  std::vector<MerkleProof> weight_proofs;
  std::vector<MerkleProof> signature_proofs;
  std::vector<NodeId> weight_proof_nodes;
  std::vector<NodeId> signature_proof_nodes;
};

}  // namespace

DisputeGame::DisputeGame(const Model& model, const ModelCommitment& commitment,
                         const ThresholdSet& thresholds, Coordinator& coordinator,
                         DisputeOptions options)
    : model_(model),
      commitment_(commitment),
      thresholds_(thresholds),
      coordinator_(coordinator),
      options_(std::move(options)) {}

DisputeResult DisputeGame::Run(const std::vector<Tensor>& inputs,
                               const DeviceProfile& proposer_device,
                               const DeviceProfile& challenger_device,
                               const std::vector<Executor::Perturbation>& perturbations,
                               uint64_t shard) {
  const Graph& graph = *model_.graph;

  ExecutorOptions exec_options;
  exec_options.num_threads = options_.num_threads;
  ThreadPool* pool = options_.num_threads > 1 ? &ThreadPool::Shared() : nullptr;

  // ---- Phase 1: proposer executes and commits; challenger re-executes ---------------
  // The two executions are independent (different devices, same inputs), so with a
  // parallel runtime they run concurrently; traces are bitwise identical to the
  // sequential schedule, so the commitment and every downstream verdict are unchanged.
  const Executor proposer_exec(graph, proposer_device);
  const Executor challenger_exec(graph, challenger_device);
  ExecutionTrace proposer_trace;
  ExecutionTrace challenger_trace;
  ParallelInvoke(
      pool,
      [&] { proposer_trace = proposer_exec.RunPerturbed(inputs, perturbations, exec_options); },
      [&] { challenger_trace = challenger_exec.Run(inputs, exec_options); });
  const NodeId output = graph.output();
  ResultMeta meta;
  meta.device = proposer_device.name;
  meta.challenge_window = options_.challenge_window;
  const Digest c0 =
      ComputeResultCommitment(commitment_, inputs, proposer_trace.value(output), meta);

  DisputeResult result;
  if (thresholds_.Exceeds(output, proposer_trace.value(output),
                          challenger_trace.value(output))) {
    result = PlanDispute(model_, commitment_, thresholds_, options_, inputs,
                         challenger_device, proposer_trace);
  }
  ApplyDispute(coordinator_, c0, options_, shard, result);
  return result;
}

DisputeResult PlanDispute(const Model& model, const ModelCommitment& commitment,
                          const ThresholdSet& thresholds, const DisputeOptions& options,
                          const std::vector<Tensor>& inputs,
                          const DeviceProfile& challenger_device,
                          const ExecutionTrace& proposer_trace) {
  const Graph& graph = *model.graph;
  DisputeResult result;

  // ---- Phase 2: dispute localization -------------------------------------------------
  result.challenge_raised = true;

  // Values both parties agree on; seeded with the request inputs, extended each round
  // with the live-outs of accepted (earlier) children and the live-ins of the selected
  // child.
  std::map<NodeId, Tensor> agreed;
  for (size_t i = 0; i < inputs.size(); ++i) {
    agreed.emplace(graph.input_nodes()[i], inputs[i]);
  }

  Slice slice{0, graph.num_ops()};
  bool no_offender_found = false;
  // Tracing: one span per dispute round (detail = round index), tagged with the
  // claim context the caller published (absent for standalone drivers). The claim
  // id is not known yet; the chain takes it from the claim's resolve span.
  const auto record_round_span = [&](int64_t round_index, int64_t begin_ns) {
    if (!Tracer::enabled()) {
      return;
    }
    SpanRecord span;
    if (const TraceContext* context = ScopedTraceContext::Current()) {
      span.model = context->model;
      span.sequence = context->sequence;
      span.shard = context->shard;
    }
    span.kind = SpanKind::kDisputeRound;
    span.detail = round_index;
    span.begin_ns = begin_ns;
    span.end_ns = Tracer::NowNs();
    Tracer::Record(span);
  };
  // DCR optimization (what makes the Table 3 cost ratio land in ~[0.4, 1.25] rather
  // than ~[1, 2]): when the challenger re-executes a slice from an agreed boundary,
  // it keeps those values. At the next round, the FIRST child of the selected slice
  // is a prefix of it with an unchanged boundary, so its comparison is free; only
  // children past the first accepted one (whose boundaries switch to the proposer's
  // posted live-outs) need fresh re-execution.
  std::map<NodeId, Tensor> challenger_cache;
  while (slice.size() > 1) {
    RoundStats round;
    round.round = result.rounds;
    round.slice_size = slice.size();
    const int64_t round_begin_ns = Tracer::enabled() ? Tracer::NowNs() : 0;

    // -- Proposer: canonical partition + commitments + proofs ------------------------
    Stopwatch partition_watch;
    const std::vector<Slice> children = PartitionSlice(slice, options.partition_n);
    std::vector<ChildRecord> records;
    records.reserve(children.size());
    for (const Slice& child : children) {
      ChildRecord record;
      record.slice = child;
      record.frontier = ComputeFrontier(graph, child);
      for (const NodeId in : record.frontier.live_in) {
        record.live_in_values.push_back(proposer_trace.value(in));
      }
      for (const NodeId out : record.frontier.live_out) {
        record.live_out_values.push_back(proposer_trace.value(out));
      }
      record.h_in = ComputeInterfaceHash(record.live_in_values);
      record.h_out = ComputeInterfaceHash(record.live_out_values);
      for (const NodeId param : record.frontier.params) {
        record.weight_proofs.push_back(commitment.ProveWeight(param));
        record.weight_proof_nodes.push_back(param);
      }
      const std::vector<NodeId>& ops = graph.op_nodes();
      for (int64_t i = child.begin; i < child.end; ++i) {
        record.signature_proofs.push_back(
            commitment.ProveSignature(ops[static_cast<size_t>(i)]));
        record.signature_proof_nodes.push_back(ops[static_cast<size_t>(i)]);
      }
      round.child_hashes.push_back(HashPair(record.h_in, record.h_out));
      records.push_back(std::move(record));
    }
    round.proposer_partition_ms = partition_watch.ElapsedMillis();
    round.children = static_cast<int64_t>(records.size());

    // -- Challenger: verify proofs, re-execute children in order, select offender ----
    // Every posted proof is checked, so the metered count is the (deterministic)
    // proof total, independent of where selection stops. Each path is checked from
    // the commitment's stored leaf: the graph was bound to it when it was built or at
    // ModelRegistry::Commit, so no round re-hashes a weight or a signature.
    Stopwatch selection_watch;
    for (const ChildRecord& record : records) {
      for (size_t i = 0; i < record.weight_proofs.size(); ++i) {
        TAO_CHECK(commitment.VerifyWeight(graph, record.weight_proof_nodes[i],
                                          record.weight_proofs[i]))
            << "weight proof failed";
      }
      for (size_t i = 0; i < record.signature_proofs.size(); ++i) {
        TAO_CHECK(commitment.VerifySignature(graph, record.signature_proof_nodes[i],
                                             record.signature_proofs[i]))
            << "signature proof failed";
      }
      round.merkle_proofs += static_cast<int64_t>(record.weight_proofs.size() +
                                                  record.signature_proofs.size());
    }
    result.total_merkle_checks += round.merkle_proofs;
    round.proof_check_ms = selection_watch.ElapsedMillis();

    int64_t selected = -1;
    for (size_t j = 0; j < records.size(); ++j) {
      const ChildRecord& record = records[j];
      std::map<NodeId, Tensor> reexec;
      if (j == 0 && result.rounds > 0) {
        // Served from the cache of the round that selected this slice.
        const std::vector<NodeId>& ops = graph.op_nodes();
        for (int64_t i = record.slice.begin; i < record.slice.end; ++i) {
          const NodeId id = ops[static_cast<size_t>(i)];
          reexec.emplace(id, challenger_cache.at(id));
        }
      } else {
        // Boundary: agreed values extended by earlier children's accepted live-outs.
        std::map<NodeId, Tensor> boundary;
        for (size_t i = 0; i < record.frontier.live_in.size(); ++i) {
          const NodeId in = record.frontier.live_in[i];
          const auto it = agreed.find(in);
          if (it != agreed.end()) {
            boundary.emplace(in, it->second);
          } else {
            // Live-in produced inside this dispute's already-accepted region but not
            // yet copied into `agreed`: take the proposer's posted value (implicit
            // agreement, Sec. 2.2).
            boundary.emplace(in, record.live_in_values[i]);
          }
        }
        reexec = ExecuteSlice(graph, challenger_device, record.slice, boundary,
                              options.num_threads);
        round.children_reexecuted += 1;
        round.reexec_flops += SliceFlops(graph, record.slice);
      }

      bool offending = false;
      for (size_t o = 0; o < record.frontier.live_out.size(); ++o) {
        const NodeId out = record.frontier.live_out[o];
        if (thresholds.Exceeds(out, record.live_out_values[o], reexec.at(out))) {
          offending = true;
          break;
        }
      }
      if (offending) {
        selected = static_cast<int64_t>(j);
        challenger_cache = std::move(reexec);
        // Inputs to the selected child become agreed (implicitly, by selecting it).
        for (size_t i = 0; i < record.frontier.live_in.size(); ++i) {
          agreed.emplace(record.frontier.live_in[i], record.live_in_values[i]);
        }
        break;
      }
      // Child accepted: its live-outs (the proposer's values) become agreed.
      for (size_t o = 0; o < record.frontier.live_out.size(); ++o) {
        agreed.emplace(record.frontier.live_out[o], record.live_out_values[o]);
      }
    }
    round.challenger_selection_ms = selection_watch.ElapsedMillis();
    result.challenger_flops += round.reexec_flops;

    if (selected < 0) {
      // No child exceeded its thresholds: the challenge does not hold up.
      no_offender_found = true;
      record_round_span(round.round, round_begin_ns);
      result.round_stats.push_back(round);
      break;
    }
    round.selected_child = selected;
    slice = children[static_cast<size_t>(selected)];
    result.rounds += 1;
    record_round_span(round.round, round_begin_ns);
    result.round_stats.push_back(round);
  }
  if (no_offender_found) {
    result.cost_ratio = static_cast<double>(result.challenger_flops) /
                        static_cast<double>(graph.TotalFlops());
    return result;
  }

  // ---- Phase 3: single-operator adjudication -----------------------------------------
  const NodeId leaf = graph.op_nodes()[static_cast<size_t>(slice.begin)];
  result.leaf_op = leaf;
  const Node& leaf_node = graph.node(leaf);
  std::vector<Tensor> leaf_inputs;
  leaf_inputs.reserve(leaf_node.inputs.size());
  for (const NodeId in : leaf_node.inputs) {
    const Node& producer = graph.node(in);
    if (producer.kind == NodeKind::kParam) {
      leaf_inputs.push_back(producer.value);
      continue;
    }
    const auto it = agreed.find(in);
    TAO_CHECK(it != agreed.end()) << "leaf input " << producer.label << " not agreed";
    leaf_inputs.push_back(it->second);
  }
  result.leaf =
      AdjudicateLeaf(graph, leaf, leaf_inputs, proposer_trace.value(leaf), thresholds,
                     options.adjudication);
  result.challenger_flops += graph.NodeFlops(leaf);
  result.proposer_guilty = result.leaf.proposer_guilty;
  result.cost_ratio = static_cast<double>(result.challenger_flops) /
                      static_cast<double>(graph.TotalFlops());
  return result;
}

void ApplyDispute(Coordinator& coordinator, const Digest& c0,
                  const DisputeOptions& options, uint64_t shard, DisputeResult& result) {
  const ClaimId claim = coordinator.SubmitCommitment(c0, options.challenge_window,
                                                     options.proposer_bond, shard);
  result.claim_id = claim;
  if (!result.challenge_raised) {
    // Happy path: the result finalizes after the window. Per-claim advance: only this
    // claim's shard clock moves, so flows on other shards are untouched.
    coordinator.AdvanceTimeFor(claim, options.challenge_window);
    TAO_CHECK(coordinator.TryFinalize(claim) == ClaimState::kFinalized);
  } else {
    coordinator.OpenChallenge(claim, options.challenger_bond);
    for (const RoundStats& round : result.round_stats) {
      coordinator.RecordPartition(claim, round.children, round.child_hashes);
      coordinator.RecordMerkleCheck(claim, round.merkle_proofs);
      if (round.selected_child >= 0) {
        coordinator.RecordSelection(claim, round.selected_child);
        coordinator.AdvanceTimeFor(claim, 1);
      }
    }
    coordinator.RecordLeafAdjudication(claim, result.proposer_guilty,
                                       options.challenger_share);
  }
  const ClaimRecord record = coordinator.claim(claim);
  result.final_state = record.state;
  result.gas_used = record.gas;
}

}  // namespace tao
