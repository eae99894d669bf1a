#include "src/protocol/adjudication.h"

#include <cmath>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace tao {

LeafVerdict AdjudicateLeaf(const Graph& graph, NodeId op_node,
                           const std::vector<Tensor>& agreed_inputs,
                           const Tensor& proposer_output, const ThresholdSet& thresholds,
                           const AdjudicationOptions& options) {
  const Node& node = graph.node(op_node);
  TAO_CHECK(node.kind == NodeKind::kOp);
  const OpKernel& kernel = OpRegistry::Instance().Get(node.op);

  // Canonical reference execution under the deterministic reference profile.
  const DeviceProfile& reference = DeviceRegistry::Reference();
  const OpContext fwd{reference, agreed_inputs, node.attrs};
  const Tensor y_ref = kernel.Forward(fwd);
  TAO_CHECK(y_ref.shape() == proposer_output.shape());

  const BoundContext bctx{reference,  agreed_inputs,     y_ref,
                          node.attrs, options.bound_mode, options.lambda};
  const DTensor tau = kernel.Bound(bctx);

  LeafVerdict verdict;
  const auto yp = proposer_output.values();
  const auto yr = y_ref.values();
  const auto tv = tau.values();
  bool exceeds_theoretical = false;
  for (size_t i = 0; i < yp.size(); ++i) {
    const double diff = AbsError(yp[i], yr[i]);
    if (tv[i] > 0.0 && std::isfinite(diff)) {
      verdict.max_theo_ratio = std::max(verdict.max_theo_ratio, diff / tv[i]);
      if (diff > tv[i]) {
        exceeds_theoretical = true;
      }
    } else if (diff > 0.0) {
      // Zero theoretical bound (exact operator) admits no deviation at all, and no
      // bound admits a NaN or infinite one (AbsError reads it as +inf).
      verdict.max_theo_ratio = std::numeric_limits<double>::infinity();
      exceeds_theoretical = true;
    }
  }

  if (exceeds_theoretical) {
    // Path (i): the proposer cannot produce a valid bound-satisfaction proof.
    verdict.path = LeafPath::kTheoreticalBound;
    verdict.proposer_guilty = true;
    return verdict;
  }

  // Path (ii): committee vote against the empirical thresholds. Each member
  // re-executes (v*, a) on an independently sampled fleet device and votes on whether
  // the proposer's output stays within the committed percentile thresholds.
  verdict.path = LeafPath::kCommitteeVote;
  verdict.committee_size = options.committee_size;
  Rng rng(options.committee_seed);
  const auto& fleet = DeviceRegistry::Fleet();
  for (int member = 0; member < options.committee_size; ++member) {
    const DeviceProfile& device = fleet[rng.NextBounded(fleet.size())];
    const OpContext member_ctx{device, agreed_inputs, node.attrs};
    const Tensor y_member = kernel.Forward(member_ctx);
    if (thresholds.Exceeds(op_node, proposer_output, y_member)) {
      ++verdict.guilty_votes;
    }
  }
  verdict.proposer_guilty = 2 * verdict.guilty_votes > options.committee_size;
  return verdict;
}

}  // namespace tao
