// Verifiable subgraph extraction (Sec. 5.2): contiguous slices of the canonical
// topological operator order, their live-in/live-out frontiers (Eq. 13-14), canonical
// N-way partitioning for the dispute game, and slice re-execution from committed
// boundary tensors.

#ifndef TAO_SRC_GRAPH_SUBGRAPH_H_
#define TAO_SRC_GRAPH_SUBGRAPH_H_

#include <map>
#include <vector>

#include "src/device/device.h"
#include "src/graph/graph.h"

namespace tao {

// Half-open index range [begin, end) into Graph::op_nodes() — a contiguous slice of
// operators in the canonical topological order.
struct Slice {
  int64_t begin = 0;
  int64_t end = 0;

  int64_t size() const { return end - begin; }
  bool operator==(const Slice& other) const {
    return begin == other.begin && end == other.end;
  }
};

struct Frontier {
  // In(S): external producers feeding S — graph inputs or operators before the slice.
  std::vector<NodeId> live_in;
  // Parameter nodes referenced by S (committed separately under r_w; carried by
  // Merkle inclusion proof rather than by value).
  std::vector<NodeId> params;
  // Out(S): operators inside S whose values are consumed outside S (or the output).
  std::vector<NodeId> live_out;
};

// Computes In(S)/Out(S) by a linear scan, exactly as the paper's runtime does.
Frontier ComputeFrontier(const Graph& graph, const Slice& slice);

// Canonical deterministic partition of a slice into at most `n` contiguous children of
// near-equal operator count (larger remainders go to the earlier children). Both
// proposer and challenger derive the identical partition from (slice, n).
std::vector<Slice> PartitionSlice(const Slice& slice, int64_t n);

// Re-executes the operators of `slice` on `device`, reading live-in values from
// `boundary` (params come from the graph). Returns values for every op in the slice.
// `num_threads > 1` splits the outer loops of operators of at least kMinForkFlops
// across the shared runtime pool; the slice's operators still run in canonical order,
// and values are bitwise identical for any thread count.
std::map<NodeId, Tensor> ExecuteSlice(const Graph& graph, const DeviceProfile& device,
                                      const Slice& slice,
                                      const std::map<NodeId, Tensor>& boundary,
                                      int num_threads = 1);

// Total forward FLOPs of the slice's operators.
int64_t SliceFlops(const Graph& graph, const Slice& slice);

}  // namespace tao

#endif  // TAO_SRC_GRAPH_SUBGRAPH_H_
