// ServingGateway: the routing front door of the multi-model marketplace.
//
// The gateway accepts submissions tagged with a ModelId, validates them against the
// ModelRegistry's lifecycle state machine — unknown, not-yet-committed, not-serving,
// draining, and retired models are shed with DISTINCT reject codes so open-loop
// clients can tell a typo from a deploy in progress — and routes accepted claims to
// that model's own VerificationService. Per-model isolation and shared compute:
//
//   * each served model gets its own VerificationService over its own Coordinator
//     shard group, queue, BatchFormer, resolve lanes, and MetricsRegistry, so one
//     model's dispute storm never perturbs another model's verdicts, gas, ledger,
//     or claim ids (the per-model determinism argument of docs/registry.md);
//   * all services SHARE the one process-wide runtime ThreadPool (heavy kernels run
//     through ThreadPool::Shared(); an idle model's worker/lane threads just block
//     on their queue, costing ~zero CPU and no pool capacity);
//   * one GLOBAL arena memory budget is apportioned across models by queue
//     pressure: every `rebalance_interval` accepted submissions the gateway
//     re-splits `total_memory_budget_bytes` across serving models proportional to
//     1 + queue_depth (floored at `min_model_budget_bytes`), so a hot model's
//     BatchFormer can form wide cohorts while an idle model's budget collapses to
//     the floor. Budgets only shape batch sizing — outcomes are
//     batch-composition-independent — so rebalancing is determinism-free.
//
// With a registry containing exactly one model, the gateway adds only a routing
// table lookup in front of the PR-4 VerificationService path: verdicts, gas,
// digests, claim ids, and the ledger are bitwise identical to it.

#ifndef TAO_SRC_REGISTRY_SERVING_GATEWAY_H_
#define TAO_SRC_REGISTRY_SERVING_GATEWAY_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/rpc_server.h"
#include "src/observability/http_endpoint.h"
#include "src/registry/model_registry.h"
#include "src/service/verification_service.h"

namespace tao {

// Outcome of one gateway admission attempt. Everything except kAccepted is a shed
// with no ticket; the codes mirror the registry lifecycle so clients can react
// (retry later vs. fix the id vs. give up).
enum class GatewayStatus {
  kAccepted,
  kUnknownModel,   // id was never registered
  kNotCommitted,   // registered, but no commitment/thresholds posted yet
  kNotServing,     // committed, but no serving capacity attached yet
  kDraining,       // the model is draining; admission closed
  kRetired,        // the model is retired; admission closed forever
  kOverloaded,     // the model's service shed it (queue full or latency SLO)
  // Cardinality sentinel, never a value. The wire mapping in src/net/frame.cc
  // static_asserts against it so a new status cannot ship without a WireStatus.
  kStatusCount,
};

const char* GatewayStatusName(GatewayStatus status);

struct GatewaySubmitResult {
  GatewayStatus status = GatewayStatus::kUnknownModel;
  // Non-null iff status == kAccepted.
  std::shared_ptr<ClaimTicket> ticket;

  bool accepted() const { return status == GatewayStatus::kAccepted; }
};

struct GatewayOptions {
  // Global arena budget split across serving models: every model gets the floor
  // below, and the remainder is apportioned by queue pressure, so the per-model
  // BatchFormer ceilings sum to max(total, serving_models * floor) up to rounding.
  int64_t total_memory_budget_bytes = 512ll << 20;
  // Floor below which no serving model's share may fall — a cold model must still
  // be able to form a minimal cohort the moment traffic arrives.
  int64_t min_model_budget_bytes = 16ll << 20;
  // Re-apportion every this many accepted submissions (0 = only on serve/drain
  // transitions). The cadence is a freshness/overhead knob only; budgets never
  // affect outcomes.
  int64_t rebalance_interval = 64;
  // HTTP monitoring endpoint (off by default). When enabled, the gateway serves
  // /metrics, /snapshot, /traces, and /healthz over its own NamedCounters plus the
  // process ResourceTracker, and turns span tracing on for its lifetime.
  MonitoringOptions monitoring;
  // Framed TCP/RPC front-end (off by default; docs/net.md). When enabled, remote
  // submitters reach Submit over the wire, verdicts push back on their
  // connections, and `net/...` counters join the gateway's NamedCounters. When
  // monitoring is ALSO enabled, both servers share one epoll dispatcher thread.
  RpcServerOptions rpc;
};

// Per-model slice of a gateway metrics snapshot.
struct GatewayModelMetrics {
  ModelId id = 0;
  std::string name;                 // Model::name, for operator display
  ModelLifecycle state = ModelLifecycle::kRegistered;
  int64_t memory_budget_bytes = 0;  // current apportioned share (0 = never served)
  MetricsSnapshot service;          // zeroed when the model never served
};

struct GatewaySnapshot {
  std::vector<GatewayModelMetrics> models;
  // Cross-model fold of the per-model service snapshots (AggregateSnapshots).
  MetricsSnapshot aggregate;
  // Gateway-level shed counters (submissions that never reached a service).
  int64_t rejected_unknown = 0;
  int64_t rejected_not_committed = 0;
  int64_t rejected_not_serving = 0;
  int64_t rejected_draining = 0;
  int64_t rejected_retired = 0;

  // Flattened namespaced counters: "model/<id>/..." per model, "aggregate/..." for
  // the fold, "gateway/rejected/..." for the shed counters. Names are collision-free
  // across models by construction (the id is part of the scope).
  std::vector<NamedCounter> NamedCounters() const;
};

class ServingGateway {
 public:
  // `registry` outlives the gateway. Committed entries are not served until
  // Serve() attaches capacity.
  explicit ServingGateway(ModelRegistry& registry, GatewayOptions options = {});
  // Drains and tears down every still-serving model.
  ~ServingGateway();

  ServingGateway(const ServingGateway&) = delete;
  ServingGateway& operator=(const ServingGateway&) = delete;

  // kCommitted -> kServing: attaches a VerificationService over the entry's
  // model/commitment/thresholds/coordinator. `options.batching.memory_budget_bytes`
  // is overridden by the gateway's apportionment.
  void Serve(ModelId id, ServiceOptions options = {});

  // Validates `id` against the lifecycle, then forwards to the model's service.
  // Blocking admission (kBlock) blocks here, exactly as on the single-model path.
  GatewaySubmitResult Submit(ModelId id, BatchClaim claim, uint64_t submitter = 0);

  // kServing -> kDraining: closes the model's admission and blocks until every
  // accepted claim has its verdict delivered. Idempotent.
  void Drain(ModelId id);
  // kDraining -> kRetired: tears the service down (its final metrics snapshot is
  // preserved). The model's coordinator — ledger, claims, gas — stays readable
  // through the registry.
  void Retire(ModelId id);
  // Drains every serving model (retire is still explicit, per model).
  void DrainAll();

  // Live per-model metrics (the model must have been served at some point).
  MetricsSnapshot model_metrics(ModelId id) const;
  // Full per-model + aggregate snapshot; callable any time from any thread.
  GatewaySnapshot metrics() const;

  // Number of models currently in kServing.
  size_t serving_count() const;
  // Current apportioned budget of one serving model (testing/ops visibility).
  int64_t model_memory_budget(ModelId id) const;

  // Pure apportionment rule (exposed for tests): every share gets `floor`, and
  // the remainder above N*floor is split proportionally by weight. Weights must
  // be positive.
  static std::vector<int64_t> ApportionBudget(int64_t total, int64_t floor,
                                              const std::vector<int64_t>& weights);

  // The embedded monitoring endpoint; null unless GatewayOptions::monitoring
  // enabled it. Lives exactly as long as the gateway.
  MonitoringServer* monitoring() { return monitoring_.get(); }

  // The RPC front-end; null unless GatewayOptions::rpc enabled it.
  RpcServer* rpc() { return rpc_.get(); }

 private:
  struct ServingSlot {
    std::shared_ptr<VerificationService> service;  // null once retired
    int64_t memory_budget_bytes = 0;
    MetricsSnapshot final_metrics;  // captured at Retire
    bool ever_served = false;
  };

  // Re-splits the global budget across serving models by live queue pressure.
  void ApportionBudgetsLocked();
  std::shared_ptr<VerificationService> service_for(ModelId id) const;

  ModelRegistry& registry_;
  const GatewayOptions options_;
  // One loop thread for all of the gateway's network traffic (RPC + monitoring);
  // created when either server is enabled. Declared before the servers so it is
  // destroyed after them.
  std::shared_ptr<Dispatcher> net_dispatcher_;
  std::unique_ptr<RpcServer> rpc_;                // null when disabled
  std::unique_ptr<MonitoringServer> monitoring_;  // null when disabled
  size_t pool_gauge_handle_ = 0;

  // Guards slots_ (the routing table). Submit share-locks only long enough to copy
  // the service pointer; blocking admission happens outside the lock, so a stalled
  // submitter never wedges Serve/Drain/Retire on other models.
  mutable std::shared_mutex mu_;
  std::unordered_map<ModelId, ServingSlot> slots_;

  std::atomic<int64_t> accepted_since_rebalance_{0};
  std::atomic<int64_t> rejected_unknown_{0};
  std::atomic<int64_t> rejected_not_committed_{0};
  std::atomic<int64_t> rejected_not_serving_{0};
  std::atomic<int64_t> rejected_draining_{0};
  std::atomic<int64_t> rejected_retired_{0};
};

}  // namespace tao

#endif  // TAO_SRC_REGISTRY_SERVING_GATEWAY_H_
