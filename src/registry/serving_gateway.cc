#include "src/registry/serving_gateway.h"

#include <algorithm>
#include <utility>

#include "src/observability/resource_tracker.h"
#include "src/runtime/thread_pool.h"
#include "src/util/check.h"

namespace tao {

const char* GatewayStatusName(GatewayStatus status) {
  switch (status) {
    case GatewayStatus::kAccepted:
      return "accepted";
    case GatewayStatus::kUnknownModel:
      return "unknown_model";
    case GatewayStatus::kNotCommitted:
      return "not_committed";
    case GatewayStatus::kNotServing:
      return "not_serving";
    case GatewayStatus::kDraining:
      return "draining";
    case GatewayStatus::kRetired:
      return "retired";
    case GatewayStatus::kOverloaded:
      return "overloaded";
    case GatewayStatus::kStatusCount:
      break;  // sentinel, never a value
  }
  return "unknown";
}

std::vector<NamedCounter> GatewaySnapshot::NamedCounters() const {
  std::vector<NamedCounter> counters;
  for (const GatewayModelMetrics& model : models) {
    std::vector<NamedCounter> scoped =
        ::tao::NamedCounters(model.service, "model/" + std::to_string(model.id));
    counters.insert(counters.end(), scoped.begin(), scoped.end());
    counters.push_back({"model/" + std::to_string(model.id) + "/memory_budget_bytes",
                        static_cast<double>(model.memory_budget_bytes)});
  }
  std::vector<NamedCounter> agg = ::tao::NamedCounters(aggregate, "aggregate");
  counters.insert(counters.end(), agg.begin(), agg.end());
  counters.push_back({"gateway/rejected/unknown_model", static_cast<double>(rejected_unknown)});
  counters.push_back(
      {"gateway/rejected/not_committed", static_cast<double>(rejected_not_committed)});
  counters.push_back(
      {"gateway/rejected/not_serving", static_cast<double>(rejected_not_serving)});
  counters.push_back({"gateway/rejected/draining", static_cast<double>(rejected_draining)});
  counters.push_back({"gateway/rejected/retired", static_cast<double>(rejected_retired)});
  return counters;
}

ServingGateway::ServingGateway(ModelRegistry& registry, GatewayOptions options)
    : registry_(registry), options_(options) {
  TAO_CHECK(options_.total_memory_budget_bytes > 0);
  TAO_CHECK(options_.min_model_budget_bytes > 0);
  if (options_.rpc.enabled || options_.monitoring.enabled) {
    DispatcherOptions dispatcher_options;
    dispatcher_options.thread_role = options_.rpc.enabled ? "net_poll" : "monitoring";
    dispatcher_options.max_outbound_bytes = options_.rpc.max_outbound_bytes;
    net_dispatcher_ = std::make_shared<Dispatcher>(dispatcher_options);
  }
  if (options_.rpc.enabled) {
    rpc_ = std::make_unique<RpcServer>(*this, registry_, options_.rpc, net_dispatcher_);
  }
  if (options_.monitoring.enabled) {
    pool_gauge_handle_ = ResourceTracker::Get().RegisterGauge(
        "resource/pool_queue_depth",
        [] { return static_cast<double>(ThreadPool::Shared().queue_depth()); });
    monitoring_ = std::make_unique<MonitoringServer>(
        options_.monitoring,
        [this] {
          std::vector<NamedCounter> counters = metrics().NamedCounters();
          if (rpc_ != nullptr) {
            std::vector<NamedCounter> net = rpc_->Counters();
            counters.insert(counters.end(), net.begin(), net.end());
          }
          return counters;
        },
        net_dispatcher_);
  }
}

ServingGateway::~ServingGateway() {
  // Endpoint first: its handler thread calls back into metrics() (and rpc_'s
  // counters), so it must be gone before any teardown below. The RPC front-end
  // next: its pump calls Submit on this gateway, so it must stop while every
  // service is still alive.
  monitoring_.reset();
  rpc_.reset();
  if (pool_gauge_handle_ != 0) {
    ResourceTracker::Get().UnregisterGauge(pool_gauge_handle_);
  }
  DrainAll();
  // Retire every still-attached model (drained above, so teardown is prompt).
  // Going through Retire — not just resetting the slots — also moves the registry
  // to kRetired: the registry outlives the gateway, and a model stranded in
  // kDraining could never be re-served by a later gateway generation.
  std::vector<ModelId> attached;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto& [id, slot] : slots_) {
      if (slot.service != nullptr) {
        attached.push_back(id);
      }
    }
  }
  std::sort(attached.begin(), attached.end());
  for (const ModelId id : attached) {
    Retire(id);
  }
}

void ServingGateway::Serve(ModelId id, ServiceOptions options) {
  // Cheap pre-check so an obviously illegal Serve fails before the (expensive)
  // service construction; MarkServing below is the authoritative gate.
  const ModelLifecycle state = registry_.state(id);
  TAO_CHECK(state == ModelLifecycle::kCommitted || state == ModelLifecycle::kRetired)
      << "model " << id << " cannot serve from state " << ModelLifecycleName(state);
  auto service = std::make_shared<VerificationService>(
      registry_.model(id), registry_.commitment(id), registry_.thresholds(id),
      registry_.coordinator(id), std::move(options));
  // Slot first, THEN the state flip — both inside the routing lock. A concurrent
  // Submit that observes kServing is therefore guaranteed to find the service in
  // the table (it could otherwise race into a spurious "retired" reject while the
  // model was coming online).
  std::unique_lock<std::shared_mutex> lock(mu_);
  ServingSlot& slot = slots_[id];
  TAO_CHECK(slot.service == nullptr) << "model " << id << " already has a service";
  slot.service = std::move(service);
  slot.ever_served = true;
  registry_.MarkServing(id);
  ApportionBudgetsLocked();
}

GatewaySubmitResult ServingGateway::Submit(ModelId id, BatchClaim claim,
                                           uint64_t submitter) {
  GatewaySubmitResult result;
  if (!registry_.contains(id)) {
    rejected_unknown_.fetch_add(1);
    result.status = GatewayStatus::kUnknownModel;
    return result;
  }
  // Lifecycle gate. The state can move concurrently (a Drain racing this submit);
  // the service's own closed-queue rejection backstops the race below.
  switch (registry_.state(id)) {
    case ModelLifecycle::kRegistered:
      rejected_not_committed_.fetch_add(1);
      result.status = GatewayStatus::kNotCommitted;
      return result;
    case ModelLifecycle::kCommitted:
      rejected_not_serving_.fetch_add(1);
      result.status = GatewayStatus::kNotServing;
      return result;
    case ModelLifecycle::kDraining:
      rejected_draining_.fetch_add(1);
      result.status = GatewayStatus::kDraining;
      return result;
    case ModelLifecycle::kRetired:
      rejected_retired_.fetch_add(1);
      result.status = GatewayStatus::kRetired;
      return result;
    case ModelLifecycle::kServing:
      break;
  }
  const std::shared_ptr<VerificationService> service = service_for(id);
  if (service == nullptr) {
    // Unreachable by construction (Serve publishes the slot before kServing, and
    // Retire only runs from kDraining), but kept defensive: "no capacity right
    // now, retry later" is the least damaging answer if it ever fires.
    rejected_not_serving_.fetch_add(1);
    result.status = GatewayStatus::kNotServing;
    return result;
  }
  // Outside the routing lock: blocking admission may park here without wedging
  // Serve/Drain/Retire calls for other models.
  result.ticket = service->Submit(std::move(claim), submitter);
  if (result.ticket == nullptr) {
    // The service shed it: queue full (kReject), over the latency SLO, or a drain
    // closed the queue after our state read.
    if (registry_.state(id) == ModelLifecycle::kServing) {
      result.status = GatewayStatus::kOverloaded;
    } else {
      rejected_draining_.fetch_add(1);
      result.status = GatewayStatus::kDraining;
    }
    return result;
  }
  result.status = GatewayStatus::kAccepted;
  if (options_.rebalance_interval > 0 &&
      accepted_since_rebalance_.fetch_add(1) + 1 >= options_.rebalance_interval) {
    accepted_since_rebalance_.store(0);
    std::unique_lock<std::shared_mutex> lock(mu_);
    ApportionBudgetsLocked();
  }
  return result;
}

void ServingGateway::Drain(ModelId id) {
  const ModelLifecycle state = registry_.state(id);
  if (state == ModelLifecycle::kDraining || state == ModelLifecycle::kRetired) {
    // Idempotent: a parallel drain already ran (or is running; service->Drain
    // below is itself idempotent and blocking).
    if (state == ModelLifecycle::kRetired) {
      return;
    }
  } else {
    registry_.MarkDraining(id);
  }
  const std::shared_ptr<VerificationService> service = service_for(id);
  if (service != nullptr) {
    service->Drain();  // blocks until every accepted claim delivered its verdict
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  ApportionBudgetsLocked();
}

void ServingGateway::Retire(ModelId id) {
  registry_.MarkRetired(id);  // aborts unless kDraining — drain-before-retire
  std::shared_ptr<VerificationService> service;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    const auto it = slots_.find(id);
    TAO_CHECK(it != slots_.end()) << "retiring model " << id << " that never served";
    it->second.final_metrics = it->second.service->metrics();
    it->second.memory_budget_bytes = 0;
    service = std::move(it->second.service);
    it->second.service = nullptr;
  }
  // Destroy outside the routing lock (joins the service threads). Drain already
  // ran, so this is prompt.
  service.reset();
}

void ServingGateway::DrainAll() {
  std::vector<ModelId> serving;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto& [id, slot] : slots_) {
      if (slot.service != nullptr) {
        serving.push_back(id);
      }
    }
  }
  std::sort(serving.begin(), serving.end());
  for (const ModelId id : serving) {
    Drain(id);
  }
}

MetricsSnapshot ServingGateway::model_metrics(ModelId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = slots_.find(id);
  TAO_CHECK(it != slots_.end() && it->second.ever_served)
      << "model " << id << " was never served";
  return it->second.service != nullptr ? it->second.service->metrics()
                                       : it->second.final_metrics;
}

GatewaySnapshot ServingGateway::metrics() const {
  GatewaySnapshot snapshot;
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<MetricsSnapshot> per_model;
  for (const ModelId id : registry_.ids()) {
    GatewayModelMetrics model;
    model.id = id;
    model.name = registry_.model(id).name;
    model.state = registry_.state(id);
    const auto it = slots_.find(id);
    if (it != slots_.end() && it->second.ever_served) {
      model.memory_budget_bytes = it->second.memory_budget_bytes;
      model.service = it->second.service != nullptr ? it->second.service->metrics()
                                                    : it->second.final_metrics;
      per_model.push_back(model.service);
    }
    snapshot.models.push_back(std::move(model));
  }
  snapshot.aggregate = AggregateSnapshots(per_model);
  snapshot.rejected_unknown = rejected_unknown_.load();
  snapshot.rejected_not_committed = rejected_not_committed_.load();
  snapshot.rejected_not_serving = rejected_not_serving_.load();
  snapshot.rejected_draining = rejected_draining_.load();
  snapshot.rejected_retired = rejected_retired_.load();
  return snapshot;
}

size_t ServingGateway::serving_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [id, slot] : slots_) {
    if (slot.service != nullptr &&
        registry_.state(id) == ModelLifecycle::kServing) {
      ++count;
    }
  }
  return count;
}

int64_t ServingGateway::model_memory_budget(ModelId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = slots_.find(id);
  return it == slots_.end() ? 0 : it->second.memory_budget_bytes;
}

std::vector<int64_t> ServingGateway::ApportionBudget(int64_t total, int64_t floor,
                                                     const std::vector<int64_t>& weights) {
  std::vector<int64_t> shares(weights.size(), 0);
  if (weights.empty()) {
    return shares;
  }
  int64_t weight_sum = 0;
  for (const int64_t w : weights) {
    TAO_CHECK(w > 0) << "apportionment weights must be positive";
    weight_sum += w;
  }
  // Floor first, then split the REMAINDER proportionally — never floor the
  // proportional share itself, or N idle models would each pull a full floor on
  // top of the hot model's near-total share and silently over-commit the global
  // budget by ~N*floor. Shares sum to max(total, N*floor) up to rounding (the
  // floor is a hard minimum, so an absurdly small total is over-committed rather
  // than starving every model below a workable cohort).
  const int64_t remainder =
      std::max<int64_t>(0, total - floor * static_cast<int64_t>(weights.size()));
  for (size_t i = 0; i < weights.size(); ++i) {
    const double fraction =
        static_cast<double>(weights[i]) / static_cast<double>(weight_sum);
    shares[i] = floor + static_cast<int64_t>(fraction * static_cast<double>(remainder));
  }
  return shares;
}

void ServingGateway::ApportionBudgetsLocked() {
  // Hot-model weighting: 1 + live queue depth. An idle model's share collapses to
  // the floor (its threads are parked; the floor only matters the moment traffic
  // returns), a backlogged model's share grows with its backlog.
  std::vector<ModelId> ids;
  std::vector<int64_t> weights;
  for (auto& [id, slot] : slots_) {
    if (slot.service != nullptr) {
      ids.push_back(id);
      weights.push_back(1 + static_cast<int64_t>(slot.service->queue_depth()));
    }
  }
  if (ids.empty()) {
    return;
  }
  const std::vector<int64_t> shares = ApportionBudget(
      options_.total_memory_budget_bytes, options_.min_model_budget_bytes, weights);
  for (size_t i = 0; i < ids.size(); ++i) {
    ServingSlot& slot = slots_[ids[i]];
    slot.memory_budget_bytes = shares[i];
    slot.service->SetMemoryBudget(shares[i]);
  }
}

std::shared_ptr<VerificationService> ServingGateway::service_for(ModelId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = slots_.find(id);
  return it == slots_.end() ? nullptr : it->second.service;
}

}  // namespace tao
