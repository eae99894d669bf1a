#include "src/registry/model_registry.h"

#include <utility>

#include "src/util/check.h"

namespace tao {

const char* ModelLifecycleName(ModelLifecycle state) {
  switch (state) {
    case ModelLifecycle::kRegistered:
      return "registered";
    case ModelLifecycle::kCommitted:
      return "committed";
    case ModelLifecycle::kServing:
      return "serving";
    case ModelLifecycle::kDraining:
      return "draining";
    case ModelLifecycle::kRetired:
      return "retired";
  }
  return "unknown";
}

ModelId ModelRegistry::Register(Model model) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto entry = std::make_unique<Entry>();
  entry->model = std::move(model);
  entries_.push_back(std::move(entry));
  return static_cast<ModelId>(entries_.size());
}

CommitStatus ModelRegistry::Commit(ModelId id, ModelCommitment commitment,
                                   ThresholdSet thresholds, ModelCommitConfig config) {
  // Hashed before taking the lock, so registry readers never wait on it.
  const bool root_matches = thresholds.CommitRoot() == commitment.threshold_root();
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry& e = entry(id);
  TAO_CHECK(e.state == ModelLifecycle::kRegistered)
      << "model " << id << " cannot commit from state " << ModelLifecycleName(e.state);
  if (!root_matches) {
    return CommitStatus::kThresholdRootMismatch;
  }
  e.commitment.emplace(std::move(commitment));
  e.thresholds.emplace(std::move(thresholds));
  // Per-model durability directory under the configured root; a coordinator never
  // shares files with another model's. Recovery failure aborts loudly here (null
  // status): a marketplace that cannot trust its recovered ledger must not serve.
  DurabilityOptions durability = config.durability;
  if (!durability.directory.empty()) {
    durability.directory += "/model-" + std::to_string(id);
  }
  e.coordinator =
      std::make_unique<Coordinator>(config.gas, config.round_timeout,
                                    config.coordinator_shards, id, std::move(durability));
  e.state = ModelLifecycle::kCommitted;
  return CommitStatus::kOk;
}

bool ModelRegistry::contains(ModelId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return id >= 1 && id <= entries_.size();
}

ModelLifecycle ModelRegistry::state(ModelId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entry(id).state;
}

size_t ModelRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

std::vector<ModelId> ModelRegistry::ids() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ModelId> ids;
  ids.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    ids.push_back(static_cast<ModelId>(i + 1));
  }
  return ids;
}

const Model& ModelRegistry::model(ModelId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entry(id).model;
}

const ModelCommitment& ModelRegistry::commitment(ModelId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Entry& e = entry(id);
  TAO_CHECK(e.commitment.has_value()) << "model " << id << " has no commitment yet";
  return *e.commitment;
}

const ThresholdSet& ModelRegistry::thresholds(ModelId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Entry& e = entry(id);
  TAO_CHECK(e.thresholds.has_value()) << "model " << id << " has no thresholds yet";
  return *e.thresholds;
}

Coordinator& ModelRegistry::coordinator(ModelId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Entry& e = entry(id);
  TAO_CHECK(e.coordinator != nullptr) << "model " << id << " has no coordinator yet";
  return *e.coordinator;
}

void ModelRegistry::MarkServing(ModelId id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry& e = entry(id);
  // kRetired -> kServing is the re-serve path: a NEW service attaches over the
  // model's persistent coordinator, so claim ids and the ledger continue where
  // the previous serving generation stopped.
  TAO_CHECK(e.state == ModelLifecycle::kCommitted ||
            e.state == ModelLifecycle::kRetired)
      << "model " << id << " cannot serve from state " << ModelLifecycleName(e.state);
  e.state = ModelLifecycle::kServing;
}

void ModelRegistry::MarkDraining(ModelId id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry& e = entry(id);
  TAO_CHECK(e.state == ModelLifecycle::kServing ||
            e.state == ModelLifecycle::kDraining)
      << "model " << id << " cannot drain from state " << ModelLifecycleName(e.state);
  e.state = ModelLifecycle::kDraining;
}

void ModelRegistry::MarkRetired(ModelId id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry& e = entry(id);
  TAO_CHECK(e.state == ModelLifecycle::kDraining)
      << "model " << id << " cannot retire from state " << ModelLifecycleName(e.state);
  e.state = ModelLifecycle::kRetired;
}

ModelRegistry::Entry& ModelRegistry::entry(ModelId id) {
  TAO_CHECK(id >= 1 && id <= entries_.size()) << "unknown model " << id;
  return *entries_[static_cast<size_t>(id - 1)];
}

const ModelRegistry::Entry& ModelRegistry::entry(ModelId id) const {
  TAO_CHECK(id >= 1 && id <= entries_.size()) << "unknown model " << id;
  return *entries_[static_cast<size_t>(id - 1)];
}

}  // namespace tao
