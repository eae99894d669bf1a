// ModelRegistry: the committed-artifact store of the multi-model marketplace.
//
// Every layer below this one serves exactly ONE committed model: BatchVerifier,
// VerificationService, and the sharded Coordinator are all constructed from a single
// (Model, ModelCommitment, ThresholdSet) triple. The paper's actual setting is a
// marketplace where many provers commit many models concurrently; the registry is
// the directory that makes that representable. Each entry pins one model's
// artifacts — the graph + weights, the Merkle commitment (r_w, r_g, r_e), the
// calibrated thresholds — and that model's own Coordinator shard group, so claims,
// gas, clocks, and ledger entries are per-model-scoped by construction (the
// coordinator stamps its ModelId into every ClaimRecord it issues).
//
// Lifecycle state machine (forward-only, except the explicit re-serve edge):
//
//   Register ──▶ kRegistered ──Commit──▶ kCommitted ──Serve──▶ kServing
//                                                       ▲          │ Drain
//                                              re-Serve │          ▼
//                                       kRetired ◀──Retire── kDraining
//
//   * kRegistered: the model artifact exists but nothing is committed — submissions
//     against it are shed (kNotCommitted) because there is no commitment to verify
//     claims against.
//   * kCommitted: commitment + thresholds posted, the per-model coordinator exists,
//     but no serving capacity is attached yet (kNotServing).
//   * kServing: a ServingGateway attached a VerificationService; submissions route.
//   * kDraining: admission is closed; every in-flight claim still gets its verdict.
//   * kRetired: the service is torn down. The entry itself is never deleted — the
//     coordinator's ledger and claim records stay readable forever (audits outlive
//     serving), and ids are never reused. A retired model may be re-served: a new
//     service generation attaches over the SAME coordinator, so claim ids and the
//     ledger continue where the previous generation stopped.
//
// The registry owns passive state + the lifecycle state machine; the
// ServingGateway (serving_gateway.h) owns the active serving resources and drives
// the kServing/kDraining/kRetired transitions. Entries are heap-pinned
// (unique_ptr, append-only vector), so references handed to services stay valid
// for the registry's lifetime regardless of later registrations.

#ifndef TAO_SRC_REGISTRY_MODEL_REGISTRY_H_
#define TAO_SRC_REGISTRY_MODEL_REGISTRY_H_

#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/models/model_zoo.h"
#include "src/protocol/commitment.h"
#include "src/protocol/coordinator.h"

namespace tao {

enum class ModelLifecycle {
  kRegistered,  // artifact present, nothing committed
  kCommitted,   // commitment + thresholds + coordinator exist; not serving yet
  kServing,     // a gateway routes submissions to this model
  kDraining,    // admission closed; in-flight verdicts still delivering
  kRetired,     // service torn down; ledger/claims stay readable
};

const char* ModelLifecycleName(ModelLifecycle state);

// What Commit decided. An illegal lifecycle transition is a protocol violation and
// aborts instead.
enum class CommitStatus {
  kOk,
  // The posted thresholds do not hash to the commitment's r_e, so claims would be
  // judged against acceptance regions that were never committed. The model stays
  // kRegistered: no coordinator, no durability directory.
  kThresholdRootMismatch,
  // The registered graph does not re-derive the commitment's weight and signature
  // leaves (ModelCommitment::Matches), so dispute rounds would check proofs against
  // an artifact the model does not have. The model stays kRegistered, as above.
  kArtifactMismatch,
};

const char* CommitStatusName(CommitStatus status);

// Per-model coordinator configuration, fixed at Commit time (the shard count is the
// model's resolve-lane parallelism; see docs/coordinator.md).
struct ModelCommitConfig {
  GasSchedule gas;
  uint64_t round_timeout = 10;
  size_t coordinator_shards = 1;
  // Coordinator durability (docs/durability.md). A non-empty `directory` is treated
  // as the deployment ROOT: each model's coordinator logs under
  // `<directory>/model-<id>`, so one configured root serves every model without
  // collisions, and re-committing after a restart recovers that model's ledger and
  // claims from its own subdirectory. Empty (default) = in-memory only.
  DurabilityOptions durability;
};

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Phase 0a: the prover uploads the model artifact. Ids are dense from 1, never
  // reused. The registry's copy is the one every later layer references (the graph
  // is shared storage, so this is cheap).
  ModelId Register(Model model);

  // Phase 0b: the prover posts the Merkle commitment and calibrated thresholds;
  // the model's own coordinator shard group is created here, stamped with the
  // model id. Legal only from kRegistered. Rejects thresholds whose root is not the
  // commitment's r_e, then a commitment the registered graph does not match. Both are
  // hashed here, once per model, outside the registry lock; dispute rounds then check
  // every proof from the commitment's stored leaves.
  CommitStatus Commit(ModelId id, ModelCommitment commitment, ThresholdSet thresholds,
                      ModelCommitConfig config = {});

  // --- reads (any thread) -------------------------------------------------------------
  bool contains(ModelId id) const;
  ModelLifecycle state(ModelId id) const;
  size_t size() const;
  std::vector<ModelId> ids() const;

  // Valid from kRegistered on. The reference is pinned for the registry's lifetime.
  const Model& model(ModelId id) const;
  // Valid from kCommitted on (TAO_CHECK otherwise).
  const ModelCommitment& commitment(ModelId id) const;
  const ThresholdSet& thresholds(ModelId id) const;
  Coordinator& coordinator(ModelId id) const;

  // --- lifecycle transitions (driven by the ServingGateway) --------------------------
  // Each checks the legal predecessor and aborts on a protocol violation, except
  // MarkDraining which is idempotent (a second Drain is a no-op, matching
  // VerificationService::Drain).
  void MarkServing(ModelId id);    // kCommitted | kRetired (re-serve) -> kServing
  void MarkDraining(ModelId id);   // kServing | kDraining -> kDraining
  void MarkRetired(ModelId id);    // kDraining -> kRetired

 private:
  struct Entry {
    Model model;
    ModelLifecycle state = ModelLifecycle::kRegistered;
    std::optional<ModelCommitment> commitment;
    std::optional<ThresholdSet> thresholds;
    std::unique_ptr<Coordinator> coordinator;
  };

  Entry& entry(ModelId id);
  const Entry& entry(ModelId id) const;

  // Guards the entry vector and every entry's lifecycle state. Entry payloads
  // (model/commitment/thresholds/coordinator) are written once — at Register/Commit
  // — and immutable afterwards, so post-Commit readers share-lock only to resolve
  // the pointer.
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // id = index + 1
};

}  // namespace tao

#endif  // TAO_SRC_REGISTRY_MODEL_REGISTRY_H_
