// Network front-end suite (src/net): wire codecs, the framed RPC server over the
// ServingGateway, and the retriable client channel. Four layers:
//
//   * Framing: round-trips for every message type, torn prefixes reported as
//     kTorn (wait, don't drop), and every corruption mode as its DISTINCT typed
//     status — there is no resync, so typing matters.
//
//   * Canonical codecs: accepted payloads re-encode byte-identical, and the
//     non-canonical encodings (reject acks carrying tickets, out-of-range claim
//     states, trailing bytes) are refused. A seed-parameterized fuzz sweep
//     (mutate / truncate / extend / random soup) drives "never crash, never
//     read out of bounds, accept-but-differ impossible" over every decoder.
//
//   * Loopback end-to-end: client threads x connections against a 3-model
//     gateway; each model's remote verdicts, claim ids, C0 digests, gas, and
//     ledger must be bitwise identical to a sequential reference replay of the
//     ACCEPTED order the server's ack tickets define — the per-model determinism
//     contract of docs/net.md, under real connection interleaving.
//
//   * Failure modes: lifecycle rejects crossing the wire with their distinct
//     codes, kOverloaded as live backpressure, and connection kills mid-burst
//     with the RetriableChannel resubmitting — the server's dedup window must
//     make retries exactly-once (no duplicate claims, ledger conserved).
//
// The whole suite must run TSan-clean (CI runs it in the tsan job).

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/calib/calibrator.h"
#include "src/device/simd.h"
#include "src/net/client_channel.h"
#include "src/registry/serving_gateway.h"
#include "tests/test_claims.h"

namespace tao {
namespace {

// --------------------------------- fixtures ------------------------------------------

// Three small MLP variants: the net suite exercises transport, not model width, so
// the zoo is narrow and cheap. Distinct seeds/dims keep the models' outcomes
// distinguishable (a cross-model routing bug cannot pass by coincidence).
Model BuildNetModel(int variant) {
  WideMlpConfig config;
  config.input_dim = 48 + 16 * variant;
  config.hidden_dim = 32;
  config.num_classes = 16;
  config.seed = 0x5eed0 + static_cast<uint64_t>(variant);
  return BuildWideMlp(config);
}

struct CommittedModel {
  Model model;
  std::unique_ptr<ThresholdSet> thresholds;
  std::unique_ptr<ModelCommitment> commitment;
};

CommittedModel MakeCommitted(Model model) {
  CommittedModel committed;
  committed.model = std::move(model);
  CalibrateOptions options;
  options.num_samples = 3;
  committed.thresholds = std::make_unique<ThresholdSet>(
      Calibrate(committed.model, DeviceRegistry::Fleet(), options).MakeThresholds(3.0));
  committed.commitment =
      std::make_unique<ModelCommitment>(*committed.model.graph, *committed.thresholds);
  return committed;
}

class NetFixture : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    models_ = new std::vector<CommittedModel>();
    for (int variant = 0; variant < 3; ++variant) {
      models_->push_back(MakeCommitted(BuildNetModel(variant)));
    }
  }

  static void TearDownTestSuite() {
    delete models_;
    models_ = nullptr;
  }

  static std::vector<CommittedModel>* models_;
};

std::vector<CommittedModel>* NetFixture::models_ = nullptr;

// Registers and commits fixture models [0, count) into `registry` with `shards`
// coordinator shards each; returns the assigned ids.
std::vector<ModelId> CommitModels(ModelRegistry& registry, size_t count, size_t shards) {
  std::vector<ModelId> ids;
  for (size_t m = 0; m < count; ++m) {
    const CommittedModel& committed = (*NetFixture::models_)[m];
    const ModelId id = registry.Register(committed.model);
    ModelCommitConfig config;
    config.coordinator_shards = shards;
    registry.Commit(id, *committed.commitment, *committed.thresholds, config);
    ids.push_back(id);
  }
  return ids;
}

// Reference outcome of one claim under the model's sequential path (the same
// replay registry_gateway_test uses: claim i homes to shard i % S, exactly the
// service's lane assignment over a dense accepted order).
struct ReferenceOutcome {
  ClaimId claim_id = 0;
  Digest c0{};
  bool flagged = false;
  bool proposer_guilty = false;
  ClaimState final_state = ClaimState::kCommitted;
  int64_t gas_used = 0;
};

std::vector<ReferenceOutcome> RunSequentialReference(const CommittedModel& committed,
                                                     const std::vector<BatchClaim>& claims,
                                                     Coordinator& coordinator) {
  const Graph& graph = *committed.model.graph;
  const size_t shards = coordinator.num_shards();
  std::vector<ReferenceOutcome> outcomes;
  outcomes.reserve(claims.size());
  for (size_t i = 0; i < claims.size(); ++i) {
    const BatchClaim& claim = claims[i];
    const uint64_t shard = i % shards;
    ReferenceOutcome ref;
    if (claim.supervised()) {
      DisputeGame game(committed.model, *committed.commitment, *committed.thresholds,
                       coordinator);
      const DisputeResult result = game.Run(claim.inputs, *claim.proposer_device,
                                            *claim.verifier_device, claim.perturbations,
                                            shard);
      ref.claim_id = result.claim_id;
      ref.c0 = coordinator.claim(result.claim_id).c0;
      ref.flagged = result.challenge_raised;
      ref.proposer_guilty = result.proposer_guilty;
      ref.final_state = result.final_state;
      ref.gas_used = result.gas_used;
    } else {
      const Executor exec(graph, *claim.proposer_device);
      const ExecutionTrace trace = exec.RunPerturbed(claim.inputs, claim.perturbations);
      const DisputeOptions defaults;
      ResultMeta meta;
      meta.device = claim.proposer_device->name;
      meta.challenge_window = defaults.challenge_window;
      ref.c0 = ComputeResultCommitment(*committed.commitment, claim.inputs,
                                       trace.value(graph.output()), meta);
      const ClaimId id = coordinator.SubmitCommitment(ref.c0, defaults.challenge_window,
                                                      defaults.proposer_bond, shard);
      coordinator.AdvanceTimeFor(id, defaults.challenge_window);
      ref.claim_id = id;
      ref.final_state = coordinator.TryFinalize(id);
      ref.gas_used = coordinator.claim_gas(id);
    }
    outcomes.push_back(ref);
  }
  return outcomes;
}

// One remote submission's observed wire outcome, keyed by the server's ack ticket.
struct RemoteOutcome {
  uint64_t ticket = 0;
  size_t claim_index = 0;  // into the model's claim vector
  WireVerdict verdict;
};

// Asserts the wire outcomes (sorted into the server's accepted order by ticket)
// are bitwise identical to a fresh sequential replay of that order, ledger
// included.
void ExpectBitwiseEqualToReference(const CommittedModel& committed,
                                   const std::vector<BatchClaim>& claims,
                                   std::vector<RemoteOutcome> outcomes,
                                   const Coordinator& live, ModelId model_id,
                                   size_t shards, const std::string& label) {
  std::sort(outcomes.begin(), outcomes.end(),
            [](const RemoteOutcome& a, const RemoteOutcome& b) {
              return a.ticket < b.ticket;
            });
  // Tickets are the service's global sequence numbers: a fresh service admits a
  // dense 0..N-1, and THAT order is what the reference replays.
  std::vector<BatchClaim> accepted_order;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_EQ(outcomes[i].ticket, i) << label << ": accepted order is not dense";
    accepted_order.push_back(claims[outcomes[i].claim_index]);
  }
  Coordinator reference_coordinator(GasSchedule{}, /*round_timeout=*/10, shards,
                                    model_id);
  const std::vector<ReferenceOutcome> reference =
      RunSequentialReference(committed, accepted_order, reference_coordinator);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const WireVerdict& got = outcomes[i].verdict;
    const ReferenceOutcome& ref = reference[i];
    EXPECT_EQ(got.model_id, model_id) << label << ": ticket " << i;
    EXPECT_EQ(got.claim_id, ref.claim_id) << label << ": ticket " << i;
    EXPECT_EQ(got.c0, ref.c0) << label << ": ticket " << i << " C0 diverged";
    EXPECT_EQ(got.flagged, ref.flagged) << label << ": ticket " << i;
    EXPECT_EQ(got.proposer_guilty, ref.proposer_guilty) << label << ": ticket " << i;
    EXPECT_EQ(got.final_state, static_cast<uint32_t>(ref.final_state))
        << label << ": ticket " << i;
    EXPECT_EQ(got.gas_used, ref.gas_used) << label << ": ticket " << i;
  }
  const Balances got = live.balances();
  const Balances want = reference_coordinator.balances();
  EXPECT_EQ(got.proposer, want.proposer) << label;
  EXPECT_EQ(got.challenger, want.challenger) << label;
  EXPECT_EQ(got.treasury, want.treasury) << label;
  EXPECT_EQ(live.gas().total(), reference_coordinator.gas().total()) << label;
}

double CounterValue(const std::vector<NamedCounter>& counters, const std::string& name) {
  for (const NamedCounter& counter : counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  return -1.0;
}

// ---------------------------------- framing ------------------------------------------

TEST(NetFrame, RoundTripsEveryMessageType) {
  const MessageType types[] = {MessageType::kHello,  MessageType::kHelloAck,
                               MessageType::kSubmit, MessageType::kSubmitAck,
                               MessageType::kVerdict, MessageType::kPing,
                               MessageType::kPong,   MessageType::kGoodbye};
  std::vector<uint8_t> stream;
  std::vector<std::vector<uint8_t>> payloads;
  for (size_t i = 0; i < std::size(types); ++i) {
    std::vector<uint8_t> payload(i * 7);
    for (size_t b = 0; b < payload.size(); ++b) {
      payload[b] = static_cast<uint8_t>(b * 31 + i);
    }
    payloads.push_back(payload);
    AppendWireFrame(stream, types[i], /*request_id=*/1000 + i, payload);
  }
  size_t offset = 0;
  for (size_t i = 0; i < std::size(types); ++i) {
    WireFrame frame;
    ASSERT_EQ(DecodeWireFrame(stream, offset, frame), WireDecodeStatus::kOk) << i;
    EXPECT_EQ(frame.type, types[i]);
    EXPECT_EQ(frame.request_id, 1000 + i);
    ASSERT_EQ(frame.payload.size(), payloads[i].size());
    EXPECT_TRUE(std::equal(frame.payload.begin(), frame.payload.end(),
                           payloads[i].begin()));
  }
  EXPECT_EQ(offset, stream.size());
  WireFrame frame;
  EXPECT_EQ(DecodeWireFrame(stream, offset, frame), WireDecodeStatus::kTorn);
}

TEST(NetFrame, EveryTornPrefixWaitsInsteadOfRejecting) {
  std::vector<uint8_t> stream;
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  AppendWireFrame(stream, MessageType::kSubmit, 7, payload);
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    const std::span<const uint8_t> prefix(stream.data(), cut);
    size_t offset = 0;
    WireFrame frame;
    EXPECT_EQ(DecodeWireFrame(prefix, offset, frame), WireDecodeStatus::kTorn)
        << "prefix length " << cut;
    EXPECT_EQ(offset, 0u);
  }
}

TEST(NetFrame, CorruptionModesAreDistinctlyTyped) {
  const std::vector<uint8_t> payload = {9, 8, 7, 6};
  std::vector<uint8_t> good;
  AppendWireFrame(good, MessageType::kPing, 3, payload);

  const auto decode = [](std::vector<uint8_t> bytes) {
    size_t offset = 0;
    WireFrame frame;
    const WireDecodeStatus status = DecodeWireFrame(bytes, offset, frame);
    EXPECT_EQ(offset, status == WireDecodeStatus::kOk ? bytes.size() : 0u);
    return status;
  };

  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(decode(bad_magic), WireDecodeStatus::kBadMagic);

  std::vector<uint8_t> bad_version = good;
  bad_version[4] = 99;
  EXPECT_EQ(decode(bad_version), WireDecodeStatus::kBadVersion);

  std::vector<uint8_t> bad_type = good;
  bad_type[8] = 0;  // below kHello
  EXPECT_EQ(decode(bad_type), WireDecodeStatus::kBadType);
  bad_type[8] = 9;  // above kGoodbye
  EXPECT_EQ(decode(bad_type), WireDecodeStatus::kBadType);

  // Length check mismatch: the redundant xor'd copy disagrees.
  std::vector<uint8_t> bad_length = good;
  bad_length[24] ^= 0x01;  // length_check field
  EXPECT_EQ(decode(bad_length), WireDecodeStatus::kBadLength);

  // Consistent but absurd length: both copies claim more than the ceiling.
  std::vector<uint8_t> huge = good;
  const uint32_t huge_len = kMaxWirePayloadBytes + 1;
  const uint32_t huge_check = huge_len ^ kWireLengthXor;
  std::memcpy(huge.data() + 20, &huge_len, 4);
  std::memcpy(huge.data() + 24, &huge_check, 4);
  EXPECT_EQ(decode(huge), WireDecodeStatus::kBadLength);

  std::vector<uint8_t> bad_crc = good;
  bad_crc[kWireHeaderBytes] ^= 0x40;  // payload bit rot
  EXPECT_EQ(decode(bad_crc), WireDecodeStatus::kBadCrc);
}

// ----------------------------- canonical payload codecs ------------------------------

TEST(NetCodec, PayloadRoundTrips) {
  WireHello hello{0xABCDEF12345ULL};
  WireHello hello_out;
  ASSERT_TRUE(DecodeHello(EncodeHello(hello), hello_out));
  EXPECT_EQ(hello_out.session_id, hello.session_id);

  WireHelloAck ack;
  ack.dedup_window = 512;
  ack.models = {{1, "bert-mini"}, {7, "qwen-mini"}};
  WireHelloAck ack_out;
  ASSERT_TRUE(DecodeHelloAck(EncodeHelloAck(ack), ack_out));
  EXPECT_EQ(ack_out.dedup_window, 512u);
  ASSERT_EQ(ack_out.models.size(), 2u);
  EXPECT_EQ(ack_out.models[1].id, 7u);
  EXPECT_EQ(ack_out.models[1].name, "qwen-mini");

  for (uint32_t s = 0; s < static_cast<uint32_t>(WireStatus::kCount); ++s) {
    WireSubmitAck submit_ack;
    submit_ack.status = static_cast<WireStatus>(s);
    submit_ack.ticket = submit_ack.status == WireStatus::kAccepted ? 42 : 0;
    WireSubmitAck out;
    ASSERT_TRUE(DecodeSubmitAck(EncodeSubmitAck(submit_ack), out)) << s;
    EXPECT_EQ(out.status, submit_ack.status);
    EXPECT_EQ(out.ticket, submit_ack.ticket);
  }

  WireVerdict verdict;
  verdict.ticket = 5;
  verdict.claim_id = 17;
  verdict.model_id = 3;
  verdict.c0[0] = 0xAA;
  verdict.c0[31] = 0x55;
  verdict.final_state = 2;
  verdict.supervised = true;
  verdict.flagged = true;
  verdict.proposer_guilty = false;
  verdict.gas_used = 123456;
  WireVerdict verdict_out;
  ASSERT_TRUE(DecodeVerdict(EncodeVerdict(verdict), verdict_out));
  EXPECT_EQ(verdict_out.claim_id, 17u);
  EXPECT_EQ(verdict_out.c0, verdict.c0);
  EXPECT_TRUE(verdict_out.supervised);
  EXPECT_TRUE(verdict_out.flagged);
  EXPECT_FALSE(verdict_out.proposer_guilty);
  EXPECT_EQ(verdict_out.gas_used, 123456);
}

TEST(NetCodec, SubmitRoundTripsARealClaim) {
  const Model model = BuildNetModel(0);
  const std::vector<BatchClaim> claims =
      MakeTestClaims(model, 4, 0xfeed, /*cheat_rate=*/0.5, /*supervised_rate=*/0.5);
  for (const BatchClaim& claim : claims) {
    WireSubmit submit;
    submit.model_id = 11;
    submit.submitter = 22;
    submit.claim = WireClaimFromBatchClaim(claim);
    const std::vector<uint8_t> bytes = EncodeSubmit(submit);
    WireSubmit out;
    ASSERT_TRUE(DecodeSubmit(bytes, out));
    EXPECT_EQ(out.model_id, 11u);
    EXPECT_EQ(out.submitter, 22u);
    // Canonical: the decoded value re-encodes to the same bytes.
    EXPECT_EQ(EncodeSubmit(out), bytes);
    // And bridges back to an equivalent BatchClaim (same devices, same tensors).
    BatchClaim bridged;
    ASSERT_TRUE(BatchClaimFromWireClaim(out.claim, bridged));
    EXPECT_EQ(bridged.proposer_device, claim.proposer_device);
    EXPECT_EQ(bridged.verifier_device, claim.verifier_device);
    ASSERT_EQ(bridged.inputs.size(), claim.inputs.size());
    ASSERT_EQ(bridged.perturbations.size(), claim.perturbations.size());
  }
}

// A fixed ~64 KB Submit: a [128, 128] input whose elements sweep the FP32 bit space
// (NaNs with payloads, denormals, infinities, signed zeros), a small input, a -0.0
// perturbation and both device names.
WireSubmit PinnedSubmit() {
  std::vector<float> sweep(16384);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const uint32_t bits = static_cast<uint32_t>(i) * 0x9E3779B9u;
    std::memcpy(&sweep[i], &bits, sizeof(bits));
  }
  WireSubmit submit;
  submit.model_id = 7;
  submit.submitter = 42;
  submit.claim.inputs = {Tensor(Shape{128, 128}, std::move(sweep)),
                         Tensor::Full(Shape{2, 3}, -1.5f)};
  submit.claim.perturbations = {{3, Tensor::Full(Shape{4}, -0.0f)}};
  submit.claim.proposer_device = "H100";
  submit.claim.verifier_device = "A100";
  return submit;
}

// Peers of every version exchange these exact frame bytes, so their digest is fixed:
// a codec change that moves it breaks interoperation and must not re-pin it.
TEST(NetCodec, PinnedSubmitFrameBytesNeverMove) {
  const WireSubmit submit = PinnedSubmit();
  for (const SimdBackend backend : {SimdBackend::kScalar, SimdBackend::kAvx2}) {
    if (!SimdBackendSupported(backend)) {
      continue;
    }
    ScopedSimdBackend force(backend);
    std::vector<uint8_t> frame;
    AppendWireFrame(frame, MessageType::kSubmit, 9, EncodeSubmit(submit));
    ASSERT_EQ(frame.size(), 65720u);
    EXPECT_EQ(DigestToHex(Sha256::Hash(frame)),
              "ff252c7589228b767dc0d46589390d7c0d56e9206539ac79977b852ea34f7ceb")
        << SimdBackendName(backend);

    size_t offset = 0;
    WireFrame wire;
    WireSubmit out;
    ASSERT_EQ(DecodeWireFrame(frame, offset, wire), WireDecodeStatus::kOk);
    ASSERT_TRUE(DecodeSubmit(wire.payload, out));
    EXPECT_EQ(EncodeSubmit(out), EncodeSubmit(submit));
    const std::span<const float> sent = submit.claim.inputs[0].values();
    const std::span<const float> received = out.claim.inputs[0].values();
    ASSERT_EQ(received.size(), sent.size());
    EXPECT_EQ(std::memcmp(received.data(), sent.data(), sent.size_bytes()), 0);
  }
}

TEST(NetCodec, NonCanonicalEncodingsAreRefused) {
  // A reject ack carrying a ticket is not a value EncodeSubmitAck can produce;
  // the decoder must refuse it rather than silently normalize.
  std::vector<uint8_t> reject_with_ticket = EncodeSubmitAck({WireStatus::kOverloaded, 0});
  ASSERT_GE(reject_with_ticket.size(), 12u);
  reject_with_ticket[4] = 1;  // ticket low byte
  WireSubmitAck ack_out;
  EXPECT_FALSE(DecodeSubmitAck(reject_with_ticket, ack_out));

  // A status at/above kCount is meaningless.
  std::vector<uint8_t> bad_status = EncodeSubmitAck({WireStatus::kAccepted, 1});
  bad_status[0] = static_cast<uint8_t>(WireStatus::kCount);
  EXPECT_FALSE(DecodeSubmitAck(bad_status, ack_out));

  // Verdict claim states are validated against the enum's cardinality, and the
  // three flag bits are the only ones allowed.
  WireVerdict verdict;
  verdict.final_state = 1;
  std::vector<uint8_t> bad_state = EncodeVerdict(verdict);
  WireVerdict verdict_out;
  ASSERT_TRUE(DecodeVerdict(bad_state, verdict_out));
  bad_state[8 + 8 + 8 + 32] = 5;  // final_state byte: ClaimState has 5 states
  EXPECT_FALSE(DecodeVerdict(bad_state, verdict_out));
  std::vector<uint8_t> bad_flags = EncodeVerdict(verdict);
  bad_flags[8 + 8 + 8 + 32 + 4] = 0x08;  // a flag bit beyond the defined three
  EXPECT_FALSE(DecodeVerdict(bad_flags, verdict_out));

  // Trailing bytes are never canonical.
  std::vector<uint8_t> trailing = EncodeHello({123});
  trailing.push_back(0);
  WireHello hello_out;
  EXPECT_FALSE(DecodeHello(trailing, hello_out));

  // A zero session id cannot attach (it would alias "no session").
  EXPECT_FALSE(DecodeHello(EncodeHello({1}), hello_out) &&
               DecodeHello(std::vector<uint8_t>(8, 0), hello_out));
}

TEST(NetCodec, StatusMappingMirrorsGatewayExactly) {
  EXPECT_EQ(ToWireStatus(GatewayStatus::kAccepted), WireStatus::kAccepted);
  EXPECT_EQ(ToWireStatus(GatewayStatus::kUnknownModel), WireStatus::kUnknownModel);
  EXPECT_EQ(ToWireStatus(GatewayStatus::kNotCommitted), WireStatus::kNotCommitted);
  EXPECT_EQ(ToWireStatus(GatewayStatus::kNotServing), WireStatus::kNotServing);
  EXPECT_EQ(ToWireStatus(GatewayStatus::kDraining), WireStatus::kDraining);
  EXPECT_EQ(ToWireStatus(GatewayStatus::kRetired), WireStatus::kRetired);
  EXPECT_EQ(ToWireStatus(GatewayStatus::kOverloaded), WireStatus::kOverloaded);
  EXPECT_TRUE(IsRetriableStatus(WireStatus::kOverloaded));
  EXPECT_TRUE(IsRetriableStatus(WireStatus::kDraining));
  EXPECT_FALSE(IsRetriableStatus(WireStatus::kAccepted));
  EXPECT_FALSE(IsRetriableStatus(WireStatus::kRetired));
  EXPECT_FALSE(IsRetriableStatus(WireStatus::kMalformed));
}

// ------------------------------------ fuzz -------------------------------------------

// Every decoder, against (a) bit/byte mutations of valid encodings, (b) every
// truncation, (c) extensions, and (d) random soup. The invariant under test: the
// decoder never crashes or reads out of bounds, and whenever it ACCEPTS a buffer,
// re-encoding the decoded value reproduces the buffer bit-for-bit — two distinct
// byte strings can never alias one value.
class NetCodecFuzz : public ::testing::TestWithParam<uint64_t> {};

template <typename T>
void CheckCanonicalProperty(bool (*decode)(std::span<const uint8_t>, T&),
                            std::vector<uint8_t> (*encode)(const T&),
                            std::span<const uint8_t> bytes) {
  T value;
  if (decode(bytes, value)) {
    const std::vector<uint8_t> reencoded = encode(value);
    ASSERT_EQ(reencoded.size(), bytes.size()) << "accepted payload re-encoded differently";
    ASSERT_TRUE(std::equal(reencoded.begin(), reencoded.end(), bytes.begin()))
        << "accepted payload re-encoded differently";
  }
}

void CheckAllDecoders(std::span<const uint8_t> bytes) {
  CheckCanonicalProperty<WireHello>(DecodeHello, EncodeHello, bytes);
  CheckCanonicalProperty<WireHelloAck>(DecodeHelloAck, EncodeHelloAck, bytes);
  CheckCanonicalProperty<WireSubmit>(DecodeSubmit, EncodeSubmit, bytes);
  CheckCanonicalProperty<WireSubmitAck>(DecodeSubmitAck, EncodeSubmitAck, bytes);
  CheckCanonicalProperty<WireVerdict>(DecodeVerdict, EncodeVerdict, bytes);
  // The frame decoder is total too; mutated headers must land on a typed status.
  size_t offset = 0;
  WireFrame frame;
  (void)DecodeWireFrame(bytes, offset, frame);
}

TEST_P(NetCodecFuzz, MutationsNeverCrashAndNeverAlias) {
  Rng rng(GetParam());

  // Corpus: one valid encoding per payload type, tensors included.
  std::vector<std::vector<uint8_t>> corpus;
  corpus.push_back(EncodeHello({0x1122334455ULL}));
  WireHelloAck hello_ack;
  hello_ack.dedup_window = 64;
  hello_ack.models = {{1, "alpha"}, {2, "beta"}, {900, "gamma"}};
  corpus.push_back(EncodeHelloAck(hello_ack));
  corpus.push_back(EncodeSubmitAck({WireStatus::kAccepted, 99}));
  corpus.push_back(EncodeSubmitAck({WireStatus::kDraining, 0}));
  WireVerdict verdict;
  verdict.ticket = 12;
  verdict.claim_id = 13;
  verdict.model_id = 2;
  verdict.final_state = 1;
  verdict.supervised = true;
  verdict.gas_used = 777;
  corpus.push_back(EncodeVerdict(verdict));
  WireSubmit submit;
  submit.model_id = 5;
  submit.submitter = 6;
  Rng tensor_rng(GetParam() ^ 0x7e5707);
  submit.claim.inputs.push_back(Tensor::Randn(Shape({3, 4}), tensor_rng, 1.0f));
  submit.claim.inputs.push_back(Tensor::Randn(Shape({2, 2, 2}), tensor_rng, 0.5f));
  submit.claim.perturbations.push_back({7, Tensor::Randn(Shape({4}), tensor_rng, 0.1f)});
  submit.claim.proposer_device = "fuzz-proposer";
  submit.claim.verifier_device = "fuzz-verifier";
  corpus.push_back(EncodeSubmit(submit));
  // Framed messages join the corpus so DecodeWireFrame sees mutated headers.
  std::vector<uint8_t> framed;
  AppendWireFrame(framed, MessageType::kSubmit, 31337, corpus.back());
  corpus.push_back(framed);

  for (const std::vector<uint8_t>& seed_bytes : corpus) {
    // Valid encodings round-trip (sanity that the corpus is live).
    CheckAllDecoders(seed_bytes);

    // Byte / bit mutations.
    for (int round = 0; round < 200; ++round) {
      std::vector<uint8_t> mutated = seed_bytes;
      if (mutated.empty()) {
        break;
      }
      const size_t flips = 1 + rng.NextBounded(3);
      for (size_t f = 0; f < flips; ++f) {
        const size_t index = rng.NextBounded(mutated.size());
        mutated[index] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      CheckAllDecoders(mutated);
    }

    // Every truncation (a valid proper prefix must still be canonical for its
    // own length or be refused — never misparsed).
    for (size_t cut = 0; cut < seed_bytes.size(); ++cut) {
      CheckAllDecoders(std::span<const uint8_t>(seed_bytes.data(), cut));
    }

    // Extensions with junk.
    for (int round = 0; round < 20; ++round) {
      std::vector<uint8_t> extended = seed_bytes;
      const size_t extra = 1 + rng.NextBounded(16);
      for (size_t b = 0; b < extra; ++b) {
        extended.push_back(static_cast<uint8_t>(rng.NextU64()));
      }
      CheckAllDecoders(extended);
    }
  }

  // Random soup.
  for (int round = 0; round < 200; ++round) {
    std::vector<uint8_t> soup(rng.NextBounded(300));
    for (uint8_t& byte : soup) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    CheckAllDecoders(soup);
  }
}

INSTANTIATE_TEST_SUITE_P(DurabilitySeeds, NetCodecFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------- loopback end-to-end ---------------------------------

TEST_F(NetFixture, MultiClientSweepIsBitwisePerModel) {
  constexpr size_t kNumModels = 3;
  constexpr size_t kClientsPerModel = 2;
  constexpr size_t kClaimsPerClient = 4;
  constexpr size_t kShards = 2;
  constexpr size_t kClaimsPerModel = kClientsPerModel * kClaimsPerClient;

  std::vector<std::vector<BatchClaim>> claims(kNumModels);
  for (size_t m = 0; m < kNumModels; ++m) {
    claims[m] = MakeTestClaims((*models_)[m].model, kClaimsPerModel, 0x9e7 + m,
                               /*cheat_rate=*/0.4, /*supervised_rate=*/0.6);
  }

  ModelRegistry registry;
  GatewayOptions gateway_options;
  gateway_options.rpc.enabled = true;
  ServingGateway gateway(registry, gateway_options);
  const std::vector<ModelId> ids = CommitModels(registry, kNumModels, kShards);
  for (size_t m = 0; m < kNumModels; ++m) {
    ServiceOptions options;
    options.num_workers = 2;
    options.batching.initial_hint = 2;
    options.verifier.reuse_buffers = true;
    gateway.Serve(ids[m], options);
  }
  ASSERT_NE(gateway.rpc(), nullptr);
  const int port = gateway.rpc()->port();

  // kNumModels x kClientsPerModel client threads, each on its OWN connection and
  // session: submissions pipeline (all submits, then all verdict waits) so the
  // server sees genuinely interleaved in-flight traffic across connections.
  std::vector<std::vector<RemoteOutcome>> outcomes(kNumModels);
  std::vector<std::mutex> outcome_mus(kNumModels);
  std::vector<std::thread> clients;
  for (size_t m = 0; m < kNumModels; ++m) {
    for (size_t c = 0; c < kClientsPerModel; ++c) {
      clients.emplace_back([&, m, c] {
        RetriableChannel channel("127.0.0.1", port,
                                 /*session_id=*/0xC11E0000 + m * 16 + c);
        struct InFlight {
          uint64_t request_id = 0;
          uint64_t ticket = 0;
          size_t claim_index = 0;
        };
        std::vector<InFlight> in_flight;
        for (size_t i = 0; i < kClaimsPerClient; ++i) {
          const size_t claim_index = c * kClaimsPerClient + i;
          uint64_t request_id = 0;
          const WireSubmitAck ack =
              channel.Submit(ids[m], /*submitter=*/m * 16 + c,
                             claims[m][claim_index], &request_id);
          ASSERT_EQ(ack.status, WireStatus::kAccepted)
              << "model " << m << " client " << c << " claim " << i;
          in_flight.push_back({request_id, ack.ticket, claim_index});
        }
        for (const InFlight& flight : in_flight) {
          WireVerdict verdict;
          ASSERT_TRUE(channel.WaitVerdict(flight.request_id, verdict));
          EXPECT_EQ(verdict.ticket, flight.ticket);
          std::lock_guard<std::mutex> lock(outcome_mus[m]);
          outcomes[m].push_back({flight.ticket, flight.claim_index, verdict});
        }
      });
    }
  }
  for (std::thread& t : clients) {
    t.join();
  }
  gateway.DrainAll();

  for (size_t m = 0; m < kNumModels; ++m) {
    ASSERT_EQ(outcomes[m].size(), kClaimsPerModel) << "model " << m;
    ExpectBitwiseEqualToReference((*models_)[m], claims[m], outcomes[m],
                                  registry.coordinator(ids[m]), ids[m], kShards,
                                  "model " + std::to_string(m));
  }

  // The net counters joined the flow: every submit and verdict crossed the wire.
  const std::vector<NamedCounter> counters = gateway.rpc()->Counters();
  EXPECT_EQ(CounterValue(counters, "net/rpc/submits_accepted"),
            static_cast<double>(kNumModels * kClaimsPerModel));
  EXPECT_EQ(CounterValue(counters, "net/rpc/verdicts_pushed"),
            static_cast<double>(kNumModels * kClaimsPerModel));
  EXPECT_EQ(CounterValue(counters, "net/rpc/protocol_errors"), 0.0);
}

TEST_F(NetFixture, LifecycleRejectsCrossTheWireWithDistinctCodes) {
  const CommittedModel& committed = (*models_)[0];
  const std::vector<BatchClaim> claims =
      MakeTestClaims(committed.model, 2, 0x11f3, 0.0, 0.0);

  ModelRegistry registry;
  GatewayOptions gateway_options;
  gateway_options.rpc.enabled = true;
  ServingGateway gateway(registry, gateway_options);
  const ModelId registered = registry.Register(committed.model);
  const int port = gateway.rpc()->port();

  ClientChannel channel("127.0.0.1", port, /*session_id=*/0xBEE1);
  ASSERT_TRUE(channel.ok());
  // Nothing serves yet, so the HelloAck's model list is empty.
  EXPECT_TRUE(channel.hello_ack().models.empty());

  uint64_t next_request = 1;
  const auto submit_status = [&](uint64_t model_id, const BatchClaim& claim) {
    WireSubmit submit;
    submit.model_id = model_id;
    submit.claim = WireClaimFromBatchClaim(claim);
    const uint64_t request_id = next_request++;
    EXPECT_TRUE(channel.SendSubmit(request_id, EncodeSubmit(submit)));
    WireSubmitAck ack;
    EXPECT_TRUE(channel.WaitAck(request_id, ack, std::chrono::milliseconds(5000)));
    EXPECT_EQ(ack.ticket, 0u);
    return ack.status;
  };

  EXPECT_EQ(submit_status(registered + 41, claims[0]), WireStatus::kUnknownModel);
  EXPECT_EQ(submit_status(registered, claims[0]), WireStatus::kNotCommitted);
  registry.Commit(registered, *committed.commitment, *committed.thresholds);
  EXPECT_EQ(submit_status(registered, claims[0]), WireStatus::kNotServing);

  gateway.Serve(registered);
  // A fresh attach now lists the served model by name.
  ClientChannel serving_channel("127.0.0.1", port, /*session_id=*/0xBEE2);
  ASSERT_TRUE(serving_channel.ok());
  ASSERT_EQ(serving_channel.hello_ack().models.size(), 1u);
  EXPECT_EQ(serving_channel.hello_ack().models[0].id, registered);
  EXPECT_EQ(serving_channel.hello_ack().models[0].name, committed.model.name);

  // A claim naming a device outside the fleet is a wire-layer reject: it never
  // reaches the gateway.
  WireSubmit alien;
  alien.model_id = registered;
  alien.claim = WireClaimFromBatchClaim(claims[0]);
  alien.claim.proposer_device = "no-such-device";
  EXPECT_TRUE(channel.SendSubmit(next_request, EncodeSubmit(alien)));
  WireSubmitAck alien_ack;
  ASSERT_TRUE(channel.WaitAck(next_request++, alien_ack, std::chrono::milliseconds(5000)));
  EXPECT_EQ(alien_ack.status, WireStatus::kUnknownDevice);

  // A Submit frame whose payload fails the canonical decode is kMalformed.
  const std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  EXPECT_TRUE(channel.SendSubmit(next_request, garbage));
  WireSubmitAck malformed_ack;
  ASSERT_TRUE(channel.WaitAck(next_request++, malformed_ack,
                              std::chrono::milliseconds(5000)));
  EXPECT_EQ(malformed_ack.status, WireStatus::kMalformed);

  gateway.Drain(registered);
  EXPECT_EQ(submit_status(registered, claims[1]), WireStatus::kDraining);
  gateway.Retire(registered);
  EXPECT_EQ(submit_status(registered, claims[1]), WireStatus::kRetired);
}

TEST_F(NetFixture, OverloadSurfacesAsRetriableBackpressure) {
  const CommittedModel& committed = (*models_)[0];
  constexpr size_t kBurst = 24;
  const std::vector<BatchClaim> claims =
      MakeTestClaims(committed.model, kBurst, 0x0bad, 0.0, 0.0);

  ModelRegistry registry;
  GatewayOptions gateway_options;
  gateway_options.rpc.enabled = true;
  ServingGateway gateway(registry, gateway_options);
  const std::vector<ModelId> ids = CommitModels(registry, 1, /*shards=*/1);
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.admission = AdmissionPolicy::kReject;  // shed instead of block
  gateway.Serve(ids[0], options);

  ClientChannel channel("127.0.0.1", gateway.rpc()->port(), /*session_id=*/0xB0B0);
  ASSERT_TRUE(channel.ok());
  // Fire the burst without waiting: the 1-deep service queue cannot hold it, so
  // the surplus must come back as typed kOverloaded — backpressure, not a stall
  // and not a disconnect.
  for (size_t i = 0; i < kBurst; ++i) {
    WireSubmit submit;
    submit.model_id = ids[0];
    submit.claim = WireClaimFromBatchClaim(claims[i]);
    ASSERT_TRUE(channel.SendSubmit(100 + i, EncodeSubmit(submit)));
  }
  size_t accepted = 0;
  size_t overloaded = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    WireSubmitAck ack;
    ASSERT_TRUE(channel.WaitAck(100 + i, ack, std::chrono::milliseconds(30000))) << i;
    if (ack.status == WireStatus::kAccepted) {
      ++accepted;
    } else {
      ASSERT_EQ(ack.status, WireStatus::kOverloaded) << i;
      EXPECT_TRUE(IsRetriableStatus(ack.status));
      ++overloaded;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(overloaded, 0u);
  EXPECT_EQ(accepted + overloaded, kBurst);
  gateway.DrainAll();
}

TEST_F(NetFixture, KilledConnectionsRetryExactlyOnce) {
  const CommittedModel& committed = (*models_)[0];
  constexpr size_t kClaims = 9;
  const std::vector<BatchClaim> claims =
      MakeTestClaims(committed.model, kClaims, 0xdead5, /*cheat_rate=*/0.3,
                     /*supervised_rate=*/0.5);

  ModelRegistry registry;
  GatewayOptions gateway_options;
  gateway_options.rpc.enabled = true;
  ServingGateway gateway(registry, gateway_options);
  const std::vector<ModelId> ids = CommitModels(registry, 1, /*shards=*/2);
  ServiceOptions options;
  options.num_workers = 2;
  gateway.Serve(ids[0], options);

  std::vector<RemoteOutcome> outcomes;
  {
    RetriableChannel channel("127.0.0.1", gateway.rpc()->port(),
                             /*session_id=*/0xFA57);
    for (size_t i = 0; i < kClaims; ++i) {
      uint64_t request_id = 0;
      const WireSubmitAck ack =
          channel.Submit(ids[0], /*submitter=*/7, claims[i], &request_id);
      ASSERT_EQ(ack.status, WireStatus::kAccepted) << "claim " << i;
      // Kill the connection AFTER the ack, BEFORE the verdict: the retry layer
      // must reconnect, resubmit the un-verdicted request, and be answered from
      // the server's dedup cache — never admitted twice.
      if (i % 3 == 1) {
        channel.InjectFaultForTest();
      }
      WireVerdict verdict;
      ASSERT_TRUE(channel.WaitVerdict(request_id, verdict)) << "claim " << i;
      outcomes.push_back({ack.ticket, i, verdict});
    }
    EXPECT_GT(channel.reconnects(), 0);
    EXPECT_GT(channel.resubmissions(), 0);
  }
  gateway.DrainAll();

  // Exactly-once: every claim admitted once (dense tickets, distinct claim ids),
  // and outcomes + ledger bitwise-match the sequential replay of that order —
  // the crash/retry pattern left no trace in the model's history.
  std::set<uint64_t> claim_ids;
  for (const RemoteOutcome& outcome : outcomes) {
    claim_ids.insert(outcome.verdict.claim_id);
  }
  EXPECT_EQ(claim_ids.size(), kClaims);
  ExpectBitwiseEqualToReference(committed, claims, outcomes,
                                registry.coordinator(ids[0]), ids[0], /*shards=*/2,
                                "retry");

  const std::vector<NamedCounter> counters = gateway.rpc()->Counters();
  EXPECT_GT(CounterValue(counters, "net/rpc/dedup_hits"), 0.0);
  EXPECT_EQ(CounterValue(counters, "net/rpc/submits_accepted"),
            static_cast<double>(kClaims));
}

}  // namespace
}  // namespace tao
