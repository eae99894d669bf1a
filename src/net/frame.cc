#include "src/net/frame.h"

#include "src/crypto/canonical.h"
#include "src/device/device.h"
#include "src/durability/framing.h"
#include "src/protocol/batch_verifier.h"
#include "src/protocol/coordinator.h"
#include "src/registry/serving_gateway.h"
#include "src/util/check.h"

namespace tao {
namespace {

// ClaimState's cardinality; a wire final_state at or above this is malformed.
// (Exhaustive-by-count like ToWireStatus below: a new ClaimState bumps this or the
// static_assert in DecodeVerdict's caller-facing contract goes stale loudly.)
constexpr uint32_t kNumClaimStates = 5;
static_assert(static_cast<uint32_t>(ClaimState::kChallengerSlashed) + 1 ==
                  kNumClaimStates,
              "ClaimState grew: update kNumClaimStates and the verdict codec");

bool ReadString(ByteReader& reader, std::string& out) {
  uint32_t length = 0;
  if (!reader.ReadU32(length) || length > kMaxWireStringBytes ||
      length > reader.remaining()) {
    return false;
  }
  out.resize(length);
  return reader.ReadBytes({reinterpret_cast<uint8_t*>(out.data()), length});
}

void AppendString(std::vector<uint8_t>& out, const std::string& value) {
  TAO_CHECK_LE(value.size(), kMaxWireStringBytes) << "wire string too long";
  AppendU32Le(out, static_cast<uint32_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

// Tensor codec: a tensor's wire bytes ARE its canonical bytes (AppendCanonicalBytes,
// src/crypto/canonical.h); decoding adds the bounds that make the codec total on
// hostile input.
bool ReadTensor(ByteReader& reader, Tensor& out) {
  uint32_t dtype = 0;
  uint32_t rank = 0;
  if (!reader.ReadU32(dtype) || dtype != 0 || !reader.ReadU32(rank) ||
      rank > kMaxWireTensorRank) {
    return false;
  }
  std::vector<int64_t> dims(rank);
  uint64_t numel = 1;
  for (uint32_t i = 0; i < rank; ++i) {
    uint64_t dim = 0;
    if (!reader.ReadU64(dim) || dim > kMaxWireTensorElems) {
      return false;
    }
    numel *= dim;  // both factors <= 2^24, so no overflow before the check
    if (numel > kMaxWireTensorElems) {
      return false;
    }
    dims[i] = static_cast<int64_t>(dim);
  }
  // Element storage is validated against the REMAINING bytes before allocating.
  if (numel * sizeof(float) > reader.remaining()) {
    return false;
  }
  // The little-endian element bytes are the storage itself (canonical.h asserts the
  // byte order): one bit-pattern copy, so NaN payloads and signed zeros survive the
  // round trip, which the canonical re-encode property requires.
  std::vector<float> values(numel);
  if (!reader.ReadBytes({reinterpret_cast<uint8_t*>(values.data()), numel * sizeof(float)})) {
    return false;
  }
  out = Tensor(Shape(std::move(dims)), std::move(values));
  return true;
}

void AppendClaim(std::vector<uint8_t>& out, const WireClaim& claim) {
  TAO_CHECK_LE(claim.inputs.size(), kMaxWireClaimInputs);
  TAO_CHECK_LE(claim.perturbations.size(), kMaxWireClaimPerturbations);
  AppendU32Le(out, static_cast<uint32_t>(claim.inputs.size()));
  for (const Tensor& input : claim.inputs) {
    AppendCanonicalBytes(out, input);
  }
  AppendU32Le(out, static_cast<uint32_t>(claim.perturbations.size()));
  for (const WirePerturbation& perturbation : claim.perturbations) {
    AppendI64Le(out, perturbation.node);
    AppendCanonicalBytes(out, perturbation.delta);
  }
  AppendString(out, claim.proposer_device);
  AppendString(out, claim.verifier_device);
}

bool ReadClaim(ByteReader& reader, WireClaim& out) {
  uint32_t num_inputs = 0;
  if (!reader.ReadU32(num_inputs) || num_inputs > kMaxWireClaimInputs) {
    return false;
  }
  out.inputs.resize(num_inputs);
  for (uint32_t i = 0; i < num_inputs; ++i) {
    if (!ReadTensor(reader, out.inputs[i])) {
      return false;
    }
  }
  uint32_t num_perturbations = 0;
  if (!reader.ReadU32(num_perturbations) ||
      num_perturbations > kMaxWireClaimPerturbations) {
    return false;
  }
  out.perturbations.resize(num_perturbations);
  for (uint32_t i = 0; i < num_perturbations; ++i) {
    if (!reader.ReadI64(out.perturbations[i].node) ||
        !ReadTensor(reader, out.perturbations[i].delta)) {
      return false;
    }
  }
  return ReadString(reader, out.proposer_device) &&
         ReadString(reader, out.verifier_device);
}

}  // namespace

const char* WireDecodeStatusName(WireDecodeStatus status) {
  switch (status) {
    case WireDecodeStatus::kOk:
      return "ok";
    case WireDecodeStatus::kTorn:
      return "torn";
    case WireDecodeStatus::kBadMagic:
      return "bad_magic";
    case WireDecodeStatus::kBadVersion:
      return "bad_version";
    case WireDecodeStatus::kBadType:
      return "bad_type";
    case WireDecodeStatus::kBadLength:
      return "bad_length";
    case WireDecodeStatus::kBadCrc:
      return "bad_crc";
  }
  return "unknown";
}

void AppendWireFrame(std::vector<uint8_t>& out, MessageType type,
                     uint64_t request_id, std::span<const uint8_t> payload) {
  TAO_CHECK_LE(payload.size(), static_cast<size_t>(kMaxWirePayloadBytes))
      << "wire payload over the frame ceiling";
  AppendU32Le(out, kWireMagic);
  AppendU32Le(out, kWireVersion);
  AppendU32Le(out, static_cast<uint32_t>(type));
  AppendU64Le(out, request_id);
  const uint32_t length = static_cast<uint32_t>(payload.size());
  AppendU32Le(out, length);
  AppendU32Le(out, length ^ kWireLengthXor);
  AppendU32Le(out, Crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

WireDecodeStatus DecodeWireFrame(std::span<const uint8_t> data, size_t& offset,
                                 WireFrame& frame) {
  TAO_CHECK_LE(offset, data.size());
  const std::span<const uint8_t> tail = data.subspan(offset);
  if (tail.size() < kWireHeaderBytes) {
    return WireDecodeStatus::kTorn;  // a complete header is always intact: wait
  }
  ByteReader reader(tail.first(kWireHeaderBytes));
  uint32_t magic = 0, version = 0, type = 0, length = 0, length_check = 0, crc = 0;
  uint64_t request_id = 0;
  TAO_CHECK(reader.ReadU32(magic) && reader.ReadU32(version) &&
            reader.ReadU32(type) && reader.ReadU64(request_id) &&
            reader.ReadU32(length) && reader.ReadU32(length_check) &&
            reader.ReadU32(crc));
  if (magic != kWireMagic) {
    return WireDecodeStatus::kBadMagic;
  }
  if (version != kWireVersion) {
    return WireDecodeStatus::kBadVersion;
  }
  if (type < static_cast<uint32_t>(MessageType::kHello) ||
      type > static_cast<uint32_t>(MessageType::kGoodbye)) {
    return WireDecodeStatus::kBadType;
  }
  // Full header present, so a length/length_check disagreement can only be
  // corruption — a torn stream shortens the frame, it never rewrites the header.
  if ((length ^ kWireLengthXor) != length_check || length > kMaxWirePayloadBytes) {
    return WireDecodeStatus::kBadLength;
  }
  if (tail.size() < kWireHeaderBytes + length) {
    return WireDecodeStatus::kTorn;  // payload still in flight
  }
  const std::span<const uint8_t> payload = tail.subspan(kWireHeaderBytes, length);
  if (Crc32(payload) != crc) {
    return WireDecodeStatus::kBadCrc;
  }
  frame.type = static_cast<MessageType>(type);
  frame.request_id = request_id;
  frame.payload = payload;
  offset += kWireHeaderBytes + length;
  return WireDecodeStatus::kOk;
}

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kAccepted:
      return "accepted";
    case WireStatus::kUnknownModel:
      return "unknown_model";
    case WireStatus::kNotCommitted:
      return "not_committed";
    case WireStatus::kNotServing:
      return "not_serving";
    case WireStatus::kDraining:
      return "draining";
    case WireStatus::kRetired:
      return "retired";
    case WireStatus::kOverloaded:
      return "overloaded";
    case WireStatus::kMalformed:
      return "malformed";
    case WireStatus::kUnknownDevice:
      return "unknown_device";
    case WireStatus::kCount:
      break;
  }
  return "invalid";
}

bool IsRetriableStatus(WireStatus status) {
  return status == WireStatus::kOverloaded || status == WireStatus::kDraining;
}

WireStatus ToWireStatus(GatewayStatus status) {
  // Compile-time round-trip guarantee: a new GatewayStatus value moves
  // kStatusCount, fails this static_assert, and the exhaustive switch below (no
  // default) draws a -Wswitch warning — the wire mapping can never silently lag
  // the gateway enum.
  static_assert(static_cast<int>(GatewayStatus::kStatusCount) == 7,
                "GatewayStatus changed: extend WireStatus and this mapping");
  switch (status) {
    case GatewayStatus::kAccepted:
      return WireStatus::kAccepted;
    case GatewayStatus::kUnknownModel:
      return WireStatus::kUnknownModel;
    case GatewayStatus::kNotCommitted:
      return WireStatus::kNotCommitted;
    case GatewayStatus::kNotServing:
      return WireStatus::kNotServing;
    case GatewayStatus::kDraining:
      return WireStatus::kDraining;
    case GatewayStatus::kRetired:
      return WireStatus::kRetired;
    case GatewayStatus::kOverloaded:
      return WireStatus::kOverloaded;
    case GatewayStatus::kStatusCount:
      break;
  }
  TAO_CHECK(false) << "invalid GatewayStatus " << static_cast<int>(status);
  return WireStatus::kMalformed;
}

std::vector<uint8_t> EncodeHello(const WireHello& hello) {
  std::vector<uint8_t> out;
  AppendU64Le(out, hello.session_id);
  return out;
}

bool DecodeHello(std::span<const uint8_t> payload, WireHello& out) {
  ByteReader reader(payload);
  return reader.ReadU64(out.session_id) && out.session_id != 0 &&
         reader.exhausted();
}

std::vector<uint8_t> EncodeHelloAck(const WireHelloAck& ack) {
  TAO_CHECK_LE(ack.models.size(), kMaxWireModelEntries);
  std::vector<uint8_t> out;
  AppendU32Le(out, ack.dedup_window);
  AppendU32Le(out, static_cast<uint32_t>(ack.models.size()));
  for (const WireModelEntry& model : ack.models) {
    AppendU64Le(out, model.id);
    AppendString(out, model.name);
  }
  return out;
}

bool DecodeHelloAck(std::span<const uint8_t> payload, WireHelloAck& out) {
  ByteReader reader(payload);
  uint32_t count = 0;
  if (!reader.ReadU32(out.dedup_window) || !reader.ReadU32(count) ||
      count > kMaxWireModelEntries) {
    return false;
  }
  out.models.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!reader.ReadU64(out.models[i].id) ||
        !ReadString(reader, out.models[i].name)) {
      return false;
    }
  }
  return reader.exhausted();
}

std::vector<uint8_t> EncodeSubmit(const WireSubmit& submit) {
  std::vector<uint8_t> out;
  AppendU64Le(out, submit.model_id);
  AppendU64Le(out, submit.submitter);
  AppendClaim(out, submit.claim);
  return out;
}

bool DecodeSubmit(std::span<const uint8_t> payload, WireSubmit& out) {
  ByteReader reader(payload);
  return reader.ReadU64(out.model_id) && reader.ReadU64(out.submitter) &&
         ReadClaim(reader, out.claim) && reader.exhausted();
}

std::vector<uint8_t> EncodeSubmitAck(const WireSubmitAck& ack) {
  TAO_CHECK(ack.status == WireStatus::kAccepted || ack.ticket == 0)
      << "reject acks carry no ticket";
  std::vector<uint8_t> out;
  AppendU32Le(out, static_cast<uint32_t>(ack.status));
  AppendU64Le(out, ack.ticket);
  return out;
}

bool DecodeSubmitAck(std::span<const uint8_t> payload, WireSubmitAck& out) {
  ByteReader reader(payload);
  uint32_t status = 0;
  if (!reader.ReadU32(status) ||
      status >= static_cast<uint32_t>(WireStatus::kCount) ||
      !reader.ReadU64(out.ticket) || !reader.exhausted()) {
    return false;
  }
  out.status = static_cast<WireStatus>(status);
  // Canonical: a reject with a ticket has no encoder, so it has no decoder either.
  return out.status == WireStatus::kAccepted || out.ticket == 0;
}

std::vector<uint8_t> EncodeVerdict(const WireVerdict& verdict) {
  TAO_CHECK_LT(verdict.final_state, kNumClaimStates);
  std::vector<uint8_t> out;
  AppendU64Le(out, verdict.ticket);
  AppendU64Le(out, verdict.claim_id);
  AppendU64Le(out, verdict.model_id);
  out.insert(out.end(), verdict.c0.begin(), verdict.c0.end());
  AppendU32Le(out, verdict.final_state);
  const uint32_t flags = (verdict.supervised ? 1u : 0u) |
                         (verdict.flagged ? 2u : 0u) |
                         (verdict.proposer_guilty ? 4u : 0u);
  AppendU32Le(out, flags);
  AppendI64Le(out, verdict.gas_used);
  return out;
}

bool DecodeVerdict(std::span<const uint8_t> payload, WireVerdict& out) {
  ByteReader reader(payload);
  uint32_t flags = 0;
  if (!reader.ReadU64(out.ticket) || !reader.ReadU64(out.claim_id) ||
      !reader.ReadU64(out.model_id) ||
      !reader.ReadBytes({out.c0.data(), out.c0.size()}) ||
      !reader.ReadU32(out.final_state) || out.final_state >= kNumClaimStates ||
      !reader.ReadU32(flags) || flags > 7 ||  // undefined flag bits must be zero
      !reader.ReadI64(out.gas_used) || !reader.exhausted()) {
    return false;
  }
  out.supervised = (flags & 1u) != 0;
  out.flagged = (flags & 2u) != 0;
  out.proposer_guilty = (flags & 4u) != 0;
  return true;
}

WireClaim WireClaimFromBatchClaim(const BatchClaim& claim) {
  WireClaim wire;
  wire.inputs = claim.inputs;
  wire.perturbations.reserve(claim.perturbations.size());
  for (const Executor::Perturbation& perturbation : claim.perturbations) {
    wire.perturbations.push_back(
        {static_cast<int64_t>(perturbation.node), perturbation.delta});
  }
  if (claim.proposer_device != nullptr) {
    wire.proposer_device = claim.proposer_device->name;
  }
  if (claim.verifier_device != nullptr) {
    wire.verifier_device = claim.verifier_device->name;
  }
  return wire;
}

bool BatchClaimFromWireClaim(const WireClaim& wire, BatchClaim& out) {
  // Fleet scan instead of DeviceRegistry::ByName: ByName aborts on an unknown
  // name, and a remote peer's typo must be a typed reject, not a server crash.
  const auto resolve = [](const std::string& name) -> const DeviceProfile* {
    for (const DeviceProfile& device : DeviceRegistry::Fleet()) {
      if (device.name == name) {
        return &device;
      }
    }
    return nullptr;
  };
  out.inputs = wire.inputs;
  out.perturbations.clear();
  out.perturbations.reserve(wire.perturbations.size());
  for (const WirePerturbation& perturbation : wire.perturbations) {
    Executor::Perturbation converted;
    converted.node = static_cast<NodeId>(perturbation.node);
    converted.delta = perturbation.delta;
    out.perturbations.push_back(std::move(converted));
  }
  out.proposer_device = nullptr;
  out.verifier_device = nullptr;
  if (!wire.proposer_device.empty()) {
    out.proposer_device = resolve(wire.proposer_device);
    if (out.proposer_device == nullptr) {
      return false;
    }
  }
  if (!wire.verifier_device.empty()) {
    out.verifier_device = resolve(wire.verifier_device);
    if (out.verifier_device == nullptr) {
      return false;
    }
  }
  return true;
}

}  // namespace tao
