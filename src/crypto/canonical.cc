#include "src/crypto/canonical.h"

#include <span>

namespace tao {
namespace {

void AppendHeader(std::vector<uint8_t>& out, const Shape& shape) {
  AppendU32(out, 0);  // dtype tag: 0 = f32
  AppendU32(out, static_cast<uint32_t>(shape.rank()));
  for (const int64_t d : shape.dims()) {
    AppendU64(out, static_cast<uint64_t>(d));
  }
}

std::span<const uint8_t> ElementBytes(const Tensor& tensor) {
  const std::span<const float> values = tensor.values();
  return {reinterpret_cast<const uint8_t*>(values.data()), values.size_bytes()};
}

}  // namespace

void AppendU32(std::vector<uint8_t>& buffer, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    buffer.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void AppendU64(std::vector<uint8_t>& buffer, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    buffer.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void AppendCanonicalBytes(std::vector<uint8_t>& out, const Tensor& tensor) {
  AppendHeader(out, tensor.shape());
  const std::span<const uint8_t> elements = ElementBytes(tensor);
  out.insert(out.end(), elements.begin(), elements.end());
}

std::vector<uint8_t> CanonicalBytes(const Tensor& tensor) {
  std::vector<uint8_t> bytes;
  bytes.reserve(8 + tensor.shape().dims().size() * 8 + ElementBytes(tensor).size());
  AppendCanonicalBytes(bytes, tensor);
  return bytes;
}

Digest HashTensor(const Tensor& tensor) {
  std::vector<uint8_t> header;
  AppendHeader(header, tensor.shape());
  Sha256 ctx;
  ctx.Update(header);
  ctx.Update(ElementBytes(tensor));
  return ctx.Finalize();
}

Digest HashTensorList(const std::vector<Tensor>& tensors) {
  Sha256 ctx;
  for (const Tensor& t : tensors) {
    const Digest d = HashTensor(t);
    ctx.Update(std::span<const uint8_t>(d.data(), d.size()));
  }
  return ctx.Finalize();
}

Digest HashSignature(const std::string& signature) { return Sha256::Hash(signature); }

}  // namespace tao
