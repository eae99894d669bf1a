// Model-zoo tests: every mini model builds, executes on every device, produces
// finite outputs of the expected shape, exhibits genuine cross-device low-order
// divergence, and supports end-to-end backprop (required by the attack pipeline).

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/attack/autograd.h"
#include "src/crypto/sha256.h"
#include "src/graph/executor.h"
#include "src/models/model_zoo.h"

namespace tao {
namespace {

class ModelCase : public ::testing::TestWithParam<int> {
 protected:
  Model BuildModel() const {
    switch (GetParam()) {
      case 0:
        return BuildResNetMini();
      case 1:
        return BuildBertMini();
      case 2:
        return BuildQwenMini();
      default:
        return BuildDiffusionMini();
    }
  }
};

TEST_P(ModelCase, ExecutesWithFiniteOutputs) {
  const Model model = BuildModel();
  Rng rng(1000 + GetParam());
  const std::vector<Tensor> input = model.sample_input(rng);
  const Executor exec(*model.graph, DeviceRegistry::Reference());
  const Tensor out = exec.RunOutput(input);
  EXPECT_GT(out.numel(), 0);
  for (const float v : out.values()) {
    EXPECT_TRUE(std::isfinite(v)) << model.name;
  }
}

TEST_P(ModelCase, GraphHasSubstantialOperatorCount) {
  const Model model = BuildModel();
  EXPECT_GE(model.graph->num_ops(), 40) << model.name;
  EXPECT_GT(model.graph->TotalFlops(), 100000) << model.name;
}

TEST_P(ModelCase, CrossDeviceDivergenceSmallButNonzero) {
  const Model model = BuildModel();
  Rng rng(2000 + GetParam());
  const std::vector<Tensor> input = model.sample_input(rng);
  const Executor ref_exec(*model.graph, DeviceRegistry::Reference());
  const Tensor ref = ref_exec.RunOutput(input);
  int differing = 0;
  for (const DeviceProfile& device : DeviceRegistry::Fleet()) {
    const Executor exec(*model.graph, device);
    const Tensor out = exec.RunOutput(input);
    const double diff = MaxAbsDiff(out, ref);
    EXPECT_LT(diff, 1e-2) << model.name << " on " << device.name;
    if (diff > 0.0) {
      ++differing;
    }
  }
  EXPECT_GE(differing, 2) << model.name;
}

TEST_P(ModelCase, DeterministicPerDeviceAndInput) {
  const Model model = BuildModel();
  Rng rng(3000 + GetParam());
  const std::vector<Tensor> input = model.sample_input(rng);
  const Executor exec(*model.graph, DeviceRegistry::ByName("H100"));
  const Tensor a = exec.RunOutput(input);
  const Tensor b = exec.RunOutput(input);
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelCase, ::testing::Range(0, 4));

TEST(ModelZooTest, ClassifierOutputShapes) {
  const Model resnet = BuildResNetMini();
  EXPECT_EQ(resnet.graph->node(resnet.graph->output()).shape,
            Shape({1, resnet.num_classes}));
  const Model bert = BuildBertMini();
  EXPECT_EQ(bert.graph->node(bert.graph->output()).shape, Shape({1, bert.num_classes}));
  const Model qwen = BuildQwenMini();
  EXPECT_EQ(qwen.graph->node(qwen.graph->output()).shape, Shape({1, qwen.num_classes}));
}

TEST(ModelZooTest, DiffusionPreservesLatentShape) {
  const DiffusionConfig config;
  const Model diff = BuildDiffusionMini(config);
  EXPECT_EQ(diff.graph->node(diff.graph->output()).shape,
            Shape({1, config.latent_channels, config.latent_size, config.latent_size}));
}

TEST(ModelZooTest, AttackModelsBackpropagate) {
  for (const Model& model : BuildAttackModels()) {
    Rng rng(4000);
    const std::vector<Tensor> input = model.sample_input(rng);
    const Executor exec(*model.graph, DeviceRegistry::Reference());
    const ExecutionTrace trace = exec.Run(input);
    Tensor seed = Tensor::Zeros(model.graph->node(model.graph->output()).shape);
    seed.mutable_values()[0] = 1.0f;
    const auto grads = BackpropFromOutput(*model.graph, trace, seed);
    // Some mid-graph operator must receive a nonzero gradient.
    int nonzero_nodes = 0;
    for (const NodeId id : model.graph->op_nodes()) {
      for (const float v : grads[static_cast<size_t>(id)].values()) {
        if (v != 0.0f) {
          ++nonzero_nodes;
          break;
        }
      }
    }
    EXPECT_GT(nonzero_nodes, model.graph->num_ops() / 2) << model.name;
  }
}

TEST(ModelZooTest, SampledInputsVaryWithRngState) {
  const Model bert = BuildBertMini();
  Rng rng(5000);
  const std::vector<Tensor> a = bert.sample_input(rng);
  const std::vector<Tensor> b = bert.sample_input(rng);
  EXPECT_GT(MaxAbsDiff(a[0], b[0]), 0.0);
}

// Golden digests pin the exact arithmetic of every fleet profile and the reference:
// SHA-256 over each operator's value and deterministic bound in a full trace, then the
// output of a 4-thread RunOutput that reuses buffers. The constants were computed with
// the one-output-at-a-time DotStrided kernels that preceded DotLanes. The scalar-vs-SIMD
// sweeps cannot see a change that moves the reference DotStrided and a fast path
// together; these digests can, in every build configuration.
std::string GoldenDigest(const Model& model, const DeviceProfile& device) {
  Rng rng(0x901d);
  const std::vector<Tensor> input = model.sample_input(rng);
  const Executor exec(*model.graph, device);
  ExecutorOptions traced;
  traced.with_bounds = true;
  traced.bound_mode = BoundMode::kDeterministic;
  const ExecutionTrace trace = exec.Run(input, traced);
  ExecutorOptions threaded;
  threaded.num_threads = 4;
  threaded.reuse_buffers = true;
  const Tensor output = exec.RunOutput(input, threaded);
  Sha256 sha;
  const auto absorb = [&sha](const auto values) {
    sha.Update(std::span(reinterpret_cast<const uint8_t*>(values.data()), values.size_bytes()));
  };
  for (const NodeId id : model.graph->op_nodes()) {
    absorb(trace.value(id).values());
    absorb(trace.bound(id).values());
  }
  absorb(output.values());
  return DigestToHex(sha.Finalize());
}

TEST(GoldenDigestTest, TracesBoundsAndOutputsMatchPinnedDigests) {
  struct Golden {
    const char* model;
    const char* device;
    const char* digest;
  };
  const Golden kGolden[] = {
      {"bert-mini", "H100", "b71110f1562282c33aa73666a8c63671207fc068ef37dda296b60d4dc02c73b9"},
      {"bert-mini", "A100", "dec413b5acae5e1350f9e7be6c879641d709ccddbf8f982ff23dc705098d3e5f"},
      {"bert-mini", "RTX4090", "eb6d054a59d456562d6f3163833d40d1dae821517dc28ae72ce895ab33bc675a"},
      {"bert-mini", "RTX6000", "3ba585a60d336ae86f501da599a873e3da1cff0011cfb9138d3201ffed15c062"},
      {"bert-mini", "reference", "dec413b5acae5e1350f9e7be6c879641d709ccddbf8f982ff23dc705098d3e5f"},
      {"resnet-mini", "H100", "83befb99270b04d7585237c04a23ab56e93e10df8dbb12cee11a2996efdbe96b"},
      {"resnet-mini", "A100", "cd3edb484a34d60d1ff0e860a06d61ea21ae60cc29f271d2eb77b39fac3fef96"},
      {"resnet-mini", "RTX4090", "a16eb5e4d078fd543c9cf30286acdb3158080f6dbcb06ece98c6d1490d915d3d"},
      {"resnet-mini", "RTX6000", "31694e2710bd2f67a69c07f4e3f83756030bd549f091dd8d3399cb5298773a55"},
      {"resnet-mini", "reference", "0b2ea78933a67807f6fbcc079d12753dcab12a686c12c1b5f14f8d6ae811ef57"},
      {"wide-mlp", "H100", "1bd48184fa948eee84d1d0147d0923a94fb22bdc28d08c89c2c2056bde9f3bd6"},
      {"wide-mlp", "A100", "607c1733699bc5d29fe1897cc7bfc20a347ef46f8181ad6df2a8ba717c2b3d30"},
      {"wide-mlp", "RTX4090", "2d0ab79ef4bbc22d57832167ddd31b353ff294e48976644f5d1e4bb2c5ed1a4c"},
      {"wide-mlp", "RTX6000", "d05e6bb58d4fb79b22f4dc104bcc8ff6a185977f83fcafb55fd49a80e8764461"},
      {"wide-mlp", "reference", "6f187a1dc4fadb8fa6ff58dba1da2387720605c3d8092199a15564158e944990"},
  };
  const std::vector<Model> models = {
      BuildBertMini(), BuildResNetMini(),
      BuildWideMlp(WideMlpConfig{.input_dim = 16384, .hidden_dim = 64, .num_classes = 32})};
  int checked = 0;
  for (const Golden& golden : kGolden) {
    for (const Model& model : models) {
      if (model.name == golden.model) {
        EXPECT_EQ(GoldenDigest(model, DeviceRegistry::ByName(golden.device)), golden.digest)
            << model.name << " on " << golden.device;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 15);
}

TEST(ModelZooTest, BuildersAreDeterministic) {
  const Model a = BuildQwenMini();
  const Model b = BuildQwenMini();
  ASSERT_EQ(a.graph->num_nodes(), b.graph->num_nodes());
  for (const NodeId id : a.graph->param_nodes()) {
    EXPECT_EQ(MaxAbsDiff(a.graph->node(id).value, b.graph->node(id).value), 0.0);
  }
}

}  // namespace
}  // namespace tao
