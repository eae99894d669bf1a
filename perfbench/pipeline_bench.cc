// Layered pipeline benchmark. Drives one workload through tao's public serving
// entry points, the in-process ServingGateway or the loopback RPC wire through
// pre-connected ClientChannels, and prints one JSON result line on stdout.
//
// A run: set up the stack several times (timed: setup_s), warm up with one
// closed-loop pass over the seeded claim pool, then measure a closed loop
// (claims_per_s, per pool pass) and a fixed-rate light open loop over whole
// passes of the pool (every claim timed from its due time). Afterwards,
// outside every timed window, the correctness gate replays each model's
// accepted order through a fresh in-process gateway and compares every outcome
// bitwise.
//
// With --trace 1 the run reports per-layer metrics instead: an untraced closed
// loop and light loop, then the same plus a heavy loop with tao's span stream
// enabled. Server spans are joined to the benchmark's own client spans on
// (model, ticket) and each layer's self time is reported, together with
// replays of single layer calls (codec, phase 1, forward, commitments). The code
// under src/ is only called, never changed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/stats.h"
#include "src/calib/calibrator.h"
#include "src/models/model_zoo.h"
#include "src/net/client_channel.h"
#include "src/net/frame.h"
#include "src/observability/trace.h"
#include "src/protocol/commitment.h"
#include "src/registry/serving_gateway.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Set-ups per run; setup_s is their median (a single set-up of the small
// models takes about 0.1 s, too short to time once).
constexpr int kSetupRepeats = 5;
// Outstanding claims each closed-loop client keeps in flight.
constexpr size_t kWindowPerClient = 8;
constexpr auto kAckTimeout = std::chrono::seconds(20);
constexpr auto kVerdictTimeout = std::chrono::seconds(40);
constexpr int64_t kRateWindowNs = 500'000'000;
// Tolerances of the traced run's accounting check (see LayerMetrics).
constexpr double kMinAttributedFrac = 0.9;
constexpr double kAccountedTolerance = 0.25;

}  // namespace

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string model = "bert";  // main model: "bert" (BERT-mini) or "wide" (WideMlp)
  bool wire = false;           // loopback RPC wire instead of in-process calls
  double cold_frac = 0.0;      // share of claims for a cold ResNet-mini
  double supervised_frac = 0.0;
  double cheat_frac = 0.0;     // share of main-model claims with a perturbation
  bool durable = false;        // coordinator changelog under out_dir
  size_t pool = 64;            // distinct claims, cycled through every phase
  double light_rate = 0.0;     // open-loop claims per second
  double heavy_rate = 0.0;
  double limit_ms = 0.0;       // heavy-phase SLO; also the ceiling on generator lag
  std::string out_dir = ".";
};

namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr, "pipeline_bench: %s\n", problem.c_str());
  std::exit(2);
}

}  // namespace

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + key);
    }
    const std::string value = argv[i + 1];
    if (key == "--workload") cfg.workload = value;
    else if (key == "--seed") cfg.seed = std::stoull(value);
    else if (key == "--seconds") cfg.seconds = std::stod(value);
    else if (key == "--trace") cfg.trace = value == "1";
    else if (key == "--model") cfg.model = value;
    else if (key == "--wire") cfg.wire = value == "1";
    else if (key == "--cold-frac") cfg.cold_frac = std::stod(value);
    else if (key == "--supervised-frac") cfg.supervised_frac = std::stod(value);
    else if (key == "--cheat-frac") cfg.cheat_frac = std::stod(value);
    else if (key == "--durable") cfg.durable = value == "1";
    else if (key == "--pool") cfg.pool = std::stoul(value);
    else if (key == "--light-rate") cfg.light_rate = std::stod(value);
    else if (key == "--heavy-rate") cfg.heavy_rate = std::stod(value);
    else if (key == "--limit-ms") cfg.limit_ms = std::stod(value);
    else if (key == "--out-dir") cfg.out_dir = value;
    else Usage("unknown flag " + key);
  }
  if (cfg.model != "bert" && cfg.model != "wide") Usage("--model must be bert or wide");
  if (cfg.seconds <= 0 || cfg.pool == 0 || cfg.light_rate <= 0 || cfg.heavy_rate <= 0 ||
      cfg.limit_ms <= 0) {
    Usage("--seconds, --pool, --light-rate, --heavy-rate and --limit-ms must be positive");
  }
  return cfg;
}

namespace {

int64_t Now() { return tao::Tracer::NowNs(); }

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Closed-loop clients: two on a host of four or more cores, so that the load
// generator's threads (clients, open-loop sender and receivers) stay within
// nproc and leave the cores to the server.
size_t ClosedClients() {
  return std::clamp<size_t>(std::thread::hardware_concurrency() / 2, 1, 2);
}

// Server options of the historical end-to-end benches: 2 verify workers, pool
// width 4.
tao::ServiceOptions ServerOptions() {
  tao::ServiceOptions options;
  options.num_workers = 2;
  options.batching.initial_hint = 8;
  options.verifier.dispute.num_threads = 4;
  options.verifier.reuse_buffers = true;
  return options;
}

// ---------------------------------------------------------------------------
// The serving stack under test.

struct CommittedModel {
  tao::Model model;
  std::unique_ptr<tao::ThresholdSet> thresholds;
  std::unique_ptr<tao::ModelCommitment> commitment;
};

CommittedModel Commit(tao::Model model) {
  CommittedModel committed;
  committed.model = std::move(model);
  tao::CalibrateOptions options;
  options.num_samples = 3;
  committed.thresholds = std::make_unique<tao::ThresholdSet>(
      tao::Calibrate(committed.model, tao::DeviceRegistry::Fleet(), options)
          .MakeThresholds(3.0));
  committed.commitment = std::make_unique<tao::ModelCommitment>(*committed.model.graph,
                                                                *committed.thresholds);
  return committed;
}

tao::Model MainModel(const Config& cfg) {
  if (cfg.model == "wide") {
    tao::WideMlpConfig wide;
    wide.input_dim = 16384;  // ~64 KB Submit frames, 4 MB of weights
    wide.hidden_dim = 64;
    wide.num_classes = 32;
    return tao::BuildWideMlp(wide);
  }
  return tao::BuildBertMini();
}

// Models, registry, gateway and connections of one set-up. Members tear down in
// reverse order: connections, then the gateway (draining its services), then
// the registry, then the durability directory.
class Stack {
 public:
  Stack() = default;
  ~Stack() {
    channels.clear();
    gateway.reset();
    registry.reset();
    if (!durable_dir.empty()) {
      std::error_code ignored;
      fs::remove_all(durable_dir, ignored);
    }
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::vector<CommittedModel> models;  // [0] main, [1] cold ResNet-mini if present
  std::string durable_dir;
  std::unique_ptr<tao::ModelRegistry> registry;
  std::unique_ptr<tao::ServingGateway> gateway;
  std::vector<tao::ModelId> ids;  // by model slot
  std::vector<std::unique_ptr<tao::ClientChannel>> channels;
};

// Everything setup_s times: calibration, commitment, Serve and connect.
std::unique_ptr<Stack> BuildStack(const Config& cfg, int attempt) {
  auto stack = std::make_unique<Stack>();
  stack->models.push_back(Commit(MainModel(cfg)));
  if (cfg.cold_frac > 0) {
    stack->models.push_back(Commit(tao::BuildResNetMini()));
  }
  tao::GatewayOptions gateway_options;
  gateway_options.rpc.enabled = cfg.wire;
  stack->registry = std::make_unique<tao::ModelRegistry>();
  stack->gateway = std::make_unique<tao::ServingGateway>(*stack->registry, gateway_options);
  tao::ModelCommitConfig commit;
  if (cfg.durable) {
    stack->durable_dir = cfg.out_dir + "/durable-" + std::to_string(::getpid()) + "-" +
                         std::to_string(attempt);
    fs::remove_all(stack->durable_dir);
    fs::create_directories(stack->durable_dir);
    commit.durability.directory = stack->durable_dir;
  }
  for (const CommittedModel& committed : stack->models) {
    const tao::ModelId id = stack->registry->Register(committed.model);
    stack->registry->Commit(id, *committed.commitment, *committed.thresholds, commit);
    stack->gateway->Serve(id, ServerOptions());
    stack->ids.push_back(id);
  }
  if (cfg.wire) {
    const int port = stack->gateway->rpc()->port();
    // One connection per closed-loop client, then one per model for the open loop.
    for (size_t c = 0; c < ClosedClients() + stack->models.size(); ++c) {
      auto channel =
          std::make_unique<tao::ClientChannel>("127.0.0.1", port, 0xBE4C0000 + c + 1);
      if (!channel->ok()) {
        std::fprintf(stderr, "connect to 127.0.0.1:%d failed\n", port);
        std::exit(1);
      }
      stack->channels.push_back(std::move(channel));
    }
  }
  return stack;
}

// ---------------------------------------------------------------------------
// Claims.

struct PoolClaim {
  size_t slot = 0;  // model slot
  tao::BatchClaim claim;
  std::vector<uint8_t> payload;  // encoded Submit, wire workloads only
};

// Exactly round(frac * n) of n positions, chosen by a seeded permutation, so a
// workload's mix does not drift from seed to seed.
std::vector<char> PickShare(tao::Rng& rng, size_t n, double frac) {
  std::vector<char> marked(n, 0);
  const std::vector<size_t> order = rng.Permutation(n);
  const size_t count = std::min(n, static_cast<size_t>(std::llround(frac * n)));
  for (size_t i = 0; i < count; ++i) {
    marked[order[i]] = 1;
  }
  return marked;
}

std::vector<PoolClaim> MakePool(const Config& cfg, const Stack& stack) {
  tao::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  const auto& fleet = tao::DeviceRegistry::Fleet();
  const size_t n = cfg.pool;
  const std::vector<char> cold = PickShare(rng, n, stack.models.size() > 1 ? cfg.cold_frac : 0);
  const std::vector<char> supervised = PickShare(rng, n, cfg.supervised_frac);
  const std::vector<char> cheat = PickShare(rng, n, cfg.cheat_frac);
  // Devices cost very differently (vector-eligible profiles run the AVX2
  // kernels), so they are dealt evenly within each (model, supervised, cheat)
  // stratum: proposer j % F and verifier (j + j / F + shift) % F cover every
  // device pair equally, and every seed gets the same mix.
  const size_t devices = fleet.size();
  std::vector<size_t> proposer(n), verifier(n);
  std::map<int, std::vector<size_t>> strata;
  for (size_t i = 0; i < n; ++i) {
    strata[cold[i] * 4 + supervised[i] * 2 + cheat[i]].push_back(i);
  }
  for (const auto& [key, members] : strata) {
    const size_t shift = rng.NextBounded(devices);
    const std::vector<size_t> order = rng.Permutation(members.size());
    for (size_t j = 0; j < members.size(); ++j) {
      proposer[members[order[j]]] = j % devices;
      verifier[members[order[j]]] = (j + j / devices + shift) % devices;
    }
  }
  // How deep the perturbation sits decides how long its dispute runs, so the
  // cheats' sites are spread evenly over the main model's operators (all but the
  // last): a seeded offset, then one site every sites/cheats operators.
  const tao::Graph& main_graph = *stack.models[0].model.graph;
  const size_t sites = main_graph.num_ops() - 1;
  std::vector<size_t> cheats;
  for (size_t i = 0; i < n; ++i) {
    if (cheat[i] && !cold[i]) cheats.push_back(i);
  }
  std::vector<size_t> site(n, 0);
  {
    const std::vector<size_t> order = rng.Permutation(cheats.size());
    const double offset = rng.NextDouble();
    for (size_t k = 0; k < cheats.size(); ++k) {
      site[cheats[order[k]]] = std::min(
          sites - 1, static_cast<size_t>((static_cast<double>(k) + offset) *
                                         static_cast<double>(sites) /
                                         static_cast<double>(cheats.size())));
    }
  }
  std::vector<PoolClaim> pool(n);
  for (size_t i = 0; i < n; ++i) {
    PoolClaim& entry = pool[i];
    entry.slot = cold[i] ? 1 : 0;
    const tao::Model& model = stack.models[entry.slot].model;
    entry.claim.inputs = model.sample_input(rng);
    entry.claim.proposer_device = &fleet[proposer[i]];
    if (supervised[i]) {
      entry.claim.verifier_device = &fleet[verifier[i]];
    }
    if (cheat[i] && entry.slot == 0) {
      const tao::Graph& graph = *model.graph;
      const tao::NodeId site_node = graph.op_nodes()[site[i]];
      tao::Rng delta_rng(rng.NextU64());
      entry.claim.perturbations.push_back(
          {site_node, tao::Tensor::Randn(graph.node(site_node).shape, delta_rng, 5e-2f)});
    }
    if (cfg.wire) {
      tao::WireSubmit submit;
      submit.model_id = stack.ids[entry.slot];
      submit.claim = tao::WireClaimFromBatchClaim(entry.claim);
      entry.payload = tao::EncodeSubmit(submit);
    }
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Load generation.

struct Verdict {
  uint64_t claim_id = 0;
  tao::Digest c0{};
  uint32_t final_state = 0;
  bool supervised = false;
  bool flagged = false;
  bool guilty = false;
  int64_t gas = 0;

  bool operator==(const Verdict&) const = default;
};

Verdict FromOutcome(const tao::BatchClaimOutcome& o) {
  return {o.claim_id,   o.c0,      static_cast<uint32_t>(o.final_state),
          o.supervised, o.flagged, o.proposer_guilty,
          o.gas_used};
}

Verdict FromWire(const tao::WireVerdict& v) {
  return {v.claim_id, v.c0,      v.final_state,     v.supervised,
          v.flagged,  v.proposer_guilty, v.gas_used};
}

// One claim as the client saw it. Times are tracer-clock nanoseconds, the clock
// tao's own spans use, so client and server spans join without conversion.
struct Sample {
  size_t pool_index = 0;
  size_t slot = 0;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t ack_ns = 0;          // wire: SubmitAck arrived (the sender waits for it)
  int64_t submit_call_ns = 0;  // in-process: time inside ServingGateway::Submit
  int64_t done_ns = 0;         // verdict arrived at the client
  uint64_t ticket = 0;         // the model service's admission sequence
  bool accepted = false;
  bool finished = false;
  Verdict verdict;

  double latency_ms() const { return Ms(done_ns - due_ns); }
};

// In-flight state next to the sample: the wire request id or the ticket.
struct Flight {
  Sample sample;
  uint64_t request_id = 0;
  std::shared_ptr<tao::ClaimTicket> ticket;
};

struct Phase {
  std::string name;
  bool open_loop = false;
  std::vector<Sample> samples;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;  // closed loop: the measurement deadline
  std::vector<double> pass_rates;  // closed loop: claims/s per pool pass
  LagStats lag;
  double cpu_util = 0.0;

  size_t failed() const {
    size_t failed = 0;
    for (const Sample& s : samples) {
      failed += (s.accepted && s.finished) ? 0 : 1;
    }
    return failed;
  }
};

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

class LoadGenerator {
 public:
  LoadGenerator(const Config& cfg, Stack& stack, const std::vector<PoolClaim>& pool)
      : cfg_(cfg), stack_(stack), pool_(pool), request_ids_(stack.channels.size(), 0) {}

  // Closed loop: ClosedClients() clients (one connection each on the wire), each
  // keeping kWindowPerClient claims outstanding. With `pool_once` the clients
  // share one pass over the pool (the warm-up); otherwise they cycle the pool
  // from its first claim until `seconds` elapse and then drain.
  Phase RunClosed(const std::string& name, double seconds, bool pool_once) {
    Phase phase;
    phase.name = name;
    const size_t clients = ClosedClients();
    std::atomic<size_t> issued{0};
    std::atomic<size_t> next_pool{0};
    std::mutex mu;
    const double cpu_begin = CpuSeconds();
    phase.begin_ns = Now();
    phase.end_ns = phase.begin_ns + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::deque<Flight> inflight;
        std::vector<Sample> local;
        const auto send_next = [&] {
          size_t index;
          if (pool_once) {
            index = issued.fetch_add(1);
            if (index >= pool_.size()) return;
          } else {
            if (Now() >= phase.end_ns) return;
            index = next_pool.fetch_add(1) % pool_.size();
          }
          inflight.emplace_back();
          Flight& flight = inflight.back();
          flight.sample.pool_index = index;
          flight.sample.due_ns = Now();
          Send(flight, c, c);
        };
        for (size_t i = 0; i < kWindowPerClient; ++i) send_next();
        while (!inflight.empty()) {
          Flight& flight = inflight.front();
          Complete(flight, c);
          local.push_back(flight.sample);
          inflight.pop_front();
          send_next();
        }
        std::lock_guard<std::mutex> lock(mu);
        phase.samples.insert(phase.samples.end(), local.begin(), local.end());
      });
    }
    for (std::thread& t : threads) t.join();
    const int64_t joined_ns = Now();
    if (pool_once) {
      phase.end_ns = joined_ns;
    }
    const double wall = Ms(joined_ns - phase.begin_ns) / 1e3;
    phase.cpu_util = (CpuSeconds() - cpu_begin) / (std::max(wall, 1e-9) *
                                                   std::thread::hardware_concurrency());
    // Throughput per pool pass: each block of pool-size completions before the
    // deadline holds (nearly) every pool claim once, so every block is timed
    // over the same cost mix. A phase shorter than one pass is timed as a whole.
    std::vector<int64_t> done;
    for (const Sample& s : phase.samples) {
      if (s.finished && s.done_ns <= phase.end_ns) done.push_back(s.done_ns);
    }
    const size_t block = std::min(pool_.size(), std::max<size_t>(done.size(), 2) - 1);
    phase.pass_rates = BlockRates(std::move(done), block);
    return phase;
  }

  // Open loop at a fixed rate: one sender thread follows the seeded schedule;
  // verdicts are stamped by one receiver per connection (wire) or by the
  // ticket's delivery callback (in-process). The phase sends the whole passes
  // over the pool, from its first claim, that come closest to `seconds`, so it
  // always measures the same claim mix.
  Phase RunOpen(const std::string& name, double rate, double seconds, uint64_t tag) {
    Phase phase;
    phase.name = name;
    phase.open_loop = true;
    const size_t passes = std::max<size_t>(
        1, static_cast<size_t>(std::llround(rate * seconds / static_cast<double>(pool_.size()))));
    const size_t count = passes * pool_.size();
    const std::vector<int64_t> schedule = OpenLoopSchedule(cfg_.seed * 1000003 + tag, rate, count);
    std::vector<Flight> flights(count);

    // Wire lanes: one connection and receiver per model, after the closed-loop
    // clients' connections, so each lane's verdicts arrive in send order.
    std::vector<size_t> lanes;
    for (size_t slot = 0; cfg_.wire && slot < stack_.models.size(); ++slot) {
      lanes.push_back(ClosedClients() + slot);
    }
    struct LaneQueue {
      std::mutex mu;
      std::condition_variable cv;
      std::deque<size_t> pending;
      bool closed = false;
    };
    std::vector<LaneQueue> queues(lanes.size());
    std::vector<std::thread> receivers;
    for (size_t l = 0; l < lanes.size(); ++l) {
      receivers.emplace_back([&, l] {
        LaneQueue& q = queues[l];
        for (;;) {
          size_t index;
          {
            std::unique_lock<std::mutex> lock(q.mu);
            q.cv.wait(lock, [&] { return q.closed || !q.pending.empty(); });
            if (q.pending.empty()) return;
            index = q.pending.front();
            q.pending.pop_front();
          }
          Complete(flights[index], lanes[l]);
        }
      });
    }
    std::atomic<size_t> delivered{0};
    size_t awaiting_callbacks = 0;

    phase.begin_ns = Now() + 5'000'000;
    const auto origin = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(phase.begin_ns - Now());
    std::vector<int64_t> due(count);
    std::vector<int64_t> sent(count);
    for (size_t i = 0; i < count; ++i) {
      std::this_thread::sleep_until(origin + std::chrono::nanoseconds(schedule[i]));
      Flight& flight = flights[i];
      flight.sample.pool_index = i % pool_.size();
      flight.sample.due_ns = phase.begin_ns + schedule[i];
      const size_t slot = pool_[flight.sample.pool_index].slot;
      if (cfg_.wire) {
        Send(flight, lanes[slot], 0);
        due[i] = flight.sample.due_ns;
        sent[i] = flight.sample.sent_ns;
        {
          std::lock_guard<std::mutex> lock(queues[slot].mu);
          queues[slot].pending.push_back(i);
        }
        queues[slot].cv.notify_one();
      } else {
        Send(flight, 0, 0);
        due[i] = flight.sample.due_ns;
        sent[i] = flight.sample.sent_ns;
        if (flight.ticket != nullptr) {
          ++awaiting_callbacks;
          Sample* sample = &flight.sample;
          flight.ticket->OnDelivered([sample, &delivered](const tao::BatchClaimOutcome& o) {
            sample->done_ns = Now();
            sample->verdict = FromOutcome(o);
            sample->finished = true;
            delivered.fetch_add(1, std::memory_order_release);
          });
        }
      }
    }
    phase.end_ns = Now();
    for (LaneQueue& q : queues) {
      {
        std::lock_guard<std::mutex> lock(q.mu);
        q.closed = true;
      }
      q.cv.notify_one();
    }
    for (std::thread& t : receivers) t.join();
    const int64_t give_up = Now() + static_cast<int64_t>(kVerdictTimeout.count()) * 1'000'000'000;
    while (delivered.load(std::memory_order_acquire) < awaiting_callbacks && Now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (delivered.load(std::memory_order_acquire) < awaiting_callbacks) {
      std::fprintf(stderr, "%s: verdicts still missing after the timeout\n", name.c_str());
      std::exit(1);  // callbacks still hold pointers into `flights`
    }
    phase.lag = SummarizeLag(due, sent);
    for (Flight& flight : flights) {
      phase.samples.push_back(flight.sample);
    }
    return phase;
  }

 private:
  // Submits the flight's pool claim and returns once it is admitted: on
  // `channel` over the wire (Submit frame, then its SubmitAck, as
  // RetriableChannel::Submit does), or through the gateway in-process. Stamps
  // the send time and the admission time.
  void Send(Flight& flight, size_t channel, uint64_t submitter) {
    Sample& s = flight.sample;
    const PoolClaim& entry = pool_[s.pool_index];
    s.slot = entry.slot;
    s.sent_ns = Now();
    if (cfg_.wire) {
      tao::ClientChannel& ch = *stack_.channels[channel];
      flight.request_id = ++request_ids_[channel];
      tao::WireSubmitAck ack;
      if (!ch.SendSubmit(flight.request_id, entry.payload) ||
          !ch.WaitAck(flight.request_id, ack, kAckTimeout)) {
        flight.request_id = 0;
        return;
      }
      s.ack_ns = Now();
      s.accepted = ack.status == tao::WireStatus::kAccepted;
      s.ticket = ack.ticket;
      return;
    }
    tao::GatewaySubmitResult result =
        stack_.gateway->Submit(stack_.ids[entry.slot], entry.claim, submitter);
    s.submit_call_ns = Now() - s.sent_ns;
    s.accepted = result.accepted();
    if (s.accepted) {
      s.ticket = result.ticket->sequence();
      flight.ticket = std::move(result.ticket);
    }
  }

  // Blocks until the flight's verdict arrived (or failed) and records it.
  void Complete(Flight& flight, size_t channel) {
    Sample& s = flight.sample;
    if (!cfg_.wire) {
      if (flight.ticket != nullptr) {
        s.verdict = FromOutcome(flight.ticket->Wait());
        s.done_ns = Now();
        s.finished = true;
      }
      return;
    }
    if (flight.request_id == 0 || !s.accepted) {
      return;  // the send failed or the claim was rejected
    }
    tao::WireVerdict verdict;
    if (stack_.channels[channel]->WaitVerdict(flight.request_id, verdict, kVerdictTimeout)) {
      s.done_ns = Now();
      s.verdict = FromWire(verdict);
      s.finished = true;
    }
  }

  const Config& cfg_;
  Stack& stack_;
  const std::vector<PoolClaim>& pool_;
  std::vector<uint64_t> request_ids_;  // per channel; one thread at a time each
};

// ---------------------------------------------------------------------------
// Correctness gate: every model's accepted order, replayed through a fresh
// in-process gateway, must reproduce every outcome bitwise. Returns the replay
// outcomes by [slot][ticket] (they carry the full dispute statistics).

struct GateResult {
  bool ok = true;
  std::vector<std::vector<tao::BatchClaimOutcome>> outcomes;
};

GateResult RunGate(const Stack& stack, const std::vector<PoolClaim>& pool,
                   const std::vector<const Phase*>& phases) {
  GateResult gate;
  tao::ModelRegistry registry;
  tao::ServingGateway gateway(registry);
  std::vector<std::vector<const Sample*>> order(stack.models.size());
  for (const Phase* phase : phases) {
    for (const Sample& s : phase->samples) {
      if (s.accepted && s.finished) order[s.slot].push_back(&s);
    }
  }
  std::vector<std::vector<std::shared_ptr<tao::ClaimTicket>>> tickets(stack.models.size());
  for (size_t slot = 0; slot < stack.models.size(); ++slot) {
    const CommittedModel& committed = stack.models[slot];
    const tao::ModelId id = registry.Register(committed.model);
    if (id != stack.ids[slot]) {
      std::fprintf(stderr, "gate: replay model id %llu != %llu\n",
                   static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(stack.ids[slot]));
      gate.ok = false;
      return gate;
    }
    registry.Commit(id, *committed.commitment, *committed.thresholds);
    gateway.Serve(id, ServerOptions());
    std::sort(order[slot].begin(), order[slot].end(),
              [](const Sample* a, const Sample* b) { return a->ticket < b->ticket; });
    for (size_t i = 0; i < order[slot].size(); ++i) {
      if (order[slot][i]->ticket != i) {
        std::fprintf(stderr, "gate: model slot %zu accepted order not dense at %zu\n", slot, i);
        gate.ok = false;
        return gate;
      }
      tao::GatewaySubmitResult result =
          gateway.Submit(id, pool[order[slot][i]->pool_index].claim);
      if (!result.accepted()) {
        std::fprintf(stderr, "gate: replay rejected ticket %zu\n", i);
        gate.ok = false;
        return gate;
      }
      tickets[slot].push_back(std::move(result.ticket));
    }
  }
  gateway.DrainAll();
  gate.outcomes.resize(stack.models.size());
  for (size_t slot = 0; slot < stack.models.size(); ++slot) {
    for (size_t i = 0; i < tickets[slot].size(); ++i) {
      const tao::BatchClaimOutcome& want = tickets[slot][i]->Wait();
      if (FromOutcome(want) != order[slot][i]->verdict || want.model != stack.ids[slot]) {
        std::fprintf(stderr, "gate: MISMATCH model slot %zu ticket %zu\n", slot, i);
        gate.ok = false;
      }
      gate.outcomes[slot].push_back(want);
    }
  }
  return gate;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<double> Latencies(const Phase& phase) {
  std::vector<double> ms;
  for (const Sample& s : phase.samples) {
    if (s.finished) ms.push_back(s.latency_ms());
  }
  return ms;
}

// Median pool-pass rate: one stalled or lucky pass does not move it.
double ClaimsPerSecond(const Phase& closed) { return Percentile(closed.pass_rates, 0.5); }

void PrintPhase(const Phase& phase) {
  if (!phase.pass_rates.empty()) {
    std::fprintf(stderr, "  %-14s claims/s by pool pass:", phase.name.c_str());
    for (const double rate : phase.pass_rates) std::fprintf(stderr, " %.0f", rate);
    std::fprintf(stderr, "\n");
  }
  if (phase.open_loop) {
    std::map<int64_t, std::vector<double>> by_window;
    for (const Sample& s : phase.samples) {
      if (s.finished) by_window[(s.due_ns - phase.begin_ns) / kRateWindowNs].push_back(s.latency_ms());
    }
    std::fprintf(stderr, "  %-14s p50 ms by window:", phase.name.c_str());
    for (const auto& [window, ms] : by_window) std::fprintf(stderr, " %.1f", Percentile(ms, 0.5));
    std::fprintf(stderr, "\n");
  }
  const std::vector<double> ms = Latencies(phase);
  const double q = SupportedTailPercentile(ms.size());
  std::fprintf(stderr,
               "  %-14s attempted %5zu  succeeded %5zu  failed %3zu  p50 %8.3f  p90 %8.3f  "
               "p%.4g %8.3f ms  lag p99 %.3f max %.3f ms\n",
               phase.name.c_str(), phase.samples.size(), phase.samples.size() - phase.failed(),
               phase.failed(), Percentile(ms, 0.5), Percentile(ms, 0.9), q * 100,
               Percentile(ms, q), phase.lag.p99_ms, phase.lag.max_ms);
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

template <typename Fn>
double MedianMicros(int repeats, Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < repeats; ++i) {
    const int64_t begin = Now();
    fn();
    us.push_back(static_cast<double>(Now() - begin) / 1e3);
  }
  return Percentile(us, 0.5);
}

// ---------------------------------------------------------------------------
// Per-layer attribution of traced claims.

// The layer of a claim's time that no span covers.
constexpr char kUnattributed[] = "unattributed";

const std::vector<std::string>& LayerNames() {
  static const std::vector<std::string> names = {
      "loadgen",       "net",             "registry",             "service.admit",
      "service.queue", "protocol.phase1", "service.resolve_wait", "protocol.resolve",
      "service.deliver", kUnattributed};
  return names;
}

struct NamedSpan {
  std::string name;
  const char* layer;
  Span span;
};

// How each server span kind joins a claim's tree: its name, the layer its self
// time counts toward, and the kind it nests under (itself = under the root).
// Parents come first.
struct KindInfo {
  tao::SpanKind kind;
  const char* name;
  const char* layer;
  tao::SpanKind parent;
};
constexpr KindInfo kKinds[] = {
    {tao::SpanKind::kSubmit, "service.admit", "service.admit", tao::SpanKind::kSubmit},
    {tao::SpanKind::kQueueWait, "service.queue_wait", "service.queue", tao::SpanKind::kQueueWait},
    {tao::SpanKind::kPhase1, "protocol.phase1", "protocol.phase1", tao::SpanKind::kPhase1},
    {tao::SpanKind::kResolveWait, "service.resolve_wait", "service.resolve_wait",
     tao::SpanKind::kResolveWait},
    {tao::SpanKind::kResolve, "protocol.resolve", "protocol.resolve", tao::SpanKind::kResolve},
    {tao::SpanKind::kDeliver, "service.deliver", "service.deliver", tao::SpanKind::kDeliver},
    {tao::SpanKind::kBatchForm, "service.batch_form", "service.queue", tao::SpanKind::kQueueWait},
    {tao::SpanKind::kThresholdCheck, "protocol.threshold_check", "protocol.phase1",
     tao::SpanKind::kPhase1},
    {tao::SpanKind::kDisputeRound, "protocol.dispute_round", "protocol.resolve",
     tao::SpanKind::kResolve},
};

// A claim's span tree: the benchmark's own spans (root = due -> verdict at the
// client, the generator's lag, the in-process gateway call) with the server's
// spans for the same (model, ticket) hung under them. On the wire two client
// spans bound the network: send -> the server's admission begins, and the
// server's delivery ends -> verdict at the client. What no span covers, the
// root's own residual, is hand-off time between stages: kUnattributed.
std::vector<NamedSpan> ClaimTree(const Sample& s, bool wire,
                                 const std::vector<tao::SpanRecord>& server) {
  std::vector<NamedSpan> tree;
  tree.push_back({"claim", kUnattributed, {-1, s.due_ns, s.done_ns}});
  tree.push_back({"loadgen.lag", "loadgen", {0, s.due_ns, s.sent_ns}});
  int admit_parent = 0;
  if (!wire) {
    admit_parent = static_cast<int>(tree.size());
    tree.push_back({"registry.submit", "registry", {0, s.sent_ns, s.sent_ns + s.submit_call_ns}});
  }
  std::map<tao::SpanKind, int> index;
  for (const KindInfo& info : kKinds) {
    for (const tao::SpanRecord& r : server) {
      if (r.kind != info.kind) continue;
      int parent = info.kind == tao::SpanKind::kSubmit ? admit_parent : 0;
      if (info.parent != info.kind && index.count(info.parent) > 0) parent = index[info.parent];
      index[info.kind] = static_cast<int>(tree.size());
      tree.push_back({info.name, info.layer, {parent, r.begin_ns, r.end_ns}});
    }
  }
  if (wire && index.count(tao::SpanKind::kSubmit) > 0) {
    const int64_t admitted = tree[static_cast<size_t>(index[tao::SpanKind::kSubmit])].span.begin_ns;
    tree.push_back({"net.request", "net", {0, s.sent_ns, admitted}});
  }
  if (wire && index.count(tao::SpanKind::kDeliver) > 0) {
    const int64_t delivered = tree[static_cast<size_t>(index[tao::SpanKind::kDeliver])].span.end_ns;
    tree.push_back({"net.verdict", "net", {0, delivered, s.done_ns}});
  }
  return tree;
}

std::vector<int64_t> TreeSelfTimes(const std::vector<NamedSpan>& tree) {
  std::vector<Span> spans;
  for (const NamedSpan& named : tree) spans.push_back(named.span);
  return SelfTimes(spans);
}

using SpanKey = std::pair<uint64_t, uint64_t>;  // (model id, ticket)

std::map<SpanKey, std::vector<tao::SpanRecord>> GroupSpans(
    const std::vector<tao::SpanRecord>& spans) {
  std::map<SpanKey, std::vector<tao::SpanRecord>> by_claim;
  for (const tao::SpanRecord& r : spans) by_claim[{r.model, r.sequence}].push_back(r);
  return by_claim;
}

// Durations (ms) of every server span of `kind` belonging to the phase's claims,
// optionally filtered on the span's detail field.
std::vector<double> KindDurations(const Phase& phase, const Stack& stack,
                                  const std::map<SpanKey, std::vector<tao::SpanRecord>>& spans,
                                  tao::SpanKind kind, int64_t detail = -1) {
  std::vector<double> ms;
  for (const Sample& s : phase.samples) {
    if (!s.accepted) continue;
    const auto it = spans.find({stack.ids[s.slot], s.ticket});
    if (it == spans.end()) continue;
    for (const tao::SpanRecord& r : it->second) {
      if (r.kind == kind && (detail < 0 || r.detail == detail)) {
        ms.push_back(Ms(r.end_ns - r.begin_ns));
      }
    }
  }
  return ms;
}

// Self time per layer summed over a phase's claims.
struct Breakdown {
  std::map<std::string, double> layer_ns;
  std::vector<double> attributed_ms;  // per claim: self time of its named layers
  double attributed_ns = 0;           // self time of named layers (all but unattributed)
  double total_ns = 0;
  size_t joined = 0;  // claims whose chain has phase1, resolve and deliver spans
  size_t claims = 0;

  double MeanMs(const std::string& layer) const {
    const auto it = layer_ns.find(layer);
    return claims > 0 && it != layer_ns.end() ? it->second / 1e6 / claims : 0.0;
  }
};

Breakdown BreakDown(const Phase& phase, const Stack& stack, bool wire,
                    const std::map<SpanKey, std::vector<tao::SpanRecord>>& spans) {
  Breakdown b;
  for (const Sample& s : phase.samples) {
    if (!s.finished) continue;
    ++b.claims;
    const auto it = spans.find({stack.ids[s.slot], s.ticket});
    if (it == spans.end()) continue;
    const std::vector<NamedSpan> tree = ClaimTree(s, wire, it->second);
    const std::vector<int64_t> self = TreeSelfTimes(tree);
    bool has_phase1 = false, has_resolve = false, has_deliver = false;
    int64_t sum = 0, attributed = 0;
    for (size_t i = 0; i < tree.size(); ++i) {
      b.layer_ns[tree[i].layer] += static_cast<double>(self[i]);
      sum += self[i];
      attributed += tree[i].layer == std::string(kUnattributed) ? 0 : self[i];
      has_phase1 |= tree[i].name == "protocol.phase1";
      has_resolve |= tree[i].name == "protocol.resolve";
      has_deliver |= tree[i].name == "service.deliver";
    }
    b.joined += (has_phase1 && has_resolve && has_deliver) ? 1 : 0;
    b.attributed_ms.push_back(Ms(attributed));
    b.total_ns += static_cast<double>(sum);
    b.attributed_ns += static_cast<double>(attributed);
  }
  return b;
}

// Spans of every traced claim, one JSON object a line, written at exit.
void WriteSpans(const std::string& path, const std::vector<const Phase*>& phases,
                const Stack& stack, bool wire,
                const std::map<SpanKey, std::vector<tao::SpanRecord>>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  for (const Phase* phase : phases) {
    for (const Sample& s : phase->samples) {
      if (!s.finished) continue;
      const tao::ModelId model = stack.ids[s.slot];
      const auto it = spans.find({model, s.ticket});
      const std::vector<NamedSpan> tree =
          ClaimTree(s, wire, it == spans.end() ? std::vector<tao::SpanRecord>{} : it->second);
      const std::vector<int64_t> self = TreeSelfTimes(tree);
      for (size_t i = 0; i < tree.size(); ++i) {
        std::fprintf(file,
                     "{\"phase\": \"%s\", \"claim\": \"%llu:%llu\", \"span\": %zu, \"name\": "
                     "\"%s\", \"parent\": %d, \"begin_ns\": %lld, \"end_ns\": %lld, "
                     "\"self_ns\": %lld}\n",
                     phase->name.c_str(), static_cast<unsigned long long>(model),
                     static_cast<unsigned long long>(s.ticket), i, tree[i].name.c_str(),
                     tree[i].span.parent, static_cast<long long>(tree[i].span.begin_ns),
                     static_cast<long long>(tree[i].span.end_ns),
                     static_cast<long long>(self[i]));
      }
    }
  }
  std::fclose(file);
}

// Drains tao's span rings often enough that none overflows while tracing is on.
class SpanDrainer {
 public:
  SpanDrainer() : thread_([this] { Loop(); }) {}
  ~SpanDrainer() { Stop(); }
  SpanDrainer(const SpanDrainer&) = delete;
  SpanDrainer& operator=(const SpanDrainer&) = delete;

  std::vector<tao::SpanRecord> Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    tao::Tracer::Get().Drain(spans_);
    return std::move(spans_);
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(10));
      tao::Tracer::Get().Drain(spans_);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<tao::SpanRecord> spans_;  // guarded by mu_ while the thread runs
  std::thread thread_;
};

// Per-layer metrics of a traced run (see BENCHMARK.json and
// perfbench/workloads.json for the layer -> end-to-end map).
std::vector<Metric> LayerMetrics(const Config& cfg, const Stack& stack,
                                 const std::vector<PoolClaim>& pool, const Phase& warmup,
                                 const Phase& closed_untraced, const Phase& light_untraced,
                                 const Phase& closed_traced, const Phase& light_traced,
                                 const Phase& heavy_traced, const GateResult& gate,
                                 const std::vector<tao::SpanRecord>& raw_spans,
                                 const tao::GatewaySnapshot& snapshot) {
  std::vector<Metric> m;
  const auto spans = GroupSpans(raw_spans);
  const CommittedModel& main = stack.models[0];
  const PoolClaim* probe = &pool[0];
  for (const PoolClaim& entry : pool) {
    if (entry.slot == 0) {
      probe = &entry;
      break;
    }
  }

  // net: the sender waits for each SubmitAck itself, so no verdict wait delays it.
  std::vector<double> ack_ms;
  for (const Sample& s : light_traced.samples) {
    if (s.accepted) ack_ms.push_back(cfg.wire ? Ms(s.ack_ns - s.sent_ns) : Ms(s.submit_call_ns));
  }
  m.push_back({"net.submit_ack_ms.p50", Percentile(ack_ms, 0.5), "ms"});
  tao::WireSubmit submit;
  submit.model_id = stack.ids[0];
  submit.claim = tao::WireClaimFromBatchClaim(probe->claim);
  const int codec_repeats = cfg.model == "wide" ? 60 : 400;
  std::vector<uint8_t> frame;
  m.push_back({"net.encode_us", MedianMicros(codec_repeats, [&] {
                 frame.clear();
                 tao::AppendWireFrame(frame, tao::MessageType::kSubmit, 1,
                                      tao::EncodeSubmit(submit));
               }), "us"});
  bool decoded = true;
  m.push_back({"net.decode_us", MedianMicros(codec_repeats, [&] {
                 size_t offset = 0;
                 tao::WireFrame wire_frame;
                 tao::WireSubmit out;
                 tao::BatchClaim claim;
                 decoded &= tao::DecodeWireFrame(frame, offset, wire_frame) ==
                                tao::WireDecodeStatus::kOk &&
                            tao::DecodeSubmit(wire_frame.payload, out) &&
                            tao::BatchClaimFromWireClaim(out.claim, claim);
               }), "us"});
  if (!decoded) {
    std::fprintf(stderr, "codec replay failed to decode its own frame\n");
    std::exit(1);
  }
  double bytes = 0;
  for (const PoolClaim& entry : pool) {
    bytes += static_cast<double>(entry.payload.empty() ? 0
                                                       : entry.payload.size() + tao::kWireHeaderBytes);
  }
  m.push_back({"net.bytes_per_claim", bytes / static_cast<double>(pool.size()), "B"});

  // registry
  std::vector<double> submit_us;
  for (const Phase* phase : {&light_traced, &heavy_traced}) {
    if (cfg.wire) {
      for (const double ms : KindDurations(*phase, stack, spans, tao::SpanKind::kSubmit)) {
        submit_us.push_back(ms * 1e3);
      }
    } else {
      for (const Sample& s : phase->samples) submit_us.push_back(s.submit_call_ns / 1e3);
    }
  }
  m.push_back({"registry.submit_us.p50", Percentile(submit_us, 0.5), "us"});
  double budget_total = 0;
  for (const auto& model : snapshot.models) budget_total += model.memory_budget_bytes;
  m.push_back({"registry.budget_share.hot",
               budget_total > 0 ? snapshot.models[0].memory_budget_bytes / budget_total : 0,
               "fraction"});

  // service
  const auto heavy = [&](tao::SpanKind kind) {
    return KindDurations(heavy_traced, stack, spans, kind);
  };
  const tao::MetricsSnapshot& service = snapshot.models[0].service;
  m.push_back({"service.queue_wait_ms.p50", Percentile(heavy(tao::SpanKind::kQueueWait), 0.5), "ms"});
  m.push_back({"service.queue_wait_ms.p99", Percentile(heavy(tao::SpanKind::kQueueWait), 0.99), "ms"});
  m.push_back({"service.batch_size.mean",
               service.batches_dispatched > 0
                   ? static_cast<double>(service.completed) / service.batches_dispatched
                   : 0,
               "claims"});
  m.push_back({"service.resolve_wait_ms.p50", Percentile(heavy(tao::SpanKind::kResolveWait), 0.5), "ms"});
  m.push_back({"service.resolve_wait_ms.p99", Percentile(heavy(tao::SpanKind::kResolveWait), 0.99), "ms"});
  m.push_back({"service.deliver_park_ms.p99", Percentile(heavy(tao::SpanKind::kDeliver), 0.99), "ms"});
  m.push_back({"service.peak_queue_depth", static_cast<double>(service.peak_queue_depth), "claims"});

  // protocol, phase 1: replay ExecutePhase1 at the traced median cohort size.
  std::vector<double> cohort;
  for (const Phase* phase : {&closed_traced, &light_traced, &heavy_traced}) {
    for (const Sample& s : phase->samples) {
      const auto it = spans.find({stack.ids[s.slot], s.ticket});
      if (s.slot != 0 || it == spans.end()) continue;
      for (const tao::SpanRecord& r : it->second) {
        if (r.kind == tao::SpanKind::kPhase1) cohort.push_back(static_cast<double>(r.detail));
      }
    }
  }
  const size_t cohort_size = std::max<size_t>(1, static_cast<size_t>(Percentile(cohort, 0.5)));
  std::vector<tao::BatchClaim> cohort_claims;
  for (size_t i = 0; cohort_claims.size() < cohort_size; ++i) {
    if (pool[i % pool.size()].slot == 0) cohort_claims.push_back(pool[i % pool.size()].claim);
  }
  {
    tao::Coordinator coordinator;
    tao::BatchVerifier verifier(main.model, *main.commitment, *main.thresholds, coordinator,
                                ServerOptions().verifier);
    const int repeats = cfg.model == "wide" ? 10 : 20;
    m.push_back({"protocol.phase1_ms.per_claim",
                 MedianMicros(repeats, [&] { verifier.ExecutePhase1(cohort_claims); }) / 1e3 /
                     static_cast<double>(cohort_size),
                 "ms"});
  }
  std::vector<double> checks;
  for (const Phase* phase : {&closed_traced, &light_traced, &heavy_traced}) {
    const std::vector<double> ms = KindDurations(*phase, stack, spans, tao::SpanKind::kThresholdCheck);
    checks.insert(checks.end(), ms.begin(), ms.end());
  }
  m.push_back({"protocol.threshold_check_ms", Mean(checks), "ms"});

  // graph
  const tao::Executor executor(*main.model.graph, *probe->claim.proposer_device);
  m.push_back({"graph.forward_ms",
               MedianMicros(cfg.model == "wide" ? 10 : 40,
                            [&] { executor.RunOutput(probe->claim.inputs); }) / 1e3,
               "ms"});

  // protocol, resolve
  std::vector<double> happy, disputed;
  for (const Phase* phase : {&closed_traced, &light_traced, &heavy_traced}) {
    const auto h = KindDurations(*phase, stack, spans, tao::SpanKind::kResolve, 0);
    const auto d = KindDurations(*phase, stack, spans, tao::SpanKind::kResolve, 1);
    happy.insert(happy.end(), h.begin(), h.end());
    disputed.insert(disputed.end(), d.begin(), d.end());
  }
  m.push_back({"protocol.resolve_ms.happy.p50", Percentile(happy, 0.5), "ms"});
  m.push_back({"protocol.resolve_ms.dispute.p50", Percentile(disputed, 0.5), "ms"});
  // Dispute statistics of the pool's claims (the warm-up pass covers the pool
  // exactly once), read from the replay outcomes: deterministic for a seed.
  std::vector<double> rounds, children, partition, selection, dcr;
  double guilty = 0;
  for (const Sample& s : warmup.samples) {
    if (!s.accepted) continue;
    const tao::BatchClaimOutcome& o = gate.outcomes[s.slot][s.ticket];
    if (!o.flagged) continue;
    rounds.push_back(static_cast<double>(o.dispute.rounds));
    double reexecuted = 0, partition_ms = 0, selection_ms = 0;
    for (const tao::RoundStats& round : o.dispute.round_stats) {
      reexecuted += static_cast<double>(round.children_reexecuted);
      partition_ms += round.proposer_partition_ms;
      selection_ms += round.challenger_selection_ms;
    }
    children.push_back(reexecuted);
    partition.push_back(partition_ms);
    selection.push_back(selection_ms);
    dcr.push_back(o.dispute.cost_ratio);
    guilty += o.proposer_guilty ? 1 : 0;
  }
  m.push_back({"protocol.dispute_rounds.mean", Mean(rounds), "rounds"});
  m.push_back({"protocol.children_reexecuted.mean", Mean(children), "children"});
  m.push_back({"protocol.partition_ms.mean", Mean(partition), "ms"});
  m.push_back({"protocol.selection_ms.mean", Mean(selection), "ms"});
  m.push_back({"protocol.dispute_useful_frac",
               rounds.empty() ? 0 : guilty / static_cast<double>(rounds.size()), "fraction"});
  m.push_back({"protocol.dispute_cost_ratio", Mean(dcr), "ratio"});

  // crypto
  const tao::Tensor output = executor.RunOutput(probe->claim.inputs);
  tao::ResultMeta meta;
  meta.device = probe->claim.proposer_device->name;
  m.push_back({"crypto.result_commit_us", MedianMicros(200, [&] {
                 tao::ComputeResultCommitment(*main.commitment, probe->claim.inputs, output, meta);
               }), "us"});
  const std::vector<tao::NodeId>& params = main.model.graph->param_nodes();
  std::vector<tao::MerkleProof> proofs;
  for (const tao::NodeId id : params) proofs.push_back(main.commitment->ProveWeight(id));
  size_t next = 0;
  bool verified = true;
  m.push_back({"crypto.merkle_verify_us", MedianMicros(200, [&] {
                 const size_t i = next++ % params.size();
                 verified &= main.commitment->VerifyWeight(*main.model.graph, params[i], proofs[i]);
               }), "us"});
  if (!verified) {
    std::fprintf(stderr, "merkle replay rejected an honest proof\n");
    std::exit(1);
  }

  // durability
  const double completed = std::max<double>(1, static_cast<double>(service.completed));
  m.push_back({"durability.records_per_claim", service.durability_records_appended / completed, "records"});
  m.push_back({"durability.bytes_per_claim", service.durability_bytes_appended / completed, "B"});
  m.push_back({"durability.flush_ms.mean",
               service.durability_flushes > 0
                   ? Ms(service.durability_flush_ns) / service.durability_flushes
                   : 0,
               "ms"});
  m.push_back({"durability.fsync_ms.mean",
               service.durability_fsyncs > 0
                   ? Ms(service.durability_fsync_ns) / service.durability_fsyncs
                   : 0,
               "ms"});

  // runtime
  m.push_back({"runtime.cpu_util", closed_untraced.cpu_util, "fraction"});

  // load generator
  m.push_back({"loadgen.lag_ms.p99", std::max(light_traced.lag.p99_ms, heavy_traced.lag.p99_ms), "ms"});
  m.push_back({"loadgen.lag_ms.max", std::max(light_traced.lag.max_ms, heavy_traced.lag.max_ms), "ms"});

  // Self time per layer along each claim's blocking path: light (the unloaded
  // critical path) and heavy (queueing added).
  const Breakdown light = BreakDown(light_traced, stack, cfg.wire, spans);
  const Breakdown loaded = BreakDown(heavy_traced, stack, cfg.wire, spans);
  for (const std::string& layer : LayerNames()) {
    m.push_back({"self_ms." + layer, light.MeanMs(layer), "ms"});
  }
  for (const std::string& layer : LayerNames()) {
    m.push_back({"self_ms.heavy." + layer, loaded.MeanMs(layer), "ms"});
  }
  const double untraced_p50 = Percentile(Latencies(light_untraced), 0.5);
  // The open loops' tails and the heavy phase, traced: on a shared host their
  // run-to-run spread is too wide for an end-to-end bound, so they are reported
  // here, next to the breakdown that explains them.
  const std::vector<double> light_ms = Latencies(light_traced);
  const std::vector<double> heavy_ms = Latencies(heavy_traced);
  size_t met = 0;
  for (const Sample& s : heavy_traced.samples) {
    met += (s.accepted && s.finished && s.latency_ms() <= cfg.limit_ms) ? 1 : 0;
  }
  m.push_back({"open_loop.verdict_p99_ms.light",
               Percentile(light_ms, SupportedTailPercentile(light_ms.size())), "ms"});
  m.push_back({"open_loop.verdict_p50_ms.heavy", Percentile(heavy_ms, 0.5), "ms"});
  m.push_back({"open_loop.verdict_p99_ms.heavy",
               Percentile(heavy_ms, SupportedTailPercentile(heavy_ms.size())), "ms"});
  m.push_back({"open_loop.slo_met_frac.heavy",
               static_cast<double>(met) / std::max<size_t>(1, heavy_traced.samples.size()),
               "fraction"});
  // Accounting: the named layers must cover most of each claim's latency
  // (attributed_frac), and their median sum must come near the untraced
  // verdict_p50_ms.light (accounted_ratio, which also carries tracing overhead).
  const double attributed_frac = light.total_ns > 0 ? light.attributed_ns / light.total_ns : 0;
  const double accounted_ratio =
      untraced_p50 > 0 ? Percentile(light.attributed_ms, 0.5) / untraced_p50 : 0;
  const bool accounted = attributed_frac >= kMinAttributedFrac &&
                         std::abs(accounted_ratio - 1.0) <= kAccountedTolerance;
  std::fprintf(stderr,
               "accounting: named layers cover %.3f of the traced light latency (need >= %.2f); "
               "their median sum is %.3f x the untraced light p50 (need 1 +- %.2f): %s\n",
               attributed_frac, kMinAttributedFrac, accounted_ratio, kAccountedTolerance,
               accounted ? "accounted" : "NOT ACCOUNTED");
  m.push_back({"trace.light_p50_ms", Percentile(light_ms, 0.5), "ms"});
  m.push_back({"trace.attributed_frac", attributed_frac, "fraction"});
  m.push_back({"trace.accounted_ratio", accounted_ratio, "ratio"});
  m.push_back({"trace.accounted", accounted ? 1.0 : 0.0, "bool"});
  m.push_back({"trace.joined_frac",
               light.claims > 0 ? static_cast<double>(light.joined) / light.claims : 0, "fraction"});
  m.push_back({"trace.overhead_claims_per_s",
               ClaimsPerSecond(closed_traced) - ClaimsPerSecond(closed_untraced), "1/s"});
  m.push_back({"trace.spans_dropped", static_cast<double>(tao::Tracer::Get().spans_dropped()), "count"});
  return m;
}

}  // namespace

int Run(const Config& cfg) {
  fs::create_directories(cfg.out_dir);
  std::fprintf(stderr, "workload %s seed %llu: %s, %zu closed-loop clients\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               cfg.wire ? "loopback wire" : "in-process", ClosedClients());

  // Set-up, timed several times; the last stack serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int attempt = 0; attempt < kSetupRepeats; ++attempt) {
    stack.reset();
    const int64_t begin = Now();
    stack = BuildStack(cfg, attempt);
    setup_s.push_back(Ms(Now() - begin) / 1e3);
  }
  const std::vector<PoolClaim> pool = MakePool(cfg, *stack);
  LoadGenerator load(cfg, *stack, pool);

  std::vector<Phase> phases;
  phases.reserve(6);
  phases.push_back(load.RunClosed("warmup", 0, /*pool_once=*/true));
  const Phase& warmup = phases.back();
  std::vector<Metric> metrics;
  std::vector<tao::SpanRecord> spans;
  if (!cfg.trace) {
    phases.push_back(load.RunClosed("closed", 0.4 * cfg.seconds, false));
    phases.push_back(load.RunOpen("light", cfg.light_rate, 0.6 * cfg.seconds, 1));
  } else {
    const double slice = cfg.seconds / 5;
    phases.push_back(load.RunClosed("closed", slice, false));
    phases.push_back(load.RunOpen("light", cfg.light_rate, slice, 1));
    tao::Tracer::Get().Enable();
    {
      SpanDrainer drainer;
      phases.push_back(load.RunClosed("closed.traced", slice, false));
      phases.push_back(load.RunOpen("light.traced", cfg.light_rate, slice, 1));
      phases.push_back(load.RunOpen("heavy.traced", cfg.heavy_rate, slice, 2));
      tao::Tracer::Get().Disable();
      spans = drainer.Stop();
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const tao::GatewaySnapshot snapshot = stack->gateway->metrics();

  std::vector<const Phase*> all;
  size_t attempted = 0, failed = 0;
  bool behind = false;
  std::fprintf(stderr, "phases:\n");
  for (const Phase& phase : phases) {
    all.push_back(&phase);
    attempted += phase.samples.size();
    failed += phase.failed();
    PrintPhase(phase);
    behind |= phase.open_loop && GeneratorFellBehind(phase.lag, cfg.limit_ms);
  }
  if (behind) {
    std::fprintf(stderr, "REJECTED: the open-loop generator fell behind its schedule\n");
  }

  const int64_t gate_begin = Now();
  const GateResult gate = RunGate(*stack, pool, all);
  std::fprintf(stderr, "correctness gate: %s (%.2f s)\n", gate.ok ? "bitwise identical" : "FAILED",
               Ms(Now() - gate_begin) / 1e3);

  if (!cfg.trace) {
    double gas = 0;
    for (const Sample& s : warmup.samples) gas += static_cast<double>(s.verdict.gas);
    metrics = {
        {"setup_s", Percentile(setup_s, 0.5), "s"},
        {"claims_per_s", ClaimsPerSecond(phases[1]), "1/s"},
        {"verdict_p50_ms.light", Percentile(Latencies(phases[2]), 0.5), "ms"},
        {"success_frac", 1.0 - static_cast<double>(failed) / attempted, "fraction"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"gas_per_claim", gas / std::max<size_t>(1, warmup.samples.size()), "gas"},
    };
  } else {
    metrics = LayerMetrics(cfg, *stack, pool, warmup, phases[1], phases[2], phases[3],
                           phases[4], phases[5], gate, spans, snapshot);
    const std::string path = cfg.out_dir + "/spans-" + cfg.workload + "-" +
                             std::to_string(cfg.seed) + ".jsonl";
    WriteSpans(path, {&phases[3], &phases[4], &phases[5]}, *stack, cfg.wire, GroupSpans(spans));
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
  for (const Metric& metric : metrics) {
    std::fprintf(stderr, "  %-36s %14.6g %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  stack.reset();
  PrintResult(gate.ok && !behind, attempted, failed, metrics);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Config cfg;
  try {
    cfg = perfbench::ParseArgs(argc, argv);
  } catch (const std::exception& error) {  // std::stoull and friends on bad numbers
    std::fprintf(stderr, "pipeline_bench: bad argument: %s\n", error.what());
    return 2;
  }
  return perfbench::Run(cfg);
}
