// The benchmark's command: runs one named workload for a wall-clock budget
// and prints one JSON object as the last line of standard output.
//
//   ac3_perfbench --workload <swap_storm|sweep_grid|transfer_ingest>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// A run repeats one fixed round of seeded work until --seconds have passed
// (at least two rounds, so the determinism check always has a pair). With
// --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
// ones. Any breached correctness check prints the reason on standard error
// and exits with code 1 without a result line.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/worker_pool.h"
#include "src/crypto/sha256.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

/// Every per-layer metric the benchmark defines, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
const Metric kLayerMetrics[] = {
    {"core.world_build_ms", 0, "ms"},
    {"runner.world_ms_p50", 0, "ms"},
    {"runner.parallel_efficiency", 0, "ratio"},
    {"sim.events_per_op", 0, "count"},
    {"sim.event_ns", 0, "ns"},
    {"sim.deliveries_per_op", 0, "count"},
    {"sim.generate_ms", 0, "ms"},
    {"protocols.start_us", 0, "us"},
    {"protocols.messages_per_swap", 0, "count"},
    {"protocols.message_bytes_per_swap", 0, "bytes"},
    {"protocols.onchain_txs_per_swap", 0, "count"},
    {"protocols.late_early_cost_ratio", 0, "ratio"},
    {"chain.blocks", 0, "count"},
    {"chain.canonical_ratio", 0, "ratio"},
    {"chain.txs_per_block", 0, "count"},
    {"chain.mempool_submit_ms", 0, "ms"},
    {"chain.candidates_ms", 0, "ms"},
    {"chain.assemble_ms", 0, "ms"},
    {"chain.submit_block_ms", 0, "ms"},
    {"chain.prune_ms", 0, "ms"},
    {"chain.replay_block_us", 0, "us"},
    {"chain.find_tx_ns", 0, "ns"},
    {"crypto.pow_evals", 0, "count"},
    {"crypto.pow_evals_per_s", 0, "1/s"},
    {"crypto.sig_verify_us", 0, "us"},
    {"proc.cpu_s", 0, "s"},
    {"proc.cpu_per_wall", 0, "ratio"},
    {"proc.invol_ctx_switches", 0, "count"},
    {"proc.threads", 0, "count"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "ac3_perfbench: %s\nusage: ac3_perfbench --workload "
               "<swap_storm|sweep_grid|transfer_ingest> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes one value");
  const std::map<std::string, std::function<RoundResult(const Args&)>>
      workloads = {{"swap_storm", RunSwapStorm},
                   {"sweep_grid", RunSweepGrid},
                   {"transfer_ingest", RunTransferIngest}};
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) return Usage("unknown workload");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  args.threads = ac3::common::WorkerPool::ResolveThreads(0);

  std::vector<RoundResult> rounds;
  const Clock::time_point t0 = Clock::now();
  do {
    args.round = static_cast<int>(rounds.size());
    rounds.push_back(workload->second(args));
    const RoundResult& r = rounds.back();
    Check(r.digest.value() == rounds.front().digest.value(),
          "round " + std::to_string(rounds.size()) +
              " produced different deterministic outputs than round 1");
  } while (rounds.size() < 2 || SecondsSince(t0) < args.seconds);

  const RoundResult& first = rounds.front();
  const int64_t attempted = first.attempted * static_cast<int64_t>(rounds.size());
  const int64_t failed =
      (first.attempted - first.completed) * static_cast<int64_t>(rounds.size());
  std::vector<double> ops_per_s;
  std::vector<double> setup_s;
  for (const RoundResult& r : rounds) {
    ops_per_s.push_back(static_cast<double>(r.completed) / r.timed_s);
    setup_s.push_back(r.setup_s);
  }
  std::vector<double> latencies = first.latencies_ms;
  std::sort(latencies.begin(), latencies.end());
  Check(latencies.size() >= 1000,
        "a round must commit at least 1000 operations (got " +
            std::to_string(latencies.size()) + ")");
  std::fprintf(stderr,
               "%s seed=%llu rounds=%zu ops/round=%lld committed=%zu "
               "ops_per_s=%.1f setup_s=%.4f traced=%d threads=%d sha256=%s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), rounds.size(),
               static_cast<long long>(first.completed), latencies.size(),
               Median(ops_per_s), Median(setup_s), args.trace ? 1 : 0,
               args.threads,
               ac3::crypto::Sha256::DispatchName(
                   ac3::crypto::Sha256::ActiveDispatch()));

  std::fprintf(stderr, "per-round ops_per_s:");
  for (double v : ops_per_s) std::fprintf(stderr, " %.1f", v);
  std::fprintf(stderr, "\n");

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"ops_per_s", Median(ops_per_s), "1/s"},
        {"commit_latency_p50_ms", Percentile(latencies, 0.5), "ms"},
        {"commit_latency_p99_ms", Percentile(latencies, 0.99), "ms"},
        {"fees_per_op",
         first.fees / static_cast<double>(first.completed), "coin"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb",
         static_cast<double>(ProcStatusField("VmHWM")) / 1024.0, "MiB"},
    };
  } else {
    for (const Metric& layer : kLayerMetrics) {
      std::vector<double> values;
      for (const RoundResult& r : rounds) {
        auto it = r.layers.find(layer.name);
        if (it != r.layers.end()) values.push_back(it->second);
      }
      metrics.push_back(Metric{layer.name,
                               values.empty() ? 0.0 : Median(values),
                               layer.unit});
    }
  }
  PrintResult(attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const perfbench::CheckFailure& failure) {
    std::fprintf(stderr, "ac3_perfbench: correctness check failed: %s\n",
                 failure.what());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ac3_perfbench: error: %s\n", error.what());
  }
  return 1;
}
