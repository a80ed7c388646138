// swap_storm: many two-party swaps sharing one long-lived world.
//
// One ScenarioWorld with four asset chains and a witness chain. Swaps
// arrive as a seeded Poisson stream (an open loop in simulated time) and
// cycle through Herlihy, AC3TW, AC3WN and quorum commit; each starts its
// engine at its arrival instant, and every engine stays alive until the
// round ends, as a caller holding its reports would keep it. Participants
// are reused: the world's participants form two halves, and swap i pairs
// the (i mod H)-th of the first half with its partner under a seeded
// permutation of the second, so each participant joins exactly one swap in
// every H consecutive ones and never has two swaps in flight at the
// stream's rate (its wallet cannot spend change that is not yet mined).
//
// The simulation runs in one-second slices of simulated time so the
// round can see which swaps finished, and so the traced run can compare
// the wall cost of early and late completions.

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/graph/ac2t_graph.h"

namespace perfbench {

using namespace ac3;

namespace {

constexpr int kSwaps = 3000;
constexpr double kArrivalsPerSec = 20.0;
constexpr int kHalf = 128;  ///< Participants per half (H above).
constexpr int kAssetChains = 4;
constexpr Duration kSlice = Seconds(1);
constexpr Duration kDrain = Minutes(10);

constexpr runner::Protocol kProtocolCycle[] = {
    runner::Protocol::kHerlihy, runner::Protocol::kAc3tw,
    runner::Protocol::kAc3wn, runner::Protocol::kQuorum};

struct Arrival {
  TimePoint at = 0;
  int a = 0;  ///< Participant index (first half).
  int b = 0;  ///< Participant index (second half).
  int chain_ab = 0;
  int chain_ba = 0;
  runner::Protocol protocol = runner::Protocol::kHerlihy;
};

std::vector<Arrival> MakeArrivals(uint64_t seed) {
  Rng rng(seed ^ 0x73746f726dull);
  std::vector<int> partner(kHalf);
  for (int j = 0; j < kHalf; ++j) partner[j] = j;
  for (int j = kHalf - 1; j > 0; --j) {
    std::swap(partner[j], partner[rng.NextBelow(static_cast<uint64_t>(j) + 1)]);
  }
  std::vector<Arrival> arrivals(kSwaps);
  double clock_ms = 0;
  for (int i = 0; i < kSwaps; ++i) {
    clock_ms += rng.NextExponential(1000.0 / kArrivalsPerSec);
    Arrival& arrival = arrivals[i];
    arrival.at = static_cast<TimePoint>(clock_ms);
    arrival.a = i % kHalf;
    arrival.b = kHalf + partner[i % kHalf];
    arrival.chain_ab = static_cast<int>(rng.NextBelow(kAssetChains));
    arrival.chain_ba =
        (arrival.chain_ab + 1 +
         static_cast<int>(rng.NextBelow(kAssetChains - 1))) %
        kAssetChains;
    arrival.protocol = kProtocolCycle[i % 4];
  }
  return arrivals;
}

}  // namespace

RoundResult RunSwapStorm(const Args& args) {
  RoundResult result;
  const bool trace = args.trace;
  const runner::SweepGridConfig knobs;  // The sweep's shared engine knobs.
  const Clock::time_point setup_t0 = Clock::now();

  double world_build_s = 0;
  core::ScenarioOptions options;
  options.asset_chains = kAssetChains;
  options.participants = 2 * kHalf;
  options.funding = 1'000'000;
  options.seed = args.seed;
  options.witness_chain = true;
  std::unique_ptr<core::ScenarioWorld> world;
  {
    Span span(trace, &world_build_s);
    world = std::make_unique<core::ScenarioWorld>(options);
  }
  core::Environment* env = world->env();
  sim::Simulation* sim = env->sim();
  protocols::TrustedWitness trent("Trent", 0x7e27 + args.seed, env,
                                  knobs.confirm_depth);
  const std::vector<Arrival> arrivals = MakeArrivals(args.seed);

  std::vector<std::unique_ptr<protocols::SwapEngineBase>> engines(kSwaps);
  std::vector<protocols::SwapReport> reports(kSwaps);
  std::vector<int> active;
  double start_s = 0;
  for (int i = 0; i < kSwaps; ++i) {
    sim->At(arrivals[i].at, [&, i] {
      Span span(trace, &start_s);
      const Arrival& arrival = arrivals[i];
      protocols::Participant* a = world->participant(arrival.a);
      protocols::Participant* b = world->participant(arrival.b);
      graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
          a->pk(), b->pk(), world->asset_chain(arrival.chain_ab),
          knobs.edge_amount, world->asset_chain(arrival.chain_ba),
          knobs.edge_amount, sim->Now());
      engines[i] = MakeEngine(arrival.protocol, world.get(), std::move(graph),
                              {a, b}, &trent, knobs);
      const Status started = engines[i]->Start();
      Check(started.ok(), "swap " + std::to_string(i) +
                              " did not start: " + started.ToString());
      active.push_back(i);
    });
  }
  world->StartMining();
  result.setup_s = SecondsSince(setup_t0);

  // ---- timed phase: run the stream to its last verdict -----------------
  TimedPhase timed;
  const TimePoint deadline = arrivals.back().at + kDrain;
  struct Slice {
    double wall_s;
    int completions;
  };
  std::vector<Slice> slices;
  double run_s = 0;
  int done = 0;
  while (done < kSwaps && sim->Now() < deadline) {
    const Clock::time_point slice_t0 = Clock::now();
    sim->RunUntil(sim->Now() + kSlice);
    const size_t before = active.size();
    std::erase_if(active, [&](int i) {
      if (!engines[i]->Done()) return false;
      // Run() on a finished engine returns at once with the finalized
      // report; it is the only public way to finalize one.
      reports[i] = *engines[i]->Run(sim->Now());
      return true;
    });
    const int finished = static_cast<int>(before - active.size());
    done += finished;
    const double wall_s = SecondsSince(slice_t0);
    run_s += wall_s;
    slices.push_back(Slice{wall_s, finished});
  }
  timed.End(trace, &result);

  // ---- checks, read back from the chains ---------------------------------
  result.attempted = kSwaps;
  Check(done == kSwaps, std::to_string(kSwaps - done) +
                            " swaps had no verdict by the drain deadline");
  std::vector<crypto::Hash256> claimed;
  int64_t messages = 0;
  int64_t message_bytes = 0;
  for (int i = 0; i < kSwaps; ++i) {
    const protocols::SwapReport& report = reports[i];
    const bool committed =
        CheckSwapOnChain(*env, report, "swap " + std::to_string(i));
    ++result.completed;
    if (committed) {
      result.latencies_ms.push_back(
          static_cast<double>(report.end_time - arrivals[i].at));
    }
    for (const protocols::EdgeReport& edge : report.edges) {
      claimed.push_back(edge.contract_id);
    }
    messages += report.messages_sent;
    message_bytes += report.message_bytes_sent;
    result.digest.Add(committed);
    result.digest.Add(static_cast<uint64_t>(report.end_time));
    result.digest.Add(report.total_fees);
    result.digest.Add(static_cast<uint64_t>(report.messages_sent));
  }
  std::sort(claimed.begin(), claimed.end());
  for (const crypto::Hash256& id :
       SwapContractsAtHeads(*env, world->asset_chains())) {
    Check(std::binary_search(claimed.begin(), claimed.end(), id),
          "a swap contract at a head belongs to no swap");
  }

  ChainTally total;
  int64_t stored_blocks = 0;
  ProbeTotals probes;
  for (size_t c = 0; c < env->chain_count(); ++c) {
    const chain::Blockchain& chain =
        *env->blockchain(static_cast<chain::ChainId>(c));
    const ChainTally tally = TallyAndCheckConservation(chain);
    total.blocks += tally.blocks;
    total.txs += tally.txs;
    total.fees += tally.fees;
    stored_blocks += static_cast<int64_t>(chain.block_count()) - 1;
    result.digest.Add(chain.head()->hash);
    if (trace && args.round == 0) ProbeChain(chain, &probes);
  }
  result.fees = total.fees;
  result.digest.Add(sim->events_executed());
  result.digest.Add(env->network()->delivered_count());

  if (trace) {
    const auto n = static_cast<double>(kSwaps);
    auto& layers = result.layers;
    layers["core.world_build_ms"] = world_build_s * 1e3;
    layers["sim.events_per_op"] =
        static_cast<double>(sim->events_executed()) / n;
    layers["sim.event_ns"] =
        run_s * 1e9 / static_cast<double>(sim->events_executed());
    layers["sim.deliveries_per_op"] =
        static_cast<double>(env->network()->delivered_count()) / n;
    layers["protocols.start_us"] = start_s * 1e6 / n;
    layers["protocols.messages_per_swap"] = static_cast<double>(messages) / n;
    layers["protocols.message_bytes_per_swap"] =
        static_cast<double>(message_bytes) / n;
    layers["protocols.onchain_txs_per_swap"] =
        static_cast<double>(total.txs) / n;
    layers["chain.blocks"] = static_cast<double>(total.blocks);
    layers["chain.canonical_ratio"] = static_cast<double>(total.blocks) /
                                      static_cast<double>(stored_blocks);
    layers["chain.txs_per_block"] = static_cast<double>(total.txs) /
                                    static_cast<double>(total.blocks);
    // Wall per completed swap over the slices holding the last quarter of
    // completions, against the slices holding the first quarter.
    double early_s = 0, late_s = 0;
    int early_n = 0, late_n = 0, seen = 0;
    for (const Slice& slice : slices) {
      if (seen < kSwaps / 4) {
        early_s += slice.wall_s;
        early_n += slice.completions;
      } else if (seen >= kSwaps - kSwaps / 4) {
        late_s += slice.wall_s;
        late_n += slice.completions;
      }
      seen += slice.completions;
    }
    layers["protocols.late_early_cost_ratio"] =
        (late_s / std::max(late_n, 1)) / (early_s / std::max(early_n, 1));
    if (args.round == 0) probes.Into(&layers);
  }
  return result;
}

}  // namespace perfbench
