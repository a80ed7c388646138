// sweep_grid: many independent one-swap worlds on the sweep runner.
//
// The grid is protocols x topologies x sizes x failure modes x replicas.
// Two kinds of cell stay out because they do not end in an atomic verdict
// by design: graphs an engine refuses (Herlihy on graphs no single leader
// can run, Section 5.3), and Herlihy under any failure that can make a
// participant miss its timelock - message loss, a partition, or a crash
// (the timelock race of Section 4; a crashed ring/3 world with seed
// 8000100 ends with two edges redeemed and one refunded). Every remaining
// cell commits or aborts atomically.
//
// The timed phase is the runner's own path: runner::RunSwapPoint for every
// cell, on runner::SweepRunner::Map at the host's core count. Its worlds
// are gone when a cell returns, so the chains are read back by a mirror of
// runner::RunSwapReport that keeps each world until it is checked. On the
// first round, after the timed phase, the mirror runs the whole grid: every
// cell's chains must pass the checks, and its outcome must equal the timed
// one. A slice of the grid is also re-run through runner::RunSwapPoint on a
// one-thread runner, whose outcomes must equal the pooled ones.

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/graph/ac2t_graph.h"

namespace perfbench {

using namespace ac3;

namespace {

constexpr int kReplicas = 16;  ///< Cells per grid coordinate.

std::vector<runner::SweepPoint> GridFor(uint64_t seed) {
  using runner::FailureMode;
  using runner::Protocol;
  std::vector<runner::SweepPoint> points;
  for (Protocol protocol : {Protocol::kHerlihy, Protocol::kAc3tw,
                            Protocol::kAc3wn, Protocol::kQuorum}) {
    for (runner::Topology topology :
         {runner::Topology::kRing, runner::Topology::kStar,
          runner::Topology::kComplete}) {
      for (int size : {2, 3, 4}) {
        if (protocol == Protocol::kHerlihy &&
            !runner::TopologySingleLeaderFeasible(topology, size)) {
          continue;
        }
        for (FailureMode failure :
             {FailureMode::kNone, FailureMode::kCrashParticipant,
              FailureMode::kPartitionParticipant, FailureMode::kDropMessages,
              FailureMode::kDuplicateMessages}) {
          if (protocol == Protocol::kHerlihy &&
              failure != FailureMode::kNone &&
              failure != FailureMode::kDuplicateMessages) {
            continue;
          }
          for (int k = 0; k < kReplicas; ++k) {
            points.push_back(
                runner::SweepPoint{protocol, topology, size, failure, 0});
          }
        }
      }
    }
  }
  // Every cell gets a world seed of its own, so no two cells share block
  // times and the grid's latency percentiles average over all of them.
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].seed = seed * 1'000'003 + i;
  }
  return points;
}

/// runner::RunSwapReport's world options, failure schedule and engine.
void InjectFailure(const runner::SweepGridConfig& config,
                   const runner::SweepPoint& point, core::ScenarioWorld* world) {
  const sim::NodeId victim = world->participant(1)->node();
  const auto onset = static_cast<TimePoint>(config.failure_onset_deltas *
                                            static_cast<double>(config.delta));
  const auto length = static_cast<Duration>(
      config.failure_length_deltas * static_cast<double>(config.delta));
  sim::MessageFaults faults;
  switch (point.failure) {
    case runner::FailureMode::kCrashParticipant:
      world->env()->failures()->CrashFor(victim, onset, length);
      break;
    case runner::FailureMode::kPartitionParticipant:
      world->env()->failures()->SchedulePartition(
          sim::PartitionWindow{victim, onset, onset + length});
      break;
    case runner::FailureMode::kDropMessages:
      faults.drop_prob = config.message_drop_prob;
      world->env()->network()->set_message_faults(faults);
      break;
    case runner::FailureMode::kDuplicateMessages:
      faults.duplicate_prob = config.message_duplicate_prob;
      world->env()->network()->set_message_faults(faults);
      break;
    default:
      break;
  }
}

int64_t ClosedFormMessages(runner::Protocol protocol, int size) {
  switch (protocol) {
    case runner::Protocol::kAc3tw:
      return 4;  // register/ack and secret request/decision with Trent.
    case runner::Protocol::kQuorum:
      return 2 * static_cast<int64_t>(size - 1);  // One pre-commit round.
    default:
      return 0;  // Herlihy and AC3WN commit purely on chain.
  }
}

/// The deterministic outputs of one cell: its outcome JSON and the message
/// counts OutcomeToJson leaves out.
std::string OutcomeKey(const runner::RunOutcome& outcome) {
  return runner::OutcomeToJson(outcome).Serialize() + " messages " +
         std::to_string(outcome.messages_sent) + " bytes " +
         std::to_string(outcome.message_bytes_sent);
}

struct Cell {
  runner::RunOutcome outcome;
  uint64_t digest = 0;
  double world_build_ms = 0;
  double start_s = 0;
  double run_s = 0;
  int64_t deliveries = 0;
  int64_t blocks = 0;
  int64_t stored_blocks = 0;
  int64_t txs = 0;
  double fees = 0;
};

Cell RunCell(const runner::SweepGridConfig& config,
             const runner::SweepPoint& point, bool trace,
             ProbeTotals* probes) {
  Cell cell;
  const std::string label =
      std::string(runner::ProtocolName(point.protocol)) + "/" +
      runner::TopologyName(point.topology) + "/" +
      std::to_string(point.size) + "/" +
      runner::FailureModeName(point.failure) + "/seed " +
      std::to_string(point.seed);

  core::ScenarioOptions options;
  options.participants = point.size;
  options.asset_chains = std::min(point.size, config.max_asset_chains);
  options.funding = config.funding;
  options.seed = point.seed;
  options.witness_chain = point.protocol == runner::Protocol::kAc3wn;
  double world_build_s = 0;
  std::unique_ptr<core::ScenarioWorld> world;
  {
    Span span(trace, &world_build_s);
    world = std::make_unique<core::ScenarioWorld>(options);
  }
  core::Environment* env = world->env();
  InjectFailure(config, point, world.get());
  world->StartMining();
  graph::Ac2tGraph graph = runner::TopologyOverWorld(
      world.get(), point.topology, point.size, config.edge_amount, point.seed,
      config.random_chord_prob);
  const TimePoint deadline = env->sim()->Now() + config.deadline;
  std::unique_ptr<protocols::TrustedWitness> trent;
  if (point.protocol == runner::Protocol::kAc3tw) {
    trent = std::make_unique<protocols::TrustedWitness>(
        "Trent", 0x7e27 + point.seed, env, config.confirm_depth);
  }
  std::unique_ptr<protocols::SwapEngineBase> engine;
  {
    // Run() would start the engine itself at this same simulated time.
    Span span(trace, &cell.start_s);
    engine = MakeEngine(point.protocol, world.get(), std::move(graph),
                        world->all_participants(), trent.get(), config);
    const Status started = engine->Start();
    Check(started.ok(), label + ": " + started.ToString());
  }
  Result<protocols::SwapReport> report = Status::Internal("not run");
  {
    Span span(trace, &cell.run_s);
    report = engine->Run(deadline);
  }
  Check(report.ok(), label + ": " + report.status().ToString());

  // Read the world back: the verdict from the chains, no contract left
  // over, value conserved on every chain.
  CheckSwapOnChain(*env, *report, label);
  std::vector<crypto::Hash256> claimed;
  for (const protocols::EdgeReport& edge : report->edges) {
    claimed.push_back(edge.contract_id);
  }
  std::sort(claimed.begin(), claimed.end());
  for (const crypto::Hash256& id :
       SwapContractsAtHeads(*env, world->asset_chains())) {
    Check(std::binary_search(claimed.begin(), claimed.end(), id),
          label + ": a swap contract at a head belongs to no edge");
  }
  if (point.failure == runner::FailureMode::kNone) {
    // Quorum commit sends one more decision broadcast (n - 1 messages) on
    // some seeds; those two counts are the only ones it may send.
    const int64_t closed_form = ClosedFormMessages(point.protocol, point.size);
    const int64_t sent = report->messages_sent;
    Check(sent == closed_form ||
              (point.protocol == runner::Protocol::kQuorum &&
               sent == 3 * static_cast<int64_t>(point.size - 1)),
          label + ": fault-free message count " + std::to_string(sent) +
              " differs from the closed form " + std::to_string(closed_form));
  }
  Digest digest;
  for (size_t c = 0; c < env->chain_count(); ++c) {
    const chain::Blockchain& chain =
        *env->blockchain(static_cast<chain::ChainId>(c));
    const ChainTally tally = TallyAndCheckConservation(chain);
    cell.blocks += tally.blocks;
    cell.txs += tally.txs;
    cell.fees += tally.fees;
    cell.stored_blocks += static_cast<int64_t>(chain.block_count()) - 1;
    digest.Add(chain.head()->hash);
  }

  cell.outcome = runner::ReduceReport(point, *report);
  cell.outcome.sim_events =
      static_cast<int64_t>(env->sim()->events_executed());
  cell.deliveries = static_cast<int64_t>(env->network()->delivered_count());
  for (char ch : OutcomeKey(cell.outcome)) {
    digest.Add(static_cast<uint8_t>(ch));
  }
  digest.Add(static_cast<uint64_t>(cell.deliveries));
  cell.digest = digest.value();
  cell.world_build_ms = world_build_s * 1e3;
  if (probes != nullptr) {
    for (size_t c = 0; c < env->chain_count(); ++c) {
      ProbeChain(*env->blockchain(static_cast<chain::ChainId>(c)), probes);
    }
  }
  return cell;
}

}  // namespace

RoundResult RunSweepGrid(const Args& args) {
  RoundResult result;
  const Clock::time_point setup_t0 = Clock::now();
  const runner::SweepGridConfig config;
  const std::vector<runner::SweepPoint> points = GridFor(args.seed);
  const int n = static_cast<int>(points.size());
  runner::SweepRunner pool(args.threads);
  result.setup_s = SecondsSince(setup_t0);

  // ---- timed phase: the runner's own cell path ---------------------------
  TimedPhase timed;
  const std::vector<runner::RunOutcome> outcomes =
      pool.Map<runner::RunOutcome>(n, [&](int i) {
        double wall_s = 0;
        runner::RunOutcome outcome;
        {
          Span span(args.trace, &wall_s);
          outcome =
              runner::RunSwapPoint(config, points[static_cast<size_t>(i)]);
        }
        outcome.wall_ms = wall_s * 1e3;
        return outcome;
      });
  timed.End(args.trace, &result);

  result.attempted = n;
  double cell_wall_s = 0;
  int64_t events = 0, messages = 0, message_bytes = 0;
  std::vector<double> world_ms;
  std::vector<std::string> keys;
  for (const runner::RunOutcome& outcome : outcomes) {
    const std::string label = "cell " + std::to_string(keys.size());
    Check(outcome.ok, label + ": " + outcome.error);
    Check(outcome.finished && outcome.committed != outcome.aborted &&
              !outcome.atomicity_violated,
          label + ": no atomic verdict");
    ++result.completed;
    if (outcome.committed) result.latencies_ms.push_back(outcome.latency_ms);
    keys.push_back(OutcomeKey(outcome));
    for (char ch : keys.back()) result.digest.Add(static_cast<uint8_t>(ch));
    cell_wall_s += outcome.wall_ms / 1e3;
    world_ms.push_back(outcome.wall_ms);
    events += outcome.sim_events;
    messages += outcome.messages_sent;
    message_bytes += outcome.message_bytes_sent;
  }

  if (args.round == 0) {
    // The chains of every cell, read back by the mirror. Its outcomes must
    // equal the timed ones, so the checks speak of the worlds that were
    // timed. Later rounds repeat round 0's digest of those outcomes.
    const std::vector<Cell> cells = pool.Map<Cell>(n, [&](int i) {
      return RunCell(config, points[static_cast<size_t>(i)], args.trace,
                     nullptr);
    });
    int64_t deliveries = 0, blocks = 0, stored_blocks = 0, txs = 0;
    double start_s = 0, run_s = 0;
    std::vector<double> build_ms;
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      Check(OutcomeKey(cell.outcome) == keys[i],
            "cell " + std::to_string(i) +
                ": the chain-checked world differs from the timed one");
      result.fees += cell.fees;
      deliveries += cell.deliveries;
      blocks += cell.blocks;
      stored_blocks += cell.stored_blocks;
      txs += cell.txs;
      start_s += cell.start_s;
      run_s += cell.run_s;
      build_ms.push_back(cell.world_build_ms);
    }

    // Thread invariance: one replica of every grid coordinate, re-run by
    // the runner on one thread.
    std::vector<int> sample;
    for (int i = 0; i < n; i += kReplicas) sample.push_back(i);
    runner::SweepRunner serial(1);
    const std::vector<runner::RunOutcome> again =
        serial.Map<runner::RunOutcome>(
            static_cast<int>(sample.size()), [&](int j) {
              return runner::RunSwapPoint(
                  config, points[static_cast<size_t>(sample[j])]);
            });
    for (size_t j = 0; j < sample.size(); ++j) {
      Check(OutcomeKey(again[j]) == keys[static_cast<size_t>(sample[j])],
            "cell " + std::to_string(sample[j]) +
                ": the runner's one-thread outcome differs from the pooled "
                "one");
    }

    if (args.trace) {
      const auto ops = static_cast<double>(n);
      auto& layers = result.layers;
      layers["core.world_build_ms"] = Median(build_ms);
      layers["sim.event_ns"] = run_s * 1e9 / static_cast<double>(events);
      layers["protocols.start_us"] = start_s * 1e6 / ops;
      layers["sim.deliveries_per_op"] = static_cast<double>(deliveries) / ops;
      layers["protocols.onchain_txs_per_swap"] =
          static_cast<double>(txs) / ops;
      layers["chain.blocks"] = static_cast<double>(blocks);
      layers["chain.canonical_ratio"] =
          static_cast<double>(blocks) / static_cast<double>(stored_blocks);
      layers["chain.txs_per_block"] =
          static_cast<double>(txs) / static_cast<double>(blocks);
      // Replay probes on a few worlds, rebuilt once more; the rebuilt
      // worlds must repeat the mirror's ones exactly, head hashes included.
      ProbeTotals probes;
      for (int i = 0; i < std::min(n, 16); ++i) {
        const Cell rebuilt = RunCell(config, points[static_cast<size_t>(i)],
                                     false, &probes);
        Check(rebuilt.digest == cells[static_cast<size_t>(i)].digest,
              "cell " + std::to_string(i) + " did not repeat when rebuilt");
      }
      probes.Into(&layers);
    }
  }

  if (args.trace) {
    const auto ops = static_cast<double>(n);
    auto& layers = result.layers;
    layers["runner.world_ms_p50"] = Median(world_ms);
    layers["runner.parallel_efficiency"] =
        cell_wall_s / (pool.threads() * result.timed_s);
    layers["sim.events_per_op"] = static_cast<double>(events) / ops;
    layers["protocols.messages_per_swap"] = static_cast<double>(messages) / ops;
    layers["protocols.message_bytes_per_swap"] =
        static_cast<double>(message_bytes) / ops;
  }
  return result;
}

}  // namespace perfbench
