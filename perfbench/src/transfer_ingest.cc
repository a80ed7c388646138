// transfer_ingest: the chain pipeline with no protocol engine.
//
// Two chains with four miners each, fed by sim::WorkloadGenerator (Poisson
// arrivals, Zipf-hot payers from a two-million-account universe). Every
// simulated tick runs the pipeline of bench_openworld's 1000/s cell:
// generate the tick's arrivals, Mempool::SubmitBatch them, let each miner
// take CandidatePointersAt and AssembleBlock an unmined candidate, solve
// every candidate in one MineHeaderBatch, SubmitBlock each chain's winner
// (fewest evaluations), and Prune the included transactions. An operation
// is one generated two-leg transfer, complete once both legs are on the
// canonical chains. This is the no-atomicity baseline for swap_storm.


#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/chain/mempool.h"
#include "src/chain/pow.h"
#include "src/sim/workload.h"

namespace perfbench {

using namespace ac3;

namespace {

constexpr size_t kChains = 2;
constexpr size_t kMinersPerChain = 4;
constexpr Duration kTick = 200;
constexpr Duration kHorizon = Seconds(20);
constexpr Duration kDrainLimit = Seconds(400);

}  // namespace

RoundResult RunTransferIngest(const Args& args) {
  RoundResult result;
  const bool trace = args.trace;
  const Clock::time_point setup_t0 = Clock::now();

  double world_build_s = 0;
  sim::WorkloadConfig workload;
  workload.chains = kChains;
  workload.accounts = 2'000'000;
  workload.arrivals_per_sec = 1000.0;
  workload.process = sim::ArrivalProcess::kPoisson;
  std::unique_ptr<sim::WorkloadGenerator> gen;
  std::vector<std::unique_ptr<chain::Blockchain>> chains;
  std::vector<crypto::KeyPair> miner_keys;
  {
    Span span(trace, &world_build_s);
    gen = std::make_unique<sim::WorkloadGenerator>(workload, args.seed);
    for (size_t c = 0; c < kChains; ++c) {
      chain::ChainParams params = chain::TestChainParams();
      params.id = static_cast<chain::ChainId>(c + 1);
      params.name = "ingest-" + std::to_string(c);
      params.difficulty_bits = 12;
      params.max_block_txs = 512;
      chains.push_back(std::make_unique<chain::Blockchain>(
          params, gen->GenesisAllocations(c)));
      gen->BindChain(c, chains[c]->id(), chains[c]->genesis_tx());
    }
    for (size_t m = 0; m < kChains * kMinersPerChain; ++m) {
      miner_keys.push_back(crypto::KeyPair::FromSeed(9'000'000 + m));
    }
  }
  std::vector<chain::Mempool> pools(kChains);
  Rng pow_rng(args.seed + 1);
  std::vector<sim::SwapRecord> swaps;
  result.setup_s = SecondsSince(setup_t0);

  // ---- timed phase: ticks until the horizon's arrivals are all mined ----
  TimedPhase timed;
  double generate_s = 0, submit_s = 0, candidates_s = 0, assemble_s = 0;
  double pow_s = 0, submit_block_s = 0, prune_s = 0;
  uint64_t evals_total = 0;
  int64_t txs_offered = 0;
  TimePoint now = 0;
  bool drained = false;
  while (!drained) {
    now += kTick;
    Check(now <= kHorizon + kDrainLimit,
          "the mempools did not drain by tick " + std::to_string(now));
    if (now <= kHorizon) {
      sim::WorkloadBatch batch;
      {
        Span span(trace, &generate_s);
        batch = gen->NextBatch(now);
      }
      std::vector<std::vector<chain::Transaction>> per_chain(kChains);
      for (sim::GeneratedTx& gtx : batch.txs) {
        per_chain[gtx.chain].push_back(std::move(gtx.tx));
      }
      for (size_t c = 0; c < kChains; ++c) {
        Span span(trace, &submit_s);
        const auto submitted = pools[c].SubmitBatch(
            std::span<const chain::Transaction>(per_chain[c]), now);
        Check(submitted.accepted == per_chain[c].size(),
              "the mempool refused a generated transaction");
        txs_offered += static_cast<int64_t>(per_chain[c].size());
      }
      swaps.insert(swaps.end(), batch.swaps.begin(), batch.swaps.end());
    }

    struct Candidate {
      size_t chain;
      chain::Block block;
    };
    std::vector<Candidate> candidates;
    for (size_t c = 0; c < kChains; ++c) {
      if (pools[c].size() == 0) continue;
      for (size_t m = 0; m < kMinersPerChain; ++m) {
        std::vector<const chain::Transaction*> pointers;
        {
          Span span(trace, &candidates_s);
          pointers =
              pools[c].CandidatePointersAt(now, chain::Mempool::TxFilter());
        }
        Result<chain::Block> block = Status::Internal("unassembled");
        {
          Span span(trace, &assemble_s);
          block = chains[c]->AssembleBlock(
              chains[c]->head()->hash,
              std::span<const chain::Transaction* const>(pointers),
              miner_keys[c * kMinersPerChain + m].public_key(), now, &pow_rng,
              /*mine=*/false);
        }
        Check(block.ok(), "assembly failed: " + block.status().ToString());
        if (block->txs.size() <= 1) continue;  // Nothing minable yet.
        candidates.push_back(Candidate{c, std::move(*block)});
      }
    }

    std::vector<chain::BlockHeader*> headers;
    for (Candidate& candidate : candidates) {
      headers.push_back(&candidate.block.header);
    }
    std::vector<uint64_t> evals;
    {
      Span span(trace, &pow_s);
      evals = chain::MineHeaderBatch(
          std::span<chain::BlockHeader* const>(headers), &pow_rng);
    }
    for (uint64_t e : evals) evals_total += e;

    for (size_t c = 0; c < kChains; ++c) {
      const Candidate* winner = nullptr;
      uint64_t winner_evals = 0;
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].chain != c) continue;
        if (winner == nullptr || evals[i] < winner_evals) {
          winner = &candidates[i];
          winner_evals = evals[i];
        }
      }
      if (winner == nullptr) continue;
      {
        Span span(trace, &submit_block_s);
        const Status submitted = chains[c]->SubmitBlock(winner->block, now);
        Check(submitted.ok(), "block submission failed: " +
                                  submitted.ToString());
      }
      std::vector<crypto::Hash256> included;
      included.reserve(winner->block.txs.size() - 1);
      for (size_t i = 1; i < winner->block.txs.size(); ++i) {
        included.push_back(winner->block.txs[i].Id());
      }
      Span span(trace, &prune_s);
      pools[c].Prune(std::span<const crypto::Hash256>(included));
    }

    drained = now >= kHorizon;
    for (const chain::Mempool& pool : pools) {
      drained = drained && pool.size() == 0;
    }
  }
  timed.End(trace, &result);

  // ---- checks, read back from the chains ---------------------------------
  result.attempted = static_cast<int64_t>(swaps.size());
  for (const sim::SwapRecord& swap : swaps) {
    const auto leg_a = chains[swap.chain_a]->FindTx(swap.leg_a_id);
    const auto leg_b = chains[swap.chain_b]->FindTx(swap.leg_b_id);
    Check(leg_a.has_value() && leg_b.has_value(),
          "transfer " + std::to_string(swap.swap_index) +
              " is not included on both chains");
    const TimePoint included = std::max(leg_a->entry->block.header.time,
                                        leg_b->entry->block.header.time);
    ++result.completed;
    result.latencies_ms.push_back(static_cast<double>(included - swap.arrival));
    result.digest.Add(static_cast<uint64_t>(included - swap.arrival));
  }
  ChainTally total;
  int64_t stored_blocks = 0;
  ProbeTotals probes;
  for (const auto& chain : chains) {
    const ChainTally tally = TallyAndCheckConservation(*chain);
    total.blocks += tally.blocks;
    total.txs += tally.txs;
    total.fees += tally.fees;
    stored_blocks += static_cast<int64_t>(chain->block_count()) - 1;
    result.digest.Add(chain->head()->hash);
    if (trace && args.round == 0) ProbeChain(*chain, &probes);
  }
  Check(total.txs == txs_offered,
        "the chains include " + std::to_string(total.txs) + " of " +
            std::to_string(txs_offered) + " offered transactions");
  result.fees = total.fees;
  result.digest.Add(evals_total);

  if (trace) {
    auto& layers = result.layers;
    layers["core.world_build_ms"] = world_build_s * 1e3;
    layers["sim.generate_ms"] = generate_s * 1e3;
    layers["chain.mempool_submit_ms"] = submit_s * 1e3;
    layers["chain.candidates_ms"] = candidates_s * 1e3;
    layers["chain.assemble_ms"] = assemble_s * 1e3;
    layers["chain.submit_block_ms"] = submit_block_s * 1e3;
    layers["chain.prune_ms"] = prune_s * 1e3;
    layers["chain.blocks"] = static_cast<double>(total.blocks);
    layers["chain.canonical_ratio"] = static_cast<double>(total.blocks) /
                                      static_cast<double>(stored_blocks);
    layers["chain.txs_per_block"] = static_cast<double>(total.txs) /
                                    static_cast<double>(total.blocks);
    layers["crypto.pow_evals"] = static_cast<double>(evals_total);
    layers["crypto.pow_evals_per_s"] =
        static_cast<double>(evals_total) / pow_s;
    if (args.round == 0) probes.Into(&layers);
  }
  return result;
}

}  // namespace perfbench
