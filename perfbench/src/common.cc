#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

#include "perfbench/src/bench.h"
#include "src/contracts/atomic_swap_contract.h"
#include "src/protocols/ac3tw_swap.h"
#include "src/protocols/ac3wn_swap.h"
#include "src/protocols/herlihy_swap.h"
#include "src/protocols/quorum_commit.h"

namespace perfbench {

using namespace ac3;

void Check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::Add(const crypto::Hash256& h) {
  for (uint8_t b : h.data()) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
}

namespace {

double CpuSeconds(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

}  // namespace

TimedPhase::TimedPhase() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  cpu0_s_ = CpuSeconds(usage);
  invol0_ = usage.ru_nivcsw;
  t0_ = Clock::now();
}

void TimedPhase::End(bool trace, RoundResult* result) const {
  result->timed_s = SecondsSince(t0_);
  if (!trace) return;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double cpu_s = CpuSeconds(usage) - cpu0_s_;
  result->layers["proc.cpu_s"] = cpu_s;
  result->layers["proc.cpu_per_wall"] = cpu_s / result->timed_s;
  result->layers["proc.invol_ctx_switches"] =
      static_cast<double>(usage.ru_nivcsw - invol0_);
  result->layers["proc.threads"] =
      static_cast<double>(ProcStatusField("Threads"));
}

int64_t ProcStatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(key) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoll(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return 0;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t n = sorted.size();
  if (q == 0.5 && n % 2 == 0) return (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return sorted[std::clamp<size_t>(rank, 1, n) - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

ChainTally TallyAndCheckConservation(const chain::Blockchain& chain) {
  ChainTally tally;
  const std::string name = chain.params().name;
  chain::Amount minted = 0;
  for (const chain::BlockEntry* e = chain.head(); e != chain.genesis();
       e = e->parent) {
    Check(e != nullptr, name + ": canonical branch does not reach genesis");
    const std::vector<chain::Transaction>& txs = e->block.txs;
    Check(!txs.empty() && txs[0].type == chain::TxType::kCoinbase,
          name + ": block without coinbase");
    chain::Amount fees = 0;
    for (size_t i = 1; i < txs.size(); ++i) fees += txs[i].fee;
    const chain::Amount coinbase = txs[0].TotalOutput();
    Check(coinbase <= chain.params().block_reward + fees,
          name + ": coinbase exceeds reward plus fees");
    minted += coinbase - fees;
    ++tally.blocks;
    tally.txs += static_cast<int64_t>(txs.size()) - 1;
    tally.fees += static_cast<double>(fees);
  }
  const chain::LedgerState& state = chain.StateAtHead();
  const chain::Amount liquid = state.LiquidValueScan();
  Check(liquid == state.LiquidValue(),
        name + ": incremental liquid total disagrees with the UTXO set");
  Check(liquid + state.LockedValue() ==
            chain.genesis_tx().TotalOutput() + minted,
        name + ": value not conserved (liquid + locked != genesis + rewards)");
  return tally;
}

bool CheckSwapOnChain(const core::Environment& env,
                      const protocols::SwapReport& report,
                      const std::string& label) {
  int redeemed = 0;
  int refunded = 0;
  int undeployed = 0;
  for (const protocols::EdgeReport& edge : report.edges) {
    if (edge.contract_id == crypto::Hash256()) {
      ++undeployed;
      continue;
    }
    const chain::Blockchain* chain = env.blockchain(edge.edge.chain_id);
    Check(chain != nullptr, label + ": edge on an unknown chain");
    auto contract = chain->ContractAtHead(edge.contract_id);
    if (!contract.ok()) {
      // The engine saw a deploy the canonical branch no longer holds.
      ++undeployed;
      continue;
    }
    auto swap =
        std::dynamic_pointer_cast<const contracts::AtomicSwapContract>(
            *contract);
    Check(swap != nullptr, label + ": edge contract is not a swap contract");
    switch (swap->state()) {
      case contracts::SwapState::kRedeemed:
        ++redeemed;
        break;
      case contracts::SwapState::kRefunded:
        ++refunded;
        break;
      case contracts::SwapState::kPublished:
        Check(false, label + ": a contract is still locked at the head");
    }
  }
  Check(redeemed == 0 || (refunded == 0 && undeployed == 0),
        label + ": all-or-nothing violated on chain (" +
            std::to_string(redeemed) + " redeemed, " +
            std::to_string(refunded + undeployed) + " not)");
  const bool committed = redeemed > 0;
  Check(report.finished && committed == report.committed,
        label + ": engine verdict disagrees with the chains: " +
            report.Summary());
  return committed;
}

std::vector<crypto::Hash256> SwapContractsAtHeads(
    const core::Environment& env, const std::vector<chain::ChainId>& chains) {
  std::vector<crypto::Hash256> ids;
  for (chain::ChainId id : chains) {
    const chain::LedgerState& state = env.blockchain(id)->StateAtHead();
    for (const auto& [contract_id, contract] : state.contracts) {
      if (dynamic_cast<const contracts::AtomicSwapContract*>(
              contract.get()) != nullptr) {
        ids.push_back(contract_id);
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ProbeTotals::Into(std::map<std::string, double>* layers) const {
  (*layers)["chain.replay_block_us"] =
      replay_blocks > 0 ? replay_s * 1e6 / static_cast<double>(replay_blocks)
                        : 0;
  (*layers)["chain.find_tx_ns"] =
      finds > 0 ? find_s * 1e9 / static_cast<double>(finds) : 0;
  (*layers)["crypto.sig_verify_us"] =
      verifies > 0 ? verify_s * 1e6 / static_cast<double>(verifies) : 0;
}

void ProbeChain(const chain::Blockchain& chain, ProbeTotals* acc) {
  std::vector<chain::Block> blocks;
  for (const chain::BlockEntry* e = chain.head(); e != chain.genesis();
       e = e->parent) {
    blocks.push_back(e->block);
  }
  std::reverse(blocks.begin(), blocks.end());
  const TimePoint arrival = chain.head()->block.header.time;

  chain::Blockchain replica(chain.params(), chain.genesis_tx().outputs);
  Clock::time_point t0 = Clock::now();
  const auto submitted = replica.SubmitBlocks(blocks, arrival);
  acc->replay_s += SecondsSince(t0);
  acc->replay_blocks += static_cast<int64_t>(blocks.size());
  Check(submitted.accepted == blocks.size() &&
            replica.head()->hash == chain.head()->hash,
        chain.params().name + ": replaying the canonical blocks diverged");

  std::vector<const chain::Transaction*> txs;
  for (const chain::Block& block : blocks) {
    for (size_t i = 1; i < block.txs.size(); ++i) txs.push_back(&block.txs[i]);
  }
  std::vector<crypto::Hash256> ids;
  ids.reserve(txs.size());
  for (const chain::Transaction* tx : txs) ids.push_back(tx->Id());

  size_t found = 0;
  t0 = Clock::now();
  for (const crypto::Hash256& id : ids) found += chain.FindTx(id).has_value();
  acc->find_s += SecondsSince(t0);
  acc->finds += static_cast<int64_t>(ids.size());
  Check(found == ids.size(),
        chain.params().name + ": an included transaction is not found");

  size_t verified = 0;
  t0 = Clock::now();
  for (const chain::Transaction* tx : txs) verified += tx->VerifySignature();
  acc->verify_s += SecondsSince(t0);
  acc->verifies += static_cast<int64_t>(txs.size());
  Check(verified == txs.size(),
        chain.params().name + ": an included signature does not verify");
}

std::unique_ptr<protocols::SwapEngineBase> MakeEngine(
    runner::Protocol protocol, core::ScenarioWorld* world,
    graph::Ac2tGraph graph, std::vector<protocols::Participant*> participants,
    protocols::TrustedWitness* trent, const runner::SweepGridConfig& config) {
  core::Environment* env = world->env();
  switch (protocol) {
    case runner::Protocol::kHerlihy: {
      protocols::HtlcConfig cfg;
      cfg.delta = config.delta;
      cfg.confirm_depth = config.confirm_depth;
      cfg.resubmit_interval = config.resubmit_interval;
      return std::make_unique<protocols::HerlihySwapEngine>(
          env, std::move(graph), std::move(participants), cfg);
    }
    case runner::Protocol::kAc3tw: {
      protocols::Ac3twConfig cfg;
      cfg.delta = config.delta;
      cfg.confirm_depth = config.confirm_depth;
      cfg.resubmit_interval = config.resubmit_interval;
      cfg.publish_patience = config.publish_patience;
      return std::make_unique<protocols::Ac3twSwapEngine>(
          env, std::move(graph), std::move(participants), trent, cfg);
    }
    case runner::Protocol::kAc3wn: {
      protocols::Ac3wnConfig cfg;
      cfg.delta = config.delta;
      cfg.confirm_depth = config.confirm_depth;
      cfg.witness_depth_d = config.witness_depth_d;
      cfg.resubmit_interval = config.resubmit_interval;
      cfg.publish_patience = config.publish_patience;
      return std::make_unique<protocols::Ac3wnSwapEngine>(
          env, std::move(graph), std::move(participants),
          world->witness_chain(), cfg);
    }
    case runner::Protocol::kQuorum: {
      protocols::QuorumConfig cfg;
      cfg.delta = config.delta;
      cfg.confirm_depth = config.confirm_depth;
      cfg.resubmit_interval = config.resubmit_interval;
      cfg.publish_patience = config.publish_patience;
      cfg.takeover_timeout = 2 * config.delta;
      return std::make_unique<protocols::QuorumCommitEngine>(
          env, std::move(graph), std::move(participants), cfg);
    }
  }
  return nullptr;
}

}  // namespace perfbench
