// Shared pieces of the end-to-end benchmark: the command-line arguments,
// the record one round of a workload returns, wall-clock spans for the
// traced run, the deterministic digest that must repeat across rounds, and
// the correctness checks that read the chains back.
//
// A run repeats one fixed, seeded round of work until --seconds of wall
// time have passed. Every simulated-time output of a round is a pure
// function of the seed, so all rounds of a run must produce the same
// digest; only the wall-clock figures differ between rounds, and the
// reported ones are medians over rounds.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/chain/blockchain.h"
#include "src/core/scenario.h"
#include "src/protocols/engine_base.h"
#include "src/protocols/swap_report.h"
#include "src/protocols/trent.h"
#include "src/runner/sweep_runner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Worker threads for the parallel workload: the host's core count.
  int threads = 1;
  /// Index of the round within the run; the one-off checks and the replay
  /// probes run on round 0 only.
  int round = 0;
};

/// A breached correctness check. Thrown from anywhere in a round (worker
/// threads included: the runner's pool rethrows on the caller); main()
/// reports it and exits non-zero.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure with `what` unless `ok`.
void Check(bool ok, const std::string& what);

/// FNV-1a over the deterministic outputs of a round.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(const ac3::crypto::Hash256& h);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Adds the wall time of its scope to `*sink_s` when tracing is on; free
/// when it is off.
class Span {
 public:
  Span(bool on, double* sink_s) : sink_(on ? sink_s : nullptr) {
    if (sink_ != nullptr) t0_ = Clock::now();
  }
  ~Span() {
    if (sink_ != nullptr) *sink_ += SecondsSince(t0_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* sink_;
  Clock::time_point t0_;
};

/// What one round of a workload reports.
struct RoundResult {
  double setup_s = 0;  ///< Wall time before the first timed operation.
  double timed_s = 0;  ///< Wall time of the timed phase.
  int64_t attempted = 0;
  int64_t completed = 0;  ///< Operations that reached their verdict.
  /// Simulated arrival-to-commit latency of each committed operation.
  std::vector<double> latencies_ms;
  double fees = 0;  ///< On-chain fees paid, read back from the blocks.
  Digest digest;    ///< Deterministic outputs; must repeat every round.
  /// Per-layer metrics, filled on traced rounds.
  std::map<std::string, double> layers;
};

/// Process counters around a round's timed phase.
class TimedPhase {
 public:
  TimedPhase();
  /// Sets result->timed_s and, on traced rounds, the proc.* layer metrics.
  void End(bool trace, RoundResult* result) const;

 private:
  Clock::time_point t0_;
  double cpu0_s_ = 0;
  int64_t invol0_ = 0;
};

/// A field of /proc/self/status in kB or count ("VmHWM", "Threads"); 0 if
/// absent.
int64_t ProcStatusField(const char* key);

/// Nearest-rank percentile of `sorted` (q in (0, 1]), interpolating between
/// the two middle ranks for the median of an even count.
double Percentile(const std::vector<double>& sorted, double q);
double Median(std::vector<double> values);

// ---- reading the chains back ---------------------------------------------

/// Totals over one chain's canonical branch, walked from the head.
struct ChainTally {
  int64_t blocks = 0;  ///< Canonical blocks after genesis.
  int64_t txs = 0;     ///< Non-coinbase transactions in them.
  double fees = 0;     ///< Fees those transactions paid.
};

/// Walks `chain`'s canonical branch and checks value conservation: the
/// liquid plus contract-locked value at the head equals the genesis
/// allocations plus every block's reward (coinbase output less the fees it
/// collected), and no coinbase claims more than reward plus fees.
ChainTally TallyAndCheckConservation(const ac3::chain::Blockchain& chain);

/// Checks the all-or-nothing property of one swap from the asset chains'
/// heads: every contract the swap deployed is redeemed, or every one is
/// refunded (undeployed edges count as refunded); none is left locked.
/// Also checks the engine's verdict agrees with the chains. Returns true
/// when the chains say the swap committed.
bool CheckSwapOnChain(const ac3::core::Environment& env,
                      const ac3::protocols::SwapReport& report,
                      const std::string& label);

/// Every atomic-swap contract at the heads of `chains`, sorted; each one
/// must belong to some swap's reported edge.
std::vector<ac3::crypto::Hash256> SwapContractsAtHeads(
    const ac3::core::Environment& env,
    const std::vector<ac3::chain::ChainId>& chains);

/// The per-layer replay probes, run after the timed phase: replays the
/// chain's canonical blocks into a fresh Blockchain with the same genesis
/// (the replayed head must match), looks up every included transaction,
/// and verifies every signature. Adds wall totals and counts to `acc`.
struct ProbeTotals {
  double replay_s = 0;
  int64_t replay_blocks = 0;
  double find_s = 0;
  int64_t finds = 0;
  double verify_s = 0;
  int64_t verifies = 0;
  void Into(std::map<std::string, double>* layers) const;
};
void ProbeChain(const ac3::chain::Blockchain& chain, ProbeTotals* acc);

// ---- engines ---------------------------------------------------------------

/// Builds the `protocol` engine over `world` with the sweep's shared engine
/// knobs, exactly as runner::RunSwapReport does. `trent` is used only for
/// AC3TW.
std::unique_ptr<ac3::protocols::SwapEngineBase> MakeEngine(
    ac3::runner::Protocol protocol, ac3::core::ScenarioWorld* world,
    ac3::graph::Ac2tGraph graph,
    std::vector<ac3::protocols::Participant*> participants,
    ac3::protocols::TrustedWitness* trent,
    const ac3::runner::SweepGridConfig& config);

// ---- workloads -------------------------------------------------------------

RoundResult RunSwapStorm(const Args& args);
RoundResult RunSweepGrid(const Args& args);
RoundResult RunTransferIngest(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
