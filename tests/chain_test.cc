// Unit tests for the blockchain substrate: transactions, blocks, PoW,
// ledger execution, fork choice, canonical queries, mempool, wallet, and
// the Poisson mining network.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chain/blockchain.h"
#include "src/chain/mempool.h"
#include "src/chain/mining.h"
#include "src/chain/pow.h"
#include "src/chain/wallet.h"
#include "src/contracts/atomic_swap_contract.h"
#include "src/contracts/htlc_contract.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace ac3::chain {
namespace {

// Disambiguates the vector/span AssembleBlock overloads at empty-candidate
// call sites ({} binds to both).
const std::vector<Transaction> kNoCandidates;

using testutil::Fund;
using testutil::TestChain;

ChainParams FastParams(ChainId id = 0) {
  ChainParams p = TestChainParams();
  p.id = id;
  return p;
}

crypto::KeyPair Alice() { return crypto::KeyPair::FromSeed(1001); }
crypto::KeyPair Bob() { return crypto::KeyPair::FromSeed(1002); }

// ------------------------------------------------------------ transactions

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = 3;
  tx.inputs.push_back(OutPoint{crypto::Hash256::OfString("prev"), 1});
  tx.outputs.push_back(TxOutput{25, Alice().public_key()});
  tx.fee = 2;
  tx.nonce = 99;
  tx.SignWith(Bob());

  auto decoded = Transaction::Decode(tx.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Id(), tx.Id());
  EXPECT_EQ(decoded->outputs[0].value, 25u);
  EXPECT_TRUE(decoded->VerifySignature());
}

TEST(TransactionTest, SignatureCoversContent) {
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.outputs.push_back(TxOutput{10, Alice().public_key()});
  tx.SignWith(Bob());
  EXPECT_TRUE(tx.VerifySignature());
  tx.outputs[0].value = 11;  // Tamper.
  EXPECT_FALSE(tx.VerifySignature());
}

TEST(TransactionTest, NonceChangesId) {
  Transaction a, b;
  a.type = b.type = TxType::kTransfer;
  a.nonce = 1;
  b.nonce = 2;
  a.SignWith(Alice());
  b.SignWith(Alice());
  EXPECT_NE(a.Id(), b.Id());
}

// ------------------------------------------------------------------ blocks

TEST(BlockTest, HeaderRoundTrip) {
  BlockHeader h;
  h.chain_id = 2;
  h.height = 5;
  h.prev_hash = crypto::Hash256::OfString("parent");
  h.tx_root = crypto::Hash256::OfString("txroot");
  h.receipt_root = crypto::Hash256::OfString("rcroot");
  h.time = 1234;
  h.difficulty_bits = 8;
  h.nonce = 42;

  Bytes encoded = h.Encode();
  ByteReader r(encoded);
  auto decoded = BlockHeader::Decode(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, h);
  EXPECT_EQ(decoded->Hash(), h.Hash());
}

TEST(PowTest, DifficultyZeroAlwaysPasses) {
  EXPECT_TRUE(HashMeetsDifficulty(crypto::Hash256::OfString("x"), 0));
}

TEST(PowTest, MineHeaderSatisfiesTarget) {
  Rng rng(5);
  BlockHeader h;
  h.difficulty_bits = 12;
  uint64_t evals = MineHeader(&h, &rng);
  EXPECT_GE(evals, 1u);
  EXPECT_TRUE(CheckProofOfWork(h));
}

TEST(PowTest, TamperedNonceFails) {
  Rng rng(5);
  BlockHeader h;
  h.difficulty_bits = 14;
  MineHeader(&h, &rng);
  ASSERT_TRUE(CheckProofOfWork(h));
  h.nonce ^= 0xdeadbeef;
  // Overwhelmingly likely to fail the 14-bit target.
  EXPECT_FALSE(CheckProofOfWork(h));
}

TEST(PowTest, WorkGrowsExponentially) {
  EXPECT_DOUBLE_EQ(WorkForDifficulty(10) * 2, WorkForDifficulty(11));
}

// ------------------------------------------------------------------ ledger

TEST(LedgerTest, GenesisFundsAllocations) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Alice().public_key()), 500u);
  EXPECT_EQ(tc.chain().StateAtHead().TotalValue(), 500u);
}

TEST(LedgerTest, TransferMovesValue) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 120, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  const LedgerState& state = tc.chain().StateAtHead();
  EXPECT_EQ(state.BalanceOf(Bob().public_key()), 120u);
  // 500 - 120 - 1 fee = 379 change.
  EXPECT_EQ(state.BalanceOf(Alice().public_key()), 379u);
}

TEST(LedgerTest, DoubleSpendRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 100, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());

  // Re-submitting the same transaction must not be re-included.
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 100u);
}

TEST(LedgerTest, ForeignInputsRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  // Bob tries to spend Alice's UTXO.
  Transaction theft;
  theft.type = TxType::kTransfer;
  theft.chain_id = 0;
  theft.inputs.push_back(OutPoint{tc.chain().genesis_tx().Id(), 0});
  theft.outputs.push_back(TxOutput{499, Bob().public_key()});
  theft.fee = 1;
  theft.SignWith(Bob());

  LedgerState state = tc.chain().StateAtHead();
  BlockEnv env{0, 1, 100};
  auto receipt = ApplyTransaction(&state, theft, env);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status().code(), StatusCode::kVerificationFailed);
}

TEST(LedgerTest, DuplicateInputOutpointRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  // Listing the same 500-value outpoint twice must not let Alice claim
  // 1000 of outputs (value inflation).
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = 0;
  const OutPoint funding{tc.chain().genesis_tx().Id(), 0};
  tx.inputs = {funding, funding};
  tx.outputs.push_back(TxOutput{999, Bob().public_key()});
  tx.fee = 1;
  tx.SignWith(Alice());

  LedgerState state = tc.chain().StateAtHead();
  BlockEnv env{0, 1, 100};
  auto receipt = ApplyTransaction(&state, tx, env);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(state.TotalValue(), 500u);
}

TEST(LedgerTest, ValueImbalanceRejected) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.chain_id = 0;
  tx.inputs.push_back(OutPoint{tc.chain().genesis_tx().Id(), 0});
  tx.outputs.push_back(TxOutput{600, Bob().public_key()});  // Inflates value.
  tx.fee = 0;
  tx.SignWith(Alice());

  LedgerState state = tc.chain().StateAtHead();
  BlockEnv env{0, 1, 100};
  EXPECT_FALSE(ApplyTransaction(&state, tx, env).ok());
}

TEST(LedgerTest, MergeAndSplitSemantics) {
  // Figure 2: merge three inputs into one output, then split.
  std::vector<TxOutput> allocations(3, TxOutput{100, Alice().public_key()});
  TestChain tc(FastParams(), allocations);
  Wallet alice(Alice(), 0);
  // Merge: transfer 299 to Bob (consumes all three 100s, fee 1).
  auto merge = alice.BuildTransfer(tc.chain().StateAtHead(),
                                   Bob().public_key(), 299, 1, 1);
  ASSERT_TRUE(merge.ok());
  EXPECT_EQ(merge->inputs.size(), 3u);
  ASSERT_TRUE(tc.MineBlock({*merge}).ok());

  // Split: Bob sends 50 back, keeps change.
  Wallet bob(Bob(), 0);
  auto split = bob.BuildTransfer(tc.chain().StateAtHead(),
                                 Alice().public_key(), 50, 1, 2);
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(tc.MineBlock({*split}).ok());
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Alice().public_key()), 50u);
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 248u);
}

TEST(LedgerTest, TotalValueConservedPlusRewards) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 500));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 100, 2, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  // Genesis 500 + one block reward. The fee leaves Alice and re-enters the
  // system inside the coinbase, so only the reward is net-new value.
  EXPECT_EQ(tc.chain().StateAtHead().TotalValue(),
            500u + tc.chain().params().block_reward);
}

// ------------------------------------------------------------- fork choice

TEST(BlockchainTest, RejectsUnknownParent) {
  TestChain tc(FastParams(), {});
  Block orphan;
  orphan.header.chain_id = 0;
  orphan.header.height = 5;
  orphan.header.prev_hash = crypto::Hash256::OfString("nowhere");
  EXPECT_EQ(tc.chain().SubmitBlock(orphan, 0).code(), StatusCode::kNotFound);
}

TEST(BlockchainTest, RejectsBadPow) {
  TestChain tc(FastParams(), {});
  Rng rng(3);
  auto block = tc.chain().AssembleBlock(tc.chain().head()->hash, kNoCandidates,
                                        Alice().public_key(), 50, &rng);
  ASSERT_TRUE(block.ok());
  Block bad = *block;
  // Find a nonce that fails the target.
  do {
    ++bad.header.nonce;
  } while (CheckProofOfWork(bad.header));
  EXPECT_EQ(tc.chain().SubmitBlock(bad, 50).code(),
            StatusCode::kVerificationFailed);
}

TEST(BlockchainTest, RejectsTamperedReceipts) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  Rng rng(3);
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 10, 1, 1);
  ASSERT_TRUE(tx.ok());
  auto block = tc.chain().AssembleBlock(tc.chain().head()->hash, {*tx},
                                        Alice().public_key(), 50, &rng);
  ASSERT_TRUE(block.ok());
  Block bad = *block;
  bad.receipts[1].note = "forged";
  bad.header.receipt_root = bad.ComputeReceiptRoot();
  MineHeader(&bad.header, &rng);
  EXPECT_EQ(tc.chain().SubmitBlock(bad, 50).code(),
            StatusCode::kVerificationFailed);
}

TEST(BlockchainTest, ForkResolvesToHeavierBranch) {
  TestChain tc(FastParams(), {});
  Rng rng(17);
  const BlockEntry* root = tc.chain().head();

  // Two competing children.
  auto a1 = tc.chain().AssembleBlock(root->hash, kNoCandidates, Alice().public_key(),
                                     100, &rng);
  auto b1 = tc.chain().AssembleBlock(root->hash, kNoCandidates, Bob().public_key(),
                                     100, &rng);
  ASSERT_TRUE(a1.ok() && b1.ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*a1, 100).ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*b1, 101).ok());
  // First seen (a1) wins the tie.
  EXPECT_EQ(tc.chain().head()->hash, a1->header.Hash());

  // Extend the b-branch: it becomes strictly heavier.
  auto b2 = tc.chain().AssembleBlock(b1->header.Hash(), kNoCandidates,
                                     Bob().public_key(), 200, &rng);
  ASSERT_TRUE(b2.ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*b2, 200).ok());
  EXPECT_EQ(tc.chain().head()->hash, b2->header.Hash());

  // The a-branch is no longer canonical.
  EXPECT_FALSE(tc.chain().IsCanonical(a1->header.Hash()));
  EXPECT_TRUE(tc.chain().IsCanonical(b1->header.Hash()));
}

TEST(BlockchainTest, ReorgRevertsState) {
  // A transfer included on a losing branch must not affect the winning
  // branch's state.
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  Rng rng(19);
  const BlockEntry* root = tc.chain().head();

  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 50, 1, 1);
  ASSERT_TRUE(tx.ok());

  // Use a neutral miner key so coinbase rewards don't pollute balances.
  const crypto::PublicKey miner = crypto::KeyPair::FromSeed(9999).public_key();
  auto with_tx =
      tc.chain().AssembleBlock(root->hash, {*tx}, miner, 100, &rng);
  auto without1 = tc.chain().AssembleBlock(root->hash, kNoCandidates, miner, 100, &rng);
  ASSERT_TRUE(with_tx.ok() && without1.ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*with_tx, 100).ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*without1, 101).ok());
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 50u);

  auto without2 = tc.chain().AssembleBlock(without1->header.Hash(), kNoCandidates, miner,
                                           200, &rng);
  ASSERT_TRUE(without2.ok());
  ASSERT_TRUE(tc.chain().SubmitBlock(*without2, 200).ok());
  // Reorged to the empty branch: Bob never got paid there.
  EXPECT_EQ(tc.chain().StateAtHead().BalanceOf(Bob().public_key()), 0u);
}

TEST(BlockchainTest, ConfirmationsAndStableBlock) {
  TestChain tc(FastParams(), {});
  ASSERT_TRUE(tc.MineEmpty(10).ok());
  const BlockEntry* head = tc.chain().head();
  EXPECT_EQ(head->block.header.height, 10u);
  EXPECT_EQ(tc.chain().ConfirmationsOf(head->hash), 0u);
  EXPECT_EQ(tc.chain().ConfirmationsOf(tc.chain().genesis()->hash), 10u);

  const BlockEntry* stable = tc.chain().StableBlock(6);
  EXPECT_EQ(stable->block.header.height, 4u);
  // Clamped at genesis.
  EXPECT_EQ(tc.chain().StableBlock(100)->hash, tc.chain().genesis()->hash);
}

TEST(BlockchainTest, HeadersAfterReturnsOrderedSuffix) {
  TestChain tc(FastParams(), {});
  ASSERT_TRUE(tc.MineEmpty(5).ok());
  const BlockEntry* anchor = tc.chain().StableBlock(3);  // height 2.
  auto headers = tc.chain().HeadersAfter(anchor->hash);
  ASSERT_TRUE(headers.ok());
  ASSERT_EQ(headers->size(), 3u);
  EXPECT_EQ((*headers)[0].height, 3u);
  EXPECT_EQ((*headers)[2].height, 5u);
  EXPECT_EQ((*headers)[0].prev_hash, anchor->hash);
}

TEST(BlockchainTest, FindTxLocatesCanonicalInclusion) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 10, 1, 7);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tc.MineBlock({*tx}).ok());
  auto loc = tc.chain().FindTx(tx->Id());
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->index, 1u);  // After the coinbase.
  EXPECT_FALSE(tc.chain().FindTx(crypto::Hash256::OfString("no")).has_value());
}

// --------------------------------------------------------- block execution
//
// ApplyBlockBody is the one execution path for every block: validators
// (SubmitBlock, SubmitBlocks), the private-branch miner, and — through
// ApplyTransaction — assembly's selection loop. These cases pin its
// invalid-body statuses (with the partial mutation it leaves behind),
// assembly's reuse of selection receipts, the capacity cap, the UTXO
// aggregates, and SubmitBlocks' thread-count invariance.

class BlockExecutionTest : public ::testing::Test {
 protected:
  BlockExecutionTest() {
    std::vector<crypto::PublicKey> pks;
    for (int i = 0; i < 16; ++i) {
      keys_.push_back(crypto::KeyPair::FromSeed(1000 + i));
      pks.push_back(keys_.back().public_key());
    }
    tc_ = std::make_unique<TestChain>(TestChainParams(), Fund(pks, 1000));
  }

  Blockchain& chain() { return tc_->chain(); }
  const ChainParams& params() { return chain().params(); }
  const LedgerState& head_state() { return chain().head()->state; }
  Wallet WalletFor(size_t i) { return Wallet(keys_[i], chain().id()); }

  /// A funded transfer of 25 from key `from` to key `from + 1`.
  Transaction TransferFrom(size_t from) {
    auto tx = WalletFor(from).BuildTransfer(
        head_state(), keys_[from + 1].public_key(), 25, 1, from);
    EXPECT_TRUE(tx.ok()) << tx.status().ToString();
    return *tx;
  }

  /// A coinbase-headed block built outside AssembleBlock, for invalid
  /// shapes the assembler would never produce. `fees` funds the coinbase.
  Block RawBlock(std::vector<Transaction> body, Amount fees) {
    Block block;
    block.header.chain_id = params().id;
    block.header.height = chain().head()->height() + 1;
    block.header.time = now_ + 50;
    Transaction coinbase;
    coinbase.type = TxType::kCoinbase;
    coinbase.chain_id = params().id;
    coinbase.outputs.push_back(
        TxOutput{params().block_reward + fees, keys_[0].public_key()});
    coinbase.nonce = 4242;
    block.txs.push_back(std::move(coinbase));
    for (Transaction& tx : body) block.txs.push_back(std::move(tx));
    return block;
  }

  /// Assembles `candidates` on the head and submits the block.
  void AssembleAndSubmit(const std::vector<Transaction>& candidates) {
    now_ += 100;
    auto block = chain().AssembleBlock(chain().head()->hash, candidates,
                                       keys_[0].public_key(), now_,
                                       tc_->rng());
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    ASSERT_TRUE(chain().SubmitBlock(*block, now_).ok());
  }

  /// Applies `block` to a copy of the head state and checks the serial
  /// abort: `code`/`message` surface, the transactions before body index
  /// `failed_at` are applied, and the ones after it are not.
  void ExpectAbortAt(const Block& block, size_t failed_at, StatusCode code,
                     const std::string& message) {
    LedgerState state = head_state();
    auto receipts = ApplyBlockBody(&state, block, params());
    ASSERT_FALSE(receipts.ok());
    EXPECT_EQ(receipts.status().code(), code);
    EXPECT_NE(receipts.status().ToString().find(message), std::string::npos)
        << receipts.status().ToString();
    for (size_t i = 1; i < block.txs.size(); ++i) {
      const bool created =
          state.utxos.Find(OutPoint{block.txs[i].Id(), 0}) != nullptr;
      EXPECT_EQ(created, i < failed_at) << "body index " << i;
    }
  }

  /// Assembles `candidates` on the head, unmined, from a fixed RNG seed.
  Result<Block> AssembleOnHead(const std::vector<Transaction>& candidates) {
    std::vector<const Transaction*> pointers;
    for (const Transaction& tx : candidates) pointers.push_back(&tx);
    Rng rng(777);
    return chain().AssembleBlock(
        chain().head()->hash, std::span<const Transaction* const>(pointers),
        keys_[0].public_key(), now_ + 100, &rng, /*mine=*/false);
  }

  /// Re-executes an assembled `block` on the head state: the body applies
  /// and yields exactly the receipts assembly recorded.
  void ExpectReExecutionMatches(const Block& block) {
    LedgerState replay = head_state();
    auto receipts = ApplyBlockBody(&replay, block, params());
    ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
    ASSERT_EQ(receipts->size(), block.receipts.size());
    for (size_t i = 0; i < receipts->size(); ++i) {
      EXPECT_EQ((*receipts)[i].Encode(), block.receipts[i].Encode())
          << "receipt " << i;
    }
  }

  /// The ids of `block`'s body, coinbase excluded.
  static std::vector<crypto::Hash256> BodyIds(const Block& block) {
    std::vector<crypto::Hash256> ids;
    for (size_t i = 1; i < block.txs.size(); ++i) {
      ids.push_back(block.txs[i].Id());
    }
    return ids;
  }

  /// An HTLC deploy by key `from` locking 300 for key 2 under `secret`.
  Transaction HtlcDeployFrom(size_t from, const Bytes& secret,
                             uint64_t nonce) {
    const Bytes payload = contracts::HtlcContract::MakeInitPayload(
        keys_[2].public_key(), crypto::Hash256::Of(secret),
        /*timelock=*/10'000);
    auto tx = WalletFor(from).BuildDeploy(head_state(), contracts::kHtlcKind,
                                          payload, 300, 4, nonce);
    EXPECT_TRUE(tx.ok()) << tx.status().ToString();
    return *tx;
  }

  /// A redeem call by key `from` on `contract` presenting `secret`.
  Transaction RedeemFrom(size_t from, const crypto::Hash256& contract,
                         const Bytes& secret, uint64_t nonce) {
    auto tx = WalletFor(from).BuildCall(head_state(), contract,
                                        contracts::kRedeemFunction, secret, 2,
                                        nonce);
    EXPECT_TRUE(tx.ok()) << tx.status().ToString();
    return *tx;
  }

  std::vector<crypto::KeyPair> keys_;
  std::unique_ptr<TestChain> tc_;
  TimePoint now_ = 0;
};

TEST_F(BlockExecutionTest, MidBlockFailureAbortsAtFailingTx) {
  // Two valid transfers, a signed spend of a nonexistent outpoint, then
  // another valid transfer: the loop stops at index 3 with 1-2 applied.
  std::vector<Transaction> body{TransferFrom(1), TransferFrom(2)};
  Transaction bogus;
  bogus.type = TxType::kTransfer;
  bogus.chain_id = chain().id();
  bogus.inputs.push_back(OutPoint{crypto::Hash256::Of(Bytes{0xBA}), 0});
  bogus.outputs.push_back(TxOutput{5, keys_[9].public_key()});
  bogus.nonce = 77;
  bogus.SignWith(keys_[8]);
  body.push_back(std::move(bogus));
  body.push_back(TransferFrom(4));
  ExpectAbortAt(RawBlock(std::move(body), /*fees=*/4), 3,
                StatusCode::kInvalidArgument, "input not in UTXO set");
}

TEST_F(BlockExecutionTest, DuplicateCoinbaseAbortsAtItsPosition) {
  std::vector<Transaction> body{TransferFrom(1), TransferFrom(2)};
  Transaction rogue;  // A second coinbase buried mid-body.
  rogue.type = TxType::kCoinbase;
  rogue.chain_id = chain().id();
  rogue.outputs.push_back(TxOutput{1, keys_[9].public_key()});
  rogue.nonce = 5;
  body.push_back(std::move(rogue));
  body.push_back(TransferFrom(4));
  ExpectAbortAt(RawBlock(std::move(body), /*fees=*/2), 3,
                StatusCode::kInvalidArgument, "duplicate coinbase");
}

TEST_F(BlockExecutionTest, BadSignatureAbortsAtTamperedTx) {
  std::vector<Transaction> body{TransferFrom(1), TransferFrom(2),
                                TransferFrom(3), TransferFrom(4)};
  body[2].nonce ^= 1;  // Tampered after signing: body index 3.
  ExpectAbortAt(RawBlock(std::move(body), /*fees=*/4), 3,
                StatusCode::kVerificationFailed, "bad transaction signature");
}

TEST_F(BlockExecutionTest, AssembledReceiptsMatchFullReExecution) {
  // AssembleBlock reuses the selection-pass receipts instead of re-running
  // the body; this pins them against the validators' execution.
  std::vector<Transaction> txs;
  for (size_t i = 0; i < 8; ++i) {
    auto tx = WalletFor(i).BuildTransfer(head_state(),
                                         keys_[i + 1].public_key(), 60, 1, i);
    ASSERT_TRUE(tx.ok());
    txs.push_back(std::move(*tx));
  }
  auto block = chain().AssembleBlock(chain().head()->hash, txs,
                                     keys_[0].public_key(), 100, tc_->rng());
  ASSERT_TRUE(block.ok());
  LedgerState replay = head_state();
  auto receipts = ApplyBlockBody(&replay, *block, params());
  ASSERT_TRUE(receipts.ok());
  ASSERT_EQ(receipts->size(), block->receipts.size());
  for (size_t i = 0; i < receipts->size(); ++i) {
    EXPECT_EQ((*receipts)[i].Encode(), block->receipts[i].Encode());
  }
  EXPECT_EQ(block->header.receipt_root, block->ComputeReceiptRoot());
}

TEST(AssembleBlockTest, CapacityCapKeepsFifoPrefix) {
  // More valid candidates than max_block_txs: selection stops at capacity
  // with exactly the first max_block_txs candidates, in order.
  ChainParams params = TestChainParams();
  params.max_block_txs = 7;
  std::vector<crypto::KeyPair> keys;
  std::vector<crypto::PublicKey> pks;
  for (int i = 0; i < 24; ++i) {
    keys.push_back(crypto::KeyPair::FromSeed(7000 + i));
    pks.push_back(keys.back().public_key());
  }
  TestChain tc(params, Fund(pks, 1000));
  std::vector<Transaction> txs;
  std::vector<const Transaction*> pointers;
  for (size_t i = 0; i < keys.size(); ++i) {
    Wallet w(keys[i], tc.chain().id());
    auto tx = w.BuildTransfer(tc.chain().head()->state,
                              pks[(i + 1) % pks.size()], 100, 1, i);
    ASSERT_TRUE(tx.ok());
    txs.push_back(std::move(*tx));
  }
  for (const Transaction& tx : txs) pointers.push_back(&tx);
  Rng rng(777);
  auto block = tc.chain().AssembleBlock(
      tc.chain().head()->hash, std::span<const Transaction* const>(pointers),
      pks[0], 100, &rng, /*mine=*/false);
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(block->txs.size(), params.max_block_txs + 1);  // +1 coinbase.
  for (size_t i = 0; i < params.max_block_txs; ++i) {
    EXPECT_EQ(block->txs[i + 1].Id(), txs[i].Id()) << "slot " << i;
  }
}

TEST_F(BlockExecutionTest, AggregatesMatchScanOraclesUnderChurn) {
  Rng rng(0xfeed);
  for (int round = 0; round < 6; ++round) {
    std::vector<Transaction> txs;
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (rng.NextU64() % 4 == 0) continue;  // Skip some senders.
      const size_t to = rng.NextU64() % keys_.size();
      const Amount amount = 10 + static_cast<Amount>(rng.NextU64() % 50);
      auto tx = WalletFor(i).BuildTransfer(
          head_state(), keys_[to].public_key(), amount, 1, rng.NextU64());
      if (tx.ok()) txs.push_back(std::move(*tx));
    }
    AssembleAndSubmit(txs);
  }
  // The maintained aggregates stayed exact mirrors of the UTXO set.
  EXPECT_EQ(head_state().LiquidValue(), head_state().LiquidValueScan());
  for (const auto& key : keys_) {
    EXPECT_EQ(head_state().BalanceOf(key.public_key()),
              head_state().BalanceOfScan(key.public_key()));
  }
}

TEST_F(BlockExecutionTest, SubmitBlocksDeepCatchupThreadInvariant) {
  // Grow a 10-block linear chain of 8-transfer blocks, then replay it into
  // fresh chains through SubmitBlocks at several thread counts: the head
  // hash and post-state must not depend on the thread count.
  for (int round = 0; round < 10; ++round) {
    std::vector<Transaction> txs;
    for (size_t i = 0; i < 8; ++i) {
      auto tx = WalletFor(i + (round % 2 == 0 ? 0 : 8))
                    .BuildTransfer(head_state(),
                                   keys_[(i + 3) % keys_.size()].public_key(),
                                   20, 1,
                                   static_cast<uint64_t>(round) * 100 + i);
      ASSERT_TRUE(tx.ok());
      txs.push_back(std::move(*tx));
    }
    AssembleAndSubmit(txs);
  }
  std::vector<Block> batch;
  for (const BlockEntry* entry : chain().arrival_order()) {
    if (entry->height() > 0) batch.push_back(entry->block);
  }
  ASSERT_EQ(batch.size(), 10u);

  std::vector<crypto::PublicKey> pks;
  for (const auto& k : keys_) pks.push_back(k.public_key());
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Blockchain replica(TestChainParams(), Fund(pks, 1000));
    auto result = replica.SubmitBlocks(batch, /*arrival_time=*/1, threads);
    EXPECT_EQ(result.accepted, batch.size());
    for (const Status& status : result.statuses) {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    ASSERT_EQ(replica.head()->hash, chain().head()->hash);
    EXPECT_TRUE(replica.StateAtHead().utxos == head_state().utxos);
    EXPECT_TRUE(replica.StateAtHead().balances == head_state().balances);
  }
}

// Intra-block dependencies: the body runs strictly in block order, so a
// transaction sees the outputs and contract updates of every earlier one
// and of no later one.

TEST_F(BlockExecutionTest, DisjointTransfersAllApply) {
  // 15 transfers from distinct keys, key i paying 50 + i to key i + 1.
  std::vector<Transaction> body;
  for (size_t i = 0; i < 15; ++i) {
    auto tx = WalletFor(i).BuildTransfer(head_state(),
                                         keys_[i + 1].public_key(),
                                         50 + static_cast<Amount>(i), 1, i);
    ASSERT_TRUE(tx.ok());
    body.push_back(std::move(*tx));
  }
  LedgerState state = head_state();
  auto receipts =
      ApplyBlockBody(&state, RawBlock(body, /*fees=*/15), params());
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), body.size() + 1);
  for (const Receipt& receipt : *receipts) EXPECT_TRUE(receipt.success);
  for (size_t i = 0; i < keys_.size(); ++i) {
    Amount expected = 1000;
    if (i < 15) expected -= 51 + static_cast<Amount>(i);
    if (i > 0) expected += 50 + static_cast<Amount>(i - 1);
    if (i == 0) expected += params().block_reward + 15;  // Coinbase.
    EXPECT_EQ(state.BalanceOf(keys_[i].public_key()), expected) << "key " << i;
  }
  EXPECT_EQ(state.LiquidValue(),
            head_state().LiquidValue() + params().block_reward);
}

TEST_F(BlockExecutionTest, SameBlockDoubleSpendAbortsAtSecondSpend) {
  // Two wallets over key 1 do not see each other's reservations, so both
  // spend its genesis output: the first applies, the second aborts.
  Wallet first = WalletFor(1);
  Wallet second = WalletFor(1);
  auto a = first.BuildTransfer(head_state(), keys_[2].public_key(), 900, 1, 1);
  auto b = second.BuildTransfer(head_state(), keys_[3].public_key(), 900, 1, 2);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->inputs, b->inputs);
  ExpectAbortAt(RawBlock({*a, *b, TransferFrom(4)}, /*fees=*/3), 2,
                StatusCode::kInvalidArgument, "input not in UTXO set");
}

TEST_F(BlockExecutionTest, ChainedSpendsApplyInBlockOrder) {
  // Key 1 pays a fresh key, which pays the next fresh key out of that very
  // output, and so on: each link spends an output created in the block.
  std::vector<crypto::KeyPair> fresh;
  for (int i = 0; i < 3; ++i) {
    fresh.push_back(crypto::KeyPair::FromSeed(5000 + i));
  }
  LedgerState scratch = head_state();
  const BlockEnv env{chain().id(), chain().head()->height() + 1, now_ + 50};
  std::vector<Transaction> body;
  auto head = WalletFor(1).BuildTransfer(scratch, fresh[0].public_key(), 500,
                                         1, 1);
  ASSERT_TRUE(head.ok());
  ASSERT_TRUE(ApplyTransaction(&scratch, *head, env).ok());
  body.push_back(std::move(*head));
  for (size_t i = 0; i + 1 < fresh.size(); ++i) {
    Wallet w(fresh[i], chain().id());
    auto tx = w.BuildTransfer(scratch, fresh[i + 1].public_key(),
                              400 - static_cast<Amount>(i) * 50, 1, 1);
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(ApplyTransaction(&scratch, *tx, env).ok());
    body.push_back(std::move(*tx));
  }

  LedgerState state = head_state();
  auto receipts = ApplyBlockBody(&state, RawBlock(body, /*fees=*/3), params());
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  // Every link's payment was consumed by the next link; the last stands.
  for (size_t i = 0; i + 1 < body.size(); ++i) {
    EXPECT_EQ(state.utxos.Find(OutPoint{body[i].Id(), 0}), nullptr)
        << "link " << i;
  }
  const TxOutput* last = state.utxos.Find(OutPoint{body.back().Id(), 0});
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->owner, fresh.back().public_key());
  EXPECT_EQ(last->value, 350u);
}

TEST_F(BlockExecutionTest, SpendOfLaterTxOutputAbortsAtSpender) {
  // `spender` names the output of `payment`, which sits after it in the
  // body: when the spender runs, that output does not exist yet.
  const crypto::KeyPair fresh = crypto::KeyPair::FromSeed(5100);
  const Transaction payment = [&] {
    auto tx = WalletFor(1).BuildTransfer(head_state(), fresh.public_key(),
                                         500, 1, 1);
    EXPECT_TRUE(tx.ok());
    return *tx;
  }();
  Transaction spender;
  spender.type = TxType::kTransfer;
  spender.chain_id = chain().id();
  spender.inputs.push_back(OutPoint{payment.Id(), 0});
  spender.outputs.push_back(TxOutput{499, keys_[9].public_key()});
  spender.fee = 1;
  spender.nonce = 2;
  spender.SignWith(fresh);

  ExpectAbortAt(RawBlock({spender, payment}, /*fees=*/2), 1,
                StatusCode::kInvalidArgument, "input not in UTXO set");
  // In dependency order the same pair applies.
  LedgerState state = head_state();
  auto receipts =
      ApplyBlockBody(&state, RawBlock({payment, spender}, 2), params());
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  EXPECT_NE(state.utxos.Find(OutPoint{spender.Id(), 0}), nullptr);
}

TEST_F(BlockExecutionTest, SameContractCallsApplyInBlockOrder) {
  const Bytes secret{7, 7, 7};
  const Transaction deploy = HtlcDeployFrom(1, secret, 1);
  AssembleAndSubmit({deploy});

  // A wrong secret (reverts), the right one (redeems), then the right one
  // again (reverts: the contract is no longer published).
  const std::vector<Transaction> calls{
      RedeemFrom(3, deploy.Id(), Bytes{6, 6, 6}, 1),
      RedeemFrom(2, deploy.Id(), secret, 2),
      RedeemFrom(4, deploy.Id(), secret, 3)};
  auto block = AssembleOnHead(calls);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  ASSERT_EQ(BodyIds(*block), (std::vector<crypto::Hash256>{
                                 calls[0].Id(), calls[1].Id(), calls[2].Id()}));
  EXPECT_FALSE(block->receipts[1].success);
  EXPECT_NE(block->receipts[1].note.find("rejected the secret"),
            std::string::npos)
      << block->receipts[1].note;
  EXPECT_TRUE(block->receipts[2].success);
  EXPECT_EQ(block->receipts[2].note, "redeemed");
  EXPECT_FALSE(block->receipts[3].success);
  EXPECT_NE(block->receipts[3].note.find("requires state P"),
            std::string::npos)
      << block->receipts[3].note;
  ExpectReExecutionMatches(*block);

  // The redeem paid the locked 300 to key 2, after the call's own outputs.
  LedgerState state = head_state();
  ASSERT_TRUE(ApplyBlockBody(&state, *block, params()).ok());
  const TxOutput* payout = state.utxos.Find(OutPoint{
      calls[1].Id(), static_cast<uint32_t>(calls[1].outputs.size())});
  ASSERT_NE(payout, nullptr);
  EXPECT_EQ(payout->value, 300u);
  EXPECT_EQ(payout->owner, keys_[2].public_key());
}

TEST_F(BlockExecutionTest, CallAfterSameBlockDeployApplies) {
  const Bytes secret{7, 7, 7};
  const Transaction deploy = HtlcDeployFrom(1, secret, 1);
  const Transaction redeem = RedeemFrom(2, deploy.Id(), secret, 2);
  auto block = AssembleOnHead({deploy, redeem});
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  ASSERT_EQ(BodyIds(*block),
            (std::vector<crypto::Hash256>{deploy.Id(), redeem.Id()}));
  EXPECT_TRUE(block->receipts[1].success);
  EXPECT_TRUE(block->receipts[2].success);
  EXPECT_EQ(block->receipts[2].note, "redeemed");
  ExpectReExecutionMatches(*block);
  // Call first: the contract does not exist yet when it runs.
  ExpectAbortAt(RawBlock({redeem, deploy}, /*fees=*/6), 1,
                StatusCode::kNotFound, "no contract");
}

TEST_F(BlockExecutionTest, RedeemRevertAndSameBlockHopAssemble) {
  // Block 1: two HTLCs (one to redeem, one to feed a wrong-secret revert)
  // plus independent transfers.
  const Bytes secret{7, 7, 7};
  const Transaction deploy_a = HtlcDeployFrom(1, secret, 1);
  const Transaction deploy_b = HtlcDeployFrom(3, secret, 2);
  std::vector<Transaction> block1{deploy_a, deploy_b};
  for (size_t i = 4; i < 10; ++i) {
    auto tx = WalletFor(i).BuildTransfer(head_state(),
                                         keys_[i + 1].public_key(), 40, 1, i);
    ASSERT_TRUE(tx.ok());
    block1.push_back(std::move(*tx));
  }
  AssembleAndSubmit(block1);
  ASSERT_EQ(chain().head()->block.txs.size(), block1.size() + 1);

  // Block 2: a redeem, a wrong-secret revert, a transfer whose output a
  // second transfer consumes inside the block, and independent transfers.
  const Transaction redeem = RedeemFrom(2, deploy_a.Id(), secret, 1);
  const Transaction bad_redeem =
      RedeemFrom(15, deploy_b.Id(), Bytes{6, 6, 6}, 2);
  auto hop1 = WalletFor(5).BuildTransfer(head_state(), keys_[6].public_key(),
                                         100, 1, 7);
  ASSERT_TRUE(hop1.ok());
  Transaction hop2;
  hop2.type = TxType::kTransfer;
  hop2.chain_id = chain().id();
  hop2.inputs.push_back(OutPoint{hop1->Id(), 0});
  hop2.outputs.push_back(TxOutput{99, keys_[7].public_key()});
  hop2.fee = 1;
  hop2.nonce = 8;
  hop2.SignWith(keys_[6]);
  std::vector<Transaction> block2{redeem, bad_redeem, *hop1, hop2};
  for (size_t i = 10; i < 14; ++i) {
    auto tx = WalletFor(i).BuildTransfer(head_state(),
                                         keys_[i + 1].public_key(), 30, 1, i);
    ASSERT_TRUE(tx.ok());
    block2.push_back(std::move(*tx));
  }

  auto block = AssembleOnHead(block2);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  std::vector<crypto::Hash256> ids;
  for (const Transaction& tx : block2) ids.push_back(tx.Id());
  ASSERT_EQ(BodyIds(*block), ids);
  EXPECT_TRUE(block->receipts[1].success);
  EXPECT_FALSE(block->receipts[2].success);
  ExpectReExecutionMatches(*block);

  MineHeader(&block->header, tc_->rng());
  ASSERT_TRUE(CheckProofOfWork(block->header));
  ASSERT_TRUE(chain().SubmitBlock(*block, now_ + 100).ok());
  EXPECT_EQ(chain().head()->hash, block->header.Hash());
  EXPECT_NE(head_state().utxos.Find(OutPoint{hop2.Id(), 0}), nullptr);
  EXPECT_EQ(head_state().utxos.Find(OutPoint{hop1->Id(), 0}), nullptr);
}

// Assembly's FIFO selection runs each candidate on the running state and
// keeps it only if it applies; the kept set re-executes to the same
// receipts.

TEST_F(BlockExecutionTest, AssembleSelectsIndependentSetInOrder) {
  std::vector<Transaction> txs;
  std::vector<crypto::Hash256> ids;
  for (size_t i = 0; i < 15; ++i) {
    auto tx = WalletFor(i).BuildTransfer(
        head_state(), keys_[(i + 1) % keys_.size()].public_key(),
        40 + static_cast<Amount>(i), 1, i);
    ASSERT_TRUE(tx.ok());
    ids.push_back(tx->Id());
    txs.push_back(std::move(*tx));
  }
  auto block = AssembleOnHead(txs);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(BodyIds(*block), ids);
  ExpectReExecutionMatches(*block);
}

TEST_F(BlockExecutionTest, AssembleSkipsConflictsDuplicatesAndInvalid) {
  // Pairs double-spending one key's funds (two Wallet instances over one
  // key), an exact duplicate, a bad signature and a spend of a nonexistent
  // output. FIFO selection keeps the first of each pair and skips the rest.
  std::vector<Transaction> txs;
  std::vector<crypto::Hash256> kept;
  for (size_t i = 0; i < 6; ++i) {
    Wallet first = WalletFor(i);
    Wallet second = WalletFor(i);
    auto a = first.BuildTransfer(head_state(), keys_[i + 1].public_key(), 900,
                                 1, 1);
    auto b = second.BuildTransfer(head_state(), keys_[i + 2].public_key(),
                                  900, 1, 2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    kept.push_back(a->Id());
    txs.push_back(std::move(*a));
    txs.push_back(std::move(*b));
  }
  txs.push_back(txs[0]);  // Exact duplicate id.
  Transaction corrupt = txs[2];
  corrupt.fee += 1;  // Invalidates the signature.
  txs.push_back(std::move(corrupt));
  Transaction phantom;
  phantom.type = TxType::kTransfer;
  phantom.chain_id = chain().id();
  phantom.inputs.push_back(OutPoint{crypto::Hash256::Of(Bytes{0x5e}), 0});
  phantom.outputs.push_back(TxOutput{1, keys_[0].public_key()});
  phantom.SignWith(keys_[0]);
  txs.push_back(std::move(phantom));

  auto block = AssembleOnHead(txs);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(BodyIds(*block), kept);
  ExpectReExecutionMatches(*block);
}

TEST_F(BlockExecutionTest, AssembleAdoptsDependentChain) {
  // tx[k+1] spends tx[k]'s payment output (a fresh key unfunded at
  // genesis, so the input can only come from the previous candidate):
  // selection adopts every link, in order.
  std::vector<crypto::KeyPair> fresh;
  for (int i = 0; i < 5; ++i) {
    fresh.push_back(crypto::KeyPair::FromSeed(5000 + i));
  }
  std::vector<Transaction> txs;
  std::vector<crypto::Hash256> ids;
  LedgerState scratch = head_state();
  const BlockEnv env{chain().id(), chain().head()->height() + 1, now_ + 100};
  auto head = WalletFor(0).BuildTransfer(scratch, fresh[0].public_key(), 500,
                                         1, 9);
  ASSERT_TRUE(head.ok());
  ASSERT_TRUE(ApplyTransaction(&scratch, *head, env).ok());
  ids.push_back(head->Id());
  txs.push_back(std::move(*head));
  for (size_t i = 0; i + 1 < fresh.size(); ++i) {
    Wallet w(fresh[i], chain().id());
    auto tx = w.BuildTransfer(scratch, fresh[i + 1].public_key(),
                              400 - static_cast<Amount>(i) * 50, 1, 9);
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(ApplyTransaction(&scratch, *tx, env).ok());
    ids.push_back(tx->Id());
    txs.push_back(std::move(*tx));
  }

  auto block = AssembleOnHead(txs);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(BodyIds(*block), ids);
  ExpectReExecutionMatches(*block);
}

TEST_F(BlockExecutionTest, MinedAndUnminedAssemblyDifferOnlyInNonce) {
  // `mine = false` leaves the nonce search to the caller (the batched
  // miner); everything else in the block is what the mined overload builds.
  std::vector<Transaction> txs{TransferFrom(1), TransferFrom(2),
                               TransferFrom(3)};
  Rng rng(777);
  auto mined = chain().AssembleBlock(chain().head()->hash, txs,
                                     keys_[0].public_key(), now_ + 100, &rng);
  auto unmined = AssembleOnHead(txs);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_TRUE(unmined.ok()) << unmined.status().ToString();
  EXPECT_TRUE(CheckProofOfWork(mined->header));
  EXPECT_EQ(unmined->header.nonce, 0u);

  BlockHeader renonced = unmined->header;
  renonced.nonce = mined->header.nonce;
  EXPECT_EQ(renonced.Encode(), mined->header.Encode());
  ASSERT_EQ(unmined->txs.size(), mined->txs.size());
  for (size_t i = 0; i < mined->txs.size(); ++i) {
    EXPECT_EQ(unmined->txs[i].Encode(), mined->txs[i].Encode()) << "tx " << i;
    EXPECT_EQ(unmined->receipts[i].Encode(), mined->receipts[i].Encode())
        << "receipt " << i;
  }
  EXPECT_TRUE(chain().SubmitBlock(*mined, now_ + 100).ok());
}

// ----------------------------------------------------------------- mempool

TEST(MempoolTest, VisibilityByArrivalTime) {
  Mempool pool;
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.nonce = 1;
  tx.SignWith(Alice());
  ASSERT_TRUE(pool.Submit(tx, 100).ok());
  EXPECT_TRUE(pool.CandidatesAt(50, std::set<crypto::Hash256>{}).empty());
  EXPECT_EQ(pool.CandidatesAt(100, std::set<crypto::Hash256>{}).size(), 1u);
}

TEST(MempoolTest, RejectsDuplicates) {
  Mempool pool;
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.nonce = 1;
  tx.SignWith(Alice());
  ASSERT_TRUE(pool.Submit(tx, 0).ok());
  EXPECT_EQ(pool.Submit(tx, 5).code(), StatusCode::kAlreadyExists);
}

TEST(MempoolTest, ExcludesIncluded) {
  Mempool pool;
  Transaction tx;
  tx.type = TxType::kTransfer;
  tx.nonce = 1;
  tx.SignWith(Alice());
  ASSERT_TRUE(pool.Submit(tx, 0).ok());
  std::set<crypto::Hash256> included = {tx.Id()};
  EXPECT_TRUE(pool.CandidatesAt(10, included).empty());
  pool.Prune(included);
  EXPECT_EQ(pool.size(), 0u);
}

// ------------------------------------------------------------------ wallet

TEST(WalletTest, ReservationsPreventSelfDoubleSpend) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 100));
  Wallet wallet(Alice(), 0);
  auto tx1 = wallet.BuildTransfer(tc.chain().StateAtHead(),
                                  Bob().public_key(), 40, 1, 1);
  ASSERT_TRUE(tx1.ok());
  // The single genesis UTXO is now reserved; a second build must fail.
  auto tx2 = wallet.BuildTransfer(tc.chain().StateAtHead(),
                                  Bob().public_key(), 40, 1, 2);
  EXPECT_FALSE(tx2.ok());
  wallet.ClearReservations();
  auto tx3 = wallet.BuildTransfer(tc.chain().StateAtHead(),
                                  Bob().public_key(), 40, 1, 3);
  EXPECT_TRUE(tx3.ok());
}

TEST(WalletTest, InsufficientFunds) {
  TestChain tc(FastParams(), Fund({Alice().public_key()}, 10));
  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(tc.chain().StateAtHead(), Bob().public_key(),
                                 100, 1, 1);
  EXPECT_EQ(tx.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------------ mining

TEST(MiningNetworkTest, ProducesBlocksAndIncludesTxs) {
  sim::Simulation sim(101);
  ChainParams params = FastParams();
  Blockchain chain(params, Fund({Alice().public_key()}, 1000));
  Mempool pool;
  MiningNetwork miners(&sim, &chain, &pool, MiningConfig{4, Milliseconds(20)});

  Wallet wallet(Alice(), 0);
  auto tx = wallet.BuildTransfer(chain.StateAtHead(), Bob().public_key(),
                                 100, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(pool.Submit(*tx, 0).ok());

  miners.Start();
  sim.RunUntil(Seconds(5));
  miners.Stop();

  EXPECT_GT(chain.height(), 10u);
  EXPECT_TRUE(chain.FindTx(tx->Id()).has_value());
  EXPECT_EQ(chain.StateAtHead().BalanceOf(Bob().public_key()), 100u);
}

TEST(MiningNetworkTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    sim::Simulation sim(seed);
    Blockchain chain(FastParams(), {});
    Mempool pool;
    MiningNetwork miners(&sim, &chain, &pool,
                         MiningConfig{3, Milliseconds(30)});
    miners.Start();
    sim.RunUntil(Seconds(3));
    miners.Stop();
    return chain.head()->hash;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(MiningNetworkTest, PrivateBranchOverridesHead) {
  sim::Simulation sim(55);
  Blockchain chain(FastParams(), {});
  Mempool pool;
  MiningNetwork miners(&sim, &chain, &pool, MiningConfig{2, Milliseconds(10)});
  miners.Start();
  sim.RunUntil(Seconds(2));
  miners.Stop();

  const uint64_t public_height = chain.height();
  ASSERT_GT(public_height, 3u);
  // Attacker mines a longer private branch from 3 blocks back.
  const BlockEntry* fork_point = chain.StableBlock(3);
  auto branch = miners.BuildPrivateBranch(fork_point->hash, 6, {},
                                          sim.Now() + 1);
  ASSERT_TRUE(branch.ok());
  ASSERT_TRUE(miners.PublishBranch(*branch).ok());
  // 51% attack succeeded: the private branch is now canonical.
  EXPECT_EQ(chain.head()->hash, branch->back().header.Hash());
  EXPECT_EQ(chain.height(), fork_point->block.header.height + 6);
}

}  // namespace
}  // namespace ac3::chain
