// Unit tests: round/bandwidth ledger.
#include <gtest/gtest.h>

#include "net/ledger.hpp"

namespace ccg::net {
namespace {

TEST(Ledger, BasicCharge) {
  Ledger ledger(64);
  ledger.charge(3, 32);
  EXPECT_EQ(ledger.h_rounds(), 1);
  EXPECT_EQ(ledger.g_rounds(), 3);  // one chunk
  EXPECT_EQ(ledger.max_message_bits(), 32);
  EXPECT_EQ(ledger.max_bits_per_link_round(), 32);
}

TEST(Ledger, ChunkingChargesExtraRounds) {
  Ledger ledger(64);
  ledger.charge(2, 200);  // ceil(200/64) = 4 chunks
  EXPECT_EQ(ledger.h_rounds(), 1);
  EXPECT_EQ(ledger.g_rounds(), 8);
  EXPECT_EQ(ledger.max_message_bits(), 200);
  // After chunking no link ever carries more than B bits per round.
  EXPECT_EQ(ledger.max_bits_per_link_round(), 64);
}

TEST(Ledger, ZeroBitMessageStillCostsARound) {
  Ledger ledger(64);
  ledger.charge(1, 0);
  EXPECT_EQ(ledger.g_rounds(), 1);
}

TEST(Ledger, Phases) {
  Ledger ledger(32);
  ledger.begin_phase("a");
  ledger.charge(1, 10);
  ledger.begin_phase("b");
  ledger.charge(1, 20);
  ledger.end_phase();
  ledger.end_phase();
  ledger.charge(1, 30);
  ASSERT_EQ(ledger.phases().size(), 2u);
  EXPECT_EQ(ledger.phases()[0].name, "b");
  EXPECT_EQ(ledger.phases()[0].h_rounds, 1);
  EXPECT_EQ(ledger.phases()[1].name, "a");
  EXPECT_EQ(ledger.phases()[1].h_rounds, 2);  // includes nested b
  EXPECT_EQ(ledger.h_rounds(), 3);
  EXPECT_EQ(ledger.max_message_bits(), 30);
}

TEST(Ledger, EndPhaseWithoutBeginThrows) {
  Ledger ledger(32);
  EXPECT_THROW(ledger.end_phase(), ContractViolation);
}

TEST(Ledger, ChunkBoundaryExactlyBandwidthIsOneChunk) {
  // message_bits == B must charge exactly one chunk per depth unit: the
  // off-by-one regression this guards is ceil(B/B) accidentally becoming 2.
  constexpr int kB = 64;
  Ledger ledger(kB);
  ledger.charge(3, kB);
  EXPECT_EQ(ledger.h_rounds(), 1);
  EXPECT_EQ(ledger.g_rounds(), 3);  // depth * 1 chunk
  EXPECT_EQ(ledger.max_message_bits(), kB);
  EXPECT_EQ(ledger.max_bits_per_link_round(), kB);
}

TEST(Ledger, ChunkBoundaryOneBitOverBandwidthIsTwoChunks) {
  constexpr int kB = 64;
  Ledger ledger(kB);
  ledger.charge(3, kB + 1);
  EXPECT_EQ(ledger.h_rounds(), 1);
  EXPECT_EQ(ledger.g_rounds(), 6);  // depth * 2 chunks
  EXPECT_EQ(ledger.max_message_bits(), kB + 1);
  // The second chunk carries the single overflow bit; the per-link
  // per-round figure still never exceeds B.
  EXPECT_EQ(ledger.max_bits_per_link_round(), kB);
}

TEST(Ledger, MaxBitsPerLinkRoundNeverExceedsBandwidth) {
  // Invariant audited by bench_bandwidth_audit: after chunking, no link
  // carries more than B bits in any round, whatever the message sizes.
  constexpr int kB = 48;
  Ledger ledger(kB);
  ledger.begin_phase("sweep");
  for (const int bits : {0, 1, kB - 1, kB, kB + 1, 2 * kB, 2 * kB + 1,
                         10 * kB + 3, 1 << 20}) {
    ledger.charge(2, bits);
    EXPECT_LE(ledger.max_bits_per_link_round(), kB) << "bits=" << bits;
  }
  ledger.end_phase();
  for (const auto& pc : ledger.phases()) {
    EXPECT_LE(pc.max_bits_per_link_round, kB) << pc.name;
  }
  EXPECT_EQ(ledger.max_message_bits(), 1 << 20);
}

TEST(Ledger, ResetClearsTotalsPhasesAndAdoptsBandwidth) {
  Ledger ledger(64);
  ledger.begin_phase("a");
  ledger.charge(2, 200);
  ledger.end_phase();
  ASSERT_EQ(ledger.phases().size(), 1u);
  ledger.begin_phase("b");  // left open across the reset on purpose

  ledger.reset(32);
  EXPECT_EQ(ledger.bandwidth(), 32);
  EXPECT_EQ(ledger.h_rounds(), 0);
  EXPECT_EQ(ledger.g_rounds(), 0);
  EXPECT_EQ(ledger.max_message_bits(), 0);
  EXPECT_EQ(ledger.max_bits_per_link_round(), 0);
  EXPECT_TRUE(ledger.phases().empty());

  // Post-reset charges chunk against the *new* bandwidth.
  ledger.charge(1, 33);
  EXPECT_EQ(ledger.g_rounds(), 2);
  EXPECT_EQ(ledger.max_bits_per_link_round(), 32);
  // An unbalanced begin_phase from before the reset must not linger.
  EXPECT_THROW(ledger.end_phase(), ContractViolation);
}

}  // namespace
}  // namespace ccg::net
