// CRC substrate tests: GF(2) algebra, bitwise/table/parallel agreement for
// every datapath width, the dispatched FCS-32 kernel (carry-less multiply
// on x86-64 hosts with PCLMULQDQ) against the slicing tables and the
// bit-serial golden model, and the RFC 1662 residue ("good FCS") properties
// the P5 receiver's frame check relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "common/rng.hpp"
#include "crc/crc_reference.hpp"
#include "crc/crc_table.hpp"
#include "crc/gf2.hpp"
#include "crc/parallel_crc.hpp"

namespace p5::crc {
namespace {

// ---- GF(2) algebra ----

TEST(Gf2Vec, SetGetXor) {
  Gf2Vec a(100), b(100);
  a.set(3, true);
  a.set(77, true);
  b.set(77, true);
  a ^= b;
  EXPECT_TRUE(a.get(3));
  EXPECT_FALSE(a.get(77));
  EXPECT_EQ(a.popcount(), 1u);
}

TEST(Gf2Vec, DotProduct) {
  Gf2Vec a(64), b(64);
  a.set(1, true);
  a.set(2, true);
  b.set(2, true);
  b.set(3, true);
  EXPECT_TRUE(a.dot(b));  // one shared bit -> odd parity
  b.set(1, true);
  EXPECT_FALSE(a.dot(b));  // two shared bits -> even
}

TEST(Gf2Matrix, IdentityIsMulNeutral) {
  Xoshiro256 rng(5);
  Gf2Matrix m(16, 16);
  for (std::size_t r = 0; r < 16; ++r)
    for (std::size_t c = 0; c < 16; ++c) m.set(r, c, rng.chance(0.5));
  const Gf2Matrix i = Gf2Matrix::identity(16);
  EXPECT_EQ(m.mul(i), m);
  EXPECT_EQ(i.mul(m), m);
}

TEST(Gf2Matrix, PowMatchesRepeatedMul) {
  Xoshiro256 rng(9);
  Gf2Matrix m(8, 8);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c) m.set(r, c, rng.chance(0.4));
  Gf2Matrix manual = Gf2Matrix::identity(8);
  for (int i = 0; i < 5; ++i) manual = manual.mul(m);
  EXPECT_EQ(m.pow(5), manual);
}

TEST(Gf2Matrix, MulVectorAssociates) {
  Xoshiro256 rng(11);
  Gf2Matrix a(12, 12), b(12, 12);
  Gf2Vec x(12);
  for (std::size_t r = 0; r < 12; ++r) {
    x.set(r, rng.chance(0.5));
    for (std::size_t c = 0; c < 12; ++c) {
      a.set(r, c, rng.chance(0.5));
      b.set(r, c, rng.chance(0.5));
    }
  }
  EXPECT_EQ(a.mul(b).mul(x), a.mul(b.mul(x)));
}

TEST(Gf2Matrix, RankOfIdentityAndSingular) {
  EXPECT_EQ(Gf2Matrix::identity(10).rank(), 10u);
  Gf2Matrix m(4, 4);
  m.set(0, 0, true);
  m.set(1, 0, true);  // duplicate column-space
  EXPECT_EQ(m.rank(), 1u);
}

TEST(Gf2Matrix, TransposeInvolution) {
  Xoshiro256 rng(3);
  Gf2Matrix m(7, 13);
  for (std::size_t r = 0; r < 7; ++r)
    for (std::size_t c = 0; c < 13; ++c) m.set(r, c, rng.chance(0.5));
  EXPECT_EQ(m.transpose().transpose(), m);
}

// ---- reference CRC known-answer tests ----

TEST(BitwiseCrc, Crc32KnownAnswer) {
  // CRC-32/IEEE of "123456789" is 0xCBF43926.
  const Bytes data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(bitwise_crc(kFcs32, data), 0xCBF43926u);
}

TEST(BitwiseCrc, Crc16KnownAnswer) {
  // CRC-16/X.25 of "123456789" is 0x906E.
  const Bytes data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(bitwise_crc(kFcs16, data), 0x906Eu);
}

TEST(BitwiseCrc, EmptyBuffer) {
  EXPECT_EQ(bitwise_crc(kFcs32, Bytes{}), kFcs32.init ^ kFcs32.xorout);
}

/// RFC 1662: appending the complemented FCS (LSB first) leaves the magic
/// residue in the register.
TEST(BitwiseCrc, ResidueProperty32) {
  Xoshiro256 rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes data = rng.bytes(rng.range(1, 300));
    const u32 fcs = bitwise_crc(kFcs32, data);
    for (int i = 0; i < 4; ++i) data.push_back(static_cast<u8>(fcs >> (8 * i)));
    EXPECT_TRUE(bitwise_check(kFcs32, data));
    EXPECT_EQ(bitwise_update(kFcs32, kFcs32.init, data), kFcs32.residue);
  }
}

TEST(BitwiseCrc, ResidueProperty16) {
  Xoshiro256 rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes data = rng.bytes(rng.range(1, 300));
    const u32 fcs = bitwise_crc(kFcs16, data);
    data.push_back(static_cast<u8>(fcs));
    data.push_back(static_cast<u8>(fcs >> 8));
    EXPECT_TRUE(bitwise_check(kFcs16, data));
  }
}

TEST(BitwiseCrc, DetectsSingleBitErrors) {
  Xoshiro256 rng(23);
  Bytes data = rng.bytes(64);
  const u32 good = bitwise_crc(kFcs32, data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<u8>(1 << bit);
      EXPECT_NE(bitwise_crc(kFcs32, data), good);
      data[byte] ^= static_cast<u8>(1 << bit);
    }
  }
}

// ---- table CRC ----

TEST(TableCrc, MatchesBitwise) {
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const Bytes data = rng.bytes(rng.range(0, 200));
    EXPECT_EQ(fcs32().crc(data), bitwise_crc(kFcs32, data));
    EXPECT_EQ(fcs16().crc(data), bitwise_crc(kFcs16, data));
  }
}

TEST(TableCrc, IncrementalEqualsWhole) {
  Xoshiro256 rng(32);
  const Bytes data = rng.bytes(333);
  u32 state = kFcs32.init;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, data.size() - i);
    state = fcs32().update(state, BytesView(data).subspan(i, n));
  }
  EXPECT_EQ(state ^ kFcs32.xorout, fcs32().crc(data));
}

// ---- dispatched FCS-32: carry-less multiply where the host has it ----

TEST(DispatchedFcs32, ReportsItsKernel) {
  const char* kernel = fcs32().slicer().kernel();
  std::printf("FCS-32 kernel dispatched on this host: %s\n", kernel);
#if defined(P5_FORCE_SCALAR) || !defined(__x86_64__)
  EXPECT_STREQ(kernel, "slice16");
#else
  EXPECT_TRUE(std::strcmp(kernel, "clmul") == 0 || std::strcmp(kernel, "slice16") == 0) << kernel;
#endif
  EXPECT_STREQ(fcs16().slicer().kernel(), "slice16");
}

TEST(DispatchedFcs32, MatchesSlicingAndBitwiseAtEveryLengthAndOffset) {
  // Every length 0..1100 at every start offset 0..15 crosses the dispatch
  // threshold, each 16-octet fold count and every tail length; the register
  // starts from a seeded random value, not just the init.
  Xoshiro256 rng(41);
  const Bytes data = rng.bytes(1100 + 16);
  const fastpath::SliceCrc& s = fcs32().slicer();
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const BytesView v = BytesView(data).subspan(off, len);
      const u32 state = static_cast<u32>(rng.next());
      const u32 tables = s.update_tables(state, v);
      ASSERT_EQ(s.update(state, v), tables) << "offset " << off << " length " << len;
      ASSERT_EQ(bitwise_update(kFcs32, state, v), tables) << "offset " << off << " length " << len;
    }
  }
}

TEST(DispatchedFcs32, MatchesSlicingAndBitwiseOn64KiB) {
  Xoshiro256 rng(42);
  const Bytes data = rng.bytes(64 * 1024 + 16);
  const fastpath::SliceCrc& s = fcs32().slicer();
  for (std::size_t off = 0; off < 16; ++off) {
    const BytesView v = BytesView(data).subspan(off, 64 * 1024);
    const u32 state = static_cast<u32>(rng.next());
    const u32 tables = s.update_tables(state, v);
    EXPECT_EQ(s.update(state, v), tables) << "offset " << off;
    EXPECT_EQ(bitwise_update(kFcs32, state, v), tables) << "offset " << off;
  }
}

TEST(DispatchedFcs32, KnownAnswers) {
  const Bytes check{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(fcs32().crc(check), 0xCBF43926u);
  // Long enough for the folding kernel (values from an independent CRC-32).
  Bytes nines;
  for (int i = 0; i < 8; ++i) append(nines, check);
  EXPECT_EQ(fcs32().crc(nines), 0x8811A440u);
  Bytes ramp(1024);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<u8>(i);
  EXPECT_EQ(fcs32().crc(ramp), 0xB70B4C26u);
}

TEST(DispatchedFcs32, SealedFramesLeaveTheResidue) {
  Xoshiro256 rng(43);
  for (std::size_t len = 1; len <= 1100; len += 7) {
    Bytes frame = rng.bytes(len);
    const u32 fcs = fcs32().crc(frame);
    for (int i = 0; i < 4; ++i) frame.push_back(static_cast<u8>(fcs >> (8 * i)));
    EXPECT_EQ(fcs32().update(kFcs32.init, frame), 0xDEBB20E3u) << "length " << len;
    EXPECT_TRUE(fcs32().check(frame));
    frame[rng.below(frame.size())] ^= static_cast<u8>(1u << rng.below(8));
    EXPECT_FALSE(fcs32().check(frame)) << "length " << len;
  }
}

// ---- parallel matrix CRC: the P5 CRC core ----

class ParallelCrcWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelCrcWidths, MatchesBitwiseOnBlockMultiples) {
  const unsigned bits = GetParam();
  const ParallelCrc pc(kFcs32, bits);
  Xoshiro256 rng(100 + bits);
  for (int trial = 0; trial < 40; ++trial) {
    const Bytes data = rng.bytes((bits / 8) * rng.range(0, 50));
    EXPECT_EQ(pc.crc(data), bitwise_crc(kFcs32, data)) << "width=" << bits;
  }
}

TEST_P(ParallelCrcWidths, MatchesBitwiseOnArbitraryLengths) {
  const unsigned bits = GetParam();
  const ParallelCrc pc(kFcs32, bits);
  Xoshiro256 rng(200 + bits);
  for (int trial = 0; trial < 40; ++trial) {
    const Bytes data = rng.bytes(rng.range(0, 257));
    EXPECT_EQ(pc.crc(data), bitwise_crc(kFcs32, data)) << "width=" << bits;
  }
}

TEST_P(ParallelCrcWidths, Fcs16Agrees) {
  const unsigned bits = GetParam();
  const ParallelCrc pc(kFcs16, bits);
  Xoshiro256 rng(300 + bits);
  for (int trial = 0; trial < 40; ++trial) {
    const Bytes data = rng.bytes(rng.range(0, 100));
    EXPECT_EQ(pc.crc(data), bitwise_crc(kFcs16, data));
  }
}

TEST_P(ParallelCrcWidths, CheckAcceptsSealedFrames) {
  const unsigned bits = GetParam();
  const ParallelCrc pc(kFcs32, bits);
  Xoshiro256 rng(400 + bits);
  Bytes data = rng.bytes(99);
  const u32 fcs = pc.crc(data);
  for (int i = 0; i < 4; ++i) data.push_back(static_cast<u8>(fcs >> (8 * i)));
  EXPECT_TRUE(pc.check(data));
  data[5] ^= 0x10;
  EXPECT_FALSE(pc.check(data));
}

INSTANTIATE_TEST_SUITE_P(AllWidths, ParallelCrcWidths,
                         ::testing::Values(8u, 16u, 24u, 32u, 40u, 48u, 56u, 64u));

TEST(ParallelCrc, MatrixShape) {
  const ParallelCrc pc(kFcs32, 32);
  EXPECT_EQ(pc.matrix().rows(), 32u);
  EXPECT_EQ(pc.matrix().cols(), 64u);
  // Each output bit depends on at least one input; the state-transition part
  // (first 32 columns) must be full rank (the LFSR is invertible).
  Gf2Matrix state_part(32, 32);
  for (std::size_t r = 0; r < 32; ++r)
    for (std::size_t c = 0; c < 32; ++c) state_part.set(r, c, pc.matrix().get(r, c));
  EXPECT_EQ(state_part.rank(), 32u);
}

TEST(ParallelCrc, WiderMatricesHaveMoreTerms) {
  // Paper Table 2: the 32x32 matrix costs more logic than the 8x32.
  const ParallelCrc m8(kFcs32, 8);
  const ParallelCrc m32(kFcs32, 32);
  EXPECT_GT(m32.total_terms(), m8.total_terms());
  EXPECT_GE(m32.max_row_terms(), m8.max_row_terms());
}

TEST(ParallelCrc, AdvanceRequiresExactBlock) {
  const ParallelCrc pc(kFcs32, 32);
  EXPECT_THROW((void)pc.advance(0, Bytes{1, 2, 3}), ContractViolation);
}

TEST(ParallelCrc, AgreesWithTableOnLongStream) {
  const ParallelCrc pc(kFcs32, 32);
  Xoshiro256 rng(77);
  const Bytes data = rng.bytes(64 * 1024 + 3);
  EXPECT_EQ(pc.crc(data), fcs32().crc(data));
}

}  // namespace
}  // namespace p5::crc
