// Round-trip, invariant and property tests for every sparse format.

#include <gtest/gtest.h>

#include "src/formats/csr.h"
#include "src/formats/metadata_layout.h"
#include "src/formats/nm24.h"
#include "src/formats/samoyeds_format.h"
#include "src/formats/sel.h"
#include "src/formats/venom.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/rng.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace {

int64_t CountNonZeros(const MatrixF& m) {
  int64_t nnz = 0;
  for (float v : m.flat()) {
    nnz += v != 0.0f;
  }
  return nnz;
}

// -------------------------------------------------------------------- CSR

TEST(CsrTest, RoundTrip) {
  Rng rng(22);
  MatrixF dense = rng.GaussianMatrix(9, 31);
  for (auto& v : dense.flat()) {
    if (rng.NextFloat() < 0.8f) {
      v = 0.0f;
    }
  }
  const CsrMatrix csr = CsrMatrix::FromDense(dense);
  EXPECT_EQ(csr.nnz(), CountNonZeros(dense));
  EXPECT_TRUE(csr.ToDense() == dense);
}

TEST(CsrTest, MultiplyMatchesReference) {
  Rng rng(23);
  MatrixF dense = rng.GaussianMatrix(16, 24);
  for (auto& v : dense.flat()) {
    if (rng.NextFloat() < 0.75f) {
      v = 0.0f;
    }
  }
  const MatrixF b = rng.GaussianMatrix(24, 10);
  const CsrMatrix csr = CsrMatrix::FromDense(dense);
  EXPECT_LE(MaxAbsDiff(csr.Multiply(b), GemmRef(dense, b)), 1e-4f);
}

TEST(CsrTest, EmptyMatrix) {
  const MatrixF dense(4, 8);
  const CsrMatrix csr = CsrMatrix::FromDense(dense);
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_TRUE(csr.ToDense() == dense);
}

// -------------------------------------------------------------------- 2:4

TEST(TwoFourTest, RoundTripPreservesKeptValues) {
  Rng rng(24);
  const MatrixF dense = rng.GaussianMatrix(8, 32);
  const TwoFourMatrix enc = TwoFourMatrix::Encode(dense);
  EXPECT_TRUE(enc.MetadataOrdered());
  const MatrixF back = enc.ToDense();
  // Every surviving element matches the original; survivors are exactly
  // half.
  EXPECT_EQ(CountNonZeros(back), dense.size() / 2);
  for (int64_t r = 0; r < dense.rows(); ++r) {
    for (int64_t c = 0; c < dense.cols(); ++c) {
      if (back(r, c) != 0.0f) {
        EXPECT_FLOAT_EQ(back(r, c), dense(r, c));
      }
    }
  }
}

TEST(TwoFourTest, KeepsLargestMagnitudePerGroup) {
  auto dense = MatrixF::FromRowMajor(1, 8, {1, -9, 2, 8, 0.5f, 0.1f, -0.2f, 0.3f});
  const TwoFourMatrix enc = TwoFourMatrix::Encode(dense);
  const MatrixF back = enc.ToDense();
  EXPECT_FLOAT_EQ(back(0, 1), -9.0f);
  EXPECT_FLOAT_EQ(back(0, 3), 8.0f);
  EXPECT_FLOAT_EQ(back(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(back(0, 2), 0.0f);
  // Second group keeps 0.5 and 0.3.
  EXPECT_FLOAT_EQ(back(0, 4), 0.5f);
  EXPECT_FLOAT_EQ(back(0, 7), 0.3f);
}

TEST(TwoFourTest, MaskMatchesEncodeDecode) {
  Rng rng(25);
  MatrixF dense = rng.GaussianMatrix(12, 64);
  MatrixF masked = dense;
  ApplyTwoFourMask(masked);
  EXPECT_TRUE(TwoFourMatrix::Encode(dense).ToDense() == masked);
}

TEST(TwoFourTest, AlreadySparseRowsSurvive) {
  MatrixF dense(1, 4);
  dense(0, 2) = 3.0f;  // only one non-zero
  const TwoFourMatrix enc = TwoFourMatrix::Encode(dense);
  const MatrixF back = enc.ToDense();
  EXPECT_FLOAT_EQ(back(0, 2), 3.0f);
  EXPECT_EQ(CountNonZeros(back), 1);
}

// --------------------------------------------------------------- Samoyeds

struct SamoyedsParam {
  int n, m, v;
};

class SamoyedsFormatTest : public ::testing::TestWithParam<SamoyedsParam> {};

TEST_P(SamoyedsFormatTest, RoundTripIsIdempotentMask) {
  const auto [n, m, v] = GetParam();
  const SamoyedsConfig cfg{n, m, v};
  ASSERT_TRUE(cfg.IsValid());
  Rng rng(26);
  const MatrixF dense = rng.GaussianMatrix(m * 8, v * 4);
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(dense, cfg);
  EXPECT_TRUE(enc.IsWellFormed());
  const MatrixF masked = enc.ToDense();
  // Re-encoding the masked matrix must reproduce it exactly (idempotence).
  const SamoyedsMatrix enc2 = SamoyedsMatrix::Encode(masked, cfg);
  EXPECT_TRUE(enc2.ToDense() == masked);
}

TEST_P(SamoyedsFormatTest, DensityMatchesConfig) {
  const auto [n, m, v] = GetParam();
  const SamoyedsConfig cfg{n, m, v};
  Rng rng(27);
  const MatrixF dense = rng.GaussianMatrix(m * 16, v * 8);
  const MatrixF masked = SamoyedsMatrix::Encode(dense, cfg).ToDense();
  const double got = static_cast<double>(CountNonZeros(masked)) / masked.size();
  // Gaussian data has no exact zeros, so the measured density equals the
  // structural density.
  EXPECT_NEAR(got, cfg.density(), 1e-9);
}

TEST_P(SamoyedsFormatTest, SurvivorsAreOriginalValues) {
  const auto [n, m, v] = GetParam();
  const SamoyedsConfig cfg{n, m, v};
  Rng rng(28);
  const MatrixF dense = rng.GaussianMatrix(m * 4, v * 2);
  const MatrixF masked = SamoyedsMatrix::Encode(dense, cfg).ToDense();
  for (int64_t r = 0; r < dense.rows(); ++r) {
    for (int64_t c = 0; c < dense.cols(); ++c) {
      if (masked(r, c) != 0.0f) {
        EXPECT_FLOAT_EQ(masked(r, c), dense(r, c));
      }
    }
  }
}

TEST_P(SamoyedsFormatTest, StorageSmallerThanDense) {
  const auto [n, m, v] = GetParam();
  const SamoyedsConfig cfg{n, m, v};
  Rng rng(29);
  const MatrixF dense = rng.GaussianMatrix(m * 8, v * 4);
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(dense, cfg);
  EXPECT_LT(enc.StorageBytes(), dense.size() * 2);  // vs bf16 dense
}

INSTANTIATE_TEST_SUITE_P(Configs, SamoyedsFormatTest,
                         ::testing::Values(SamoyedsParam{1, 2, 16}, SamoyedsParam{1, 2, 32},
                                           SamoyedsParam{4, 8, 32}, SamoyedsParam{8, 16, 32},
                                           SamoyedsParam{2, 4, 32}, SamoyedsParam{1, 2, 64},
                                           SamoyedsParam{2, 2, 32}));

TEST(SamoyedsFormatBasicTest, KeepsHighestNormSubRows) {
  // Block of M=2 sub-rows: second sub-row has much larger norm.
  const SamoyedsConfig cfg{1, 2, 16};
  MatrixF dense(2, 16);
  for (int c = 0; c < 16; ++c) {
    dense(0, c) = 0.01f;
    dense(1, c) = 5.0f + c;
  }
  const MatrixF masked = SamoyedsMatrix::Encode(dense, cfg).ToDense();
  for (int c = 0; c < 16; ++c) {
    EXPECT_FLOAT_EQ(masked(0, c), 0.0f);
  }
  EXPECT_GT(CountNonZeros(masked), 0);
}

TEST(SamoyedsFormatBasicTest, SubRowSelectionIsPerBlockColumn) {
  // Sub-row 0 dominates in the first V window, sub-row 1 in the second; the
  // format must keep different sub-rows per window.
  const SamoyedsConfig cfg{1, 2, 16};
  MatrixF dense(2, 32);
  for (int c = 0; c < 16; ++c) {
    dense(0, c) = 10.0f;
    dense(1, c) = 0.1f;
    dense(0, 16 + c) = 0.1f;
    dense(1, 16 + c) = 10.0f;
  }
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(dense, cfg);
  EXPECT_EQ(enc.indices(0, 0), 0);
  EXPECT_EQ(enc.indices(0, 1), 1);
}

TEST(SamoyedsFormatBasicTest, MalformedIndicesDetected) {
  const SamoyedsConfig cfg{2, 4, 32};
  Rng rng(31);
  const MatrixF dense = rng.GaussianMatrix(8, 64);
  SamoyedsMatrix enc = SamoyedsMatrix::Encode(dense, cfg);
  ASSERT_TRUE(enc.IsWellFormed());
  enc.indices(0, 0) = 7;  // out of range for M=4
  EXPECT_FALSE(enc.IsWellFormed());
}

// ------------------------------------------------------------------ VENOM

TEST(VenomTest, RoundTripAndDensity) {
  const VenomConfig cfg{16, 2, 4};
  Rng rng(32);
  const MatrixF dense = rng.GaussianMatrix(32, 32);
  const VenomMatrix enc = VenomMatrix::Encode(dense, cfg);
  const MatrixF masked = enc.ToDense();
  EXPECT_NEAR(static_cast<double>(CountNonZeros(masked)) / masked.size(), cfg.density(), 1e-9);
  for (int64_t r = 0; r < dense.rows(); ++r) {
    for (int64_t c = 0; c < dense.cols(); ++c) {
      if (masked(r, c) != 0.0f) {
        EXPECT_FLOAT_EQ(masked(r, c), dense(r, c));
      }
    }
  }
}

TEST(VenomTest, KeepsHighestNormColumns) {
  // 4 of 8 columns kept: a multiple of 4 as the second-level 2:4 encode
  // requires (the encoder asserts kept % 4 == 0 in debug builds).
  const VenomConfig cfg{4, 4, 8};
  MatrixF dense(4, 8);
  for (int r = 0; r < 4; ++r) {
    dense(r, 2) = 100.0f;  // column 2 dominates
    for (int c = 5; c < 8; ++c) {
      dense(r, c) = 0.5f + 0.1f * static_cast<float>(c);
    }
  }
  const VenomMatrix enc = VenomMatrix::Encode(dense, cfg);
  // Kept columns are {2, 5, 6, 7}, reported in ascending order.
  EXPECT_EQ(enc.col_indices(0, 0), 2);
  EXPECT_EQ(enc.col_indices(0, 1), 5);
}

TEST(VenomTest, MaskMatchesEncodeDecode) {
  const VenomConfig cfg{8, 2, 4};
  Rng rng(33);
  MatrixF dense = rng.GaussianMatrix(16, 16);
  MatrixF masked = dense;
  ApplyVenomMask(masked, cfg);
  EXPECT_TRUE(VenomMatrix::Encode(dense, cfg).ToDense() == masked);
}

// ------------------------------------------------------- metadata layout

TEST(MetadataLayoutTest, MappingIsBijective) {
  bool seen[16][16] = {};
  for (int r = 0; r < kMetaTileDim; ++r) {
    for (int c = 0; c < kMetaTileDim; ++c) {
      const auto [dr, dc] = MetadataDeviceLocation(r, c);
      ASSERT_GE(dr, 0);
      ASSERT_LT(dr, 16);
      ASSERT_GE(dc, 0);
      ASSERT_LT(dc, 16);
      EXPECT_FALSE(seen[dr][dc]) << "collision at " << r << "," << c;
      seen[dr][dc] = true;
      const auto [br, bc] = MetadataLogicalLocation(dr, dc);
      EXPECT_EQ(br, r);
      EXPECT_EQ(bc, c);
    }
  }
}

TEST(MetadataLayoutTest, PackUnpackRoundTripNaive) {
  Rng rng(37);
  Matrix<uint8_t> meta(32, 48);
  for (auto& v : meta.flat()) {
    v = static_cast<uint8_t>(rng.NextBounded(4));
  }
  const auto words = PackMetadata(meta, /*reorganized=*/false);
  const auto back = UnpackMetadata(words, 32, 48, /*reorganized=*/false);
  EXPECT_TRUE(back == meta);
}

TEST(MetadataLayoutTest, PackUnpackRoundTripReorganized) {
  Rng rng(38);
  Matrix<uint8_t> meta(48, 32);
  for (auto& v : meta.flat()) {
    v = static_cast<uint8_t>(rng.NextBounded(4));
  }
  const auto words = PackMetadata(meta, /*reorganized=*/true);
  const auto back = UnpackMetadata(words, 48, 32, /*reorganized=*/true);
  EXPECT_TRUE(back == meta);
}

TEST(MetadataLayoutTest, ReorganizedDiffersFromNaive) {
  Matrix<uint8_t> meta(16, 16);
  meta(1, 0) = 3;  // off-diagonal marker
  const auto naive = PackMetadata(meta, false);
  const auto reorg = PackMetadata(meta, true);
  EXPECT_NE(naive, reorg);
}

TEST(MetadataLayoutTest, NonTileMultipleShapes) {
  Rng rng(39);
  Matrix<uint8_t> meta(20, 24);  // not multiples of 16
  for (auto& v : meta.flat()) {
    v = static_cast<uint8_t>(rng.NextBounded(4));
  }
  const auto words = PackMetadata(meta, true);
  const auto back = UnpackMetadata(words, 20, 24, true);
  EXPECT_TRUE(back == meta);
}

// -------------------------------------------------------------------- SEL

TEST(SelectionTest, AllSelectsEverything) {
  const Selection s = Selection::All(5);
  EXPECT_EQ(s.selected(), 5);
  EXPECT_TRUE(s.IsValid());
  EXPECT_DOUBLE_EQ(s.density(), 1.0);
}

TEST(SelectionTest, GatherScatterRoundTrip) {
  Rng rng(40);
  const MatrixF b = rng.GaussianMatrix(6, 10);
  Selection sel;
  sel.full_size = 10;
  sel.indices = {1, 4, 7, 8};
  ASSERT_TRUE(sel.IsValid());
  const MatrixF gathered = GatherColumns(b, sel);
  EXPECT_EQ(gathered.cols(), 4);
  EXPECT_FLOAT_EQ(gathered(2, 1), b(2, 4));
  const MatrixF scattered = ScatterColumns(gathered, sel);
  EXPECT_EQ(scattered.cols(), 10);
  EXPECT_FLOAT_EQ(scattered(3, 7), b(3, 7));
  EXPECT_FLOAT_EQ(scattered(3, 0), 0.0f);
}

TEST(SelectionTest, ValidationCatchesDisorder) {
  Selection sel;
  sel.full_size = 10;
  sel.indices = {3, 3};
  EXPECT_FALSE(sel.IsValid());
  sel.indices = {5, 2};
  EXPECT_FALSE(sel.IsValid());
  sel.indices = {5, 11};
  EXPECT_FALSE(sel.IsValid());
}

}  // namespace
}  // namespace samoyeds
