// Tests for dataset CSV I/O and model checkpointing.

#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "gtest/gtest.h"
#include "src/data/dataset_io.h"
#include "src/data/fliggy_simulator.h"
#include "src/nn/attention.h"
#include "src/nn/linear.h"
#include "src/nn/serialization.h"
#include "src/tensor/ops.h"

namespace odnet {
namespace {

data::OdDataset MakeDataset() {
  data::FliggyConfig config;
  config.num_users = 60;
  config.num_cities = 20;
  config.seed = 77;
  return data::FliggySimulator(config).Generate();
}

// A directory of its own for each test: ctest runs the tests of this file
// as concurrent processes, and two of them corrupt the files they write.
std::string OwnTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/odnet_io_" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(DatasetIoTest, RoundTripPreservesEverything) {
  data::OdDataset original = MakeDataset();
  auto paths = data::DatasetIoPaths::InDirectory(OwnTempDir("round_trip"));
  ASSERT_TRUE(data::WriteDataset(original, paths).ok());

  auto restored = data::ReadDataset(paths);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const data::OdDataset& rt = restored.value();

  EXPECT_EQ(rt.num_users, original.num_users);
  EXPECT_EQ(rt.test_users, original.test_users);
  ASSERT_EQ(rt.train_samples.size(), original.train_samples.size());
  ASSERT_EQ(rt.test_samples.size(), original.test_samples.size());
  for (size_t i = 0; i < original.train_samples.size(); ++i) {
    const data::Sample& a = original.train_samples[i];
    const data::Sample& b = rt.train_samples[i];
    EXPECT_EQ(a.user, b.user);
    EXPECT_TRUE(a.candidate == b.candidate);
    EXPECT_EQ(a.label_o, b.label_o);
    EXPECT_EQ(a.label_d, b.label_d);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.day, b.day);
  }
  ASSERT_EQ(rt.histories.size(), original.histories.size());
  for (size_t u = 0; u < original.histories.size(); ++u) {
    const data::UserHistory& a = original.histories[u];
    const data::UserHistory& b = rt.histories[u];
    EXPECT_EQ(a.current_city, b.current_city);
    EXPECT_EQ(a.decision_day, b.decision_day);
    EXPECT_TRUE(a.next_booking == b.next_booking);
    ASSERT_EQ(a.long_term.size(), b.long_term.size());
    for (size_t i = 0; i < a.long_term.size(); ++i) {
      EXPECT_TRUE(a.long_term[i].od == b.long_term[i].od);
      EXPECT_EQ(a.long_term[i].day, b.long_term[i].day);
    }
    ASSERT_EQ(a.short_term.size(), b.short_term.size());
  }
  // num_cities is reconstructed as max id + 1; it can only shrink if the
  // top city ids never appear, never grow.
  EXPECT_LE(rt.num_cities, original.num_cities);
}

TEST(DatasetIoTest, RejectsMissingFile) {
  auto paths = data::DatasetIoPaths::InDirectory("/nonexistent_dir_odnet");
  EXPECT_FALSE(data::ReadDataset(paths).ok());
}

TEST(DatasetIoTest, RejectsBadHeader) {
  std::string dir = OwnTempDir("bad_header");
  auto paths = data::DatasetIoPaths::InDirectory(dir);
  ASSERT_TRUE(data::WriteDataset(MakeDataset(), paths).ok());
  // Corrupt the users header.
  FILE* f = std::fopen(paths.users_csv.c_str(), "w");
  std::fputs("wrong,header\n0,1,2,3,4\n", f);
  std::fclose(f);
  auto result = data::ReadDataset(paths);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(DatasetIoTest, RejectsOutOfRangeUser) {
  std::string dir = OwnTempDir("bad_user");
  auto paths = data::DatasetIoPaths::InDirectory(dir);
  ASSERT_TRUE(data::WriteDataset(MakeDataset(), paths).ok());
  FILE* f = std::fopen(paths.bookings_csv.c_str(), "w");
  std::fputs("user_id,day,origin,destination\n99999,1,0,1\n", f);
  std::fclose(f);
  EXPECT_FALSE(data::ReadDataset(paths).ok());
}

// ------------------------------------------------------- checkpointing --

TEST(SerializationTest, RoundTripRestoresExactValues) {
  util::Rng rng(3);
  nn::MultiHeadAttention original(16, 4, &rng);
  std::string path = ::testing::TempDir() + "/mha.ckpt";
  ASSERT_TRUE(nn::SaveParameters(original, path).ok());

  util::Rng rng2(999);  // different init
  nn::MultiHeadAttention restored(16, 4, &rng2);
  ASSERT_TRUE(nn::LoadParameters(&restored, path).ok());

  auto a = original.NamedParameters();
  auto b = restored.NamedParameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].first, b[i].first);
    for (int64_t j = 0; j < a[i].second.numel(); ++j) {
      EXPECT_EQ(a[i].second.data()[j], b[i].second.data()[j])
          << a[i].first << "[" << j << "]";
    }
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, RestoredModelPredictsIdentically) {
  util::Rng rng(5);
  nn::Mlp original({8, 16, 1}, &rng);
  std::string path = ::testing::TempDir() + "/mlp.ckpt";
  ASSERT_TRUE(nn::SaveParameters(original, path).ok());

  util::Rng rng2(777);
  nn::Mlp restored({8, 16, 1}, &rng2);
  ASSERT_TRUE(nn::LoadParameters(&restored, path).ok());

  tensor::Tensor x = tensor::Tensor::Randn({4, 8}, &rng);
  tensor::Tensor ya = original.Forward(x);
  tensor::Tensor yb = restored.Forward(x);
  for (int64_t i = 0; i < ya.numel(); ++i) {
    EXPECT_EQ(ya.data()[i], yb.data()[i]);
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsShapeMismatch) {
  util::Rng rng(6);
  nn::Mlp small({4, 4, 1}, &rng);
  std::string path = ::testing::TempDir() + "/small.ckpt";
  ASSERT_TRUE(nn::SaveParameters(small, path).ok());
  nn::Mlp big({8, 8, 1}, &rng);
  util::Status status = nn::LoadParameters(&big, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsArchitectureMismatch) {
  util::Rng rng(7);
  nn::Mlp two_layer({4, 4, 1}, &rng);
  std::string path = ::testing::TempDir() + "/two.ckpt";
  ASSERT_TRUE(nn::SaveParameters(two_layer, path).ok());
  nn::Mlp three_layer({4, 4, 4, 1}, &rng);
  EXPECT_FALSE(nn::LoadParameters(&three_layer, path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsGarbageFile) {
  std::string path = ::testing::TempDir() + "/garbage.ckpt";
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a checkpoint", f);
  std::fclose(f);
  util::Rng rng(8);
  nn::Mlp mlp({2, 1}, &rng);
  util::Status status = nn::LoadParameters(&mlp, path);
  EXPECT_FALSE(status.ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsTruncatedFile) {
  util::Rng rng(9);
  nn::Mlp mlp({8, 8, 1}, &rng);
  std::string path = ::testing::TempDir() + "/trunc.ckpt";
  ASSERT_TRUE(nn::SaveParameters(mlp, path).ok());
  // Truncate to half size.
  FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_FALSE(nn::LoadParameters(&mlp, path).ok());
  std::remove(path.c_str());
}

// A corrupt dimension must come back as a Status before anything is
// allocated: 2^40 floats is far more than the file holds, and 2^63 does not
// fit in a signed dimension at all.
TEST(SerializationTest, RejectsImplausibleDimension) {
  util::Rng rng(10);
  nn::Mlp mlp({2, 1}, &rng);
  std::vector<std::vector<float>> before;
  for (const auto& [name, param] : mlp.NamedParameters()) {
    before.push_back(param.vec());
  }
  const std::string path = ::testing::TempDir() + "/bigdim.ckpt";
  for (uint64_t dim : {uint64_t{1} << 40, uint64_t{1} << 63}) {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const uint32_t version = 1;
    const std::string name = "w";
    const uint64_t header[] = {1, name.size()};
    const uint64_t rank = 1;
    const float payload[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    std::fwrite("ODNT", 1, 4, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(header, sizeof(header), 1, f);
    std::fwrite(name.data(), 1, name.size(), f);
    std::fwrite(&rank, sizeof(rank), 1, f);
    std::fwrite(&dim, sizeof(dim), 1, f);
    std::fwrite(payload, sizeof(payload), 1, f);
    std::fclose(f);

    util::Status status = nn::LoadParameters(&mlp, path);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
        << "dim " << dim << ": " << status.ToString();
    auto after = mlp.NamedParameters();
    ASSERT_EQ(after.size(), before.size());
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i].second.vec(), before[i]) << after[i].first;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace odnet
