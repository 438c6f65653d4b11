#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <stdexcept>

#include "gtest/gtest.h"
#include "src/util/csv.h"
#include "src/util/flags.h"
#include "src/util/math_util.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/string_util.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace odnet {
namespace util {
namespace {

// --------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(ResultTest, HoldsValue) {
  Result<int64_t> r = ParseInt64("42");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int64_t> r = ParseInt64("4x2");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

// ------------------------------------------------------------------ Rng --

TEST(RngTest, Deterministic) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.NextUint64() != b.NextUint64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, BoundedRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleMoments) {
  Rng rng(3);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.UniformDouble();
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(5);
  double total = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    total += x;
    sq += x * x;
  }
  EXPECT_NEAR(total / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(RngTest, ZipfFavorsLowRanks) {
  Rng rng(9);
  int64_t low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  // Top-10 of a Zipf(1) over 100 ranks holds ~56% of the mass.
  EXPECT_GT(low, n / 2);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(13);
  int64_t count1 = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Categorical({1.0, 3.0}) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.03);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    auto sample = rng.SampleWithoutReplacement(20, 8);
    std::set<int64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (int64_t v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(1);
  Rng forked = a.Fork();
  // The fork consumes from a different stream than the parent continues on.
  EXPECT_NE(a.NextUint64(), forked.NextUint64());
}

TEST(RngTest, StreamSeedIsPureAndCoordinateSensitive) {
  // Unlike Fork (order-dependent), StreamSeed is a pure function of its
  // coordinates — the data-parallel trainer relies on this to make worker
  // RNG draws a function of (epoch, step, slice) alone.
  EXPECT_EQ(Rng::StreamSeed(1234, 1, 2, 3), Rng::StreamSeed(1234, 1, 2, 3));
  EXPECT_NE(Rng::StreamSeed(1234, 1, 2, 3), Rng::StreamSeed(1234, 1, 2, 4));
  EXPECT_NE(Rng::StreamSeed(1234, 1, 2, 0), Rng::StreamSeed(1234, 2, 1, 0));
  EXPECT_NE(Rng::StreamSeed(1234, 0), Rng::StreamSeed(1234, 1));
  EXPECT_NE(Rng::StreamSeed(1, 7), Rng::StreamSeed(2, 7));
}

TEST(RngTest, StreamSeedStreamsDecorrelate) {
  // Adjacent-coordinate streams share no draws over a short window.
  Rng a(Rng::StreamSeed(99, 0, 0, 0));
  Rng b(Rng::StreamSeed(99, 0, 0, 1));
  int collisions = 0;
  for (int i = 0; i < 64; ++i) {
    collisions += a.NextUint64() == b.NextUint64() ? 1 : 0;
  }
  EXPECT_EQ(collisions, 0);
}

// -------------------------------------------------------------- Strings --

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hello\t\n"), "hello");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("odnet_bench", "odnet"));
  EXPECT_TRUE(EndsWith("table.csv", ".csv"));
  EXPECT_FALSE(StartsWith("od", "odnet"));
}

TEST(StringUtilTest, ParseDoubleRejectsGarbage) {
  EXPECT_TRUE(ParseDouble("3.25").ok());
  EXPECT_DOUBLE_EQ(ParseDouble(" 3.25 ").value(), 3.25);
  EXPECT_FALSE(ParseDouble("3.2.5").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, StrFormatAndFixed) {
  EXPECT_EQ(StrFormat("%s=%d", "k", 2), "k=2");
  EXPECT_EQ(FormatFixed(0.94321, 4), "0.9432");
}

// ------------------------------------------------------------------ CSV --

TEST(CsvTest, WriteThenReadRoundTrip) {
  std::string path = ::testing::TempDir() + "/odnet_csv_test.csv";
  {
    auto writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().WriteRow({"method", "auc"}).ok());
    ASSERT_TRUE(writer.value().WriteRow({"ODNET, v2", "0.94\"x\""}).ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  auto rows = ReadCsvFile(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[1][0], "ODNET, v2");
  EXPECT_EQ(rows.value()[1][1], "0.94\"x\"");
  std::remove(path.c_str());
}

TEST(CsvTest, ParseHandlesQuotedNewline) {
  auto rows = ParseCsv("a,\"b\nc\",d\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][1], "b\nc");
}

TEST(CsvTest, ParseRejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("a,\"b").ok());
}

// ---------------------------------------------------------------- Flags --

TEST(FlagsTest, ParsesAllForms) {
  FlagParser parser;
  parser.AddInt("epochs", 5, "epochs");
  parser.AddDouble("lr", 0.01, "learning rate");
  parser.AddBool("verbose", false, "verbosity");
  parser.AddString("dataset", "fliggy", "dataset name");
  const char* argv[] = {"prog",      "--epochs=7", "--lr", "0.1",
                        "--verbose", "pos1",       nullptr};
  ASSERT_TRUE(parser.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(parser.GetInt("epochs"), 7);
  EXPECT_DOUBLE_EQ(parser.GetDouble("lr"), 0.1);
  EXPECT_TRUE(parser.GetBool("verbose"));
  EXPECT_EQ(parser.GetString("dataset"), "fliggy");
  ASSERT_EQ(parser.positional().size(), 1u);
  EXPECT_EQ(parser.positional()[0], "pos1");
}

TEST(FlagsTest, UnknownFlagFails) {
  FlagParser parser;
  const char* argv[] = {"prog", "--nope=1", nullptr};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, BadValueFails) {
  FlagParser parser;
  parser.AddInt("k", 1, "k");
  const char* argv[] = {"prog", "--k=abc", nullptr};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(argv)).ok());
}

// ---------------------------------------------------------------- Table --

TEST(TableTest, RendersAlignedColumns) {
  AsciiTable table({"Method", "AUC"});
  table.AddRow({"MostPop", "0.50"});
  table.AddSeparator();
  table.AddRow({"ODNET", "0.94"});
  std::string out = table.Render();
  EXPECT_NE(out.find("| Method "), std::string::npos);
  EXPECT_NE(out.find("| ODNET "), std::string::npos);
  // Header rule + separator + top/bottom = 4 rules minimum.
  size_t rules = 0;
  for (size_t pos = 0; (pos = out.find("+--", pos)) != std::string::npos; ++pos) {
    ++rules;
  }
  EXPECT_GE(rules, 4u);
}

// ------------------------------------------------------------- Math ------

TEST(MathTest, SigmoidStable) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
}

TEST(MathTest, SoftmaxInPlaceSumsToOne) {
  std::vector<double> v{1e6, 1e6 + 1, 1e6 - 1};
  SoftmaxInPlace(&v);
  EXPECT_NEAR(v[0] + v[1] + v[2], 1.0, 1e-12);
  EXPECT_GT(v[1], v[0]);
}

TEST(MathTest, HaversineKnownDistance) {
  // Shanghai (31.23, 121.47) to Beijing (39.90, 116.40) ~ 1068 km.
  double d = HaversineKm(31.23, 121.47, 39.90, 116.40);
  EXPECT_NEAR(d, 1068.0, 15.0);
}

TEST(MathTest, HaversineZeroForSamePoint) {
  EXPECT_NEAR(HaversineKm(30.0, 120.0, 30.0, 120.0), 0.0, 1e-9);
}

TEST(MathTest, LatLonL2Monotone) {
  double near = LatLonL2(30, 120, 31, 121);
  double far = LatLonL2(30, 120, 40, 130);
  EXPECT_LT(near, far);
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(100, [&hits](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto f1 = pool.Submit([&counter] { counter++; });
  auto f2 = pool.Submit([&counter] { counter++; });
  f1.get();
  f2.get();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ParallelForStress) {
  ThreadPool pool(4);
  // Many rounds of small and large loops: exercises the work-stealing wait
  // loop and the task queue under contention.
  for (int round = 0; round < 50; ++round) {
    const int64_t n = (round % 7) * 97 + 1;
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(n, [&sum](int64_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](int64_t i) {
                         if (i == 57) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> count{0};
  pool.ParallelFor(10, [&count](int64_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  ThreadPool pool(2);
  // An inner ParallelFor issued from inside a worker must not deadlock:
  // blocked submitters drain queued tasks while they wait.
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, [&pool, &total](int64_t) {
    pool.ParallelFor(8, [&total](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForPropagatesInnerException) {
  ThreadPool pool(2);
  // The inner fan-out throws inside a worker task; the exception must climb
  // through both fork-join levels to the outermost caller.
  EXPECT_THROW(pool.ParallelFor(4,
                                [&pool](int64_t) {
                                  pool.ParallelFor(16, [](int64_t i) {
                                    if (i == 11) {
                                      throw std::runtime_error("inner boom");
                                    }
                                  });
                                }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.ParallelFor(10, [&count](int64_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, ConcurrentThrowersYieldExactlyOneException) {
  ThreadPool pool(4);
  // Every index throws; workers race to record the first exception, and
  // exactly one std::runtime_error must surface per call.
  for (int round = 0; round < 5; ++round) {
    int caught = 0;
    try {
      pool.ParallelFor(32, [](int64_t i) {
        throw std::runtime_error("boom " + std::to_string(i));
      });
    } catch (const std::runtime_error&) {
      caught++;
    }
    EXPECT_EQ(caught, 1) << "round " << round;
  }
}

TEST(ThreadPoolTest, ExceptionAbandonsRemainingIndices) {
  ThreadPool pool(2);
  // After the throw, unclaimed indices are abandoned rather than executed:
  // a huge loop must terminate long before covering its full range.
  std::atomic<int64_t> executed{0};
  EXPECT_THROW(pool.ParallelFor(1'000'000,
                                [&executed](int64_t i) {
                                  executed.fetch_add(1);
                                  if (i == 0) {
                                    throw std::runtime_error("stop");
                                  }
                                }),
               std::runtime_error);
  EXPECT_LT(executed.load(), 1'000'000);
  // And the same pool object keeps working afterwards.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, [&sum](int64_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, InWorkerThreadFlag) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  ThreadPool pool(2);
  std::atomic<bool> inside{false};
  pool.Submit([&inside] { inside = ThreadPool::InWorkerThread(); }).get();
  EXPECT_TRUE(inside.load());
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(ThreadPoolTest, ParallelForFromWorkerRunsSerially) {
  ThreadPool pool(2);
  // Regression: a ParallelFor issued from inside a pool worker degrades to
  // a plain serial loop on that worker — every index runs on the calling
  // thread instead of queueing behind the very task that waits on them.
  std::atomic<bool> all_same_thread{true};
  std::atomic<int64_t> total{0};
  pool.Submit([&pool, &all_same_thread, &total] {
        const std::thread::id me = std::this_thread::get_id();
        pool.ParallelFor(64, [&all_same_thread, &total, me](int64_t) {
          if (std::this_thread::get_id() != me) all_same_thread = false;
          total.fetch_add(1);
        });
      })
      .get();
  EXPECT_TRUE(all_same_thread.load());
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, WorkerMarkForcesSerialParallelFor) {
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  {
    ThreadPool::WorkerMark mark;
    EXPECT_TRUE(ThreadPool::InWorkerThread());
    {
      ThreadPool::WorkerMark nested;
      EXPECT_TRUE(ThreadPool::InWorkerThread());
    }
    // Nested scopes restore, not clear: still marked.
    EXPECT_TRUE(ThreadPool::InWorkerThread());
    const std::thread::id me = std::this_thread::get_id();
    bool same_thread = true;  // serial fallback: plain locals are safe
    int64_t total = 0;
    pool.ParallelFor(32, [&same_thread, &total, me](int64_t) {
      if (std::this_thread::get_id() != me) same_thread = false;
      ++total;
    });
    EXPECT_TRUE(same_thread);
    EXPECT_EQ(total, 32);
  }
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(ThreadPoolTest, RunGangRunsEveryMemberAtOnceFromAWorker) {
  // The gang never degrades to a serial loop, even when started from
  // inside another pool's task (where ParallelFor would): all three
  // members must be live at the same time to pass the barrier.
  ThreadPool outer(1);
  ThreadPool gang(2);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::atomic<int> passed{0};
  outer.Submit([&] {
        EXPECT_TRUE(ThreadPool::InWorkerThread());
        gang.RunGang(3, [&](int) {
          std::unique_lock<std::mutex> lock(mu);
          ++arrived;
          cv.notify_all();
          if (cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return arrived == 3; })) {
            passed.fetch_add(1);
          }
        });
      })
      .get();
  EXPECT_EQ(passed.load(), 3);
}

TEST(ThreadPoolTest, RunGangRethrowsAfterEveryMemberFinishes) {
  ThreadPool gang(3);
  std::atomic<int> finished{0};
  EXPECT_THROW(gang.RunGang(4,
                            [&finished](int member) {
                              if (member == 2) {
                                throw std::runtime_error("member 2");
                              }
                              finished.fetch_add(1);
                            }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

}  // namespace
}  // namespace util
}  // namespace odnet
