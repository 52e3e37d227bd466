// util/: rng determinism and distributions, bitset, fitting, options,
// tables, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <sstream>

#include "util/bitset.hpp"
#include "util/fit.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace remspan {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformBoundRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
  }
  EXPECT_EQ(rng.uniform(1), 0u);
  EXPECT_EQ(rng.uniform(0), 0u);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(3);
  std::vector<int> counts(8, 0);
  const int draws = 80000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform(8)];
  for (const int c : counts) {
    EXPECT_NEAR(c, draws / 8, draws / 80);  // within 10% of expectation
  }
}

TEST(Rng, UniformRealInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_real(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(13);
  for (const double mean : {0.5, 4.0, 60.0, 900.0}) {
    double sum = 0;
    const int reps = 3000;
    for (int i = 0; i < reps; ++i) sum += static_cast<double>(rng.poisson(mean));
    const double observed = sum / reps;
    EXPECT_NEAR(observed, mean, 5.0 * std::sqrt(mean / reps) + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  const std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleAllWhenRequestExceedsPopulation) {
  Rng rng(19);
  const auto sample = rng.sample_without_replacement(5, 50);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(DynamicBitset, SetTestReset) {
  DynamicBitset bits(130);
  EXPECT_EQ(bits.count(), 0u);
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(64));
  EXPECT_FALSE(bits.test(63));
  EXPECT_EQ(bits.count(), 3u);
  bits.reset(64);
  EXPECT_EQ(bits.count(), 2u);
}

TEST(DynamicBitset, ForEachSetAscending) {
  DynamicBitset bits(200);
  const std::vector<std::size_t> want{3, 64, 65, 127, 199};
  for (const auto i : want) bits.set(i);
  std::vector<std::size_t> got;
  bits.for_each_set([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(DynamicBitset, UnionAndIntersection) {
  DynamicBitset a(70);
  DynamicBitset b(70);
  a.set(1);
  a.set(69);
  b.set(2);
  b.set(69);
  DynamicBitset u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
  DynamicBitset i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(69));
}

TEST(DynamicBitset, FromWordsAdoptsAndTrims) {
  // 70 bits -> 2 words; the tail of the last word must be masked off.
  std::vector<std::uint64_t> words{~std::uint64_t{0}, ~std::uint64_t{0}};
  const DynamicBitset bits = DynamicBitset::from_words(70, std::move(words));
  EXPECT_EQ(bits.size(), 70u);
  EXPECT_EQ(bits.count(), 70u);
  EXPECT_TRUE(bits.test(69));
  EXPECT_EQ(bits.num_words(), 2u);
  EXPECT_EQ(bits.words()[1], (std::uint64_t{1} << 6) - 1);
}

TEST(DynamicBitset, FromWordsSizeMismatchTripsCheck) {
  EXPECT_THROW(DynamicBitset::from_words(70, std::vector<std::uint64_t>(3)), CheckError);
}

TEST(AtomicBitset, SetTestSnapshot) {
  AtomicBitset bits(130);
  bits.set(0);
  bits.set(64);
  bits.or_word(2, std::uint64_t{1} << 1);  // bit 129
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(63));
  const DynamicBitset snap = bits.snapshot();
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_TRUE(snap.test(64));
}

TEST(AtomicBitset, ConcurrentSettersProduceExactUnion) {
  // Many workers set interleaved, overlapping bit ranges; the snapshot must
  // be the exact union. This is the TSan coverage for the set-only phase
  // the shared spanner union relies on.
  constexpr std::size_t kBits = 4096;
  AtomicBitset bits(kBits);
  ThreadPool::global().parallel_for(0, 64, [&](std::size_t task) {
    for (std::size_t i = task % 3; i < kBits; i += 3) bits.set(i);
  });
  const DynamicBitset snap = bits.snapshot();
  EXPECT_EQ(snap.count(), kBits);
}

TEST(DynamicBitset, SetAllRespectsSize) {
  DynamicBitset bits(67);
  bits.set_all();
  EXPECT_EQ(bits.count(), 67u);
}

TEST(DynamicBitset, SizeMismatchedUnionTripsCheck) {
  // The doc comment promises both operands have equal size; a mismatch is a
  // programming error and must fail loudly, not read out of bounds.
  DynamicBitset a(70);
  DynamicBitset b(64);
  EXPECT_THROW(a |= b, CheckError);
  EXPECT_THROW(b |= a, CheckError);
}

TEST(DynamicBitset, SizeMismatchedIntersectionTripsCheck) {
  DynamicBitset a(128);
  DynamicBitset b(127);
  EXPECT_THROW(a &= b, CheckError);
  EXPECT_THROW(b &= a, CheckError);
}

TEST(DynamicBitset, DifferenceClearsOtherBits) {
  DynamicBitset a(70);
  DynamicBitset b(70);
  a.set(1);
  a.set(64);
  a.set(69);
  b.set(64);
  b.set(2);
  a -= b;
  EXPECT_EQ(a.count(), 2u);
  EXPECT_TRUE(a.test(1));
  EXPECT_FALSE(a.test(64));
  EXPECT_TRUE(a.test(69));
}

TEST(DynamicBitset, SizeMismatchedDifferenceTripsCheck) {
  DynamicBitset a(128);
  DynamicBitset b(127);
  EXPECT_THROW(a -= b, CheckError);
  EXPECT_THROW(b -= a, CheckError);
}

TEST(AtomicBitset, ClearDropsSingleBits) {
  AtomicBitset bits(130);
  bits.set(0);
  bits.set(64);
  bits.set(129);
  bits.clear(64);
  bits.clear(1);  // clearing an unset bit is a no-op
  const DynamicBitset snap = bits.snapshot();
  EXPECT_EQ(snap.count(), 2u);
  EXPECT_TRUE(snap.test(0));
  EXPECT_FALSE(snap.test(64));
  EXPECT_TRUE(snap.test(129));
}

TEST(AtomicBitset, ClearBatchMirrorsOrBatch) {
  // clear_batch must retire exactly the bits or_batch published, with the
  // same word-level batching discipline (indices sorted in place, one RMW
  // per touched word).
  constexpr std::size_t kBits = 1000;
  AtomicBitset bits(kBits);
  std::vector<std::uint32_t> published;
  for (std::uint32_t i = 0; i < kBits; i += 7) published.push_back(i);
  std::vector<std::uint32_t> shuffled(published.rbegin(), published.rend());
  bits.or_batch(shuffled);
  std::vector<std::uint32_t> retire;
  for (std::uint32_t i = 0; i < kBits; i += 14) retire.push_back(i);
  bits.clear_batch(retire);
  const DynamicBitset snap = bits.snapshot();
  for (const std::uint32_t i : published) {
    EXPECT_EQ(snap.test(i), i % 14 != 0) << "bit " << i;
  }
}

TEST(AtomicBitset, OrBatchEmptyBatchTouchesNothing) {
  AtomicBitset bits(256);
  std::vector<std::uint32_t> batch;
  EXPECT_EQ(bits.or_batch(batch), 0u);
  EXPECT_EQ(bits.snapshot().count(), 0u);
}

TEST(AtomicBitset, OrBatchReturnsDistinctTouchedWords) {
  // The return value is the RMW count: one per distinct 64-bit word in the
  // batch, with in-word duplicates merged into a single mask. Indices
  // straddling word boundaries (63|64, 127|128) must land in separate words.
  AtomicBitset bits(256);
  std::vector<std::uint32_t> batch{128, 63, 5, 64, 127, 64, 5};
  EXPECT_EQ(bits.or_batch(batch), 3u);  // words 0, 1, 2
  EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end()));  // sorted in place
  const DynamicBitset snap = bits.snapshot();
  EXPECT_EQ(snap.count(), 5u);
  for (const std::uint32_t i : {5u, 63u, 64u, 127u, 128u}) {
    EXPECT_TRUE(snap.test(i)) << "bit " << i;
  }
  EXPECT_FALSE(snap.test(62));
  EXPECT_FALSE(snap.test(65));
}

TEST(AtomicBitset, OrBatchCountsWordsEvenWhenBitsAlreadySet) {
  // words_ord is a cost metric (RMWs issued), not a novelty metric: re-ORing
  // an already-published batch costs the same word count and must not
  // disturb the stored union.
  AtomicBitset bits(256);
  std::vector<std::uint32_t> batch{0, 70, 200};
  EXPECT_EQ(bits.or_batch(batch), 3u);
  std::vector<std::uint32_t> again{200, 0, 70};
  EXPECT_EQ(bits.or_batch(again), 3u);
  EXPECT_EQ(bits.snapshot().count(), 3u);
}

TEST(AtomicBitset, OrBatchConcurrentCallersConserveWordsAndBits) {
  // Many workers publish overlapping batches concurrently (the static
  // tree union in core/remote_spanner.cpp). Two conservation laws: the union is exact, and
  // each caller's return value equals the distinct-word count of its own
  // batch — a pure function of the batch, independent of interleaving.
  constexpr std::size_t kBits = 4096;
  constexpr std::size_t kTasks = 32;
  AtomicBitset bits(kBits);
  std::vector<std::size_t> words_ord(kTasks, 0);
  ThreadPool::global().parallel_for(0, kTasks, [&](std::size_t task) {
    std::vector<std::uint32_t> batch;
    for (std::size_t i = task % 5; i < kBits; i += 5) {
      batch.push_back(static_cast<std::uint32_t>(i));
    }
    words_ord[task] = bits.or_batch(batch);
  });
  const DynamicBitset snap = bits.snapshot();
  EXPECT_EQ(snap.count(), kBits);  // residues 0..4 mod 5 jointly cover all
  for (std::size_t task = 0; task < kTasks; ++task) {
    // Every stride-5 batch over 4096 bits hits all 64 words.
    EXPECT_EQ(words_ord[task], kBits / 64) << "task " << task;
  }
}

TEST(AtomicBitset, ConcurrentDisjointClearsProduceExactDifference) {
  // Workers concurrently retire disjoint bit ranges from a full bitset;
  // relaxed fetch_and must lose nothing (TSan coverage for the refcounted
  // union's retire phase).
  constexpr std::size_t kBits = 4096;
  AtomicBitset bits(kBits);
  for (std::size_t i = 0; i < kBits; ++i) bits.set(i);
  ThreadPool::global().parallel_for(0, 64, [&](std::size_t task) {
    std::vector<std::uint32_t> mine;
    for (std::size_t i = task; i < kBits; i += 128) mine.push_back(static_cast<std::uint32_t>(i));
    bits.clear_batch(mine);
  });
  const DynamicBitset snap = bits.snapshot();
  // Tasks 0..63 cleared residues 0..63 mod 128; residues 64..127 survive.
  EXPECT_EQ(snap.count(), kBits / 2);
  EXPECT_FALSE(snap.test(0));
  EXPECT_TRUE(snap.test(64));
}

TEST(Fit, ExactLine) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{3, 5, 7, 9};  // y = 2x + 1
  const auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Fit, PowerLawExponentRecovered) {
  std::vector<double> xs, ys;
  for (double x = 100; x <= 3000; x *= 1.5) {
    xs.push_back(x);
    ys.push_back(3.7 * std::pow(x, 4.0 / 3.0));
  }
  const auto fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.slope, 4.0 / 3.0, 1e-9);
}

TEST(Fit, Statistics) {
  const std::vector<double> xs{1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(mean(xs), 22.0);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4, 100}), 3.0);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
  const std::vector<double> ss{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(stddev(ss), 2.138, 1e-3);
}

TEST(Options, ParsesSpaceAndEqualsForms) {
  Options opts({"--n", "100", "--eps=0.5", "--verbose"});
  EXPECT_EQ(opts.get_int("n", 1), 100);
  EXPECT_DOUBLE_EQ(opts.get_double("eps", 1.0), 0.5);
  EXPECT_TRUE(opts.get_flag("verbose"));
  EXPECT_EQ(opts.get_int("missing", 7), 7);
}

TEST(Options, HelpAndUnknown) {
  Options opts({"--help", "--typo", "1"});
  EXPECT_TRUE(opts.help_requested());
  (void)opts.get_int("n", 5);
  const auto unknown = opts.unknown_options();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Options, RejectUnknownNamesTheOffendingFlag) {
  Options opts({"--constrution", "th1", "--n", "5"});
  (void)opts.get_int("n", 1);
  std::ostringstream err;
  EXPECT_FALSE(opts.reject_unknown(err));
  EXPECT_NE(err.str().find("--constrution"), std::string::npos);
  // A fully-consumed command line passes silently.
  Options clean({"--n", "5"});
  (void)clean.get_int("n", 1);
  std::ostringstream quiet;
  EXPECT_TRUE(clean.reject_unknown(quiet));
  EXPECT_TRUE(quiet.str().empty());
}

TEST(Options, RequireFormsThrowWhenAbsent) {
  Options opts({"--trace", "t.txt", "--k", "3", "--eps", "0.25"});
  EXPECT_EQ(opts.require_string("trace"), "t.txt");
  EXPECT_EQ(opts.require_int("k"), 3);
  EXPECT_DOUBLE_EQ(opts.require_double("eps"), 0.25);
  EXPECT_THROW((void)opts.require_string("churn-trace"), MissingOptionError);
  try {
    (void)opts.require_int("missing");
    FAIL() << "require_int should have thrown";
  } catch (const MissingOptionError& e) {
    EXPECT_NE(std::string(e.what()).find("--missing"), std::string::npos);
  }
  // has() reports presence without consuming.
  EXPECT_TRUE(opts.has("trace"));
  EXPECT_FALSE(opts.has("absent"));
}

TEST(Options, MalformedNumbersThrowBadOptionError) {
  Options opts({"--k", "banana", "--eps", "0.5x", "--n", "12"});
  EXPECT_THROW((void)opts.get_int("k", 1), BadOptionError);
  EXPECT_THROW((void)opts.require_double("eps"), BadOptionError);
  EXPECT_EQ(opts.get_int("n", 1), 12);  // intact values still parse
  try {
    (void)opts.require_int("k");
    FAIL() << "require_int should have thrown";
  } catch (const BadOptionError& e) {
    EXPECT_NE(std::string(e.what()).find("--k"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
  }
  // Both siblings are catchable through the OptionError base (exit-2 path).
  EXPECT_THROW((void)opts.get_double("eps", 1.0), OptionError);
  EXPECT_THROW((void)opts.require_string("missing"), OptionError);
}

TEST(Table, AlignedOutputAndCsv) {
  Table t({"name", "value"});
  t.add("alpha", 1.5);
  t.add("n", std::size_t{42});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream out;
  t.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.500"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("n,42"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WorkerIdsWithinBounds) {
  ThreadPool pool(2);
  std::atomic<bool> ok{true};
  pool.parallel_for_workers(0, 500, [&](std::size_t, std::size_t worker) {
    if (worker > pool.size()) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // Every worker of the outer loop issues an inner loop on the same pool;
  // queueing helpers from there would wait on workers blocked the same way.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> cells(64);
  std::atomic<bool> ids_ok{true};
  pool.parallel_for_workers(0, 8, [&](std::size_t i, std::size_t outer_worker) {
    pool.parallel_for_workers(0, 8, [&](std::size_t j, std::size_t worker) {
      if (worker != outer_worker) ids_ok = false;
      cells[i * 8 + j].fetch_add(1);
    });
  });
  for (const auto& c : cells) EXPECT_EQ(c.load(), 1);
  EXPECT_TRUE(ids_ok.load());
}

TEST(ThreadPool, EmptyRangeNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace remspan
