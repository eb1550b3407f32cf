// Reproducibility: all protocols are deterministic functions of
// (config.seed, stream), so identical runs must produce identical
// communication, samples, and sketches -- the property every experiment
// in EXPERIMENTS.md relies on.
//
// DigestGate pins it: each case's run digest (RunResult::digest) must
// equal the one committed below, with metrics off, with metrics on, and
// at 4 threads (DESIGN.md section 8, "The run digest").

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/tracker_factory.h"
#include "monitor/driver.h"
#include "obs/metrics.h"
#include "stream/pamap_like.h"
#include "stream/synthetic.h"
#include "stream/wiki_like.h"

namespace dswm {
namespace {

std::vector<TimedRow> Data() {
  SyntheticConfig config;
  config.rows = 2500;
  config.dim = 6;
  config.seed = 8;
  SyntheticGenerator gen(config);
  return Materialize(&gen, config.rows);
}

class Determinism : public ::testing::TestWithParam<Algorithm> {};

TEST_P(Determinism, IdenticalRunsIdenticalResults) {
  const Algorithm algorithm = GetParam();
  const std::vector<TimedRow> rows = Data();

  auto run = [&rows, algorithm]() {
    TrackerConfig config;
    config.dim = 6;
    config.num_sites = 3;
    config.window = 500;
    config.epsilon = 0.2;
    config.ell_override = 20;
    config.seed = 77;
    auto tracker = MakeTracker(algorithm, config);
    DSWM_CHECK(tracker.ok());
    DriverOptions options;
    options.query_points = 10;
    options.seed = 5;
    StatusOr<RunResult> r =
        RunTracker(tracker.value().get(), rows, 3, 500, options);
    DSWM_CHECK(r.ok());
    return std::make_pair(std::move(r).value(),
                          tracker.value()->Query().Rows());
  };

  const auto [r1, sketch1] = run();
  const auto [r2, sketch2] = run();
  EXPECT_EQ(r1.total_words, r2.total_words);
  EXPECT_EQ(r1.messages, r2.messages);
  EXPECT_EQ(r1.rows_sent, r2.rows_sent);
  EXPECT_EQ(r1.broadcasts, r2.broadcasts);
  EXPECT_DOUBLE_EQ(r1.avg_err, r2.avg_err);
  EXPECT_DOUBLE_EQ(r1.max_err, r2.max_err);
  EXPECT_EQ(r1.max_site_space_words, r2.max_site_space_words);
  EXPECT_EQ(r1.digest, r2.digest);
  EXPECT_EQ(sketch1, sketch2);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, Determinism,
                         ::testing::ValuesIn(PaperAlgorithms()));

TEST(Determinism, DifferentSeedsDifferForSampling) {
  const std::vector<TimedRow> rows = Data();
  auto words = [&rows](uint64_t seed) {
    TrackerConfig config;
    config.dim = 6;
    config.num_sites = 3;
    config.window = 500;
    config.epsilon = 0.2;
    config.ell_override = 20;
    config.seed = seed;
    auto tracker = MakeTracker(Algorithm::kPwor, config);
    DriverOptions options;
    options.query_points = 3;
    return RunTracker(tracker.value().get(), rows, 3, 500, options)
        .value()
        .total_words;
  };
  EXPECT_NE(words(1), words(2));  // different priority draws
}

// --- DigestGate -------------------------------------------------------

enum class Dataset { kSynthetic, kPamap, kWiki };

// One run, as `dswm_cli run` makes it from the same flags: the seed
// draws the dataset and the tracker, and seed + 99 the driver's plan.
struct RunSpec {
  Dataset dataset = Dataset::kSynthetic;
  int dim = 0;  // 0: dswm_cli's d (64, 43 or 512)
  int rows = 2000;
  double epsilon = 0.2;
  int sites = 4;
  Timestamp window = 0;  // 0: a quarter of the stream's span, as dswm_cli
  uint64_t seed = 1;
  int queries = 20;
  net::NetProfile net;
};

struct DigestCase {
  const char* name;
  Algorithm algorithm;
  RunSpec spec;
  uint64_t digest;
};

// The ctest name: DigestGate.MatchesCommitted/<name>.
void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

std::string Hex(uint64_t digest) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << digest;
  return os.str();
}

std::vector<TimedRow> Generate(const RunSpec& s) {
  switch (s.dataset) {
    case Dataset::kSynthetic: {
      SyntheticConfig config;
      config.rows = s.rows;
      config.dim = s.dim > 0 ? s.dim : 64;
      config.seed = s.seed;
      SyntheticGenerator gen(config);
      return Materialize(&gen, config.rows);
    }
    case Dataset::kPamap: {
      PamapLikeConfig config;
      config.rows = s.rows;
      if (s.dim > 0) config.dim = s.dim;
      config.seed = s.seed;
      PamapLikeGenerator gen(config);
      return Materialize(&gen, config.rows);
    }
    case Dataset::kWiki: {
      WikiLikeConfig config;
      config.rows = s.rows;
      if (s.dim > 0) config.dim = s.dim;
      config.seed = s.seed;
      WikiLikeGenerator gen(config);
      return Materialize(&gen, config.rows);
    }
  }
  return {};
}

RunResult RunCase(const DigestCase& c, const std::vector<TimedRow>& rows) {
  const RunSpec& s = c.spec;
  TrackerConfig config;
  config.dim = static_cast<int>(rows.front().values.size());
  config.num_sites = s.sites;
  config.window =
      s.window > 0
          ? s.window
          : std::max<Timestamp>(
                1, (rows.back().timestamp - rows.front().timestamp + 1) / 4);
  config.epsilon = s.epsilon;
  config.seed = s.seed;
  config.net = s.net;
  auto tracker = MakeTracker(c.algorithm, config);
  DSWM_CHECK(tracker.ok());
  DriverOptions options;
  options.query_points = s.queries;
  options.seed = s.seed + 99;
  StatusOr<RunResult> r = RunTracker(tracker.value().get(), rows,
                                     config.num_sites, config.window, options);
  DSWM_CHECK(r.ok());
  return std::move(r).value();
}

// The settings of each group of cases. Every group but perfbench's
// shapes is a dswm_cli run with the flags named.

// --epsilon 0.2 --sites 4 --rows 2000 --seed 1 --queries 20.
RunSpec Grid(Dataset dataset) {
  RunSpec s;
  s.dataset = dataset;
  return s;
}

// The former wire baselines: --epsilon 0.2 --sites 4 --rows 4000
// --window W --seed 1 --queries 2.
RunSpec Wire(Dataset dataset, Timestamp window) {
  RunSpec s = Grid(dataset);
  s.rows = 4000;
  s.window = window;
  s.queries = 2;
  return s;
}

// The former AVX/portable sketch comparisons: --epsilon 0.1 --sites 8
// --rows 6000 --seed 3 --queries 10.
RunSpec Xtree(Dataset dataset) {
  RunSpec s = Grid(dataset);
  s.rows = 6000;
  s.epsilon = 0.1;
  s.sites = 8;
  s.seed = 3;
  s.queries = 10;
  return s;
}

// The grid's PAMAP run under a fault profile: loss under the reliability
// shim (--net-drop 0.05 --net-reliable 1 --net-retry 2 --net-seed 7), or
// delay with duplication (--net-delay 3 --net-dup 0.02 --net-seed 7).
enum class Fault { kDrop, kDelay };

RunSpec Faulty(Fault fault) {
  RunSpec s = Grid(Dataset::kPamap);
  s.net.seed = 7;
  if (fault == Fault::kDrop) {
    s.net.drop = 0.05;
    s.net.reliable = true;
    s.net.retry = 2;
  } else {
    s.net.delay_max = 3;
    s.net.duplicate = 0.02;
  }
  return s;
}

// A perfbench workload's shape (d, eps = 0.05, m = 20, 3.5 windows) at
// reduced rows, with 5 query points: DA1 at d = 128 runs about 4 ms per
// row here, and each query point at d = 512 costs about 60 ms to score.
RunSpec Perf(Dataset dataset, int dim, int rows, Timestamp window) {
  RunSpec s = Grid(dataset);
  s.dim = dim;
  s.rows = rows;
  s.window = window;
  s.epsilon = 0.05;
  s.sites = 20;
  s.queries = 5;
  return s;
}

// The committed digests. A change that claims identical outputs leaves
// this table untouched; one that changes outputs re-pins only the cases
// it moves and lists them in CHANGES.md (DESIGN.md section 8).
std::vector<DigestCase> Cases() {
  constexpr Dataset kSyn = Dataset::kSynthetic;
  constexpr Dataset kPamap = Dataset::kPamap;
  constexpr Dataset kWiki = Dataset::kWiki;
  using A = Algorithm;
  return {
      // Every algorithm on each dataset at dswm_cli's d (no DA1 on WIKI,
      // as in the paper).
      {"synthetic-PWOR", A::kPwor, Grid(kSyn), 0x2b95231f78b6a9b4},
      {"synthetic-PWOR-ALL", A::kPworAll, Grid(kSyn), 0x87dda9b320394ecc},
      {"synthetic-ESWOR", A::kEswor, Grid(kSyn), 0xe8b498f569a63383},
      {"synthetic-ESWOR-ALL", A::kEsworAll, Grid(kSyn), 0x7799cb8998d0a139},
      {"synthetic-DA1", A::kDa1, Grid(kSyn), 0x25d1459c50db2fe1},
      {"synthetic-DA2", A::kDa2, Grid(kSyn), 0x13f8163c03b8a321},
      {"synthetic-PWR", A::kPwr, Grid(kSyn), 0xf2035eaadb295ba0},
      {"synthetic-ESWR", A::kEswr, Grid(kSyn), 0xde515d5d1f8c585d},
      {"synthetic-PWR-ST", A::kPwrShared, Grid(kSyn), 0xe86dfbf21af8c240},
      {"synthetic-ESWR-ST", A::kEswrShared, Grid(kSyn), 0x9a2762750ecb27aa},
      {"synthetic-CENTRAL", A::kCentral, Grid(kSyn), 0xcad91369f45e4776},
      {"pamap-PWOR", A::kPwor, Grid(kPamap), 0xb9c276ecedfdab1e},
      {"pamap-PWOR-ALL", A::kPworAll, Grid(kPamap), 0xb980a75891df672b},
      {"pamap-ESWOR", A::kEswor, Grid(kPamap), 0x8d4c97235c8167e8},
      {"pamap-ESWOR-ALL", A::kEsworAll, Grid(kPamap), 0x962f9e645d5ca3cf},
      {"pamap-DA1", A::kDa1, Grid(kPamap), 0x9195f65f8e25b344},
      {"pamap-DA2", A::kDa2, Grid(kPamap), 0x1e116dcce2f5397f},
      {"pamap-PWR", A::kPwr, Grid(kPamap), 0xdfbcd38ac822e97c},
      {"pamap-ESWR", A::kEswr, Grid(kPamap), 0x77fdf606692c8cb9},
      {"pamap-PWR-ST", A::kPwrShared, Grid(kPamap), 0x53528543ac24029a},
      {"pamap-ESWR-ST", A::kEswrShared, Grid(kPamap), 0x96e306faa4446829},
      {"pamap-CENTRAL", A::kCentral, Grid(kPamap), 0xe53a372ae11ebfc6},
      {"wiki-PWOR", A::kPwor, Grid(kWiki), 0x496579cb0da562bb},
      {"wiki-PWOR-ALL", A::kPworAll, Grid(kWiki), 0xba1bef7e271855ec},
      {"wiki-ESWOR", A::kEswor, Grid(kWiki), 0xd39acc4f004b07e4},
      {"wiki-ESWOR-ALL", A::kEsworAll, Grid(kWiki), 0xd934cc44257be0f1},
      {"wiki-DA2", A::kDa2, Grid(kWiki), 0xf1fb8a4131d18015},
      {"wiki-PWR", A::kPwr, Grid(kWiki), 0xdcfb453aef67ebf9},
      {"wiki-ESWR", A::kEswr, Grid(kWiki), 0xb17d081bfb247041},
      {"wiki-PWR-ST", A::kPwrShared, Grid(kWiki), 0x33289956adaa68f1},
      {"wiki-ESWR-ST", A::kEswrShared, Grid(kWiki), 0x6265c06e0f281ef2},
      {"wiki-CENTRAL", A::kCentral, Grid(kWiki), 0x428d755530f81daf},
      {"wire-da2", A::kDa2, Wire(kSyn, 500), 0xee0eee847b31901e},
      {"wire-da1", A::kDa1, Wire(kSyn, 500), 0x24440bd401cc1dc7},
      {"wire-pwor", A::kPwor, Wire(kWiki, 50), 0x52f95ac1e67e3631},
      {"wire-central", A::kCentral, Wire(kPamap, 500), 0x016bf2d944192696},
      {"xtree-synthetic-DA1", A::kDa1, Xtree(kSyn), 0xc4793b56e39d0e05},
      {"xtree-synthetic-DA2", A::kDa2, Xtree(kSyn), 0x997886057a767e97},
      {"xtree-pamap-CENTRAL", A::kCentral, Xtree(kPamap), 0x53a0e77d94f08be9},
      {"xtree-pamap-DA2", A::kDa2, Xtree(kPamap), 0x4c6c02fc33dcc748},
      {"xtree-wiki-PWOR", A::kPwor, Xtree(kWiki), 0xf5801869ffe0d3c3},
      {"pamap-PWOR-drop", A::kPwor, Faulty(Fault::kDrop), 0xa2c10b2a79aced5e},
      {"pamap-DA1-drop", A::kDa1, Faulty(Fault::kDrop), 0x8915323ea80c1131},
      {"pamap-DA2-drop", A::kDa2, Faulty(Fault::kDrop), 0x69bb1c28ce828bd6},
      {"pamap-CENTRAL-drop", A::kCentral, Faulty(Fault::kDrop),
       0xe88abca82bc51ef4},
      {"pamap-PWOR-delay", A::kPwor, Faulty(Fault::kDelay), 0x95a1b9eca7184609},
      {"pamap-DA1-delay", A::kDa1, Faulty(Fault::kDelay), 0xc4c27d9fdad5c79a},
      {"pamap-DA2-delay", A::kDa2, Faulty(Fault::kDelay), 0xeb36dad89eff1069},
      {"pamap-CENTRAL-delay", A::kCentral, Faulty(Fault::kDelay),
       0x730de80a43e0dab7},
      {"perf-da2-synthetic", A::kDa2, Perf(kSyn, 128, 2800, 800),
       0x3f03fc5327ba6602},
      {"perf-da1-synthetic", A::kDa1, Perf(kSyn, 128, 210, 60),
       0x05fa3f98e27615da},
      {"perf-pwor-wiki", A::kPwor, Perf(kWiki, 512, 1050, 15),
       0xf9593d43274e3709},
      {"perf-central-pamap", A::kCentral, Perf(kPamap, 43, 3500, 1000),
       0xc094ddd40fcc6e09},
  };
}

class DigestGate : public ::testing::TestWithParam<DigestCase> {
 protected:
  void SetUp() override {
    obs::SetEnabled(false);
    obs::Registry().ResetForTest();
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::Registry().ResetForTest();
  }
};

TEST_P(DigestGate, MatchesCommitted) {
  const DigestCase& c = GetParam();
  const std::vector<TimedRow> rows = Generate(c.spec);
  const auto expect_pinned = [&c, &rows](const char* how) {
    const RunResult r = RunCase(c, rows);
    EXPECT_EQ(Hex(r.digest), Hex(c.digest))
        << c.name << ", " << how << ": got digest " << Hex(r.digest)
        << " (total_words " << r.total_words << ", wire_frame_bytes "
        << r.wire_frame_bytes << ", wire_transmissions "
        << r.wire_transmissions << ")";
  };
  expect_pinned("metrics off");
  obs::SetEnabled(true);
  expect_pinned("metrics on");
  obs::SetEnabled(false);
  const int threads = ThreadPool::Global()->num_threads();
  ThreadPool::SetGlobalThreads(4);
  expect_pinned("metrics off, 4 threads");
  ThreadPool::SetGlobalThreads(threads);
}

INSTANTIATE_TEST_SUITE_P(, DigestGate, ::testing::ValuesIn(Cases()));

}  // namespace
}  // namespace dswm
