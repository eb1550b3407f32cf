// End-to-end replay benchmark for the distributed sliding-window trackers.
//
// One run of one workload:
//
//   1. Generate the seeded stream and draw the replay plan (query points,
//      site of each row). Untimed: the program receives only these inputs.
//   2. A short warm-up: a throwaway tracker takes the first rows, so that
//      process-wide lazy state (thread pool, allocator arenas) is in place.
//   3. Passes over the whole stream, each through a fresh tracker, for
//      --seconds: another pass starts only while one more fits, and there
//      is always at least one. Every ~kBlockNs of wall time a pass stops
//      for a HostGauge reading and a batch of timed tracker set-ups.
//
// The first pass does what monitor/driver's RunTracker does: each row goes
// to its seeded site, the exact-window oracle follows the stream, and at
// the seeded query points the coordinator's estimate is read and scored
// against the oracle. Later passes run the tracker alone: at d = 512 the
// scoring costs a hundred times the tracker's own work. The outputs are
// correct when every call succeeds, every query point meets err <= eps,
// and every later pass returns the first one's estimates bit for bit and
// sends the same words and messages.
//
// --trace 0 reports what a user of a tracker sees: update time per row
// (the paper's update rate) scaled to a fixed host speed by HostGauge,
// words per window, and set-up time (building the tracker), the median
// over the run of the fastest set-up in each batch.
//
// --trace 1 replays through a transport that opens a span around each
// delivery stage, adds spans around the oracle, query and evaluation
// calls, and reports each layer's self time in the first pass (span time
// minus the spans opened inside it), so the layer times add up to the
// whole pass. It also reports Observe and Query latency over all passes
// as a median and a tail percentile, with the sample count.
//
// Usage: perfbench_replay --workload NAME --seed N --seconds S --trace 0|1
// The last line of stdout is one JSON object (see run.py).

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "core/tracker_factory.h"
#include "net/channel.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "sketch/covariance.h"
#include "stream/pamap_like.h"
#include "stream/row_stream.h"
#include "stream/synthetic.h"
#include "stream/wiki_like.h"
#include "window/exact_window.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace {

using namespace dswm;

// The driver's defaults: 50 query points drawn after the first quarter of
// the stream.
constexpr int kQueryPoints = 50;
constexpr double kWarmupFraction = 0.25;
constexpr int kWarmupRows = 256;

// Workload sizes follow the repo's paper-figure benches (bench/harness.cc,
// EXPERIMENTS.md Table III and Fig. 4(d)): d, eps = 0.05 and m = 20 as
// there, every window kWindowScale of its size there, and a stream of
// kStreamWindows windows. One pass of DA1 or DA2 then takes 15-25 s on a
// 2 GHz Xeon core; at full size it takes 40-50 s, too long for a run.
// SYNTHETIC turns its subspace at each third of the stream: with a whole
// number of windows, 3, the turns fell on window boundaries and DA2's
// words per window moved 25% between seeds with the side they fell on.
constexpr double kWindowScale = 0.25;
constexpr double kStreamWindows = 3.5;
constexpr double kEpsilon = 0.05;
constexpr int kSites = 20;

struct Workload {
  const char* name;
  const char* algorithm;  // display name, as ParseAlgorithm takes it
  const char* dataset;    // synthetic | pamap | wiki
  int dim;
  Timestamp bench_window;  // the window in bench/harness.cc, in ticks
  double rows_per_tick;
};

// Four workloads that load different layers:
//   da2-synthetic  the site sketch: an IWMT check (Gram + eigensolve) on
//                  every row, and a coordinator that applies every delta;
//   da1-synthetic  the eigenpair protocol: site spectral checks and d x d
//                  eigendecompositions;
//   pwor-wiki      sampling on sparse, heavy-tailed rows: priority queues,
//                  threshold upkeep and row uploads, no window or sketch
//                  merges;
//   central-pamap  no site sketch at all: every row crosses the wire and
//                  lands in the coordinator's mEH, so transport and
//                  coordinator dominate.
constexpr Workload kWorkloads[] = {
    {"da2-synthetic", "DA2", "synthetic", 128, 16000, 1.0},
    {"da1-synthetic", "DA1", "synthetic", 128, 16000, 1.0},
    {"pwor-wiki", "PWOR", "wiki", 512, 300, 20.0},
    {"central-pamap", "CENTRAL", "pamap", 43, 50000, 1.0},
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum Layer : int {
  kLoop,    // the replay loop itself: row and plan bookkeeping
  kSite,    // tracker Observe minus deliveries, plus downlink handlers:
            // window, sketch, sampling, frame encoding on the site side
  kNet,     // loopback dispatch and ledger record
  kCoord,   // uplink handlers: the coordinator applying a message,
            // including any frames it encodes in reply
  kOracle,  // ExactWindow upkeep
  kQuery,   // tracker Query()
  kEval,    // covariance-error evaluation against the oracle
  kBench,   // HostGauge readings and set-up batches; not a layer
  kNumLayers,
};

constexpr const char* kLayerMetric[kBench] = {
    "driver_loop_us_per_row", "site_us_per_row",   "net_us_per_row",
    "coord_update_us_per_row", "oracle_exact_us_per_row",
    "query_us_per_row",       "eval_spectral_us_per_row",
};

// Self time per layer from a stack of open spans.
class LayerClock {
 public:
  void Open(Layer layer) { stack_.push_back(Frame{layer, NowNs(), 0}); }

  void Close() {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const int64_t elapsed = NowNs() - frame.start_ns;
    self_ns_[frame.layer] += elapsed - frame.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += elapsed;
  }

  void Reset() { self_ns_.fill(0); }
  [[nodiscard]] const std::array<int64_t, kNumLayers>& self_ns() const {
    return self_ns_;
  }

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::array<int64_t, kNumLayers> self_ns_{};
};

// A span on `clock`; nothing at all when `clock` is null (untraced runs).
class LayerScope {
 public:
  LayerScope(LayerClock* clock, Layer layer) : clock_(clock) {
    if (clock_ != nullptr) clock_->Open(layer);
  }
  ~LayerScope() {
    if (clock_ != nullptr) clock_->Close();
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  LayerClock* clock_;
};

// Frames a traced pass put on the wire, kept so the codec cost can be
// timed on exactly those frames afterwards.
class FrameLog {
 public:
  void Capture(const std::vector<uint8_t>& bytes) {
    ++frames_seen_;
    if (!capturing_ || captured_bytes_ + bytes.size() > kMaxBytes) return;
    captured_bytes_ += bytes.size();
    frames_.push_back(bytes);
  }

  void set_capturing(bool on) { capturing_ = on; }
  [[nodiscard]] long frames_seen() const { return frames_seen_; }

  // Nanoseconds one Channel::Send spends encoding and parsing, averaged
  // over the captured frames: parse each frame, then re-encode the parsed
  // message. Returns 0 when nothing was captured; fails if a frame does
  // not round-trip byte for byte.
  [[nodiscard]] StatusOr<double> CodecNsPerFrame() const {
    if (frames_.empty()) return 0.0;
    std::vector<uint8_t> buf;
    long passes = 0;
    const int64_t start = NowNs();
    int64_t elapsed = 0;
    do {
      for (const std::vector<uint8_t>& frame : frames_) {
        StatusOr<net::ParsedFrame> parsed =
            net::ParseFrame(frame.data(), frame.size());
        if (!parsed.ok()) return parsed.status();
        net::SerializeMessage(parsed.value().msg, &buf,
                              parsed.value().sequence);
        if (buf != frame) {
          return Status::Internal("frame does not round-trip");
        }
      }
      ++passes;
      elapsed = NowNs() - start;
    } while (elapsed < kMinCodecNs);
    return static_cast<double>(elapsed) /
           static_cast<double>(passes * static_cast<long>(frames_.size()));
  }

 private:
  static constexpr size_t kMaxBytes = size_t{64} << 20;
  static constexpr int64_t kMinCodecNs = 200'000'000;

  bool capturing_ = false;
  long frames_seen_ = 0;
  size_t captured_bytes_ = 0;
  std::vector<std::vector<uint8_t>> frames_;
};

// net::LoopbackChannel with spans around its two delivery stages. Dispatch
// makes the same Record-then-Handle calls, so a traced pass ledgers and
// applies exactly what an untraced one does (the words and messages must
// match). Encoding and parsing run in Channel::Send before Dispatch, so
// their time stays with the sending layer; FrameLog measures it on its own.
class TimedChannel final : public net::Channel {
 public:
  TimedChannel(int num_sites, LayerClock* clock, FrameLog* log)
      : Channel(num_sites), clock_(clock), log_(log) {}

 protected:
  void Dispatch(net::Delivery delivery, const FrameInfo& frame,
                const std::vector<uint8_t>& bytes) override {
    log_->Capture(bytes);
    {
      LayerScope scope(clock_, kNet);
      Record(delivery, frame, /*dropped=*/false, /*retransmit=*/false,
             /*duplicate=*/false);
    }
    // Downlink frames (threshold broadcasts, retrieve requests) run site
    // code; uplink frames update the coordinator.
    LayerScope scope(clock_,
                     delivery.dir == net::Direction::kUp ? kCoord : kSite);
    Handle(std::move(delivery));
  }

 private:
  LayerClock* clock_;
  FrameLog* log_;
};

// The host's speed, read from fixed work that calls no library code: a
// 64 x 64 matrix product (throughput-bound arithmetic), cyclic Jacobi
// sweeps over a 48 x 48 symmetric matrix (a chain of dependent rotations
// with a square root and divisions in each, like the eigensolvers DA1 and
// DA2 spend their time in) and a strided sweep over 16 MiB (memory), about
// 5, 4 and 3 ms on an unloaded 2 GHz Xeon core. The host is shared, and
// other tenants slow it by 20-100% for seconds to minutes at a time, often
// longer than a run. Those phases slow this work about as much as they
// slow the trackers, so update time is taken in blocks, each over the mean
// of the readings around it, and scaled to the host speed at which the
// gauge reads kReferenceNs. The mix is fitted: over repeated runs of one seed while the host's
// speed varied by 1.4-1.9x, the run-to-run variation (coefficient of
// variation) of DA2's update time was 0.14 as measured, 0.04 over a gauge
// with twice this sweep and a third of this Jacobi work, and 0.02-0.03
// over the arithmetic parts alone or this mix; CENTRAL and PWOR, whose
// rows touch more memory, did worse without the sweep (0.05 against 0.02).
class HostGauge {
 public:
  static constexpr double kReferenceNs = 20e6;

  HostGauge()
      : a_(kN * kN, 1.0001),
        b_(kN * kN, 0.9999),
        c_(kN * kN),
        sym0_(kJ * kJ),
        sym_(kJ * kJ),
        sweep_(kSweep, 1.0) {
    for (size_t i = 0; i < kJ; ++i) {
      for (size_t j = 0; j < kJ; ++j) {
        sym0_[i * kJ + j] = 1.0 / static_cast<double>(1 + i + j) +
                            (i == j ? static_cast<double>(i) : 0.0);
      }
    }
  }

  // Runs the work once; returns its wall time in nanoseconds.
  int64_t Read() {
    const int64_t start = NowNs();
    std::fill(c_.begin(), c_.end(), 0.0);
    for (int r = 0; r < kProducts; ++r) {
      for (size_t i = 0; i < kN; ++i) {
        for (size_t k = 0; k < kN; ++k) {
          const double aik = a_[i * kN + k];
          for (size_t j = 0; j < kN; ++j) {
            c_[i * kN + j] += aik * b_[k * kN + j];
          }
        }
      }
    }
    double sum = std::accumulate(c_.begin(), c_.end(), 0.0);
    for (int r = 0; r < kJacobiRounds; ++r) {
      sym_ = sym0_;
      for (int s = 0; s < kJacobiSweeps; ++s) JacobiSweep();
      sum += sym_[0];
    }
    for (int r = 0; r < kSweeps; ++r) {
      for (size_t i = 0; i < sweep_.size(); i += kLineDoubles) {
        sum += sweep_[i];
      }
    }
    checksum_ = sum;  // a volatile store: the work cannot be optimised away
    return NowNs() - start;
  }

 private:
  static constexpr size_t kN = 64;
  static constexpr int kProducts = 40;
  static constexpr size_t kJ = 48;
  static constexpr int kJacobiRounds = 12;
  static constexpr int kJacobiSweeps = 2;
  static constexpr size_t kSweep = size_t{2} << 20;  // doubles: 16 MiB
  static constexpr size_t kLineDoubles = 8;          // one per cache line
  static constexpr int kSweeps = 3;

  // One cyclic sweep: a rotation for every pair (p, q), each zeroing the
  // (p, q) entry of the matrix the previous rotations left.
  void JacobiSweep() {
    double* m = sym_.data();
    for (size_t p = 0; p + 1 < kJ; ++p) {
      for (size_t q = p + 1; q < kJ; ++q) {
        const double apq = m[p * kJ + q];
        const double theta = (m[q * kJ + q] - m[p * kJ + p]) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (size_t k = 0; k < kJ; ++k) {
          const double mkp = m[k * kJ + p];
          const double mkq = m[k * kJ + q];
          m[k * kJ + p] = c * mkp - s * mkq;
          m[k * kJ + q] = s * mkp + c * mkq;
        }
        for (size_t k = 0; k < kJ; ++k) {
          const double mpk = m[p * kJ + k];
          const double mqk = m[q * kJ + k];
          m[p * kJ + k] = c * mpk - s * mqk;
          m[q * kJ + k] = s * mpk + c * mqk;
        }
        // Keeps the next rotation of this pair well defined.
        m[p * kJ + q] = m[q * kJ + p] = 1e-3;
      }
    }
  }

  std::vector<double> a_, b_, c_, sym0_, sym_, sweep_;
  volatile double checksum_ = 0.0;
};

struct Prepared {
  Algorithm algorithm = Algorithm::kDa2;
  std::vector<TimedRow> rows;
  TrackerConfig config;
  std::vector<int> sites;
  std::vector<bool> is_query;
};

StatusOr<std::vector<TimedRow>> Generate(const Workload& w, int rows,
                                         uint64_t seed) {
  const std::string dataset = w.dataset;
  if (dataset == "synthetic") {
    SyntheticConfig c;
    c.rows = rows;
    c.dim = w.dim;
    c.seed = seed;
    SyntheticGenerator gen(c);
    return Materialize(&gen, c.rows);
  }
  if (dataset == "pamap") {
    PamapLikeConfig c;
    c.rows = rows;
    c.dim = w.dim;
    c.seed = seed;
    PamapLikeGenerator gen(c);
    return Materialize(&gen, c.rows);
  }
  if (dataset == "wiki") {
    WikiLikeConfig c;
    c.rows = rows;
    c.dim = w.dim;
    c.seed = seed;
    WikiLikeGenerator gen(c);
    return Materialize(&gen, c.rows);
  }
  return Status::InvalidArgument("unknown dataset " + dataset);
}

// Generates the inputs and draws the replay plan in the driver's order:
// all query points first, then one site per row (monitor/replay.cc).
StatusOr<Prepared> Prepare(const Workload& w, uint64_t seed) {
  Prepared p;
  StatusOr<Algorithm> algorithm = ParseAlgorithm(w.algorithm);
  if (!algorithm.ok()) return algorithm.status();
  p.algorithm = algorithm.value();
  const double window_ticks =
      std::round(kWindowScale * static_cast<double>(w.bench_window));
  const int rows =
      static_cast<int>(kStreamWindows * window_ticks * w.rows_per_tick);
  StatusOr<std::vector<TimedRow>> generated = Generate(w, rows, seed);
  if (!generated.ok()) return generated.status();
  p.rows = std::move(generated).value();
  const int n = static_cast<int>(p.rows.size());
  if (n < 2) return Status::InvalidArgument("workload stream too short");

  p.config.dim = w.dim;
  p.config.num_sites = kSites;
  p.config.window = static_cast<Timestamp>(window_ticks);
  p.config.epsilon = kEpsilon;
  p.config.seed = seed;

  Rng rng(seed + 99);
  const int first = std::min(n - 1, static_cast<int>(kWarmupFraction * n));
  p.is_query.assign(static_cast<size_t>(n), false);
  for (int q = 0; q < kQueryPoints; ++q) {
    p.is_query[static_cast<size_t>(
        first + static_cast<int>(rng.NextBelow(n - first)))] = true;
  }
  p.sites.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    p.sites[static_cast<size_t>(i)] =
        static_cast<int>(rng.NextBelow(static_cast<uint64_t>(kSites)));
  }
  return p;
}

// What a run collects between passes: gauge readings, the update time of
// each block between two readings, and tracker set-up times.
class Sampler {
 public:
  static constexpr int64_t kBlockNs = 300'000'000;

  explicit Sampler(const Prepared& p) : p_(p) {}

  // Reads the gauge, then builds and destroys trackers back to back until
  // kSetupBatchNs pass, and keeps the batch's fastest MakeTracker time:
  // the host's slow phases and interrupts only ever add time. Over ten
  // seeds on CENTRAL, the run's median of all set-up times ranged over 48%
  // (0.12-0.18 us, with the host's speed), its median of batch minima over
  // 9-23%. It is not scaled by the gauge: DA1's and DA2's set-up, mostly
  // zeroing memory, barely slows in the phases that slow the gauge 70%.
  Status Checkpoint() {
    const int64_t start = NowNs();
    gauge_ns_.push_back(static_cast<double>(gauge_.Read()));
    const int64_t batch_start = NowNs();
    int64_t fastest_ns = 0;
    for (int i = 0;
         i < kMaxSetupsPerBatch && NowNs() - batch_start < kSetupBatchNs;
         ++i) {
      const int64_t t0 = NowNs();
      StatusOr<std::unique_ptr<DistributedTracker>> tracker =
          MakeTracker(p_.algorithm, p_.config);
      const int64_t elapsed = NowNs() - t0;
      if (!tracker.ok()) return tracker.status();
      fastest_ns = i == 0 ? elapsed : std::min(fastest_ns, elapsed);
    }
    setup_s_.push_back(static_cast<double>(fastest_ns) * 1e-9);
    last_ns_ = NowNs();
    bench_ns_ += last_ns_ - start;
    if (observe_in_block_ns_ >= 0) {
      // Closes the block that the previous reading opened.
      const double mean_gauge =
          0.5 * (gauge_ns_[gauge_ns_.size() - 2] + gauge_ns_.back());
      scaled_observe_ns_ += static_cast<double>(observe_in_block_ns_) *
                            HostGauge::kReferenceNs / mean_gauge;
    }
    observe_in_block_ns_ = 0;
    return Status::OK();
  }

  // Called between rows: takes a checkpoint once a block's wall time is up.
  Status MaybeCheckpoint(LayerClock* clock) {
    if (NowNs() - last_ns_ < kBlockNs) return Status::OK();
    LayerScope scope(clock, kBench);
    return Checkpoint();
  }

  void AddObserve(int64_t ns) { observe_in_block_ns_ += ns; }

  // Closes a pass: returns its Observe time scaled to the reference host
  // speed. The checkpoint that ends the pass's last block must come first.
  double TakeScaledObserveNs() {
    const double out = scaled_observe_ns_;
    scaled_observe_ns_ = 0.0;
    return out;
  }

  [[nodiscard]] int64_t bench_ns() const { return bench_ns_; }
  [[nodiscard]] const std::vector<double>& gauge_ns() const {
    return gauge_ns_;
  }
  [[nodiscard]] const std::vector<double>& setup_s() const { return setup_s_; }

 private:
  static constexpr int kMaxSetupsPerBatch = 256;
  static constexpr int64_t kSetupBatchNs = 10'000'000;

  const Prepared& p_;
  HostGauge gauge_;
  std::vector<double> gauge_ns_;
  std::vector<double> setup_s_;
  int64_t last_ns_ = 0;
  int64_t bench_ns_ = 0;  // spent in checkpoints
  int64_t observe_in_block_ns_ = -1;  // -1 until the first checkpoint
  double scaled_observe_ns_ = 0.0;
};

struct Outcome {
  double avg_err = 0.0;
  double max_err = 0.0;
  long total_words = 0;
  long messages = 0;
  long operations = 0;  // Observe and Query calls
  long failed = 0;      // calls that returned an error or broke the bound
  int64_t wall_ns = 0;  // without checkpoints
  double scaled_observe_ns = 0.0;
  std::vector<int64_t> observe_ns;    // per row
  std::vector<int64_t> query_ns;      // per query point
  std::vector<uint64_t> query_hash;   // per query point: the estimate's bytes
  std::array<int64_t, kNumLayers> self_ns{};
};

double EvalError(const Matrix& cov_exact, const CovarianceEstimate& estimate,
                 double fnorm2) {
  return estimate.NativeIsRows()
             ? CovarianceErrorOfSketch(cov_exact, estimate.Rows(), fnorm2)
             : CovarianceErrorOfCovariance(cov_exact, estimate.Covariance(),
                                           fnorm2);
}

// FNV-1a, a 64-bit word at a time, over the native view of an estimate: a
// pass whose estimate differs from the first pass's in any bit gets
// another hash but for odds of about 2^-64.
uint64_t HashEstimate(const CovarianceEstimate& estimate) {
  const Matrix& m = estimate.NativeIsRows() ? estimate.Rows()
                                            : estimate.Covariance();
  const size_t size =
      static_cast<size_t>(m.rows()) * static_cast<size_t>(m.cols());
  uint64_t h = 1469598103934665603ULL ^ static_cast<uint64_t>(m.rows());
  for (size_t i = 0; i < size; ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, m.data() + i, sizeof(bits));
    h = (h ^ bits) * 1099511628211ULL;
  }
  return h;
}

// One pass through a fresh tracker. `clock` null = untraced (the tracker's
// default transport, no spans). The first pass (`first` null) runs the
// oracle and scores every query point against it; a later pass runs the
// tracker alone and must return the first pass's estimates bit for bit.
StatusOr<Outcome> Pass(const Prepared& p, const Outcome* first,
                       Sampler* sampler, LayerClock* clock, FrameLog* log) {
  TrackerConfig config = p.config;
  if (clock != nullptr) {
    config.channel_backend = [clock, log](const net::NetProfile&,
                                          int num_sites, uint64_t) {
      return std::unique_ptr<net::Channel>(
          std::make_unique<TimedChannel>(num_sites, clock, log));
    };
    clock->Reset();
  }
  StatusOr<std::unique_ptr<DistributedTracker>> made =
      MakeTracker(p.algorithm, config);
  if (!made.ok()) return made.status();
  DistributedTracker* tracker = made.value().get();
  ExactWindow exact(config.dim, config.window);

  Outcome out;
  out.observe_ns.reserve(p.rows.size());
  out.query_ns.reserve(kQueryPoints);
  double err_sum = 0.0;
  const int64_t bench_before = sampler->bench_ns();
  const int64_t start = NowNs();
  {
    LayerScope loop(clock, kLoop);
    for (size_t i = 0; i < p.rows.size(); ++i) {
      const TimedRow& row = p.rows[i];
      {
        LayerScope scope(clock, kSite);
        const int64_t t0 = NowNs();
        const Status status = tracker->Observe(p.sites[i], row);
        const int64_t elapsed = NowNs() - t0;
        out.observe_ns.push_back(elapsed);
        sampler->AddObserve(elapsed);
        ++out.operations;
        if (!status.ok()) ++out.failed;
      }
      if (first == nullptr) {
        LayerScope scope(clock, kOracle);
        exact.Add(row);
        exact.Advance(row.timestamp);
      }
      if (p.is_query[i]) {
        CovarianceEstimate estimate;
        {
          LayerScope scope(clock, kQuery);
          const int64_t t0 = NowNs();
          estimate = tracker->Query();
          out.query_ns.push_back(NowNs() - t0);
          ++out.operations;
        }
        const size_t q = out.query_hash.size();
        out.query_hash.push_back(HashEstimate(estimate));
        if (first != nullptr) {
          if (q >= first->query_hash.size() ||
              out.query_hash[q] != first->query_hash[q]) {
            ++out.failed;
          }
        } else {
          double err = 0.0;
          {
            LayerScope scope(clock, kEval);
            err = EvalError(exact.Covariance(), estimate,
                            exact.FrobeniusSquared());
          }
          err_sum += err;
          out.max_err = std::max(out.max_err, err);
          // DA1, DA2 and CENTRAL guarantee err <= eps; PWOR meets it with
          // high probability and, on its workload, always.
          if (!(err <= config.epsilon)) ++out.failed;
        }
      }
      const Status status = sampler->MaybeCheckpoint(clock);
      if (!status.ok()) return status;
    }
  }
  out.wall_ns = NowNs() - start - (sampler->bench_ns() - bench_before);
  if (clock != nullptr) out.self_ns = clock->self_ns();
  if (!out.query_ns.empty()) {
    out.avg_err = err_sum / static_cast<double>(out.query_ns.size());
  }
  out.total_words = tracker->Comm().TotalWords();
  out.messages = tracker->Comm().messages;
  return out;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// A latency distribution as its median and the highest of a few standard
// percentiles that has at least ten samples beyond it, with that
// percentile and the sample count: four metrics named `prefix`_p50_us,
// _tail_us, _tail_pct and _samples.
void AddLatency(const std::string& prefix, const std::vector<int64_t>& ns,
                std::vector<Metric>* metrics) {
  std::vector<double> us;
  us.reserve(ns.size());
  for (int64_t v : ns) us.push_back(static_cast<double>(v) * 1e-3);
  std::sort(us.begin(), us.end());
  const double n = static_cast<double>(us.size());
  // Nearest rank: the smallest sample with at least pct% of all at or
  // below it (the 1e-9 absorbs rounding in pct / 100 * n).
  auto rank = [n](double pct) {
    return std::max(1.0, std::ceil(pct / 100.0 * n - 1e-9));
  };
  double tail_pct = 50.0;
  for (double pct : {99.9, 99.0, 95.0, 90.0, 80.0}) {
    if (n - rank(pct) >= 10.0) {
      tail_pct = pct;
      break;
    }
  }
  auto at = [&us, &rank](double pct) {
    return us[static_cast<size_t>(rank(pct)) - 1];
  };
  metrics->push_back({prefix + "_p50_us", at(50.0), "us"});
  metrics->push_back({prefix + "_tail_us", at(tail_pct), "us"});
  metrics->push_back({prefix + "_tail_pct", tail_pct, "%"});
  metrics->push_back({prefix + "_samples", n, "count"});
}

void PrintResult(bool correct, long attempted, long failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench_replay: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

int Run(const Workload& w, uint64_t seed, double seconds, bool trace) {
  // 1. Inputs.
  StatusOr<Prepared> prepared = Prepare(w, seed);
  if (!prepared.ok()) return Fail("inputs", prepared.status());
  const Prepared& p = prepared.value();
  const double rows = static_cast<double>(p.rows.size());

  // 2. Warm-up.
  {
    StatusOr<std::unique_ptr<DistributedTracker>> tracker =
        MakeTracker(p.algorithm, p.config);
    if (!tracker.ok()) return Fail("warm-up", tracker.status());
    const size_t n = std::min(p.rows.size(), size_t{kWarmupRows});
    for (size_t i = 0; i < n; ++i) {
      const Status status = tracker.value()->Observe(p.sites[i], p.rows[i]);
      if (!status.ok()) return Fail("warm-up", status);
    }
  }

  // 3. Passes. Traced runs also turn the obs registry on for the program's
  // own layer counters; that changes no tracker result (obs contract).
  obs::SetEnabled(trace);
  LayerClock clock;
  FrameLog log;
  LayerClock* clock_ptr = trace ? &clock : nullptr;
  Sampler sampler(p);
  const obs::MetricsSnapshot counters_before = obs::Registry().Snapshot();
  std::vector<Outcome> passes;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  Status status = sampler.Checkpoint();
  if (!status.ok()) return Fail("set-up", status);
  long frames_per_pass = 0;
  obs::MetricsSnapshot counters;
  int64_t last_pass_ns = 0;
  do {
    const int64_t pass_start = NowNs();
    log.set_capturing(passes.empty());
    StatusOr<Outcome> outcome =
        Pass(p, passes.empty() ? nullptr : &passes.front(), &sampler,
             clock_ptr, &log);
    if (!outcome.ok()) return Fail("pass", outcome.status());
    status = sampler.Checkpoint();
    if (!status.ok()) return Fail("set-up", status);
    outcome.value().scaled_observe_ns = sampler.TakeScaledObserveNs();
    if (passes.empty()) {
      // Per-layer figures describe the first pass, the only one that runs
      // every layer.
      frames_per_pass = log.frames_seen();
      counters = obs::Registry().Snapshot().DeltaSince(counters_before);
    }
    // A later pass skips the oracle and the evaluation: until one has run,
    // the first pass's tracker calls estimate its length.
    const Outcome& done = outcome.value();
    last_pass_ns =
        passes.empty()
            ? std::accumulate(done.observe_ns.begin(), done.observe_ns.end(),
                              std::accumulate(done.query_ns.begin(),
                                              done.query_ns.end(),
                                              int64_t{0}))
            : NowNs() - pass_start;
    passes.push_back(std::move(outcome).value());
  } while (NowNs() + last_pass_ns <= deadline);

  const Outcome& ref = passes.front();
  bool correct = ref.total_words > 0 && ref.messages > 0;
  long attempted = 0;
  long failed = 0;
  for (const Outcome& o : passes) {
    attempted += o.operations;
    failed += o.failed;
    correct = correct && o.total_words == ref.total_words &&
              o.messages == ref.messages;
  }
  correct = correct && failed == 0;
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench_replay: outputs break the bound or differ "
                 "between passes: avg/max err %.17g/%.17g words %ld "
                 "messages %ld, failed %ld\n",
                 ref.avg_err, ref.max_err, ref.total_words, ref.messages,
                 failed);
  }

  // A summary on stderr, for reading a run's figures against the host's
  // speed during it.
  std::vector<double> raw_observe_us;
  for (const Outcome& o : passes) {
    raw_observe_us.push_back(
        static_cast<double>(std::accumulate(o.observe_ns.begin(),
                                            o.observe_ns.end(), int64_t{0})) *
        1e-3 / rows);
  }
  const std::vector<double>& gauge_ns = sampler.gauge_ns();
  const std::vector<double>& setup_s = sampler.setup_s();
  std::fprintf(stderr,
               "perfbench_replay: %s seed %llu: %zu passes, raw update "
               "%.4g us/row (median); min/median/max of %zu: gauge "
               "%.4g/%.4g/%.4g ms, batch set-up %.4g/%.4g/%.4g ms\n",
               w.name, static_cast<unsigned long long>(seed), passes.size(),
               Median(raw_observe_us), gauge_ns.size(),
               *std::min_element(gauge_ns.begin(), gauge_ns.end()) * 1e-6,
               Median(gauge_ns) * 1e-6,
               *std::max_element(gauge_ns.begin(), gauge_ns.end()) * 1e-6,
               *std::min_element(setup_s.begin(), setup_s.end()) * 1e3,
               Median(setup_s) * 1e3,
               *std::max_element(setup_s.begin(), setup_s.end()) * 1e3);

  std::vector<Metric> metrics;
  if (!trace) {
    const Timestamp span =
        p.rows.back().timestamp - p.rows.front().timestamp + 1;
    const double windows = static_cast<double>(span) /
                           static_cast<double>(p.config.window);
    std::vector<double> scaled_observe_ns;
    for (const Outcome& o : passes) {
      scaled_observe_ns.push_back(o.scaled_observe_ns);
    }
    metrics = {
        {"update_ref_us_per_row", Median(scaled_observe_ns) * 1e-3 / rows,
         "ref_us"},
        {"words_per_window", static_cast<double>(ref.total_words) / windows,
         "words"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    std::array<double, kBench> layer_us{};
    double layer_sum = 0.0;
    for (int l = 0; l < kBench; ++l) {
      layer_us[l] = static_cast<double>(ref.self_ns[l]) * 1e-3 / rows;
      layer_sum += layer_us[l];
      metrics.push_back({kLayerMetric[l], layer_us[l], "us"});
    }
    metrics.push_back({"layer_coverage_pct",
                       100.0 * (layer_sum - layer_us[kLoop]) / layer_sum,
                       "%"});
    metrics.push_back({"replay_us_per_row",
                       static_cast<double>(ref.wall_ns) * 1e-3 / rows, "us"});
    metrics.push_back({"host_gauge_ms", Median(gauge_ns) * 1e-6, "ms"});
    std::vector<int64_t> observe_ns;
    std::vector<int64_t> query_ns;
    for (const Outcome& o : passes) {
      observe_ns.insert(observe_ns.end(), o.observe_ns.begin(),
                        o.observe_ns.end());
      query_ns.insert(query_ns.end(), o.query_ns.begin(), o.query_ns.end());
    }
    AddLatency("observe", observe_ns, &metrics);
    AddLatency("query", query_ns, &metrics);
    StatusOr<double> codec_ns = log.CodecNsPerFrame();
    if (!codec_ns.ok()) return Fail("codec", codec_ns.status());
    metrics.push_back({"net_codec_us_per_row",
                       codec_ns.value() * 1e-3 *
                           static_cast<double>(frames_per_pass) / rows,
                       "us"});
    metrics.push_back({"frames_per_row",
                       static_cast<double>(frames_per_pass) / rows, "count"});
    // The program's own counters over the first pass, per row.
    const double per_row = 1.0 / rows;
    auto counter = [&counters](const char* name) {
      const auto it = counters.counters.find(name);
      return it == counters.counters.end() ? 0.0
                                           : static_cast<double>(it->second);
    };
    metrics.push_back({"eigen_calls_per_row",
                       counter("linalg.eigen.calls") * per_row, "count"});
    metrics.push_back({"meh_merges_per_row",
                       counter("window.meh.merges") * per_row, "count"});
    metrics.push_back({"gram_flops_per_row",
                       (counter("linalg.gram.flops") +
                        counter("linalg.gram_transpose.flops") +
                        counter("linalg.matmul.flops")) *
                           per_row,
                       "flops"});
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Fixed allocator thresholds. By default glibc serves blocks of 128 KiB
  // and more (a 128 x 128 matrix) with fresh mmaps until a free moves its
  // threshold up, and gives heap memory back to the kernel as the heap
  // shrinks, so a set-up would pay a page fault per page or none depending
  // on what the process freed before it: DA1's set-up time varied 7x
  // within a run. Kept on the heap, every set-up after the first reuses
  // memory.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  StatusOr<FlagSet> flags =
      FlagSet::Parse(argc, argv, {"workload", "seed", "seconds", "trace"});
  if (!flags.ok()) return Fail("flags", flags.status());
  const std::string name = flags.value().GetString("workload", "");
  const long seed = flags.value().GetInt("seed", 1);
  const double seconds = flags.value().GetDouble("seconds", 10.0);
  const long trace = flags.value().GetInt("trace", 0);
  if (seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return Fail("flags", Status::InvalidArgument(
                             "need --seed >= 0, --seconds > 0, --trace 0|1"));
  }
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return Run(w, static_cast<uint64_t>(seed), seconds, trace == 1);
    }
  }
  return Fail("flags", Status::InvalidArgument("unknown workload '" + name +
                                               "'"));
}
