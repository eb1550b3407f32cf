// Configuration shared by all distributed sliding-window trackers.

#ifndef DSWM_CORE_TRACKER_CONFIG_H_
#define DSWM_CORE_TRACKER_CONFIG_H_

#include <cmath>
#include <cstdint>

#include "common/status.h"
#include "net/channel.h"
#include "stream/timed_row.h"

namespace dswm {

/// Which threshold-maintenance protocol a sampling tracker runs.
enum class SamplingProtocol {
  /// Algorithm 1: |S| kept at exactly l; every change re-synchronizes tau.
  kSimple,
  /// Algorithm 2: l <= |S| <= 4l with lazy tau broadcasts (the default).
  kLazyBroadcast,
};

/// Parameters for building a tracker.
struct TrackerConfig {
  /// Row dimension d.
  int dim = 0;
  /// Number of distributed sites m.
  int num_sites = 1;
  /// Window length W in ticks.
  Timestamp window = 1;
  /// Target covariance error epsilon.
  double epsilon = 0.05;
  /// RNG seed (sampling protocols and tie-breaking).
  uint64_t seed = 1;

  /// Sample-set size l; 0 derives l = ceil(sample_constant *
  /// log(1/eps)/eps^2) per the paper's bound.
  int ell_override = 0;
  /// Leading constant for the derived l.
  double sample_constant = 1.0;
  /// Protocol for sampling trackers.
  SamplingProtocol protocol = SamplingProtocol::kLazyBroadcast;

  /// DA1: skip the spectral-norm check until the accumulated arrived or
  /// expired squared-norm mass could possibly cross the threshold (sound
  /// short-circuit; see DESIGN.md). Off = re-check on every row.
  bool da1_lazy_norm_check = true;

  /// DA2: flush the forward IWMT residual at window boundaries so
  /// unreported mass and FD shrinkage cannot accumulate across windows
  /// (DESIGN.md item 5). Off reproduces the drift the flush prevents
  /// (ablation only).
  bool da2_flush_at_boundary = true;

  /// Transport profile. All-zero (the default) selects the deterministic
  /// loopback channel; any fault knob selects the fault injector.
  net::NetProfile net;

  /// Transport backend override, installed before MakeTracker (perfbench
  /// installs its timed channel this way). Null keeps the default
  /// in-process selection above. Every sub-protocol channel a tracker
  /// constructs goes through this hook, so a single assignment moves the
  /// whole protocol onto another transport.
  net::ChannelBackendFn channel_backend;

  /// Derived sample-set size.
  int SampleSize() const {
    if (ell_override > 0) return ell_override;
    const double e = epsilon;
    return static_cast<int>(
        std::ceil(sample_constant * std::log(1.0 / e) / (e * e)));
  }

  /// Validates the configuration.
  Status Validate() const {
    if (dim <= 0) return Status::InvalidArgument("dim must be > 0");
    if (num_sites <= 0) return Status::InvalidArgument("num_sites must be > 0");
    if (window <= 0) return Status::InvalidArgument("window must be > 0");
    if (!(epsilon > 0.0) || epsilon >= 1.0) {
      return Status::InvalidArgument("epsilon must be in (0, 1)");
    }
    DSWM_RETURN_NOT_OK(net.Validate());
    return Status::OK();
  }
};

/// Builds the transport for one (sub-)protocol channel of a tracker:
/// the configured backend when one is installed, MakeChannel's default
/// loopback/faulty selection otherwise. `salt` decorrelates sub-protocol
/// fault RNGs; trackers pass the same salts they always have, so a
/// backend swap never changes a seeded fault sequence.
inline std::unique_ptr<net::Channel> MakeTrackerChannel(
    const TrackerConfig& config, uint64_t salt) {
  if (config.channel_backend) {
    return config.channel_backend(config.net, config.num_sites, salt);
  }
  return net::MakeChannel(config.net, config.num_sites, salt);
}

}  // namespace dswm

#endif  // DSWM_CORE_TRACKER_CONFIG_H_
