// The public tracking interface: continuously maintain a covariance sketch
// of the union of m distributed streams over a time-based sliding window.

#ifndef DSWM_CORE_TRACKER_H_
#define DSWM_CORE_TRACKER_H_

#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/covariance_estimate.h"
#include "monitor/comm_stats.h"
#include "stream/timed_row.h"

namespace dswm {

namespace net {
class Channel;
}  // namespace net

/// A distributed sliding-window covariance-sketch tracker.
///
/// Usage: call AdvanceTime(t) whenever the global clock moves, Observe()
/// for each arrival, and read the estimate through Query(). All protocols
/// in the paper (PWOR, PWOR-ALL, ESWOR, ESWOR-ALL, PWR, ESWR, DA1, DA2)
/// implement this interface; build them with MakeTracker()
/// (tracker_factory.h).
///
/// Misuse is reported, not crashed on: Observe() returns InvalidArgument
/// for an out-of-range site, a timestamp regression, or a malformed row.
/// Contract violations *inside* a protocol remain DSWM_CHECKs.
class DistributedTracker {
 public:
  virtual ~DistributedTracker() = default;

  /// Row `row` arrives at site `site` at time row.timestamp. Timestamps
  /// across calls must be non-decreasing; a decrease, an out-of-range
  /// site, a row whose length is not Dim(), a non-finite value or an
  /// out-of-range support index returns InvalidArgument without mutating
  /// tracker state.
  [[nodiscard]] virtual Status Observe(int site, const TimedRow& row) = 0;

  /// Advances the global clock to `t`: expirations are processed at every
  /// site and at the coordinator, and the protocol re-establishes its
  /// invariants (threshold negotiation, refills, backward tracking).
  virtual void AdvanceTime(Timestamp t) = 0;

  /// The current estimate in its native (cheapest) form; the other view
  /// converts lazily inside CovarianceEstimate. Move-returned -- no deep
  /// copies beyond the snapshot the protocol itself must take.
  [[nodiscard]] virtual CovarianceEstimate Query() const = 0;

  /// Cumulative communication.
  [[nodiscard]] virtual const CommStats& Comm() const = 0;

  /// The transport channels this tracker sends through (composite
  /// protocols own several). Drivers aggregate their ledgers for trace
  /// dumps and wire-byte accounting.
  [[nodiscard]] virtual std::vector<net::Channel*> Channels() const {
    return {};
  }

  /// Transport delivery pump: flushes every channel this tracker owns up
  /// to time `t` (delayed frames, retransmissions) without running any
  /// protocol maintenance. The driver never calls it -- trackers reach the
  /// same flush inside Observe/AdvanceTime -- and nothing in src/ does; a
  /// caller may flush at a channel's due time (FaultyChannel::NextDueTime)
  /// without waiting for the next row. Flushing early is order-preserving:
  /// the channels deliver in (due-time, enqueue-order) regardless of how
  /// the clock advances, so the state the next Observe sees is identical.
  virtual void PumpChannels(Timestamp t);

  /// Current space usage, in words, of the most loaded site.
  [[nodiscard]] virtual long MaxSiteSpaceWords() const = 0;

  /// Algorithm name as used in the paper's figures ("PWOR", "DA2", ...).
  [[nodiscard]] virtual std::string Name() const = 0;

  /// Row dimension d.
  [[nodiscard]] virtual int Dim() const = 0;

 protected:
  /// Shared Observe() precondition check: `site` must be in
  /// [0, num_sites), `row.timestamp` must not precede the last observed
  /// timestamp, and `row` must hold Dim() finite values with support
  /// indices in [0, Dim()). The values are read in one pass. On OK the
  /// timestamp watermark advances; on error no state changes.
  [[nodiscard]] Status ValidateObserve(int site, int num_sites,
                                       const TimedRow& row);

 private:
  Timestamp last_observe_time_ = std::numeric_limits<Timestamp>::min();
};

}  // namespace dswm

#endif  // DSWM_CORE_TRACKER_H_
