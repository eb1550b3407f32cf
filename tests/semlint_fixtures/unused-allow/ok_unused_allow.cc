// semlint-fixture-path: src/stream/ok_unused_allow.cc
// Fixture: a marker that silences a real finding on its line is in use.
#include <chrono>

namespace dswm {

long long NowTicks() {
  return std::chrono::steady_clock::now()  // dswm-semlint: allow(raw-timing-outside-obs)
      .time_since_epoch()
      .count();
}

}  // namespace dswm
