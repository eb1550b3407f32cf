// semlint-fixture-path: src/stream/bad_unused_allow.cc
// Fixture: a marker on a preprocessor directive suppresses nothing (no code
// rule matches a directive), so it must be flagged as stale.
#include <thread>  // dswm-semlint: allow(raw-thread-outside-common)

namespace dswm {

int Identity(int x) { return x; }

}  // namespace dswm
