// semlint-fixture-path: src/obs/ok_timing.cc
// Fixture: src/obs implements obs::Span and may read the clock; a
// namespace of our own called chrono is not std::chrono.
const auto start = std::chrono::steady_clock::now();
int ticks = dswm::chrono::Ticks();
