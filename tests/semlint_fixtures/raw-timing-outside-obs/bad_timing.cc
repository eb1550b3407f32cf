// semlint-fixture-path: src/core/bad_timing.cc
// Fixture: Stopwatch and std::chrono outside src/common and src/obs.
Stopwatch sw;
const auto start = std::chrono::steady_clock::now();
